import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_tag.py"
spec = importlib.util.spec_from_file_location("bench_tag", SCRIPT)
bench_tag = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_tag)


def _fake_run(calls):
    def run(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        metric = "predict_rows_per_s" if trace == 0 else "model.predict.s"
        return {"environment": {"nproc": 2}, "attempted": 5, "failed": trace,
                "test_accuracy": [0.5 + trace],
                "metrics": {metric: {"value": 10.0 * (1 + trace), "unit": "x"}},
                "spans": [["not", "copied"]]}
    return run


def test_collect_keeps_both_runs_of_every_workload_and_no_spans():
    calls = []
    record = bench_tag.collect("t", ["a", "b"], 7, 3.0, run=_fake_run(calls))
    assert calls == [("a", 7, 3.0, 0), ("a", 7, 3.0, 1), ("b", 7, 3.0, 0), ("b", 7, 3.0, 1)]
    assert record["environment"] == {"nproc": 2}
    assert record["workloads"]["a"] == {
        "ops_attempted": 10, "ops_failed": 1, "test_accuracy": [0.5, 1.5],
        "end_to_end": {"predict_rows_per_s": {"value": 10.0, "unit": "x"}},
        "per_layer": {"model.predict.s": {"value": 20.0, "unit": "x"}}}
    assert "copied" not in str(record)


def test_against_prints_each_end_to_end_ratio_per_workload(tmp_path, capsys, monkeypatch):
    previous = bench_tag.collect("old", ["a", "b"], 7, 3.0, run=_fake_run([]))
    record = bench_tag.collect("new", ["a", "b"], 7, 3.0, run=_fake_run([]))
    record["workloads"]["a"]["end_to_end"]["predict_rows_per_s"]["value"] = 16.0
    del record["workloads"]["b"]["end_to_end"]["predict_rows_per_s"]
    specs = [{"name": "predict_rows_per_s", "unit": "rows/s", "better": "higher"}]
    assert bench_tag.compare(record, previous, specs) == [
        "a (new / old):",
        "  predict_rows_per_s: 10 -> 16 rows/s  1.600x (higher is better)",
        "b (new / old):",
        "  predict_rows_per_s: missing in new file"]
    # from the command line: run, write BENCH_new.json, compare on every metric
    # of BENCHMARK.json
    monkeypatch.setattr(bench_tag, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "a"}, {"name": "b"}], "run_seconds": 3.0,
         "end_to_end": specs + [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]}))
    monkeypatch.setattr(bench_tag, "collect", lambda *args: record)
    (tmp_path / "BENCH_old.json").write_text(json.dumps(previous))
    # the fake traced runs fail one op each, so the exit status is 1
    assert bench_tag.main(["--tag", "new", "--against", str(tmp_path / "BENCH_old.json")]) == 1
    assert json.loads((tmp_path / "BENCH_new.json").read_text()) == record
    assert capsys.readouterr().out.splitlines() == [
        "wrote BENCH_new.json", "a (new / old):",
        "  predict_rows_per_s: 10 -> 16 rows/s  1.600x (higher is better)",
        "  peak_rss_mb: missing in previous file", "b (new / old):",
        "  predict_rows_per_s: missing in new file", "  peak_rss_mb: missing in previous file"]
