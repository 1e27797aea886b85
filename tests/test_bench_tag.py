import importlib.util
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

