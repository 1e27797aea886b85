import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

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


def test_main_writes_the_record_and_exits_1_when_an_op_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_tag, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "a"}, {"name": "b"}], "run_seconds": 3.0, "end_to_end": []}))
    calls, real_collect = [], bench_tag.collect
    # the fake traced runs fail one op each; under tag "clean" no run fails
    runs = {"failing": _fake_run(calls),
            "clean": lambda *args: {**_fake_run(calls)(*args), "failed": 0}}
    monkeypatch.setattr(bench_tag, "collect",
                        lambda tag, *args: real_collect(tag, *args, run=runs[tag]))
    assert bench_tag.main(["--tag", "failing"]) == 1
    assert bench_tag.main(["--tag", "clean"]) == 0
    # every workload of BENCHMARK.json, at seed SEED and its run length
    assert calls == [(w, 7, 3.0, trace) for w in "ab" for trace in (0, 1)] * 2
    for tag, failed in (("failing", 1), ("clean", 0)):
        record = json.loads((tmp_path / f"BENCH_{tag}.json").read_text())
        assert record == real_collect(tag, ["a", "b"], 7, 3.0, run=runs[tag])
        assert record["workloads"]["a"]["ops_failed"] == failed and "pairs" not in record
    assert capsys.readouterr().out.splitlines() == ["wrote BENCH_failing.json",
                                                    "wrote BENCH_clean.json"]


SPECS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
         {"name": "train_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25}]


def _fake_pair_run(calls, parent_root):
    """Runs in which the change's peak is 10 MB below the parent's, except at
    seed 9, throughput ties, and the parent's run at seed 10 fails."""
    def run(workload, seed, seconds, trace, root):
        side = "parent" if root == parent_root else "change"
        calls.append((workload, seed, side, seconds, trace))
        if (side, seed) == ("parent", 10):
            return {"failed": 1, "metrics": {}}
        peak = 100.0 + seed - (10.0 if side == "change" and seed != 9 else 0.0)
        return {"failed": 0, "metrics": {"peak_rss_mb": {"value": peak, "unit": "MB"},
                                         "train_rows_per_s": {"value": 5e3, "unit": "rows/s"}}}
    return run


def test_pairs_alternate_the_trees_over_shared_seeds(tmp_path):
    calls, parent_root = [], tmp_path / "parent"
    pairs = bench_tag.run_pairs(["a"], parent_root, 5, 3.0, SPECS,
                                run=_fake_pair_run(calls, parent_root))
    assert calls == [("a", seed, side, 3.0, 0) for seed, first, second in
                     ((7, "parent", "change"), (8, "change", "parent"),
                      (9, "parent", "change"), (10, "change", "parent"),
                      (11, "parent", "change")) for side in (first, second)]
    record = pairs["a"]
    assert record["seeds"] == [7, 8, 9, 10, 11]
    assert record["ops_failed"] == {"parent": 1, "change": 0}
    # the pair with the failed run is left out of every figure
    peak = record["metrics"]["peak_rss_mb"]
    assert peak["parent"] == {"values": [107.0, 108.0, 109.0, 111.0], "median": 108.5,
                              "q1": 107.75, "q3": 109.5}
    assert peak["change"] == {"values": [97.0, 98.0, 109.0, 101.0], "median": 99.5,
                              "q1": 97.75, "q3": 103.0}
    assert (peak["ratio"], peak["wins"], peak["pairs"]) == (99.5 / 108.5, 3, 4)
    # each pair's own ratio, of runs on one seed's data
    ratios = [97 / 107, 98 / 108, 109 / 109, 101 / 111]
    assert peak["pair_ratio"] == {"values": ratios,
                                  "median": (ratios[1] + ratios[3]) / 2,
                                  "q1": ratios[0] + (ratios[1] - ratios[0]) * 0.75,
                                  "q3": ratios[3] + (ratios[2] - ratios[3]) * 0.25}
    assert (peak["unit"], peak["better"]) == ("MB", "lower")
    rows = record["metrics"]["train_rows_per_s"]
    assert (rows["ratio"], rows["wins"], rows["pairs"]) == (1.0, 0, 4)
    assert rows["pair_ratio"]["values"] == [1.0] * 4
    assert bench_tag.pair_table(pairs) == [
        "| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] "
        "| change / parent | pair ratios median [Q1, Q3] | change better "
        "| gain beyond parent IQR | past bound |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
        "| a | `peak_rss_mb` | 108.5 [107.8, 109.5] | 99.5 [97.8, 103.0] | 0.917 "
        "| 0.909 [0.907, 0.932] | 3 of 4 | yes | no |",
        "| a | `train_rows_per_s` | 5.0k [5.0k, 5.0k] | 5.0k [5.0k, 5.0k] | 1.000 "
        "| 1.000 [1.000, 1.000] | 0 of 4 | no | no |"]


def test_parent_and_pairs_store_the_figures_under_pairs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_tag, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "a"}, {"name": "b"}], "run_seconds": 3.0, "end_to_end": SPECS}))
    collected, exported, calls = [], [], []
    parent_root = tmp_path / "parent"
    real_collect, real_pairs = bench_tag.collect, bench_tag.run_pairs

    def collect(tag, workloads, seed, seconds):
        collected.append(workloads)
        return real_collect(tag, workloads, seed, seconds, run=_fake_run([]))

    monkeypatch.setattr(bench_tag, "collect", collect)
    monkeypatch.setattr(bench_tag, "export_tree",
                        lambda rev: exported.append(rev) or parent_root)
    monkeypatch.setattr(bench_tag, "run_pairs", lambda *args: real_pairs(
        *args, run=_fake_pair_run(calls, parent_root)))
    # the traced fake runs and the parent's run at seed 10 fail one op each
    assert bench_tag.main(["--tag", "new", "--parent", "HEAD~1", "--pairs", "4"]) == 1
    # every workload of BENCHMARK.json, in the seed-7 records and in the pairs
    assert exported == ["HEAD~1"] and collected == [["a", "b"]]
    assert [c[0] for c in calls] == ["a"] * 8 + ["b"] * 8
    record = json.loads((tmp_path / "BENCH_new.json").read_text())
    assert list(record["workloads"]) == list(record["pairs"]["workloads"]) == ["a", "b"]
    assert record["pairs"]["parent"] == "HEAD~1"
    peak, rows = (record["pairs"]["workloads"]["b"]["metrics"][name]
                  for name in ("peak_rss_mb", "train_rows_per_s"))
    assert peak["wins"] == 2
    ratios = [97 / 107, 98 / 108, 109 / 109]
    assert peak["pair_ratio"] == {"values": ratios, "median": ratios[1],
                                  "q1": (ratios[0] + ratios[1]) / 2,
                                  "q3": (ratios[1] + ratios[2]) / 2}
    # the change's median is 10 MB lower, past the parent's IQR of 1 MB
    assert (peak["parent_iqr"], peak["beyond_iqr"], peak["past_bound"]) == (1.0, True, False)
    assert (rows["parent_iqr"], rows["beyond_iqr"], rows["past_bound"]) == (0.0, False, False)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "wrote BENCH_new.json"
    assert out[-2:] == [
        "| b | `peak_rss_mb` | 108.0 [107.5, 108.5] | 98.0 [97.5, 103.5] | 0.907 "
        "| 0.907 [0.907, 0.954] | 2 of 3 | yes | no |",
        "| b | `train_rows_per_s` | 5.0k [5.0k, 5.0k] | 5.0k [5.0k, 5.0k] | 1.000 "
        "| 1.000 [1.000, 1.000] | 0 of 3 | no | no |"]
    # the bound is a share of the parent's median: 0.1 of 100 MB and 0.25 of
    # 40k rows/s; a change worse by exactly the bound is not past it, and a
    # gain no wider than the parent's IQR is not beyond it
    for peak_mb, rows_k, past in ((110.0, 30.0, False), (110.5, 29.5, True)):
        figures = bench_tag.pair_figures(
            [{"metrics": {"peak_rss_mb": {"value": v}, "train_rows_per_s": {"value": r}}}
             for v, r in ((99.0, 39e3), (100.0, 40e3), (101.0, 41e3))],
            [{"metrics": {"peak_rss_mb": {"value": peak_mb}, "train_rows_per_s":
                          {"value": rows_k * 1e3}}}] * 3, SPECS)
        assert [(m["past_bound"], m["beyond_iqr"]) for m in figures.values()] == \
            [(past, False)] * 2
    figures = bench_tag.pair_figures(
        [{"metrics": {"train_rows_per_s": {"value": v}}} for v in (39e3, 40e3, 41e3)],
        [{"metrics": {"train_rows_per_s": {"value": v}}} for v in (41e3, 41e3, 41.1e3)],
        SPECS)
    rows = figures["train_rows_per_s"]
    assert (rows["parent_iqr"], rows["beyond_iqr"]) == (1e3, False)  # a 1k gain, no wider
    figures = bench_tag.pair_figures(
        [{"metrics": {"train_rows_per_s": {"value": v}}} for v in (39e3, 40e3, 41e3)],
        [{"metrics": {"train_rows_per_s": {"value": 41.5e3}}}] * 3, SPECS)
    assert figures["train_rows_per_s"]["beyond_iqr"] is True
    for argv in (["--parent", "HEAD~1"], ["--pairs", "3"], ["--parent", "x", "--pairs", "0"]):
        with pytest.raises(SystemExit):
            bench_tag.main(["--tag", "t", *argv])


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_tree_writes_each_commit_once(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("old\n")
    git("add", "benchmarks/run.py")
    git("commit", "-q", "-m", "old")
    (tmp_path / "benchmarks" / "run.py").write_text("new\n")
    git("commit", "-q", "-am", "new")
    monkeypatch.setattr(bench_tag, "ROOT", tmp_path)
    tree = bench_tag.export_tree("HEAD~1")
    assert tree.parent == tmp_path / ".bench_work" and tree.name.startswith("tree-")
    assert (tree / "benchmarks" / "run.py").read_text() == "old\n"
    assert not tree.with_name(tree.name + ".partial").exists()
    # a second call reuses the exported tree and writes nothing
    (tree / "marker").write_text("")
    assert bench_tag.export_tree("HEAD~1") == tree and (tree / "marker").exists()
    head = bench_tag.export_tree("HEAD")
    assert head != tree and (head / "benchmarks" / "run.py").read_text() == "new\n"
    with pytest.raises(subprocess.CalledProcessError):
        bench_tag.export_tree("no-such-rev")
