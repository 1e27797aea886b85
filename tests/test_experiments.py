import csv
import json

import numpy as np
import pytest

from gamlp import experiments
from gamlp.config import TrainConfig
from gamlp.data import generate_sbm
from gamlp.experiments import (ABLATIONS, method_config, run_ablation, run_baseline_table,
                               run_depth_sweep, run_sparsity_sweep, write_report)
from gamlp.pipeline import build_stacks


def _base_config(**overrides):
    base = dict(dataset_dir="unused", hops=3, hidden=16, num_layers=2,
                label_num_layers=2, jk_layers=2, epochs=60, patience=20, lr=0.01,
                input_dropout=0.0, attention_dropout=0.0, dropout=0.0, seed=0)
    base.update(overrides)
    return TrainConfig(**base).validate()


@pytest.fixture(scope="module")
def sbm():
    return generate_sbm([25, 25], 0.3, 0.03, 5, 2.0, seed=4, name="sbm")


def _methods(cfg, names):
    return {name: method_config(cfg, name) for name in names}


def test_method_config_overrides():
    cfg = _base_config()
    sgc = method_config(cfg, "sgc")
    assert sgc.attention == "sgc" and sgc.num_layers == 1 and not sgc.use_labels
    assert method_config(cfg, "gamlp_r").attention == "recursive"
    with pytest.raises(ValueError):
        method_config(cfg, "gat")


def test_single_run_has_zero_std(sbm):
    report = run_baseline_table(sbm, _methods(_base_config(), ["sgc"]), n_runs=1, base_seed=0)
    assert len(report["rows"]) == 1
    assert report["summary"][0]["std"] == 0.0
    assert report["summary"][0]["n_runs"] == 1


def test_reports_are_deterministic(sbm):
    cfgs = _methods(_base_config(), ["gamlp_jk", "sgc"])
    a = run_baseline_table(sbm, cfgs, n_runs=2, base_seed=0)
    b = run_baseline_table(sbm, cfgs, n_runs=2, base_seed=0)
    assert a["rows"] == b["rows"]
    assert a["summary"] == b["summary"]


def test_report_embeds_resolved_configs(sbm):
    report = run_baseline_table(sbm, _methods(_base_config(), ["gamlp_jk"]), n_runs=1, base_seed=0)
    cfg = report["configs"]["gamlp_jk"]
    assert cfg["hops"] == 3 and cfg["attention"] == "jk"
    assert report["seeds"] == [0]


def test_depth_zero_reduces_to_feature_only_mlp(sbm):
    # with no propagation the linear baselines are byte-identical pipelines
    report = run_depth_sweep(sbm, [0], _methods(_base_config(), ["sgc", "s2gc"]),
                             n_runs=1, base_seed=0)
    accs = {r["method"]: r["test_acc"] for r in report["rows"]}
    assert accs["sgc"] == accs["s2gc"]


def test_depth_sweep_sets_label_hops(sbm):
    report = run_depth_sweep(sbm, [0, 2], _methods(_base_config(), ["gamlp_jk"]),
                             n_runs=1, base_seed=0)
    assert report["configs"]["gamlp_jk@depth2"]["hops"] == 2
    assert report["configs"]["gamlp_jk@depth2"]["label_hops"] == 2
    settings = {r["setting"] for r in report["rows"]}
    assert settings == {"depth0", "depth2"}


def test_edge_sparsity_zero_matches_baseline_table(sbm):
    cfgs = _methods(_base_config(), ["sgc"])
    table = run_baseline_table(sbm, cfgs, n_runs=1, base_seed=0)
    sweep = run_sparsity_sweep(sbm, "edge", [0.0], cfgs, n_runs=1, base_seed=0)
    assert sweep["rows"][0]["test_acc"] == table["rows"][0]["test_acc"]


def test_edge_sparsity_levels_run(sbm):
    report = run_sparsity_sweep(sbm, "edge", [0.0, 0.5], _methods(_base_config(), ["sgc"]),
                                n_runs=1, base_seed=0)
    assert {r["setting"] for r in report["rows"]} == {"edge0", "edge0.5"}
    assert report["perturb_seed"] == 7


def test_label_sparsity_uses_exact_counts(sbm):
    report = run_sparsity_sweep(sbm, "label", [1, 3],
                                _methods(_base_config(), ["gamlp_jk", "sgc"]), n_runs=1,
                                base_seed=0)
    assert {r["setting"] for r in report["rows"]} == {"label1", "label3"}
    # both methods saw identical perturbations: rows repeat per method
    by_setting = {}
    for r in report["rows"]:
        by_setting.setdefault(r["setting"], []).append(r["method"])
    assert all(sorted(v) == ["gamlp_jk", "sgc"] for v in by_setting.values())


def test_sparsity_rejects_unknown_kind(sbm):
    with pytest.raises(ValueError):
        run_sparsity_sweep(sbm, "feature", [0.1], _methods(_base_config(), ["sgc"]), 1, 0)


def test_ablation_label_use_wiring(sbm):
    report = run_ablation(sbm, "label_use", _base_config(epochs=10, patience=10),
                          n_runs=1, base_seed=0)
    cfgs = report["configs"]
    assert cfgs["no_label"]["use_labels"] is False
    assert cfgs["plain_label"]["label_mode"] == "plain"
    assert cfgs["uniform"]["label_mode"] == "uniform"
    assert {r["method"] for r in report["rows"]} == {"full", "no_label",
                                                     "plain_label", "uniform"}


def test_ablation_reference_wiring(sbm):
    report = run_ablation(sbm, "reference_vector", _base_config(epochs=10, patience=10),
                          n_runs=1, base_seed=0)
    assert report["configs"]["normal_noise"]["reference"] == "normal_noise"
    assert report["configs"]["no_reference"]["reference"] == "no_reference"


def test_alpha_scheme_ablation_builds_the_stacks_once(sbm, monkeypatch):
    # the residual scheme only blends the cached label steps at train time
    calls = []

    def counting_build_stacks(dataset, config):
        calls.append(config.residual_scheme)
        return build_stacks(dataset, config)

    monkeypatch.setattr(experiments, "build_stacks", counting_build_stacks)
    report = run_ablation(sbm, "alpha_scheme", _base_config(epochs=5, patience=5), n_runs=1,
                          base_seed=0)
    assert {r["method"] for r in report["rows"]} == set(ABLATIONS["alpha_scheme"])
    assert len(calls) == 1


def test_sparsity_sweep_builds_the_stacks_once_per_level(sbm, monkeypatch):
    # gamlp_jk and gamlp_r share a stack recipe; each level has its own graph
    calls = []

    def counting_build_stacks(dataset, config):
        calls.append(dataset)
        return build_stacks(dataset, config)

    monkeypatch.setattr(experiments, "build_stacks", counting_build_stacks)
    report = run_sparsity_sweep(sbm, "edge", [0.0, 0.5],
                                _methods(_base_config(epochs=5, patience=5),
                                         ["gamlp_jk", "gamlp_r"]), n_runs=1, base_seed=0)
    assert len(report["rows"]) == 4
    assert len(calls) == 2 and calls[0] is sbm and calls[1] is not sbm


def test_ablation_rejects_unknown_family(sbm):
    with pytest.raises(ValueError):
        run_ablation(sbm, "magic", _base_config(), 1, 0)


def test_deep_propagation_attention_survives_where_sgc_collapses():
    """Depth-60 analogue of the deep-propagation study: the node-adaptive
    combiner can fall back on shallow steps, the fixed-depth baseline
    over-smooths toward chance."""
    ds = generate_sbm([60, 60], 0.15, 0.02, 6, 1.5, seed=3, name="sbm")
    base = _base_config(epochs=120, patience=40, dropout=0.1)
    methods = {"gamlp_jk": method_config(base, "gamlp_jk"),
               "sgc": method_config(base, "sgc")}
    report = run_depth_sweep(ds, [3, 60], methods, n_runs=5, base_seed=0)
    means = {(s["method"], s["setting"]): s["mean"] for s in report["summary"]}
    assert means[("gamlp_jk", "depth60")] >= means[("gamlp_jk", "depth3")] - 0.05
    assert means[("sgc", "depth60")] <= means[("sgc", "depth3")] - 0.2


def test_alpha_scheme_ordering_on_label_informative_sbm():
    """Cosine >= fixed(0.7) mean accuracy when labels carry the signal.

    The per-instance margin is small at desk scale, so the ordering is
    asserted on the mean over six SBM instances (10 training seeds each).
    """
    base = _base_config(hops=5, label_hops=5, epochs=150, patience=40, dropout=0.1)
    means = {"cosine": [], "linear": [], "fixed": []}
    for instance_seed in range(10, 16):
        ds = generate_sbm([45, 45], 0.25, 0.01, 4, 0.3, seed=instance_seed, name="sbm")
        report = run_ablation(ds, "alpha_scheme", base, n_runs=10, base_seed=0)
        for s in report["summary"]:
            means[s["method"]].append(s["mean"])
    assert np.mean(means["cosine"]) >= np.mean(means["fixed"])


def test_write_report_files(sbm, tmp_path):
    report = run_baseline_table(sbm, _methods(_base_config(), ["sgc"]), n_runs=2, base_seed=0)
    csv_path, json_path = write_report(report, tmp_path / "out" / "table")
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert rows[0]["method"] == "sgc"
    summary = json.loads(json_path.read_text())
    assert summary["summary"][0]["n_runs"] == 2
    assert "configs" in summary and "seeds" in summary
