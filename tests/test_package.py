import subprocess
import sys
from pathlib import Path

import gamlp


def test_lazy_exports():
    g = gamlp.build_graph([(0, 1)], 2)
    assert isinstance(g, gamlp.CsrGraph)
    assert gamlp.__version__
    try:
        gamlp.not_a_thing
    except AttributeError:
        pass
    else:
        raise AssertionError("unknown attribute should raise")


def test_console_entry_point_help():
    result = subprocess.run([sys.executable, "-m", "gamlp.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    for sub in ("preprocess", "train", "eval", "sweep", "ablate", "export-attention",
                "inspect"):
        assert sub in result.stdout


def test_sbm_fixture_script(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_sbm_fixture.py"
    out = tmp_path / "sbm"
    conf = tmp_path / "sbm.conf"
    result = subprocess.run(
        [sys.executable, str(script), "--out", str(out), "--blocks", "10,10",
         "--config-out", str(conf)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    from gamlp.config import parse_config
    from gamlp.data import load_dataset

    assert load_dataset(out).n == 20
    assert parse_config(conf).dataset_dir == str(out)
