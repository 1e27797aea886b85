import os
import subprocess
import sys
from pathlib import Path

import gamlp
from gamlp.cli import main


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


def test_sbm_fixture_config_runs_from_any_directory(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_sbm_fixture.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out", "probe/ds", "--blocks", "10,10",
         "--config-out", "probe/c.conf"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(gamlp.__file__).resolve().parents[1])})
    assert result.returncode == 0, result.stderr
    monkeypatch.chdir(tmp_path / "probe")
    assert main(["preprocess", "--config", "c.conf"]) == 0
    cache = tmp_path.resolve() / "probe" / "cache" / "ds"
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {cache / 'features_K3_r0.5.npy'}", f"wrote {cache / 'labels_L3_r0.5.npy'}"]


SRC = str(Path(gamlp.__file__).resolve().parents[1])


def _scipy_modules_after(code: str) -> str:
    """stderr of ``code`` in a new interpreter importing this checkout's gamlp,
    after which it prints the scipy modules loaded. The test suite itself has
    imported scipy, so only a new interpreter can tell."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    result = subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    return result.stderr


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # so that the CLI can pin thread counts before numpy loads
    code = ("import sys, gamlp\nprint(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('gamlp', 'numpy')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.stdout == "['gamlp']\n", result.stderr
    assert gamlp.__version__


def test_importing_the_package_modules_loads_no_scipy():
    assert _scipy_modules_after(
        "import gamlp.cli, gamlp.data, gamlp.model, gamlp.pipeline") == "[]\n"


def test_only_preprocess_loads_scipy(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_sbm_fixture.py"
    subprocess.run([sys.executable, str(script), "--out", "sbm", "--config-out", "sbm.conf"],
                   capture_output=True, check=True, cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": SRC})
    conf, cache = str(tmp_path / "sbm.conf"), tmp_path / "cache" / "sbm"
    assert main(["preprocess", "--config", conf]) == 0
    assert main(["train", "--config", conf]) == 0
    capsys.readouterr()
    ckpt = str(cache / "checkpoint.gmck")
    commands = [["eval", "--config", conf, "--checkpoint", ckpt],
                ["export-attention", "--config", conf, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "att")],
                ["train", "--config", conf, "--checkpoint", str(tmp_path / "c.gmck")],
                ["inspect", str(cache / "features_K3_r0.5.npy")]]
    for argv in commands:
        code = f"from gamlp.cli import main\nassert main({argv!r}) == 0"
        assert _scipy_modules_after(code).splitlines()[-1] == "[]", argv[0]
    code = f"from gamlp.cli import main\nassert main(['preprocess', '--config', {conf!r}]) == 0"
    assert "'scipy.sparse'" in _scipy_modules_after(code).splitlines()[-1]
