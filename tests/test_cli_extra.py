import json

import numpy as np
import pytest

from lpkmeans.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_env_var_defaults_and_flag_precedence(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    monkeypatch.setenv("LPKMEANS_SEED", "123")
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2")
    assert code in (0, 2)
    assert json.loads(out)["config"]["seed"] == 123
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2", "--seed", "9")
    assert json.loads(out)["config"]["seed"] == 9


def test_malformed_env_var_fails_only_its_flag(tmp_path, capsys, monkeypatch):
    pts, labels = tmp_path / "g.csv", tmp_path / "g.labels.csv"
    code, _, _ = run_cli(capsys, "generate", "--model", "ssm", "--n", "20", "--delta", "3.0",
                         "--seed", "1", "--out", str(pts), "--labels-out", str(labels))
    assert code == 0
    monkeypatch.setenv("LPKMEANS_JOBS", "x")
    # certify has no --jobs: the variable is never read
    code, out, err = run_cli(capsys, "certify", "--input", str(pts), "--labels", str(labels))
    assert code == 0 and "certificate: success" in out and not err
    # recovery-sweep has it: a usage error naming the flag, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["recovery-sweep", "--delta-min", "3", "--delta-max", "3", "--trials", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --jobs: invalid int value: 'x'" in err and "Traceback" not in err
    # an explicit flag is parsed instead of the variable
    code, _, _ = run_cli(capsys, "recovery-sweep", "--delta-min", "3", "--delta-max", "3",
                         "--trials", "1", "--n", "20", "--mode", "proximity", "--jobs", "1")
    assert code == 0


def test_negative_pool_limits_rejected(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    for flag in ("--p-init", "--p-max"):
        code, out, err = run_cli(capsys, "solve", "--input", str(pts), "--k", "2", flag, "-5")
        assert code == 1 and not out
        assert err.strip() == f"error: {flag[2:].replace('-', '_')} must be >= 0"


def test_recovery_sweep_jobs_parallel_matches_serial(tmp_path, capsys):
    args = (
        "recovery-sweep", "--delta-min", "2.4", "--delta-max", "2.8",
        "--delta-step", "0.4", "--trials", "2", "--n", "30", "--m", "2",
        "--mode", "proximity", "--model", "sbm", "--seed", "4",
    )
    code, serial, _ = run_cli(capsys, *args, "--jobs", "1")
    assert code == 0
    code, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code == 0
    assert serial == parallel


def test_solve_t_max_cap(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(12, 2))
    pts.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(pts), "--k", "3", "--t-max", "2", "--seed", "3"
    )
    assert code in (0, 2)
    doc = json.loads(out)
    assert doc["config"]["t_cap"] == 2
    assert doc["status"] in ("converged", "no_more_cuts")


def test_lp_direct_guard(tmp_path, capsys):
    pts = tmp_path / "big.csv"
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(301, 2))
    pts.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")
    code, _, err = run_cli(capsys, "lp-direct", "--input", str(pts), "--k", "2")
    assert code == 1 and "infeasible" in err
