import json
import math
import re

import numpy as np
import pytest

import lpkmeans.certify
import lpkmeans.cli
from lpkmeans.cli import main, mix_seed, read_labels_csv, read_points_csv

F_KMEANS = 146.0 / 72.0


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_five_point_stdout(capsys):
    code, out, _ = run_cli(capsys, "generate", "--model", "five-point")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 5
    assert all(len(l.split(",")) == 3 for l in lines)
    assert out.startswith("# {")


def test_generate_roundtrip_and_determinism(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    labels = tmp_path / "pts.labels.csv"
    args = (
        "generate", "--model", "ssm", "--n", "20", "--m", "2",
        "--delta", "3.0", "--r1", "1.0", "--seed", "7", "--out", str(out),
    )
    assert run_cli(capsys, *args)[0] == 0
    first = out.read_bytes()
    first_labels = labels.read_bytes()
    assert run_cli(capsys, *args)[0] == 0
    assert out.read_bytes() == first
    assert labels.read_bytes() == first_labels

    points = read_points_csv(str(out))
    lab = read_labels_csv(str(labels))
    assert points.n == 20 and points.m == 2
    assert lab.size == 20 and set(np.unique(lab)) == {0, 1}


def test_generate_five_ball_counts(tmp_path, capsys):
    out = tmp_path / "fb.csv"
    code, _, _ = run_cli(
        capsys, "generate", "--model", "five-ball", "--n-prime", "4",
        "--radius", "0.0", "--m", "3", "--out", str(out),
    )
    assert code == 0
    points = read_points_csv(str(out))
    assert points.n == 20
    # four identical copies of each center at radius zero
    for p in range(5):
        block = points.coords[4 * p : 4 * (p + 1)]
        assert np.all(block == block[0])


def test_solve_five_point_document(tmp_path, capsys):
    pts = tmp_path / "five.csv"
    run_cli(capsys, "generate", "--model", "five-point", "--out", str(pts))
    doc_path = tmp_path / "result.json"
    code, _, _ = run_cli(
        capsys, "solve", "--input", str(pts), "--k", "2", "--out", str(doc_path)
    )
    # the relaxation is not tight here, so the gap cannot close: exit 2
    assert code == 2
    doc = json.loads(doc_path.read_text())
    assert doc["instance"]["n"] == 5 and doc["instance"]["k"] == 2
    assert doc["f_ub"] == pytest.approx(F_KMEANS, abs=1e-9)
    assert doc["tight"] is False
    assert doc["status"] == "no_more_cuts"
    assert doc["r_g"] == pytest.approx(0.0489237, abs=1e-3)
    assert len(doc["assignments"]) == 5
    for key in ("f_lb", "rounds", "timings", "config"):
        assert key in doc
    # spectral rounding has one mode, so neither the flag nor the key exists
    assert "rounding_mode" not in doc["config"]
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(pts), "--k", "2", "--rounding-mode", "normalized"])
    assert exc.value.code == 2  # argparse's code for an unknown flag


def test_solve_singletons_exit_zero(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,0\n0,1\n1,1\n")
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_ub"] == 0.0
    assert doc["tight"] is True


@pytest.mark.parametrize(
    "rows", [["0,0"] * 5 + ["1,1"] * 5, ["2,3"] * 10], ids=["two-groups", "all-identical"]
)
def test_solve_zero_cost_exit_zero(tmp_path, capsys, rows):
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_ub"] == 0.0 and doc["f_lb"] == 0.0 and doc["r_g"] == 0.0


def test_solve_ssm_recovers_planted(tmp_path, capsys):
    pts = tmp_path / "ssm.csv"
    labels = tmp_path / "ssm.labels.csv"
    run_cli(
        capsys, "generate", "--model", "ssm", "--n", "40", "--m", "2",
        "--delta", "3.0", "--r1", "1.0", "--seed", "5", "--out", str(pts),
    )
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["tight"] is True
    from lpkmeans.core import same_partition

    assert same_partition(np.array(doc["assignments"]), read_labels_csv(str(labels)))


def test_solve_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad), "--k", "2")
    assert code == 1
    assert "line 2" in err
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(ragged), "--k", "2")
    assert code == 1
    assert "line 2" in err and "columns" in err
    ok = tmp_path / "ok.csv"
    ok.write_text("1,2\n3,4\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(ok), "--k", "5")
    assert code == 1
    assert "exceeds" in err
    code, out, err = run_cli(capsys, "solve", "--input", str(ok), "--k", "2", "--t-max", "1")
    assert code == 1 and out == ""
    assert "t_cap must be >= 2" in err
    code, _, err = run_cli(capsys, "solve", "--input", str(tmp_path / "nope.csv"), "--k", "2")
    assert code == 1


@pytest.mark.parametrize("limit", ["0", "-1", "nan", "x"])
def test_solve_rejects_a_non_positive_lp_time_limit(tmp_path, capsys, monkeypatch, limit):
    # a usage error before any work, from the flag and from the environment
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(pts), "--k", "2", "--lp-time-limit", limit])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert f"argument --lp-time-limit: must be a positive number, got '{limit}'" in err
    monkeypatch.setenv("LPKMEANS_LP_TIME_LIMIT", limit)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(pts), "--k", "2"])
    assert exc.value.code == 2 and "--lp-time-limit" in capsys.readouterr().err
    # an explicit positive flag wins over the variable
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2",
                           "--lp-time-limit", "5")
    assert code in (0, 2) and json.loads(out)["config"]["lp_time_limit"] == 5.0


def _usage_error(capsys, *args) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out and "Traceback" not in err
    return err


@pytest.mark.parametrize("eps", ["0", "-1e-4", "nan", "x"])
def test_solve_rejects_a_non_positive_eps_opt(tmp_path, capsys, monkeypatch, eps):
    # NaN would end a solve with the gap closed and exit 2 as not optimal
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    err = _usage_error(capsys, "solve", "--input", str(pts), "--k", "2", f"--eps-opt={eps}")
    assert f"argument --eps-opt: must be a positive number, got '{eps}'" in err
    monkeypatch.setenv("LPKMEANS_EPS_OPT", eps)
    assert "--eps-opt" in _usage_error(capsys, "solve", "--input", str(pts), "--k", "2")


@pytest.mark.parametrize("eps", ["-1", "-inf", "nan", "x"])
def test_solve_rejects_a_negative_eps_vio(tmp_path, capsys, monkeypatch, eps):
    # a negative tolerance would add cuts that are not violated
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    err = _usage_error(capsys, "solve", "--input", str(pts), "--k", "2", f"--eps-vio={eps}")
    assert f"argument --eps-vio: must be a non-negative number, got '{eps}'" in err
    monkeypatch.setenv("LPKMEANS_EPS_VIO", eps)
    assert "--eps-vio" in _usage_error(capsys, "solve", "--input", str(pts), "--k", "2")
    code, out, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2", "--eps-vio", "0")
    assert code == 0 and json.loads(out)["config"]["eps_vio"] == 0.0


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "x"])
def test_recovery_sweep_rejects_a_non_positive_delta_step(capsys, step):
    # 0 divided by zero inside np.arange and NaN had no grid length
    err = _usage_error(capsys, "recovery-sweep", "--delta-min", "2", "--delta-max", "3",
                       f"--delta-step={step}", "--trials", "1", "--n", "20", "--m", "2")
    assert f"argument --delta-step: must be a positive number, got '{step}'" in err


@pytest.mark.parametrize("trials", ["0", "-2", "1.5"])
def test_recovery_sweep_rejects_a_non_positive_trial_count(capsys, trials):
    err = _usage_error(capsys, "recovery-sweep", "--delta-min", "3", "--delta-max", "3",
                       f"--trials={trials}", "--n", "20")
    assert f"argument --trials: must be a positive integer, got '{trials}'" in err


@pytest.mark.parametrize(("flag", "value", "what"), [
    ("--tol", "0", "number"), ("--tol", "-1e-8", "number"), ("--tol", "nan", "number"),
    ("--max-iters", "0", "integer"), ("--max-iters", "-5", "integer"),
    ("--max-iters", "x", "integer"),
])
def test_lp_direct_rejects_a_non_positive_tolerance_or_budget(tmp_path, capsys, flag, value,
                                                               what):
    # a NaN tolerance ran the whole budget and 0 iterations still ran one
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    err = _usage_error(capsys, "lp-direct", "--input", str(pts), "--k", "2", f"{flag}={value}")
    assert f"argument {flag}: must be a positive {what}, got '{value}'" in err
    code, out, _ = run_cli(capsys, "lp-direct", "--input", str(pts), "--k", "2",
                           "--max-iters", "1")
    assert code == 2 and json.loads(out)["iterations"] == 1


@pytest.mark.parametrize("t", ["1", "-3", "0", "2.5", "x"])
def test_lp_direct_rejects_a_set_size_below_two(tmp_path, capsys, t):
    # --t 1 and --t -3 built the equality rows alone and exited 0
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n4,0\n0,4\n4,4\n")
    err = _usage_error(capsys, "lp-direct", "--input", str(pts), "--k", "2", f"--t={t}")
    assert f"argument --t: must be an integer >= 2, got '{t}'" in err
    code, out, _ = run_cli(capsys, "lp-direct", "--input", str(pts), "--k", "2", "--t", "2")
    assert code == 0 and json.loads(out)["t"] == 2


def test_header_flag(tmp_path, capsys):
    pts = tmp_path / "h.csv"
    pts.write_text("x,y\n0,0\n1,0\n0,1\n")
    with pytest.raises(SystemExit):
        main(["solve", "--input", str(pts), "--k"])  # malformed flags exit via argparse
    code, _, _ = run_cli(capsys, "solve", "--input", str(pts), "--k", "2", "--header")
    assert code in (0, 2)
    points = read_points_csv(str(pts), header=True)
    assert points.n == 3


def test_certify_command(tmp_path, capsys):
    pts = tmp_path / "c.csv"
    run_cli(
        capsys, "generate", "--model", "ssm", "--n", "30", "--m", "2",
        "--delta", "4.0", "--r1", "1.0", "--seed", "3", "--out", str(pts),
    )
    code, out, _ = run_cli(
        capsys, "certify", "--input", str(pts),
        "--labels", str(tmp_path / "c.labels.csv"), "--cross-check",
    )
    assert code == 0
    assert "proximity: holds_strict" in out
    assert "certificate: success" in out
    assert "partition matrix: True" in out


def test_certify_cross_check_bound_below_partition_cost(tmp_path, capsys):
    # the PDHG objective, 22.0878436537, read above the partition cost,
    # 22.0878436429, which the relaxation's optimum cannot exceed
    pts = tmp_path / "g.csv"
    run_cli(capsys, "generate", "--model", "ssm", "--n", "12", "--m", "2", "--delta", "3.0",
            "--out", str(pts))
    code, out, _ = run_cli(
        capsys, "certify", "--input", str(pts), "--labels", str(tmp_path / "g.labels.csv"),
        "--cross-check",
    )
    assert code == 0
    found = re.search(r"verified lower bound (\S+)\) vs partition cost (\S+)", out)
    assert found is not None
    assert float(found[1]) <= float(found[2])


def test_certify_command_computes_slacks_once(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "s.csv"
    run_cli(
        capsys, "generate", "--model", "sbm", "--n", "40", "--m", "2",
        "--delta", "2.3", "--r1", "1.0", "--seed", "3", "--out", str(pts),
    )
    calls = []
    pair_slacks = lpkmeans.certify._pair_slacks

    def counting(d, stats):
        calls.append(d.shape)
        return pair_slacks(d, stats)

    monkeypatch.setattr(lpkmeans.certify, "_pair_slacks", counting)
    code, out, _ = run_cli(
        capsys, "certify", "--input", str(pts), "--labels", str(tmp_path / "s.labels.csv")
    )
    assert code in (0, 2)
    assert out.startswith("proximity: ") and "certificate: " in out
    assert calls == [(40, 40)]


def test_certify_failure_exit_code(tmp_path, capsys):
    pts = tmp_path / "f.csv"
    run_cli(
        capsys, "generate", "--model", "sbm", "--n", "30", "--m", "2",
        "--delta", "0.5", "--r1", "1.0", "--seed", "3", "--out", str(pts),
    )
    code, out, _ = run_cli(
        capsys, "certify", "--input", str(pts), "--labels", str(tmp_path / "f.labels.csv")
    )
    assert code == 2
    assert "certificate: failure" in out
    assert "deficit" in out


def test_certify_cross_check_limit_checked_before_distances(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "x.csv"
    lab = tmp_path / "x.labels.csv"
    pts.write_text("".join(f"{i},0\n" for i in range(81)))
    lab.write_text("".join(f"{int(i >= 40)}\n" for i in range(81)))
    calls = []
    monkeypatch.setattr(lpkmeans.cli, "squared_distances", lambda points: calls.append(points))
    code, out, err = run_cli(
        capsys, "certify", "--input", str(pts), "--labels", str(lab), "--cross-check"
    )
    assert code == 1 and "limited to n <= 80" in err
    assert "proximity:" not in out and calls == []


def test_certify_label_validation(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n1,0\n2,0\n")
    lab = tmp_path / "l.csv"
    lab.write_text("0\n1\n2\n")
    code, _, err = run_cli(capsys, "certify", "--input", str(pts), "--labels", str(lab))
    assert code == 1 and "2 clusters" in err


def test_recovery_sweep_extreme_separation(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "recovery-sweep", "--delta-min", "10", "--delta-max", "10",
        "--delta-step", "1", "--trials", "1", "--n", "20", "--m", "2",
        "--mode", "lp", "--seed", "1",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 1
    delta, rate, tight_rate, rounds = rows[0].split(",")
    assert float(rate) == 1.0 and float(tight_rate) == 1.0


def test_recovery_sweep_certify_mode(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "recovery-sweep", "--delta-min", "2.0", "--delta-max", "3.0",
        "--delta-step", "1.0", "--trials", "3", "--n", "40", "--m", "2",
        "--mode", "certify", "--model", "sbm", "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2
    rates = [float(r.split(",")[1]) for r in rows]
    assert rates[1] >= rates[0]  # more separation cannot hurt


@pytest.mark.parametrize(
    "delta_max, trials, jobs, pool_size",
    [(3, 1, 64, None), (3, 3, 64, 3), (4, 2, 2, 2), (3, 2, 1, None)],
    ids=["one-task", "fewer-tasks-than-jobs", "more-tasks-than-jobs", "serial"],
)
def test_recovery_sweep_pool_never_outnumbers_its_tasks(capsys, monkeypatch, delta_max, trials,
                                                       jobs, pool_size):
    sizes = []

    class RecordingExecutor:
        """Records the pool size asked for and runs the tasks in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(lpkmeans.cli, "ProcessPoolExecutor", RecordingExecutor)
    code, out, _ = run_cli(
        capsys, "recovery-sweep", "--delta-min", "3", "--delta-max", str(delta_max),
        "--delta-step", "1", "--trials", str(trials), "--n", "20", "--m", "2",
        "--mode", "proximity", "--model", "sbm", "--jobs", str(jobs),
    )
    assert code == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == delta_max - 2


def test_recovery_sweep_empty_grid(capsys):
    code, _, err = run_cli(
        capsys, "recovery-sweep", "--delta-min", "3", "--delta-max", "2", "--delta-step", "1"
    )
    assert code == 1 and "grid" in err


def test_lp_direct_five_point(tmp_path, capsys):
    pts = tmp_path / "five.csv"
    run_cli(capsys, "generate", "--model", "five-point", "--out", str(pts))
    code, out, _ = run_cli(capsys, "lp-direct", "--input", str(pts), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == pytest.approx(54 / 28, abs=1e-6)
    assert doc["tight"] is False
    assert doc["rows"] == 36
    assert doc["safe_lower_bound"] <= doc["objective"] + 1e-9
    # the PDHG state behind the solve: accepted and rejected step counts,
    # restarts, products with K or K^T, the next step and the primal weight
    for key in ("iterations", "rejected_steps", "restarts", "matvecs", "step", "primal_weight"):
        assert math.isfinite(doc[key]) and doc[key] >= 0, key
    assert doc["step"] > 0 and doc["primal_weight"] > 0
    assert doc["matvecs"] >= 2 * (doc["iterations"] + doc["rejected_steps"])


def test_bounds_hold_under_rounding_at_k_equals_n(tmp_path, capsys):
    # y.b and r.ub cancel where the optimum is 0; both bounds once came out
    # positive (2.8e-14 and 4.5e-13)
    kn = tmp_path / "kn.csv"
    np.savetxt(kn, np.random.default_rng(1).normal(size=(6, 2)), delimiter=",", fmt="%.17g")
    code, out, _ = run_cli(capsys, "solve", "--input", str(kn), "--k", "6")
    doc = json.loads(out)
    assert code == 0 and doc["f_lb"] == 0.0 <= doc["f_ub"]

    pts = tmp_path / "s20.csv"
    run_cli(capsys, "generate", "--model", "ssm", "--n", "20", "--m", "2", "--delta", "3",
            "--seed", "1", "--out", str(pts))
    code, out, _ = run_cli(capsys, "lp-direct", "--input", str(pts), "--k", "20")
    doc = json.loads(out)
    assert code == 0 and doc["safe_lower_bound"] <= 0.0


def test_mix_seed_spread():
    seeds = {mix_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(123, 0) == mix_seed(123, 0)
    assert mix_seed(123, 0) != mix_seed(124, 0)
