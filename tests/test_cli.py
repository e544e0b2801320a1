import json

import numpy as np
import pytest

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
    code, _, err = run_cli(capsys, "solve", "--input", str(tmp_path / "nope.csv"), "--k", "2")
    assert code == 1


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


def test_mix_seed_spread():
    seeds = {mix_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(123, 0) == mix_seed(123, 0)
    assert mix_seed(123, 0) != mix_seed(124, 0)
