"""End-to-end command-line checks: exit codes, output shapes, config merge."""
import csv
import io
import json
import math

import pytest

from drlines.cli import main

FIG = ["--theta1", "1.0471975511965976", "--theta2", "1.2566370614359172"]
# equidistant from both lines, so the random policy's coin is live here
TIE_X0 = "0.023397710243848114,0"

GOLDEN_CERT = (
    '{\n'
    '  "theta1": 1.0471975511965976,\n'
    '  "theta2": 1.2566370614359172,\n'
    '  "feasible": true,\n'
    '  "alpha": 1.3748748043992831,\n'
    '  "gamma": 0.56432221539729599,\n'
    '  "alpha_min": 0.93211209804140915,\n'
    '  "alpha_max": 1.817637510757157,\n'
    '  "condition_margin": 1.5862808715764862,\n'
    '  "special_case": false\n'
    '}\n')


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_certify_feasible_golden(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, text, _ = run_cli(capsys, ["certify", *FIG, "--out", str(out)])
    assert code == 0
    assert text == GOLDEN_CERT
    assert out.read_text() == GOLDEN_CERT


def test_certify_infeasible_exit_2(capsys):
    code, text, _ = run_cli(capsys, ["certify", "--theta1", "0.748491",
                                     "--theta2", "0.772301"])
    assert code == 2
    assert '"feasible": false' in text
    assert json.loads(text)["condition_margin"] < 0


def test_certify_deg_matches_radians(capsys):
    code, rad, _ = run_cli(capsys, ["certify", *FIG])
    assert code == 0
    code, deg, _ = run_cli(capsys, ["certify", "--theta1", "60",
                                    "--theta2", "72", "--deg"])
    assert code == 0
    a, b = json.loads(rad), json.loads(deg)
    assert a.keys() == b.keys()
    for k in a:
        assert a[k] == pytest.approx(b[k], rel=1e-13)


def test_exit_code_matrix(capsys, tmp_path):
    # precondition errors and usage errors both land on 1
    assert run_cli(capsys, ["certify", "--theta1", "0.5",
                            "--theta2", "0.4"])[0] == 1
    code, _, err = run_cli(capsys, ["iterate", *FIG])
    assert code == 1 and "--x0 is required" in err
    for cmd in ("iterate", "orbit", "robust"):
        code, _, err = run_cli(capsys, [cmd, *FIG, "--x0", "nan,0"])
        assert code == 1 and "finite" in err
    # budgets the robust run cannot honour, and a policy iterate cannot follow
    for flags in (["--traces", "0"], ["--traces", "-1"], ["--steps", "-5"]):
        code, out, err = run_cli(capsys, ["robust", *FIG, "--x0", "2,1",
                                          *flags])
        assert code == 1 and out == "" and flags[0] in err
    code, out, err = run_cli(capsys, ["iterate", *FIG, "--x0", TIE_X0,
                                      "--policy", "tree"])
    assert code == 1 and out == "" and "tree" in err
    cfg = tmp_path / "tree.json"
    cfg.write_text('{"policy": "tree"}')
    assert run_cli(capsys, ["iterate", *FIG, "--x0", "2,1",
                            "--config", str(cfg)])[0] == 1
    assert run_cli(capsys, ["no-such-command"])[0] == 1
    assert run_cli(capsys, [])[0] == 1
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["raster", "--help"])[0] == 0
    # I/O failures land on 3
    assert run_cli(capsys, ["certify", *FIG, "--config",
                            str(tmp_path / "missing.json")])[0] == 3
    assert run_cli(capsys, ["certify", *FIG, "--out",
                            str(tmp_path / "no" / "dir" / "c.json")])[0] == 3


def test_iterate_lands_on_anchor(capsys):
    code, text, _ = run_cli(capsys, [
        "iterate", "--theta1", "1.5707963267948966", "--theta2", "2",
        "--x0", "5,5", "--steps", "1"])
    assert code == 0
    assert text == "0 5 5\n1 -0.5 0\n"


def test_iterate_writes_trace_csv(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    code, text, _ = run_cli(capsys, ["iterate", *FIG, "--x0", "2,1",
                                     "--steps", "4", "--out", str(out)])
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 5
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "x", "y"]
    for line, row in zip(lines, rows[1:]):
        n, x, y = line.split()
        assert [n, x, y] == [row[0], row[1], row[2]]


def test_iterate_seed_changes_tie_branch(capsys):
    args = ["iterate", *FIG, "--policy", "random", "--x0", TIE_X0,
            "--steps", "1"]
    out0 = run_cli(capsys, args + ["--seed", "0"])[1]
    out1 = run_cli(capsys, args + ["--seed", "1"])[1]
    assert out0 != out1
    assert out0 == run_cli(capsys, args + ["--seed", "0"])[1]


def test_env_seed_wins(capsys, monkeypatch):
    args = ["iterate", *FIG, "--policy", "random", "--x0", TIE_X0,
            "--steps", "1", "--seed", "0"]
    monkeypatch.setenv("DR_SEED", "1")
    with_env = run_cli(capsys, args)[1]
    monkeypatch.delenv("DR_SEED")
    assert with_env == run_cli(capsys, ["iterate", *FIG, "--policy", "random",
                                        "--x0", TIE_X0, "--steps", "1",
                                        "--seed", "1"])[1]
    monkeypatch.setenv("DR_SEED", "junk")
    assert run_cli(capsys, args)[0] == 1


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta1": 0.3, "theta2": 9.9, "steps": 3}))
    code, text, _ = run_cli(capsys, ["iterate", "--config", str(cfg),
                                     "--theta2", "1.0", "--x0", "1,1"])
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 4
    # flag theta2 beat the file's inadmissible 9.9; file steps applied
    code, _, err = run_cli(capsys, ["iterate", "--config", str(cfg),
                                    "--x0", "1,1"])
    assert code == 1 and "error:" in err
    bad = tmp_path / "list.json"
    bad.write_text("[1,2]")
    assert run_cli(capsys, ["iterate", "--config", str(bad),
                            "--x0", "1,1"])[0] == 1


def test_raster_deterministic_pgm(capsys, tmp_path):
    outs = []
    for name in ("a.pgm", "b.pgm"):
        out = tmp_path / name
        # '--bounds=' form: the bare value starts with '-' like a flag
        code, text, _ = run_cli(capsys, [
            "raster", *FIG, "--bounds=-3,3,-3,3", "--res", "12x10",
            "--seed", "5", "--threads", "1", "--out", str(out),
            "--csv", str(tmp_path / (name + ".csv"))])
        assert code == 0
        assert text.startswith("raster 12x10: p1=")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"P5\n12 10\n255\n")
    with open(tmp_path / "a.pgm.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 120
    counts = text.split(": ")[1]
    p1 = int(counts.split("p1=")[1].split()[0])
    p2 = int(counts.split("p2=")[1].split()[0])
    assert p1 + p2 == 120


def test_sweep_pairs_cli(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, text, _ = run_cli(capsys, [
        "sweep", "--pairs",
        "0.748491,0.772301;1.0471975511965976,1.2566370614359172",
        "--samples", "20", "--max-steps", "3000", "--seed", "2",
        "--threads", "1", "--out", str(out)])
    assert code == 0
    assert text == ("sweep pairs=2 certified=1 nonconvergent=1 "
                    "certified_nonconvergent=0\n")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][3] == "true" and rows[2][3] == "false"


def test_orbit_cycle_and_budget(capsys):
    pair = ["--theta1", "0.748491", "--theta2", "0.772301"]
    code, text, _ = run_cli(capsys, ["orbit", *pair,
                                     "--x0", "0.101912,0.189275"])
    assert code == 0
    assert text == "orbit: period=2 steps=512\n"
    code, text, _ = run_cli(capsys, ["orbit", *pair,
                                     "--x0", "0.101912,0.189275",
                                     "--max-steps", "5"])
    assert code == 0
    assert text == "orbit: budget steps=5\n"


def test_orbit_brent_period_58(capsys):
    # '--x0=' form: a bare '-0.12...' argument would parse as a flag
    code, text, _ = run_cli(capsys, [
        "orbit", "--theta1", "0.082719", "--theta2", "2.064601",
        "--x0=-0.123641,-0.510395", "--brent"])
    assert code == 0
    assert text == "orbit: period=58\n"
    code, text, _ = run_cli(capsys, ["orbit", *FIG, "--x0", "2,1", "--brent",
                                     "--max-steps", "3000"])
    assert code == 0
    assert text == "orbit: no-cycle steps=3000\n"


def test_orbit_converged_on_certified_pair(capsys):
    code, text, _ = run_cli(capsys, ["orbit", *FIG, "--x0", "2,1"])
    assert code == 0
    assert text.startswith("orbit: converged target=")


def test_robust_summary_and_trace(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    code, text, _ = run_cli(capsys, [
        "robust", *FIG, "--x0", "2,-1", "--steps", "50", "--traces", "2",
        "--seed", "3", "--out", str(out)])
    assert code == 0
    assert text.startswith("robust: traces=2 steps=50 mode=random ok=true")
    worst = float(text.rsplit("worst_margin=", 1)[1])
    assert worst > 0.0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 51
    assert rows[0][0] == "step"


def test_robust_rejects_infeasible_pair(capsys):
    code, _, err = run_cli(capsys, [
        "robust", "--theta1", "0.748491", "--theta2", "0.772301",
        "--x0", "2,1"])
    assert code == 1
    assert "error:" in err and "feasible" in err
