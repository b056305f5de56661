"""End-to-end command-line checks: exit codes, output shapes, config merge."""
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import drlines
from dr_oracle import iterate_reference
from robust_oracle import run_perturbed_reference
from drlines.cli import main
from drlines.exports import format_float, perturbed_trace_csv, trace_csv
from drlines.geometry import ProblemConfig
from drlines.lyapunov import certify
from drlines.robust import PerturbationSpec, PerturbedTrace, check_kl_bound

FIG = ["--theta1", "1.0471975511965976", "--theta2", "1.2566370614359172"]
# equidistant from both lines, so the random policy's coin is live here
TIE_X0 = "0.023397710243848114,0"
# off the tie band for five steps, whose fifth iterate is TIE_X0's point
LATE_TIE_X0 = "17.633445530693912,-23.216915080537426"

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
    # finite coordinates whose norm overflows a double
    for argv in (["iterate", "--steps", "3"], ["orbit"], ["orbit", "--brent"],
                 ["robust"]):
        code, out, err = run_cli(capsys, [*argv, *FIG,
                                          "--x0=1.7e308,-1.7e308"])
        assert code == 1 and out == ""
        assert err.startswith("error: start") and "overflows" in err
    # a finite norm is accepted, and the orbit converges
    code, out, _ = run_cli(capsys, ["orbit", *FIG, "--x0=1.2e308,-1.2e308"])
    assert code == 0 and out.startswith("orbit: converged target=1 ")
    code, out, err = run_cli(capsys, [
        "raster", *FIG, "--bounds=-1.7e308,1.7e308,-1.7e308,1.7e308",
        "--res", "4x4", "--out", str(tmp_path / "r.pgm")])
    assert code == 1 and out == "" and err.startswith("error: bounds")
    # budgets the robust run cannot honour, and a policy iterate cannot follow
    for flags in (["--traces", "0"], ["--traces", "-1"], ["--steps", "-5"]):
        code, out, err = run_cli(capsys, ["robust", *FIG, "--x0", "2,1",
                                          *flags])
        assert code == 1 and out == "" and flags[0] in err
    code, out, err = run_cli(capsys, ["iterate", *FIG, "--x0", "2,1",
                                      "--steps", "-5"])
    assert code == 1 and out == "" and "--steps" in err
    # a start whose V overflows a double, in both modes
    for flags in (["--mode", "adversarial"],
                  ["--out", str(tmp_path / "trace.csv")]):
        code, out, err = run_cli(capsys, ["robust", *FIG, "--x0=1e70,0",
                                          "--steps", "3", *flags])
        assert code == 1 and out == "" and "overflows" in err
    assert not (tmp_path / "trace.csv").exists()
    # a mode only a config file can give, even with no step to take
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"mode": "bogus"}')
    code, out, err = run_cli(capsys, ["robust", *FIG, "--x0", "2,1", "--steps",
                                      "0", "--config", str(bogus)])
    assert code == 1 and out == "" and "mode" in err
    bogus.unlink()
    # budgets and tolerances that would switch a check off, Brent and
    # windowed alike
    for flags in (["--max-steps", "0"], ["--max-steps", "-3"],
                  ["--match-tol", "nan"], ["--match-tol=-1e-8"],
                  ["--match-tol", "inf"]):
        for brent in ([], ["--brent"]):
            code, out, err = run_cli(capsys, ["orbit", *FIG, "--x0", "2,1",
                                              *flags, *brent])
            assert code == 1 and out == ""
            assert flags[0].split("=")[0][2:].replace("-", "_") in err
    for steps in ("0", "3"):
        code, out, err = run_cli(capsys, ["iterate", *FIG, "--x0", "2,1",
                                          "--tol", "nan", "--steps", steps])
        assert code == 1 and out == "" and "--tol" in err
    for cmd in (["raster", *FIG, "--res", "2x2",
                 "--out", str(tmp_path / "r.pgm")],
                ["sweep", "--grid", "2x2", "--out", str(tmp_path / "s.csv")]):
        for threads in ("0", "-2"):
            code, out, err = run_cli(capsys, [*cmd, "--threads", threads])
            assert code == 1 and out == "" and "--threads" in err
    for steps in ("0", "-5"):
        code, out, err = run_cli(capsys, [
            "sweep", "--pairs", "1.0471975511965976,1.2566370614359172",
            "--samples", "5", "--max-steps", steps,
            "--out", str(tmp_path / "s.csv")])
        assert code == 1 and out == "" and "max_steps" in err
    assert not any(tmp_path.iterdir())
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


def test_cli_import_starts_no_process_machinery():
    # the grid drivers run in the calling process, so importing the CLI
    # must not pay for multiprocessing or concurrent.futures
    code = ("import sys, drlines.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = os.path.dirname(os.path.dirname(drlines.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


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


@pytest.mark.parametrize("x0", [TIE_X0, LATE_TIE_X0, "2,1"],
                         ids=["tie", "late-tie", "generic"])
def test_iterate_output_matches_reference_loop(capsys, tmp_path, x0):
    # stdout and --out bytes equal a loop over the operator as it was
    # written before it ran on the shared float step
    cfg = ProblemConfig(float(FIG[1]), float(FIG[3]))
    start = tuple(float(v) for v in x0.split(","))
    traces = set()
    for policy in ("first", "random"):
        for seed in range(8):
            out = tmp_path / f"{policy}-{seed}.csv"
            code, text, _ = run_cli(capsys, [
                "iterate", *FIG, "--x0", x0, "--steps", "40", "--policy",
                policy, "--seed", str(seed), "--out", str(out)])
            points = iterate_reference(cfg, start, 40, policy == "random",
                                       seed)
            assert code == 0
            assert text == "".join(f"{n} {format_float(px)} "
                                   f"{format_float(py)}\n"
                                   for n, (px, py) in enumerate(points))
            assert out.read_bytes() == trace_csv(points).encode("utf-8")
            traces.add(tuple(points))
    # from a tie start, the seeds pick both branches
    assert len(traces) == (1 if x0 == "2,1" else 2)


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


def test_raster_of_huge_starts_is_quiet(capsys, tmp_path):
    # squares of these starts overflow a double in the lanes' ball tests;
    # inf lies in no ball, so every cell runs out its budget
    out = tmp_path / "huge.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run_cli(capsys, [
            "raster", *FIG, "--res", "4x4", "--bounds=1e200,2e200,1e200,2e200",
            "--max-steps", "50", "--out", str(out)])
    assert (code, err) == (0, "")
    assert text == f"raster 4x4: p1=0 p2=0 cycle=0 budget=16 -> {out}\n"


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


@pytest.mark.parametrize("mode", ["random", "adversarial"])
def test_robust_output_matches_per_trace_loop(capsys, tmp_path, monkeypatch,
                                              mode):
    # the command as it ran one trace at a time on the per-step loop: every
    # trace audited on its own stream, the first one written out
    audited = []
    monkeypatch.setattr("drlines.cli.check_kl_bound", lambda spec, cfg, t: (
        audited.append(t) or check_kl_bound(spec, cfg, t)))
    out = tmp_path / "trace.csv"
    code, text, _ = run_cli(capsys, [
        "robust", *FIG, "--x0=-1.5,0.7", "--steps", "30", "--traces", "4",
        "--seed", "3", "--mode", mode, "--out", str(out)])
    assert code == 0
    cfg = ProblemConfig(float(FIG[1]), float(FIG[3]))
    spec = PerturbationSpec.from_certificate(certify(cfg), epsilon=0.05)
    traces = [PerturbedTrace(*run_perturbed_reference(
        spec, cfg, (-1.5, 0.7), 30, 3, tid, mode)[:2], 3) for tid in range(4)]
    assert [repr(tuple(map(tuple, p))) for p in audited] == [
        repr(t.points) for t in traces]
    results = [check_kl_bound(spec, cfg, t) for t in traces]
    ok = all(r[0] for r in results)
    worst = min(r[1] for r in results)
    assert text == (f"robust: traces=4 steps=30 mode={mode} "
                    f"ok={'true' if ok else 'false'} "
                    f"worst_margin={format_float(worst)}\n")
    assert out.read_bytes() == perturbed_trace_csv(
        spec, cfg, traces[0]).encode()


def test_robust_rejects_infeasible_pair(capsys):
    code, _, err = run_cli(capsys, [
        "robust", "--theta1", "0.748491", "--theta2", "0.772301",
        "--x0", "2,1"])
    assert code == 1
    assert "error:" in err and "feasible" in err
