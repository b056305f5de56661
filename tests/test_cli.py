"""End-to-end command-line checks: exit codes, output shapes, config merge,
and a guard that every flag a command declares is read."""
import ast
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import drlines
from dr_oracle import iterate_reference
from robust_oracle import run_perturbed_reference
from drlines import cli, experiments, robust
from drlines.cli import main
from drlines.exports import (format_float, perturbed_trace_csv, sweep_csv,
                             trace_csv)
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
    # theta2 = pi/2 with a cosine of theta1 that rounds to 1: margin NaN
    code, text, err = run_cli(capsys, ["certify", "--theta1", "1e-9",
                                       "--theta2", "1.5707963267948966"])
    assert (code, err) == (2, "")
    assert '"feasible": false' in text
    assert math.isnan(json.loads(text)["condition_margin"])
    # a margin above 0 whose rate gamma rounds to 1
    code, text, err = run_cli(capsys, ["certify", "--theta1", "0.4",
                                       "--theta2", "1.5289066706237044"])
    assert (code, err) == (2, "")
    assert json.loads(text)["feasible"] is False
    assert json.loads(text)["condition_margin"] == 2.220446049250313e-16


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
    # a mode only a config file can give, even with no step to take: the
    # file's value meets argparse as the flag's would
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"mode": "bogus"}')
    code, out, err = run_cli(capsys, ["robust", *FIG, "--x0", "2,1", "--steps",
                                      "0", "--config", str(bogus)])
    assert code == 1 and out == ""
    assert "argument --mode: invalid choice: 'bogus'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bogus.json"]
    bogus.unlink()
    # budgets that would switch a check off, Brent and windowed alike; the
    # match tolerance is fixed, so --match-tol is no flag
    for brent in ([], ["--brent"]):
        for steps in ("0", "-3"):
            code, out, err = run_cli(capsys, ["orbit", *FIG, "--x0", "2,1",
                                              "--max-steps", steps, *brent])
            assert code == 1 and out == "" and "max_steps" in err
        code, out, err = run_cli(capsys, ["orbit", *FIG, "--x0", "2,1",
                                          "--match-tol", "1e-8", *brent])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --match-tol" in err
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
    # iterate and raster, under every policy, and the sweep and robust
    # drivers check the seed before any draw, with one message
    for argv in (["iterate", *FIG, "--x0", "2,1", "--policy", "first"],
                 ["iterate", *FIG, "--x0", "2,1", "--policy", "random"],
                 *(["raster", *FIG, "--res", "4x4", "--policy", policy,
                    "--out", str(tmp_path / "r.pgm")]
                   for policy in ("first", "random", "tree")),
                 ["sweep", "--pairs", "1,2", "--samples", "2",
                  "--out", str(tmp_path / "s.csv")],
                 ["robust", *FIG, "--x0", "2,1",
                  "--out", str(tmp_path / "t.csv")]):
        code, out, err = run_cli(capsys, [*argv, "--seed", "-1"])
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"
    # certify and orbit draw nothing, so they take no seed
    for argv in (["certify", *FIG, "--out", str(tmp_path / "c.json")],
                 ["orbit", *FIG, "--x0", "2,1"]):
        code, out, err = run_cli(capsys, [*argv, "--seed", "3"])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --seed 3" in err
    # a three-field start and an empty pair list
    for argv, words in ((["iterate", *FIG, "--x0", "1,2,3"], "'x,y'"),
                        (["sweep", "--pairs", ";",
                          "--out", str(tmp_path / "s.csv")],
                         "no angle pairs")):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == "" and words in err
    assert not any(tmp_path.iterdir())
    code, out, err = run_cli(capsys, ["iterate", *FIG, "--x0", TIE_X0,
                                      "--policy", "tree"])
    assert code == 1 and out == "" and "invalid choice: 'tree'" in err
    cfg = tmp_path / "tree.json"
    cfg.write_text('{"policy": "tree"}')
    code, out, err = run_cli(capsys, ["iterate", *FIG, "--x0", "2,1",
                                      "--config", str(cfg)])
    assert code == 1 and out == ""
    assert "argument --policy: invalid choice: 'tree'" in err
    # a policy name only a config file can give
    cfg.write_text('{"policy": "bogus"}')
    code, out, err = run_cli(capsys, ["raster", *FIG, "--res", "2x2",
                                      "--out", str(tmp_path / "r.pgm"),
                                      "--config", str(cfg)])
    assert code == 1 and out == ""
    assert "argument --policy: invalid choice: 'bogus'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]
    assert run_cli(capsys, ["no-such-command"])[0] == 1
    assert run_cli(capsys, [])[0] == 1
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["raster", "--help"])[0] == 0
    # I/O failures land on 3
    assert run_cli(capsys, ["certify", *FIG, "--config",
                            str(tmp_path / "missing.json")])[0] == 3
    assert run_cli(capsys, ["certify", *FIG, "--out",
                            str(tmp_path / "no" / "dir" / "c.json")])[0] == 3


def test_parser_is_built_once(capsys):
    # main builds its parser on its first call only, and a usage error
    # leaves the cached parser fit for the next command
    cli._build_parser.cache_clear()
    args = ["iterate", *FIG, "--x0", TIE_X0, "--steps", "3"]
    first = run_cli(capsys, args)
    assert first[0] == 0 and run_cli(capsys, args) == first
    assert cli._build_parser.cache_info().misses == 1
    code, out, err = run_cli(capsys, [*args, "--bogus"])
    assert (code, out) == (1, "") and "--bogus" in err
    assert run_cli(capsys, args) == first
    assert cli._build_parser.cache_info().misses == 1


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


def test_env_does_not_set_the_seed(capsys, monkeypatch):
    # --seed (or its config key) is the seed's only source: DR_SEED, which
    # once overrode it, changes no output or exit code
    monkeypatch.delenv("DR_SEED", raising=False)
    for seed in ([], ["--seed", "0"], ["--seed", "1"]):
        args = ["iterate", *FIG, "--policy", "random", "--x0", TIE_X0,
                "--steps", "1", *seed]
        want = run_cli(capsys, args)
        assert want[0] == 0
        for env in ("1", "0", "junk"):
            monkeypatch.setenv("DR_SEED", env)
            assert run_cli(capsys, args) == want
            monkeypatch.delenv("DR_SEED")


def test_config_file_merge(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta1": 0.3, "theta2": 9.9, "steps": 3}))
    code, text, _ = run_cli(capsys, ["iterate", "--config", str(cfg),
                                     "--theta2", "1.0", "--x0", "1,1"])
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 4
    # flag theta2 beat the file's inadmissible 9.9; file steps applied
    ns = cli._parse_args(["iterate", "--config", str(cfg), "--theta2", "1.0",
                          "--x0", "1,1"])
    assert (ns.theta1, ns.theta2, ns.steps) == (0.3, 1.0, 3)
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


def test_raster_budget_past_int32_fails_before_writing(capsys, tmp_path):
    out = tmp_path / "r.pgm"
    code, _, err = run_cli(capsys, [
        "raster", *FIG, "--res", "1x1", "--max-steps", "2147483648",
        "--out", str(out)])
    assert (code, err) == (
        1, "error: max_steps must be below 2**31, got 2147483648\n")
    assert not out.exists()


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


def test_sweep_grid_cli(capsys, tmp_path):
    # sweep --grid runs make_theta_grid's pairs, as the library does
    out = tmp_path / "grid.csv"
    code, _, err = run_cli(capsys, ["sweep", "--grid", "2x2", "--samples", "3",
                                    "--max-steps", "300", "--seed", "4",
                                    "--out", str(out)])
    assert (code, err) == (0, "")
    want = sweep_csv(experiments.sweep(experiments.make_theta_grid(2, 2),
                                       samples_per_pair=3, max_steps=300,
                                       seed=4))
    with open(out, newline="") as fh:
        assert fh.read() == want


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


def test_robust_with_an_absurd_step_count_fails_before_any_start(
        capsys, monkeypatch):
    # 1e10 steps would take 149 GiB of points: the run fails on its sizes
    def checked(x0):
        raise AssertionError("a start was checked")

    monkeypatch.setattr(robust, "checked_start", checked)
    code, out, err = run_cli(capsys, [
        "robust", "--theta1", "60", "--theta2", "72", "--deg", "--x0", "2,1",
        "--steps", "10000000000"])
    assert (code, out) == (1, "")
    assert err == ("error: 1 traces of 10000000000 steps hold more than "
                   "2**22 points, the most one run takes\n")


def test_robust_rejects_infeasible_pair(capsys):
    code, _, err = run_cli(capsys, [
        "robust", "--theta1", "0.748491", "--theta2", "0.772301",
        "--x0", "2,1"])
    assert code == 1
    assert "error:" in err and "feasible" in err


# one run of each command, with every input it reads; values are as a
# --config file holds them, and the flag form is derived from them
FIG_KEYS = {"theta1": float(FIG[1]), "theta2": float(FIG[3])}
MIRRORED = {
    "certify": ({"theta1": 60, "theta2": 72, "deg": True}, ["out"]),
    "iterate": ({**FIG_KEYS, "x0": TIE_X0, "steps": 6, "policy": "random",
                 "seed": 1}, ["out"]),
    "raster": ({**FIG_KEYS, "bounds": "-3,3,-3,3", "res": "12x10",
                "policy": "random", "max_steps": 300, "seed": 5,
                "threads": 1}, ["out", "csv"]),
    "sweep": ({"pairs": "0.748491,0.772301;1.0471975511965976,"
                        "1.2566370614359172",
               "samples": 5, "max_steps": 3000, "seed": 2, "threads": 1},
              ["out"]),
    "orbit": ({"theta1": 0.082719, "theta2": 2.064601,
               "x0": "-0.123641,-0.510395", "max_steps": 3000,
               "brent": True}, []),
    "robust": ({**FIG_KEYS, "x0": "2,-1", "epsilon": 0.04, "steps": 20,
                "traces": 2, "mode": "adversarial", "seed": 3}, ["out"]),
}


def as_flags(values):
    flags = []
    for key, v in values.items():
        flag = "--" + key.replace("_", "-")
        flags.append(flag if v is True else f"{flag}={v}")
    return flags


@pytest.mark.parametrize("command", sorted(MIRRORED))
def test_config_file_matches_flags(capsys, tmp_path, command):
    values, outputs = MIRRORED[command]
    values = {**values, **{k: str(tmp_path / f"{k}.out") for k in outputs}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    runs = []
    for argv in ([command, *as_flags(values)],
                 [command, "--config", str(cfg)]):
        code, out, err = run_cli(capsys, argv)
        files = {k: (tmp_path / f"{k}.out").read_bytes() for k in outputs}
        for k in outputs:
            (tmp_path / f"{k}.out").unlink()
        runs.append((code, out, files))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("command", sorted(MIRRORED))
def test_config_file_parses_as_its_flags(tmp_path, command):
    # the file's keys give the Namespace the flags give, defaults and all;
    # only --config itself differs
    values, outputs = MIRRORED[command]
    values = {**values, **{k: str(tmp_path / f"{k}.out") for k in outputs}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    flags = cli._parse_args([command, *as_flags(values)])
    from_file = cli._parse_args([command, "--config", str(cfg)])
    assert (flags.config, from_file.config) == (None, str(cfg))
    from_file.config = None
    assert from_file == flags
    assert not any(p.name.endswith(".out") for p in tmp_path.iterdir())


def test_config_values_are_held_to_their_flags_types(capsys, tmp_path,
                                                     monkeypatch):
    out = tmp_path / "out.file"
    pair = ["--theta1", "0.748491", "--theta2", "0.772301",
            "--x0", "0.101912,0.189275"]
    sweep = ["sweep", "--pairs", "1.0471975511965976,1.2566370614359172",
             "--max-steps", "3000", "--out", str(out)]
    cfg = tmp_path / "run.json"

    def run(argv, values):
        cfg.write_text(json.dumps(values))
        return run_cli(capsys, [*argv, "--config", str(cfg)])

    # each of these once ran as a different value: "false" as true, true
    # as 1, 2.9 as 2, false as the file name "False"; the last three are
    # outside their flags' choices.  A --deg or --brent value that is not
    # a JSON boolean, and a JSON boolean for any other flag, fails as a
    # config key; any other value meets argparse, which names its flag
    monkeypatch.chdir(tmp_path)
    for argv, values, words in (
            (["orbit", *pair], {"brent": "false"},
             "error: config key 'brent' must be true or false, got 'false'"),
            (["certify", *FIG, "--out", str(out)], {"deg": "false"},
             "error: config key 'deg' must be true or false, got 'false'"),
            (["certify", *FIG], {"deg": 1},
             "error: config key 'deg' must be true or false, got 1"),
            (["orbit", *pair], {"max_steps": True},
             "error: config key 'max_steps' takes a value, not True"),
            (["certify", "--theta1", "60", "--theta2", "72", "--deg"],
             {"out": False},
             "error: config key 'out' takes a value, not False"),
            (sweep, {"samples": 2.9},
             "argument --samples: invalid int value: '2.9'"),
            (["iterate", *FIG, "--x0", "2,1"], {"theta1": True},
             "error: config key 'theta1' takes a value, not True"),
            (["iterate", *FIG, "--x0", "2,1"], {"theta1": "True"},
             "argument --theta1: invalid float value: 'True'"),
            (["iterate", *FIG, "--x0", "2,1", "--out", str(out)],
             {"policy": "tree"}, "argument --policy: invalid choice: 'tree'"),
            (["raster", *FIG, "--res", "2x2", "--out", str(out)],
             {"policy": "bogus"},
             "argument --policy: invalid choice: 'bogus'"),
            (["robust", *FIG, "--x0", "2,1", "--steps", "0",
              "--out", str(out)], {"mode": "bogus"},
             "argument --mode: invalid choice: 'bogus'")):
        code, text, err = run(argv, values)
        assert (code, text) == (1, "")
        assert words in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # the well-typed forms, and numbers as text as a flag takes them
    for argv, values, flags in (
            (["orbit", *pair], {"brent": False}, []),
            (["orbit", *pair], {"brent": True}, ["--brent"]),
            (["certify", *FIG], {"deg": False}, []),
            (["certify", "--theta1", "60", "--theta2", "72"], {"deg": True},
             ["--deg"]),
            (["orbit", *pair], {"max_steps": 5}, ["--max-steps", "5"]),
            (["orbit", *pair], {"max_steps": "5"}, ["--max-steps", "5"]),
            (sweep, {"samples": 3}, ["--samples", "3"])):
        with_file = run(argv, values)
        assert with_file[0] in (0, 2) and with_file[2] == ""
        assert with_file == run_cli(capsys, [*argv, *flags])
    assert run(["orbit", *pair], {"max_steps": 5})[1] == (
        "orbit: budget steps=5\n")


def test_unknown_config_keys_fail_loudly(capsys, tmp_path):
    # each last key is the dest of no flag of its command: "max-steps" once
    # ran orbit at its 20 000-step default, iterate's "tol", certify's "x0"
    # and the "seed" of certify and orbit were read by nothing, and orbit's
    # "match_tol" is a fixed constant; iterate's "seed" is a flag's key
    cfg = tmp_path / "run.json"
    out = tmp_path / "out.file"
    pair = ["--theta1", "0.748491", "--theta2", "0.772301"]
    orbit = ["orbit", *pair, "--x0", "0.101912,0.189275"]
    for argv, values in ((orbit, {"max-steps": 3}),
                         ([*orbit, "--brent"], {"match_tol": 3}),
                         (orbit, {"seed": 3}),
                         (["iterate", *FIG, "--x0", "2,1", "--out", str(out)],
                          {"seed": 1, "tol": 3}),
                         (["certify", *FIG, "--out", str(out)], {"x0": 3}),
                         (["certify", *FIG, "--out", str(out)], {"seed": 3}),
                         (["certify", *FIG], {"config": 3}),
                         (["certify", *FIG], {"help": 3})):
        key = list(values)[-1]
        cfg.write_text(json.dumps(values))
        code, text, err = run_cli(capsys, [*argv, "--config", str(cfg)])
        assert (code, text) == (1, "")
        assert err.startswith(f"error: config key {key!r} is not a flag")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    # a bad --pairs entry fails as ProblemConfig fails, before any start
    code, text, err = run_cli(capsys, ["sweep", "--pairs", "1,1.5;2,1",
                                       "--out", str(out)])
    assert (code, text) == (1, "")
    assert err == "error: theta1 = 2.0 violates 0 < theta1 <= pi/2\n"
    assert not out.exists()


def declared_flags(source):
    """{command: (its cmd_* function's name, its flags' dest names)}, read
    from the CLI source: the flags the ``command`` helper of _build_parser
    declares for every command (those under ``if angles:`` unless the call
    passes angles=False), and the ``sp.add_argument`` calls after the
    command's ``sp = command(...)``."""
    tree = ast.parse(source)
    build = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == "_build_parser")

    def kwarg(call, name, default):
        return next((k.value.value for k in call.keywords if k.arg == name),
                    default)

    def dest(stmt):
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "attr", "") == "add_argument"):
            return None
        return kwarg(stmt.value, "dest", stmt.value.args[0].value.lstrip("-")
                     .replace("-", "_"))

    helper = next(n for n in build.body if isinstance(n, ast.FunctionDef))
    shared = {dest(s) for s in helper.body} - {None}
    angles = {dest(s) for n in helper.body if isinstance(n, ast.If)
              for s in n.body} - {None}
    declared, name = {}, None
    for stmt in build.body:
        call = getattr(stmt, "value", None)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") == (
                helper.name):
            name = call.args[0].value
            declared[name] = (call.args[1].id, shared | (
                angles if kwarg(call, "angles", True) else set()))
        elif dest(stmt) is not None:
            declared[name][1].add(dest(stmt))
    return declared


def unread_flags(source):
    """'command: dest' for each flag of a command whose cmd_* function never
    reads it, sorted.  A function reads a flag as ns.<dest>, in its own
    body or in a function of the module that it calls: _config (the
    angles and --deg), _start (--x0), _policy (--policy and --seed).
    --config, which main reads, is exempt."""
    tree = ast.parse(source)
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def reads(name, seen):
        """The ns attributes that funcs[name] and its callees read."""
        seen.add(name)
        found = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", "") == "ns"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", "") in funcs.keys() - seen):
                found |= reads(node.func.id, seen)
        return found

    unread = []
    for name, (run, dests) in declared_flags(source).items():
        unread += [f"{name}: {d}"
                   for d in dests - reads(run, set()) - {"config"}]
    return sorted(unread)


CLI_SOURCE = pathlib.Path(cli.__file__).read_text(encoding="utf-8")


def test_every_flag_is_read_by_its_command():
    # the source reading sees the flags argparse builds, command by command
    _, commands = cli._build_parser()
    assert {name: dests for name, (_, dests)
            in declared_flags(CLI_SOURCE).items()} == {
        name: {a.dest for a in sp._actions} - {"help"}
        for name, sp in commands.items()}
    assert unread_flags(CLI_SOURCE) == []


def test_unread_flag_guard_sees_a_planted_flag():
    # --seed for every command, as it once was: certify and orbit draw
    # nothing, so neither reads it
    line = ('        sp.add_argument("--config", '
            'help="JSON file mirroring the flags")\n')
    planted = CLI_SOURCE.replace(
        line, line + '        sp.add_argument("--seed", type=int)\n')
    assert planted != CLI_SOURCE
    assert unread_flags(planted) == ["certify: seed", "orbit: seed"]
    # a read removed: orbit's start
    planted = CLI_SOURCE.replace("    x0 = _start(ns)\n    max_steps",
                                 "    x0 = (0.0, 0.0)\n    max_steps")
    assert planted != CLI_SOURCE
    assert unread_flags(planted) == ["orbit: x0"]
    # a read removed from a helper: --deg, which _config reads for all
    # five commands that take angles
    planted = CLI_SOURCE.replace(" if ns.deg else ", " if False else ")
    assert planted != CLI_SOURCE
    assert unread_flags(planted) == [f"{name}: deg" for name in (
        "certify", "iterate", "orbit", "raster", "robust")]


def test_entry_exit_codes():
    # the console script's entry point exits with main's code
    src = os.path.dirname(os.path.dirname(drlines.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for argv, want in ((["certify", "--theta1", "60", "--theta2", "72",
                         "--deg"], 0),
                       (["certify", "--theta1", "0.748491", "--theta2",
                         "0.772301"], 2),
                       (["iterate", "--theta1", "1", "--theta2", "2"], 1)):
        proc = subprocess.run(
            [sys.executable, "-c", "from drlines.cli import entry; entry()",
             *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == want, proc.stderr


def test_python_m_runs_the_cli():
    # python -m drlines.cli runs the command, as the console script does
    src = os.path.dirname(os.path.dirname(drlines.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "drlines.cli", "certify", "--theta1", "1e-9",
         "--theta2", "1.5707963267948966"],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, ""), proc.stderr
    assert '"feasible": false' in proc.stdout
    assert json.loads(proc.stdout)["feasible"] is False
