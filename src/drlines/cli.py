"""Command-line front-end: certify, iterate, raster, sweep, orbit, robust.

_build_parser declares each flag's type, choices and default once.  A
--config JSON file's keys are the flags' dest names: each becomes a
``--flag=value`` argument placed before the command line's own flags, so
argparse holds it to its flag's type and choices and an explicit flag
wins; any other key fails.  No environment variable is read.  Each
subcommand is one function cmd_<name>(ns) of the parsed Namespace that
checks all of its inputs before it computes.  Angles are radians unless
--deg is given; floats print with up to 17 significant digits.  Exit
codes: 0 success (certify: feasible), 1 usage or precondition error, 2
certify found the pair infeasible, 3 I/O failure.  ``python -m drlines.cli
ARGS`` runs as ``drlines ARGS`` does.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .dr import dr_multivalued
from .experiments import (
    ConvergedTo,
    Cycle,
    EnumerateTree,
    FirstBranch,
    SeededRandom,
    _coins,
    find_period_brent,
    make_theta_grid,
    rasterize,
    simulate,
    sweep,
)
from .exports import (
    atomic_write_text,
    certificate_json,
    format_float,
    perturbed_trace_csv,
    raster_csv,
    sweep_csv,
    trace_csv,
    write_pgm,
)
from .geometry import ProblemConfig, checked_start
from .lyapunov import Infeasible, certify
# run_perturbed is not called here; the name stays importable because
# bench/run.py's traced run wraps it
from .robust import (PerturbationSpec, check_kl_bound, run_perturbed,  # noqa: F401
                     run_perturbed_many)

_THREADS_HELP = ("accepted and ignored (values below 1 are rejected): "
                 "the grid drivers run in this process")


def _numbers(text: str, form: str, sep: str = ",", kind=float) -> tuple:
    """kind() of each field of text, split at sep; form ('x,y', 'NXxNY',
    ...) gives the field count, and 'X' counts as 'x'."""
    parts = text.lower().split(sep)
    if len(parts) != len(form.split(sep)):
        raise ValueError(f"expected {form!r}, got {text!r}")
    return tuple(kind(p) for p in parts)


def _at_least(flag: str, value: int, lo: int) -> int:
    if value < lo:
        raise ValueError(f"--{flag} must be >= {lo}, got {value}")
    return value


def _parse_pairs(text) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            pairs.append(_numbers(chunk, "x,y"))
    if not pairs:
        raise ValueError(f"no angle pairs in {text!r}")
    return pairs


def _required(flag: str, value):
    if value is None:
        raise ValueError(f"--{flag} is required")
    return value


def _start(ns: argparse.Namespace) -> tuple[float, float]:
    return checked_start(_numbers(_required("x0", ns.x0), "x,y"))


def _config(ns: argparse.Namespace) -> ProblemConfig:
    t1 = _required("theta1", ns.theta1)
    t2 = _required("theta2", ns.theta2)
    scale = math.pi / 180.0 if ns.deg else 1.0
    return ProblemConfig(t1 * scale, t2 * scale)


def _policy(ns: argparse.Namespace):
    # every policy rejects a negative seed alike; only random reads it
    if ns.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {ns.seed}")
    if ns.policy == "first":
        return FirstBranch()
    if ns.policy == "random":
        return SeededRandom(ns.seed)
    return EnumerateTree()


def _config_args(path: str, sp: argparse.ArgumentParser) -> list[str]:
    """The --config file's JSON object as arguments of the command sp:
    ``--flag=value`` for each key, which must be the dest of one of sp's
    flags (--config aside).  --deg and --brent take a JSON boolean, true
    giving the bare flag, and no other flag takes one; null gives nothing.
    argparse then holds each value to its flag's type and choices, as it
    does the command line."""
    with open(path, "r", encoding="utf-8") as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"{path} must hold a JSON object")
    flags = {a.dest: a for a in sp._actions
             if a.dest not in ("help", "config")}
    for key in file_cfg:
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a flag of {sp.prog} "
                             f"(keys: {', '.join(sorted(flags))})")
    args = []
    for key, v in file_cfg.items():
        flag = flags[key].option_strings[0]
        if flags[key].const is True:
            if not isinstance(v, (bool, type(None))):
                raise ValueError(f"config key {key!r} must be true or false, "
                                 f"got {v!r}")
            if v:
                args.append(flag)
        elif isinstance(v, bool):
            raise ValueError(f"config key {key!r} takes a value, not {v!r}")
        elif v is not None:
            args.append(f"{flag}={v}")
    return args


def cmd_certify(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    result = certify(cfg)
    text = certificate_json(result)
    sys.stdout.write(text)
    if ns.out:
        atomic_write_text(ns.out, text)
    return 2 if isinstance(result, Infeasible) else 0


def cmd_iterate(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    policy = _policy(ns)
    x = _start(ns)
    steps = _at_least("steps", ns.steps, 0)
    coins = _coins(policy)
    points = [x]
    for _ in range(steps):
        # on D3 two outputs, A1's first: the coin picks one
        outs = dr_multivalued(cfg, x).outputs
        x = outs[0] if len(outs) == 1 or next(coins) else outs[1]
        points.append(x)
    for n, (px, py) in enumerate(points):
        print(f"{n} {format_float(px)} {format_float(py)}")
    if ns.out:
        atomic_write_text(ns.out, trace_csv(points))
    return 0


def cmd_raster(ns: argparse.Namespace) -> int:
    _at_least("threads", ns.threads, 1)
    cfg = _config(ns)
    bounds = _numbers(ns.bounds, "xmin,xmax,ymin,ymax")
    res = _numbers(ns.res, "NXxNY", "x", int)
    policy = _policy(ns)
    grid = rasterize(cfg, bounds, res, policy=policy, max_steps=ns.max_steps,
                     seed=ns.seed)
    write_pgm(grid, ns.out)
    if ns.csv:
        atomic_write_text(ns.csv, raster_csv(grid))
    counts = [int(np.count_nonzero(grid.cells == c)) for c in range(4)]
    nx, ny = grid.resolution
    print(f"raster {nx}x{ny}: p1={counts[1]} p2={counts[2]} "
          f"cycle={counts[3]} budget={counts[0]} -> {ns.out}")
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    _at_least("threads", ns.threads, 1)
    if ns.pairs is not None:
        pairs = _parse_pairs(ns.pairs)
    else:
        pairs = make_theta_grid(*_numbers(ns.grid, "NXxNY", "x", int))
    sg = sweep(pairs, samples_per_pair=ns.samples, max_steps=ns.max_steps,
               seed=ns.seed)
    if ns.out:
        atomic_write_text(ns.out, sweep_csv(sg))
    n_cert = sum(1 for q in sg.pairs if q.eq26_holds)
    n_bad = sum(1 for q in sg.pairs if q.nonconvergent_found)
    n_cert_bad = sum(1 for q in sg.pairs
                     if q.eq26_holds and q.nonconvergent_found)
    print(f"sweep pairs={len(sg.pairs)} certified={n_cert} "
          f"nonconvergent={n_bad} certified_nonconvergent={n_cert_bad}")
    return 0


def cmd_orbit(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    x0 = _start(ns)
    max_steps = ns.max_steps
    if ns.brent:
        k = find_period_brent(cfg, x0, max_steps=max_steps)
        if k is None:
            print(f"orbit: no-cycle steps={max_steps}")
        else:
            print(f"orbit: period={k}")
        return 0
    tr = simulate(cfg, x0, max_steps=max_steps, record=False)
    if isinstance(tr.verdict, Cycle):
        print(f"orbit: period={tr.verdict.period} steps={tr.steps_used}")
    elif isinstance(tr.verdict, ConvergedTo):
        print(f"orbit: converged target={tr.verdict.target} "
              f"steps={tr.steps_used}")
    else:
        print(f"orbit: budget steps={tr.steps_used}")
    return 0


def cmd_robust(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    x0 = _start(ns)
    steps = _at_least("steps", ns.steps, 0)
    n = _at_least("traces", ns.traces, 1)
    cert = certify(cfg)
    if isinstance(cert, Infeasible):
        raise ValueError(
            f"no certificate for theta1={format_float(cfg.theta1)} "
            f"theta2={format_float(cfg.theta2)} "
            f"(margin {format_float(cert.condition_margin)}); "
            "a robust run needs a feasible pair")
    spec = PerturbationSpec.from_certificate(cert, epsilon=ns.epsilon)
    lanes = run_perturbed_many(spec, cfg, [x0] * n, steps, seed=ns.seed,
                               trace_ids=range(n), mode=ns.mode)
    audits = [check_kl_bound(spec, cfg, p.tolist()) for p in lanes.points]
    all_ok = all(ok for ok, _ in audits)
    worst = min(margin for _, margin in audits)
    # the CSV needs the first trace only: free the lanes before building it
    first_trace = lanes.trace(0)
    del lanes
    if ns.out:
        atomic_write_text(ns.out, perturbed_trace_csv(spec, cfg, first_trace))
    print(f"robust: traces={n} steps={steps} mode={ns.mode} "
          f"ok={'true' if all_ok else 'false'} "
          f"worst_margin={format_float(worst)}")
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and, by name, the subcommands' parsers, built once."""
    ap = argparse.ArgumentParser(
        prog="drlines",
        description="Douglas-Rachford iteration on two lines against an "
                    "axis: certificates, orbits, basins, sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help, angles=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        if angles:
            sp.add_argument("--theta1", type=float)
            sp.add_argument("--theta2", type=float)
            sp.add_argument("--deg", action="store_true",
                            help="interpret angles as degrees")
        sp.add_argument("--config", help="JSON file mirroring the flags")
        return sp

    sp = command("certify", cmd_certify, "build the decay certificate")
    sp.add_argument("--out", help="also write the JSON here")

    sp = command("iterate", cmd_iterate, "print plain iterates from x0")
    sp.add_argument("--x0")
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--policy", choices=("first", "random"), default="first")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write step/x/y CSV here")

    sp = command("raster", cmd_raster, "basin-of-attraction raster")
    sp.add_argument("--bounds", default="-3,3,-3,3",
                    help="xmin,xmax,ymin,ymax")
    sp.add_argument("--res", default="200x200", help="NXxNY")
    sp.add_argument("--policy", choices=("first", "random", "tree"),
                    default="first")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=int, dest="max_steps", default=2000)
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.add_argument("--out", default="raster.pgm", help="PGM output path")
    sp.add_argument("--csv", help="also write per-cell CSV here")

    sp = command("sweep", cmd_sweep, "scan angle pairs for nonconvergence",
                 angles=False)
    sp.add_argument("--grid", default="40x40", help="N1xN2 angle grid")
    sp.add_argument("--pairs", help="t1,t2;t1,t2;... explicit pairs")
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=int, dest="max_steps", default=20000)
    sp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sp.add_argument("--out", default="sweep.csv", help="CSV output path")

    sp = command("orbit", cmd_orbit, "probe one start for a periodic orbit")
    sp.add_argument("--x0")
    sp.add_argument("--max-steps", type=int, dest="max_steps", default=20000)
    sp.add_argument("--brent", action="store_true",
                    help="low-memory search instead of the windowed one, "
                    "reporting a period only where a cycle proof holds")

    sp = command("robust", cmd_robust, "perturbed runs against the KL bound")
    sp.add_argument("--x0")
    sp.add_argument("--epsilon", type=float, default=0.05)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--traces", type=int, default=1)
    sp.add_argument("--mode", choices=("random", "adversarial"),
                    default="random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the first trace's CSV here")
    return ap, sub.choices


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed, and parsed again with the --config file's arguments
    between the command and its flags, so that the flags win."""
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        # the top-level parser takes only -h, so argv[0] is the command
        ns = parser.parse_args([argv[0], *_config_args(
            ns.config, commands[ns.command]), *argv[1:]])
    return ns


def main(argv: list | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else argv)
        return ns.run(ns)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors; our contract says 1
        return 0 if not e.code else 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
