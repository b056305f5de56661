"""Command-line front-end: certify, iterate, raster, sweep, orbit, robust.

Each subcommand is one function cmd_<name>(r) that first resolves and
checks all of its inputs through r, a _Resolver (flags win over the
--config JSON file, which wins over defaults; no environment variable is
read), and only then computes.  Config keys are the flags' dest names, each
held to its flag's type and choices; any other key fails.  Angles are radians
unless --deg is given; floats print with up to 17 significant digits.  Exit
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


class _Resolver:
    """Flags win over the --config file, which wins over defaults."""

    def __init__(self, ns: argparse.Namespace, file_cfg: dict):
        self.ns = ns
        self.file_cfg = file_cfg

    def get(self, key, default=None, required: bool = False):
        v = getattr(self.ns, key, None)
        if v is None:
            v = self.file_cfg.get(key)
        if v is None:
            v = default
        if v is None and required:
            raise ValueError(f"--{key.replace('_', '-')} is required")
        return v

    def start(self) -> tuple[float, float]:
        return checked_start(_numbers(self.get("x0", required=True), "x,y"))

    def config(self) -> ProblemConfig:
        t1 = self.get("theta1", required=True)
        t2 = self.get("theta2", required=True)
        scale = math.pi / 180.0 if self.get("deg", False) else 1.0
        return ProblemConfig(t1 * scale, t2 * scale)

    def policy(self, seed: int):
        # every policy rejects a negative seed alike; only random reads it
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        name = self.get("policy", "first")
        if name == "first":
            return FirstBranch()
        if name == "random":
            return SeededRandom(seed)
        return EnumerateTree()


def _read_config(path: str, sp: argparse.ArgumentParser) -> dict:
    """The --config file's JSON object, with each of the command's flags
    held to its type and its choices: the flag's argparse type applied to
    str(value), or a JSON boolean for a store_const flag (--deg, --brent).
    A key that is not the dest of one of the command's flags (--config
    aside) raises."""
    with open(path, "r", encoding="utf-8") as fh:
        file_cfg = json.load(fh)
    if not isinstance(file_cfg, dict):
        raise ValueError(f"{path} must hold a JSON object")
    keys = sorted({a.dest for a in sp._actions} - {"help", "config"})
    for key in file_cfg:
        if key not in keys:
            raise ValueError(f"config key {key!r} is not a flag of {sp.prog} "
                             f"(keys: {', '.join(keys)})")
    for action in sp._actions:
        key, v = action.dest, file_cfg.get(action.dest)
        if v is None:
            continue
        if action.const is True:
            if not isinstance(v, bool):
                raise ValueError(f"config key {key!r} must be true or false, "
                                 f"got {v!r}")
        else:
            try:
                v = file_cfg[key] = (action.type or str)(str(v))
            except ValueError:
                raise ValueError(f"config key {key!r}: invalid "
                                 f"{action.type.__name__} value {v!r}"
                                 ) from None
            if action.choices is not None and v not in action.choices:
                raise ValueError(f"config key {key!r}: {key} must be one of "
                                 f"{tuple(action.choices)}, got {v!r}")
    return file_cfg


def cmd_certify(r: _Resolver) -> int:
    cfg = r.config()
    out = r.get("out")
    result = certify(cfg)
    text = certificate_json(result)
    sys.stdout.write(text)
    if out:
        atomic_write_text(out, text)
    return 2 if isinstance(result, Infeasible) else 0


def cmd_iterate(r: _Resolver) -> int:
    cfg = r.config()
    seed = r.get("seed", 0)
    policy = r.policy(seed)
    x = r.start()
    steps = _at_least("steps", r.get("steps", 100), 0)
    out = r.get("out")
    coins = _coins(policy)
    points = [x]
    for _ in range(steps):
        # on D3 two outputs, A1's first: the coin picks one
        outs = dr_multivalued(cfg, x).outputs
        x = outs[0] if len(outs) == 1 or next(coins) else outs[1]
        points.append(x)
    for n, (px, py) in enumerate(points):
        print(f"{n} {format_float(px)} {format_float(py)}")
    if out:
        atomic_write_text(out, trace_csv(points))
    return 0


def cmd_raster(r: _Resolver) -> int:
    _at_least("threads", r.get("threads", 1), 1)
    cfg = r.config()
    seed = r.get("seed", 0)
    bounds = _numbers(r.get("bounds", "-3,3,-3,3"), "xmin,xmax,ymin,ymax")
    res = _numbers(r.get("res", "200x200"), "NXxNY", "x", int)
    policy = r.policy(seed)
    max_steps = r.get("max_steps", 2000)
    out = r.get("out", "raster.pgm")
    csv_out = r.get("csv")
    grid = rasterize(cfg, bounds, res, policy=policy, max_steps=max_steps,
                     seed=seed)
    write_pgm(grid, out)
    if csv_out:
        atomic_write_text(csv_out, raster_csv(grid))
    counts = [int(np.count_nonzero(grid.cells == c)) for c in range(4)]
    nx, ny = grid.resolution
    print(f"raster {nx}x{ny}: p1={counts[1]} p2={counts[2]} "
          f"cycle={counts[3]} budget={counts[0]} -> {out}")
    return 0


def cmd_sweep(r: _Resolver) -> int:
    _at_least("threads", r.get("threads", 1), 1)
    pairs = r.get("pairs")
    if pairs is not None:
        pairs = _parse_pairs(pairs)
    else:
        grid = _numbers(r.get("grid", "40x40"), "NXxNY", "x", int)
        pairs = make_theta_grid(*grid)
    samples = r.get("samples", 20)
    max_steps = r.get("max_steps", 20000)
    seed = r.get("seed", 0)
    out = r.get("out", "sweep.csv")
    sg = sweep(pairs, samples_per_pair=samples, max_steps=max_steps,
               seed=seed)
    if out:
        atomic_write_text(out, sweep_csv(sg))
    n_cert = sum(1 for q in sg.pairs if q.eq26_holds)
    n_bad = sum(1 for q in sg.pairs if q.nonconvergent_found)
    n_cert_bad = sum(1 for q in sg.pairs
                     if q.eq26_holds and q.nonconvergent_found)
    print(f"sweep pairs={len(sg.pairs)} certified={n_cert} "
          f"nonconvergent={n_bad} certified_nonconvergent={n_cert_bad}")
    return 0


def cmd_orbit(r: _Resolver) -> int:
    cfg = r.config()
    x0 = r.start()
    max_steps = r.get("max_steps", 20000)
    if r.get("brent", False):
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


def cmd_robust(r: _Resolver) -> int:
    cfg = r.config()
    x0 = r.start()
    epsilon = r.get("epsilon", 0.05)
    steps = _at_least("steps", r.get("steps", 200), 0)
    n = _at_least("traces", r.get("traces", 1), 1)
    mode = r.get("mode", "random")
    seed = r.get("seed", 0)
    out = r.get("out")
    cert = certify(cfg)
    if isinstance(cert, Infeasible):
        raise ValueError(
            f"no certificate for theta1={format_float(cfg.theta1)} "
            f"theta2={format_float(cfg.theta2)} "
            f"(margin {format_float(cert.condition_margin)}); "
            "a robust run needs a feasible pair")
    spec = PerturbationSpec.from_certificate(cert, epsilon=epsilon)
    lanes = run_perturbed_many(spec, cfg, [x0] * n, steps, seed=seed,
                               trace_ids=range(n), mode=mode)
    audits = [check_kl_bound(spec, cfg, p.tolist()) for p in lanes.points]
    all_ok = all(ok for ok, _ in audits)
    worst = min(margin for _, margin in audits)
    # the CSV needs the first trace only: free the lanes before building it
    first_trace = lanes.trace(0)
    del lanes
    if out:
        atomic_write_text(out, perturbed_trace_csv(spec, cfg, first_trace))
    print(f"robust: traces={n} steps={steps} mode={mode} "
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
            sp.add_argument("--deg", action="store_const", const=True,
                            help="interpret angles as degrees")
        sp.add_argument("--config", help="JSON file mirroring the flags")
        return sp

    sp = command("certify", cmd_certify, "build the decay certificate")
    sp.add_argument("--out", help="also write the JSON here")

    sp = command("iterate", cmd_iterate, "print plain iterates from x0")
    sp.add_argument("--x0")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--policy", choices=("first", "random"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="write step/x/y CSV here")

    sp = command("raster", cmd_raster, "basin-of-attraction raster")
    sp.add_argument("--bounds", help="xmin,xmax,ymin,ymax")
    sp.add_argument("--res", help="NXxNY")
    sp.add_argument("--policy", choices=("first", "random", "tree"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--out", help="PGM output path")
    sp.add_argument("--csv", help="also write per-cell CSV here")

    sp = command("sweep", cmd_sweep, "scan angle pairs for nonconvergence",
                 angles=False)
    sp.add_argument("--grid", help="N1xN2 angle grid")
    sp.add_argument("--pairs", help="t1,t2;t1,t2;... explicit pairs")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--out", help="CSV output path")

    sp = command("orbit", cmd_orbit, "probe one start for a periodic orbit")
    sp.add_argument("--x0")
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--brent", action="store_const", const=True,
                    help="low-memory search instead of the windowed one, "
                    "reporting a period only where a cycle proof holds")

    sp = command("robust", cmd_robust, "perturbed runs against the KL bound")
    sp.add_argument("--x0")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--traces", type=int)
    sp.add_argument("--mode", choices=("random", "adversarial"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="write the first trace's CSV here")
    return ap, sub.choices


def main(argv: list | None = None) -> int:
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors; our contract says 1
        return 0 if not e.code else 1
    try:
        file_cfg = (_read_config(ns.config, commands[ns.command])
                    if ns.config else {})
        return ns.run(_Resolver(ns, file_cfg))
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
