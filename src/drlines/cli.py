"""Command-line front-end: certify, iterate, raster, sweep, orbit, robust.

Exit codes: 0 success (certify: feasible), 1 usage or precondition error,
2 certify found the pair infeasible, 3 I/O failure.  Angles are radians
unless --deg is given.  The DR_SEED environment variable overrides --seed;
a --config JSON file mirrors the flags, with explicit flags winning.
All floats print with up to 17 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dr import branch_values
from .experiments import (
    ConvergedTo,
    Cycle,
    EnumerateTree,
    FirstBranch,
    SeededRandom,
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
from .geometry import TIE_TOL, ProblemConfig, checked_start, checked_tolerance
from .lyapunov import Infeasible, certify
from .robust import PerturbationSpec, check_kl_bound, run_perturbed

_POLICY_NAMES = ("first", "random", "tree")
_THREADS_HELP = ("accepted and ignored (values below 1 are rejected): "
                 "grid blocks run in this process")


@dataclass(frozen=True)
class RunConfig:
    """One command's fully resolved parameters (flags over config file
    over defaults), validated before any computation starts."""

    command: str
    params: dict


def _parse_vec2(text) -> tuple[float, float]:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _at_least(flag: str, value, lo: int) -> int:
    v = int(value)
    if v < lo:
        raise ValueError(f"--{flag} must be >= {lo}, got {v}")
    return v


def _parse_res(text) -> tuple[int, int]:
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected 'NXxNY', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _parse_bounds(text) -> tuple[float, float, float, float]:
    parts = str(text).split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 'xmin,xmax,ymin,ymax', got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_pairs(text) -> list[tuple[float, float]]:
    pairs = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if chunk:
            pair = _parse_vec2(chunk)
            ProblemConfig(*pair)  # rejects the pair before any run starts
            pairs.append(pair)
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

    def seed(self) -> int:
        env = os.environ.get("DR_SEED")
        if env is not None:
            return int(env)
        return int(self.get("seed", 0))

    def check_threads(self) -> None:
        """--threads is accepted and ignored, but values below 1 still
        fail."""
        _at_least("threads", self.get("threads", 1), 1)

    def start(self) -> tuple[float, float]:
        return checked_start(_parse_vec2(self.get("x0", required=True)))

    def angles(self) -> tuple[float, float]:
        t1 = float(self.get("theta1", required=True))
        t2 = float(self.get("theta2", required=True))
        if self.get("deg", False):
            t1 *= math.pi / 180.0
            t2 *= math.pi / 180.0
        return t1, t2

    def policy(self, seed: int):
        name = str(self.get("policy", "first"))
        if name not in _POLICY_NAMES:
            raise ValueError(f"policy must be one of {_POLICY_NAMES}, "
                             f"got {name!r}")
        if name == "first":
            return FirstBranch()
        if name == "random":
            return SeededRandom(seed)
        return EnumerateTree()


def cmd_certify(run: RunConfig) -> int:
    p = run.params
    cfg = ProblemConfig(p["theta1"], p["theta2"])
    result = certify(cfg)
    text = certificate_json(result)
    sys.stdout.write(text)
    if p["out"]:
        atomic_write_text(p["out"], text)
    return 2 if isinstance(result, Infeasible) else 0


def cmd_iterate(run: RunConfig) -> int:
    p = run.params
    cfg = ProblemConfig(p["theta1"], p["theta2"])
    rng = np.random.default_rng(np.random.SeedSequence([p["seed"]]))
    x = p["x0"]
    points = [x]
    for _ in range(p["steps"]):
        outs = branch_values(cfg, *x, tol=p["tol"])
        if len(outs) > 1 and isinstance(p["policy"], SeededRandom):
            x = outs[int(rng.integers(0, len(outs)))]
        else:
            x = outs[0]
        points.append(x)
    for n, (px, py) in enumerate(points):
        print(f"{n} {format_float(px)} {format_float(py)}")
    if p["out"]:
        atomic_write_text(p["out"], trace_csv(points))
    return 0


def cmd_raster(run: RunConfig) -> int:
    p = run.params
    cfg = ProblemConfig(p["theta1"], p["theta2"])
    grid = rasterize(cfg, p["bounds"], p["res"], policy=p["policy"],
                     max_steps=p["max_steps"], seed=p["seed"])
    write_pgm(grid, p["out"])
    if p["csv"]:
        atomic_write_text(p["csv"], raster_csv(grid))
    counts = [int(np.count_nonzero(grid.cells == c)) for c in range(4)]
    nx, ny = grid.resolution
    print(f"raster {nx}x{ny}: p1={counts[1]} p2={counts[2]} "
          f"cycle={counts[3]} budget={counts[0]} -> {p['out']}")
    return 0


def cmd_sweep(run: RunConfig) -> int:
    p = run.params
    sg = sweep(p["pairs"], samples_per_pair=p["samples"],
               max_steps=p["max_steps"], seed=p["seed"])
    if p["out"]:
        atomic_write_text(p["out"], sweep_csv(sg))
    n_cert = sum(1 for q in sg.pairs if q.eq26_holds)
    n_bad = sum(1 for q in sg.pairs if q.nonconvergent_found)
    n_cert_bad = sum(1 for q in sg.pairs
                     if q.eq26_holds and q.nonconvergent_found)
    print(f"sweep pairs={len(sg.pairs)} certified={n_cert} "
          f"nonconvergent={n_bad} certified_nonconvergent={n_cert_bad}")
    return 0


def cmd_orbit(run: RunConfig) -> int:
    p = run.params
    cfg = ProblemConfig(p["theta1"], p["theta2"])
    if p["brent"]:
        k = find_period_brent(cfg, p["x0"], max_steps=p["max_steps"],
                              match_tol=p["match_tol"])
        if k is None:
            print(f"orbit: no-cycle steps={p['max_steps']}")
        else:
            print(f"orbit: period={k}")
        return 0
    tr = simulate(cfg, p["x0"], max_steps=p["max_steps"],
                  match_tol=p["match_tol"], record=False)
    if isinstance(tr.verdict, Cycle):
        print(f"orbit: period={tr.verdict.period} steps={tr.steps_used}")
    elif isinstance(tr.verdict, ConvergedTo):
        print(f"orbit: converged target={tr.verdict.target} "
              f"steps={tr.steps_used}")
    else:
        print(f"orbit: budget steps={tr.steps_used}")
    return 0


def cmd_robust(run: RunConfig) -> int:
    p = run.params
    cfg = ProblemConfig(p["theta1"], p["theta2"])
    cert = certify(cfg)
    if isinstance(cert, Infeasible):
        raise ValueError(
            f"no certificate for theta1={format_float(cfg.theta1)} "
            f"theta2={format_float(cfg.theta2)} "
            f"(margin {format_float(cert.condition_margin)}); "
            "a robust run needs a feasible pair")
    spec = PerturbationSpec.from_certificate(cert, epsilon=p["epsilon"])
    all_ok = True
    worst = math.inf
    first_trace = None
    for tid in range(p["traces"]):
        trace = run_perturbed(spec, cfg, p["x0"], p["steps"], seed=p["seed"],
                              trace_id=tid, mode=p["mode"])
        if first_trace is None:
            first_trace = trace
        ok, margin = check_kl_bound(spec, cfg, trace)
        all_ok = all_ok and ok
        worst = min(worst, margin)
    if p["out"]:
        atomic_write_text(p["out"], perturbed_trace_csv(spec, cfg, first_trace))
    print(f"robust: traces={p['traces']} steps={p['steps']} "
          f"mode={p['mode']} ok={'true' if all_ok else 'false'} "
          f"worst_margin={format_float(worst)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drlines",
        description="Douglas-Rachford iteration on two lines against an "
                    "axis: certificates, orbits, basins, sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, angles=True):
        if angles:
            sp.add_argument("--theta1", type=float)
            sp.add_argument("--theta2", type=float)
            sp.add_argument("--deg", action="store_const", const=True,
                            help="interpret angles as degrees")
        sp.add_argument("--config", help="JSON file mirroring the flags")
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("certify", help="build the decay certificate")
    common(sp)
    sp.add_argument("--out", help="also write the JSON here")

    sp = sub.add_parser("iterate", help="print plain iterates from x0")
    common(sp)
    sp.add_argument("--x0")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--policy", choices=_POLICY_NAMES)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="write step/x/y CSV here")

    sp = sub.add_parser("raster", help="basin-of-attraction raster")
    common(sp)
    sp.add_argument("--bounds", help="xmin,xmax,ymin,ymax")
    sp.add_argument("--res", help="NXxNY")
    sp.add_argument("--policy", choices=_POLICY_NAMES)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--out", help="PGM output path")
    sp.add_argument("--csv", help="also write per-cell CSV here")

    sp = sub.add_parser("sweep", help="scan angle pairs for nonconvergence")
    common(sp, angles=False)
    sp.add_argument("--grid", help="N1xN2 angle grid")
    sp.add_argument("--pairs", help="t1,t2;t1,t2;... explicit pairs")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--out", help="CSV output path")

    sp = sub.add_parser("orbit", help="probe one start for a periodic orbit")
    common(sp)
    sp.add_argument("--x0")
    sp.add_argument("--max-steps", type=int, dest="max_steps")
    sp.add_argument("--match-tol", type=float, dest="match_tol")
    sp.add_argument("--brent", action="store_const", const=True,
                    help="low-memory search instead of the windowed one")

    sp = sub.add_parser("robust", help="perturbed runs against the KL bound")
    common(sp)
    sp.add_argument("--x0")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--traces", type=int)
    sp.add_argument("--mode", choices=("random", "adversarial"))
    sp.add_argument("--out", help="write the first trace's CSV here")
    return ap


def _resolve_run(ns: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{ns.config} must hold a JSON object")
    r = _Resolver(ns, file_cfg)
    cmd = ns.command
    if cmd == "certify":
        t1, t2 = r.angles()
        return RunConfig(cmd, {"theta1": t1, "theta2": t2,
                               "out": r.get("out")})
    if cmd == "iterate":
        t1, t2 = r.angles()
        seed = r.seed()
        policy = r.policy(seed)
        if isinstance(policy, EnumerateTree):
            raise ValueError("iterate follows one branch per step, so "
                             "policy 'tree' does not apply; use first or random")
        return RunConfig(cmd, {
            "theta1": t1, "theta2": t2,
            "x0": r.start(),
            "steps": _at_least("steps", r.get("steps", 100), 0),
            "policy": policy, "seed": seed,
            "tol": checked_tolerance("--tol", float(r.get("tol", TIE_TOL))),
            "out": r.get("out")})
    if cmd == "raster":
        r.check_threads()
        t1, t2 = r.angles()
        seed = r.seed()
        return RunConfig(cmd, {
            "theta1": t1, "theta2": t2,
            "bounds": _parse_bounds(r.get("bounds", "-3,3,-3,3")),
            "res": _parse_res(r.get("res", "200x200")),
            "policy": r.policy(seed), "seed": seed,
            "max_steps": int(r.get("max_steps", 2000)),
            "out": r.get("out", "raster.pgm"),
            "csv": r.get("csv")})
    if cmd == "sweep":
        r.check_threads()
        pairs_arg = r.get("pairs")
        if pairs_arg is not None:
            pairs = _parse_pairs(pairs_arg)
        else:
            n1, n2 = _parse_res(r.get("grid", "40x40"))
            pairs = make_theta_grid(n1, n2)
        return RunConfig(cmd, {
            "pairs": pairs,
            "samples": int(r.get("samples", 20)),
            "max_steps": int(r.get("max_steps", 20000)),
            "seed": r.seed(),
            "out": r.get("out", "sweep.csv")})
    if cmd == "orbit":
        t1, t2 = r.angles()
        return RunConfig(cmd, {
            "theta1": t1, "theta2": t2,
            "x0": r.start(),
            "max_steps": int(r.get("max_steps", 20000)),
            "match_tol": float(r.get("match_tol", 1e-8)),
            "brent": bool(r.get("brent", False))})
    if cmd == "robust":
        t1, t2 = r.angles()
        return RunConfig(cmd, {
            "theta1": t1, "theta2": t2,
            "x0": r.start(),
            "epsilon": float(r.get("epsilon", 0.05)),
            "steps": _at_least("steps", r.get("steps", 200), 0),
            "traces": _at_least("traces", r.get("traces", 1), 1),
            "mode": str(r.get("mode", "random")),
            "seed": r.seed(),
            "out": r.get("out")})
    raise ValueError(f"unknown command {cmd!r}")


_DISPATCH = {
    "certify": cmd_certify,
    "iterate": cmd_iterate,
    "raster": cmd_raster,
    "sweep": cmd_sweep,
    "orbit": cmd_orbit,
    "robust": cmd_robust,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors; our contract says 1
        return 0 if not e.code else 1
    try:
        run = _resolve_run(ns)
        return _DISPATCH[run.command](run)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
