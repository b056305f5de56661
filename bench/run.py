"""Benchmark of the drlines command line, end to end and layer by layer.

    python3 bench/run.py --workload basin --seed 3 --seconds 20 --trace 0

Each op calls ``drlines.cli.main(argv)`` in this process, which is what a
``drlines ...`` command runs after import.  Workloads, metrics and the
layer-to-end-to-end mapping are described in ``bench/README.md``.

``--trace 0`` measures the end-to-end metrics: op throughput, interpreter
set-up time and peak memory.  ``--trace 1`` alternates untraced ops with
ops under the span tracer and reports the per-layer metrics plus the
tracer's own overhead.  Every op's outputs are checked; a failed check or an
exception counts the op as failed.  The last line of stdout is the result
object; the line before it carries the op-time distribution, the check
log and the version stamp, which are also written to ``.bench_out/``.

``--self-test`` feeds deliberately corrupted outputs through the op checker
and exits non-zero unless each one is counted as a failed op.
``--record-digests`` re-records ``bench/digests.json`` from the current
program at the default seed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

MIN_OPS = 3          # timed ops per run, even past --seconds
MIN_PAIRS = 2        # untraced/traced op pairs per traced run
SETUP_REPEATS = 5    # fresh-interpreter imports behind setup_s
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
REF_LOOP_N = 150_000
REF_LOOP_S = 0.1     # reference_loop() on the baseline host, see README


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("basin", "sweep", "orbit", "robust"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    return ap.parse_args(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def distribution(values: list) -> dict:
    """Median, quartiles and the highest listed percentile that still has
    at least ten samples beyond it (None when there are too few)."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v) if v else None,
           "q1": None, "q3": None, "high_percentile": None}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(v, n=4)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            k = min(n - 1, math.ceil(p / 100.0 * n) - 1)
            out["high_percentile"] = {"p": p, "value": v[k]}
    return out


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the tree is not a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(dr_seed_removed: bool) -> dict:
    import numpy
    src = hashlib.sha256()
    for f in sorted((SRC / "drlines").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": git_commit(),
            "source_sha256": src.hexdigest(),
            "dr_seed_env_removed": dr_seed_removed}


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that does not touch drlines.

    On a shared host the interpreter's speed drifts by tens of percent
    over minutes, and the drift moves this loop and the ops alike; see
    ``Paced``."""
    c, s = 0.8, 0.6
    x, y, acc = 1.0, 0.5, 0.0
    pts = []
    t0 = time.perf_counter()
    for _ in range(REF_LOOP_N):
        dx = x + 0.5
        x, y = -0.5 + c * (c * dx + s * y), c * (-s * dx + c * y)
        acc += math.hypot(x, y)
        pts.append((x, y))
        if len(pts) == 64:
            pts.clear()
    return time.perf_counter() - t0


class Paced:
    """Timings paired with the reference loop run just before and just
    after each one.  ``ref_seconds`` is the median of time / (mean of the
    two loops), times REF_LOOP_S: the time on a host where the loop takes
    REF_LOOP_S, so host drift between runs cancels out."""

    def __init__(self):
        self.loops = [reference_loop()]
        self.raw: list = []
        self.ratios: list = []

    def add(self, seconds) -> None:
        """Record one timing (None for a failed op, which is not counted)."""
        self.loops.append(reference_loop())
        if seconds is not None:
            self.raw.append(seconds)
            self.ratios.append(seconds / (0.5 * (self.loops[-2]
                                                 + self.loops[-1])))

    def ref_seconds(self) -> float:
        return statistics.median(self.ratios) * REF_LOOP_S

    def detail(self) -> dict:
        return {"wall_seconds": distribution(self.raw),
                "ref_seconds": distribution([r * REF_LOOP_S
                                             for r in self.ratios]),
                "reference_loop_seconds": distribution(self.loops)}


def measure_setup(repeats: int) -> Paced:
    """Fresh interpreters importing drlines.cli.  One extra untimed import
    first, so bytecode compilation is not counted."""
    env = dict(os.environ)
    env.pop("DR_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import drlines.cli"]

    def start() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    start()
    paced = Paced()
    for _ in range(repeats):
        paced.add(start())
    return paced


class OpError(Exception):
    pass


class Bench:
    """One workload in one directory of outputs: runs ops, checks them and
    keeps the tally of attempted and failed ops."""

    def __init__(self, work, outdir: str, main):
        from workloads import DEFAULT_SEED
        self.work = work
        self.outdir = outdir
        self.main = main
        self.default_seed = DEFAULT_SEED
        self.digests = (json.loads(DIGESTS.read_text()).get(work.name)
                        if DIGESTS.is_file() else None)
        self.reference: dict = {}   # seed -> outputs of the first good op
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_op(self, seed: int, main=None):
        """Run one op; returns (seconds of cli.main calls, Outputs)."""
        from workloads import Outputs
        main = main or self.main
        for name in self.work.files.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.outdir, name))
        stdouts = []
        seconds = 0.0
        for argv in self.work.argvs(seed, self.outdir):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = main(argv)
                seconds += time.perf_counter() - t0
            if code != 0:
                raise OpError(f"exit {code} from {' '.join(argv)}: "
                              f"{err.getvalue().strip()}")
            stdouts.append(buf.getvalue().replace(self.outdir, "<out>"))
        files = {role: Path(self.outdir, name).read_bytes()
                 for role, name in self.work.files.items()}
        return seconds, Outputs(tuple(stdouts), files)

    def digest(self, out) -> dict:
        return {"stdout": [sha256(s.encode()) for s in out.stdout],
                "files": {r: sha256(b) for r, b in sorted(out.files.items())}}

    def verify(self, seed: int, out) -> list:
        """Problems with one op's outputs.  Outputs equal to the verified
        first op's on the same inputs need no further checks."""
        ref = self.reference.get(seed)
        if ref is not None and ref == out:
            return []
        problems = self.work.check(seed, out)
        if seed == self.default_seed:
            if self.digests is None:
                problems.append("no recorded digests for this workload")
            elif self.digest(out) != self.digests:
                problems.append(f"output digests {self.digest(out)} differ "
                                f"from the recorded {self.digests}")
        if ref is not None:
            problems.append("outputs differ from the run's first op on the "
                            "same inputs")
        return problems

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"op": label, "problems": problems[:5]})
            print(f"FAILED {label}: {problems[0]}", file=sys.stderr)
        return not problems

    def op(self, seed: int, label: str, main=None,
           around=contextlib.nullcontext):
        """Run, check and tally one op; returns its seconds or None.
        ``around()`` encloses the run but not the checks."""
        try:
            with around():
                seconds, out = self.run_op(seed, main)
        except Exception:  # a failed op is reported, never fatal
            tb = traceback.format_exc()
            self.record(label, [tb.strip().splitlines()[-1], tb])
            return None
        if not self.record(label, self.verify(seed, out)):
            return None
        self.reference.setdefault(seed, out)
        return seconds

    def corruptions_rejected(self, seed: int) -> dict:
        """Corrupt the run's reference outputs and check that the
        workload's invariants alone reject each corruption."""
        out = self.reference.get(seed)
        if out is None:
            return {}
        return {kind: bool(self.work.check(seed, corrupt(out)))
                for kind, corrupt in self.work.corruptions().items()}


def build_tracer(adv_steps: list):
    """Tracer over the module-level names the CLI's call paths use."""
    from tracing import Tracer
    import drlines.cli as cli
    import drlines.experiments as ex
    import drlines.exports as exports
    import drlines.robust as robust

    t = Tracer()
    verdict_names = {"ConvergedTo": "converged", "Cycle": "cycle",
                     "Budget": "budget"}

    def on_simulate(args, kwargs, tr):
        t.count("experiments.simulate.steps", tr.steps_used)
        t.count("experiments.verdicts."
                + verdict_names[type(tr.verdict).__name__])

    def on_detect(args, kwargs, k):
        t.count("experiments.detect_cycle.hits", k is not None)

    def on_write(args, kwargs, _):
        t.count("exports.atomic_write.bytes",
                len(args[1] if len(args) > 1 else kwargs["data"]))

    def step_mode(args, kwargs):
        return kwargs.get("mode", args[4] if len(args) > 4 else "random")

    def on_step(args, kwargs, sample):
        if step_mode(args, kwargs) == "adversarial":
            adv_steps.append((args[0], args[1], args[2], sample.point))

    simulate = t.span("experiments.simulate", ex.simulate, on_simulate)
    certify = t.span("lyapunov.certify", ex.certify)
    patches = [
        (cli, "rasterize", t.span("experiments.rasterize", cli.rasterize)),
        (cli, "sweep", t.span("experiments.sweep", cli.sweep)),
        (cli, "simulate", simulate),
        (cli, "find_period_brent", t.span("experiments.find_period_brent",
                                          cli.find_period_brent)),
        (cli, "certify", certify),
        (cli, "run_perturbed", t.span("robust.run_perturbed",
                                      cli.run_perturbed)),
        (cli, "check_kl_bound", t.span("robust.check_kl_bound",
                                       cli.check_kl_bound)),
        (cli, "write_pgm", t.span("exports.write_pgm", cli.write_pgm)),
        (cli, "raster_csv", t.span("exports.raster_csv", cli.raster_csv)),
        (cli, "sweep_csv", t.span("exports.sweep_csv", cli.sweep_csv)),
        (cli, "perturbed_trace_csv", t.span("exports.perturbed_trace_csv",
                                            cli.perturbed_trace_csv)),
        (cli, "atomic_write_text", t.span("exports.atomic_write_text",
                                          cli.atomic_write_text)),
        (ex, "simulate", simulate),
        (ex, "detect_cycle", t.span("experiments.detect_cycle",
                                    ex.detect_cycle, on_detect)),
        (ex, "certify", certify),
        (ex, "certified_budget", t.span("experiments.certified_budget",
                                        ex.certified_budget)),
        (ex, "distance_to_D3", t.leaf("geometry.distance_to_D3",
                                      ex.distance_to_D3)),
        (robust, "perturbed_step", t.span("robust.perturbed_step",
                                          robust.perturbed_step, on_step,
                                          variant=step_mode)),
        (robust, "v_global", t.leaf("lyapunov.v_global", robust.v_global)),
        (robust, "sigma", t.leaf("robust.sigma", robust.sigma)),
        (robust, "dr_multivalued", t.leaf("dr.dr_multivalued",
                                          robust.dr_multivalued)),
        (exports, "pgm_bytes", t.span("exports.pgm_bytes",
                                      exports.pgm_bytes)),
        (exports, "atomic_write_bytes", t.span("exports.atomic_write",
                                               exports.atomic_write_bytes,
                                               on_write)),
    ]
    for module, attr, wrapper in patches:
        t.patch(module, attr, wrapper)
    return t, t.span("cli.main", cli.main)


def layer_values(snap: dict) -> dict:
    """Per-layer metrics of one traced op."""
    stats, counters = snap["stats"], snap["counters"]

    def calls(n):
        return stats.get(n, (0, 0, 0))[0]

    def self_s(n):
        return stats.get(n, (0, 0, 0))[2] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def ns_per_call(n):
        c, total, _ = stats.get(n, (0, 0, 0))
        return ratio(total, c)

    sim, det = "experiments.simulate", "experiments.detect_cycle"
    rnd, adv = "robust.perturbed_step.random", "robust.perturbed_step.adversarial"
    steps = counters.get("experiments.simulate.steps", 0)
    hits = counters.get("experiments.detect_cycle.hits", 0)
    adv_v = snap["by_parent"].get((adv, "lyapunov.v_global"), 0)
    return {
        "experiments.simulate.calls": calls(sim),
        "experiments.simulate.steps": steps,
        "experiments.simulate.self_s": self_s(sim),
        "experiments.simulate.ns_per_step": ratio(self_s(sim) * 1e9, steps),
        "geometry.distance_to_D3.calls": calls("geometry.distance_to_D3"),
        "experiments.detect_cycle.calls": calls(det),
        "experiments.detect_cycle.hits": hits,
        "experiments.detect_cycle.hit_ratio": ratio(hits, calls(det)),
        "experiments.detect_cycle.self_s": self_s(det),
        "experiments.find_period_brent.self_s":
            self_s("experiments.find_period_brent"),
        "experiments.rasterize.self_s": self_s("experiments.rasterize"),
        "experiments.sweep.self_s": self_s("experiments.sweep"),
        "experiments.certified_budget.calls":
            calls("experiments.certified_budget"),
        "experiments.certified_budget.self_s":
            self_s("experiments.certified_budget"),
        "experiments.verdicts.converged":
            counters.get("experiments.verdicts.converged", 0),
        "experiments.verdicts.cycle":
            counters.get("experiments.verdicts.cycle", 0),
        "experiments.verdicts.budget":
            counters.get("experiments.verdicts.budget", 0),
        "lyapunov.certify.calls": calls("lyapunov.certify"),
        "lyapunov.certify.self_s": self_s("lyapunov.certify"),
        "lyapunov.v_global.calls": calls("lyapunov.v_global"),
        "lyapunov.v_global.ns_per_call": ns_per_call("lyapunov.v_global"),
        "robust.perturbed_step.random.calls": calls(rnd),
        "robust.perturbed_step.random.self_s": self_s(rnd),
        "robust.perturbed_step.adversarial.calls": calls(adv),
        "robust.perturbed_step.adversarial.self_s": self_s(adv),
        "robust.v_global_per_adv_step": ratio(adv_v, calls(adv)),
        "robust.sigma.calls": calls("robust.sigma"),
        "robust.check_kl_bound.self_s": self_s("robust.check_kl_bound"),
        "dr.dr_multivalued.calls": calls("dr.dr_multivalued"),
        "dr.dr_multivalued.ns_per_call": ns_per_call("dr.dr_multivalued"),
        "exports.raster_csv.self_s": self_s("exports.raster_csv"),
        "exports.pgm_bytes.self_s": self_s("exports.pgm_bytes"),
        "exports.sweep_csv.self_s": self_s("exports.sweep_csv"),
        "exports.perturbed_trace_csv.self_s":
            self_s("exports.perturbed_trace_csv"),
        "exports.atomic_write.bytes":
            counters.get("exports.atomic_write.bytes", 0),
        "exports.atomic_write.self_s": self_s("exports.atomic_write"),
        "cli.main.self_s": self_s("cli.main"),
    }


def adversary_rate_ratio(adv_steps: list) -> float:
    """Largest V(x_{n+1}) / V(x_n) over adversarial steps, divided by the
    certified per-step rate (1+eps)^2 gamma."""
    from drlines.lyapunov import v_global
    worst = 0.0
    for spec, cfg, x, y in adv_steps:
        vx = v_global(spec, cfg, x)
        if vx > 0.0:
            worst = max(worst, v_global(spec, cfg, y) / vx / spec.rate)
    return worst


def measure_pool(bench, seed: int) -> dict:
    """The basin grid through rasterize at threads=1 and threads=nproc;
    the two grids must be byte-identical."""
    from drlines.experiments import rasterize
    from drlines.geometry import ProblemConfig
    work = bench.work
    cfg = ProblemConfig(float(work.theta[0]), float(work.theta[1]))
    nproc = len(os.sched_getaffinity(0))
    grids, secs = [], []
    for threads in (1, nproc):
        t0 = time.perf_counter()
        grids.append(rasterize(cfg, work.bounds(seed), (work.nx, work.ny),
                               max_steps=work.max_steps, threads=threads))
        secs.append(time.perf_counter() - t0)
    a, b = grids
    same = (a.bounds == b.bounds and a.resolution == b.resolution
            and a.seed == b.seed
            and a.cells.dtype == b.cells.dtype and a.steps.dtype == b.steps.dtype
            and a.cells.tobytes() == b.cells.tobytes()
            and a.steps.tobytes() == b.steps.tobytes())
    bench.record(f"pool seed={seed}", [] if same else
                 [f"rasterize grids differ between threads=1 and "
                  f"threads={nproc}"])
    return {"threads": nproc, "seconds_1": secs[0], "seconds_n": secs[1],
            "speedup": secs[0] / secs[1], "identical": same}


def metric_block(values: dict, block: list) -> dict:
    """Result metrics in BENCHMARK.json order, which must name exactly the
    measured ones."""
    names = [m["name"] for m in block]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} "
                           "differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in block}


def run_untraced(args, bench, setup: Paced) -> tuple:
    """Timed ops until --seconds pass; returns (detail, end-to-end values)."""
    ops = Paced()
    stop = time.perf_counter() + args.seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < stop:
        gc.collect()
        ops.add(bench.op(args.seed, f"op {k} seed={args.seed}"))
        k += 1
    items = bench.work.items
    detail = {"op_seconds": ops.detail(), "setup_seconds": setup.detail(),
              "items_per_wall_s": (items / statistics.median(ops.raw)
                                   if ops.raw else 0.0)}
    values = {
        "items_per_s": items / ops.ref_seconds() if ops.ratios else 0.0,
        "setup_s": setup.ref_seconds(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return detail, values


def run_traced(args, bench) -> tuple:
    """Untraced and traced ops in turn until --seconds pass; returns
    (detail, per-layer values)."""
    work, seed = bench.work, args.seed
    detail: dict = {}
    pool = {}
    if work.name == "basin":
        pool = detail["pool"] = measure_pool(bench, seed)
    adv_steps: list = []
    tracer, traced_main = build_tracer(adv_steps)
    plain, traced, snaps, rate_ratios = [], [], [], []
    stop = time.perf_counter() + args.seconds
    k = 0
    while k < 2 * MIN_PAIRS or time.perf_counter() < stop:
        gc.collect()
        if k % 2 == 0:
            s = bench.op(seed, f"op {k} seed={seed}")
            if s is not None:
                plain.append(s)
        else:
            tracer.begin_op(k)
            adv_steps.clear()
            s = bench.op(seed, f"traced op {k} seed={seed}",
                         main=traced_main, around=tracer.installed)
            if s is not None:
                traced.append(s)
                snaps.append(tracer.snapshot())
                rate_ratios.append(adversary_rate_ratio(adv_steps))
        k += 1
    spans_file = OUT / f"spans-{work.name}.jsonl"
    tracer.write_spans(spans_file)
    detail.update({"spans_file": str(spans_file.relative_to(ROOT)),
                   "op_seconds": distribution(plain),
                   "traced_op_seconds": distribution(traced)})

    per_op = [layer_values(s) for s in snaps]
    values = {n: statistics.median(v[n] for v in per_op) if per_op else 0.0
              for n in layer_values({"stats": {}, "counters": {},
                                     "by_parent": {}})}
    values["experiments.rasterize.pool_speedup"] = pool.get("speedup", 0.0)
    values["robust.adversary.rate_ratio"] = max(rate_ratios, default=0.0)
    values["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if traced and plain else 0.0)
    if values["robust.perturbed_step.adversarial.calls"]:
        bench.record("adversary rate", [
            "an adversarial step inflated V beyond (1+eps)^2 gamma"]
            if values["robust.adversary.rate_ratio"] > 1.0 + 1e-9 else [])
    return detail, values


def run(args, bench, spec: dict, setup) -> tuple:
    """One run: the seed-0 reference op, the checker's self-check, then the
    timed ops.  Returns (detail, metrics, self-check passed)."""
    bench.op(bench.default_seed, f"reference seed={bench.default_seed}")
    rejected = bench.corruptions_rejected(bench.default_seed)
    if args.trace:
        detail, values = run_traced(args, bench)
        block = spec["per_layer"]
    else:
        detail, values = run_untraced(args, bench, setup)
        block = spec["end_to_end"]
    detail["checker_selftest_rejected"] = rejected
    return (detail, metric_block(values, block),
            bool(rejected) and all(rejected.values()))


def self_test(bench, seed: int) -> int:
    """Clean op, then each corruption of its outputs through the op
    checker; each corrupted op must be counted as failed."""
    bench.op(seed, f"clean seed={seed}")
    clean = bench.reference.get(seed)
    kinds = bench.work.corruptions()
    if clean is not None:
        for kind, corrupt in kinds.items():
            bench.reference.pop(seed)
            bench.record(f"corrupted {kind}",
                         bench.verify(seed, corrupt(clean)))
            bench.reference[seed] = clean
    ok = clean is not None and bench.failed == len(kinds)
    print(json.dumps({"fail_share": bench.failed / bench.attempted,
                      "failures": bench.failures}, default=str))
    print(json.dumps({"correct": False, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": {}}))
    return 0 if ok else 1


def record_digests(bench) -> int:
    seed = bench.default_seed
    seconds, out = bench.run_op(seed)
    problems = bench.work.check(seed, out)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[bench.work.name] = bench.digest(out)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {bench.work.name} digests ({seconds:.2f} s)")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drlines" / "cli.py").is_file():
        print(f"error: no drlines package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the CLI lets DR_SEED override --seed; the argv must be the only input
    dr_seed_removed = os.environ.pop("DR_SEED", None) is not None
    setup = (None if args.trace or args.self_test or args.record_digests
             else measure_setup(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    import drlines.cli
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        bench = Bench(work, outdir, drlines.cli.main)
        if args.self_test:
            return self_test(bench, args.seed)
        if args.record_digests:
            return record_digests(bench)
        start = time.perf_counter()
        detail, metrics, extra_ok = run(args, bench, spec, setup)
        detail.update({"workload": work.name, "seed": args.seed,
                       "trace": args.trace, "seconds": args.seconds,
                       "wall_s": time.perf_counter() - start,
                       "fail_share": bench.failed / max(1, bench.attempted),
                       "failures": bench.failures,
                       "stamp": stamp(dr_seed_removed)})
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result = {"correct": bench.failed == 0 and extra_ok,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    name = f"result-{work.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result},
                                       indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
