"""Mutants of the library's decision points, and a harness that runs the
test suite against each: ``python tests/mutants.py``.

A mutant is one exact ``old -> new`` replacement in a file of
``src/drlines``, marked KILLED (some test must fail) or with the reason
it is equivalent (the suite must pass).  The harness copies COPIED to a
directory per mutant, all under one ``drlines-mutant-*`` temporary
directory, applies it there and runs ``pytest -x -q -p no:cacheprovider``
with PYTHONDONTWRITEBYTECODE=1, JOBS at once, so the checkout stays as
it was; a run past TIMEOUT seconds counts as a kill.  However the run
ends (SIGTERM and Ctrl-C included), it kills the suites still running
and removes the temporary directory.  Beside each killed mutant it
prints the test that failed first.  It exits 1 when an outcome differs
from its mark.  The first mutant edits a comment: were it killed, the
copy itself would fail and every kill be vacuous.
``test_mutants.py``, which the harness leaves out as every mutant fails
it, keeps each ``old`` text occurring exactly once.
"""
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "bench", "README.md", "pyproject.toml")
TIMEOUT = 300
# suites run at once: two, as on a 2-vCPU host
JOBS = 2
KILLED = "killed"
Mutant = namedtuple("Mutant", "name file old new mark")
MUTANTS = (
    Mutant("control", "dr.py", "# the balls are disjoint",
           "# the balls do not meet", "it edits a comment"),
    # the tie band and the scalar loop's screen and ball tests
    Mutant("band-min", "dr.py", "np.maximum(abs(x), abs(y))",
           "np.minimum(abs(x), abs(y))", KILLED),
    Mutant("band-open", "dr.py", "abs(gap) <= _band(x, y)",
           "abs(gap) < _band(x, y)", KILLED),
    Mutant("lane-clear-ge", "dr.py", "return abs(gap) > _band(x, y)",
           "return abs(gap) >= _band(x, y)",
           "it differs from the scalar band only at a gap exactly equal to "
           "dr._band, a point no test plants"),
    Mutant("screen-loose", "dr.py", "_SCREEN = 2.0 * TIE_TOL",
           "_SCREEN = 0.5 * TIE_TOL", KILLED),
    Mutant("steps-abs", "dr.py", "        if g1 < 0.0:",
           "        if g1 > 0.0:", KILLED),
    Mutant("steps-ball-radius", "dr.py", "if q1 < r1sq:", "if q1 < r2sq:",
           KILLED),
    Mutant("ball-radius", "dr.py", "< consts[3 + code]",
           "< consts[4]", KILLED),
    Mutant("lane-visit-radii", "dr.py",
           "dx1 * dx1 + yy < r1sq, dx2 * dx2 + yy < r2sq",
           "dx1 * dx1 + yy < r2sq, dx2 * dx2 + yy < r1sq", KILLED),
    # the window's cycle screen and its undecided rule
    Mutant("cycles-screen-l1", "experiments.py",
           "dist = np.maximum(abs(ex - x), abs(ey - y))",
           "dist = abs(ex - x) + abs(ey - y)", KILLED),
    Mutant("cycles-full-check", "experiments.py", "elif 2 * k > m:",
           "elif 2 * k >= m:", KILLED),
    Mutant("cycles-undecided", "experiments.py",
           "[_UNDECIDED if span // 2 > m - 1 else 0]",
           "[_UNDECIDED if span // 2 >= m - 1 else 0]", KILLED),
    Mutant("walk-window", "experiments.py", "if len(win) > 2 * WINDOW:",
           "if len(win) > 2 * WINDOW + 2:", KILLED),
    Mutant("lockstep-undecided", "experiments.py",
           "over = (found != 0) | (e == max_steps)",
           "over = (found > 0) | (e == max_steps)", KILLED),
    # the cycle proof and the walk that tries it
    Mutant("proof-margin", "cycles.py", "if not error < margin:",
           "if not error <= 1.0:", KILLED),
    Mutant("proof-margin-half", "cycles.py", "if not error < margin:",
           "if not error < 2.0 * margin:", KILLED),
    Mutant("proof-drift", "cycles.py", "+ kd * (3.0 + 1.0 / gain))", ")",
           KILLED),
    Mutant("proof-image", "cycles.py", "if not (np.array_equal(bx, p[1:, 0])",
           "if not (np.array_equal(bx, bx)", KILLED),
    Mutant("proof-image-y", "cycles.py", "and np.array_equal(by, p[1:, 1])):",
           "):", KILLED),
    Mutant("proof-tie-slack", "cycles.py",
           "tau = _up(TIE_TOL * (1.0 + 1e-6) + 2.0 * _ETA)",
           "tau = _up(2.0 * _ETA)", KILLED),
    Mutant("walk-tries-capped", "experiments.py",
           "if lag >= 2 and spent + lag <= span:", "if lag >= 2:", KILLED),
    Mutant("walk-span-doubles", "experiments.py",
           "x, y, steps, 2 * span, 0", "x, y, steps, span, 0", KILLED),
    Mutant("walk-coin", "experiments.py", "if next(coins)",
           "if not next(coins)", KILLED),
    # the lane pool's hand-off codes
    Mutant("pool-handoff-codes", "experiments.py",
           "np.where(clear, _HANDOFF, _TIE_HANDOFF)",
           "np.where(clear, _TIE_HANDOFF, _HANDOFF)", KILLED),
    Mutant("pool-mark", "experiments.py", "(count == mark)",
           "(count == mark + 1)", KILLED),
    # the pool's tail: each lane's leaving visit within a block
    Mutant("pool-tail-step", "experiments.py", "count[gone] + a,",
           "count[gone] + a + 1,", KILLED),
    Mutant("pool-tail-point", "experiments.py", "pts[a, :, gone]",
           "pts[a + 1, :, gone]", KILLED),
    Mutant("pool-tail-mark", "experiments.py",
           "leaves(in1, in2, clear, count + np.arange(k)[:, None])",
           "~clear | in1 | in2", KILLED),
    # eq. 26 and the budget it certifies
    Mutant("eq26-margin", "lyapunov.py", "margin = l1 * l2 - lp * lp",
           "margin = l1 * l2 - lp", KILLED),
    Mutant("eq26-margin-ge", "lyapunov.py", "if not margin > 0.0:",
           "if not margin >= 0.0:",
           "a zero margin gives gamma = 1 to rounding, and gamma < 1 "
           "decides"),
    Mutant("eq26-gamma-le", "lyapunov.py", "if not gamma < 1.0:",
           "if not gamma <= 1.0:", KILLED),
    Mutant("budget-exponent", "experiments.py", "e = 2.0 * cert.alpha + 2.0",
           "e = 2.0 * cert.alpha + 1.0", KILLED),
    Mutant("budget-slack", "experiments.py", "int(math.ceil(need)) + 64)",
           "int(math.ceil(need)) + 0)", KILLED),
    Mutant("budget-near-ball", "experiments.py", "    need = e * (",
           "    need = 0.0 if w2 <= BALL_SAFETY * r else e * (",
           "the branch never runs: D3 crosses p1p2, so r < 1/2 <= w2"),
    # the increase ball's guards
    Mutant("increase-ball-guard", "lyapunov.py", "if not denom > 0.0:",
           "if denom <= 0.0:", KILLED),
    Mutant("containment-guard", "lyapunov.py", "if not rho >= crit:",
           "if rho < crit:", KILLED),
    # the KL audit and the rate ratio
    Mutant("kl-slack", "robust.py", "if actual > bound * (1.0 + 1e-9):",
           "if actual > bound * (1.0 + 1e-7):", KILLED),
    Mutant("kl-step", "robust.py", "rate ** (float(n) / e)",
           "rate ** (float(n + 1) / e)", KILLED),
    Mutant("rate-near-anchor", "robust.py", "if vx > 0.0 and d > e:",
           "if vx > 0.0:", KILLED),
    Mutant("rate-slack", "robust.py",
           "slack = ((d + e) / (d - e)) ** (2.0 * spec.alpha + 2.0)",
           "slack = 1.0", KILLED),
)


# the suites running now, and whether the run is stopping: a stopping
# run starts no suite
_RUNNING: set = set()
_LOCK = threading.Lock()
_STOPPING = threading.Event()


def run(mutant: Mutant, parent: Path) -> tuple[str, float, str]:
    """The suite's outcome with the mutant applied to a copy under
    ``parent`` (killed, survived, timeout, or stopped where the run stopped
    first), its seconds, and the node id of the test that failed or
    errored first, from pytest's ``FAILED``/``ERROR`` summary line."""
    tmp = parent / mutant.name
    shutil.copytree(
        ROOT, tmp, ignore=lambda d, names: [
            n for n in names if n in ("__pycache__", ".hypothesis")
            or Path(d) == ROOT and n not in COPIED])
    path = Path(tmp, "src", "drlines", mutant.file)
    text = path.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, mutant.name
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    with _LOCK:
        if _STOPPING.is_set():
            return "stopped", 0.0, ""
        # a session of its own, so that stopping it stops the processes
        # its tests start too
        suite = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--ignore=tests/test_mutants.py"],
            cwd=tmp, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        _RUNNING.add(suite)
    try:
        out = suite.communicate(timeout=TIMEOUT)[0]
        outcome = "killed" if suite.returncode else "survived"
        killer = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
        killer = killer[1] if killer else ""
    except subprocess.TimeoutExpired:
        _kill(suite)
        suite.communicate()
        outcome, killer = "timeout", ""
    finally:
        with _LOCK:
            _RUNNING.discard(suite)
    shutil.rmtree(tmp)
    return outcome, time.perf_counter() - start, killer


def _kill(suite: subprocess.Popen) -> None:
    """Kill the suite and every process in its session, unless it has
    been waited for; the thread that runs it waits for it."""
    if suite.returncode is None:
        try:
            os.killpg(suite.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main() -> int:
    """Run every mutant, JOBS at a time, with their copies under one
    temporary directory that is removed however the run ends: at its end,
    on an exception, on Ctrl-C or on SIGTERM, which ends it as a
    ``SystemExit``.  A run that stops kills the suites still running."""
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    start, wrong = time.perf_counter(), 0
    parent = Path(tempfile.mkdtemp(prefix="drlines-mutant-"))
    pool = ThreadPoolExecutor(JOBS)
    try:
        for m, (outcome, secs, killer) in zip(
                MUTANTS, pool.map(run, MUTANTS, [parent] * len(MUTANTS))):
            ok = (outcome != "survived") == (m.mark == KILLED)
            wrong += not ok
            print(f"{outcome:8}  {'ok' if ok else 'WRONG':5}  {secs:5.1f}s  "
                  f"{m.name:20}  {killer}".rstrip(), flush=True)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with _LOCK:
            _STOPPING.set()
            for suite in _RUNNING:
                _kill(suite)
        pool.shutdown(cancel_futures=True)
        shutil.rmtree(parent, ignore_errors=True)
    print(f"{len(MUTANTS)} mutants, {wrong} against their marks, "
          f"{time.perf_counter() - start:.0f} s wall")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
