"""The benchmark's four workloads: generated argv, output checks, corruptions.

Each workload op is a fixed list of ``drlines`` command lines.  The seed
picks the varied inputs; seed 0 gives the canonical inputs whose output
digests are recorded in ``digests.json``.  Every check returns a list of
problems; an op passes only when the list is empty.

This module imports drlines, so import it only after ``src`` is on the path.
It keeps its own references to the library functions it checks against,
taken before the tracer replaces any module attribute.
"""
from __future__ import annotations

import math
import random
import re
from typing import NamedTuple

from drlines.experiments import ConvergedTo, Cycle, simulate
from drlines.geometry import ProblemConfig

DEFAULT_SEED = 0
FIGURE_PAIR = (repr(math.pi / 3), repr(2 * math.pi / 5))
P1, P2 = (-0.5, 0.0), (0.5, 0.0)


class Outputs(NamedTuple):
    """What one op produced: stdout per command (output directory replaced
    by ``<out>``) and the bytes of every output file, by role."""

    stdout: tuple
    files: dict


def _match(pattern: str, text: str, what: str, problems: list):
    m = re.fullmatch(pattern, text)
    if m is None:
        problems.append(f"{what}: unexpected stdout {text!r}")
    return m


def _csv_rows(data: bytes, header: str, what: str, problems: list) -> list:
    lines = data.decode("utf-8").split("\r\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        problems.append(f"{what}: bad CSV header {lines[:1]!r}")
        return []
    return [ln.split(",") for ln in lines[1:]]


class Basin:
    """Basin raster of the period-58 pair; items are cells."""

    name = "basin"
    theta = ("0.082719", "2.064601")
    nx = ny = 200
    items = nx * ny
    max_steps = 2000
    files = {"pgm": "basin.pgm", "csv": "basin.csv"}
    # fixed sample of cells re-simulated directly; 997 is coprime to 40000
    sample = tuple((k * 997) % (200 * 200) for k in range(24))

    def bounds(self, seed: int) -> tuple:
        # sub-cell shift of the [-3, 3]^2 window, zero at the default seed
        sx = sy = 0.0
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            sx, sy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        cx, cy = 6.0 / self.nx, 6.0 / self.ny
        return (-3.0 + sx * cx, 3.0 + sx * cx, -3.0 + sy * cy, 3.0 + sy * cy)

    def argvs(self, seed: int, outdir: str) -> list:
        b = ",".join("%.17g" % v for v in self.bounds(seed))
        return [["raster", "--theta1", self.theta[0], "--theta2", self.theta[1],
                 "--res", f"{self.nx}x{self.ny}", f"--bounds={b}",
                 "--threads", "1", "--out", f"{outdir}/{self.files['pgm']}",
                 "--csv", f"{outdir}/{self.files['csv']}"]]

    def cell_center(self, bounds: tuple, cell: int) -> tuple:
        # the same arithmetic as the raster driver's cell loop
        xmin, xmax, ymin, ymax = bounds
        j, i = divmod(cell, self.nx)
        yc = ymax - (j + 0.5) * (ymax - ymin) / self.ny
        xc = xmin + (i + 0.5) * (xmax - xmin) / self.nx
        return xc, yc

    def check(self, seed: int, out: Outputs) -> list:
        problems: list = []
        m = _match(r"raster 200x200: p1=(\d+) p2=(\d+) cycle=(\d+) "
                   r"budget=(\d+) -> <out>/basin\.pgm\n", out.stdout[0],
                   "basin", problems)
        header = b"P5\n200 200\n255\n"
        pgm = out.files["pgm"]
        if not pgm.startswith(header) or len(pgm) != len(header) + self.items:
            return problems + ["basin: malformed PGM"]
        levels = {0: 0, 64: 1, 192: 2, 255: 3}
        pixels = pgm[len(header):]
        if any(v not in levels for v in set(pixels)):
            return problems + ["basin: PGM gray level outside the 4 codes"]
        codes = [levels[v] for v in pixels]
        counts = [codes.count(c) for c in range(4)]
        if m is not None:
            p1, p2, cyc, bud = (int(g) for g in m.groups())
            if [bud, p1, p2, cyc] != counts:
                problems.append(f"basin: stdout counts {m.groups()} disagree "
                                f"with PGM counts {counts}")
        rows = _csv_rows(out.files["csv"], "x,y,verdict,steps,target",
                         "basin", problems)
        if len(rows) != self.items:
            return problems + [f"basin: {len(rows)} CSV rows"]
        names = ("Budget", "ConvergedTo", "ConvergedTo", "Cycle")
        for k, (row, code) in enumerate(zip(rows, codes)):
            want_target = str(code) if code in (1, 2) else ""
            if row[2] != names[code] or row[4] != want_target:
                problems.append(f"basin: CSV row {k} {row} disagrees with "
                                f"PGM code {code}")
                break
        # direct simulate calls on fixed cells plus the first cycle cells
        bounds = self.bounds(seed)
        cfg = ProblemConfig(float(self.theta[0]), float(self.theta[1]))
        cycles = [k for k, c in enumerate(codes) if c == 3][:4]
        for cell in self.sample + tuple(cycles):
            xc, yc = self.cell_center(bounds, cell)
            tr = simulate(cfg, (xc, yc), max_steps=self.max_steps,
                          record=False)
            v = tr.verdict
            code = (v.target if isinstance(v, ConvergedTo)
                    else 3 if isinstance(v, Cycle) else 0)
            want = ["%.17g" % xc, "%.17g" % yc, names[code],
                    str(tr.steps_used)]
            if rows[cell][:4] != want:
                problems.append(f"basin: cell {cell} CSV {rows[cell][:4]} "
                                f"but direct simulate gives {want}")
        return problems

    def corruptions(self) -> dict:
        def pgm_byte(out: Outputs) -> Outputs:
            pgm = bytearray(out.files["pgm"])
            k = pgm.index(64, 15)  # first p1 pixel becomes a p2 pixel
            pgm[k] = 192
            return out._replace(files={**out.files, "pgm": bytes(pgm)})

        def csv_steps(out: Outputs) -> Outputs:
            lines = out.files["csv"].decode().split("\r\n")
            row = lines[1].split(",")  # cell 0 is in the direct sample
            row[3] = str(int(row[3]) + 1)
            lines[1] = ",".join(row)
            return out._replace(files={**out.files,
                                       "csv": "\r\n".join(lines).encode()})

        return {"pgm_byte": pgm_byte, "csv_steps": csv_steps}


class Sweep:
    """The 40x40x20 acceptance sweep; items are angle pairs."""

    name = "sweep"
    items = 1600
    files = {"csv": "sweep.csv"}

    def argvs(self, seed: int, outdir: str) -> list:
        return [["sweep", "--grid", "40x40", "--samples", "20",
                 "--threads", "1", "--seed", str(seed),
                 "--out", f"{outdir}/{self.files['csv']}"]]

    def check(self, seed: int, out: Outputs) -> list:
        problems: list = []
        m = _match(r"sweep pairs=1600 certified=(\d+) nonconvergent=(\d+) "
                   r"certified_nonconvergent=(\d+)\n", out.stdout[0],
                   "sweep", problems)
        if m is not None and int(m.group(3)) != 0:
            problems.append("sweep: certified pair reported nonconvergent "
                            f"({m.group(3)} pairs), against the theorem")
        rows = _csv_rows(out.files["csv"], "theta1,theta2,eq26_margin,"
                         "nonconvergent_found,worst_seed", "sweep", problems)
        if len(rows) != self.items:
            return problems + [f"sweep: {len(rows)} CSV rows"]
        bad = 0
        for k, row in enumerate(rows):
            flag, worst = row[3], int(row[4])
            if not ((flag == "false" and worst == -1)
                    or (flag == "true" and 0 <= worst < 20)):
                problems.append(f"sweep: CSV row {k} {row} inconsistent")
                break
            bad += flag == "true"
        if m is not None and int(m.group(2)) != bad:
            problems.append(f"sweep: stdout nonconvergent={m.group(2)} but "
                            f"{bad} CSV rows flagged")
        return problems

    def corruptions(self) -> dict:
        def certified_nonconvergent(out: Outputs) -> Outputs:
            text = out.stdout[0].replace("certified_nonconvergent=0",
                                         "certified_nonconvergent=1")
            return out._replace(stdout=(text,))

        def csv_flag(out: Outputs) -> Outputs:
            data = out.files["csv"].replace(b",false,-1", b",true,-1", 1)
            return out._replace(files={"csv": data})

        return {"certified_nonconvergent": certified_nonconvergent,
                "csv_flag": csv_flag}


class Orbit:
    """The period-1410 orbit, windowed and Brent; items are orbits.

    The Brent run needs a larger budget than the windowed one: its
    reference point jumps at step 2^k - 1, and the first jump inside the
    cycle is at 65535, so it meets the cycle after about 66 950 steps.
    """

    name = "orbit"
    items = 2
    files: dict = {}
    case = ["--theta1", "0.703469", "--theta2", "3.138852",
            "--x0=0.392560,-0.351588"]

    def argvs(self, seed: int, outdir: str) -> list:
        return [["orbit", *self.case, "--max-steps", "60000"],
                ["orbit", *self.case, "--max-steps", "100000", "--brent"]]

    def check(self, seed: int, out: Outputs) -> list:
        problems: list = []
        m = _match(r"orbit: period=(\d+) steps=(\d+)\n", out.stdout[0],
                   "orbit windowed", problems)
        if m is not None and m.group(1) != "1410":
            problems.append(f"orbit windowed: period {m.group(1)} != 1410")
        if out.stdout[1] != "orbit: period=1410\n":
            problems.append(f"orbit brent: {out.stdout[1]!r}")
        return problems

    def corruptions(self) -> dict:
        def period(out: Outputs) -> Outputs:
            return out._replace(stdout=(out.stdout[0].replace("=1410 ",
                                                              "=1411 "),
                                        out.stdout[1]))

        def brent(out: Outputs) -> Outputs:
            return out._replace(stdout=(out.stdout[0],
                                        "orbit: period=705\n"))

        return {"period": period, "brent": brent}


class Robust:
    """Perturbed runs on the figure pair against the class-KL bound:
    70 random and 30 adversarial traces of 200 steps; items are traces."""

    name = "robust"
    modes = (("random", 70), ("adversarial", 30))
    items = sum(n for _, n in modes)
    files = {"random": "robust_random.csv",
             "adversarial": "robust_adversarial.csv"}

    def x0(self, seed: int) -> tuple:
        if seed == DEFAULT_SEED:
            return (2.0, 1.0)
        rng = random.Random(seed)
        return (round(rng.uniform(-2.0, 2.0), 6),
                round(rng.uniform(-2.0, 2.0), 6))

    def argvs(self, seed: int, outdir: str) -> list:
        x, y = self.x0(seed)
        return [["robust", "--theta1", FIGURE_PAIR[0],
                 "--theta2", FIGURE_PAIR[1], f"--x0={x!r},{y!r}",
                 "--steps", "200", "--traces", str(n), "--mode", mode,
                 "--seed", str(seed), "--out", f"{outdir}/{self.files[mode]}"]
                for mode, n in self.modes]

    def check(self, seed: int, out: Outputs) -> list:
        problems: list = []
        x0 = self.x0(seed)
        for (mode, n), text in zip(self.modes, out.stdout):
            m = _match(rf"robust: traces={n} steps=200 mode={mode} "
                       r"ok=(true|false) worst_margin=(\S+)\n", text,
                       f"robust {mode}", problems)
            if m is not None and m.group(1) != "true":
                problems.append(f"robust {mode}: KL bound violated (ok=false)")
            rows = _csv_rows(out.files[mode], "step,x,y,pre_offset_norm,"
                             "post_offset_norm,V,bound", f"robust {mode}",
                             problems)
            if len(rows) != 201:
                problems.append(f"robust {mode}: {len(rows)} CSV rows")
                continue
            if (float(rows[0][1]), float(rows[0][2])) != x0:
                problems.append(f"robust {mode}: first row {rows[0]} is not "
                                f"x0={x0}")
            for row in rows:
                x, y, bound = float(row[1]), float(row[2]), float(row[6])
                dist = min(math.hypot(x - P1[0], y - P1[1]),
                           math.hypot(x - P2[0], y - P2[1]))
                if dist > bound * (1.0 + 1e-9):
                    problems.append(f"robust {mode}: CSV row {row} breaks "
                                    "the KL envelope")
                    break
        return problems

    def corruptions(self) -> dict:
        def ok_false(out: Outputs) -> Outputs:
            return out._replace(stdout=(out.stdout[0],
                                        out.stdout[1].replace("ok=true",
                                                              "ok=false")))

        def csv_envelope(out: Outputs) -> Outputs:
            lines = out.files["adversarial"].decode().split("\r\n")
            row = lines[-2].split(",")  # last point, far outside the bound
            row[1] = "9"
            lines[-2] = ",".join(row)
            return out._replace(files={**out.files, "adversarial":
                                       "\r\n".join(lines).encode()})

        return {"ok_false": ok_false, "csv_envelope": csv_envelope}


WORKLOADS = {w.name: w for w in (Basin(), Sweep(), Orbit(), Robust())}
