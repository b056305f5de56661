"""File emitters: PGM rasters, CSV tables, certificate JSON, atomic writes.

Every float is printed with up to 17 significant digits (%.17g), which is
exactly enough for a bit-identical round trip; infinities print as
Infinity/-Infinity so the JSON side round-trips too.  CSV fields are such
numbers, true/false or empty, so none needs quoting: fields are joined
with "," and rows end in CRLF.  All writers go through a
write-to-temp-then-rename path, so a crashed run never leaves a partial
output file behind.  The written file gets the mode a plain open() would
give it: an existing file keeps its mode, and a new one is 0o666 less the
umask.
"""
from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from typing import Union

import numpy as np

from .experiments import RasterGrid, SweepGrid
from .geometry import ProblemConfig
from .lyapunov import Infeasible, LyapunovCertificate, v_global
from .robust import PerturbationSpec, PerturbedTrace, kl_beta

# gray level per verdict code: Budget, ConvergedTo(p1), ConvergedTo(p2), Cycle
GRAY_LEVELS = (0, 64, 192, 255)

_VERDICT_NAMES = ("Budget", "ConvergedTo", "ConvergedTo", "Cycle")


def format_float(x: float) -> str:
    """%.17g with JSON-compatible spellings for the non-finite values."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the target directory plus atomic rename,
    leaving path with the mode a plain open(path, "wb") would: the
    existing file's, or 0o666 less the umask for a new one."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # the umask can only be read by setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def pgm_bytes(grid: RasterGrid) -> bytes:
    """Binary PGM (P5, maxval 255), one gray level per verdict code.

    Rows run top to bottom (ymax first), matching the cells array.
    """
    nx, ny = grid.resolution
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    lut = np.array(GRAY_LEVELS, dtype=np.uint8)
    return header + lut[grid.cells].tobytes()


def write_pgm(grid: RasterGrid, path: str) -> None:
    atomic_write_bytes(path, pgm_bytes(grid))


def raster_csv(grid: RasterGrid) -> str:
    """One row per cell (row-major from the top): x, y, verdict, steps, target."""
    nx, ny = grid.resolution
    xmin, xmax, ymin, ymax = grid.bounds
    # every cell of a column shares its x and every cell of a row its y, so
    # each is formatted once
    xs = [format_float(xmin + (i + 0.5) * (xmax - xmin) / nx)
          for i in range(nx)]
    heads = [f"{name}," for name in _VERDICT_NAMES]
    tails = [f",{c if c in (1, 2) else ''}\r\n" for c in range(4)]
    out = ["x,y,verdict,steps,target\r\n"]
    for j, (codes, steps) in enumerate(zip(grid.cells.tolist(),
                                           grid.steps.tolist())):
        y = format_float(ymax - (j + 0.5) * (ymax - ymin) / ny)
        out.extend(f"{x},{y},{heads[c]}{n}{tails[c]}"
                   for x, c, n in zip(xs, codes, steps))
    return "".join(out)


def sweep_csv(sg: SweepGrid) -> str:
    out = ["theta1,theta2,eq26_margin,nonconvergent_found,worst_seed\r\n"]
    out.extend(f"{format_float(p.theta1)},{format_float(p.theta2)},"
               f"{format_float(p.eq26_margin)},"
               f"{'true' if p.nonconvergent_found else 'false'},"
               f"{p.worst_seed}\r\n" for p in sg.pairs)
    return "".join(out)


def trace_csv(points) -> str:
    """Bare step/x/y table for a sequence of iterates."""
    out = ["step,x,y\r\n"]
    out.extend(f"{n},{format_float(x)},{format_float(y)}\r\n"
               for n, (x, y) in enumerate(points))
    return "".join(out)


def perturbed_trace_csv(spec: PerturbationSpec, cfg: ProblemConfig,
                        trace: PerturbedTrace) -> str:
    """Row n carries the offsets consumed going from point n to point n+1.

    V is the Lyapunov value at the point, bound the KL envelope
    beta(omega2(x0), n); the final row has no outgoing offsets.
    """
    x0 = trace.points[0]
    w2 = max(math.hypot(x0[0] - cfg.p1[0], x0[1] - cfg.p1[1]),
             math.hypot(x0[0] - cfg.p2[0], x0[1] - cfg.p2[1]))
    out = ["step,x,y,pre_offset_norm,post_offset_norm,V,bound\r\n"]
    for n, (x, y) in enumerate(trace.points):
        if n < len(trace.disturbances):
            pre, post = trace.disturbances[n]
            pre_s = format_float(math.hypot(*pre))
            post_s = format_float(math.hypot(*post))
        else:
            pre_s = post_s = ""
        out.append(f"{n},{format_float(x)},{format_float(y)},{pre_s},"
                   f"{post_s},{format_float(v_global(spec, cfg, (x, y)))},"
                   f"{format_float(kl_beta(spec, w2, float(n)))}\r\n")
    return "".join(out)


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    raise TypeError(f"unsupported JSON value {v!r}")


def _json_object(items: list) -> str:
    body = ",\n".join(f'  "{k}": {_json_value(v)}' for k, v in items)
    return "{\n" + body + "\n}\n"


def certificate_json(result: Union[LyapunovCertificate, Infeasible]) -> str:
    """Certificate or Infeasible report as a small fixed-order JSON object."""
    if isinstance(result, LyapunovCertificate):
        return _json_object([
            ("theta1", result.theta1),
            ("theta2", result.theta2),
            ("feasible", True),
            ("alpha", result.alpha),
            ("gamma", result.gamma),
            ("alpha_min", result.alpha_min),
            ("alpha_max", result.alpha_max),
            ("condition_margin", result.condition_margin),
            ("special_case", result.special_case),
        ])
    return _json_object([
        ("theta1", result.theta1),
        ("theta2", result.theta2),
        ("feasible", False),
        ("condition_margin", result.condition_margin),
    ])


def parse_certificate_json(text: str) -> Union[LyapunovCertificate, Infeasible]:
    obj = json.loads(text)
    if obj["feasible"]:
        return LyapunovCertificate(
            theta1=obj["theta1"], theta2=obj["theta2"], alpha=obj["alpha"],
            gamma=obj["gamma"], alpha_min=obj["alpha_min"],
            alpha_max=obj["alpha_max"],
            condition_margin=obj["condition_margin"],
            special_case=obj["special_case"])
    return Infeasible(theta1=obj["theta1"], theta2=obj["theta2"],
                      condition_margin=obj["condition_margin"])
