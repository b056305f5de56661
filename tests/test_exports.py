"""Serialization: float formatting, PGM, CSV tables, JSON round-trips."""
import csv
import io
import math
import os

import numpy as np
import pytest

from drlines.experiments import RasterGrid, rasterize, sweep
from drlines.exports import (
    atomic_write_bytes,
    atomic_write_text,
    certificate_json,
    format_float,
    parse_certificate_json,
    perturbed_trace_csv,
    pgm_bytes,
    raster_csv,
    sweep_csv,
    trace_csv,
)
from drlines.geometry import ProblemConfig
from drlines.lyapunov import Infeasible, certify
from drlines.robust import PerturbationSpec, kl_beta, run_perturbed, sigma, v_global

FIG_CFG = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
FIG_CERT = certify(FIG_CFG)


def test_format_float_round_trips():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(0.5) == "0.5"
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"
    rng = np.random.default_rng(3)
    for _ in range(10000):
        x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
        assert float(format_float(x)) == x


def test_pgm_layout():
    grid = rasterize(FIG_CFG, (-3, 3, -3, 3), (12, 10), seed=0)
    data = pgm_bytes(grid)
    assert data.startswith(b"P5\n12 10\n255\n")
    body = data[len(b"P5\n12 10\n255\n"):]
    assert len(body) == 120
    assert set(body) <= {0, 64, 192, 255}
    # row 0 of the cells array is the top scanline
    assert body[:12] == bytes(64 if c == 1 else 192 for c in grid.cells[0])


def test_raster_csv_matches_grid():
    grid = rasterize(FIG_CFG, (-1, 1, -1, 1), (4, 3), seed=0)
    rows = list(csv.reader(io.StringIO(raster_csv(grid))))
    assert rows[0] == ["x", "y", "verdict", "steps", "target"]
    assert len(rows) == 1 + 12
    first = rows[1]
    assert float(first[0]) == -0.75
    assert float(first[1]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    for j in range(3):
        for i in range(4):
            r = rows[1 + j * 4 + i]
            code = int(grid.cells[j, i])
            assert r[2] == ("ConvergedTo" if code in (1, 2) else
                            "Cycle" if code == 3 else "Budget")
            assert int(r[3]) == int(grid.steps[j, i])
            assert r[4] == (str(code) if code in (1, 2) else "")


def raster_csv_reference(grid):
    # the per-cell str.format writer raster_csv replaced
    nx, ny = grid.resolution
    xmin, xmax, ymin, ymax = grid.bounds
    xs = [format_float(xmin + (i + 0.5) * (xmax - xmin) / nx)
          for i in range(nx)]
    tails = [f"{name},{{}},{code if code in (1, 2) else ''}\r\n"
             for code, name in enumerate(("Budget", "ConvergedTo",
                                          "ConvergedTo", "Cycle"))]
    out = ["x,y,verdict,steps,target\r\n"]
    for j, (codes, steps) in enumerate(zip(grid.cells.tolist(),
                                           grid.steps.tolist())):
        y = format_float(ymax - (j + 0.5) * (ymax - ymin) / ny)
        out.extend(f"{x},{y},{tails[c].format(n)}"
                   for x, c, n in zip(xs, codes, steps))
    return "".join(out)


@pytest.mark.parametrize("resolution", [(1, 1), (1, 7), (7, 1), (5, 4)])
@pytest.mark.parametrize("bounds", [
    (-1.0, 1.0, -1.0, 1.0), (-0.0, 0.3, -0.7, -0.0),
    (-1.2345678901234567, 0.10000000000000001, 2.7182818284590451,
     3.1415926535897931)], ids=["unit", "negative-zero", "17-digit"])
def test_raster_csv_matches_the_per_cell_writer(bounds, resolution):
    # every cell meets every code and the step counts 0 and max_steps
    # (2000), across the shifts
    nx, ny = resolution
    codes = np.array([0, 1, 2, 3], dtype=np.uint8)
    counts = np.array([0, 2000, 17, 512], dtype=np.int32)
    for a in range(4):
        for b in range(4):
            grid = RasterGrid(
                bounds=bounds, resolution=resolution,
                cells=np.resize(np.roll(codes, a), (ny, nx)),
                steps=np.resize(np.roll(counts, b), (ny, nx)), seed=0)
            assert raster_csv(grid).encode() == \
                raster_csv_reference(grid).encode()


def csv_writer_text(text):
    # what csv.writer writes for the rows csv.reader reads back from text:
    # the table writers' bytes when they went through csv.writer
    buf = io.StringIO()
    csv.writer(buf).writerows(csv.reader(io.StringIO(text)))
    return buf.getvalue()


def test_sweep_csv_round_trip():
    sg = sweep([(0.748491, 0.772301), (math.pi / 3, 2 * math.pi / 5)],
               samples_per_pair=5, max_steps=3000, seed=2)
    text = sweep_csv(sg)
    assert text.endswith("\r\n")
    assert text == csv_writer_text(text)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["theta1", "theta2", "eq26_margin",
                       "nonconvergent_found", "worst_seed"]
    for row, pair in zip(rows[1:], sg.pairs):
        assert float(row[0]) == pair.theta1
        assert float(row[1]) == pair.theta2
        assert float(row[2]) == pair.eq26_margin
        assert (row[3] == "true") == pair.nonconvergent_found
        assert int(row[4]) == pair.worst_seed


def test_trace_csv_round_trip():
    pts = [(0.1, -0.2), (1.0 / 3.0, 2.0 / 7.0), (-5e-200, 1e300)]
    text = trace_csv(pts + [(math.nan, -math.inf)])
    assert text.endswith("3,NaN,-Infinity\r\n")
    assert text == csv_writer_text(text)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["step", "x", "y"]
    for n, (x, y) in enumerate(pts):
        assert int(rows[1 + n][0]) == n
        assert float(rows[1 + n][1]) == x
        assert float(rows[1 + n][2]) == y


def test_perturbed_trace_csv_columns():
    spec = PerturbationSpec.from_certificate(FIG_CERT, 0.05)
    trace = run_perturbed(spec, FIG_CFG, (2.0, -1.0), 30, seed=11)
    text = perturbed_trace_csv(spec, FIG_CFG, trace)
    assert text == csv_writer_text(text)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["step", "x", "y", "pre_offset_norm",
                       "post_offset_norm", "V", "bound"]
    assert len(rows) == 1 + 31
    w2 = max(math.hypot(2.0 + 0.5, -1.0), math.hypot(2.0 - 0.5, -1.0))
    for n, row in enumerate(rows[1:]):
        x, y = float(row[1]), float(row[2])
        assert (x, y) == trace.points[n]
        assert float(row[5]) == v_global(spec, FIG_CFG, (x, y))
        assert float(row[6]) == kl_beta(spec, w2, float(n))
        if n < 30:
            assert float(row[3]) <= sigma(spec, FIG_CFG, (x, y)) * (1 + 1e-12)
        else:
            assert row[3] == "" and row[4] == ""


def test_certificate_json_round_trip():
    for result in (FIG_CERT, certify(ProblemConfig(0.748491, 0.772301)),
                   certify(ProblemConfig(0.7, math.pi / 2))):
        text = certificate_json(result)
        assert parse_certificate_json(text) == result


def test_certificate_json_golden():
    text = certificate_json(FIG_CERT)
    assert text == (
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
    bad = certify(ProblemConfig(0.748491, 0.772301))
    assert isinstance(bad, Infeasible)
    assert '"feasible": false' in certificate_json(bad)


def test_certificate_json_infinity_token():
    cert = certify(ProblemConfig(0.7, math.pi / 2))
    text = certificate_json(cert)
    assert '"alpha_max": Infinity' in text
    back = parse_certificate_json(text)
    assert back.alpha_max == math.inf


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_bytes(str(target), b"v2")
    assert target.read_bytes() == b"v2"
    with pytest.raises(TypeError):
        atomic_write_bytes(str(target), None)
    # failed write neither clobbers the target nor leaves temp litter
    assert target.read_bytes() == b"v2"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    # a new file gets 0o666 less the umask, as open() gives it, and an
    # existing file keeps its mode, not the temp file's 0o600
    old = os.umask(umask)
    try:
        new, plain, kept = (tmp_path / n for n in ("new", "plain", "kept"))
        atomic_write_bytes(str(new), b"v1")
        with open(plain, "wb"):
            pass
        kept.write_bytes(b"v0")
        os.chmod(kept, 0o640)
        atomic_write_text(str(kept), "v1")
    finally:
        os.umask(old)
    assert os.stat(new).st_mode & 0o777 == 0o666 & ~umask
    assert os.stat(new).st_mode == os.stat(plain).st_mode
    assert os.stat(kept).st_mode & 0o777 == 0o640
    assert kept.read_text() == "v1"
    assert sorted(os.listdir(tmp_path)) == ["kept", "new", "plain"]
