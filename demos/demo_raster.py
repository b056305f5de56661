#!/usr/bin/env python3
"""Render the basin-of-attraction raster for the reference configuration.

Every cell of a 200x200 grid over [-3,3]^2 is iterated until it lands in
a termination ball around one of the two intersection points; the result
is written as a PGM image (dark = first point, light = second).
"""
import math

import numpy as np

from drlines import ProblemConfig, rasterize, write_pgm

OUT = "basin.pgm"


def main() -> None:
    cfg = ProblemConfig(math.pi / 3, 2 * math.pi / 5)
    grid = rasterize(cfg, (-3, 3, -3, 3), (200, 200), seed=0)
    write_pgm(grid, OUT)
    cells = grid.cells
    total = cells.size
    for code, label in ((1, "first point"), (2, "second point"),
                        (3, "cycle"), (0, "budget")):
        n = int(np.count_nonzero(cells == code))
        if n:
            print(f"{label:>12}: {n:6d} cells ({100.0 * n / total:.1f}%)")
    print(f"mean steps to stop: {float(grid.steps.mean()):.1f}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
