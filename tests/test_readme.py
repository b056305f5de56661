"""README.md names every public name of ``drlines`` and none of those
that moved to ``geometry_oracle`` or were dropped."""
import dataclasses
import pathlib
import re
import types

import drlines
from drlines import dr, geometry, lyapunov

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
    encoding="utf-8")


def named(name):
    return re.search(rf"\b{name}\b", README) is not None


def test_readme_names_every_public_name():
    public = [name for name, value in vars(drlines).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert len(public) > 40 and [n for n in public if not named(n)] == []


def test_dropped_names_are_gone():
    for name in ("Line", "project", "reflect", "distance_to_line",
                 "classify_region", "dr_two_lines_compose",
                 "rotation_matrix", "v_min_diagnostic"):
        assert not named(name), name
        assert not any(hasattr(m, name)
                       for m in (drlines, dr, geometry, lyapunov)), name
    assert [f.name for f in dataclasses.fields(drlines.ProblemConfig)] == [
        "theta1", "theta2", "p1", "p2"]
