"""The mutant list stays live: a refactor that moves a mutant's text fails
here instead of leaving the mutant inert (the harness is ``mutants.py``).
A harness stopped by SIGTERM leaves no copy and no suite behind."""
import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mutants import KILLED, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_parses(mutant):
    text = (ROOT / "src" / "drlines" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    ast.parse(text.replace(mutant.old, mutant.new))
    assert mutant.old != mutant.new and mutant.mark.strip()
    assert [m.name for m in MUTANTS].count(mutant.name) == 1
    # the control, first, edits a comment and must survive
    assert MUTANTS[0].name == "control" and MUTANTS[0].mark != KILLED


def in_copies(tmp):
    # the processes whose working directory lies in a harness copy under tmp
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            cwd = os.readlink(proc / "cwd")
        except OSError:
            continue
        if cwd.startswith(str(tmp / "drlines-mutant-")):
            found.append(proc.name)
    return found


def test_a_stopped_harness_leaves_no_copy_and_no_suite(tmp_path):
    # the harness with only the control, its temporary directory in
    # tmp_path, gets SIGTERM once a suite runs in the control's copy: it
    # exits as SystemExit(128 + SIGTERM), with the copy removed and no
    # process left in it
    harness = subprocess.Popen(
        [sys.executable, "-c", "import sys, mutants; "
         "mutants.MUTANTS = mutants.MUTANTS[:1]; sys.exit(mutants.main())"],
        cwd=Path(__file__).parent, env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not in_copies(tmp_path):
            assert harness.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        harness.send_signal(signal.SIGTERM)
        assert harness.wait(timeout=60.0) == 128 + signal.SIGTERM
    finally:
        harness.kill()
    assert not list(tmp_path.glob("drlines-mutant-*"))
    # a killed process may take a moment to go
    deadline = time.monotonic() + 5.0
    while in_copies(tmp_path):
        assert time.monotonic() < deadline, in_copies(tmp_path)
        time.sleep(0.02)
