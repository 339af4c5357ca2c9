"""cli-session: one `python -m dakit.cli ...` child per op, as a user runs it.

The seed permutes the README session: bandwidth, screen, design --out,
taper, simulate (401 points, --out, --csv) and verify --table1. Most of
each op is interpreter start and `import dakit`, so import work shows
here while a faster sweep barely moves it. Children run one at a time,
with PYTHONPATH pointing at the checkout's sources because the entry
point is not installed.

The traced run replays the same argument vectors in process through
cli.run, since a child's layers cannot be timed from outside.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import shutil
import subprocess
import sys

from calibrate import CHILD
from common import GOLDEN, README_CATALOG, OpFailed

# name -> argument vector; the name is also the golden file's stem
ARGVS = {
    "bandwidth": ["bandwidth", "--cgs", "1.79e-12", "--cds", "2.98e-13"],
    "screen": ["screen", "--catalog", "catalog.json", "--target-fc", "10e9", "--allow-series"],
    "design": [
        "design", "--catalog", "catalog.json", "--transistor", "GAN-1",
        "--er", "4.4", "--h", "1.6", "--t", "0.035", "--series", "match-drain",
        "--out", "design.json",
    ],
    "taper": ["taper", "--n", "4"],
    "simulate": [
        "simulate", "--design", "design.json", "--fstart", "1e7", "--fstop", "15e9",
        "--points", "401", "--out", "design.s2p", "--csv", "design.csv",
    ],
    "verify": ["verify", "--table1"],
}
SIMULATE_POINTS = 401
# simulate's numbers may move in the last printed digits under a changed
# solver; every other output is compared byte for byte
NUMERIC_REL_TOL = 1e-8
CHILD_TIMEOUT_S = 60


def make_inputs(seed: int) -> list[str]:
    """The seed's op cycle: the session's commands in seed order."""
    names = list(ARGVS)
    random.Random(seed).shuffle(names)
    return names


def run_child(argv: list[str], cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dakit.cli", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def prepare(workdir) -> None:
    """Write the session's catalog into a fresh working directory."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "catalog.json").write_text(README_CATALOG)


class Workload:
    # the work happens in children: their peak RSS, and the child kernel
    RSS_OF = resource.RUSAGE_CHILDREN
    CALIBRATION = CHILD

    def __init__(self, seed: int, workdir) -> None:
        self.cycle = make_inputs(seed)
        self.workdir = workdir
        self.goldens = {name: (GOLDEN / f"{name}.txt").read_text() for name in ARGVS}

    def setup(self) -> None:
        prepare(self.workdir)
        # simulate reads the report that design writes
        self.check("design", self.run_op("design"))

    def run_op(self, name: str):
        done = run_child(ARGVS[name], self.workdir)
        return done.returncode, done.stdout, done.stderr

    def run_in_process(self, name: str):
        """The same op replayed through cli.run in this process."""
        from dakit import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(ARGVS[name])
        finally:
            os.chdir(cwd)
        return code, out.getvalue(), err.getvalue()

    def check(self, name: str, result) -> None:
        code, stdout, stderr = result
        if code != 0 or stderr:
            raise OpFailed(f"{name}: exit {code}, stderr {stderr!r}")
        compare_stdout(name, stdout, self.goldens[name])

    def points(self, name: str, result) -> int:
        return SIMULATE_POINTS if name == "simulate" else 0

    def rejected(self, result) -> bool:
        return False


def compare_stdout(name: str, got: str, golden: str) -> None:
    """Raise OpFailed unless stdout matches its golden.

    Byte-exact, except that simulate's `name = number` lines compare the
    number within NUMERIC_REL_TOL.
    """
    if got == golden:
        return
    got_lines, want_lines = got.splitlines(), golden.splitlines()
    if name != "simulate" or len(got_lines) != len(want_lines) or not got.endswith("\n"):
        raise OpFailed(f"{name}: stdout differs from its golden")
    for g, w in zip(got_lines, want_lines):
        if g == w:
            continue
        g_key, _, g_val = g.partition(" = ")
        w_key, _, w_val = w.partition(" = ")
        try:
            close = g_key == w_key and math.isclose(
                float(g_val), float(w_val), rel_tol=NUMERIC_REL_TOL
            )
        except ValueError:
            close = False
        if not close:
            raise OpFailed(f"{name}: stdout line {g!r} differs from golden {w!r}")
