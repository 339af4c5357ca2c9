"""Pieces shared by the workloads: paths, the timed loop and statistics.

Every workload is a closed loop with one caller: the next op starts only
after the previous one and its output check have finished. The loop runs
whole cycles of the seed's op list, so every run sees the same mix of ops
whatever its length.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS threads for the driver and every child. The networks are at most
# 41 nodes, where a second BLAS thread only adds hand-off cost.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# CPUs this process may use, counted before it pins itself to one
NPROC = len(os.sched_getaffinity(0))


def _pin() -> None:
    """Pin BLAS threads and the CPU for this process and its children.

    It runs when this module is imported, which every entry point does
    before anything loads numpy: OpenBLAS reads its thread count once, as
    it loads. One CPU: the calibration kernel then measures the CPU the
    ops run on, children included, and with one caller and at most one
    child at a time nothing needs a second CPU.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS threads were pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


_pin()

from calibrate import IN_PROCESS  # noqa: E402  (loads numpy, so after the pin)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden"
# an op is followed by a calibration once this much time has passed
CALIBRATE_EVERY_S = 0.05

# The catalog from the README, read through the public loader.
README_CATALOG = json.dumps(
    {
        "transistors": [
            {"name": "GAN-1", "gm_S": 0.05, "cgs_F": 1.79e-12, "cds_F": 2.983e-13},
            {
                "name": "PHEMT-1",
                "gm_S": 0.08,
                "cgs_F": 1.4e-13,
                "cds_F": 5e-14,
                "ri_ohm": 1.0,
                "rds_ohm": 200.0,
                "reference": "pHEMT",
            },
        ]
    }
)


def use_source_tree() -> None:
    """Make `import dakit` load the checkout's sources, here and in children."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")


class OpFailed(Exception):
    """An op's output failed its check."""


@dataclass
class Tally:
    """What one measured pass did, with each op's latencies kept by its
    position in the cycle.

    Each latency is kept raw and scaled to the nominal host speed (see
    calibrate.py). Every figure rests on medians: each position's latency
    is its median over the pass's repetitions, throughput is the cycle's
    ops over the sum of those medians, and percentiles are taken over the
    positions' medians.
    """

    scaled: list  # host-speed-scaled latencies in seconds, per cycle position
    raw: list  # the same latencies as measured
    points: list  # frequency points swept by the op at each position
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    failures: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # calibration kernel times

    @property
    def ops(self) -> int:
        return sum(len(s) for s in self.raw)

    @property
    def complete(self) -> bool:
        """Every op of the cycle passed at least once, so the figures cover it all."""
        return all(self.raw)

    @property
    def op_seconds(self) -> float:
        return math.fsum(math.fsum(s) for s in self.raw)

    def figures(self, samples) -> dict:
        """ops_per_s, points_per_s and op_ms_p50/p90 from per-position samples
        of a complete pass."""
        medians = [statistics.median(s) for s in samples]
        cycle_s = math.fsum(medians)
        done = sum(self.points)
        ordered = sorted(medians)
        p90 = ordered[math.ceil(0.9 * len(ordered)) - 1]
        return {
            "ops_per_s": len(medians) / cycle_s,
            "points_per_s": done / cycle_s,
            "op_ms_p50": 1e3 * statistics.median(ordered),
            "op_ms_p90": 1e3 * p90,
        }

    def _record(self, pending: list, calibration, before: float) -> float:
        """Scale pending (position, seconds) pairs by the kernel time around them."""
        kernel, nominal = calibration
        after = kernel()
        self.kernel_s.append(after)
        scale = nominal / (0.5 * (before + after))
        for position, elapsed in pending:
            self.raw[position].append(elapsed)
            self.scaled[position].append(elapsed * scale)
        pending.clear()
        return after


def measure(workload, seconds: float, run_op, calibration=IN_PROCESS, tracer=None) -> Tally:
    """Run whole cycles of `workload.cycle` until `seconds` of wall time pass.

    Only `run_op` is timed; the output check and the calibration kernel run
    after the clock stops; calibration is a (kernel, nominal seconds) pair
    from calibrate.py. An op fails if it raises or its check raises
    OpFailed; the loop goes on. With a tracer, each op is recorded as an
    "op" span with its own id.
    """
    size = len(workload.cycle)
    tally = Tally(scaled=[[] for _ in range(size)], raw=[[] for _ in range(size)],
                  points=[0] * size)
    pending: list = []
    before = calibration[0]()
    calibrate_at = time.perf_counter() + CALIBRATE_EVERY_S
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        for position, spec in enumerate(workload.cycle):
            tally.attempted += 1
            op_id += 1
            try:
                if tracer is None:
                    start = time.perf_counter()
                    result = run_op(spec)
                    elapsed = time.perf_counter() - start
                else:
                    result, elapsed = tracer.op(op_id, run_op, spec)
                workload.check(spec, result)
            except Exception as exc:  # any op failure is counted, not fatal
                tally.failed += 1
                if len(tally.failures) < 5:
                    tally.failures.append(f"{spec!r}: {exc!r}")
                continue
            pending.append((position, elapsed))
            tally.points[position] = workload.points(spec, result)
            tally.rejected += workload.rejected(result)
            if time.perf_counter() >= calibrate_at:
                before = tally._record(pending, calibration, before)
                calibrate_at = time.perf_counter() + CALIBRATE_EVERY_S
        if time.perf_counter() >= deadline:
            tally._record(pending, calibration, before)
            return tally
