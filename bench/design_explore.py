"""design-explore: a design-space search over many small networks, in process.

Each op is load_catalog -> synthesize_design -> report_to_json ->
report_from_json -> build_network -> 3-point sweep up to 2*predicted_fc ->
extract_metrics. The networks are small, so per-network fixed costs show:
synthesis, the report codec, network build and sweep set-up. A candidate
that raises DakitError is rejected, not failed.

The pool is stratified so that two seeds give nearly the same cost mix:
each block of 32 candidates holds every option combination once, half the
devices lossy and every board twice, and each continuous parameter is
drawn as a Latin hypercube over the whole pool.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from dakit import DakitError, design, device, mna

from common import OpFailed
from refsolve import check_s

POOL = 2048
BLOCK = 32
WARMUP_OPS = BLOCK
SWEEP_POINTS = 3
T_MM = 0.035
ERS = (2.2, 3.0, 3.55, 4.4)
HEIGHTS_MM = (0.25, 0.5, 0.8, 1.6)
SERIES = (None, "match-drain")
TAPERS = (None, "ginzton")
PARASITICS = (False, True)
STAGES = (None, 3, 5, 8)
# name -> (low, high) for log-uniform draws
RANGES = {
    "cgs_F": (50e-15, 2e-12),
    "cds_ratio": (1 / 8, 1 / 2),
    "gm_S": (0.02, 0.2),
    "ri_ohm": (0.5, 5.0),
    "rds_ohm": (50.0, 500.0),
}


class Rejected:
    """Marker result of a candidate that the toolkit refused with DakitError."""

    def __init__(self, error: DakitError) -> None:
        self.error = error


def make_inputs(seed: int) -> list[dict]:
    """The seed's candidate pool, each with a one-entry catalog and its options."""
    rng = random.Random(seed)
    draws = {key: _latin_hypercube(rng, lo, hi) for key, (lo, hi) in RANGES.items()}
    combos = list(itertools.product(SERIES, TAPERS, PARASITICS, STAGES))
    boards = list(itertools.product(ERS, HEIGHTS_MM))
    pool = []
    for start in range(0, POOL, BLOCK):
        rng.shuffle(combos)
        lossy = [True, False] * (BLOCK // 2)
        rng.shuffle(lossy)
        block_boards = boards * (BLOCK // len(boards))
        rng.shuffle(block_boards)
        for k, ((series, taper, parasitics, stages), is_lossy, (er, h)) in enumerate(
            zip(combos, lossy, block_boards)
        ):
            i = start + k
            entry = {
                "name": f"DUT-{i}",
                "gm_S": draws["gm_S"][i],
                "cgs_F": draws["cgs_F"][i],
                "cds_F": draws["cgs_F"][i] * draws["cds_ratio"][i],
            }
            if is_lossy:
                entry["ri_ohm"] = draws["ri_ohm"][i]
                entry["rds_ohm"] = draws["rds_ohm"][i]
            pool.append(
                {
                    "catalog": json.dumps({"transistors": [entry]}),
                    "board": {"er": er, "h_mm": h, "t_mm": T_MM},
                    "options": {
                        "series_cap": series,
                        "taper": taper,
                        "include_microstrip_parasitics": parasitics,
                        "stages": stages,
                    },
                }
            )
    return pool


def _latin_hypercube(rng: random.Random, lo: float, hi: float) -> list[float]:
    strata = [(k + rng.random()) / POOL for k in range(POOL)]
    rng.shuffle(strata)
    return [lo * (hi / lo) ** u for u in strata]


class Workload:
    def __init__(self, seed: int, workdir) -> None:
        self.cycle = make_inputs(seed)
        self.report_roundtrip_unequal = 0

    def setup(self) -> None:
        for spec in self.cycle[:WARMUP_OPS]:
            self.run_op(spec)

    def run_op(self, spec):
        try:
            catalog = device.load_catalog(spec["catalog"])
            report = design.synthesize_design(
                catalog.transistors[0],
                device.Substrate(**spec["board"]),
                design.DesignOptions(**spec["options"]),
            )
            loaded = design.report_from_json(design.report_to_json(report))
            net = mna.build_network(loaded)
            fc = loaded.predicted_fc
            swp = mna.sweep(net, fc / 100.0, 2.0 * fc, SWEEP_POINTS)
            metrics = mna.extract_metrics(swp)
        except DakitError as exc:
            return Rejected(exc)
        return report, loaded, net, swp, metrics

    def check(self, spec, result) -> None:
        if isinstance(result, Rejected):
            return
        report, loaded, net, swp, metrics = result
        check_s(net, swp, range(len(swp.frequencies)))
        if mna.build_network(report) != net:
            raise OpFailed("the round-tripped report builds a different network")
        if not all(math.isfinite(v) for v in (metrics.low_freq_gain_db, metrics.worst_s11_db)):
            raise OpFailed(f"non-finite sweep metrics {metrics}")
        # known gap (ROADMAP item 3): some reports differ after the round
        # trip while their networks do not; counted so that it stays visible
        self.report_roundtrip_unequal += loaded != report

    def points(self, spec, result) -> int:
        return 0 if isinstance(result, Rejected) else len(result[3].frequencies)

    def rejected(self, result) -> bool:
        return isinstance(result, Rejected)
