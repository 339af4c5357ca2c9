"""sweep-dense: dense linear sweeps of four fixed designs, in process.

Each op is build_network -> sweep (1001 points) -> extract_metrics ->
write_touchstone and write_csv into memory. mna.sweep is over 90% of op
time and its cost grows with node count, so this is where a faster solver
shows; synthesis and import are outside the ops.
"""

from __future__ import annotations

import hashlib
import io
import random

from dakit import cli, design, device, mna

from common import README_CATALOG, OpFailed
from refsolve import check_s

POINTS = 1001
F_START = 10e6
UPPER_EDGES_HZ = (12e9, 15e9, 18e9)
WARMUP_POINTS = 11
CHECKED_POINTS = 5

FR4 = {"er": 4.4, "h_mm": 1.6, "t_mm": 0.035}

# name -> (transistor, DesignOptions fields); node counts 17, 17, 23, 41
DESIGNS = {
    "gan1-match-drain": ("GAN-1", {"series_cap": "match-drain"}),
    "gan1-match-drain-ginzton": ("GAN-1", {"series_cap": "match-drain", "taper": "ginzton"}),
    "phemt1-lossy": ("PHEMT-1", {}),
    "gan1-match-drain-12": ("GAN-1", {"series_cap": "match-drain", "stages": 12}),
}


def make_inputs(seed: int) -> list[dict]:
    """The seed's op cycle: the four designs in seed order, each with an upper edge."""
    rng = random.Random(seed)
    names = list(DESIGNS)
    rng.shuffle(names)
    return [{"design": name, "f_stop": rng.choice(UPPER_EDGES_HZ)} for name in names]


class Workload:
    def __init__(self, seed: int, workdir) -> None:
        self.cycle = make_inputs(seed)
        self._check_rng = random.Random(seed + 1)
        self._digests: dict[str, str] = {}
        self.reports: dict = {}

    def setup(self) -> None:
        catalog = device.load_catalog(README_CATALOG, source="README")
        board = device.Substrate(**FR4)
        for name, (transistor, options) in DESIGNS.items():
            self.reports[name] = design.synthesize_design(
                catalog.get(transistor), board, design.DesignOptions(**options)
            )
        for spec in self.cycle:
            self._op(spec, WARMUP_POINTS)

    def run_op(self, spec):
        return self._op(spec, POINTS)

    def _op(self, spec, points: int):
        net = mna.build_network(self.reports[spec["design"]])
        swp = mna.sweep(net, F_START, spec["f_stop"], points)
        metrics = mna.extract_metrics(swp)
        touchstone = io.StringIO()
        cli.write_touchstone(swp, touchstone)
        csv = io.StringIO()
        cli.write_csv(swp, csv)
        return net, swp, metrics, touchstone.getvalue(), csv.getvalue()

    def check(self, spec, result) -> None:
        net, swp, metrics, touchstone, csv = result
        last = len(swp.frequencies) - 1
        picks = {0, last, *self._check_rng.sample(range(1, last), CHECKED_POINTS - 2)}
        check_s(net, swp, sorted(picks))
        rows = touchstone.splitlines()
        if len(rows) != 2 + len(swp.frequencies) or len(csv.splitlines()) != 1 + len(
            swp.frequencies
        ):
            raise OpFailed("Touchstone or CSV row count does not match the sweep")
        for i in picks:
            _check_touchstone_row(rows[2 + i], swp.frequencies[i], swp.s_matrices[i])
        # the same inputs must give the same bytes on every op
        digest = hashlib.sha256(repr(metrics).encode() + touchstone.encode() + csv.encode())
        known = self._digests.setdefault(spec["design"], digest.hexdigest())
        if known != digest.hexdigest():
            raise OpFailed(f"{spec['design']}: output bytes differ from the first op")

    def points(self, spec, result) -> int:
        return len(result[1].frequencies)

    def rejected(self, result) -> bool:
        return False


def _check_touchstone_row(row: str, f: float, s) -> None:
    fields = [float(x) for x in row.split()]
    (s11, s12), (s21, s22) = s
    want = [f]
    for v in (s11, s21, s12, s22):
        want += [v.real, v.imag]
    for got, exp in zip(fields, want, strict=True):
        if abs(got - exp) > 1e-9 * abs(exp):
            raise OpFailed(f"Touchstone row at {f:.6g} Hz does not match S")
