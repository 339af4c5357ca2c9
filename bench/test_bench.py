"""Self-tests of the benchmark: deterministic inputs, checks that catch bad
outputs, and a tracer whose spans account for the op.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

# common pins BLAS threads and the CPU as it loads, before numpy does
from common import _THREAD_VARS, GOLDEN, OpFailed, measure, use_source_tree

use_source_tree()

import pytest  # noqa: E402

import cli_session  # noqa: E402
import run  # noqa: E402
import design_explore  # noqa: E402
import sweep_dense  # noqa: E402
from spans import LAYER_NAMES, Tracer  # noqa: E402

WORKLOAD_MODULES = (sweep_dense, design_explore, cli_session)


@pytest.mark.parametrize("module", WORKLOAD_MODULES, ids=lambda m: m.__name__)
def test_same_seed_gives_byte_identical_inputs(module):
    first = json.dumps(module.make_inputs(7)).encode()
    assert json.dumps(module.make_inputs(7)).encode() == first
    assert json.dumps(module.make_inputs(8)).encode() != first


def test_design_explore_pool_is_stratified():
    pool = design_explore.make_inputs(3)
    block = pool[: design_explore.BLOCK]
    combos = {tuple(spec["options"].values()) for spec in block}
    assert len(combos) == design_explore.BLOCK
    assert sum("ri_ohm" in spec["catalog"] for spec in block) == design_explore.BLOCK // 2


def _perturb_first(run_op, perturb):
    """run_op whose first result is passed through perturb."""
    calls = []

    def run(spec):
        result = run_op(spec)
        calls.append(spec)
        return perturb(result) if len(calls) == 1 else result

    return run


def test_perturbed_s_value_is_a_failed_op():
    workload = sweep_dense.Workload(5, None)
    workload.setup()

    def perturb(result):
        net, swp, metrics, touchstone, csv = result
        (s11, s12), row2 = swp.s_matrices[0]
        s_matrices = (((s11 + 1e-9, s12), row2), *swp.s_matrices[1:])
        return net, dataclasses.replace(swp, s_matrices=s_matrices), metrics, touchstone, csv

    tally = measure(workload, 0.0, _perturb_first(workload.run_op, perturb))
    assert (tally.attempted, tally.failed) == (len(workload.cycle), 1)
    assert "dense reference" in tally.failures[0]


def test_unperturbed_sweeps_pass_the_dense_reference():
    workload = sweep_dense.Workload(5, None)
    workload.setup()
    tally = measure(workload, 0.0, workload.run_op)
    assert tally.failed == 0
    assert sum(tally.points) == len(workload.cycle) * sweep_dense.POINTS


def test_perturbed_stdout_line_is_a_failed_op(tmp_path):
    workload = cli_session.Workload(5, tmp_path / "session")
    workload.setup()

    def perturb(result):
        code, stdout, stderr = result
        lines = stdout.splitlines(keepends=True)
        lines[0] = lines[0].replace("e", "E", 1)
        return code, "".join(lines), stderr

    tally = measure(workload, 0.0, _perturb_first(workload.run_op, perturb))
    assert (tally.attempted, tally.failed) == (len(workload.cycle), 1)


def test_simulate_numbers_compare_within_tolerance():
    golden = (GOLDEN / "simulate.txt").read_text()
    key, _, value = golden.splitlines()[0].partition(" = ")
    close = golden.replace(value, repr(float(value) * (1 + 1e-12)), 1)
    cli_session.compare_stdout("simulate", close, golden)
    far = golden.replace(value, repr(float(value) * (1 + 1e-6)), 1)
    with pytest.raises(OpFailed):
        cli_session.compare_stdout("simulate", far, golden)
    with pytest.raises(OpFailed):
        cli_session.compare_stdout("verify", close, golden)


def test_rejections_repeat_exactly_for_a_seed():
    counts = []
    for _ in range(2):
        workload = design_explore.Workload(11, None)
        tally = measure(workload, 0.0, workload.run_op)
        assert tally.failed == 0
        counts.append((tally.attempted, tally.rejected))
    assert counts[0] == counts[1]
    assert 0 < counts[0][1] < counts[0][0]


def test_tracer_spans_cover_the_op_and_are_removed_afterwards():
    import dakit
    from dakit import mna

    original = mna.sweep
    workload = design_explore.Workload(2, None)
    workload.cycle = workload.cycle[:64]
    tracer = Tracer()
    tracer.install()
    try:
        assert dakit.sweep is mna.sweep is not original
        tally = measure(workload, 0.0, workload.run_op, tracer=tracer)
    finally:
        tracer.uninstall()
    assert dakit.sweep is mna.sweep is original
    summary = tracer.summary()
    layers = summary["layers"]
    assert set(layers) == set(LAYER_NAMES)
    self_ms = sum(entry["self_ms"] for entry in layers.values())
    assert self_ms + summary["unattributed_ms"] == pytest.approx(summary["op_ms"])
    assert summary["op_ms"] == pytest.approx(1e3 * tally.op_seconds)
    assert layers["design.synthesize_design"]["errors"] == tally.rejected
    assert layers["mna.sweep"]["calls"] == 64 - tally.rejected
    assert layers["linalg"]["calls"] > 0


def _threads_after(code: str) -> int:
    """OS threads of a fresh interpreter in bench/ that runs code, started
    without the BLAS thread variables and the CPU pin this process has."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    probe = code + "; import os; print(len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent, env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, range(os.cpu_count())),
                          capture_output=True, text=True, check=True, timeout=60)
    return int(done.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/<pid>/task")
def test_driver_runs_one_blas_thread():
    if _threads_after("import numpy") == 1:
        pytest.skip("OpenBLAS starts no worker threads on this host anyway")
    assert _threads_after("import run, numpy") == 1


def test_run_reports_incorrect_when_no_op_passes(monkeypatch, capsys):
    def reject(self, spec, result):
        raise OpFailed("rejected by the test")

    monkeypatch.setattr(sweep_dense.Workload, "check", reject)
    args = ["--workload", "sweep-dense", "--seed", "1", "--seconds", "0.1", "--trace"]
    for trace in ("0", "1"):
        assert run.main([*args, trace]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] > 0
        assert result["metrics"] == {}
