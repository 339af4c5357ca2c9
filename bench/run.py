"""dakit benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-dense, design-explore, cli-session (see bench/NOTES.md).
The seed makes the inputs; the run measures whole cycles of ops for about
S seconds, checks every op's output outside the timed region, and prints
each metric as `name = value unit`, then the environment, then one JSON
line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Exit status: 0 after printing a result, 1 when set-up fails, as it does
in a checkout without dakit's sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# common pins BLAS threads and the CPU as it loads, before numpy does
from common import BLAS_THREADS, NPROC, OUT, ROOT, measure, use_source_tree
from calibrate import CHILD, IN_PROCESS

WORKLOADS = {
    "sweep-dense": "sweep_dense",
    "design-explore": "design_explore",
    "cli-session": "cli_session",
}
SETUP_PROBES = 7
STARTUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def main(argv=None) -> int:
    args = _parse(argv)
    use_source_tree()
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = module.Workload(args.seed, workdir)
        workload.setup()
        if args.setup_only:
            return 0
        if args.trace:
            tallies, metrics = _traced_run(args, workload)
        else:
            tallies, metrics = _timed_run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for failure in tally.failures:
            print(f"failed op: {failure}")
    if not metrics:
        print("no metrics: an op of the cycle never passed its check")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted} ops)")
    extra = getattr(workload, "report_roundtrip_unequal", None)
    if extra is not None:
        print(f"report_roundtrip_unequal = {extra} (reports that differ after a round trip)")
    env = _environment(args)
    print("environment = " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"environment": env, **result}, indent=1))
    print(json.dumps(result))
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(description="dakit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # one set-up in a fresh process, timed by the parent run for setup_s
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _timed_run(args, workload):
    calibration = getattr(workload, "CALIBRATION", IN_PROCESS)
    tally = measure(workload, args.seconds, workload.run_op, calibration)
    if not tally.complete:
        return [tally], {}
    usage = resource.getrusage(getattr(workload, "RSS_OF", resource.RUSAGE_SELF))
    raw_setup, scaled_setup = zip(*(_setup_probe(args) for _ in range(SETUP_PROBES)))
    scaled = tally.figures(tally.scaled)
    raw = tally.figures(tally.raw)
    raw["setup_s"] = statistics.median(raw_setup)
    print(f"ops = {tally.ops} over {len(workload.cycle)} distinct ops; setup_s is the "
          f"median of {SETUP_PROBES} set-ups; calibration kernel median "
          f"{1e3 * statistics.median(tally.kernel_s):.4g} ms against {1e3 * calibration[1]:g} ms")
    print("raw (unscaled) = " + json.dumps(raw))
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms_p50": (scaled["op_ms_p50"], "ms"),
        "op_ms_p90": (scaled["op_ms_p90"], "ms"),
        "points_per_s": (scaled["points_per_s"], "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    return [tally], metrics


def _setup_probe(args) -> tuple[float, float]:
    """Seconds from starting a fresh driver to the end of its set-up, raw
    and scaled by the calibration kernel around it."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    kernel, nominal = CHILD
    before = kernel()
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    return elapsed, elapsed * nominal / (0.5 * (before + kernel()))


def _traced_run(args, workload):
    from spans import LAYER_NAMES, Tracer

    # cli-session replays its commands in process; warm that path first
    run_op = getattr(workload, "run_in_process", None)
    if run_op is None:
        run_op = workload.run_op
    else:
        for spec in workload.cycle:
            workload.check(spec, run_op(spec))
    half = args.seconds / 2.0
    plain = measure(workload, half, run_op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, half, run_op, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    if not (plain.complete and traced.complete):
        return [plain, traced], {}
    summary = tracer.summary()
    op_ms = summary["op_ms"]
    metrics = {}
    for name in LAYER_NAMES:
        layer = summary["layers"][name]
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_ms"] = (layer["self_ms"], "ms")
        metrics[f"{name}.errors"] = (layer["errors"], "count")
        metrics[f"{name}.share"] = (layer["self_ms"] / op_ms, "ratio")
    interpreter_ms, import_ms = _startup_probes()
    metrics.update(
        {
            "cli.interpreter_ms": (interpreter_ms, "ms"),
            "cli.import_ms": (import_ms, "ms"),
            "mna.us_per_point": (summary["sweep_us_per_point"], "us"),
            "mna.nodes_mean": (summary["nodes_mean"], "count"),
            "rejected_ratio": (
                (plain.rejected + traced.rejected) / (plain.attempted + traced.attempted),
                "ratio",
            ),
            "op_ms": (op_ms, "ms"),
            "unattributed_ms": (summary["unattributed_ms"], "ms"),
            "unattributed_share": (summary["unattributed_ms"] / op_ms, "ratio"),
            "trace_overhead_ratio": (
                plain.figures(plain.scaled)["ops_per_s"]
                / traced.figures(traced.scaled)["ops_per_s"]
                - 1.0,
                "ratio",
            ),
        }
    )
    return [plain, traced], metrics


def _startup_probes() -> tuple[float, float]:
    """Median ms of `python -c pass`, and of `import dakit` beyond that."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(STARTUP_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=PROBE_TIMEOUT_S)
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    interpreter = median_ms("pass")
    return interpreter, median_ms("import dakit") - interpreter


def _environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
