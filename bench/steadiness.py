"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py

It runs every workload of BENCHMARK.json with seeds 1 to 10, one run at a
time. For every end-to-end metric, and its raw (unscaled) form, it prints
the median over the seeds and the quartile spread, (q3 - q1) / median as
statistics.quantiles gives them, next to the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

# not common.ROOT: importing common would pin this process, and so its
# runs, to one CPU before they count the CPUs
ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: failed ops\n{done.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in done.stdout.splitlines():
                if line.startswith("raw (unscaled) = "):
                    for name, value in json.loads(line.partition(" = ")[2]).items():
                        values.setdefault("raw " + name, []).append(value)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {name}: median {q2:.6g} spread {(q3 - q1) / q2:.4f} "
                  f"bound {bounds.get(name)}", flush=True)


if __name__ == "__main__":
    main()
