"""Run every workload over several seeds and summarize the figures.

Usage, from the root of the repository::

    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/baseline.json

For each workload declared in ``BENCHMARK.json`` this makes,
at its ``run_seconds``, one ``--trace 0`` run per seed and one
``--trace 1`` run on the first seed.  It prints, per end-to-end metric, the
median, the quartiles and the spread (interquartile distance as a share of
the median) next to the metric's bound in ``BENCHMARK.json``, and writes all
of it, with the per-layer figures, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stdout}\n{done.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for name, metric in run(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            line = f"{workload:7s} {name:12s} median {median:12.4f}  spread {spread:.4f}  bound {bounds[name]}"
            print(line, flush=True)
        layers = run(workload, args.seeds[0], seconds, 1)["metrics"]
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: metric["value"] for name, metric in layers.items()},
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
