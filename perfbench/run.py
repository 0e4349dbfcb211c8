"""The epigame benchmark: one workload, one seed, every metric by name.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload elim --seed 1 --seconds 10 --trace 0

Workloads are ``elim``, ``belief`` and ``cli`` (see ``workloads.py``).  Each
runs in a fresh interpreter: ``worker.py`` imports the program from ``src/``,
builds the seeded inputs, replays them with one closed-loop client, and
checks every verdict.  Set-up is measured in that process and in
``SETUP_SAMPLES - 1`` more that stop after set-up, half of them started
before it and half after, and reported as the median.  Times are scaled
to a reference machine speed, measured alongside (``worker.Gauge``).  With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced pass
instead.  Scratch files and span dumps go to
``.bench_build/perfbench`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("elim", "belief", "cli")
SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s, however its workers behave


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report; a
    worker still running at ``deadline`` is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"  # set iteration order is part of the input
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        *extra,
    ]
    timeout = max(deadline - time.monotonic(), 1)
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "epigame" / "__init__.py").is_file():
        return fail(f"no epigame sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        # set-up samples on both sides of the measured run, so that they
        # span the same stretch of the machine's speed as the run does
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [child(args, deadline, "--setup-only")["setup_s"] for _ in range(extra // 2)]
        report = child(args, deadline)
        setups += [child(args, deadline, "--setup-only")["setup_s"] for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        # per-process scratch directories of workers that did not finish
        for stale in WORKDIR.glob(f"{args.workload}-*"):
            shutil.rmtree(stale, ignore_errors=True)
    setups.append(report["setup_s"])

    latency = report["latency"]
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        values = report["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "req_per_s": latency["req_per_s"],
            "req_p50_ms": latency["req_p50_ms"],
            "req_tail_ms": latency["req_tail_ms"],
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, {failed} failed "
          f"(fail_ratio {failed / attempted:.6f})")
    print(f"p50 and tail: over the {latency['samples']} requests of the list, each the mean of "
          f"{latency['passes']} untraced passes; tail percentile p{latency['tail_percentile']:.2f}")
    print(f"times at the reference speed; the machine ran {latency['slowdown']:.4f}x slower than it "
          f"(median over the passes)")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")
    correct = failed == 0 and not report["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
