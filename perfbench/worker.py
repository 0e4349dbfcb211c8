"""Run one workload in this (fresh) interpreter and print its figures as JSON.

Started by ``run.py``; not meant to be run by hand.  The set-up is timed from
the first ``import epigame`` to the last parsed input.  The untraced pass
then replays the request list in whole passes until ``--seconds`` of request
time have gone by, with a single closed-loop client.  With ``--trace 1`` a
second pass, of exactly one sweep of the list, runs under the span wrappers.

Every time reported is scaled to a reference machine speed (see
:class:`Gauge`): the shared host this runs on changes speed by a quarter
and more over minutes, which would otherwise decide the figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing

PROBLEM_LIMIT = 5

REFERENCE_UNIT_S = 1e-3  # nominal time of one reference unit: the reference speed
REFERENCE_LOOP = 300  # iterations in a unit; about REFERENCE_UNIT_S on the tuning machine
REFERENCE_SHARE = 0.03  # reference work interleaved with measured work, as a share of it
SETUP_REFERENCE_S = 0.05  # nominal reference work on each side of the set-up
HALF = Fraction(1, 2)


def reference_unit() -> None:
    """A fixed piece of pure-Python work of the kinds epigame's own hot
    paths do: tuples, frozensets, dict updates and Fraction comparisons."""
    table: dict[tuple, int] = {}
    for i in range(REFERENCE_LOOP):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + len(frozenset(key))
        Fraction(i % 17, 1 + i % 5) > HALF


class Gauge:
    """How much slower than the reference speed the machine runs right now.

    Reference units run in short slices between measured calls, about
    ``REFERENCE_SHARE`` of the measured time, so they see the machine as the
    measured work saw it; their mean time over ``REFERENCE_UNIT_S`` is the
    slowdown.  Measured times divided by it are times at the reference
    speed.  The units run with the garbage collector paused, so the
    program's heap does not change their cost."""

    def __init__(self) -> None:
        self.owed = 0.0
        self.units = 0
        self.seconds = 0.0
        for _ in range(20):  # let the interpreter specialise the unit first
            reference_unit()

    def follow(self, seconds: float) -> None:
        """Run the reference work owed for ``seconds`` of measured time."""
        self.owed += REFERENCE_SHARE * seconds
        units = int(self.owed / REFERENCE_UNIT_S)
        if units:
            self.run(units)
            self.owed -= units * REFERENCE_UNIT_S

    def run(self, units: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        for _ in range(units):
            reference_unit()
        self.seconds += perf_counter() - start
        if enabled:
            gc.enable()
        self.units += units

    def slowdown(self) -> float:
        if not self.units:
            self.run(1)
        return self.seconds / self.units / REFERENCE_UNIT_S


def measure(requests, seconds: float, on_pass, tracer=None) -> tuple[list[float], list[float]]:
    """Replay the list, timing each request; returns the latencies scaled to
    the reference speed, and the slowdown of each pass.

    The loop always finishes the pass it is in, so every pass contributes
    the same mix of requests.  Each pass's results go to ``on_pass``, outside
    the timed calls.  With ``tracer``, runs exactly one pass."""
    latencies: list[float] = []
    slowdowns: list[float] = []
    elapsed = 0.0
    while True:
        results = []
        measured = []
        gauge = Gauge()
        for request in requests:
            if tracer is not None:
                tracer.request_id = len(latencies) + len(measured)
            start = perf_counter()
            try:
                result = request.call()
            except Exception:  # a crash is a failed request, not a failed run
                result = _Crash(traceback.format_exc(limit=4))
            measured.append(perf_counter() - start)
            gauge.follow(measured[-1])
            results.append(result)
        on_pass(results)
        slowdowns.append(gauge.slowdown())
        latencies += [latency / slowdowns[-1] for latency in measured]
        elapsed += sum(measured)
        if tracer is not None or elapsed >= seconds:
            return latencies, slowdowns


class _Crash:
    def __init__(self, text: str):
        self.text = text


class Verifier:
    """Checks every verdict of whole passes over one request list.

    A result equal to one this request already passed with is accepted
    without re-running the check, so long runs cost one check per distinct
    verdict and keep one pass of results in memory."""

    def __init__(self, requests):
        self.requests = requests
        self.passed: dict[int, object] = {}
        self.failures: list[str] = []

    def check(self, results) -> None:
        for index, (request, result) in enumerate(zip(self.requests, results)):
            if isinstance(result, _Crash):
                self.failures.append(f"{request.kind}: raised\n{result.text}")
                continue
            if index in self.passed and self.passed[index] == result:
                continue
            try:
                message = request.check(result)
            except Exception:
                message = "check raised\n" + traceback.format_exc(limit=4)
            if message is not None:
                self.failures.append(f"{request.kind}: {message}")
            else:
                self.passed.setdefault(index, result)


def latency_figures(latencies: list[float], pass_length: int) -> dict:
    """Throughput over the whole run.  The median and the tail are taken over
    the request list, of each request's mean latency over the passes, so that
    the machine's slower stretches are averaged in rather than deciding them,
    and the quantity measured does not change with the number of passes."""
    per_request = sorted(statistics.fmean(latencies[i::pass_length]) for i in range(pass_length))
    # the highest percentile with at least ten requests above it
    above = min(10, pass_length - 1)
    return {
        "req_per_s": len(latencies) / sum(latencies),
        "req_p50_ms": statistics.median(per_request) * 1e3,
        "req_tail_ms": per_request[pass_length - 1 - above] * 1e3,
        "tail_percentile": 100.0 * (pass_length - above) / pass_length,
        "samples": pass_length,
        "passes": len(latencies) // pass_length,
    }


def layer_metrics(tracer, workload, untraced, traced, naive_slowdown: float) -> dict[str, float]:
    """The per-layer figures.  ``naive_slowdown`` is the slowdown of the
    pass whose checks timed the naive references (the first), so that they
    compare with the untraced latencies at the reference speed."""
    spans = tracer.summary()

    def calls(name):
        return spans[name]["calls"]

    def self_s(*prefixes):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefixes))

    def total_s(name):
        return spans[name]["total_s"]

    counters = tracer.counters
    apply_calls = calls("operators.ConditionOperator.apply")
    belief_models = len(tracer.interpreted) + counters["modal.validity_models_checked"]
    iterate_s = naive_s = 0.0
    for index, latency in enumerate(untraced):
        ref = workload.requests[index % len(workload.requests)].ref
        if ref is not None:
            iterate_s += latency
            naive_s += workload.naive_seconds[ref]
    return {
        "conditions.models_calls": calls("conditions.models"),
        "conditions.models_s": spans["conditions.models"]["self_s"],
        "conditions.registry_builds": calls("conditions.ConditionRegistry.__init__"),
        "conditions.analyze_calls": calls("conditions.analyze"),
        "operators.apply_calls": apply_calls,
        "operators.apply_self_s": spans["operators.ConditionOperator.apply"]["self_s"],
        "operators.stages": counters["operators.stages"],
        "operators.monotone_pairs": counters["operators.monotone_pairs"],
        "operators.models_per_apply": (
            tracer.children_of("conditions.models", "operators.ConditionOperator.apply") / apply_calls
            if apply_calls
            else 0.0
        ),
        "operators.iterate_over_naive": iterate_s * naive_slowdown / naive_s if naive_s else 0.0,
        "games.restrictions_built": calls("games.Restriction.__init__"),
        "games.restriction_s": self_s("games.Restriction."),
        "games.game_eq_calls": calls("games.Game.__eq__"),
        "games.parse_s": total_s("games.parse_game"),
        "beliefs.models_built": calls("beliefs.BeliefModel.__init__"),
        "beliefs.game_of_event_calls": calls("beliefs.game_of_event"),
        "beliefs.self_s": self_s("beliefs."),
        "modal.interpret_calls": calls("modal.interpret") + calls("modal.interpret_so"),
        "modal.self_s": self_s("modal."),
        "modal.models_per_belief_model": (
            tracer.inside_layer("conditions.models", "modal") / belief_models
            if belief_models
            else 0.0
        ),
        "modal.validity_models_checked": counters["modal.validity_models_checked"],
        "oracles.enumerate_s": self_s("oracles."),
        "oracles.models_enumerated": counters["oracles.enumerate_belief_models.items"]
        + counters["oracles.sample_belief_models.items"],
        "proofs.check_proof_s": total_s("proofs.check_proof"),
        "proofs.lemma_register_s": total_s("proofs.LemmaRegistry.register"),
        "proofs.lemma_sweep_size": counters["proofs.lemma_sweep_size"],
        "proofs.parse_proof_s": total_s("proofs.parse_proof"),
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": self_s("cli."),
        "trace.overhead_ratio": latency_figures(traced, len(traced))["req_per_s"]
        / latency_figures(untraced, len(workload.requests))["req_per_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    gauge = Gauge()
    gauge.run(round(SETUP_REFERENCE_S / REFERENCE_UNIT_S))
    start = perf_counter()
    for module in tracing.MODULES:
        importlib.import_module(f"epigame.{module}")
    imported = perf_counter() - start
    import workloads  # the benchmark's own code is not part of set-up

    start = perf_counter()
    workload = workloads.BUILDERS[args.workload](args.seed, args.workdir / f"{args.workload}-{os.getpid()}")
    setup_s = imported + perf_counter() - start
    gauge.run(round(SETUP_REFERENCE_S / REFERENCE_UNIT_S))
    setup_s /= gauge.slowdown()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        report = run(args, workload)
    finally:
        workload.close()
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


def run(args, workload) -> dict:
    """The untraced pass, then (with ``--trace 1``) the traced one.

    ``failed`` counts requests whose verdict check failed; ``problems`` lists
    anything else that makes the figures untrustworthy, such as a tracing
    wrapper present during an untraced pass."""
    requests = workload.requests
    verifier = Verifier(requests)
    problems = tracing.untraced_problems()
    untraced, slowdowns = measure(requests, args.seconds, verifier.check)
    problems += tracing.untraced_problems()
    report = {"latency": latency_figures(untraced, len(requests)), "attempted": len(untraced)}
    report["latency"]["slowdown"] = statistics.median(slowdowns)
    if args.trace:
        tracer = tracing.Tracer()
        passes = []
        tracer.install()
        try:
            traced, _ = measure(requests, 0, passes.append, tracer)
        finally:
            tracer.uninstall()
        problems += tracing.untraced_problems()
        verifier.check(passes[0])
        report["attempted"] += len(traced)
        report["layers"] = layer_metrics(tracer, workload, untraced, traced, slowdowns[0])
        tracer.dump(args.workdir / f"spans-{args.workload}-seed{args.seed}.bin")
    for message in (problems + verifier.failures)[:PROBLEM_LIMIT]:
        print("FAILED " + message, file=sys.stderr)
    report.update(failed=len(verifier.failures), problems=problems)
    return report


if __name__ == "__main__":
    sys.exit(main())
