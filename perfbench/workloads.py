"""The three workloads: seeded request lists with a verdict check per request.

A workload is built once per process (that is the timed set-up: inputs are
generated in code and parsed by the program's own parsers) and then replayed
in whole passes by a single closed-loop client.  Each :class:`Request` pairs
one call into a public epigame function with a check of its verdict; checks
run after the timed loop, against the naive oracles wherever one exists.

Per-pass composition is fixed and the seed only changes contents (payoffs,
strategy order, sampled models, random seeds, which proof line is broken),
so passes from different seeds do comparable work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Timed calls go through module attributes (operators.iterate, not a local
# name bound at import), so that run-time tracing wrappers see them.
from epigame import cli, modal, operators
from epigame.beliefs import format_model, parse_model
from epigame.games import format_game, parse_game
from epigame.modal import Rat, parse_nu
from epigame.oracles import (
    bundled_games,
    bundled_proof,
    enumerate_belief_models,
    fig2,
    naive_common_belief,
    naive_eliminate,
    sample_belief_models,
)

from gen import guess_game_text, random_game_text, rng_for

CONDITIONS = ("gsd", "gbr", "lsd")


@dataclass
class Request:
    """One verdict a user asks for.  ``check`` returns an error message, or
    None when the result is right; ``ref`` keys the naive reference time of
    an elimination request."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    ref: tuple | None = None


@dataclass
class Workload:
    requests: list[Request]
    naive_seconds: dict[tuple, float] = field(default_factory=dict)
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# elim: the operator, condition and restriction layers

# Long chains: guess-2/3 games, where iterate is far slower than the naive
# loop; rescaled copies of each, so that requests of equal work come in
# groups.  Short chains over wide contexts: small random games, where
# iterate is close to the naive loop; they also carry the monotonicity
# sampling.  Random requests stay cheaper than the median request, so the
# median falls inside the 24 similar requests on the 2x8 and 3x4 guess
# games and the tail inside the four lsd requests on the 2x12 ones, whose
# work the seed does not change.
GUESS_SHAPES = ((2, 8),) * 4 + ((3, 4),) * 4 + ((2, 10), (2, 12), (3, 5), (3, 6)) * 2
RANDOM_SHAPES = ((4, 4), (5, 4), (5, 5), (3, 3, 2), (3, 3, 3), (4, 3, 3))
MONOTONE_SAMPLES = 6


def build_elim(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "elim")
    texts = [guess_game_text(n, k, rng) for n, k in GUESS_SHAPES]
    texts += [random_game_text(shape, rng) for shape in RANDOM_SHAPES]
    games = [parse_game(text) for text in texts]
    workload = Workload([])
    naive: dict[tuple, Any] = {}

    def reference(index: int, condition: str):
        key = (index, condition)
        if key not in naive:
            start = perf_counter()
            naive[key] = naive_eliminate(games[index], condition)
            workload.naive_seconds[key] = perf_counter() - start
        return naive[key]

    def check_outcome(index: int, condition: str):
        def check(trace) -> str | None:
            if trace.stages[-1] != trace.stages[-2] or trace.closure_ordinal != len(trace.stages) - 2:
                return "trace does not end in a repeated stage"
            if trace.outcome != reference(index, condition):
                return f"outcome {trace.outcome} differs from naive elimination"
            return None

        return check

    def check_monotonicity(index: int, condition: str):
        def check(report) -> str | None:
            if report.monotone:
                if report.pairs_checked != MONOTONE_SAMPLES:
                    return f"checked {report.pairs_checked} pairs, not {MONOTONE_SAMPLES}"
                return None
            if condition != "lsd":
                return f"positive condition {condition} reported non-monotone"
            small, large = report.witness
            fresh = operators.condition_operator(games[index], condition)
            if not small.leq(large) or fresh.apply(small).leq(fresh.apply(large)):
                return "monotonicity witness does not reproduce"
            return None

        return check

    requests = []
    for index, game in enumerate(games):
        if index >= len(GUESS_SHAPES):
            condition = CONDITIONS[index % 3]
            requests.append(
                Request(
                    f"check-monotone-{condition}",
                    lambda g=game, c=condition, s=rng.randrange(1 << 30): operators.check_monotone(
                        operators.condition_operator(g, c), samples=MONOTONE_SAMPLES, seed=s
                    ),
                    check_monotonicity(index, condition),
                )
            )
        for condition in CONDITIONS:
            requests.append(
                Request(
                    f"iterate-{condition}",
                    lambda g=game, c=condition: operators.iterate(operators.condition_operator(g, c)),
                    check_outcome(index, condition),
                    ref=(index, condition),
                )
            )
        requests.append(
            Request(
                "iterate-contracted-lsd",
                lambda g=game: operators.iterate(
                    operators.ContractedOperator(operators.condition_operator(g, "lsd"))
                ),
                check_outcome(index, "lsd"),
            )
        )
    rng.shuffle(requests)
    workload.requests = requests
    return workload


# ---------------------------------------------------------------------------
# belief: the modal and beliefs layers, on tiny contexts

BODIES = ("rat(lsd)", "rat(gbr)", "not rat(gsd)")
# Many small games rather than a few large samples: the cost of a model
# depends on its game, so this keeps seeds comparable.
SQUARE_GAMES = 3
ENUMERATED_PER_GAME = 100
WIDE_GAMES = 7
SAMPLED_PER_SIZE = 12
SAMPLE_DRAWS = 400  # at most; the sampler draws the state count uniformly from 1..K


def build_belief(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "belief")
    square = [parse_game(random_game_text((2, 2), rng, high=3)) for _ in range(SQUARE_GAMES)]
    wide = [fig2()] + [parse_game(random_game_text((3, 3), rng, high=3)) for _ in range(WIDE_GAMES)]
    models = []
    for game in square:
        everything = list(enumerate_belief_models(game, 2))
        models += rng.sample(everything, ENUMERATED_PER_GAME)
    for game in wide:
        for states in (3, 4):
            # keep the models of exactly ``states`` states, so that every seed
            # has as many of each size (the slowest ones decide the tail)
            drawn = sample_belief_models(game, SAMPLE_DRAWS, states, rng.randrange(1 << 30))
            sized = list(islice((model for model in drawn if len(model.states) == states), SAMPLED_PER_SIZE))
            if len(sized) < SAMPLED_PER_SIZE:
                raise ValueError(f"fewer than {SAMPLED_PER_SIZE} models of {states} states in {SAMPLE_DRAWS} draws")
            models += sized
    rng.shuffle(models)

    bodies = [parse_nu(text) for text in BODIES]
    common = [parse_nu(f"CB {text}") for text in BODIES]
    second_order = {
        (condition, player): parse_nu(f"forall X . [{player + 1}] X -> O({condition},{player + 1}) X")
        for condition in ("gbr", "gsd")
        for player in (0, 1)
    }

    def evaluate(model):
        first = [modal.interpret(model, f) for f in bodies + common]
        second = {key: modal.interpret_so(model, f) for key, f in second_order.items()}
        return first, second

    def check(model):
        def verdict(result) -> str | None:
            first, second = result
            held, believed = first[: len(bodies)], first[len(bodies) :]
            for text, event, common_event in zip(BODIES, held, believed):
                if common_event != naive_common_belief(model, event):
                    return f"CB {text} differs from naive common belief"
            for (condition, player), event in second.items():
                if event != modal.interpret(model, Rat(condition, player)):
                    return f"second-order rat({condition}, {player + 1}) differs from primitive"
            return None

        return verdict

    return Workload(
        [Request(f"battery-{len(m.states)}-states", lambda m=m: evaluate(m), check(m)) for m in models]
    )


# ---------------------------------------------------------------------------
# cli: an in-process session of cli.main over bundled and generated files

THEOREMS = (
    "rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X",
    "rat(gsd) and CB rat(gsd) -> nu X . O(gsd) X",
    "rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X",
)
# Models checked by --exhaustive 2 on fig1_left, fig1_right and fig2.
EXHAUSTIVE_COUNTS = (4_112, 4_112, 9_240)
SQUARE_CLI_GAMES = ("random-2x2a", "random-2x2b")
# Every game refutes each of these with at most two states: at a state with
# empty possibility sets rat(gbr) and rat(gsd) fail (no context profile) and
# rat(lsd) holds vacuously; box rat(gbr) fails where only such a state is
# considered possible.
REFUTABLE = (
    "rat(gbr)",
    "CB rat(gbr) -> rat(gbr)",
    "not rat(lsd)",
    "rat(gsd) and CB rat(gsd)",
    "box rat(gbr)",
)
RANDOM_SAMPLES = 400
CONDITION_FILE = (
    "condition weak: forall y in C . exists z in C . o >= y @ z\n"
    "condition strict: exists z in C . forall y . o > y @ z\n"
    "condition open: exists z . o >= y @ z\n"
    "condition focal: exists z in C . C(o) and o >= o @ z\n"
)
CONDITION_FLAGS = {
    "weak": {"closed": True, "positive": False, "context_safe": True},
    "strict": {"closed": True, "positive": True, "context_safe": True},
    "open": {"closed": False, "positive": True, "context_safe": True},
    "focal": {"closed": True, "positive": True, "context_safe": False},
}
BUILTIN_ANALYSIS = (
    "lsd: closed=yes positive=no context_safe=yes\n"
    "gsd: closed=yes positive=yes context_safe=yes\n"
    "gbr: closed=yes positive=yes context_safe=yes\n"
)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One ``epigame`` invocation in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _broken_proofs(rng: random.Random) -> list[tuple[str, str, int]]:
    """Seeded one-line corruptions of the bundled proofs that the kernel
    must reject, with the line it must reject: (name, text, line)."""
    main, imp = bundled_proof("THM-MAIN"), bundled_proof("THM-IMP")

    def edit(text: str, number: int, old: str, new: str) -> str:
        lines = text.splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(f"{number}. "))
        if old not in lines[index]:
            raise ValueError(f"line {number} of the bundled proof has no {old!r}")
        lines[index] = lines[index].replace(old, new)
        return "\n".join(lines) + "\n"

    def swap_mp(text: str) -> tuple[str, int]:
        # "mp j k" needs line k to be "line j -> this"; swapped, it cannot be
        number, (j, k) = rng.choice([(4, (1, 3)), (5, (2, 4)), (8, (6, 7))])
        return edit(text, number, f"mp {j} {k}", f"mp {k} {j}"), number

    def unsound_ratdis(text: str) -> tuple[str, int]:
        # ratDis needs a positive condition; lsd is not
        text = edit(text, 1, "1. rat(gbr) ->", "1. rat(lsd) ->")
        return edit(text, 1, "-> O(gbr) (", "-> O(lsd) ("), 1

    def wrong_rule(text: str) -> tuple[str, int]:
        # a taut line is not an instance of ratDis
        number = rng.choice((3, 7))
        return edit(text, number, "; taut", "; ratDis"), number

    def forward_reference(text: str) -> tuple[str, int]:
        return edit(text, 8, "mp 6 7", f"mp 6 {rng.randint(8, 12)}"), 8

    def wrong_induction(text: str) -> tuple[str, int]:
        return edit(text, 6, "nuInd 5", f"nuInd {rng.randint(1, 4)}"), 6

    def wrong_lemma(text: str) -> tuple[str, int]:
        return edit(text, 9, "link gbr_implies_lsd", "link gbr_implies_gsd"), 9

    variants = []
    for kind in (swap_mp, unsound_ratdis, wrong_rule, forward_reference, wrong_induction):
        base = rng.choice(("THM-MAIN", "THM-IMP"))
        text, line = kind(main if base == "THM-MAIN" else imp)
        variants.append((f"{base}-{kind.__name__}", text, line))
    text, line = wrong_lemma(imp)
    variants.append(("THM-IMP-wrong_lemma", text, line))
    return variants


def build_cli(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "cli")
    workdir.mkdir(parents=True, exist_ok=True)
    workload = Workload([], workdir=workdir)

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        return str(path)

    bundled = {name: game for name, game in zip(("fig1_left", "fig1_right", "fig2"), bundled_games())}
    game_files = {name: write(f"{name}.game", format_game(game)) for name, game in bundled.items()}
    generated_texts = {
        "guess-2x6": guess_game_text(2, 6, rng),
        "guess-3x4": guess_game_text(3, 4, rng),
        "random-4x4": random_game_text((4, 4), rng),
        "random-3x3a": random_game_text((3, 3), rng, high=3),
        "random-3x3b": random_game_text((3, 3), rng, high=3),
        **{name: random_game_text((2, 2), rng, high=3) for name in SQUARE_CLI_GAMES},
    }
    generated = {name: parse_game(text) for name, text in generated_texts.items()}
    game_files.update({name: write(f"{name}.game", text) for name, text in generated_texts.items()})
    games = {**bundled, **generated}
    requests: list[Request] = []

    def add(kind: str, argv: list[str], check: Callable[[int, str, str], str | None]) -> None:
        requests.append(Request(kind, lambda a=argv: run_cli(a), lambda r, c=check: c(*r)))

    def expect_code(code: int, wanted: int, err: str) -> str | None:
        if code != wanted:
            return f"exit code {code}, expected {wanted}: {err.strip()[:200]}"
        return None

    def exact(wanted: int, text: str):
        def check(code, out, err):
            return expect_code(code, wanted, err) or (None if out == text else f"unexpected output {out!r}")

        return check

    def valid_over(count: int):
        def check(code, out, err):
            payload = {"valid": True, "models_checked": count}
            return expect_code(code, 0, err) or (
                None if json.loads(out) == payload else f"expected {payload}, got {out.strip()}"
            )

        return check

    # check-valid --exhaustive 2: the three theorems on the bundled and the
    # generated 2x2 games (every 2x2 game has as many size-2 models as
    # fig1_left) and one of them on fig2, whose sweep is twice as long.  Only
    # fig2's sweep and a few --random calls are slower than the twelve 2x2
    # sweeps, so the tail request is a 2x2 sweep, whose work is seed-free.
    sweeps = list(zip(bundled, EXHAUSTIVE_COUNTS)) + [(name, EXHAUSTIVE_COUNTS[0]) for name in SQUARE_CLI_GAMES]
    for name, count in sweeps:
        for theorem in THEOREMS if name != "fig2" else [rng.choice(THEOREMS)]:
            argv = ["check-valid", game_files[name], theorem, "--exhaustive", "2", "--json"]
            add("check-valid-exhaustive", argv, valid_over(count))

    # check-valid --random N K on the theorems, K = 3 and 4 on each game.
    # With these, about as many requests are slower than the check-proof
    # calls as faster, so the median request is a check-proof call.  The
    # theorems take turns rather than being drawn: on guess-2x6 one costs
    # 2.5 times another, which would make a pass's work depend on the seed.
    sampled = [
        (name, states)
        for name in ("fig2", "random-3x3a", "random-3x3b", "random-4x4", "guess-2x6")
        for states in (3, 4)
    ]
    for index, (name, states) in enumerate(sampled):
        theorem = THEOREMS[index % len(THEOREMS)]
        argv = ["check-valid", game_files[name], theorem, "--random", str(RANDOM_SAMPLES), str(states)]
        argv += ["--seed", str(rng.randrange(1 << 20))]
        if rng.random() < 0.5:
            add("check-valid-random", argv + ["--json"], valid_over(RANDOM_SAMPLES))
        else:
            add("check-valid-random", argv, exact(0, "VALID-ON-CORPUS\n"))

    # refutable formulas: exit 1 with a countermodel that really refutes
    for formula in REFUTABLE:
        name = rng.choice(sorted(games))

        def refuted(code, out, err, formula=formula, game=games[name]):
            problem = expect_code(code, 1, err)
            if problem:
                return problem
            payload = json.loads(out)
            if payload["valid"] or payload["models_checked"] < 1:
                return f"no countermodel: {payload}"
            model = parse_model(payload["countermodel"], game)
            if modal.interpret(model, parse_nu(formula)) == model.universe:
                return "countermodel does not refute the formula"
            return None

        argv = ["check-valid", game_files[name], formula, "--exhaustive", "2", "--json"]
        add("check-valid-refute", argv, refuted)

    # check-proof: the bundled theorems pass, seeded corruptions fail at the broken line
    for name in ("THM-MAIN", "THM-IMP"):
        path = write(f"{name}.prf", bundled_proof(name))
        add("check-proof-ok", ["check-proof", path], exact(0, "OK\n"))
    for name, text, line in _broken_proofs(rng):
        path = write(f"{name}.prf", text)

        def rejected(code, out, err, line=line):
            problem = expect_code(code, 1, err)
            if problem:
                return problem
            if not out.startswith(f"FAIL line {line}: "):
                return f"expected a failure at line {line}, got {out!r}"
            return None

        add("check-proof-broken", ["check-proof", path], rejected)

    # eliminate on generated games, against naive elimination
    for name in ("guess-2x6", "guess-3x4", "random-4x4", "random-3x3a"):
        condition = rng.choice(CONDITIONS)

        def eliminated(code, out, err, game=generated[name], condition=condition):
            problem = expect_code(code, 0, err)
            if problem:
                return problem
            payload = json.loads(out)
            expected = naive_eliminate(game, condition)
            survivors = {str(i + 1): list(expected.ordered(i)) for i in game.players}
            if payload["survivors"] != survivors:
                return f"survivors {payload['survivors']} differ from naive {survivors}"
            if len(payload["stages"]) != payload["closure_ordinal"] + 2:
                return "stage count does not match the closure ordinal"
            return None

        add("eliminate", ["eliminate", game_files[name], condition, "--json", "--trace"], eliminated)

    # evaluate on sampled model files
    for name, states in (("fig2", 4), ("random-3x3b", 3), ("random-4x4", 2)):
        (model,) = sample_belief_models(games[name], 1, states, rng.randrange(1 << 30))
        model_file = write(f"{name}.model", format_model(model))
        body = rng.choice(BODIES)

        def evaluated(code, out, err, model=model, body=body):
            problem = expect_code(code, 0, err)
            if problem:
                return problem
            held = modal.interpret(model, parse_nu(body))
            expected = model.ordered_event(naive_common_belief(model, held))
            got = tuple(json.loads(out)["states"])
            return None if got == expected else f"CB {body} gave {got}, naive {expected}"

        add("evaluate", ["evaluate", model_file, game_files[name], f"CB {body}", "--json"], evaluated)

    # analyze-condition: builtins and a condition file with known flags
    add("analyze-condition", ["analyze-condition", "lsd", "gsd", "gbr"], exact(0, BUILTIN_ANALYSIS))
    conditions = write("extra.cond", CONDITION_FILE)
    add(
        "analyze-condition",
        ["analyze-condition", conditions, "--json"],
        lambda code, out, err: expect_code(code, 0, err)
        or (None if json.loads(out) == CONDITION_FLAGS else f"unexpected {out!r}"),
    )

    # malformed inputs: exit 2 with a one-line error and nothing on stdout
    square_text = generated_texts["random-3x3a"]
    lines = square_text.splitlines()
    payoff_lines = [i for i, line in enumerate(lines) if line.startswith("payoff")]
    dropped = rng.choice(payoff_lines)
    malformed = {
        "missing-payoff.game": "\n".join(lines[:dropped] + lines[dropped + 1 :]) + "\n",
        "bad-rational.game": square_text.replace(lines[dropped], lines[dropped].rsplit(" ", 1)[0] + " 1/0"),
        "bad-model.model": "states: w1 w2\nplays 1: w1=s1a w2=s1b\npossible 1: w1={w3} w2={}\n",
        "bad-proof.prf": bundled_proof("THM-MAIN").replace(" ; nuDis", " nuDis"),
    }
    paths = {name: write(name, text) for name, text in malformed.items()}
    def usage_error(code, out, err):
        return expect_code(code, 2, err) or (
            None if not out and err.startswith("error: ") else f"unexpected output {out!r} / {err!r}"
        )

    for argv in (
        ["eliminate", paths["missing-payoff.game"], "gbr"],
        ["check-valid", paths["bad-rational.game"], "rat(gbr)", "--exhaustive", "1"],
        ["evaluate", paths["bad-model.model"], game_files["random-3x3a"], "rat(gbr)"],
        ["check-proof", paths["bad-proof.prf"]],
    ):
        add("malformed", argv, usage_error)

    rng.shuffle(requests)
    workload.requests = requests
    return workload


BUILDERS = {"elim": build_elim, "belief": build_belief, "cli": build_cli}
