"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS or FAIL line naming the behaviour it
certifies; run ``pytest tests/test_acceptance.py -v -s`` to see them.
Expected values are frozen from hand computation or from the naive
oracles, never from the code under test.
"""
import random
from contextlib import contextmanager
from itertools import product

import pytest

from epigame.conditions import (
    ConditionRegistry,
    OptimalityModel,
    analyze,
    builtin,
    satisfies,
)
from epigame.games import bundled_games, restrictions
from epigame.modal import (
    Neg,
    Rat,
    check_validity,
    common_belief_formula,
    interpret,
    interpret_so,
    parse_nu,
)
from epigame.operators import (
    ContractedOperator,
    check_monotone,
    condition_operator,
    iterate,
)
from epigame.oracles import (
    TableOperator,
    enumerate_belief_models,
    fig1_left,
    fig1_right,
    fig2,
    lemma_inclusion_check,
    naive_common_belief,
    naive_eliminate,
    premise_pairs,
    square_lattice_game,
    standard_corpus,
)
from epigame.proofs import (
    LemmaRefused,
    LemmaRegistry,
    bundled_proof,
    check_proof,
    implication_counterexamples,
    parse_proof,
    standard_lemmas,
)

from mutations import mutate_script

BUILTINS = ("lsd", "gsd", "gbr")
REGISTRY = ConditionRegistry.standard()
CORPUS = standard_corpus()
SQUARE_GAMES = tuple(
    g for g in CORPUS if tuple(len(s) for s in g.strategies) == (2, 2)
)


@contextmanager
def certify(label):
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label}")


def test_optimality_judgments():
    with certify("hand-checked optimality judgments on the 3x2 game"):
        game = fig2()
        at_dr = OptimalityModel(game, game.full_restriction(), ("D", "R"))
        assert satisfies(at_dr, 0, builtin("gsd"))
        assert not satisfies(at_dr, 0, builtin("gbr"))
        at_ur = OptimalityModel(
            game, game.restriction({"U", "M"}, {"R"}), ("U", "R")
        )
        assert satisfies(at_ur, 1, builtin("lsd"))
        assert not satisfies(at_ur, 1, builtin("gsd"))


def test_condition_positivity():
    with certify("positivity analysis: lsd is not positive, gsd and gbr are"):
        flags = {name: analyze(builtin(name)).positive for name in BUILTINS}
        assert flags == {"lsd": False, "gsd": True, "gbr": True}
        for name in BUILTINS:
            assert analyze(builtin(name)).context_safe


def test_elimination_traces():
    with certify("iterated elimination reproduces the hand-worked traces"):
        right = fig1_right()
        for name in BUILTINS:
            trace = iterate(condition_operator(right, name))
            assert trace.closure_ordinal == 2
            assert trace.outcome == right.restriction({"U"}, {"L"})
            assert naive_eliminate(right, name) == trace.outcome
        left = fig1_left()
        for name in BUILTINS:
            trace = iterate(condition_operator(left, name))
            assert trace.closure_ordinal == 0
            assert trace.outcome == left.full_restriction()
            assert naive_eliminate(left, name) == trace.outcome
        wide = fig2()
        trace = iterate(condition_operator(wide, "gbr"))
        assert trace.stages == (
            wide.full_restriction(),
            wide.restriction({"U", "M"}, {"L", "R"}),
            wide.restriction({"U", "M"}, {"L"}),
            wide.restriction({"U"}, {"L"}),
            wide.restriction({"U"}, {"L"}),
        )
        assert naive_eliminate(wide, "gbr") == trace.outcome


def test_operator_monotonicity():
    with certify("gbr and gsd operators are monotone on the whole corpus; lsd is not"):
        for game in CORPUS:
            total = sum(len(s) for s in game.strategies)
            for name in ("gbr", "gsd"):
                report = check_monotone(condition_operator(game, name))
                assert report.monotone and report.witness is None
                assert report.pairs_checked == 3**total
        op = condition_operator(fig1_right(), "lsd")
        report = check_monotone(op)
        assert not report.monotone
        small, large = report.witness
        assert small.leq(large)
        assert not op.apply(small).leq(op.apply(large))


def test_table_operator_laws():
    with certify("contracted table operators preserve outcomes and match the greatest fixpoint"):
        game = square_lattice_game()
        lattice = list(restrictions(game))
        keys = [r.masks for r in lattice]
        monotone = 0
        for images in product(lattice, repeat=len(lattice)):
            op = TableOperator(game, dict(zip(keys, images)))
            if not check_monotone(op).monotone:
                continue
            monotone += 1
            outcome = iterate(op).outcome
            assert outcome == iterate(ContractedOperator(op)).outcome
            post = [r for r in lattice if r.leq(op.apply(r))]
            greatest = post[0]
            for r in post[1:]:
                greatest = greatest.join(r)
            assert outcome == greatest
        assert monotone == 36


def test_outcome_inclusion_sampled():
    with certify("outcome inclusion holds for ten thousand sampled operator pairs"):
        game = square_lattice_game()
        pairs = 0
        for first, second in premise_pairs(game, 10_000, seed=0):
            report = lemma_inclusion_check(first, second)
            assert report.premises_hold
            assert report.conclusion_holds
            pairs += 1
        assert pairs == 10_000


def test_common_belief_agreement():
    with certify("common-belief fixpoint formula agrees with the iterative oracle everywhere"):
        bodies = (Rat("lsd", None), Rat("gbr", None), Neg(Rat("gsd", None)))
        checked = 0
        for game in SQUARE_GAMES:
            for model in enumerate_belief_models(game, 2):
                for body in bodies:
                    held = interpret(model, body)
                    via_formula = interpret(model, common_belief_formula(body))
                    assert via_formula == naive_common_belief(model, held)
                checked += 1
        assert checked == 24_672


def test_theorem_validity():
    with certify("rationality-and-common-belief theorems hold on exhaustive and sampled models"):
        theorems = (
            parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X"),
            parse_nu("rat(gsd) and CB rat(gsd) -> nu X . O(gsd) X"),
            parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X"),
        )
        exhaustive_counts = (4_112, 4_112, 9_240)
        for game, count in zip(bundled_games(), exhaustive_counts):
            for formula in theorems:
                report = check_validity(game, formula, REGISTRY, max_states=2)
                assert report.valid, report.countermodel
                assert report.models_checked == count
        # a further ten thousand random models, spread over the three games
        for game, samples in zip(bundled_games(), (3_334, 3_333, 3_333)):
            for formula in theorems:
                report = check_validity(
                    game, formula, REGISTRY,
                    max_states=4, samples=samples, seed=20260815,
                )
                assert report.valid, report.countermodel
                assert report.models_checked == samples


def test_second_order_rationality():
    with certify("second-order rationality coincides with primitive rationality for the monotone conditions"):
        second_order = {
            (name, player): parse_nu(f"forall X . [{player + 1}] X -> O({name},{player + 1}) X")
            for name in ("gbr", "gsd")
            for player in (0, 1)
        }
        checked = 0
        for game in SQUARE_GAMES:
            for model in enumerate_belief_models(game, 2):
                for (name, player), formula in second_order.items():
                    primitive = interpret(model, Rat(name, player))
                    assert interpret_so(model, formula, registry=REGISTRY) == primitive
                checked += 1
        assert checked == 24_672


def test_proof_kernel_gate():
    with certify("proof checker accepts the bundled theorems, rejects mutants and bad lemmas"):
        lemmas = standard_lemmas()
        scripts = [
            parse_proof(bundled_proof(name)) for name in ("THM-MAIN", "THM-IMP")
        ]
        for script in scripts:
            report = check_proof(script, REGISTRY, lemmas)
            assert report.ok, report.failure
        rng = random.Random(424242)
        rejected = 0
        for i in range(500):
            mutant = mutate_script(scripts[i % 2], rng)
            if not check_proof(mutant, REGISTRY, lemmas).ok:
                rejected += 1
        assert rejected >= 495  # at least 99 percent
        registry = LemmaRegistry()
        with pytest.raises(LemmaRefused) as refusal:
            registry.register(
                "lsd_implies_gsd", "lsd", "gsd", REGISTRY, list(bundled_games())
            )
        witness = refusal.value.witness
        game = bundled_games()[witness.game_index]
        seen = OptimalityModel(game, witness.context, witness.focus)
        assert satisfies(seen, witness.owner, builtin("lsd"))
        assert not satisfies(seen, witness.owner, builtin("gsd"))
        # the hand-worked counterexample is among those the sweep finds
        stream = implication_counterexamples(fig2(), builtin("lsd"), builtin("gsd"))
        expected = (fig2().restriction({"U", "M"}, {"R"}), ("U", "R"), 1)
        assert expected in list(stream)


def test_elimination_oracle_agreement():
    with certify("operator iteration agrees with the naive elimination oracle on the corpus"):
        for game in CORPUS:
            for name in BUILTINS:
                direct = naive_eliminate(game, name)
                assert direct == iterate(condition_operator(game, name)).outcome
