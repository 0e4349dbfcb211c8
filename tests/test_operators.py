import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import epigame
from epigame.conditions import BUILTIN_CONDITION_TEXT, analyze, builtin, parse_lo, pretty_lo
from epigame.games import restrictions
from epigame.operators import (
    ConditionOperator,
    ContractedOperator,
    NoFixpointError,
    OperatorError,
    check_monotone,
    condition_operator,
    format_trace,
    iterate,
)
from epigame.oracles import (
    TableOperator,
    constant_table,
    fig1_left,
    fig1_right,
    fig2,
    generated_conditions,
    generated_games,
    identity_table,
    lemma_inclusion_check,
    naive_optimal_strategies,
    premise_pairs,
    square_lattice_game,
)


def test_operator_validation():
    g = fig1_right()
    with pytest.raises(OperatorError, match="must be closed"):
        ConditionOperator(g, parse_lo("C(x)"))
    with pytest.raises(OperatorError, match="context-safe"):
        ConditionOperator(g, parse_lo("C(o)"))
    with pytest.raises(OperatorError, match="different game"):
        condition_operator(g, "lsd").apply(fig1_left().full_restriction())


def test_apply_fixture():
    g = fig1_right()
    op = condition_operator(g, "lsd")
    assert op.apply(g.full_restriction()) == g.restriction({"U"}, {"L", "R"})
    assert op.apply(g.restriction({"U"}, {"L", "R"})) == g.restriction({"U"}, {"L"})


def test_apply_empty_is_empty():
    g = fig1_right()
    empty = g.restriction(set(), set())
    for name in ("lsd", "gsd", "gbr"):
        assert condition_operator(g, name).apply(empty) == empty


def test_iterate_fixtures():
    g = fig1_right()
    for name in ("lsd", "gsd", "gbr"):
        trace = iterate(condition_operator(g, name))
        assert trace.closure_ordinal == 2
        assert trace.outcome == g.restriction({"U"}, {"L"})
        assert trace.stages[-1] == trace.stages[-2] == trace.outcome

    left = fig1_left()
    for name in ("lsd", "gsd", "gbr"):
        trace = iterate(condition_operator(left, name))
        assert trace.closure_ordinal == 0
        assert trace.outcome == left.full_restriction()

    wide = fig2()
    assert iterate(condition_operator(wide, "lsd")).outcome == wide.full_restriction()
    assert iterate(condition_operator(wide, "gsd")).outcome == wide.full_restriction()
    best = iterate(condition_operator(wide, "gbr"))
    assert best.closure_ordinal == 3
    assert best.stages == (
        wide.full_restriction(),
        wide.restriction({"U", "M"}, {"L", "R"}),
        wide.restriction({"U", "M"}, {"L"}),
        wide.restriction({"U"}, {"L"}),
        wide.restriction({"U"}, {"L"}),
    )


def test_format_trace_text():
    text = format_trace(iterate(condition_operator(fig1_right(), "lsd")))
    assert text == (
        "stage 0: {1: U D; 2: L R}\n"
        "stage 1: {1: U; 2: L R}\n"
        "stage 2: {1: U; 2: L}\n"
        "stage 3: {1: U; 2: L}\n"
        "closure_ordinal: 2"
    )


def test_condition_operators_are_contracting():
    g = fig1_right()
    formulas = [builtin(n) for n in ("lsd", "gsd", "gbr")]
    formulas.extend(generated_conditions()[:6])
    for f in formulas:
        op = condition_operator(g, f)
        for r in restrictions(g):
            assert op.apply(r).leq(r)


def test_apply_matches_the_naive_reference():
    """Each stage keeps, per player, exactly the reference's survivors
    inside the restriction.  ``notworst`` compares the focus on the right
    of ``>=``, so it reads the payoff table no builtin reads."""
    formulas = [builtin(n) for n in BUILTIN_CONDITION_TEXT] + list(generated_conditions())
    formulas.append(parse_lo("forall z in C . exists y . not y >= o @ z"))
    for game in (fig1_left(), fig1_right(), fig2()):
        for f in formulas:
            op = ConditionOperator(game, f)
            for r in restrictions(game):
                image = op.apply(r)
                for i in game.players:
                    expected = naive_optimal_strategies(game, i, f, r) & set(r.ordered(i))
                    assert set(image.ordered(i)) == expected, (pretty_lo(f), r, i)


def test_closure_ordinal_bounded_by_strategy_count():
    for game in (fig1_left(), fig1_right(), fig2()):
        bound = sum(len(names) for names in game.strategies)
        for f in generated_conditions()[:6]:
            assert iterate(condition_operator(game, f)).closure_ordinal <= bound


def test_positive_conditions_induce_monotone_operators():
    games = (fig1_left(), fig1_right(), fig2())
    for f in generated_conditions():
        if not analyze(f).positive:
            continue
        for game in games:
            op = condition_operator(game, f)
            assert op.certified_monotone
            assert check_monotone(op).monotone


def test_certified_monotone_flag():
    g = fig2()
    assert condition_operator(g, "gbr").certified_monotone
    assert condition_operator(g, "gsd").certified_monotone
    assert not condition_operator(g, "lsd").certified_monotone


def test_monotonicity_verdicts():
    assert check_monotone(condition_operator(fig2(), "gbr")).monotone
    assert check_monotone(condition_operator(fig2(), "gsd")).monotone
    report = check_monotone(condition_operator(fig1_right(), "lsd"))
    assert not report.monotone
    small, large = report.witness
    # the witness is a genuine violation, not just a flagged pair
    op = condition_operator(fig1_right(), "lsd")
    assert small.leq(large)
    assert not op.apply(small).leq(op.apply(large))


def test_sampled_monotonicity_check():
    report = check_monotone(condition_operator(fig2(), "gbr"), samples=200, seed=3)
    assert report.monotone and report.pairs_checked == 200


def test_a_sampled_check_of_no_pairs_is_refused():
    op = condition_operator(fig2(), "lsd")
    for samples in (0, -1):
        with pytest.raises(OperatorError, match=f"at least one pair, not {samples}"):
            check_monotone(op, samples=samples)


SAMPLED_MONOTONICITY = """
from epigame.operators import check_monotone, condition_operator
from epigame.oracles import generated_games
report = check_monotone(condition_operator(generated_games()[8], "lsd"), samples=200, seed=5)
print(report.monotone, report.pairs_checked, *map(str, report.witness or ()), sep=" | ")
"""


def test_sampled_monotonicity_does_not_depend_on_the_hash_seed():
    """The pairs are drawn in strategy order, never in a set's hash order,
    so one seed gives one report in every interpreter."""
    src = str(Path(epigame.__file__).parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", SAMPLED_MONOTONICITY],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("0", "1")
    ]
    report = check_monotone(condition_operator(generated_games()[8], "lsd"), samples=200, seed=5)
    here = " | ".join([str(report.monotone), str(report.pairs_checked), *map(str, report.witness or ())])
    assert outputs == [here + "\n"] * 2
    assert not report.monotone


def test_a_report_shows_its_witness_masks_without_the_game():
    report = check_monotone(condition_operator(generated_games()[8], "lsd"), samples=200, seed=5)
    text = repr(report)
    assert len(text) < 300
    assert [r.masks for r in report.witness] == [(0, 4), (3, 7)]
    assert "Restriction((0, 4), '1: - / 2: b3')" in text and "Restriction((3, 7), " in text


# --- table operators on the four-element lattice -----------------------------


def all_table_operators(game):
    lattice = list(restrictions(game))
    keys = [r.masks for r in lattice]
    for images in product(lattice, repeat=len(lattice)):
        yield TableOperator(game, dict(zip(keys, images)))


def test_table_operator_census():
    """On the four-element lattice: 36 of the 256 table operators are
    monotone; for those, plain iteration, contracted iteration and the
    greatest-fixpoint construction all agree.  The rest either stabilize
    anyway or cycle, and contracting always restores termination."""
    game = square_lattice_game()
    lattice = list(restrictions(game))
    monotone = stabilized = cycled = 0
    for op in all_table_operators(game):
        if check_monotone(op).monotone:
            monotone += 1
            outcome = iterate(op).outcome
            assert outcome == iterate(ContractedOperator(op)).outcome
            post = [r for r in lattice if r.leq(op.apply(r))]
            greatest = post[0]
            for r in post[1:]:
                greatest = greatest.join(r)
            assert outcome == greatest
            assert op.apply(greatest) == greatest
        else:
            try:
                iterate(op)
                stabilized += 1
            except NoFixpointError:
                cycled += 1
            assert iterate(ContractedOperator(op)).outcome is not None
    assert monotone == 36
    assert stabilized == 106
    assert cycled == 114


def test_no_fixpoint_error_message():
    game = square_lattice_game()
    lattice = list(restrictions(game))
    # map each element to its complement: a two-cycle from every start
    flip = {r.masks: lattice[3 - i] for i, r in enumerate(lattice)}
    with pytest.raises(NoFixpointError, match="no fixpoint reached"):
        iterate(TableOperator(game, flip))


def test_table_validation():
    game = square_lattice_game()
    lattice = list(restrictions(game))
    with pytest.raises(OperatorError, match="missing an image"):
        TableOperator(game, {lattice[0].masks: lattice[0]})
    with pytest.raises(OperatorError, match="different game"):
        constant_table(game, fig2().full_restriction())

    from fractions import Fraction
    from epigame.games import Game

    big = Game(
        (tuple(f"s{k}" for k in range(17)),),
        {(f"s{k}",): (Fraction(0),) for k in range(17)},
    )
    with pytest.raises(OperatorError, match="lattice too large for a table"):
        TableOperator(big, {})
    with pytest.raises(OperatorError, match="lattice too large for an exhaustive"):
        check_monotone(condition_operator(big, "lsd"))


def test_contracted_wrapper():
    g = fig1_right()
    op = condition_operator(g, "lsd")
    wrapped = ContractedOperator(op)
    for r in restrictions(g):
        assert wrapped.apply(r) == op.apply(r).meet(r)
        # already-contracting base: wrapping changes nothing
        assert wrapped.apply(r) == op.apply(r)
    twice = ContractedOperator(wrapped)
    assert all(twice.apply(r) == wrapped.apply(r) for r in restrictions(g))


def test_contracted_really_contracts():
    game = square_lattice_game()
    top = game.full_restriction()
    blow_up = constant_table(game, top)  # not contracting below the top
    wrapped = ContractedOperator(blow_up)
    for r in restrictions(game):
        assert wrapped.apply(r) == r  # meet with the top is the identity


def test_inclusion_check_fixtures():
    g = fig2()
    first, second = condition_operator(g, "gbr"), condition_operator(g, "lsd")
    report = lemma_inclusion_check(first, second)
    assert report.premises_hold and report.conclusion_holds

    same = condition_operator(g, "gsd")
    report = lemma_inclusion_check(same, same)
    assert report.premises_hold and report.conclusion_holds

    game = square_lattice_game()
    report = lemma_inclusion_check(identity_table(game), constant_table(game, game.full_restriction()))
    assert report.premises_hold and report.conclusion_holds

    with pytest.raises(OperatorError, match="different games"):
        lemma_inclusion_check(condition_operator(g, "gbr"), condition_operator(fig1_left(), "gbr"))


def test_premise_pairs_satisfy_inclusion_premises():
    for game, count in ((square_lattice_game(), 200), (fig1_right(), 40)):
        for first, second in premise_pairs(game, count):
            report = lemma_inclusion_check(first, second)
            assert report.premises_hold
            assert report.conclusion_holds


square_images = st.sampled_from(list(restrictions(square_lattice_game())))


@settings(deadline=None)
@given(st.tuples(square_images, square_images, square_images, square_images))
def test_contraction_tames_any_table(images):
    game = square_lattice_game()
    keys = [r.masks for r in restrictions(game)]
    op = ContractedOperator(TableOperator(game, dict(zip(keys, images))))
    for r in restrictions(game):
        assert op.apply(r).leq(r)
    trace = iterate(op)
    assert trace.closure_ordinal <= sum(len(s) for s in game.strategies)
