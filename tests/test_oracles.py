from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epigame.conditions import analyze
from epigame.beliefs import format_model, model_of_masks
from epigame.games import Game, bundled_games, lattice_size
from epigame.modal import _game_layout, _profiles, _sample_models
from epigame.operators import condition_operator, iterate
from epigame.oracles import (
    enumerate_belief_models,
    enumerate_optimality_models,
    fig1_left,
    fig1_right,
    fig2,
    generated_conditions,
    generated_games,
    naive_eliminate,
    naive_sample_model_masks,
    premise_pairs,
    sample_belief_models,
    square_lattice_game,
    standard_corpus,
)
from epigame.proofs import bundled_proof
from test_conditions import tied_games


def test_bundled_game_payoffs():
    left = fig1_left()
    assert left.strategies == (("L", "R"), ("L", "R"))
    assert left.payoffs[("L", "L")] == (Fraction(1), Fraction(1))
    assert left.payoffs[("L", "R")] == (Fraction(0), Fraction(0))
    assert left.payoffs[("R", "R")] == (Fraction(1), Fraction(1))

    right = fig1_right()
    assert right.strategies == (("U", "D"), ("L", "R"))
    assert right.payoffs[("U", "R")] == (Fraction(1), Fraction(0))
    assert right.payoffs[("D", "R")] == (Fraction(0), Fraction(1))

    wide = fig2()
    assert wide.strategies == (("U", "M", "D"), ("L", "R"))
    assert wide.payoffs[("M", "R")] == (Fraction(2), Fraction(0))
    assert wide.payoffs[("D", "R")] == (Fraction(1), Fraction(2))

    assert bundled_games() == (left, right, wide)
    assert bundled_game_is_cached()


def bundled_game_is_cached():
    return fig2() is fig2()


def test_bundled_proof_text():
    text = bundled_proof("THM-MAIN")
    assert text.splitlines()[-1].startswith("8.")
    assert "nuInd 5" in text


def test_generated_games_are_deterministic():
    first, second = generated_games(), generated_games()
    assert first == second
    assert [tuple(len(s) for s in g.strategies) for g in first] == [
        (2, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2), (3, 3), (2, 3), (3, 3), (2, 2)
    ]
    assert generated_games(seed=1) != first


def test_standard_corpus():
    corpus = standard_corpus()
    assert len(corpus) == 13
    assert corpus[:3] == bundled_games()


def test_generated_conditions():
    conditions = generated_conditions()
    assert conditions == generated_conditions()
    assert len(conditions) == 12
    reports = [analyze(f) for f in conditions]
    assert all(r.closed and r.context_safe for r in reports)
    positives = sum(r.positive for r in reports)
    assert positives == 10  # a mixed bag, mostly positive


def test_square_lattice_game():
    game = square_lattice_game()
    assert game.strategies == (("a",), ("b",))
    assert lattice_size(game) == 4


# --- naive elimination -----------------------------------------------------------


def test_naive_eliminate_round_fixtures():
    g = fig1_right()
    assert naive_eliminate(g, "lsd", rounds=0) == g.full_restriction()
    assert naive_eliminate(g, "lsd", rounds=1) == g.restriction({"U"}, {"L", "R"})
    assert naive_eliminate(g, "lsd", rounds=2) == g.restriction({"U"}, {"L"})
    assert naive_eliminate(g, "lsd") == g.restriction({"U"}, {"L"})


def test_naive_eliminate_unknown_condition():
    with pytest.raises(ValueError, match="naive elimination only knows"):
        naive_eliminate(fig1_right(), "what")


def test_naive_agrees_with_operator_iteration():
    for game in bundled_games():
        for condition in ("lsd", "gsd", "gbr"):
            assert naive_eliminate(game, condition) == iterate(
                condition_operator(game, condition)
            ).outcome


# --- model enumeration and sampling ------------------------------------------------


def test_enumeration_counts():
    g = fig1_right()
    assert sum(1 for _ in enumerate_belief_models(g, 1)) == 16
    assert sum(1 for _ in enumerate_belief_models(g, 2)) == 4112

    solo = Game((("a",),), {("a",): (Fraction(0),)})
    assert sum(1 for _ in enumerate_belief_models(solo, 1)) == 2
    models = list(enumerate_belief_models(solo, 3))
    assert len(models) == 530
    assert len(set(models)) == 530


def test_enumeration_bound():
    with pytest.raises(ValueError, match="limited to 3 states"):
        next(enumerate_belief_models(fig1_right(), 4))


def test_sampling_is_seeded():
    g = fig1_right()
    a = list(sample_belief_models(g, 25, 3, seed=8))
    b = list(sample_belief_models(g, 25, 3, seed=8))
    c = list(sample_belief_models(g, 25, 3, seed=9))
    assert a == b
    assert a != c
    assert all(1 <= len(m.states) <= 3 for m in a)


def sample_masks(game, count, max_states, seed):
    """(plays, possible) of each model the fast sampler draws, after checking
    that the model's profiles and universe are those of its plays."""
    layout = _game_layout(game)
    drawn = []
    for m in _sample_models(game, count, max_states, seed):
        assert m.profiles == _profiles(layout, m.plays)
        assert m.universe == (1 << len(m.plays[0])) - 1
        drawn.append((m.plays, m.possible))
    return drawn


def test_sampling_draw_order_is_pinned():
    # the draws of randint, choice and random() in this order decide every
    # seeded sampled verdict and count; these models were drawn before the
    # sampler moved to mask form
    expected = [
        "states: w1\nplays 1: w1=U\nplays 2: w1=L\npossible 1: w1={w1}\npossible 2: w1={w1}\n",
        "states: w1 w2 w3\nplays 1: w1=M w2=D w3=U\nplays 2: w1=L w2=L w3=R\n"
        "possible 1: w1={} w2={w2} w3={}\npossible 2: w1={w1} w2={w1,w3} w3={w1,w2,w3}\n",
        "states: w1 w2\nplays 1: w1=U w2=D\nplays 2: w1=R w2=L\n"
        "possible 1: w1={w2} w2={w1}\npossible 2: w1={w2} w2={w2}\n",
    ]
    assert [format_model(m) for m in sample_belief_models(fig2(), 3, 4, seed=2)] == expected
    masks = sample_masks(fig2(), 3, 4, seed=2)
    assert [format_model(model_of_masks(fig2(), *pair)) for pair in masks] == expected


def test_sampled_masks_are_pinned():
    # (plays, possible) of the first draws of one seed, taken from the
    # reference loop before the sampler read the stream word by word
    expected = [
        (((1, 2), (1, 1)), ((3, 0), (0, 3))),
        (((2, 1, 0), (0, 0, 0)), ((2, 6, 0), (4, 2, 3))),
        (((1, 0, 0, 2), (0, 1, 0, 0)), ((2, 0, 11, 12), (11, 3, 3, 1))),
        (((2, 0), (1, 1)), ((1, 3), (1, 2))),
        (((2,), (0,)), ((1,), (0,))),
        (((0, 1, 1, 2, 1), (0, 0, 0, 0, 1)), ((20, 31, 17, 17, 1), (9, 5, 1, 19, 31))),
    ]
    assert sample_masks(fig2(), 6, 5, seed=21) == expected
    assert list(naive_sample_model_masks(fig2(), 6, 5, seed=21)) == expected


def test_sampler_draws_the_reference_loops_models():
    for game in bundled_games() + generated_games():
        for states in range(1, 7):
            for seed in (0, 1, 2, 77):
                fast = sample_masks(game, 40, states, seed)
                naive = list(naive_sample_model_masks(game, 40, states, seed))
                assert fast == naive, (game.strategies, states, seed)


@settings(max_examples=40, deadline=None)
@given(tied_games().filter(lambda g: g.n == 3), st.integers(1, 6), st.integers(0, 2**32))
def test_sampler_draws_the_reference_loops_models_with_three_players(game, states, seed):
    """Players with a single strategy included: each of their draws still
    takes one word from the stream."""
    fast = sample_masks(game, 30, states, seed)
    assert fast == list(naive_sample_model_masks(game, 30, states, seed))


def test_optimality_model_enumeration_counts():
    assert sum(1 for _ in enumerate_optimality_models(fig1_right())) == 16 * 4
    assert sum(1 for _ in enumerate_optimality_models(fig2())) == 32 * 6


def test_premise_pairs_are_deterministic():
    game = square_lattice_game()
    table = lambda op: tuple(sorted((k, v.masks) for k, v in op.table.items()))
    first = [(table(a), table(b)) for a, b in premise_pairs(game, 5, seed=2)]
    second = [(table(a), table(b)) for a, b in premise_pairs(game, 5, seed=2)]
    assert first == second
