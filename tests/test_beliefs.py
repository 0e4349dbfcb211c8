from itertools import islice

import pytest

from epigame.beliefs import (
    BeliefModel,
    ModelFormatError,
    believes,
    common_belief,
    enumerate_belief_models,
    everyone_believes,
    format_model,
    game_of_event,
    is_truthful,
    parse_model,
    sample_belief_models,
)
from epigame.oracles import fig1_right, naive_common_belief

MODEL_TEXT = """\
# asymmetric introspection
states: w1 w2
plays 1: w1=U w2=D
plays 2: w1=L w2=R
possible 1: w1={w1} w2={w1,w2}
possible 2: w1={w1,w2} w2={}
"""


def fixture_model():
    return parse_model(MODEL_TEXT, fig1_right())


def test_parse_model_fixture():
    m = fixture_model()
    assert m.states == ("w1", "w2")
    assert m.strategy_of(0, "w1") == "U"
    assert m.strategy_of(1, "w2") == "R"
    assert m.possible_at(0, "w2") == {"w1", "w2"}
    assert m.possible_at(1, "w2") == frozenset()


def test_format_parse_round_trip():
    m = fixture_model()
    assert parse_model(format_model(m), fig1_right()) == m


def test_game_of_event():
    g = fig1_right()
    m = fixture_model()
    assert game_of_event(m, frozenset({"w1"})) == g.restriction({"U"}, {"L"})
    assert game_of_event(m, m.universe) == g.full_restriction()
    assert game_of_event(m, frozenset()) == g.restriction(set(), set())


def test_believes_fixtures():
    m = fixture_model()
    assert believes(m, 0, frozenset({"w1"})) == {"w1"}
    assert believes(m, 1, frozenset({"w1"})) == {"w2"}  # empty possibility set
    assert believes(m, 1, frozenset()) == {"w2"}  # ... believes even the empty event
    assert believes(m, 0, m.universe) == m.universe


def test_everyone_believes_is_intersection():
    m = fixture_model()
    for event in (frozenset(), frozenset({"w1"}), frozenset({"w2"}), m.universe):
        expected = believes(m, 0, event) & believes(m, 1, event)
        assert everyone_believes(m, event) == expected


def test_common_belief_fixtures():
    m = fixture_model()
    assert common_belief(m, m.universe).event == m.universe
    assert common_belief(m, frozenset({"w2"})).event == frozenset()

    fully = parse_model(
        "states: w1 w2\n"
        "plays 1: w1=U w2=D\n"
        "plays 2: w1=L w2=R\n"
        "possible 1: w1={w1,w2} w2={w1,w2}\n"
        "possible 2: w1={w1,w2} w2={w1,w2}\n",
        fig1_right(),
    )
    assert common_belief(fully, fully.universe).event == fully.universe
    assert common_belief(fully, frozenset({"w1"})).event == frozenset()


def test_common_belief_handles_level_cycles():
    # mutual "I think we are in the other state": the level sequence
    # alternates {a} / {b} forever instead of shrinking
    m = parse_model(
        "states: a b\n"
        "plays 1: a=U b=U\n"
        "plays 2: a=L b=L\n"
        "possible 1: a={b} b={a}\n"
        "possible 2: a={b} b={a}\n",
        fig1_right(),
    )
    result = common_belief(m, frozenset({"a"}))
    assert result.chain == (frozenset({"b"}), frozenset({"a"}))
    assert result.event == frozenset()
    assert naive_common_belief(m, frozenset({"a"})) == frozenset()


def _events(model):
    states = list(model.states)
    for mask in range(1 << len(states)):
        yield frozenset(s for b, s in enumerate(states) if mask >> b & 1)


def test_common_belief_matches_naive_oracle():
    g = fig1_right()
    some = islice(enumerate_belief_models(g, 2), 0, None, 97)
    for m in some:
        for event in _events(m):
            assert common_belief(m, event).event == naive_common_belief(m, event)


def test_chain_entries_are_distinct_and_intersection_shrinks_slowly():
    g = fig1_right()
    for m in islice(sample_belief_models(g, 300, 3, seed=5), 300):
        for event in (frozenset({"w1"}), m.universe):
            chain = common_belief(m, event).chain
            assert len(set(chain)) == len(chain)
            running, distinct = m.universe, 1
            for level in chain:
                reduced = running & level
                distinct += reduced != running
                running = reduced
            assert distinct <= len(m.states) + 1


def test_believes_is_monotone_in_the_event():
    g = fig1_right()
    for m in islice(sample_belief_models(g, 200, 3, seed=6), 200):
        events = list(_events(m))
        for e in events:
            for f in events:
                if e <= f:
                    for i in (0, 1):
                        assert believes(m, i, e) <= believes(m, i, f)


def test_truthful_models_have_truthful_common_belief():
    g = fig1_right()
    seen = 0
    for m in sample_belief_models(g, 2000, 3, seed=7):
        if not is_truthful(m):
            continue
        seen += 1
        for event in _events(m):
            assert common_belief(m, event).event <= event
    assert seen > 50  # the sample actually exercised the property


def test_is_truthful():
    assert not is_truthful(fixture_model())
    m = parse_model(
        "states: w1\nplays 1: w1=U\nplays 2: w1=L\n"
        "possible 1: w1={w1}\npossible 2: w1={w1}\n",
        fig1_right(),
    )
    assert is_truthful(m)


def test_one_player_model():
    from fractions import Fraction

    from epigame.games import Game

    solo = Game((("a", "b"),), {("a",): (Fraction(1),), ("b",): (Fraction(0),)})
    m = parse_model("states: s\nplays 1: s=a\npossible 1: s={s}\n", solo)
    assert everyone_believes(m, m.universe) == {"s"}
    assert common_belief(m, m.universe).event == {"s"}


def test_parse_model_errors():
    g = fig1_right()
    # (text, message, line of the refusal); a missing line is one past the end
    cases = [
        ("states: w1\nplays 1: w1=X\nplays 2: w1=L\npossible 1: w1={w1}\npossible 2: w1={w1}\n",
         "unknown strategy 'X' for player 1 at w1", 2),
        ("states: w1\nplays 1: w1=U\nplays 2: w1=L\npossible 1: w1={w1,zz}\npossible 2: w1={w1}\n",
         "unknown state 'zz'", 4),
        ("states:\nplays 1: w1=U\n", "non-empty", 1),
        ("plays 1: w1=U\n", "states line must come first", 1),
        ("states: w1\nstates: w1\n", "duplicate states line", 2),
        ("states: w1 w2 w1\n", "duplicate state name", 1),
        ("states: w1\nplays 3: w1=U\n", "out of range", 2),
        ("states: w1\nplays 1: w1=U\nplays 2: w1=L\npossible 1: w1={w1}\n",
         "missing possible for player 2", 5),
        ("states: w1\nplays 1: w1=U\nplays 2: w1=L\npossible 1: w1=w1\npossible 2: w1={w1}\n",
         "expected a state set", 4),
        ("states: w1\nwat\n", "unrecognized line", 2),
        ("states: w1\nplays 1: w2=U\n", "unknown state 'w2'", 2),
        ("states: w1 w2\nplays 1: w1=U w2=D w1=U\n", "line 2: duplicate entry for state 'w1'", 2),
        ("states: w1\nplays 1: w1=U\nplays 2: w1=L\npossible 1: w1={w1} w1={}\n",
         "line 4: duplicate entry for state 'w1'", 4),
        ("states: w1 w2\n# w2 is left out\nplays 1: w1=U\n", "player 1 has no strategy at w2", 3),
        ("states: w1 w2\nplays 1: w1=U w2=D\nplays 2: w1=L w2=R\npossible 2: w2={}\n",
         "player 2 has no possibility set at w1", 4),
        ("states: w\nplays ²: w=U\n", "expected 'plays <i>: ...'", 2),
    ]
    for text, message, line in cases:
        with pytest.raises(ModelFormatError, match=message) as exc:
            parse_model(text, g)
        assert exc.value.line == line, text


def test_model_validation_direct():
    g = fig1_right()
    with pytest.raises(ModelFormatError, match="non-empty"):
        BeliefModel(g, (), ({}, {}), ({}, {}))
    with pytest.raises(ModelFormatError, match="duplicate state"):
        BeliefModel(
            g,
            ("w", "w"),
            ({"w": "U"}, {"w": "L"}),
            ({"w": frozenset({"w"})}, {"w": frozenset({"w"})}),
        )
    with pytest.raises(ModelFormatError, match="every player"):
        BeliefModel(g, ("w",), ({"w": "U"},), ({"w": frozenset()},))


def test_models_hash_consistently():
    m1, m2 = fixture_model(), fixture_model()
    assert m1 == m2 and hash(m1) == hash(m2)
    assert len({m1, m2}) == 1
