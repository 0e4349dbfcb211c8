from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from epigame.games import (
    Game,
    GameFormatError,
    Restriction,
    bundled_game,
    format_game,
    lattice_size,
    parse_game,
    profile_with,
    restrictions,
    subsets,
)
from epigame.oracles import generated_games

RIGHT_GAME = """\
# dominance example
players: 2
strategies 1: U D
strategies 2: L R
payoff U L : 1 1
payoff U R : 1 0
payoff D L : 0 0
payoff D R : 0 1
"""


def right_game():
    return parse_game(RIGHT_GAME)


def test_parse_game_fixture():
    g = right_game()
    assert g.n == 2
    assert g.strategies == (("U", "D"), ("L", "R"))
    assert g.payoff(0, ("U", "L")) == Fraction(1)
    assert g.payoff(1, ("U", "R")) == Fraction(0)
    assert g.payoff(1, ("D", "R")) == Fraction(1)


def test_one_player_game():
    g = Game((("a",),), {("a",): (Fraction(0),)})
    assert g.n == 1
    assert list(g.profiles()) == [("a",)]
    assert g.full_restriction().masks == (1,)


def test_zero_players_rejected():
    with pytest.raises(GameFormatError, match="at least one player"):
        Game((), {})


def test_missing_payoff_rejected():
    text = "\n".join(line for line in RIGHT_GAME.splitlines() if not line.startswith("payoff D R"))
    with pytest.raises(GameFormatError, match="missing payoff"):
        parse_game(text)


def test_first_missing_payoff_in_strategy_order():
    text = RIGHT_GAME.replace("payoff U R : 1 0\n", "").replace("payoff D L : 0 0\n", "")
    with pytest.raises(GameFormatError, match=r"line 7: missing payoff for profile \('U', 'R'\)"):
        parse_game(text)


def test_many_player_games_are_refused_without_enumerating_profiles():
    # 2**40 profiles: listing them all would never finish
    text = "players: 40\n" + "".join(f"strategies {i}: a b\n" for i in range(1, 41))
    last = "'a', " * 39 + "'a'"
    with pytest.raises(GameFormatError, match=rf"line 42: missing payoff for profile \({last}\)"):
        parse_game(text)
    profile = ("a",) * 40
    with pytest.raises(GameFormatError, match=r"missing payoff for profile \(('a', ){39}'b'\)"):
        Game((("a", "b"),) * 40, {profile: (Fraction(0),) * 40})
    with pytest.raises(GameFormatError, match="unknown profile"):
        Game((("a", "b"),) * 40, {profile[1:]: (Fraction(0),) * 40})


def test_counts_and_indices_are_ascii_digits():
    # str.isdigit passes '²' and '٣', and int() takes at most 4300 digits
    for text, message in [
        ("players: ²\n", "line 1: bad player count '²'"),
        ("players: ٣\n", "line 1: bad player count '٣'"),
        ("players: " + "9" * 5000 + "\n", "line 1: bad player count"),
        ("players: 1\nstrategies ²: a\n", "line 2: expected 'strategies <i>: names...'"),
    ]:
        with pytest.raises(GameFormatError, match=message):
            parse_game(text)


def test_duplicate_strategy_rejected():
    with pytest.raises(GameFormatError, match="duplicate strategy"):
        parse_game(RIGHT_GAME.replace("strategies 1: U D", "strategies 1: U U"))


def test_strategy_names_the_format_cannot_write_are_refused():
    # no payoff line could name 'a:b', so the refusal would otherwise land past the end
    with pytest.raises(GameFormatError) as exc:
        parse_game("players: 2\nstrategies 1: a:b c\nstrategies 2: x\n")
    assert (str(exc.value), exc.value.line) == ("line 2: strategy name 'a:b' contains ':'", 2)
    for name, fault in (("a:b", "contains ':'"), ("a b", "contains ' '"), ("a\tb", "contains '\\t'"), ("", "is empty")):
        with pytest.raises(GameFormatError) as exc:
            Game(((name, "c"), ("x",)), {(name, "x"): (Fraction(0),) * 2, ("c", "x"): (Fraction(0),) * 2})
        assert str(exc.value) == f"strategy name {name!r} {fault}"


def test_duplicate_payoff_line_rejected():
    with pytest.raises(GameFormatError, match="line 9: duplicate payoff"):
        parse_game(RIGHT_GAME + "payoff U L : 2 2\n")


def test_bad_rational_reports_line():
    with pytest.raises(GameFormatError, match="line 5"):
        parse_game(RIGHT_GAME.replace("payoff U L : 1 1", "payoff U L : one 1"))


def test_exponent_payoffs_are_refused():
    # Fraction would expand these into enormous integers before any check
    for literal in ("1e999999999", "1E-3000000", "2.5e1"):
        text = RIGHT_GAME.replace("payoff U L : 1 1", f"payoff U L : {literal} 1")
        with pytest.raises(GameFormatError, match=f"line 5: bad rational '{literal}'"):
            parse_game(text)
    g = parse_game(RIGHT_GAME.replace("payoff U L : 1 1", "payoff U L : 2.5 -0.25"))
    assert g.payoffs[("U", "L")] == (Fraction(5, 2), Fraction(-1, 4))


def test_payoffs_are_ascii_only():
    # Fraction itself reads each of these: Arabic-Indic and fullwidth
    # digits, and '_' digit separators
    for literal in ("\u0663", "\uff13", "1/\u0663", "1_0"):
        text = RIGHT_GAME.replace("payoff U L : 1 1", f"payoff U L : {literal} 1")
        with pytest.raises(GameFormatError, match=f"line 5: bad rational '{literal}'"):
            parse_game(text)
    g = parse_game(RIGHT_GAME.replace("payoff U L : 1 1", "payoff U L : +.5 5."))
    assert g.payoffs[("U", "L")] == (Fraction(1, 2), Fraction(5))


def test_fractional_payoffs_are_exact():
    g = parse_game(RIGHT_GAME.replace("payoff U L : 1 1", "payoff U L : 1/3 -2/7"))
    assert g.payoff(0, ("U", "L")) == Fraction(1, 3)
    assert g.payoff(1, ("U", "L")) == Fraction(-2, 7)


NAMES = st.text(alphabet="ab#.-_()'=,{}", min_size=1, max_size=4)


@given(st.data())
def test_format_parse_round_trip(data):
    g = right_game()
    assert parse_game(format_game(g)) == g
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    strategies = tuple(tuple(data.draw(st.lists(NAMES, min_size=k, max_size=k, unique=True))) for k in sizes)
    values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    payoffs = {p: tuple(data.draw(values) for _ in sizes) for p in product(*strategies)}
    g = Game(strategies, payoffs)
    assert parse_game(format_game(g)) == g


def test_profile_with():
    assert profile_with(("U", "L"), 0, "D") == ("D", "L")
    assert profile_with(("U", "L"), 1, "R") == ("U", "R")


def test_payoff_preorder_allows_ties():
    g = right_game()
    # preorder, not linear: distinct profiles with equal payoff for player 1
    assert g.payoff(0, ("U", "L")) == g.payoff(0, ("U", "R"))


# --- restriction lattice ---------------------------------------------------


def test_leq_fixture():
    g = right_game()
    a = g.restriction({"U"}, {"L", "R"})
    b = g.full_restriction()
    assert a.leq(b)
    assert not b.leq(a)


def test_meet_join_fixtures():
    g = right_game()
    assert g.restriction({"U"}, {"L"}).meet(g.restriction({"D"}, {"L"})) == g.restriction(
        set(), {"L"}
    )
    assert g.restriction({"U"}, {"L"}).join(g.restriction({"D"}, {"R"})) == g.full_restriction()


def test_full_restriction_is_maximum():
    g = right_game()
    top = g.full_restriction()
    assert all(r.leq(top) for r in restrictions(g))


def test_lattice_size_and_enumeration_order():
    g = right_game()
    everything = list(restrictions(g))
    assert len(everything) == lattice_size(g) == 16
    assert len(set(everything)) == 16
    assert everything[0].is_empty()
    assert everything[-1] == g.full_restriction()


def test_lattice_laws_exhaustive():
    """leq is a partial order and meet/join are the glb/lub, checked on the
    full 16-element lattice of a 2x2 game."""
    g = right_game()
    lattice = list(restrictions(g))
    for a in lattice:
        assert a.leq(a)
        for b in lattice:
            if a.leq(b) and b.leq(a):
                assert a == b
            low, high = a.meet(b), a.join(b)
            assert low.leq(a) and low.leq(b)
            assert a.leq(high) and b.leq(high)
            for c in lattice:
                if c.leq(a) and c.leq(b):
                    assert c.leq(low)
                if a.leq(c) and b.leq(c):
                    assert high.leq(c)


@st.composite
def games_with_name_sets(draw):
    """A game of 1-3 players with 1-3 strategies each, and three restrictions
    of it given as one set of strategy names per player."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    strategies = tuple(tuple(f"p{i}s{k}" for k in range(m)) for i, m in enumerate(shape))
    game = Game(strategies, {p: tuple(Fraction(0) for _ in shape) for p in product(*strategies)})
    sets = [tuple(frozenset(draw(st.sets(st.sampled_from(names)))) for names in strategies) for _ in range(3)]
    return game, sets


@given(games_with_name_sets())
def test_lattice_algebra(drawn):
    """The lattice laws, and the masks agree with the name sets they were
    built from: leq, meet, join, size, is_empty and ordered are inclusion,
    intersection, union, count, emptiness and strategy order."""
    g, (xs, ys, zs) = drawn
    a, b, c = (g.restriction(*sets) for sets in (xs, ys, zs))
    assert a.meet(b) == b.meet(a)
    assert a.join(b) == b.join(a)
    assert a.meet(b.meet(c)) == a.meet(b).meet(c)
    assert a.join(b.join(c)) == a.join(b).join(c)
    assert a.meet(a.join(b)) == a
    assert a.join(a.meet(b)) == a
    if a.leq(b) and b.leq(c):
        assert a.leq(c)

    def names(r):
        return tuple(frozenset(r.ordered(i)) for i in g.players)

    assert a.leq(b) == all(map(frozenset.issubset, xs, ys))
    assert names(a.meet(b)) == tuple(map(frozenset.intersection, xs, ys))
    assert names(a.join(b)) == tuple(map(frozenset.union, xs, ys))
    for r, sets in ((a, xs), (b, ys), (c, zs)):
        assert names(r) == sets
        assert r.size() == sum(map(len, sets))
        assert r.is_empty() == (not any(sets))
        for i, strategies in enumerate(g.strategies):
            assert r.ordered(i) == tuple(s for s in strategies if s in sets[i])


@given(games_with_name_sets())
def test_restrictions_count_masks_in_subsets_order(drawn):
    g, _ = drawn
    named = [tuple(frozenset(r.ordered(i)) for i in g.players) for r in restrictions(g)]
    assert named == list(product(*map(subsets, g.strategies)))
    assert len(named) == len(set(named)) == lattice_size(g)


@given(games_with_name_sets())
def test_restriction_refuses_a_wrong_arity_and_a_stray_bit(drawn):
    g, _ = drawn
    full = g.full_restriction().masks
    assert Restriction(g, full) == g.restriction(*g.strategies)
    with pytest.raises(ValueError, match="one component per player"):
        Restriction(g, full + (0,))
    with pytest.raises(ValueError, match="one component per player"):
        Restriction(g, full[1:])
    for i, names in enumerate(g.strategies):
        for stray in (1 << len(names), -1):
            masks = full[:i] + (stray,) + full[i + 1 :]
            with pytest.raises(ValueError, match=f"bit past player {i + 1}'s {len(names)} strategies"):
                Restriction(g, masks)


def test_cross_game_lattice_ops_rejected():
    g, h = right_game(), Game((("a",),), {("a",): (Fraction(0),)})
    with pytest.raises(ValueError, match="different game"):
        g.full_restriction().leq(h.full_restriction())


def test_restriction_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        right_game().restriction({"U", "Q"}, {"L"})


def test_restriction_refuses_a_string_component():
    # a str is a collection of characters: "UD" would read as {"U", "D"}
    for game, components in ((bundled_game("fig2"), ("UD", "LR")), (generated_games()[8], ("a1", "b1"))):
        with pytest.raises(ValueError, match="player 1's component is the string .* collection of strategy names"):
            game.restriction(*components)
    with pytest.raises(ValueError, match="player 2's component is the string 'L'"):
        right_game().restriction({"U"}, "L")


def test_restriction_str_uses_dash_for_empty():
    g = right_game()
    assert str(g.restriction({"U", "D"}, set())) == "1: U D / 2: -"
