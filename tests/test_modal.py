import copy
import gc
import pickle
import weakref
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from epigame.beliefs import BeliefModel, EnumerationLimitError, format_model, model_of_masks, parse_model
from epigame import conditions, modal
from epigame.conditions import MAX_NESTING, ConditionRegistry, CtxAtom, FormulaSyntaxError, builtin, parse_lo
from epigame.games import Game, bundled_games, format_game, parse_game, subsets
from epigame.modal import (
    Box,
    Conj,
    ForallX,
    MAX_CACHED_PROGRAMS,
    MAX_EXHAUSTIVE_MODELS,
    ModalError,
    Neg,
    Nu,
    Opt,
    Rat,
    ValidityReport,
    X,
    _Lanes,
    _Model,
    _game_layout,
    _profiles,
    _program,
    _slices,
    check_validity,
    common_belief_formula,
    exhaustive_model_count,
    has_free_x,
    imp,
    interpret,
    interpret_so,
    iter_subformulas,
    match_imp,
    nu_free,
    parse_nu,
    positive_in_x,
    pretty_nu,
    substitute_x,
    survivor_table,
)
from epigame.oracles import (
    enumerate_belief_models,
    enumerate_model_masks,
    fig1_left,
    fig1_right,
    fig2,
    generated_games,
    naive_common_belief,
    naive_interpret,
    nu_via_postfixpoints,
    sample_belief_models,
)
from epigame.value import Value
from test_conditions import tied_games

REGISTRY = ConditionRegistry.standard()


# --- syntax ------------------------------------------------------------------


def test_parse_fixtures():
    assert parse_nu("rat(gbr)") == Rat("gbr", None)
    assert parse_nu("rat(lsd, 2)") == Rat("lsd", 1)
    assert parse_nu("[1] X") == Box(0, X)
    assert parse_nu("box X") == Box(None, X)
    assert parse_nu("O(gbr) X") == Opt("gbr", None, X)
    assert parse_nu("O(gsd, 2) X") == Opt("gsd", 1, X)
    assert parse_nu("CB rat(gbr)") == common_belief_formula(Rat("gbr", None))
    assert parse_nu("CB rat(gbr)") == Nu(Box(None, Conj(X, Rat("gbr", None))))


def test_parse_precedence():
    assert parse_nu("not X and X") == Conj(Neg(X), X)
    assert parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X") == imp(
        Conj(Rat("gbr", None), common_belief_formula(Rat("gbr", None))),
        Nu(Opt("gbr", None, X)),
    )
    # '->' associates to the right
    a, b = Rat("lsd", None), Rat("gsd", None)
    assert parse_nu("rat(lsd) -> rat(gsd) -> rat(lsd)") == imp(a, imp(b, a))
    # binders extend maximally to the right
    assert parse_nu("nu X . X and rat(gbr)") == Nu(Conj(X, Rat("gbr", None)))
    assert parse_nu("forall X . [1] X -> O(gbr, 1) X") == ForallX(
        imp(Box(0, X), Opt("gbr", 0, X))
    )


def test_parse_errors():
    for text, message in [
        ("[0] X", "1-based player index"),
        ("rat()", "condition name"),
        ("nu Y . X", "expected 'X'"),
        ("(X", r"expected '\)'"),
        ("", "unexpected end"),
        ("X X", "unexpected 'X'"),
        # indices are ASCII digits: int() refuses '²' and would read '٣' as 3
        ("[²] X", "1-based player index"),
        ("rat(gbr, ²)", "1-based player index"),
        ("[٣] X", "1-based player index"),
    ]:
        with pytest.raises(FormulaSyntaxError, match=message):
            parse_nu(text)


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="nested deeper than") as exc:
        parse_nu("not " * 1000 + "rat(gbr)")
    assert (exc.value.line, exc.value.column) == (1, 4 * MAX_NESTING + 1)
    for text in (
        "(" * 1000 + "X" + ")" * 1000,
        "CB " * 1000 + "X",
        " -> ".join(["X"] * 1000),
        " or ".join(["X"] * 1000),
    ):
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_nu(text)
    # right at the bound still parses and evaluates
    deep = parse_nu("box " * (MAX_NESTING - 1) + "rat(lsd, 1)")
    assert interpret(single_state_model(), deep) == {"w"}


def tree_height(node) -> int:
    return 1 + max((tree_height(v) for v in vars(node).values() if isinstance(v, Value)), default=0)


BUILDER_TEMPLATES = (
    # (parser, atoms, templates): each template wraps the text so far once
    (parse_lo, ("C(x)", "x > o @ y"), (
        "not {}", "exists x . {}", "exists x in C . {}", "forall x . {}", "forall x in C . {}",
        "{} and C(y)", "{} or C(y)", "C(y) -> {}",
    )),
    (parse_nu, ("rat(gbr)", "X"), (
        "not {}", "box {}", "[1] {}", "CB {}", "O(gbr) {}", "nu X . {}", "forall X . {}",
        "{} and X", "{} or X", "X -> {}",
    )),
)


@pytest.mark.parametrize("parse, atoms, templates", BUILDER_TEMPLATES, ids=("conditions", "modal"))
def test_every_builder_counts_the_height_it_builds(parse, atoms, templates, monkeypatch):
    """Each construct, wrapped k times around an atom, is refused exactly
    when the tree it expands to is deeper than the bound, as a walk of the
    unbounded parse measures it, and otherwise parses to that tree."""
    for atom, template in product(atoms, templates):
        texts = [atom]
        for _ in range(70):
            texts.append(template.format(texts[-1]))
        with monkeypatch.context() as unbounded:
            unbounded.setattr(conditions, "MAX_NESTING", 10**4)
            trees = list(map(parse, texts))
        for k, (text, tree) in enumerate(zip(texts, trees)):
            if tree_height(tree) > MAX_NESTING:
                with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
                    parse(text)
            elif k <= MAX_NESTING - 4:  # the parentheses and prefixes open stay inside the bound
                assert parse(text) == tree, (template, atom, k)


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_nu, " or ".join(["X"] * 30), (1, 113)),
        (parse_nu, " -> ".join(["X"] * 30), (1, 147)),
        (parse_nu, "CB " * 25 + "X", (1, 77)),
        (parse_lo, "forall x in C . " * 20 + "C(x)", (1, 325)),
        (parse_lo, " and\n".join(["C(x)"] * 70), (65, 6)),
        (parse_nu, "not " * 70 + "X", (1, 257)),
    ],
    ids=("or", "implies", "CB", "forall-in", "and-lines", "not"),
)
def test_a_depth_refusal_points_where_the_bound_is_passed(parse, text, position):
    """The refusal's line and column: the token after the part whose tree
    first passes the bound, or the prefix that opens one level too many."""
    with pytest.raises(FormulaSyntaxError, match="nested deeper than") as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == position


def test_match_imp():
    f = imp(X, Rat("gbr", None))
    assert match_imp(f) == (X, Rat("gbr", None))
    assert match_imp(Conj(X, X)) is None


def test_both_languages_share_one_propositional_core():
    assert Neg is conditions.Neg and Conj is conditions.Conj
    assert match_imp(parse_lo("C(x) -> C(y)")) == (CtxAtom("x"), CtxAtom("y"))
    lo = parse_lo("not (C(x) or C(y))")
    nu = parse_nu("not (X or rat(gbr))")
    assert lo == Neg(Neg(Conj(Neg(CtxAtom("x")), Neg(CtxAtom("y")))))
    assert nu == Neg(Neg(Conj(Neg(X), Neg(Rat("gbr", None)))))
    assert type(lo) is type(nu) is conditions.Neg
    assert type(lo.body.body) is type(nu.body.body) is conditions.Conj


def test_pretty_round_trip_fixtures():
    texts = [
        "rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X",
        "rat(lsd, 1) -> rat(gsd, 2)",
        "(CB (nu X . X and rat(gbr)))",
        "forall X . [1] X -> O(gbr, 1) X",
        "not box not rat(lsd)",
        "nu X . CB X",
    ]
    for text in texts:
        f = parse_nu(text)
        assert parse_nu(pretty_nu(f)) == f


nu_formulas = st.recursive(
    st.one_of(
        st.just(X),
        st.builds(Rat, st.sampled_from(["lsd", "gsd", "gbr"]), st.sampled_from([None, 0, 1])),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Conj, inner, inner),
        st.builds(Box, st.sampled_from([None, 0, 1]), inner),
        st.builds(Opt, st.sampled_from(["lsd", "gbr"]), st.sampled_from([None, 0]), inner),
        st.builds(Nu, inner),
        st.builds(ForallX, inner),
    ),
    max_leaves=10,
)


@given(nu_formulas)
def test_pretty_round_trip(f):
    assert parse_nu(pretty_nu(f)) == f


# --- structural helpers --------------------------------------------------------


def test_substitution_stops_at_binders():
    replacement = Rat("gbr", None)
    assert substitute_x(X, replacement) == replacement
    assert substitute_x(Conj(X, Nu(X)), replacement) == Conj(replacement, Nu(X))
    assert substitute_x(ForallX(X), replacement) == ForallX(X)
    assert substitute_x(Box(0, Neg(X)), replacement) == Box(0, Neg(replacement))


def test_free_x_and_nu_free():
    assert has_free_x(Conj(Rat("lsd", None), X))
    assert not has_free_x(Nu(X))
    assert nu_free(imp(Box(0, X), Opt("gbr", 0, X)))
    assert not nu_free(common_belief_formula(Rat("gbr", None)))


def test_positivity_in_x():
    assert positive_in_x(Opt("gbr", None, X), REGISTRY)
    assert not positive_in_x(Opt("lsd", None, X), REGISTRY)
    assert positive_in_x(Neg(Neg(X)), REGISTRY)
    assert not positive_in_x(Neg(X), REGISTRY)
    assert positive_in_x(Box(0, Conj(X, Rat("lsd", None))), REGISTRY)
    assert positive_in_x(Nu(Neg(X)), REGISTRY)  # the occurrence is bound
    assert not positive_in_x(Opt("gbr", None, Neg(X)), REGISTRY)


# --- interpretation -------------------------------------------------------------


def single_state_model():
    return parse_model(
        "states: w\nplays 1: w=D\nplays 2: w=L\n"
        "possible 1: w={w}\npossible 2: w={w}\n",
        fig1_right(),
    )


def test_single_state_rationality_facts():
    m = single_state_model()
    assert interpret(m, Rat("lsd", 0)) == {"w"}
    assert interpret(m, Rat("gsd", 0)) == frozenset()
    assert interpret(m, Rat("gbr", 0)) == frozenset()
    # bundled form is the intersection over the players
    assert interpret(m, Rat("lsd", None)) == interpret(m, Rat("lsd", 0)) & interpret(
        m, Rat("lsd", 1)
    )


def test_free_x_defaults_to_the_universe():
    m = single_state_model()
    assert interpret(m, X) == m.universe
    assert interpret(m, X, env=frozenset()) == frozenset()


def test_environment_outside_the_model_is_refused():
    m = single_state_model()
    for run in (interpret, interpret_so):
        with pytest.raises(ModalError, match="unknown state 'zz'"):
            run(m, X, env=frozenset({"zz"}))
        with pytest.raises(ModalError, match="unknown state 'zz'"):
            run(m, Rat("gbr", None), env=frozenset({"w", "zz"}))


def test_trivial_body_fixpoint_is_the_universe():
    m = fixture_two_state()
    assert interpret(m, Nu(X)) == m.universe


def fixture_two_state():
    return parse_model(
        "states: w1 w2\n"
        "plays 1: w1=U w2=D\n"
        "plays 2: w1=L w2=R\n"
        "possible 1: w1={w1} w2={w1,w2}\n"
        "possible 2: w1={w1} w2={w2}\n",
        fig1_right(),
    )


def test_common_belief_formula_matches_iterative_oracle():
    bodies = [Rat("lsd", None), Rat("gbr", None), Box(0, Rat("gsd", 1))]
    for m in islice(sample_belief_models(fig1_right(), 150, 3, seed=9), 150):
        for body in bodies:
            fixpoint = interpret(m, common_belief_formula(body))
            assert fixpoint == naive_common_belief(m, interpret(m, body))


def test_nu_unfolds_to_itself():
    bodies = [
        Box(None, Conj(X, Rat("lsd", None))),
        Opt("gbr", None, X),
        Conj(X, Rat("gsd", None)),
    ]
    for m in islice(sample_belief_models(fig1_right(), 100, 3, seed=10), 100):
        for body in bodies:
            fix = interpret(m, Nu(body))
            assert fix <= interpret(m, body, env=fix)


def test_environment_is_irrelevant_without_free_x():
    closed = [Rat("gbr", None), common_belief_formula(Rat("lsd", None)), Nu(X)]
    for m in islice(sample_belief_models(fig1_right(), 60, 3, seed=11), 60):
        for f in closed:
            assert interpret(m, f, env=frozenset()) == interpret(m, f, env=m.universe)


def test_positive_bodies_are_monotone_in_x():
    bodies = [Opt("gbr", None, X), Box(None, Conj(X, Rat("lsd", None))), Neg(Neg(X))]
    for m in islice(sample_belief_models(fig1_right(), 60, 3, seed=12), 60):
        events = sorted(subsets(sorted(m.universe)), key=len)
        for body in bodies:
            for small in events:
                for large in events:
                    if small <= large:
                        assert interpret(m, body, env=small) <= interpret(
                            m, body, env=large
                        )


def test_substitution_agrees_with_environment_shift():
    chi = Box(0, Rat("lsd", None))
    bodies = [X, Neg(X), Conj(X, Rat("gbr", None)), Opt("gbr", None, X), Nu(X)]
    for m in islice(sample_belief_models(fig1_right(), 80, 3, seed=13), 80):
        env = interpret(m, chi)
        for body in bodies:
            assert interpret(m, substitute_x(body, chi)) == interpret(m, body, env=env)


def test_nu_via_postfixpoints_agrees():
    bodies = [
        X,
        Box(None, Conj(X, Rat("lsd", None))),
        Opt("gbr", None, X),
    ]
    for m in islice(sample_belief_models(fig1_right(), 80, 3, seed=14), 80):
        for body in bodies:
            assert nu_via_postfixpoints(m, body) == interpret(m, Nu(body))


def test_nu_via_postfixpoints_guards():
    m = single_state_model()
    with pytest.raises(ModalError, match="positive in X"):
        nu_via_postfixpoints(m, Opt("lsd", None, X))
    with pytest.raises(ModalError, match="positive in X"):
        nu_via_postfixpoints(m, Neg(X))


def big_model(states_count):
    g = fig1_right()
    states = tuple(f"s{k}" for k in range(states_count))
    plays = ((0,) * states_count,) * 2  # U and L
    possible = (tuple(1 << k for k in range(states_count)),) * 2
    return BeliefModel(g, states, plays, possible)


def test_state_count_guards():
    huge = big_model(21)
    for run in (interpret, interpret_so):
        with pytest.raises(ModalError, match="limited to 20 states"):
            run(huge, ForallX(X))
        # the limit holds only for formulas with forall X
        assert run(huge, Rat("gbr")) == huge.universe
    with pytest.raises(ModalError, match="limited to 20 states"):
        nu_via_postfixpoints(huge, X)


# --- second-order quantification ------------------------------------------------


def test_forall_x_of_x_is_empty():
    m = fixture_two_state()
    assert interpret_so(m, ForallX(X)) == frozenset()


def test_forall_x_instantiates():
    body = imp(Box(0, X), Opt("gbr", 0, X))
    for m in islice(sample_belief_models(fig1_right(), 60, 3, seed=15), 60):
        bundled = interpret_so(m, ForallX(body))
        for event in subsets(sorted(m.universe)):
            assert bundled <= interpret(m, body, env=event)


def second_order_rat(condition, player):
    return ForallX(imp(Box(player, X), Opt(condition, player, X)))


def test_second_order_rationality_matches_primitive_for_monotone_conditions():
    for m in islice(sample_belief_models(fig1_right(), 120, 3, seed=16), 120):
        for condition in ("gbr", "gsd"):
            for player in (0, 1):
                assert interpret_so(m, second_order_rat(condition, player)) == interpret(
                    m, Rat(condition, player)
                )


def test_second_order_rationality_diverges_for_non_monotone_condition():
    m = next(islice(enumerate_belief_models(fig1_left(), 2), 1040, None))
    assert interpret_so(m, second_order_rat("lsd", 0)) == {"w1"}
    assert interpret(m, Rat("lsd", 0)) == {"w1", "w2"}


def test_first_order_interpreter_rejects_forall():
    # interpret refuses forall X only on models past the second-order limit
    with pytest.raises(ModalError, match="second-order interpretation is limited"):
        interpret(big_model(21), ForallX(X))
    assert interpret(single_state_model(), ForallX(X)) == frozenset()


# --- error paths ----------------------------------------------------------------


def test_unknown_condition():
    with pytest.raises(KeyError, match="unknown condition"):
        interpret(single_state_model(), Rat("nope", None))


def test_context_unsafe_condition_rejected():
    registry = ConditionRegistry.standard().copy()
    registry.register("selfctx", parse_lo("C(o)"))  # closed but not context-safe
    with pytest.raises(ModalError, match="not context-safe"):
        interpret(single_state_model(), Rat("selfctx", None), registry=registry)


def test_player_index_out_of_range():
    with pytest.raises(ModalError, match="player index 6 out of range"):
        interpret(single_state_model(), Rat("gbr", 5))


# --- validity search --------------------------------------------------------------


def test_validity_counterexamples_are_found_early():
    report = check_validity(fig1_right(), Rat("gbr", None), max_states=2)
    assert not report.valid and report.models_checked == 1
    m = report.countermodel
    assert interpret(m, Rat("gbr", None)) != m.universe

    report = check_validity(fig1_right(), Rat("lsd", None), max_states=2)
    assert not report.valid and report.models_checked == 274


def test_validity_sampled_mode():
    implication = parse_nu("rat(gbr) -> rat(lsd)")
    report = check_validity(fig1_right(), implication, samples=80, seed=4)
    assert report.valid and report.models_checked == 80


def test_validity_refuses_an_empty_search():
    # no verdict may rest on zero models, though rat(gbr) has countermodels
    for kwargs in ({"max_states": 0}, {"max_states": -1}, {"samples": 0}, {"samples": 5, "max_states": 0}):
        with pytest.raises(ModalError, match="at least 1"):
            check_validity(fig1_right(), Rat("gbr", None), **kwargs)


def test_validity_handles_second_order_formulas():
    tautology = ForallX(imp(X, X))
    report = check_validity(fig1_right(), tautology, max_states=1)
    assert report.valid and report.models_checked == 16


def test_validity_bounds_second_order_search():
    # the parent drew a 22-state model here and spent about ten seconds on it
    tautology = parse_nu("forall X . (X or not X)")
    with pytest.raises(ModalError, match="limited to 20 states"):
        check_validity(fig1_left(), tautology, samples=1, max_states=24, seed=19)
    with pytest.raises(ModalError, match="limited to 20 states"):
        check_validity(fig1_left(), X, samples=1, max_states=21)
    report = check_validity(fig1_left(), tautology, samples=3, max_states=5, seed=19)
    assert report.valid and report.models_checked == 3
    # a sampled first-order sweep draws K**2 coins per player and model
    first_order = parse_nu("rat(gbr) or not rat(gbr)")
    with pytest.raises(ModalError, match="sampled validity checks are limited to 20 states"):
        check_validity(fig1_left(), first_order, samples=3, max_states=100_000)
    report = check_validity(fig1_left(), first_order, samples=3, max_states=20)
    assert report.valid and report.models_checked == 3


def test_validity_reads_a_free_x_universally():
    game = fig1_left()
    for text, valid, checked in [
        ("X", False, 1),
        ("O(gbr) X -> O(lsd) X", True, 4_112),
        ("O(gbr) X -> O(gsd) X", True, 4_112),
        ("O(lsd) X -> O(gbr) X", False, 1),
    ]:
        formula = parse_nu(text)
        report = check_validity(game, formula, max_states=2)
        assert (report.valid, report.models_checked) == (valid, checked), text
        assert report == check_validity(game, ForallX(formula), max_states=2)


def test_iter_subformulas():
    f = imp(Box(0, X), Opt("gbr", 0, X))
    kinds = {type(g).__name__ for g in iter_subformulas(f)}
    assert kinds == {"Neg", "Conj", "Box", "Opt", "SetVar"}


# --- the bitmask evaluator against the set-based reference ------------------------


@st.composite
def models_over(draw, game):
    """A belief model over the game with 1-4 states."""
    size = draw(st.integers(1, 4))
    plays = tuple(tuple(draw(st.integers(0, len(names) - 1)) for _ in range(size)) for names in game.strategies)
    possible = tuple(tuple(draw(st.integers(0, (1 << size) - 1)) for _ in range(size)) for _ in game.strategies)
    return model_of_masks(game, plays, possible)


@st.composite
def small_models(draw):
    """A game with 1-3 players, 1-3 strategies each and payoffs in 0..2, and
    a belief model over it with 1-4 states."""
    return draw(models_over(draw(tied_games())))


def modal_formulas(players):
    tags = st.one_of(st.none(), st.integers(0, players - 1))
    conditions = st.sampled_from(("lsd", "gsd", "gbr"))
    leaves = st.one_of(st.builds(Rat, conditions, tags), st.just(X))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Conj, inner, inner),
            st.builds(Box, tags, inner),
            st.builds(Opt, conditions, tags, inner),
            st.builds(Nu, inner),
            st.builds(ForallX, inner),
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpret_matches_naive_reference(data):
    m = data.draw(small_models())
    formula = data.draw(modal_formulas(m.game.n))
    env = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(m.states)).map(frozenset)))
    expected = naive_interpret(m, formula, env)
    assert interpret_so(m, formula, env) == expected
    assert interpret(m, formula, env) == expected


# The formulas the cli benchmark workload expects check-valid to refute.
REFUTABLE = (
    "rat(gbr)",
    "CB rat(gbr) -> rat(gbr)",
    "not rat(lsd)",
    "rat(gsd) and CB rat(gsd)",
    "box rat(gbr)",
)


def naive_sweep(formula, models):
    """(models checked, first countermodel) of a plain loop over the models."""
    checked = 0
    for m in models:
        checked += 1
        if naive_interpret(m, formula) != m.universe:
            return checked, m
    return checked, None


def test_validity_sweep_matches_naive_loop():
    game = fig1_left()
    for text in REFUTABLE:
        formula = parse_nu(text)
        checked, countermodel = 0, None
        for m in enumerate_belief_models(game, 2):
            checked += 1
            if naive_interpret(m, formula) != m.universe:
                countermodel = m
                break
        report = check_validity(game, formula, max_states=2)
        assert (report.models_checked, report.countermodel) == (checked, countermodel), text
    # sampled sweeps draw the same models as sample_belief_models
    for game, states in product((fig1_left(), fig2()), (3, 4)):
        for text in REFUTABLE:
            formula = parse_nu(text)
            expected = naive_sweep(formula, sample_belief_models(game, 40, states, seed=11))
            report = check_validity(game, formula, max_states=states, samples=40, seed=11)
            assert (report.models_checked, report.countermodel) == expected, (text, states)
    # one valid theorem per bundled game, exhaustive to 1 state and sampled
    theorems = (
        "rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X",
        "rat(gsd) and CB rat(gsd) -> nu X . O(gsd) X",
        "rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X",
    )
    for game, text in zip(bundled_games(), theorems):
        formula = parse_nu(text)
        expected = naive_sweep(formula, enumerate_belief_models(game, 1))
        report = check_validity(game, formula, max_states=1)
        assert (report.models_checked, report.countermodel) == expected == (report.models_checked, None)
        expected = naive_sweep(formula, sample_belief_models(game, 60, 4, seed=5))
        report = check_validity(game, formula, max_states=4, samples=60, seed=5)
        assert (report.models_checked, report.countermodel) == expected == (60, None)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([g for g in generated_games() if len(g.payoffs) == 4]), modal_formulas(2))
def test_exhaustive_sweeps_match_the_naive_loop(game, formula):
    """Consecutive models of a sweep share their plays while their
    possibility sets change; each must still be judged on its own."""
    closed = ForallX(formula) if has_free_x(formula) else formula
    checked, countermodel = 0, None
    for m in enumerate_belief_models(game, 2):
        checked += 1
        if naive_interpret(m, closed) != m.universe:
            countermodel = m
            break
    report = check_validity(game, formula, max_states=2)
    assert (report.models_checked, report.countermodel) == (checked, countermodel), pretty_nu(formula)


# --- the program on blocks against the program on single models ----------------


def per_model_sweep(game, formula, max_states):
    """(models checked, first countermodel) of the program run on each
    enumerated model in turn, as a single model in mask form."""
    run = _program(game, ForallX(formula) if has_free_x(formula) else formula, REGISTRY)
    checked = 0
    for plays, possible in enumerate_model_masks(game, max_states):
        checked += 1
        model = _Model(plays, _profiles(_game_layout(game), plays), possible)
        if run(model, model.universe) != model.universe:
            return checked, model_of_masks(game, plays, possible)
    return checked, None


def check_lanes(game, formula, states, env, picked):
    """Every lane of the picked windows of a sweep against the same program
    on the lane's single model, with X denoting the state mask env."""
    run = _program(game, formula, REGISTRY)
    checked = 0
    for index, block in enumerate(_slices(game, states)):
        if index not in picked:
            continue
        result = run(block, _Lanes(block.full if env >> v & 1 else 0 for v in range(states)))
        for lane in range(block.full.bit_length()):
            plays, possible = block.masks(lane)
            model = _Model(plays, _profiles(_game_layout(game), plays), possible)
            held = sum((vector >> lane & 1) << k for k, vector in enumerate(result))
            assert held == run(model, env), (index, lane)
            checked += 1
    assert checked


def slice_count(game, states):
    return sum(1 for _ in _slices(game, states))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_lanes_match_the_per_model_program(data):
    """Non-positive nu bodies and free X included: each lane is its own
    model's computation."""
    game = data.draw(st.sampled_from(bundled_games() + generated_games()))
    formula = data.draw(modal_formulas(2))
    states = data.draw(st.integers(1, 2))
    picked = data.draw(st.sets(st.integers(0, slice_count(game, states) - 1), min_size=1, max_size=2))
    check_lanes(game, formula, states, data.draw(st.integers(0, (1 << states) - 1)), picked)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_sliced_blocks_match_the_per_model_program(data):
    """Three players with vectors of at most 4 lanes: every plays block is
    cut into slices that fix the leading players' rows."""
    game = data.draw(tied_games().filter(lambda g: g.n == 3))
    formula = data.draw(modal_formulas(3))
    states = data.draw(st.integers(1, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modal, "BLOCK_BITS", 2)
        picked = data.draw(st.sets(st.integers(0, slice_count(game, states) - 1), min_size=1, max_size=3))
        check_lanes(game, formula, states, data.draw(st.integers(0, (1 << states) - 1)), picked)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_merged_and_sliced_windows_match_the_per_model_program(data):
    """Three players with windows of at most 16 lanes: a 1-state window
    holds two plays blocks of 8 lanes, and a 2-state plays block of 4,096
    models is cut into slices of 16."""
    game = data.draw(tied_games().filter(lambda g: g.n == 3))
    formula = data.draw(modal_formulas(3))
    states = data.draw(st.integers(1, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modal, "BLOCK_BITS", 4)
        picked = data.draw(st.sets(st.integers(0, slice_count(game, states) - 1), min_size=1, max_size=3))
        check_lanes(game, formula, states, data.draw(st.integers(0, (1 << states) - 1)), picked)


def test_the_first_window_holds_one_plays_block():
    """A countermodel in the first plays block costs that block alone: the
    kernel is asked only about contexts of its plays."""
    game = parse_game(format_game(fig1_right()))  # its survivor tables start empty
    report = check_validity(game, parse_nu("rat(gbr)"), max_states=2)
    assert (report.valid, report.models_checked) == (False, 1)
    # plays U and L at the one state: possibility sets {} or {w1}
    first = {0, _profiles(_game_layout(game), ((0,), (0,)))[0]}
    memo = survivor_table(game, builtin("gbr")).memo
    assert any(memo) and all(set(contexts) <= first for contexts in memo)


def test_windows_of_plays_blocks_shorter_than_a_byte():
    """A one-player game's 1-state plays blocks have 2 lanes, so a window
    packs the lanes of four of them into one byte."""
    names = tuple(f"s{k}" for k in range(5))
    game = Game((names,), {(name,): (Fraction(k % 3),) for k, name in enumerate(names)})
    assert [len(block.plays) for block in _slices(game, 1)] == [1, 4]
    for text in REFUTABLE + THEOREMS + ("O(gbr) X -> O(lsd) X",):
        formula = parse_nu(text)
        for states in (1, 2):
            report = check_validity(game, formula, max_states=states)
            assert (report.models_checked, report.countermodel) == per_model_sweep(game, formula, states), text
            check_lanes(game, formula, states, 1, {1})


THEOREMS = (
    "rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X",
    "rat(gsd) and CB rat(gsd) -> nu X . O(gsd) X",
    "rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X",
)


@pytest.mark.parametrize("block_bits", [modal.BLOCK_BITS, 1, 10], ids=["whole", "sliced", "merged"])
def test_exhaustive_counts_and_countermodels_are_exact(block_bits, monkeypatch):
    monkeypatch.setattr(modal, "BLOCK_BITS", block_bits)
    for game, valid_count in zip(bundled_games(), (4_112, 4_112, 9_240)):
        for text in REFUTABLE + THEOREMS:
            formula = parse_nu(text)
            for states in (1, 2):
                report = check_validity(game, formula, max_states=states)
                expected = per_model_sweep(game, formula, states)
                assert (report.models_checked, report.countermodel) == expected, (text, states)
                assert report.valid == (expected[1] is None)
            assert report.valid == (text in THEOREMS)
            if report.valid:
                assert report.models_checked == valid_count


def test_block_programs_refuse_as_the_per_model_program_does():
    for text in ("rat(nope) and rat(gbr, 5)", "rat(gbr, 5) and rat(nope)", "O(nope, 7) X", "[9] rat(nope)"):
        refusals = []
        for kwargs in ({"max_states": 2}, {"samples": 3}):
            with pytest.raises((KeyError, ModalError)) as exc:
                check_validity(fig1_left(), parse_nu(text), **kwargs)
            refusals.append((type(exc.value), str(exc.value)))
        assert refusals[0] == refusals[1], text


def test_interpret_and_both_sweeps_share_one_program():
    game = copy.copy(fig1_right())  # starts without caches
    m = BeliefModel(game, ("w1",), ((0,), (0,)), ((1,),) * 2)
    formula = parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X")
    assert interpret(m, formula) == frozenset({"w1"})
    assert check_validity(game, formula, max_states=1).valid
    assert check_validity(game, formula, samples=3).valid
    programs = [key for key in game.modal_cache if isinstance(key, tuple) and key[0] == formula]
    assert len(programs) == 1


def test_a_three_state_sweep_is_exact():
    formula = parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X")
    assert check_validity(fig1_left(), formula, max_states=3) == ValidityReport(True, None, 16_781_328)
    with pytest.raises(EnumerationLimitError, match="^exhaustive enumeration is limited to 3 states$"):
        # refused before the unknown condition is looked up
        check_validity(fig1_left(), Rat("nope"), max_states=4)


def square_game(size: int) -> Game:
    names = tuple(f"s{k}" for k in range(size))
    return Game((names, names), {p: (Fraction(p[0][1:]), Fraction(p[1][1:])) for p in product(names, names)})


def test_the_model_count_is_the_enumeration_length():
    one = Game((("a",), ("b",), ("c",)), {("a", "b", "c"): (Fraction(0),) * 3})
    cases = [(square_game(1), 3), (fig1_right(), 2), (fig2(), 2), (one, 2), (generated_games()[0], 1)]
    for game, states in cases:
        for k in range(1, states + 1):
            assert exhaustive_model_count(game, k) == sum(1 for _ in enumerate_model_masks(game, k)), (game, k)
    assert exhaustive_model_count(fig2(), 3) == 56_632_344


def test_exhaustive_sweeps_past_the_model_budget_are_refused_before_any_work():
    # a 5x5 game's 3-state sweep (about 11 s) is inside the budget
    assert exhaustive_model_count(square_game(5), 3) == 4_096_160_100 <= MAX_EXHAUSTIVE_MODELS
    assert exhaustive_model_count(square_game(8), 2) <= MAX_EXHAUSTIVE_MODELS
    game = square_game(8)
    count = exhaustive_model_count(game, 3)
    assert count == 68_720_525_568 > MAX_EXHAUSTIVE_MODELS
    with pytest.raises(EnumerationLimitError, match="would check 68,720,525,568 models"):
        check_validity(game, parse_nu("rat(gbr) -> box rat(gbr)"), max_states=3)
    assert "modal_cache" not in vars(game)  # no program was compiled
    # the largest sweep CI runs still runs
    formula = parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X")
    assert check_validity(fig2(), formula, max_states=3) == ValidityReport(True, None, 56_632_344)


def pinned(states, plays, possible):
    """A two-player model in the text format."""
    lines = [f"states: {states}", f"plays 1: {plays[0]}", f"plays 2: {plays[1]}"]
    return "\n".join(lines + [f"possible 1: {possible[0]}", f"possible 2: {possible[1]}", ""])


# the exhaustive order decides every exhaustive count and first countermodel;
# these models were enumerated before belief models moved to mask form
PINS_2X2 = {
    0: pinned("w1", ("w1=U", "w1=L"), ("w1={}", "w1={}")),
    15: pinned("w1", ("w1=D", "w1=R"), ("w1={w1}", "w1={w1}")),
    16: pinned("w1 w2", ("w1=U w2=U", "w1=L w2=L"), ("w1={} w2={}", "w1={} w2={}")),
    # the countermodel check-valid prints for 'rat(gbr) -> box rat(gbr)'
    33: pinned("w1 w2", ("w1=U w2=U", "w1=L w2=L"), ("w1={} w2={w1}", "w1={} w2={w1}")),
    4_111: pinned("w1 w2", ("w1=D w2=D", "w1=R w2=R"), ("w1={w1,w2} w2={w1,w2}",) * 2),
}
PINS_FIG2 = {
    0: pinned("w1", ("w1=U", "w1=L"), ("w1={}", "w1={}")),
    1: pinned("w1", ("w1=U", "w1=L"), ("w1={}", "w1={w1}")),
    2: pinned("w1", ("w1=U", "w1=L"), ("w1={w1}", "w1={}")),
    23: pinned("w1", ("w1=D", "w1=R"), ("w1={w1}", "w1={w1}")),
    24: pinned("w1 w2", ("w1=U w2=U", "w1=L w2=L"), ("w1={} w2={}", "w1={} w2={}")),
    25: pinned("w1 w2", ("w1=U w2=U", "w1=L w2=L"), ("w1={} w2={}", "w1={} w2={w1}")),
    1_637: pinned("w1 w2", ("w1=U w2=M", "w1=R w2=L"), ("w1={w1} w2={}", "w1={w1,w2} w2={w1}")),
    9_239: pinned("w1 w2", ("w1=D w2=D", "w1=R w2=R"), ("w1={w1,w2} w2={w1,w2}",) * 2),
}


@pytest.mark.parametrize(
    "game, count, pins", [(fig1_right(), 4_112, PINS_2X2), (fig2(), 9_240, PINS_FIG2)], ids=["2x2", "fig2"]
)
def test_mask_enumeration_is_the_model_enumeration(game, count, pins):
    masks = list(enumerate_model_masks(game, 2))
    assert len(masks) == count
    assert {k: format_model(model_of_masks(game, *masks[k])) for k in pins} == pins
    assert [model_of_masks(game, *pair) for pair in masks] == list(enumerate_belief_models(game, 2))
    # a plays block, the models one block vector holds, is a run of
    # consecutive models with one plays tuple
    assert len({id(plays) for plays, _ in masks}) < len(masks)
    with pytest.raises(ValueError, match="limited to 3 states"):
        enumerate_model_masks(game, 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_programs_carry_nothing_between_models(data):
    """Several models of one game in a row share each formula's compiled
    program; every result must still match the reference."""
    game = data.draw(tied_games())
    formulas = data.draw(st.lists(modal_formulas(game.n), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(2, 5))):
        m = data.draw(models_over(game))
        for formula in formulas:
            expected = naive_interpret(m, formula)
            assert interpret_so(m, formula) == expected, formula


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_programs_interleaved_on_one_model_start_fresh(m):
    """Programs with different rat atoms run in turn on one model, which the
    game keeps in mask form between the calls; they share that model's
    memo of rationality atoms, keyed by (survivor table, player), so each
    must read only the entries of its own atoms."""
    one = parse_nu("rat(gbr) and CB rat(gbr)")  # memoises rat(gbr)
    two = parse_nu("CB rat(lsd) and not rat(gsd)")  # adds rat(lsd), rat(gsd)
    # reads rat(lsd) inside a binder, next to the rat(gbr) that `one` left
    so = parse_nu("forall X . [1] X -> O(gsd, 1) (X and rat(lsd))")
    for run, formula in ((interpret, one), (interpret, two), (interpret_so, so), (interpret, one)):
        assert run(m, formula) == naive_interpret(m, formula), pretty_nu(formula)



def test_conjunction_skips_its_right_side_when_the_left_is_empty():
    """An empty left operand settles a conjunction, so its right operand is
    never run: here the lsd survivor table is never consulted."""
    game = parse_game(format_game(fig1_right()))  # its survivor tables start empty
    # nothing is possible, so no context profile exists and rat(gbr) fails
    m = BeliefModel(game, ("w1",), ((0,), (0,)), ((0,),) * 2)
    formula = parse_nu("rat(gbr) and O(lsd) X")
    assert interpret(m, formula) == frozenset() == naive_interpret(m, formula)
    assert survivor_table(game, builtin("lsd")).memo == ({}, {})


def test_rationality_stops_at_the_first_irrational_player():
    """``rat(gbr)`` over both players is settled once player 1 is
    irrational everywhere, so player 2's survivors are never asked for."""
    game = parse_game(format_game(fig1_right()))  # its survivor tables start empty
    # the dominated D, played where only (D, R) is possible
    m = BeliefModel(game, ("w1",), ((1,), (1,)), ((1,),) * 2)
    assert interpret(m, Rat("gbr", None)) == frozenset() == naive_interpret(m, Rat("gbr", None))
    first, second = survivor_table(game, builtin("gbr")).memo
    assert first and not second


def test_the_game_does_not_keep_interpreted_models_alive():
    game = Game(fig1_right().strategies, dict(fig1_right().payoffs))
    m = BeliefModel(game, ("w1",), ((0,), (0,)), ((1,),) * 2)
    gc.disable()  # only reference counts may free the model
    try:
        assert interpret(m, Rat("gbr", None)) == frozenset({"w1"})
        gone = weakref.ref(m)
        del m
        assert gone() is None
    finally:
        gc.enable()


def test_games_pickle_without_their_caches():
    game = Game(fig1_right().strategies, dict(fig1_right().payoffs))
    m = BeliefModel(game, ("w1",), ((0,), (0,)), ((1,),) * 2)
    assert interpret(m, Rat("gbr", None)) == frozenset({"w1"})
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and "modal_cache" not in vars(copy.game)
    assert interpret(copy, Rat("gbr", None)) == frozenset({"w1"})


def test_programs_are_cached_per_registry():
    # the dominated D is locally undominated where nothing else is possible
    m = BeliefModel(fig1_right(), ("w1",), ((1,), (1,)), ((1,),) * 2)
    assert interpret(m, Rat("gbr", 0)) == frozenset()
    # the same name, formula and game under another registry is another program
    renamed = ConditionRegistry()
    renamed.register("gbr", builtin("lsd"))
    assert interpret(m, Rat("gbr", 0), registry=renamed) == frozenset({"w1"})
    assert interpret(m, Rat("gbr", 0)) == frozenset()


def test_the_program_cache_is_bounded():
    game = copy.copy(fig1_right())  # starts without caches
    m = BeliefModel(game, ("w1", "w2"), ((0, 1), (0, 1)), ((0b11, 0b10), (0b00, 0b01)))
    atoms = [kind(c, p) for kind in (Rat, lambda c, p: Opt(c, p, X)) for c in ("lsd", "gsd", "gbr") for p in (None, 0, 1)]
    sizes = []
    for k, formula in enumerate(islice((Conj(a, Box(None, b)) for a, b in product(atoms, atoms)), 300)):
        result = interpret(m, formula)
        sizes.append(len(game.modal_cache))
        if k % 25 == 0:
            assert result == naive_interpret(m, formula), k
    assert max(sizes) <= MAX_CACHED_PROGRAMS == 256
    assert any(after < before for before, after in zip(sizes, sizes[1:]))  # emptied once full
