from fractions import Fraction
from itertools import accumulate, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from epigame.beliefs import BeliefModel
from epigame.conditions import (
    BUILTIN_CONDITION_TEXT,
    MAX_NESTING,
    ConditionRegistry,
    Conj,
    CtxAtom,
    Exists,
    FormulaSyntaxError,
    GeqAtom,
    Neg,
    OptimalityModel,
    UnboundVariableError,
    analyze,
    builtin,
    models,
    parse_condition_file,
    parse_lo,
    pretty_lo,
    satisfies,
)
from epigame.games import Game, Restriction, bundled_games, bundled_text, parse_game, restrictions
from epigame.modal import ModalError, Rat, SurvivorTable, check_validity, interpret, parse_nu, survivor_table
from epigame.operators import ConditionOperator, OperatorError, condition_operator, iterate
from epigame.optimality import optimal_strategies, plan
from epigame.oracles import (
    enumerate_optimality_models,
    fig1_left,
    fig1_right,
    fig2,
    free_variables,
    generated_conditions,
    generated_games,
    naive_eliminate,
    naive_optimal_strategies,
)


def test_builtin_asts():
    geq = GeqAtom("o", "y", "z")
    assert builtin("gbr") == Exists("z", Conj(CtxAtom("z"), Neg(Exists("y", Neg(geq)))))
    assert builtin("gsd") == Neg(
        Exists("y", Neg(Exists("z", Conj(CtxAtom("z"), geq))))
    )
    assert builtin("lsd") == Neg(
        Exists("y", Conj(CtxAtom("y"), Neg(Exists("z", Conj(CtxAtom("z"), geq)))))
    )
    with pytest.raises(KeyError, match="unknown builtin"):
        builtin("nope")


def test_surface_abbreviations_expand():
    a, b = CtxAtom("x"), CtxAtom("y")
    assert parse_lo("C(x) -> C(y)") == Neg(Conj(a, Neg(b)))
    assert parse_lo("C(x) or C(y)") == Neg(Conj(Neg(a), Neg(b)))
    assert parse_lo("x > y @ o") == Neg(GeqAtom("y", "x", "o"))
    assert parse_lo("forall x . C(x)") == Neg(Exists("x", Neg(a)))
    assert parse_lo("exists x in C . C(y)") == Exists("x", Conj(a, b))
    assert parse_lo("forall x in C . C(y)") == Neg(Exists("x", Conj(a, Neg(b))))


def test_precedence():
    # 'and' binds tighter than 'or', which binds tighter than '->'
    f = parse_lo("C(x) and C(y) or C(z) -> C(x)")
    or_part = Neg(Conj(Neg(Conj(CtxAtom("x"), CtxAtom("y"))), Neg(CtxAtom("z"))))
    assert f == Neg(Conj(or_part, Neg(CtxAtom("x"))))


def test_parse_error_positions():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_lo("C(o")
    assert exc.value.line == 1 and exc.value.column == 4
    with pytest.raises(FormulaSyntaxError, match="line 2"):
        parse_lo("C(o) and\nnot ?")
    with pytest.raises(FormulaSyntaxError, match="expected a variable name"):
        parse_lo("exists not . C(x)")
    with pytest.raises(FormulaSyntaxError, match="expected '>=' or '>'"):
        parse_lo("x and C(y)")


def test_analysis_of_builtins():
    for name, positive in (("lsd", False), ("gsd", True), ("gbr", True)):
        result = analyze(builtin(name))
        assert result.closed, name
        assert result.context_safe, name
        assert result.positive == positive, name


def test_context_safety_bans_focus_in_context_positions():
    assert not analyze(parse_lo("C(o)")).context_safe
    assert not analyze(parse_lo("forall y . o >= y @ o")).context_safe
    assert analyze(parse_lo("forall y . o >= y @ y")).context_safe
    # both sides of a conjunction count, whichever holds the focus
    assert not analyze(parse_lo("C(x) and C(o)")).context_safe
    assert not analyze(parse_lo("C(o) and C(x)")).context_safe
    assert analyze(parse_lo("C(x) and C(y)")).context_safe


def test_free_variables_and_closedness():
    assert free_variables(parse_lo("C(x)")) == {"x"}
    assert not analyze(parse_lo("C(x)")).closed
    assert free_variables(builtin("gbr")) == frozenset()
    assert free_variables(parse_lo("C(x) and C(y)")) == {"x", "y"}
    assert free_variables(parse_lo("exists x . C(x) and C(y)")) == {"y"}
    assert not analyze(parse_lo("C(x) and not C(y)")).positive
    assert not analyze(parse_lo("not C(x) and C(y)")).positive
    assert analyze(parse_lo("C(x) and not not C(y)")).positive


def test_pretty_parse_identity_on_builtins():
    for name in BUILTIN_CONDITION_TEXT:
        f = builtin(name)
        assert parse_lo(pretty_lo(f)) == f


lo_terms = st.sampled_from(["o", "x", "y", "z"])
lo_formulas = st.recursive(
    st.one_of(
        st.builds(CtxAtom, lo_terms),
        st.builds(GeqAtom, lo_terms, lo_terms, lo_terms),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Conj, inner, inner),
        st.builds(Exists, st.sampled_from(["x", "y", "z"]), inner),
    ),
    max_leaves=12,
)


@given(lo_formulas)
def test_pretty_parse_round_trip(f):
    assert parse_lo(pretty_lo(f)) == f


# --- semantics ---------------------------------------------------------------


def reference_eval(model, owner, formula, env):
    """Plain textbook evaluator, written independently of the library one."""
    game = model.game

    def value(term):
        return model.focus if term == "o" else env[term]

    if isinstance(formula, CtxAtom):
        profile = value(formula.term)
        return all(profile[i] in model.context.ordered(i) for i in range(game.n))
    if isinstance(formula, GeqAtom):
        base = list(value(formula.ctx))
        left, right = list(base), list(base)
        left[owner] = value(formula.left)[owner]
        right[owner] = value(formula.right)[owner]
        return game.payoffs[tuple(left)][owner] >= game.payoffs[tuple(right)][owner]
    if isinstance(formula, Neg):
        return not reference_eval(model, owner, formula.body, env)
    if isinstance(formula, Conj):
        return reference_eval(model, owner, formula.left, env) and reference_eval(
            model, owner, formula.right, env
        )
    domain = product(*model.game.strategies)
    return any(
        reference_eval(model, owner, formula.body, {**env, formula.var: p}) for p in domain
    )


def test_satisfaction_matches_reference_evaluator():
    conditions = [builtin(n) for n in BUILTIN_CONDITION_TEXT]
    conditions.append(parse_lo("exists y . not C(y)"))
    for game in (fig1_left(), fig1_right()):
        for context, focus in enumerate_optimality_models(game):
            model = OptimalityModel(game, context, focus)
            for owner in range(game.n):
                for f in conditions:
                    assert models(model, owner, f) == reference_eval(model, owner, f, {})


def test_dominance_facts_in_three_by_two_game():
    g = fig2()
    full = OptimalityModel(g, g.full_restriction(), ("D", "R"))
    assert models(full, 0, builtin("gsd"))
    assert not models(full, 0, builtin("gbr"))
    narrowed = OptimalityModel(g, g.restriction({"U", "M"}, {"R"}), ("U", "R"))
    assert models(narrowed, 1, builtin("lsd"))
    assert not models(narrowed, 1, builtin("gsd"))


def test_quantifiers_range_over_full_game():
    g = fig1_right()
    escape = parse_lo("exists y . not C(y)")
    assert models(OptimalityModel(g, g.restriction({"U"}, {"L"}), ("U", "L")), 0, escape)
    assert not models(OptimalityModel(g, g.full_restriction(), ("U", "L")), 0, escape)


def test_global_best_response_entails_both_dominance_conditions():
    lsd, gsd, gbr = builtin("lsd"), builtin("gsd"), builtin("gbr")
    for game in (fig1_left(), fig1_right(), fig2()):
        for context, focus in enumerate_optimality_models(game):
            model = OptimalityModel(game, context, focus)
            for owner in range(game.n):
                if models(model, owner, gbr):
                    assert models(model, owner, lsd)
                    assert models(model, owner, gsd)


def test_local_dominance_holds_on_own_singleton_context():
    lsd = builtin("lsd")
    for game in (fig1_left(), fig1_right()):
        for context, focus in enumerate_optimality_models(game):
            if context.ordered(0) == (focus[0],):
                assert models(OptimalityModel(game, context, focus), 0, lsd)


def test_empty_context_values():
    g = fig1_right()
    empty = OptimalityModel(g, g.restriction(set(), set()), ("U", "L"))
    assert models(empty, 0, builtin("lsd"))  # vacuous universal
    assert not models(empty, 0, builtin("gsd"))
    assert not models(empty, 0, builtin("gbr"))


def test_open_formula_evaluation():
    g = fig1_right()
    model = OptimalityModel(g, g.full_restriction(), ("U", "L"))
    open_f = parse_lo("C(x)")
    assert satisfies(model, 0, open_f, {"x": ("D", "R")})
    with pytest.raises(UnboundVariableError, match="unbound variable 'x'"):
        satisfies(model, 0, open_f, {})


def test_owner_out_of_range():
    g = fig1_right()
    model = OptimalityModel(g, g.full_restriction(), ("U", "L"))
    with pytest.raises(ValueError, match="owner"):
        models(model, 2, builtin("lsd"))


def test_model_validation():
    g, h = fig1_right(), fig1_left()
    with pytest.raises(ValueError, match="different game"):
        OptimalityModel(g, h.full_restriction(), ("U", "L"))
    with pytest.raises(ValueError, match="bad focus"):
        OptimalityModel(g, g.full_restriction(), ("U", "Q"))


# --- registry and files ------------------------------------------------------


def test_standard_registry():
    reg = ConditionRegistry.standard()
    assert reg.names() == ("lsd", "gsd", "gbr")
    assert "gbr" in reg and "nope" not in reg
    info = reg.get("gbr")
    assert info.formula == builtin("gbr")
    assert info.analysis.positive


def test_registry_rejects_duplicates_and_open_formulas():
    reg = ConditionRegistry.standard().copy()
    with pytest.raises(ValueError, match="already registered"):
        reg.register("lsd", builtin("lsd"))
    with pytest.raises(ValueError, match="not closed"):
        reg.register("open", parse_lo("C(x)"))
    with pytest.raises(KeyError, match="unknown condition"):
        reg.get("nope")


def test_standard_registry_is_shared_and_read_only():
    shared = ConditionRegistry.standard()
    assert ConditionRegistry.standard() is shared
    with pytest.raises(ValueError, match="read-only"):
        shared.register("mine", builtin("gbr"))
    assert shared.names() == ("lsd", "gsd", "gbr")
    extended = shared.copy()
    extended.register("mine", builtin("gbr"))
    assert extended.names() == ("lsd", "gsd", "gbr", "mine")
    assert "mine" not in shared


def test_parse_condition_file():
    text = """\
# two variants
condition weak: forall y in C . exists z in C . o >= y @ z

condition strict: exists z in C . forall y . o >= y @ z
"""
    found = parse_condition_file(text)
    assert list(found) == ["weak", "strict"]
    assert found["weak"] == builtin("lsd")
    assert found["strict"] == builtin("gbr")


def test_condition_file_errors():
    with pytest.raises(FormulaSyntaxError, match="expected 'condition"):
        parse_condition_file("payoff U L : 1 1")
    with pytest.raises(FormulaSyntaxError, match="duplicate condition 'a'"):
        parse_condition_file("condition a: C(x)\ncondition a: C(x)")
    with pytest.raises(FormulaSyntaxError, match="line 3"):
        parse_condition_file("# ok\ncondition a: C(x)\ncondition b: C(x")


@pytest.mark.parametrize("text", ["", "# nothing\n", "\n  # still nothing\n\n"])
def test_condition_file_defining_nothing_is_refused(text):
    with pytest.raises(FormulaSyntaxError, match="no condition defined") as exc:
        parse_condition_file(text)
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_condition_names_are_those_formulas_can_name():
    # 'éa' is a Python identifier, but no formula could write rat(éa)
    for name in ("\u00e9a", "a\u00e9", "\u0663"):
        with pytest.raises(FormulaSyntaxError, match="not ASCII") as exc:
            parse_condition_file(f"# first\n  condition {name}: C(x)")
        assert (exc.value.line, exc.value.column) == (2, 13)
        with pytest.raises(FormulaSyntaxError, match="expected"):
            parse_nu(f"rat({name})")
    found = parse_condition_file("condition _a1: C(x)")
    assert parse_nu("rat(_a1)") == Rat("_a1", None)
    assert list(found) == ["_a1"]


# --- optimality kernel -------------------------------------------------------


def test_kernel_matches_reference_on_corpus():
    conditions = [builtin(n) for n in BUILTIN_CONDITION_TEXT] + list(generated_conditions())
    checked = 0
    for game in bundled_games() + generated_games():
        for context in restrictions(game):
            for owner in range(game.n):
                for f in conditions:
                    expected = naive_optimal_strategies(game, owner, f, context)
                    assert optimal_strategies(game, owner, f, context) == expected, (
                        game, context, owner, pretty_lo(f)
                    )
                    checked += 1
    assert checked == 12_480


@st.composite
def tied_games(draw, players=(1, 3), sizes=(1, 3)):
    """Games with 1-3 players, 1-3 strategies each and payoffs in 0..2, so
    ties are common; ``players`` and ``sizes`` set other ranges."""
    shape = draw(st.lists(st.integers(*sizes), min_size=players[0], max_size=players[1]))
    strategies = tuple(tuple(f"p{i}s{k}" for k in range(m)) for i, m in enumerate(shape))
    payoffs = {
        profile: tuple(Fraction(draw(st.integers(0, 2))) for _ in shape)
        for profile in product(*strategies)
    }
    return Game(strategies, payoffs)


@st.composite
def restriction_of(draw, game):
    return game.restriction(
        *(draw(st.sets(st.sampled_from(names))) for names in game.strategies)
    )


safe_vars = st.sampled_from(["x", "y", "z"])
safe_formulas = st.recursive(
    st.one_of(
        st.builds(CtxAtom, safe_vars),
        st.builds(GeqAtom, st.sampled_from(["o", "x", "y", "z"]), st.sampled_from(["o", "x", "y", "z"]), safe_vars),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Conj, inner, inner),
        st.builds(Exists, safe_vars, inner),
    ),
    max_leaves=8,
)


def closed(formula):
    for var in sorted(free_variables(formula)):
        formula = Exists(var, formula)
    return formula


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_random_games(data):
    game = data.draw(tied_games())
    context = data.draw(restriction_of(game))
    owner = data.draw(st.integers(0, game.n - 1))
    formula = data.draw(
        st.one_of(st.sampled_from([builtin(n) for n in BUILTIN_CONDITION_TEXT]), safe_formulas.map(closed))
    )
    assert optimal_strategies(game, owner, formula, context) == naive_optimal_strategies(
        game, owner, formula, context
    )


def conjunction_chains(parts):
    """Every way to bracket ``parts`` into a chain of conjunctions, in order."""
    if len(parts) == 1:
        return st.just(parts[0])
    return st.integers(1, len(parts) - 1).flatmap(
        lambda cut: st.builds(Conj, conjunction_chains(parts[:cut]), conjunction_chains(parts[cut:]))
    )


@st.composite
def guarded_formulas(draw, scope=(), depth=3):
    """Context-safe formulas over the variables in ``scope`` whose binders
    are often guarded by their own ``C(.)``: first, last or deeper in the
    body's conjunction chain, or alone.  Binders reuse the names in scope,
    so inner ones shadow outer ones, and the chains also hold ``C(w)`` of
    outer variables, which are not guards."""
    if not scope or (depth > 0 and draw(st.integers(0, 2))):
        kinds = ["guarded", "guarded", "exists", "not", "and"] if scope else ["guarded", "exists"]
        kind = draw(st.sampled_from(kinds))
        if kind == "not":
            return Neg(draw(guarded_formulas(scope, depth - 1)))
        if kind == "and":
            return Conj(draw(guarded_formulas(scope, depth - 1)), draw(guarded_formulas(scope, depth - 1)))
        var = draw(st.sampled_from(["x", "y", "z"]))
        inner = scope + (var,)
        if kind == "exists":
            return Exists(var, draw(guarded_formulas(inner, depth - 1)))
        parts = draw(st.lists(guarded_formulas(inner, depth - 1), max_size=3))
        parts.insert(draw(st.integers(0, len(parts))), CtxAtom(var))
        return Exists(var, draw(conjunction_chains(parts)))
    variables = st.sampled_from(scope)
    return draw(
        st.one_of(
            st.builds(CtxAtom, variables),
            st.builds(GeqAtom, st.sampled_from(scope + ("o",)), st.sampled_from(scope + ("o",)), variables),
        )
    )


# One of each guarded shape, so that every one is checked on every run.
GUARDED_SHAPES = [
    "exists x . C(x) and o >= x @ x",
    "exists x . o >= x @ x and C(x)",
    "exists x . x >= o @ x and (not o >= x @ x and C(x))",
    "exists x . (x >= o @ x and C(x)) and not o >= x @ x",
    "exists x . C(x)",
    "not exists x . C(x) and not o >= x @ x",
    "exists x . C(x) and (exists x . C(x) and not o >= x @ x)",
    "exists x . (exists x . not x >= o @ x) and C(x)",
    "exists w . not exists v . C(w) and v >= o @ v",
    "exists w . exists v . o >= v @ w and C(w) and C(v)",
]


def with_emptied_components(context):
    """The context, then each variant of it with one component emptied."""
    yield context
    for j in context.game.players:
        yield Restriction(context.game, context.masks[:j] + (0,) + context.masks[j + 1 :])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_guarded_binders(data):
    game = data.draw(tied_games())
    formula = data.draw(st.one_of(st.sampled_from(GUARDED_SHAPES).map(parse_lo), guarded_formulas()))
    assert analyze(formula).closed and analyze(formula).context_safe
    for context in with_emptied_components(data.draw(restriction_of(game))):
        for owner in game.players:
            expected = naive_optimal_strategies(game, owner, formula, context)
            assert optimal_strategies(game, owner, formula, context) == expected, (
                context, owner, pretty_lo(formula)
            )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_matches_reference_on_wide_three_player_games(data):
    """Three players with 2-5 strategies each: the kernel's mask over the
    opponents' profiles spans up to 25 bits, past the 9 of tied_games.
    Every builtin is checked, and a guarded formula of at most two nested
    binders, which the naive reference decides in time on 125 profiles."""
    game = data.draw(tied_games(players=(3, 3), sizes=(2, 5)))
    formulas = [builtin(n) for n in BUILTIN_CONDITION_TEXT] + [data.draw(guarded_formulas(depth=2))]
    for context in with_emptied_components(data.draw(restriction_of(game))):
        for owner, formula in product(game.players, formulas):
            expected = naive_optimal_strategies(game, owner, formula, context)
            assert optimal_strategies(game, owner, formula, context) == expected, (
                context, owner, pretty_lo(formula)
            )


@pytest.mark.parametrize("text", GUARDED_SHAPES)
def test_each_guarded_shape_matches_reference_on_bundled_games(text):
    formula = parse_lo(text)
    for game in bundled_games():
        for context in restrictions(game):
            for owner in game.players:
                expected = naive_optimal_strategies(game, owner, formula, context)
                assert optimal_strategies(game, owner, formula, context) == expected, (
                    game, context, owner
                )


# Each builtin with every C(.) guard written after the body it guards.
COMMUTED_BUILTINS = {
    "gbr": "exists z . (forall y . o >= y @ z) and C(z)",
    "gsd": "forall y . exists z . o >= y @ z and C(z)",
    "lsd": "not exists y . (not exists z . o >= y @ z and C(z)) and C(y)",
}


@pytest.mark.parametrize("name", sorted(COMMUTED_BUILTINS))
def test_commuted_builtins_have_the_builtin_survivors(name):
    late, builtin_plan = plan(parse_lo(COMMUTED_BUILTINS[name])), plan(builtin(name))
    assert parse_lo(COMMUTED_BUILTINS[name]) != builtin(name)
    checked = 0
    for game in bundled_games() + generated_games():
        for context in restrictions(game):
            for owner in game.players:
                prefs = game.preferences(owner)
                assert late(prefs, owner, context.masks) == builtin_plan(prefs, owner, context.masks), (
                    game, context, owner
                )
                checked += 1
    assert checked == 832


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_plan_serves_every_game_player_and_context(data):
    """A compiled plan is shared by every call: run back to back over games
    of different sizes, both players and contexts of different membership,
    it must read each call's strategy mask, payoffs and domains afresh."""
    conditions = [builtin(n) for n in BUILTIN_CONDITION_TEXT] + list(generated_conditions())
    formula = data.draw(st.sampled_from(conditions))
    games = data.draw(st.lists(st.sampled_from(generated_games()), min_size=2, max_size=4))
    plan.cache_clear()  # compiled afresh here, then reused by every call below
    compiled = plan(formula)
    for game in games:
        for owner in data.draw(st.permutations(game.players)):
            context = data.draw(restriction_of(game))
            expected = naive_optimal_strategies(game, owner, formula, context)
            assert optimal_strategies(game, owner, formula, context) == expected, pretty_lo(formula)
    assert plan(formula) is compiled


def guess_game(players, choices):
    """Guess 2/3 of the average: each player names 0..choices-1 and loses
    the distance to two thirds of the mean."""
    strategies = tuple(tuple(f"c{c}" for c in range(choices)) for _ in range(players))
    payoffs = {}
    for profile in product(*strategies):
        numbers = [int(name[1:]) for name in profile]
        target = Fraction(2, 3) * Fraction(sum(numbers), players)
        payoffs[profile] = tuple(-abs(c - target) for c in numbers)
    return Game(strategies, payoffs)


@pytest.mark.parametrize("players, choices", [(2, 8), (3, 4)])
def test_operator_outcome_matches_naive_elimination_on_long_chains(players, choices):
    game = guess_game(players, choices)
    for name in BUILTIN_CONDITION_TEXT:
        trace = iterate(condition_operator(game, name))
        assert trace.outcome == naive_eliminate(game, name), name
        # elimination takes several rounds, each against a smaller context
        assert trace.closure_ordinal >= 2, name


def sampled_restrictions(game, step):
    """Every step-th restriction in canonical order, each followed by its
    variants with one component emptied."""
    for r in islice(restrictions(game), 0, None, step):
        yield from with_emptied_components(r)


@pytest.mark.parametrize(
    "game, contexts, naive_every",
    [
        (fig1_left(), restrictions, 1),
        (fig1_right(), restrictions, 1),
        (fig2(), restrictions, 1),
        (guess_game(3, 4), restrictions, 31),
        # 65,536 restrictions would take the kernel a minute and the
        # reference most of an hour, so this one is sampled
        (guess_game(2, 8), lambda g: sampled_restrictions(g, 61), 16),
    ],
    ids=["fig1_left", "fig1_right", "fig2", "guess-3x4", "guess-2x8"],
)
def test_survivor_table_matches_restriction_path(game, contexts, naive_every):
    """The per-game table, asked with a context packed into one int (player
    i's strategy k is bit k past the strategies of the players before i),
    agrees with the kernel asked with a restriction and with the naive
    reference."""
    offsets = list(accumulate((len(names) for names in game.strategies[:-1]), initial=0))
    checked = empty = 0
    for index, context in enumerate(contexts(game)):
        masks = context.masks
        packed = sum(mask << offset for mask, offset in zip(masks, offsets))
        empty += 0 in masks
        for name in BUILTIN_CONDITION_TEXT:
            formula = builtin(name)
            table = survivor_table(game, formula)
            for player in game.players:
                mask = table.survivors(player, packed)
                names = game.strategies[player]
                found = frozenset(s for k, s in enumerate(names) if mask >> k & 1)
                where = (context, name, player)
                assert found == optimal_strategies(game, player, formula, context), where
                if index % naive_every == 0:
                    assert found == naive_optimal_strategies(game, player, formula, context), where
        checked += 1
    assert empty and checked > empty


def packed(context):
    """The context as one int: player i's strategy k is bit k past the
    strategies of the players before i."""
    sizes = (len(names) for names in context.game.strategies[:-1])
    return sum(mask << offset for mask, offset in zip(context.masks, accumulate(sizes, initial=0)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_survivor_table_keys_agree_with_the_full_context(data):
    """One table asked about contexts that differ only in parts the
    condition reads for emptiness answers each from its canonical key; every
    answer equals the plan run on the full masks and the naive reference."""
    game = data.draw(tied_games())
    formula = data.draw(st.one_of(st.sampled_from(GUARDED_SHAPES).map(parse_lo), guarded_formulas()))
    table, kernel = SurvivorTable(game, formula), plan(formula)
    for drawn in data.draw(st.lists(restriction_of(game), min_size=1, max_size=3)):
        for context in with_emptied_components(drawn):
            for owner in game.players:
                mask = kernel(game.preferences(owner), owner, context.masks)
                assert table.survivors(owner, packed(context)) == mask, (context, owner, pretty_lo(formula))
                names = game.strategies[owner]
                expected = naive_optimal_strategies(game, owner, formula, context)
                assert frozenset(s for k, s in enumerate(names) if mask >> k & 1) == expected


@pytest.mark.parametrize(
    "text, levels",
    [
        (BUILTIN_CONDITION_TEXT["gbr"], (False, True)),
        (BUILTIN_CONDITION_TEXT["gsd"], (False, True)),
        (BUILTIN_CONDITION_TEXT["lsd"], (True, True)),
        ("exists x . C(x)", (False, False)),
        ("exists x . C(x) and o >= x @ x", (True, True)),
        # a C(.) that stays a test reads both parts, whatever the binders read
        ("exists z in C . forall y . C(y) -> o >= y @ z", (True, True)),
        ("exists w . not exists v . C(w) and v >= o @ v", (True, True)),
        ("forall y . exists z . o >= y @ z", (False, False)),
    ],
)
def test_plans_say_which_context_parts_they_read_in_full(text, levels):
    """(owner's component, opponents' components): read in full, or only
    for emptiness."""
    assert plan(parse_lo(text)).reads_in_full == levels


def test_a_cold_sampled_sweep_runs_the_plan_once_per_key():
    """gbr reads the owner's component only for emptiness, so a table runs
    its plan at most once per (owner's component empty or not, subset of
    the opponent's strategies): 2 x 2**3 times per player of fig2 (3 x 2),
    however many contexts 400 draws meet."""
    game = parse_game(bundled_text("fig2.game"))  # a fresh game, with empty tables
    table = survivor_table(game, builtin("gbr"))
    kernel, runs = table.plan, [0] * game.n

    def counted(prefs, player, context):
        runs[player] += 1
        return kernel(prefs, player, context)

    table.plan = counted
    formula = parse_nu("rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X")
    report = check_validity(game, formula, samples=400, max_states=4)
    assert report.valid and report.models_checked == 400
    assert all(0 < count <= 2 * 2**3 for count in runs), runs
    # the tighter bound: owner's emptiness times the opponent's subsets
    assert all(runs[i] <= 2 * 2 ** len(game.strategies[1 - i]) for i in game.players), runs


def test_kernel_refuses_open_and_context_unsafe_conditions():
    g = fig1_right()
    with pytest.raises(UnboundVariableError, match="must be closed"):
        optimal_strategies(g, 0, parse_lo("C(x)"), g.full_restriction())
    with pytest.raises(ValueError, match="must be context-safe"):
        optimal_strategies(g, 0, parse_lo("C(o)"), g.full_restriction())
    # the callers keep their own errors for the same conditions
    with pytest.raises(OperatorError, match="must be closed"):
        ConditionOperator(g, parse_lo("C(x)"))
    with pytest.raises(OperatorError, match="must be context-safe"):
        ConditionOperator(g, parse_lo("forall y . o >= y @ o"))
    registry = ConditionRegistry.standard().copy()
    registry.register("selfctx", parse_lo("C(o)"))
    model = BeliefModel(g, ("w",), ((0,), (0,)), ((1,),) * 2)
    with pytest.raises(ModalError, match="'selfctx' is not context-safe"):
        interpret(model, Rat("selfctx", 0), registry=registry)


def test_kernel_argument_checks():
    g, h = fig1_right(), fig1_left()
    with pytest.raises(ValueError, match="owner 2 out of range"):
        optimal_strategies(g, 2, builtin("gbr"), g.full_restriction())
    with pytest.raises(ValueError, match="different game"):
        optimal_strategies(g, 0, builtin("gbr"), h.full_restriction())


# --- nesting bound -----------------------------------------------------------


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError, match="nested deeper than") as exc:
        parse_lo("not " * 1000 + "C(x)")
    assert (exc.value.line, exc.value.column) == (1, 4 * MAX_NESTING + 1)
    with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
        parse_lo("(" * 1000 + "C(x)" + ")" * 1000)
    # long flat chains build deep trees too
    with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
        parse_lo(" and ".join(["C(x)"] * 1000))
    # right at the bound still parses
    assert parse_lo("not " * (MAX_NESTING - 1) + "C(x)")
