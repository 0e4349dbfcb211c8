"""Independent oracles and test corpora.

The functions here deliberately re-implement elimination and common belief
with plain loops, without the operator or formula machinery, so that a
disagreement in a cross-check localizes the bug; the optimality kernel is
checked against the naive condition evaluator, applied one focus strategy
at a time by :func:`naive_optimal_strategies`, the bitmask modal evaluator
against the set-based tree walk of :func:`naive_interpret`, the
word-by-word sampler against the plain ``randint``/``choice``/``random()``
loop of :func:`naive_sample_model_masks`, and the fixpoint iteration
against the union of post-fixpoints.  The set-based
belief operators and :func:`free_variables` live here too, as only tests
and demos use them: the runtime reads beliefs in mask form.  The module also names
the reference games and generates deterministic corpora of small games,
conditions, operator pairs and belief models.  Its table operators
store an arbitrary restriction-to-restriction map, so that the lattice
facts (monotone outcomes, post-fixpoints, outcome inclusion) are exercised
on operators that conditions cannot produce.  No runtime module imports
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .beliefs import (
    MAX_ENUM_STATES,
    BeliefModel,
    EnumerationLimitError,
    Event,
    Masks,
    game_of_event,
    model_of_masks,
)
from .conditions import (
    ConditionRegistry, Conj, CtxAtom, Exists, FormulaO, GeqAtom, Neg, OptimalityModel, _scan, analyze, models
)
from .games import (
    Game, Profile, Restriction, bundled_game, bundled_games, lattice_size, restrictions, subsets
)
from .modal import (
    MAX_SECOND_ORDER_STATES,
    Box,
    ForallX,
    FormulaNu,
    ModalError,
    Nu,
    Opt,
    Rat,
    SetVar,
    interpret,
    positive_in_x,
)
from .operators import (
    EXHAUSTIVE_LATTICE_LIMIT,
    ContractedOperator,
    NoFixpointError,
    Operator,
    OperatorError,
    check_monotone,
    iterate,
)

# re-exported: perfbench/ imports it from here
from .proofs import bundled_proof  # noqa: F401

GENERATED_SEED = 7120394


def fig1_left() -> Game:
    """Two-player coordination: matching on either name pays 1, else 0."""
    return bundled_game("fig1_left")


def fig1_right() -> Game:
    """The row player's U strictly dominates D; the column player then
    prefers L once D is gone."""
    return bundled_game("fig1_right")


def fig2() -> Game:
    """3x2 game separating best response from strict dominance: the row M is
    a best response only against R, and D is never a best response yet is
    not strictly dominated."""
    return bundled_game("fig2")


def generated_games(seed: int = GENERATED_SEED) -> tuple[Game, ...]:
    """A deterministic sample of small games with integer payoffs in 0..3."""
    rng = random.Random(seed)
    shapes = [(2, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2), (3, 3), (2, 3), (3, 3), (2, 2)]
    names = ("a", "b", "c")
    games = []
    for rows, cols in shapes:
        strategies = (
            tuple(f"{names[0]}{k + 1}" for k in range(rows)),
            tuple(f"{names[1]}{k + 1}" for k in range(cols)),
        )
        payoffs = {
            profile: (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
            for profile in product(*strategies)
        }
        games.append(Game(strategies, payoffs))
    return tuple(games)


def generated_conditions(seed: int = GENERATED_SEED, count: int = 12):
    """A deterministic corpus of closed, context-safe conditions of varied
    shapes, some positive and some not, for operator property tests."""
    rng = random.Random(seed)
    fresh = iter(f"v{k}" for k in range(10_000))

    def build(depth: int, scope: tuple[str, ...]):
        if depth == 0 or (scope and rng.random() < 0.3):
            terms = scope + ("o",)
            if scope and rng.random() < 0.4:
                return CtxAtom(rng.choice(scope))
            ctx = rng.choice(scope) if scope else None
            if ctx is None:
                var = next(fresh)
                return Exists(var, GeqAtom(rng.choice(terms + (var,)), rng.choice(terms + (var,)), var))
            return GeqAtom(rng.choice(terms), rng.choice(terms), ctx)
        roll = rng.random()
        if roll < 0.3:
            var = next(fresh)
            return Exists(var, build(depth - 1, scope + (var,)))
        if roll < 0.55:
            return Neg(build(depth - 1, scope))
        return Conj(build(depth - 1, scope), build(depth - 1, scope))

    found = []
    while len(found) < count:
        formula = Exists("x0", build(3, ("x0",)))
        report = analyze(formula)
        if report.closed and report.context_safe:
            found.append(formula)
    return tuple(found)


def square_lattice_game() -> Game:
    """A two-player game with one strategy each.  Its restriction lattice is
    the four-element Boolean square, small enough to enumerate every table
    operator on it."""
    return Game((("a",), ("b",)), {("a", "b"): (Fraction(0), Fraction(0))})


def premise_pairs(game: Game, count: int, seed: int = 0) -> Iterator[tuple]:
    """Seeded random table-operator pairs satisfying the outcome-inclusion
    premises: the first is monotone by construction and pointwise below the
    second.

    Building up the lattice by restriction size, each first image is a random
    superset of the join of the images of the immediate predecessors (which
    forces monotonicity), and each second image is a random superset of the
    first.
    """
    rng = random.Random(seed)
    lattice = sorted(restrictions(game), key=lambda r: r.size())
    # the masks of each restriction's immediate predecessors: one strategy dropped
    preds = {
        r.masks: [
            r.masks[:i] + (mask & ~(1 << k),) + r.masks[i + 1 :]
            for i, mask in enumerate(r.masks)
            for k in range(mask.bit_length())
            if mask >> k & 1
        ]
        for r in lattice
    }

    def grow(rng: random.Random, floor: Restriction) -> Restriction:
        coins = (sum(1 << k for k in range(len(names)) if rng.random() < 0.5) for names in game.strategies)
        return floor.join(Restriction(game, tuple(coins)))

    bottom = Restriction(game, (0,) * game.n)
    for _ in range(count):
        first: dict[tuple[int, ...], Restriction] = {}
        second: dict[tuple[int, ...], Restriction] = {}
        for r in lattice:
            floor = bottom
            for p in preds[r.masks]:
                floor = floor.join(first[p])
            first[r.masks] = grow(rng, floor)
            second[r.masks] = grow(rng, first[r.masks])
        yield TableOperator(game, first), TableOperator(game, second)


def standard_corpus() -> tuple[Game, ...]:
    """The bundled games followed by the generated ones."""
    return bundled_games() + generated_games()


# ---------------------------------------------------------------------------
# Table operators and outcome inclusion


class TableOperator(Operator):
    """An explicit restriction-to-restriction map, total on the lattice and
    keyed by each restriction's masks."""

    def __init__(self, game: Game, table: Mapping[tuple[int, ...], Restriction]):
        self.game = game
        if lattice_size(game) > EXHAUSTIVE_LATTICE_LIMIT:
            raise OperatorError("lattice too large for a table operator")
        self.table = dict(table)
        for restriction in restrictions(game):
            if restriction.masks not in self.table:
                raise OperatorError(f"table is missing an image for {restriction}")
        for image in self.table.values():
            if image.game != game:
                raise OperatorError("table image belongs to a different game")

    def apply(self, restriction: Restriction) -> Restriction:
        if restriction.game != self.game:
            raise OperatorError("restriction belongs to a different game")
        return self.table[restriction.masks]


def identity_table(game: Game) -> TableOperator:
    return TableOperator(game, {r.masks: r for r in restrictions(game)})


def constant_table(game: Game, image: Restriction) -> TableOperator:
    return TableOperator(game, {r.masks: image for r in restrictions(game)})


@dataclass(frozen=True)
class InclusionReport:
    premises_hold: bool
    conclusion_holds: bool


def lemma_inclusion_check(first: Operator, second: Operator) -> InclusionReport:
    """Check the outcome-inclusion principle on a concrete operator pair.

    Premises: ``first`` is pointwise below ``second`` on the whole lattice
    and ``first`` is monotone.  Conclusion: the outcome of iterating
    ``first`` from the full game is included in the outcome of iterating the
    contracted ``second``.
    """
    if first.game != second.game:
        raise OperatorError("operators act on different games")
    if lattice_size(first.game) > EXHAUSTIVE_LATTICE_LIMIT:
        raise OperatorError("lattice too large for an exhaustive check")
    pointwise = all(
        first.apply(r).leq(second.apply(r)) for r in restrictions(first.game)
    )
    monotone = check_monotone(first).monotone
    try:
        conclusion = iterate(first).outcome.leq(iterate(ContractedOperator(second)).outcome)
    except NoFixpointError:
        conclusion = False
    return InclusionReport(pointwise and monotone, conclusion)


# ---------------------------------------------------------------------------
# Naive elimination (independent of the operators and formula modules)


def _not_locally_dominated(game: Game, player: int, strategy: str, ctx: list[list[str]]) -> bool:
    # for every rival choice available in the context there is a context
    # profile against which sticking with `strategy` is no worse
    ctx_profiles = list(product(*ctx))
    for alternative in ctx[player]:
        beaten_everywhere = True
        for z in ctx_profiles:
            mine = game.payoff(player, z[:player] + (strategy,) + z[player + 1 :])
            theirs = game.payoff(player, z[:player] + (alternative,) + z[player + 1 :])
            if mine >= theirs:
                beaten_everywhere = False
                break
        if beaten_everywhere and ctx_profiles:
            return False
    return True


def _not_globally_dominated(game: Game, player: int, strategy: str, ctx: list[list[str]]) -> bool:
    ctx_profiles = list(product(*ctx))
    for alternative in game.strategies[player]:
        survives = False
        for z in ctx_profiles:
            mine = game.payoff(player, z[:player] + (strategy,) + z[player + 1 :])
            theirs = game.payoff(player, z[:player] + (alternative,) + z[player + 1 :])
            if mine >= theirs:
                survives = True
                break
        if not survives:
            return False
    return True


def _is_best_response(game: Game, player: int, strategy: str, ctx: list[list[str]]) -> bool:
    for z in product(*ctx):
        best = True
        for alternative in game.strategies[player]:
            mine = game.payoff(player, z[:player] + (strategy,) + z[player + 1 :])
            theirs = game.payoff(player, z[:player] + (alternative,) + z[player + 1 :])
            if mine < theirs:
                best = False
                break
        if best:
            return True
    return False


_NAIVE_CHECKS = {
    "lsd": _not_locally_dominated,
    "gsd": _not_globally_dominated,
    "gbr": _is_best_response,
}


def naive_eliminate(game: Game, condition: str, rounds: int | None = None) -> Restriction:
    """Textbook simultaneous elimination for the builtin conditions.

    Each round keeps, per player, the strategies passing the check against
    the current context.  Any ``rounds >= total strategy count`` reaches the
    stable outcome; that is the default.
    """
    try:
        check = _NAIVE_CHECKS[condition]
    except KeyError:
        raise ValueError(f"naive elimination only knows {sorted(_NAIVE_CHECKS)}") from None
    if rounds is None:
        rounds = sum(len(names) for names in game.strategies)
    ctx = [list(names) for names in game.strategies]
    for _ in range(rounds):
        ctx = [
            [s for s in ctx[i] if check(game, i, s, ctx)]
            for i in game.players
        ]
    return game.restriction(*ctx)


def naive_optimal_strategies(
    game: Game, owner: int, formula: FormulaO, context: Restriction
) -> frozenset[str]:
    """The owner's strategies whose focus satisfies the condition by the
    reference evaluator :func:`~epigame.conditions.models`, one focus
    profile per strategy (everyone else at their first strategy, which a
    context-safe condition never reads).  The reference that
    :func:`~epigame.optimality.optimal_strategies` is checked against."""
    found = set()
    for strategy in game.strategies[owner]:
        focus = tuple(strategy if i == owner else game.strategies[i][0] for i in game.players)
        if models(OptimalityModel(game, context, focus), owner, formula):
            found.add(strategy)
    return frozenset(found)


# ---------------------------------------------------------------------------
# Belief models and the naive modal semantics


def enumerate_belief_models(game: Game, max_states: int) -> Iterator[BeliefModel]:
    """Every belief model over the game with 1..max_states states, in a
    fixed order, without duplicates: the models of
    :func:`enumerate_model_masks`, whose order the tests pin."""
    for plays, possible in enumerate_model_masks(game, max_states):
        yield model_of_masks(game, plays, possible)


def enumerate_model_masks(game: Game, max_states: int) -> Iterator[tuple[Masks, Masks]]:
    """Every belief model over the game with 1..max_states states as
    (plays, possible) masks, in a fixed order: the lane order of the
    exhaustive sweeps of :func:`~epigame.modal.check_validity`.  Consecutive models with the
    same plays share one plays tuple.  Refuses more than
    :data:`~epigame.beliefs.MAX_ENUM_STATES` states at once, not at the
    first model."""
    if max_states > MAX_ENUM_STATES:
        raise EnumerationLimitError(f"exhaustive enumeration is limited to {MAX_ENUM_STATES} states")
    return _model_masks(game, max_states)


def _model_masks(game: Game, max_states: int) -> Iterator[tuple[Masks, Masks]]:
    for count in range(1, max_states + 1):
        # state k's possibility sets in games.subsets() order: the mask itself
        poss_choices = list(product(range(1 << count), repeat=count))
        play_choices = [list(product(range(len(names)), repeat=count)) for names in game.strategies]
        for plays in product(*play_choices):
            for possible in product(poss_choices, repeat=game.n):
                yield plays, possible


def naive_sample_model_masks(
    game: Game, count: int, max_states: int, seed: int = 0
) -> Iterator[tuple[Masks, Masks]]:
    """The reference for :func:`epigame.modal._sample_models`, which must
    draw the same models: uniform state count in 1..max_states,
    uniform strategies, and each possibility set drawn uniformly, one coin
    per state."""
    rng = random.Random(seed)
    indices = [tuple(range(len(names))) for names in game.strategies]
    for _ in range(count):
        size = rng.randint(1, max_states)
        plays = tuple(tuple(rng.choice(choices) for _ in range(size)) for choices in indices)
        possible = tuple(
            tuple(sum(1 << k for k in range(size) if rng.random() < 0.5) for _ in range(size))
            for _ in game.players
        )
        yield plays, possible


def sample_belief_models(
    game: Game, count: int, max_states: int, seed: int = 0
) -> Iterator[BeliefModel]:
    """Seeded random models, drawn by :func:`naive_sample_model_masks`."""
    for plays, possible in naive_sample_model_masks(game, count, max_states, seed):
        yield model_of_masks(game, plays, possible)


def free_variables(formula: FormulaO) -> frozenset[str]:
    return _scan(formula, False)[0]


def believes(model: BeliefModel, player: int, event: Event) -> Event:
    """States where everything the player considers possible lies in the event."""
    return frozenset(
        state for state in model.states if model.possible_at(player, state) <= event
    )


def everyone_believes(model: BeliefModel, event: Event) -> Event:
    result = model.universe
    for player in model.game.players:
        result &= believes(model, player, event)
    return result


@dataclass(frozen=True)
class CommonBeliefResult:
    event: Event
    chain: tuple[Event, ...]


def common_belief(model: BeliefModel, event: Event) -> CommonBeliefResult:
    """Intersection of all levels of iterated everyone-believes.

    The chain records each level up to (excluding) the first repeated value;
    since levels of a finite model must eventually repeat, intersecting the
    recorded levels already equals the full infinite intersection.  The
    value-repeat stop matters: without transitivity the levels need not
    shrink monotonically and may cycle.
    """
    chain: list[Event] = []
    seen: set[Event] = set()
    level = everyone_believes(model, event)
    while level not in seen:
        seen.add(level)
        chain.append(level)
        level = everyone_believes(model, level)
    result = model.universe
    for entry in chain:
        result &= entry
    return CommonBeliefResult(result, tuple(chain))


def naive_common_belief(model: BeliefModel, event: Event) -> Event:
    """Common belief by brute force: intersect enough iterated levels that
    the level sequence must already have repeated."""

    def everyone(e: Event) -> Event:
        return frozenset(
            state
            for state in model.states
            if all(model.possible_at(i, state) <= e for i in model.game.players)
        )

    result = model.universe
    level = event
    for _ in range((1 << len(model.states)) + 2):
        level = everyone(level)
        result &= level
    return result


def is_truthful(model: BeliefModel) -> bool:
    """Does every player always consider the actual state possible?"""
    return all(
        state in model.possible_at(player, state)
        for player in model.game.players
        for state in model.states
    )


def naive_interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """The event where a modal formula holds, by a tree walk over sets of
    state names: each context is the restriction
    :func:`~epigame.beliefs.game_of_event` builds, decided by
    :func:`naive_optimal_strategies`.  The reference that
    :func:`~epigame.modal.interpret` and :func:`~epigame.modal.interpret_so`
    are checked against."""
    registry = registry or ConditionRegistry.standard()
    game = model.game
    universe = model.universe
    # (condition, player, context masks) -> the player's optimal strategies
    optimal: dict[tuple, frozenset[str]] = {}

    def players_of(tag: int | None) -> range | tuple[int, ...]:
        if tag is None:
            return game.players
        if not 0 <= tag < game.n:
            raise ModalError(f"player index {tag + 1} out of range")
        return (tag,)

    def holds(name: str, player: int, strategy: str, context: Restriction) -> bool:
        key = (name, player, context.masks)
        if key not in optimal:
            info = registry.get(name)
            if not info.analysis.context_safe:
                raise ModalError(f"condition {name!r} is not context-safe")
            optimal[key] = naive_optimal_strategies(game, player, info.formula, context)
        return strategy in optimal[key]

    def walk(f: FormulaNu, env: Event) -> Event:
        if isinstance(f, Rat):
            result = universe
            for i in players_of(f.player):
                result &= frozenset(
                    state
                    for state in model.states
                    if holds(
                        f.condition,
                        i,
                        model.strategy_of(i, state),
                        game_of_event(model, model.possible_at(i, state)),
                    )
                )
            return result
        if isinstance(f, Neg):
            return universe - walk(f.body, env)
        if isinstance(f, Conj):
            return walk(f.left, env) & walk(f.right, env)
        if isinstance(f, Box):
            inner = walk(f.body, env)
            result = universe
            for i in players_of(f.player):
                result &= believes(model, i, inner)
            return result
        if isinstance(f, Opt):
            context = game_of_event(model, walk(f.body, env))
            result = universe
            for i in players_of(f.player):
                result &= frozenset(
                    state
                    for state in model.states
                    if holds(f.condition, i, model.strategy_of(i, state), context)
                )
            return result
        if isinstance(f, SetVar):
            return env
        if isinstance(f, Nu):
            current = universe
            while True:
                nxt = walk(f.body, current) & current
                if nxt == current:
                    return current
                current = nxt
        if isinstance(f, ForallX):
            result = universe
            for candidate in subsets(model.states):
                result &= walk(f.body, candidate)
            return result
        raise ModalError(f"cannot interpret {f!r}")

    return walk(formula, universe if env is None else env)


def nu_via_postfixpoints(
    model: BeliefModel,
    body: FormulaNu,
    registry: ConditionRegistry | None = None,
) -> Event:
    """Independent route to ``nu X . body`` for bodies positive in X:
    the union of all events below their own image."""
    registry = registry or ConditionRegistry.standard()
    if len(model.states) > MAX_SECOND_ORDER_STATES:
        raise ModalError(
            f"post-fixpoint enumeration is limited to {MAX_SECOND_ORDER_STATES} states"
        )
    if not positive_in_x(body, registry):
        raise ModalError("post-fixpoint characterization needs a body positive in X")
    union: Event = frozenset()
    for candidate in subsets(sorted(model.universe)):
        if candidate <= interpret(model, body, candidate, registry):
            union |= candidate
    return union


def enumerate_optimality_models(game: Game) -> Iterator[tuple[Restriction, Profile]]:
    """Every (context, focus) pair of the game, in enumeration order."""
    for context in restrictions(game):
        for focus in game.profiles():
            yield context, focus
