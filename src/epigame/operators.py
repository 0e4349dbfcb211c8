"""Strategy-elimination operators on the restriction lattice.

A condition-induced operator keeps, per player, exactly the strategies whose
focus satisfies the player's condition in the current restriction; iterating
it from the full game performs iterated elimination.  Table operators store
an arbitrary restriction-to-restriction map and exist to exercise the
lattice-theoretic facts (monotone outcomes, post-fixpoint characterization,
outcome inclusion) on operators that conditions cannot produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .conditions import FormulaO, analyze, builtin
from .games import Game, Restriction, lattice_size, restrictions
from .optimality import optimal_strategies


class OperatorError(ValueError):
    pass


class NoFixpointError(RuntimeError):
    """Iteration exceeded the lattice bound without repeating a stage."""


_EXHAUSTIVE_LATTICE_LIMIT = 1 << 16


class Operator:
    """Base: a self-map of one game's restriction lattice."""

    game: Game

    def apply(self, restriction: Restriction) -> Restriction:
        raise NotImplementedError


class ConditionOperator(Operator):
    """The elimination operator induced by one closed, context-safe
    condition per player.  Contracting by construction."""

    def __init__(self, game: Game, conditions: FormulaO | Sequence[FormulaO]):
        self.game = game
        if not isinstance(conditions, (tuple, list)):
            conditions = (conditions,) * game.n
        if len(conditions) != game.n:
            raise OperatorError(f"need one condition per player, got {len(conditions)}")
        for formula in conditions:
            result = analyze(formula)
            if not result.closed:
                raise OperatorError("operator conditions must be closed")
            if not result.context_safe:
                raise OperatorError(
                    "operator conditions must be context-safe "
                    "(the focus may appear only as a compared term)"
                )
        self.conditions = tuple(conditions)

    @property
    def certified_monotone(self) -> bool:
        """Syntactic certificate: positive conditions induce monotone operators."""
        return all(analyze(f).positive for f in self.conditions)

    def apply(self, restriction: Restriction) -> Restriction:
        game = self.game
        if restriction.game != game:
            raise OperatorError("restriction belongs to a different game")
        kept = []
        for player, formula in enumerate(self.conditions):
            current = restriction.sets[player]
            survivors = optimal_strategies(game, player, formula, restriction) & current
            # an unchanged component keeps its set: stages share what they do not change
            kept.append(current if len(survivors) == len(current) else survivors)
        return Restriction(game, tuple(kept))


def condition_operator(game: Game, condition: str | FormulaO) -> ConditionOperator:
    """Convenience: build the operator for a builtin name or a single formula."""
    formula = builtin(condition) if isinstance(condition, str) else condition
    return ConditionOperator(game, formula)


class TableOperator(Operator):
    """An explicit restriction-to-restriction map, total on the lattice."""

    def __init__(self, game: Game, table: Mapping[tuple, Restriction]):
        self.game = game
        if lattice_size(game) > _EXHAUSTIVE_LATTICE_LIMIT:
            raise OperatorError("lattice too large for a table operator")
        self.table = dict(table)
        for restriction in restrictions(game):
            if restriction.key() not in self.table:
                raise OperatorError(f"table is missing an image for {restriction}")
        for image in self.table.values():
            if image.game != game:
                raise OperatorError("table image belongs to a different game")

    def apply(self, restriction: Restriction) -> Restriction:
        if restriction.game != self.game:
            raise OperatorError("restriction belongs to a different game")
        return self.table[restriction.key()]


class ContractedOperator(Operator):
    """The wrapped operator intersected with its argument."""

    def __init__(self, base: Operator):
        self.base = base
        self.game = base.game

    def apply(self, restriction: Restriction) -> Restriction:
        return self.base.apply(restriction).meet(restriction)


@dataclass(frozen=True)
class IterationTrace:
    """Stages of iterating an operator until the first repeated stage.

    ``stages[0]`` is the start; each next stage is the image of the previous
    one; the last two stages are equal.  ``closure_ordinal`` is the least k
    with stages[k+1] == stages[k]; ``outcome`` is that stable restriction.
    """

    stages: tuple[Restriction, ...]
    closure_ordinal: int
    outcome: Restriction


def iterate(op: Operator, start: Restriction | None = None) -> IterationTrace:
    """Iterate ``op`` from ``start`` (default: the full game) to a fixpoint.

    Raises :class:`NoFixpointError` if no stage repeats within the lattice
    bound, which can only happen for table operators that are neither
    contracting nor monotone.
    """
    current = op.game.full_restriction() if start is None else start
    if current.game != op.game:
        raise OperatorError("start restriction belongs to a different game")
    stages = [current]
    # contracting operators drop a strategy at every stage until one
    # repeats, so they stop long before this lattice-wide bound
    bound = lattice_size(op.game) + 1
    while True:
        nxt = op.apply(current)
        stages.append(nxt)
        if nxt == current:
            break
        if len(stages) > bound:
            raise NoFixpointError("no fixpoint reached")
        current = nxt
    return IterationTrace(tuple(stages), len(stages) - 2, stages[-1])


def format_trace(trace: IterationTrace) -> str:
    """Serialize a trace: one line per stage plus the closure ordinal."""
    lines = []
    for k, stage in enumerate(trace.stages):
        parts = "; ".join(
            f"{i + 1}: " + " ".join(stage.ordered(i)) for i in stage.game.players
        )
        lines.append(f"stage {k}: {{{parts}}}")
    lines.append(f"closure_ordinal: {trace.closure_ordinal}")
    return "\n".join(lines)


@dataclass(frozen=True)
class MonotonicityReport:
    monotone: bool
    witness: tuple[Restriction, Restriction] | None
    pairs_checked: int


def _subset_pairs(game: Game):
    """All pairs (small, large) of restrictions with small ⊆ large."""
    per_player = []
    for names in game.strategies:
        pairs = []
        for large_mask in range(1 << len(names)):
            large = frozenset(s for b, s in enumerate(names) if large_mask >> b & 1)
            sub_mask = large_mask
            while True:
                small = frozenset(s for b, s in enumerate(names) if sub_mask >> b & 1)
                pairs.append((small, large))
                if sub_mask == 0:
                    break
                sub_mask = (sub_mask - 1) & large_mask
        per_player.append(pairs)
    for combo in product(*per_player):
        small = Restriction(game, tuple(p[0] for p in combo))
        large = Restriction(game, tuple(p[1] for p in combo))
        yield small, large


def check_monotone(
    op: Operator, samples: int | None = None, seed: int = 0
) -> MonotonicityReport:
    """Search for a monotonicity violation O(S) ⊄ O(S') with S ⊆ S'.

    Exhaustive over all comparable pairs by default (lattice must have at
    most 2^16 elements); with ``samples`` set, draws that many seeded random
    comparable pairs instead.
    """
    game = op.game
    cache: dict[tuple, Restriction] = {}

    def image(r: Restriction) -> Restriction:
        key = r.key()
        if key not in cache:
            cache[key] = op.apply(r)
        return cache[key]

    if samples is None:
        if lattice_size(game) > _EXHAUSTIVE_LATTICE_LIMIT:
            raise OperatorError("lattice too large for an exhaustive check")
        pairs = _subset_pairs(game)
    else:
        rng = random.Random(seed)

        def sampled():
            for _ in range(samples):
                larges, smalls = [], []
                for names in game.strategies:
                    large = frozenset(s for s in names if rng.random() < 0.5)
                    small = frozenset(s for s in large if rng.random() < 0.5)
                    larges.append(large)
                    smalls.append(small)
                yield Restriction(game, tuple(smalls)), Restriction(game, tuple(larges))

        pairs = sampled()

    checked = 0
    for small, large in pairs:
        checked += 1
        if not image(small).leq(image(large)):
            return MonotonicityReport(False, (small, large), checked)
    return MonotonicityReport(True, None, checked)


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
    if lattice_size(first.game) > _EXHAUSTIVE_LATTICE_LIMIT:
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


def identity_table(game: Game) -> TableOperator:
    return TableOperator(game, {r.key(): r for r in restrictions(game)})


def constant_table(game: Game, image: Restriction) -> TableOperator:
    return TableOperator(game, {r.key(): image for r in restrictions(game)})
