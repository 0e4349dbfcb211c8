"""Strategy-elimination operators on the restriction lattice.

A condition-induced operator keeps, per player, exactly the strategies whose
focus satisfies its condition in the current restriction; iterating it from
the full game performs iterated elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .conditions import FormulaO, analyze, builtin
from .games import Game, Restriction, lattice_size
from .optimality import plan


class OperatorError(ValueError):
    pass


class NoFixpointError(RuntimeError):
    """Iteration exceeded the lattice bound without repeating a stage, which
    only an operator that is neither contracting nor monotone, such as an
    :class:`epigame.oracles.TableOperator`, can do."""


EXHAUSTIVE_LATTICE_LIMIT = 1 << 16


class Operator:
    """Base: a self-map of one game's restriction lattice."""

    game: Game

    def apply(self, restriction: Restriction) -> Restriction:
        raise NotImplementedError


class ConditionOperator(Operator):
    """The elimination operator induced by one closed, context-safe
    condition for every player, through the condition's compiled
    :func:`~epigame.optimality.plan`, whose refusal of any other condition
    it raises as :class:`OperatorError`.  Contracting by construction."""

    def __init__(self, game: Game, formula: FormulaO):
        self.game = game
        self.formula = formula
        try:
            self.plan = plan(formula)
        except ValueError as refusal:
            raise OperatorError(str(refusal)) from None

    @property
    def certified_monotone(self) -> bool:
        """Syntactic certificate: positive conditions induce monotone operators."""
        return analyze(self.formula).positive

    def apply(self, restriction: Restriction) -> Restriction:
        game = self.game
        if restriction.game != game:
            raise OperatorError("restriction belongs to a different game")
        masks = restriction.masks
        kept = (self.plan(game.preferences(i), i, masks) & mask for i, mask in enumerate(masks))
        return Restriction(game, tuple(kept))


def condition_operator(game: Game, condition: str | FormulaO) -> ConditionOperator:
    """Convenience: build the operator for a builtin name or a formula."""
    formula = builtin(condition) if isinstance(condition, str) else condition
    return ConditionOperator(game, formula)


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


def iterate(op: Operator) -> IterationTrace:
    """Iterate ``op`` from the full game to a fixpoint.

    Raises :class:`NoFixpointError` if no stage repeats within the lattice
    bound, which can only happen for operators that are neither contracting
    nor monotone, such as some :class:`epigame.oracles.TableOperator`.
    """
    current = op.game.full_restriction()
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
        for large in range(1 << len(names)):
            small = large
            while True:
                pairs.append((small, large))
                if small == 0:
                    break
                small = (small - 1) & large
        per_player.append(pairs)
    for combo in product(*per_player):
        small, large = zip(*combo)
        yield Restriction(game, small), Restriction(game, large)


def check_monotone(
    op: Operator, samples: int | None = None, seed: int = 0
) -> MonotonicityReport:
    """Search for a monotonicity violation O(S) ⊄ O(S') with S ⊆ S'.

    Exhaustive over all comparable pairs by default (lattice must have at
    most 2^16 elements); with ``samples`` set, draws that many seeded random
    comparable pairs instead, at least one.  Per player, one coin per
    strategy in strategy order picks the large component, then one coin per
    strategy of it, again in strategy order, the small one.
    """
    game = op.game
    cache: dict[tuple[int, ...], Restriction] = {}

    def image(r: Restriction) -> Restriction:
        if r.masks not in cache:
            cache[r.masks] = op.apply(r)
        return cache[r.masks]

    if samples is None:
        if lattice_size(game) > EXHAUSTIVE_LATTICE_LIMIT:
            raise OperatorError("lattice too large for an exhaustive check")
        pairs = _subset_pairs(game)
    elif samples < 1:
        raise OperatorError(f"a sampled check needs at least one pair, not {samples}")
    else:
        rng = random.Random(seed)

        def sampled():
            for _ in range(samples):
                larges, smalls = [], []
                for names in game.strategies:
                    large = sum(1 << k for k in range(len(names)) if rng.random() < 0.5)
                    small = sum(1 << k for k in range(len(names)) if large >> k & 1 and rng.random() < 0.5)
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
