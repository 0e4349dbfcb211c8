"""The optimality kernel: which strategies of a player satisfy a condition.

:func:`optimal_strategies` and :class:`SurvivorTable` are the one place
the elimination operators, the modal layer and lemma admission ask "does
strategy s of player i satisfy condition c in context C".  The kernel
evaluates the core AST of :mod:`epigame.conditions` with quantifier
projection (argued in that module's docstring), every subformula as a
bitmask over the player's strategies, and payoffs compared through
:meth:`epigame.games.Game.preferences`.  It agrees with the naive
reference :func:`epigame.conditions.models`, which the tests check.  Each
condition is compiled once, in one walk, into a survivors function whose
subformulas are closures that take the state of one call (strategy mask,
membership flags, slot domains and values, payoff table) as their
argument, so one compiled plan serves every game, player and context.

The modal layer asks through :func:`survivor_table` instead: one
:class:`SurvivorTable` per (game, condition), kept on the game the way
its preference table is, memoises the same core by (player, context
masks) for every belief model over that game.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable

from .conditions import (
    CONSTANT,
    Conj,
    CtxAtom,
    FormulaO,
    GeqAtom,
    Neg,
    UnboundVariableError,
    analyze,
)
from .games import Game, Preferences, Restriction

# How a compiled formula reads one component of a bound profile.
_UNREAD, _MEMBERSHIP, _VALUE = 0, 1, 2

_Node = Callable[["_Run"], int]


@lru_cache(maxsize=256)
def _plan(formula: FormulaO) -> Callable[[Preferences, int, list[list[bool]]], int]:
    """A closed, context-safe condition compiled once, as its survivors
    function: ``survivors(prefs, player, inside)`` is the mask of the
    player's strategies that satisfy it, given the player's payoff
    comparisons and every player's context membership flags in strategy
    order.  One plan serves every game, player and context.

    Each subformula is a closure that reads one call's state from its
    :class:`_Run` argument and captures nothing of one game or one call.
    Bound variables are numbered by binder (slots), so shadowing needs no
    environment copies.  ``reads[slot]`` says how the owner's component and
    the opponents' partial profile of that variable are read, which fixes
    the domains each call sets up.
    """
    analysis = analyze(formula)
    if not analysis.closed:
        raise UnboundVariableError("condition must be closed")
    if not analysis.context_safe:
        raise ValueError(
            "condition must be context-safe (the focus may appear only as a compared term)"
        )
    reads: list[list[int]] = []

    def read(slot: int, own: int, others: int) -> None:
        reads[slot][0] = max(reads[slot][0], own)
        reads[slot][1] = max(reads[slot][1], others)

    def compile_(f: FormulaO, scope: dict[str, int]) -> _Node:
        if isinstance(f, CtxAtom):
            slot = scope[f.term]
            read(slot, _MEMBERSHIP, _MEMBERSHIP)
            return lambda r: r.everyone if r.own_in[r.own[slot]] and r.others_in[r.others[slot]] else 0
        if isinstance(f, GeqAtom):
            left, right = (None if t == CONSTANT else scope[t] for t in (f.left, f.right))
            for compared in (left, right):
                if compared is not None:
                    read(compared, _VALUE, _UNREAD)
            slot = scope[f.ctx]
            read(slot, _UNREAD, _VALUE)
            if left is None and right is None:
                return lambda r: r.everyone
            if right is None:
                return lambda r: r.prefs.at_most[r.others[slot]][r.own[left]]
            if left is None:
                return lambda r: r.prefs.at_least[r.others[slot]][r.own[right]]
            return lambda r: (
                r.everyone if r.prefs.at_least[r.others[slot]][r.own[right]] >> r.own[left] & 1 else 0
            )
        if isinstance(f, Neg):
            body = compile_(f.body, scope)
            return lambda r: r.everyone ^ body(r)
        if isinstance(f, Conj):
            first, second = compile_(f.left, scope), compile_(f.right, scope)

            def conj(r: _Run) -> int:
                found = first(r)
                return found & second(r) if found else 0

            return conj
        slot = len(reads)
        reads.append([_UNREAD, _UNREAD])
        body = compile_(f.body, {**scope, f.var: slot})

        def exists(r: _Run) -> int:
            own, others, everyone = r.own, r.others, r.everyone
            own_domain, others_domain = r.domains[slot]
            found = 0
            for own[slot] in own_domain:
                for others[slot] in others_domain:
                    found |= body(r)
                    if found == everyone:
                        return found
            return found

        return exists

    root = compile_(formula, {})

    def survivors(prefs: Preferences, player: int, inside: list[list[bool]]) -> int:
        own_in = inside[player]
        # membership of each opponents' partial profile, in the table's order
        others_in = [all(flags) for flags in product(*inside[:player], *inside[player + 1 :])]
        domains = [(_domain(own, own_in), _domain(others, others_in)) for own, others in reads]
        return root(
            _Run(
                everyone=(1 << len(own_in)) - 1,
                own_in=own_in,
                others_in=others_in,
                domains=domains,
                own=[0] * len(domains),
                others=[0] * len(domains),
                prefs=prefs,
            )
        )

    return survivors


def _domain(read: int, inside: list[bool]) -> Iterable[int]:
    """The values one component of a bound variable must take: all of them
    when compared by ``>=``, one per membership bit that occurs when read
    only by ``C(.)``, and any single one when unread."""
    if read == _VALUE:
        return range(len(inside))
    if read == _MEMBERSHIP:
        first: dict[bool, int] = {}
        for k, flag in enumerate(inside):
            first.setdefault(flag, k)
        return tuple(first.values())
    return (0,)


@dataclass(slots=True)
class _Run:
    """The state one call of a plan evaluates under: the player's strategy
    mask, the context membership of each own strategy and each opponents'
    profile, every slot's domain and current value, and the player's
    payoff comparisons."""

    everyone: int
    own_in: list[bool]
    others_in: list[bool]
    domains: list[tuple[Iterable[int], Iterable[int]]]
    own: list[int]
    others: list[int]
    prefs: Preferences


def optimal_strategies(
    game: Game, player: int, formula: FormulaO, context: Restriction
) -> frozenset[str]:
    """The player's strategies, inside the context or not, whose focus
    satisfies a closed, context-safe condition in that context.

    Equal to the strategies s for which :func:`~epigame.conditions.models`
    holds on any focus profile with s in the player's place, but computed
    for all strategies at once: every subformula evaluates to a bitmask
    over the player's strategies, quantifiers range over projected domains
    and payoffs are compared through the game's
    :meth:`~epigame.games.Game.preferences` table.  Not memoised: the
    elimination operators rarely ask twice (see :class:`SurvivorTable`).
    """
    if not 0 <= player < game.n:
        raise ValueError(f"owner {player} out of range")
    if context.game != game:
        raise ValueError("context restricts a different game")
    inside = [[s in chosen for s in names] for names, chosen in zip(game.strategies, context.sets)]
    mask = _plan(formula)(game.preferences(player), player, inside)
    names = game.strategies[player]
    return frozenset(s for k, s in enumerate(names) if mask >> k & 1)


class SurvivorTable:
    """One condition's survivors in one game, memoised for the modal layer.

    A context is a tuple of per-player strategy masks (strategy k of
    player i is bit k of ``context[i]``); :meth:`survivors` returns the
    mask of player i's strategies satisfying the condition there, computed
    once per (player, context) by the same core as
    :func:`optimal_strategies`.  Belief models of one game keep asking
    about the same few contexts, which is what makes the memo pay.  The
    elimination operators do not use it: an iteration visits each context
    once, so a memo there only holds memory.  Lemma admission builds its
    own tables per sweep, not the game's (see
    :meth:`epigame.proofs.LemmaRegistry.register`).
    """

    __slots__ = ("plan", "sizes", "prefs", "memo")

    def __init__(self, game: Game, formula: FormulaO):
        # holds no reference to the game, which holds the table
        self.plan = _plan(formula)
        self.sizes = tuple(map(len, game.strategies))
        self.prefs = tuple(map(game.preferences, game.players))
        self.memo: tuple[dict[tuple[int, ...], int], ...] = tuple({} for _ in game.players)

    def survivors(self, player: int, context: tuple[int, ...]) -> int:
        memo = self.memo[player]
        found = memo.get(context)
        if found is None:
            inside = [
                [bool(mask >> k & 1) for k in range(size)]
                for mask, size in zip(context, self.sizes)
            ]
            found = memo[context] = self.plan(self.prefs[player], player, inside)
        return found


def survivor_table(game: Game, formula: FormulaO) -> SurvivorTable:
    """The game's :class:`SurvivorTable` for a condition: one per
    (game, condition formula), kept in :attr:`Game.survivor_tables` and
    shared by every belief model over the game."""
    tables = game.survivor_tables
    table = tables.get(formula)
    if table is None:
        table = tables[formula] = SurvivorTable(game, formula)
    return table
