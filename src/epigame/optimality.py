"""The optimality kernel: which strategies of a player satisfy a condition.

:func:`plan` is the one place the elimination operators, the modal layer
and lemma admission ask "does strategy s of player i satisfy condition c
in context C".  The kernel evaluates the core AST of
:mod:`epigame.conditions` with quantifier projection (argued in that
module's docstring), every subformula as a bitmask over the player's
strategies, and payoffs compared through
:meth:`epigame.games.Game.preferences`.  A quantifier guarded by its own
``C(.)`` ranges over the context only, as every builtin's does: the guard
becomes the binder's domain instead of a test run on every value of the
whole game.  Any other component the condition reads, by ``>=`` or by a
``C(.)`` that stays a test, ranges over its whole domain, and one it never
reads takes a single value.  It agrees with the naive
reference :func:`epigame.conditions.models`, which the tests check.  Each
condition is compiled once, in one walk, into a survivors function whose
subformulas are closures that take the state of one call (strategy mask,
membership flags, slot domains and values, payoff table) as their
argument, so one compiled plan serves every game, player and context.  A
context is read as :attr:`epigame.games.Restriction.masks`, one bitmask
per player, and :func:`optimal_strategies` names the survivors.  The
kernel keeps no state but its compile cache; the modal layer keeps its own
memo of survivors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

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

_Node = Callable[["_Run"], int]


@lru_cache(maxsize=256)
def plan(formula: FormulaO) -> Callable[[Preferences, int, Sequence[int]], int]:
    """A closed, context-safe condition compiled once, as its survivors
    function: ``survivors(prefs, player, context)`` is the mask of the
    player's strategies that satisfy it, given the player's payoff
    comparisons and the context as one mask per player (strategy k of
    player i is bit k of ``context[i]``).  One plan serves every game,
    player and context.

    Each subformula is a closure that reads one call's state from its
    :class:`_Run` argument and captures nothing of one game or one call.
    Bound variables are numbered by binder (slots), so shadowing needs no
    environment copies.  ``reads[slot]`` says whether the owner's component
    and the opponents' partial profile of that variable are read, and
    whether the variable is guarded, which fixes the domains of each call.
    ``exists v . body`` is guarded when the top-level conjunction chain of
    ``body`` has a ``C(v)`` conjunct of that binder, in any position: that
    conjunct is dropped from the compiled body and ``v`` ranges over the
    context instead (see :func:`_domain`).  A ``C(.)`` of any other
    variable, or one under a negation or a nested binder, stays a test.
    """
    analysis = analyze(formula)
    if not analysis.closed:
        raise UnboundVariableError("condition must be closed")
    if not analysis.context_safe:
        raise ValueError(
            "condition must be context-safe (the focus may appear only as a compared term)"
        )
    reads: list[list[bool]] = []

    def compile_(f: FormulaO, scope: dict[str, int], guard: int | None = None) -> _Node:
        # ``guard`` is the slot of the binder whose top-level conjunction
        # chain ``f`` lies in; a C(.) of that binder becomes its domain
        if isinstance(f, CtxAtom):
            slot = scope[f.term]
            if slot == guard:
                reads[slot][2] = True
                return _true
            reads[slot][:2] = True, True
            return lambda r: r.everyone if r.own_in[r.own[slot]] and r.others_in[r.others[slot]] else 0
        if isinstance(f, GeqAtom):
            left, right = (None if t == CONSTANT else scope[t] for t in (f.left, f.right))
            for compared in (left, right):
                if compared is not None:
                    reads[compared][0] = True
            slot = scope[f.ctx]
            reads[slot][1] = True
            if left is None and right is None:
                return _true
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
            first, second = compile_(f.left, scope, guard), compile_(f.right, scope, guard)
            if first is _true:
                return second
            if second is _true:
                return first

            def conj(r: _Run) -> int:
                found = first(r)
                return found & second(r) if found else 0

            return conj
        slot = len(reads)
        reads.append([False, False, False])
        body = compile_(f.body, {**scope, f.var: slot}, slot)

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

    def survivors(prefs: Preferences, player: int, context: Sequence[int]) -> int:
        inside = [[mask >> k & 1 for k in range(size)] for mask, size in zip(context, prefs.sizes)]
        own_in = inside[player]
        # membership of each opponents' partial profile, in the table's order
        others_in = [all(flags) for flags in product(*inside[:player], *inside[player + 1 :])]
        domains = [
            (_domain(own, own_in, guarded), _domain(others, others_in, guarded))
            for own, others, guarded in reads
        ]
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


def _domain(read: bool, inside: list[int], guarded: bool) -> Iterable[int]:
    """The values one component of a bound variable must take.  Under a
    ``C(.)`` guard: the values inside the context when the component is
    read, by ``>=`` or by a ``C(.)`` that stays a test, else one of them,
    or none when no value is inside.  Without one: every value when read,
    else any single one."""
    if guarded:
        values = [k for k, flag in enumerate(inside) if flag]
        return values if read else values[:1]
    return range(len(inside)) if read else (0,)


def _true(r: _Run) -> int:
    """The compiled form of a subformula true of every strategy."""
    return r.everyone


class _Run:
    """The state one call of a plan evaluates under: the player's strategy
    mask, the context membership of each own strategy and each opponents'
    profile, every slot's domain and current value, and the player's
    payoff comparisons."""

    __slots__ = ("everyone", "own_in", "others_in", "domains", "own", "others", "prefs")

    def __init__(
        self,
        everyone: int,
        own_in: list[int],
        others_in: list[bool],
        domains: list[tuple[Iterable[int], Iterable[int]]],
        own: list[int],
        others: list[int],
        prefs: Preferences,
    ):
        self.everyone = everyone
        self.own_in = own_in
        self.others_in = others_in
        self.domains = domains
        self.own = own
        self.others = others
        self.prefs = prefs


def optimal_strategies(
    game: Game, player: int, formula: FormulaO, context: Restriction
) -> frozenset[str]:
    """The player's strategies, inside the context or not, whose focus
    satisfies a closed, context-safe condition in that context.

    Equal to the strategies s for which :func:`~epigame.conditions.models`
    holds on any focus profile with s in the player's place, but decided
    for all of them at once by the condition's :func:`plan`.
    """
    if not 0 <= player < game.n:
        raise ValueError(f"owner {player} out of range")
    if context.game != game:
        raise ValueError("context restricts a different game")
    mask = plan(formula)(game.preferences(player), player, context.masks)
    names = game.strategies[player]
    return frozenset(s for k, s in enumerate(names) if mask >> k & 1)
