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
reads takes a single value.  So of a part of the context, the owner's
component or the opponents' components, a plan reads either every member
or only whether it is empty, and says which (``reads_in_full``): for
``gbr`` and ``gsd`` the owner's component is read for emptiness only, for
``lsd`` both parts in full.  It agrees with the naive reference
:func:`epigame.conditions.models`, which the tests check.  Each condition
is compiled once, in one walk, into a survivors function whose
subformulas are closures that take the state of one call (strategy mask,
two context masks, slot domains sharing their member lists, slot values,
payoff table) as their argument, so one compiled plan serves every game,
player and context.  A context is read as
:attr:`epigame.games.Restriction.masks`, one bitmask per player, the
opponents' masks shifted into one over their profiles, and
:func:`optimal_strategies` names the survivors.  The kernel keeps no state
but its compile cache; the modal layer keeps its own memo of survivors.
"""

from __future__ import annotations

from functools import lru_cache
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
    A call reads the context as two masks, the owner's component and one
    over the opponents' partial profiles, and lists the members of each
    once: every guarded slot that reads a part ranges over its list.
    ``exists v . body`` is guarded when the top-level conjunction chain of
    ``body`` has a ``C(v)`` conjunct of that binder, in any position: that
    conjunct is dropped from the compiled body and ``v`` ranges over the
    context instead.  A ``C(.)`` of any other variable, or one under a
    negation or a nested binder, stays a test, which reads a bit of each.

    ``survivors.reads_in_full`` is a pair of flags for the owner's
    component of the context and for the opponents' components: a part is
    read in full when a guarded binder reads it or some ``C(.)`` stays a
    test.  Otherwise only whether it is empty reaches the result, since a
    guarded binder that does not read it takes ``values[:1]``, which no
    atom reads, and an unguarded one ignores the context.  Two contexts
    that agree on the parts read in full and on which other components are
    empty have the same survivors.
    """
    analysis = analyze(formula)
    if not analysis.closed:
        raise UnboundVariableError("condition must be closed")
    if not analysis.context_safe:
        raise ValueError(
            "condition must be context-safe (the focus may appear only as a compared term)"
        )
    reads: list[list[bool]] = []
    tested = False  # whether some C(.) stays a test

    def compile_(f: FormulaO, scope: dict[str, int], guard: int | None = None) -> _Node:
        # ``guard`` is the slot of the binder whose top-level conjunction
        # chain ``f`` lies in; a C(.) of that binder becomes its domain
        nonlocal tested
        if isinstance(f, CtxAtom):
            slot = scope[f.term]
            if slot == guard:
                reads[slot][2] = True
                return _true
            tested = True
            reads[slot][:2] = True, True
            return lambda r: r.everyone if (r.own_in >> r.own[slot]) & (r.others_in >> r.others[slot]) & 1 else 0
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
    # each slot's domain per part, as an index 2 * guarded + read (see below)
    kinds = [(2 * guarded + own, 2 * guarded + others) for own, others, guarded in reads]

    def survivors(prefs: Preferences, player: int, context: Sequence[int]) -> int:
        sizes = prefs.sizes
        own_in = context[player]
        # bit r: whether opponents' profile r, row r of prefs, is inside.  From
        # the last opponent back, multiplying by its strategies s inside, as
        # bits s * stride, lays a copy of the later ones' profiles at each.
        others_in, stride = 1, 1
        for k in reversed(range(len(sizes))):
            if k != player:
                others_in *= context[k] if stride == 1 else sum(1 << s * stride for s in _members(context[k]))
                stride *= sizes[k]
        own_members, others_members = _members(own_in), _members(others_in)
        # unguarded: any single value, or every one when read; guarded: one
        # value inside (none if the part is empty), or every one when read
        own_domains = ((0,), range(sizes[player]), own_members[:1], own_members)
        others_domains = ((0,), range(stride), others_members[:1], others_members)
        return root(
            _Run(
                everyone=(1 << sizes[player]) - 1,
                own_in=own_in,
                others_in=others_in,
                domains=[(own_domains[own], others_domains[others]) for own, others in kinds],
                own=[0] * len(kinds),
                others=[0] * len(kinds),
                prefs=prefs,
            )
        )

    survivors.reads_in_full = tuple(
        tested or any(slot[part] and slot[2] for slot in reads) for part in (0, 1)
    )
    return survivors


def _members(mask: int) -> list[int]:
    """The positions of the set bits of a mask, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _true(r: _Run) -> int:
    """The compiled form of a subformula true of every strategy."""
    return r.everyone


class _Run:
    """The state one call of a plan evaluates under: the player's strategy
    mask, the context's own mask and its mask over the opponents' profiles,
    every slot's domain (the guarded ones sharing the two masks' member
    lists) and current value, and the player's payoff comparisons."""

    __slots__ = ("everyone", "own_in", "others_in", "domains", "own", "others", "prefs")

    def __init__(
        self,
        everyone: int,
        own_in: int,
        others_in: int,
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
