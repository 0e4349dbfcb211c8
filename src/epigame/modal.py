"""Modal fixpoint language over belief models.

Formulas combine rationality atoms ``rat(c, i)`` (player i's strategy
satisfies condition c in the subgame induced by what i considers possible),
belief modalities ``[i]``, optimality modalities ``O(c, i)`` (the condition
holds with the argument event's induced subgame as context), and a greatest
fixpoint ``nu X . psi`` over the single set variable X.  Omitting a player
index bundles a node over all players by conjunction, so formulas stay
independent of the player count; ``box psi`` and ``CB psi`` (common belief,
``nu X . box (X and psi)``) are parsed the same way.  ``forall X . psi`` is
the second-order quantifier.  Negation, conjunction and the parser skeleton
are the condition language's, from :mod:`epigame.conditions`.

The fixpoint is computed by iterating the body intersected with the current
set from the full state space; that always terminates and agrees with the
union of post-fixpoints whenever the body is positive in X.  Otherwise it is
the contracted iteration, which ``THM-IMP``'s ``nu X . O(lsd) X`` relies on.
A free X denotes ``env``, the whole state space by default; validity
checks read it universally instead, as ``forall X``.  A ``forall X``
enumerates every event, so it is refused on models of more than
:data:`MAX_SECOND_ORDER_STATES` states.

A formula is compiled once per (formula, registry, game) into a program
of closures that take the model, whose events are ``int`` bitmasks of
states, as their argument; the program is cached on the game in
:attr:`~epigame.games.Game.modal_cache`.  Compiling resolves each
condition's :class:`SurvivorTable` (in the same cache, shared by every
model of the game) and player range, and makes every refusal.  A context
is a tuple of per-player strategy masks.  The model in mask form memoises
its contexts, the optimal states of each (condition, player) in them and
the rationality rows: for each (condition, player) and possibility row of
that player, the states where the player's strategy survives in the
context it considers possible.  All three hold for every model with the
same plays, so a sweep keeps them while only the possibility sets change.
Every other subformula is recomputed on each fixpoint round or ``forall
X`` candidate, except that a conjunction skips its right side when its
left is empty.  The game keeps the last model interpreted in mask form,
so that calls on one model share those memos.
:func:`check_validity` feeds the program models in mask form straight
from the enumeration or the sampler; a
:class:`~epigame.beliefs.BeliefModel` and frozensets of state names
appear only at the boundary: a countermodel, the ``env`` argument and the
result of :func:`interpret`.
"""

from __future__ import annotations

import re
import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterator

from .beliefs import BeliefModel, Event, enumerate_model_masks, model_of_masks, sample_model_masks
from .conditions import NAME, ConditionRegistry, Conj, FormulaO, Neg, _DescentParser, is_name
from .games import Game, read_index
from .optimality import plan


class ModalError(ValueError):
    pass


#: The most states a model may have where ``forall X`` (or the post-fixpoint
#: reference) enumerates every event: 2**20 events per quantifier.  Sampled
#: validity checks keep to it too, as each drawn model costs K**2 coins per
#: player.
MAX_SECOND_ORDER_STATES = 20

#: The entries a :attr:`~epigame.games.Game.modal_cache` may hold before it
#: is emptied to compile one more program: as many as the ``plan`` and
#: ``analyze`` caches keep.
MAX_CACHED_PROGRAMS = 256


# ---------------------------------------------------------------------------
# AST. ``player`` is 0-based internally; None bundles over all players.


@dataclass(frozen=True)
class Rat:
    condition: str
    player: int | None = None


@dataclass(frozen=True)
class Box:
    player: int | None
    body: "FormulaNu"


@dataclass(frozen=True)
class Opt:
    condition: str
    player: int | None
    body: "FormulaNu"


@dataclass(frozen=True)
class Nu:
    body: "FormulaNu"


@dataclass(frozen=True)
class SetVar:
    pass


@dataclass(frozen=True)
class ForallX:
    body: "FormulaNu"


FormulaNu = Rat | Neg | Conj | Box | Opt | Nu | SetVar | ForallX

X = SetVar()


def imp(antecedent: FormulaNu, consequent: FormulaNu) -> FormulaNu:
    """Implication in the negation/conjunction core."""
    return Neg(Conj(antecedent, Neg(consequent)))


def match_imp(formula: FormulaNu) -> tuple[FormulaNu, FormulaNu] | None:
    """Destructure a formula of implication shape, if it has one."""
    if (
        isinstance(formula, Neg)
        and isinstance(formula.body, Conj)
        and isinstance(formula.body.right, Neg)
    ):
        return formula.body.left, formula.body.right.body
    return None


def common_belief_formula(body: FormulaNu) -> FormulaNu:
    """``CB psi``: the greatest fixpoint of everyone believing X-and-psi."""
    return Nu(Box(None, Conj(X, body)))


# ---------------------------------------------------------------------------
# Parser

class _NuParser(_DescentParser):
    token_re = re.compile(rf"->|[()\[\].,]|{NAME}|[0-9]+|\S")

    def operand(self, tok: str) -> FormulaNu:
        if tok == "box":
            self.advance()
            return self.built(Box(None, self.unary()))
        if tok == "[":
            self.advance()
            player = self.player_index()
            self.expect("]")
            return self.built(Box(player, self.unary()))
        if tok == "CB":
            self.advance()
            return self.built(common_belief_formula(self.unary()))
        if tok == "O":
            self.advance()
            name, player = self.condition_ref()
            return self.built(Opt(name, player, self.unary()))
        if tok == "rat":
            self.advance()
            name, player = self.condition_ref()
            return Rat(name, player)
        if tok == "nu":
            self.advance()
            self.expect("X")
            self.expect(".")
            return self.built(Nu(self.implication()))
        if tok == "forall":
            self.advance()
            self.expect("X")
            self.expect(".")
            return self.built(ForallX(self.implication()))
        if tok == "X":
            self.advance()
            return X
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of formula")

    def condition_ref(self) -> tuple[str, int | None]:
        self.expect("(")
        name = self.peek()
        if not is_name(name):
            raise self.error("expected a condition name")
        self.advance()
        player = None
        if self.peek() == ",":
            self.advance()
            player = self.player_index()
        self.expect(")")
        return name, player

    def player_index(self) -> int:
        index = read_index(self.peek())
        if not index:
            raise self.error("expected a 1-based player index")
        self.advance()
        return index - 1


def parse_nu(text: str) -> FormulaNu:
    """Parse a modal formula.  Player indices are 1-based in the source."""
    return _NuParser(text).parse()


def pretty_nu(formula: FormulaNu) -> str:
    """Readable rendering; folds implications and common belief back to
    their surface forms, so the output reparses to the same tree."""
    parts = match_imp(formula)
    if parts is not None:
        return f"({pretty_nu(parts[0])} -> {pretty_nu(parts[1])})"
    if (
        isinstance(formula, Nu)
        and isinstance(formula.body, Box)
        and formula.body.player is None
        and isinstance(formula.body.body, Conj)
        and isinstance(formula.body.body.left, SetVar)
    ):
        return f"CB {pretty_nu(formula.body.body.right)}"
    if isinstance(formula, Rat):
        tag = formula.condition if formula.player is None else f"{formula.condition}, {formula.player + 1}"
        return f"rat({tag})"
    if isinstance(formula, Neg):
        return f"not {pretty_nu(formula.body)}"
    if isinstance(formula, Conj):
        return f"({pretty_nu(formula.left)} and {pretty_nu(formula.right)})"
    if isinstance(formula, Box):
        prefix = "box" if formula.player is None else f"[{formula.player + 1}]"
        return f"{prefix} {pretty_nu(formula.body)}"
    if isinstance(formula, Opt):
        tag = formula.condition if formula.player is None else f"{formula.condition}, {formula.player + 1}"
        return f"O({tag}) {pretty_nu(formula.body)}"
    if isinstance(formula, Nu):
        # binders extend maximally right, so they are never printed bare
        return f"(nu X . {pretty_nu(formula.body)})"
    if isinstance(formula, SetVar):
        return "X"
    return f"(forall X . {pretty_nu(formula.body)})"


# ---------------------------------------------------------------------------
# Structural helpers


def iter_subformulas(formula: FormulaNu) -> Iterator[FormulaNu]:
    yield formula
    if isinstance(formula, (Neg, Box, Opt, Nu, ForallX)):
        yield from iter_subformulas(formula.body)
    elif isinstance(formula, Conj):
        yield from iter_subformulas(formula.left)
        yield from iter_subformulas(formula.right)


def nu_free(formula: FormulaNu) -> bool:
    return not any(isinstance(f, Nu) for f in iter_subformulas(formula))


def has_free_x(formula: FormulaNu) -> bool:
    if isinstance(formula, SetVar):
        return True
    if isinstance(formula, (Nu, ForallX)):
        return False  # rebinds X
    if isinstance(formula, Conj):
        return has_free_x(formula.left) or has_free_x(formula.right)
    if isinstance(formula, (Neg, Box, Opt)):
        return has_free_x(formula.body)
    return False


def substitute_x(formula: FormulaNu, replacement: FormulaNu) -> FormulaNu:
    """Replace the free occurrences of X.  Occurrences under a nested binder
    are bound there and left alone; since any position below a binder is
    bound, the replacement can never be captured."""
    if isinstance(formula, SetVar):
        return replacement
    if isinstance(formula, (Nu, ForallX)):
        return formula
    if isinstance(formula, Neg):
        return Neg(substitute_x(formula.body, replacement))
    if isinstance(formula, Conj):
        return Conj(
            substitute_x(formula.left, replacement),
            substitute_x(formula.right, replacement),
        )
    if isinstance(formula, Box):
        return Box(formula.player, substitute_x(formula.body, replacement))
    if isinstance(formula, Opt):
        return Opt(formula.condition, formula.player, substitute_x(formula.body, replacement))
    return formula


def positive_in_x(formula: FormulaNu, registry: ConditionRegistry) -> bool:
    """Is every free X under an even number of negations, and below
    optimality modalities only when their condition is positive?"""

    def walk(f: FormulaNu, parity: int, opt_ok: bool) -> bool:
        if isinstance(f, SetVar):
            return parity % 2 == 0 and opt_ok
        if isinstance(f, (Nu, ForallX)):
            return True  # inner occurrences are bound
        if isinstance(f, Neg):
            return walk(f.body, parity + 1, opt_ok)
        if isinstance(f, Conj):
            return walk(f.left, parity, opt_ok) and walk(f.right, parity, opt_ok)
        if isinstance(f, Box):
            return walk(f.body, parity, opt_ok)
        if isinstance(f, Opt):
            ok = opt_ok and registry.get(f.condition).analysis.positive
            return walk(f.body, parity, ok)
        return True

    return walk(formula, 0, True)


# ---------------------------------------------------------------------------
# Interpretation


class SurvivorTable:
    """One condition's survivors in one game: :meth:`survivors` is the
    mask of player i's strategies that satisfy it in a context (strategy k
    of player i is bit k of ``context[i]``), computed once per (player,
    context) by the condition's :func:`~epigame.optimality.plan`.  Belief
    models of one game keep asking about the same few contexts, which is
    what makes the memo pay; the operators and lemma admission visit each
    context once and call the plan directly."""

    __slots__ = ("plan", "sizes", "prefs", "memo")

    def __init__(self, game: Game, formula: FormulaO):
        # holds no reference to the game, which holds the table
        self.plan = plan(formula)
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
    (game, condition formula), kept in :attr:`Game.modal_cache` under the
    formula and shared by every belief model over the game."""
    cache = game.modal_cache
    table = cache.get(formula)
    if table is None:
        table = cache[formula] = SurvivorTable(game, formula)
    return table


class _Model:
    """One belief model as compiled programs read it: every event is an
    ``int`` bitmask over its states, state k being bit k.

    ``plays[i][k]`` is the bit of player i's strategy at state k, and
    ``possible[i]`` is player i's possibility row, a tuple whose k-th mask
    holds the states i considers possible at state k; a sweep assigns it
    directly.  The contexts and the ``optimal`` memos depend on the plays
    alone.  So do the ``rational`` rows, the states where a player's
    strategy survives in the context the player considers possible, once
    they are keyed by the possibility row.  A sweep replaces the model when
    the plays change, so every memo holds one plays block, and every
    program run on the model shares them all.
    """

    __slots__ = ("full", "plays", "possible", "rational", "contexts", "optimal")

    def __init__(self, plays: tuple[tuple[int, ...], ...]):
        self.full = (1 << len(plays[0])) - 1
        self.plays = plays
        self.contexts: dict[int, tuple[int, ...]] = {}
        # (survivor table, player) -> event -> optimal states
        self.optimal: defaultdict[tuple[SurvivorTable, int], dict[int, int]] = defaultdict(dict)
        # (survivor table, player) -> possibility row -> rational states
        self.rational: defaultdict[tuple[SurvivorTable, int], dict[tuple[int, ...], int]] = defaultdict(dict)

    def context(self, event: int) -> tuple[int, ...]:
        """The per-player masks of the strategies played in the event."""
        found = self.contexts.get(event)
        if found is None:
            inside = [event >> k & 1 for k in range(len(self.plays[0]))]
            found = tuple(reduce(or_, compress(row, inside), 0) for row in self.plays)
            self.contexts[event] = found
        return found

    def optimal_states(self, ask: tuple[SurvivorTable, int], event: int) -> int:
        """The states where the player's strategy satisfies the table's
        condition in the event's context, for ``ask`` = (table, player)."""
        memo = self.optimal[ask]
        found = memo.get(event)
        if found is None:
            table, player = ask
            survivors = table.survivors(player, self.context(event))
            found = sum(1 << k for k, bit in enumerate(self.plays[player]) if bit & survivors)
            memo[event] = found
        return found


_Node = Callable[[_Model, int], int]


def _load(model: BeliefModel) -> _Model:
    """The model in mask form.  Its game keeps the last model loaded, so a
    run of calls on one model shares its memos."""
    cache = model.game.modal_cache
    last = cache.get(None)
    if last is not None and last[0]() is model:
        return last[1]
    states = model.states
    bit_of = {s: 1 << k for k, s in enumerate(states)}.__getitem__
    plays = tuple(
        [1 << names.index(row[s]) for s in states] for names, row in zip(model.game.strategies, model.plays)
    )
    loaded = _Model(plays)
    loaded.possible = tuple(tuple(sum(map(bit_of, row[s])) for s in states) for row in model.possible)
    # weakly held: the model holds the game, which would otherwise keep both
    # alive in a cycle
    cache[None] = (weakref.ref(model), loaded)
    return loaded


class _Compiler:
    """Turns formulas into programs of closures over one game.

    Compiling resolves each condition's survivor table and each player
    range, so every refusal is raised here, in the order a walk of the
    formula would meet it.
    """

    def __init__(self, game: Game, registry: ConditionRegistry):
        self.game = game
        self.registry = registry

    def _players(self, tag: int | None) -> range | tuple[int, ...]:
        if tag is None:
            return self.game.players
        if tag not in self.game.players:
            raise ModalError(f"player index {tag + 1} out of range")
        return (tag,)

    def _table(self, name: str) -> SurvivorTable:
        info = self.registry.get(name)
        if not info.analysis.context_safe:
            raise ModalError(f"condition {name!r} is not context-safe")
        return survivor_table(self.game, info.formula)

    def compile(self, f: FormulaNu) -> _Node:
        """The formula's program: ``run(model, env)`` is the event where it
        holds on a :class:`_Model` when X denotes env.  The program keeps
        its memos on the model, so one model serves any sequence of
        programs, and it holds no reference to the game, which caches it
        (see :func:`_program`)."""
        if isinstance(f, Rat):
            players = self._players(f.player)
            table = self._table(f.condition)
            asks = [(table, i) for i in players]

            def rat(m: _Model, env: int) -> int:
                result = m.full
                for ask in asks:
                    row = m.possible[ask[1]]
                    memo = m.rational[ask]
                    held = memo.get(row)
                    if held is None:
                        held = 0
                        for k, seen in enumerate(row):
                            held |= m.optimal_states(ask, seen) & 1 << k
                        memo[row] = held
                    result &= held
                return result

            return rat
        if isinstance(f, Neg):
            body = self.compile(f.body)
            return lambda m, env: m.full ^ body(m, env)
        if isinstance(f, Conj):
            left, right = self.compile(f.left), self.compile(f.right)
            # safe to skip: every refusal is made here, and runs only fill memos
            return lambda m, env: (held := left(m, env)) and held & right(m, env)
        if isinstance(f, Box):
            body = self.compile(f.body)
            players = self._players(f.player)

            def box(m: _Model, env: int) -> int:
                outside = ~body(m, env)
                result = m.full
                for i in players:
                    for k, seen in enumerate(m.possible[i]):
                        if seen & outside:
                            result &= ~(1 << k)
                return result

            return box
        if isinstance(f, Opt):
            body = self.compile(f.body)
            table = self._table(f.condition)
            asks = [(table, i) for i in self._players(f.player)]

            def opt(m: _Model, env: int) -> int:
                event = body(m, env)
                result = m.full
                for ask in asks:
                    result &= m.optimal_states(ask, event)
                return result

            return opt
        if isinstance(f, SetVar):
            return lambda m, env: env
        if isinstance(f, Nu):
            body = self.compile(f.body)

            def nu(m: _Model, env: int) -> int:
                current = m.full
                while True:
                    nxt = body(m, current) & current
                    if nxt == current:
                        return current
                    current = nxt

            return nu
        if isinstance(f, ForallX):
            body = self.compile(f.body)

            def forall(m: _Model, env: int) -> int:
                result = m.full
                for candidate in range(m.full + 1):
                    result &= body(m, candidate)
                    if not result:
                        break
                return result

            return forall
        raise ModalError(f"cannot interpret {f!r}")


def _program(game: Game, formula: FormulaNu, registry: ConditionRegistry) -> _Node:
    """The game's compiled program for the formula, kept in
    :attr:`Game.modal_cache` and keyed on the registry object itself.  A
    full cache is emptied first; its survivor tables and last model are
    rebuilt on demand."""
    cache = game.modal_cache
    key = (formula, registry)
    program = cache.get(key)
    if program is None:
        if len(cache) >= MAX_CACHED_PROGRAMS:
            cache.clear()
        program = cache[key] = _Compiler(game, registry).compile(formula)
    return program


def _interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None,
    registry: ConditionRegistry | None,
) -> Event:
    states = model.states
    if len(states) > MAX_SECOND_ORDER_STATES and any(isinstance(f, ForallX) for f in iter_subformulas(formula)):
        raise ModalError(f"second-order interpretation is limited to {MAX_SECOND_ORDER_STATES} states")
    if env is None:
        start = (1 << len(states)) - 1
    else:
        unknown = set(env).difference(states)
        if unknown:
            raise ModalError(f"unknown state {sorted(unknown)[0]!r} in the environment")
        start = sum(1 << k for k, state in enumerate(states) if state in env)
    run = _program(model.game, formula, registry or ConditionRegistry.standard())
    result = run(_load(model), start)
    return frozenset(s for k, s in enumerate(states) if result >> k & 1)


def interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """The event where the formula holds; ``env`` interprets free X.
    Raises :class:`ModalError` when ``env`` names a state the model lacks,
    and for a ``forall X`` on more than :data:`MAX_SECOND_ORDER_STATES` states."""
    return _interpret(model, formula, env, registry)


def interpret_so(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """:func:`interpret` under a second name, kept apart so profiles count each name's calls."""
    return _interpret(model, formula, env, registry)


# ---------------------------------------------------------------------------
# Validity over enumerated / sampled models


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    countermodel: BeliefModel | None
    models_checked: int


def check_validity(
    game: Game,
    formula: FormulaNu,
    registry: ConditionRegistry | None = None,
    max_states: int = 2,
    samples: int | None = None,
    seed: int = 0,
) -> ValidityReport:
    """Is the formula true at every state of every model over the game?

    Exhaustive over all belief models with up to ``max_states`` states by
    default; with ``samples`` set, checks that many seeded random models
    instead.  A free X is read universally, as ``forall X . formula``.
    Returns the first countermodel found.  Raises :class:`ModalError` when
    the search would check no model at all, so a positive verdict is never
    earned on an empty corpus, and when a second-order formula or a sampled
    search comes with more than :data:`MAX_SECOND_ORDER_STATES` states.
    """
    if max_states < 1:
        raise ModalError(f"models need at least 1 state, got {max_states}")
    if samples is not None and samples < 1:
        raise ModalError(f"need at least 1 sampled model, got {samples}")
    if has_free_x(formula):
        formula = ForallX(formula)
    second_order = any(isinstance(f, ForallX) for f in iter_subformulas(formula))
    if max_states > MAX_SECOND_ORDER_STATES and (second_order or samples is not None):
        kind = "second-order" if second_order else "sampled"
        raise ModalError(f"{kind} validity checks are limited to {MAX_SECOND_ORDER_STATES} states")
    if samples is None:
        candidates = enumerate_model_masks(game, max_states)
    else:
        candidates = sample_model_masks(game, samples, max_states, seed)
    run = _program(game, formula, registry or ConditionRegistry.standard())
    checked = 0
    last = model = None
    for plays, possible in candidates:
        checked += 1
        if plays is not last:
            last = plays
            model = _Model(tuple(tuple(1 << s for s in row) for row in plays))
        model.possible = possible
        if run(model, model.full) != model.full:
            return ValidityReport(False, model_of_masks(game, plays, possible), checked)
    return ValidityReport(True, None, checked)
