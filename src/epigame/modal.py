"""Modal fixpoint language over belief models.

Formulas combine rationality atoms ``rat(c, i)`` (player i's strategy
satisfies condition c in the subgame induced by what i considers possible),
belief modalities ``[i]``, optimality modalities ``O(c, i)`` (the condition
holds with the argument event's induced subgame as context), and a greatest
fixpoint ``nu X . psi`` over the single set variable X.  Omitting a player
index bundles a node over all players by conjunction, so formulas stay
independent of the player count; ``box psi`` and ``CB psi`` (common belief,
``nu X . box (X and psi)``) are parsed the same way.  ``forall X . psi`` is
the second-order quantifier, handled only by :func:`interpret_so`.

The fixpoint is computed by iterating the body intersected with the current
set from the full state space; that always terminates and agrees with the
union of post-fixpoints whenever the body is positive in X.  Otherwise it is
the contracted iteration, which ``THM-IMP``'s ``nu X . O(lsd) X`` relies on.
A free X denotes ``env``, the whole state space by default; validity
checks read it universally instead, as ``forall X``.  Second-order
evaluation enumerates every event, so it is limited to
:data:`MAX_SECOND_ORDER_STATES` states.

Inside the evaluator every event is an ``int`` bitmask over the model's
states, and a context is a tuple of per-player strategy masks; the
survivors of a condition in a context come from the game's
:class:`~epigame.optimality.SurvivorTable`, shared by every model of the
game.  Frozensets of state names appear only at the boundary: the ``env``
argument and the results of :func:`interpret` and :func:`interpret_so`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterator

from .beliefs import BeliefModel, Event, enumerate_belief_models, sample_belief_models
from .conditions import ConditionRegistry, _DescentParser
from .games import Game, read_index
from .optimality import SurvivorTable, survivor_table


class ModalError(ValueError):
    pass


#: The most states a model may have where ``forall X`` (or the post-fixpoint
#: reference) enumerates every event: 2**20 events per quantifier.
MAX_SECOND_ORDER_STATES = 20


# ---------------------------------------------------------------------------
# AST. ``player`` is 0-based internally; None bundles over all players.


@dataclass(frozen=True)
class Rat:
    condition: str
    player: int | None = None


@dataclass(frozen=True)
class Neg:
    body: "FormulaNu"


@dataclass(frozen=True)
class Conj:
    left: "FormulaNu"
    right: "FormulaNu"


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
    token_re = re.compile(r"->|[()\[\].,]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+|\S")
    neg = Neg
    conj = Conj

    def primary(self) -> FormulaNu:
        tok = self.peek()
        if tok == "not":
            self.advance()
            return self.built(Neg(self.unary()))
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
        if tok == "(":
            self.advance()
            inner = self.implication()
            self.expect(")")
            return inner
        raise self.error(f"unexpected {tok!r}" if tok else "unexpected end of formula")

    def condition_ref(self) -> tuple[str, int | None]:
        self.expect("(")
        name = self.peek()
        if not name.isidentifier():
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


class _Evaluator:
    """Evaluates formulas on one belief model at a time, with every event
    an ``int`` bitmask over the model's states (state k is bit k).

    A context is a tuple of per-player strategy masks, the OR of the
    strategies played at the event's states; the game's
    :class:`~epigame.optimality.SurvivorTable` of each condition answers
    which strategies survive in it.  Frozensets of state names appear only
    in :func:`interpret` and :func:`interpret_so`, at the boundary.  One
    evaluator serves a whole :func:`check_validity` sweep: :meth:`load`
    swaps the model and keeps the resolved tables while the game stays.
    """

    def __init__(self, registry: ConditionRegistry, second_order: bool):
        self.registry = registry
        self.second_order = second_order
        self.game: Game | None = None
        self._tables: dict[str, SurvivorTable] = {}

    def load(self, model: BeliefModel) -> None:
        game = model.game
        if game is not self.game:
            self.game = game
            self.players = game.players
            self._tables = {}
            self._bits = [{s: 1 << k for k, s in enumerate(names)} for names in game.strategies]
        states = model.states
        index = {s: k for k, s in enumerate(states)}
        self.states = states
        self.full = (1 << len(states)) - 1
        # plays[i][k]: the strategy bit player i plays at state k
        self.plays = [
            tuple(bits[plays[s]] for s in states) for bits, plays in zip(self._bits, model.plays)
        ]
        # possible[i][k]: the states player i considers possible at state k
        self.possible = [
            tuple(sum(1 << index[t] for t in possible[s]) for s in states)
            for possible in model.possible
        ]
        self._contexts: dict[int, tuple[int, ...]] = {}
        self._rat_events: dict[tuple[str, int], int] = {}

    def mask_of(self, event: Event) -> int:
        unknown = set(event).difference(self.states)
        if unknown:
            raise ModalError(f"unknown state {sorted(unknown)[0]!r} in the environment")
        return sum(1 << k for k, state in enumerate(self.states) if state in event)

    def event_of(self, mask: int) -> Event:
        return frozenset(s for k, s in enumerate(self.states) if mask >> k & 1)

    def table(self, name: str) -> SurvivorTable:
        table = self._tables.get(name)
        if table is None:
            info = self.registry.get(name)
            if not info.analysis.context_safe:
                raise ModalError(f"condition {name!r} is not context-safe")
            table = self._tables[name] = survivor_table(self.game, info.formula)
        return table

    def context(self, event: int) -> tuple[int, ...]:
        """The per-player masks of the strategies played in the event."""
        found = self._contexts.get(event)
        if found is None:
            inside = [event >> k & 1 for k in range(len(self.states))]
            found = tuple(reduce(or_, compress(plays, inside), 0) for plays in self.plays)
            self._contexts[event] = found
        return found

    def players_of(self, tag: int | None) -> range | tuple[int, ...]:
        if tag is None:
            return self.players
        if tag not in self.players:
            raise ModalError(f"player index {tag + 1} out of range")
        return (tag,)

    def eval(self, formula: FormulaNu, env: int) -> int:
        rule = self._rules.get(type(formula))
        if rule is None:
            raise ModalError(f"cannot interpret {formula!r}")
        return rule(self, formula, env)

    def _rat(self, formula: Rat, env: int) -> int:
        result = self.full
        for i in self.players_of(formula.player):
            key = (formula.condition, i)
            event = self._rat_events.get(key)
            if event is None:
                table = self.table(formula.condition)
                event = 0
                for k, (bit, seen) in enumerate(zip(self.plays[i], self.possible[i])):
                    if table.survivors(i, self.context(seen)) & bit:
                        event |= 1 << k
                self._rat_events[key] = event
            result &= event
        return result

    def _neg(self, formula: Neg, env: int) -> int:
        return self.full ^ self.eval(formula.body, env)

    def _conj(self, formula: Conj, env: int) -> int:
        return self.eval(formula.left, env) & self.eval(formula.right, env)

    def _box(self, formula: Box, env: int) -> int:
        outside = ~self.eval(formula.body, env)
        result = self.full
        for i in self.players_of(formula.player):
            result &= sum(1 << k for k, seen in enumerate(self.possible[i]) if not seen & outside)
        return result

    def _opt(self, formula: Opt, env: int) -> int:
        context = self.context(self.eval(formula.body, env))
        table = self.table(formula.condition)
        result = self.full
        for i in self.players_of(formula.player):
            survivors = table.survivors(i, context)
            result &= sum(1 << k for k, bit in enumerate(self.plays[i]) if bit & survivors)
        return result

    def _set_var(self, formula: SetVar, env: int) -> int:
        return env

    def _nu(self, formula: Nu, env: int) -> int:
        current = self.full
        while True:
            nxt = self.eval(formula.body, current) & current
            if nxt == current:
                return current
            current = nxt

    def _forall(self, formula: ForallX, env: int) -> int:
        if not self.second_order:
            raise ModalError("forall X needs the second-order interpreter")
        result = self.full
        for candidate in range(self.full + 1):
            result &= self.eval(formula.body, candidate)
            if not result:
                break
        return result

    _rules = {
        Rat: _rat,
        Neg: _neg,
        Conj: _conj,
        Box: _box,
        Opt: _opt,
        SetVar: _set_var,
        Nu: _nu,
        ForallX: _forall,
    }


def _interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None,
    registry: ConditionRegistry | None,
    second_order: bool,
) -> Event:
    evaluator = _Evaluator(registry or ConditionRegistry.standard(), second_order)
    evaluator.load(model)
    start = evaluator.full if env is None else evaluator.mask_of(env)
    return evaluator.event_of(evaluator.eval(formula, start))


def interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """The event where the formula holds; ``env`` interprets free X.
    Raises :class:`ModalError` when ``env`` names a state the model lacks."""
    return _interpret(model, formula, env, registry, second_order=False)


def interpret_so(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """Like :func:`interpret` but allowing ``forall X`` (enumerates all
    events at each quantifier, so exponential in the state count)."""
    if len(model.states) > MAX_SECOND_ORDER_STATES:
        raise ModalError(
            f"second-order interpretation is limited to {MAX_SECOND_ORDER_STATES} states"
        )
    return _interpret(model, formula, env, registry, second_order=True)


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
    earned on an empty corpus, and when a second-order formula comes with
    more than :data:`MAX_SECOND_ORDER_STATES` states.
    """
    if max_states < 1:
        raise ModalError(f"models need at least 1 state, got {max_states}")
    if samples is not None and samples < 1:
        raise ModalError(f"need at least 1 sampled model, got {samples}")
    if has_free_x(formula):
        formula = ForallX(formula)
    second_order = any(isinstance(f, ForallX) for f in iter_subformulas(formula))
    if second_order and max_states > MAX_SECOND_ORDER_STATES:
        raise ModalError(
            f"second-order validity checks are limited to {MAX_SECOND_ORDER_STATES} states"
        )
    registry = registry or ConditionRegistry.standard()
    if samples is None:
        candidates = enumerate_belief_models(game, max_states)
    else:
        candidates = sample_belief_models(game, samples, max_states, seed)
    evaluator = _Evaluator(registry, second_order)
    checked = 0
    for model in candidates:
        checked += 1
        evaluator.load(model)
        if evaluator.eval(formula, evaluator.full) != evaluator.full:
            return ValidityReport(False, model, checked)
    return ValidityReport(True, None, checked)
