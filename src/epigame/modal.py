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
union of post-fixpoints whenever the body is positive in X.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .beliefs import (
    BeliefModel,
    Event,
    believes,
    enumerate_belief_models,
    game_of_event,
    sample_belief_models,
)
from .conditions import ConditionRegistry, _DescentParser
from .games import Game, Restriction, subsets
from .optimality import optimal_strategies


class ModalError(ValueError):
    pass


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
    token_re = re.compile(r"->|[()\[\].,]|[A-Za-z_][A-Za-z_0-9]*|\d+|\S")
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
        tok = self.peek()
        if not tok.isdigit() or int(tok) < 1:
            raise self.error("expected a 1-based player index")
        self.advance()
        return int(tok) - 1


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
    def __init__(
        self,
        model: BeliefModel,
        registry: ConditionRegistry,
        second_order: bool,
        optimal_cache: dict | None = None,
    ):
        self.model = model
        self.registry = registry
        self.second_order = second_order
        self.universe = model.universe
        # (condition, player, context sets) -> the player's optimal
        # strategies; safe to share between models of the same game, so
        # sweeps may pass one in.
        self._optimal_cache: dict[tuple, frozenset[str]] = (
            optimal_cache if optimal_cache is not None else {}
        )
        self._rat_cache: dict[tuple[str, int], Event] = {}

    def condition_holds(self, name: str, player: int, strategy: str, context: Restriction) -> bool:
        key = (name, player, context.sets)
        survivors = self._optimal_cache.get(key)
        if survivors is None:
            info = self.registry.get(name)
            if not info.analysis.context_safe:
                raise ModalError(f"condition {name!r} is not context-safe")
            survivors = optimal_strategies(self.model.game, player, info.formula, context)
            self._optimal_cache[key] = survivors
        return strategy in survivors

    def players_of(self, tag: int | None) -> range | tuple[int, ...]:
        if tag is None:
            return self.model.game.players
        if not 0 <= tag < self.model.game.n:
            raise ModalError(f"player index {tag + 1} out of range")
        return (tag,)

    def eval(self, formula: FormulaNu, env: Event) -> Event:
        model = self.model
        if isinstance(formula, Rat):
            result = self.universe
            for i in self.players_of(formula.player):
                key = (formula.condition, i)
                event = self._rat_cache.get(key)
                if event is None:
                    event = frozenset(
                        state
                        for state in model.states
                        if self.condition_holds(
                            formula.condition,
                            i,
                            model.strategy_of(i, state),
                            game_of_event(model, model.possible_at(i, state)),
                        )
                    )
                    self._rat_cache[key] = event
                result &= event
            return result
        if isinstance(formula, Neg):
            return self.universe - self.eval(formula.body, env)
        if isinstance(formula, Conj):
            return self.eval(formula.left, env) & self.eval(formula.right, env)
        if isinstance(formula, Box):
            inner = self.eval(formula.body, env)
            result = self.universe
            for i in self.players_of(formula.player):
                result &= believes(model, i, inner)
            return result
        if isinstance(formula, Opt):
            inner = self.eval(formula.body, env)
            context = game_of_event(model, inner)
            result = self.universe
            for i in self.players_of(formula.player):
                result &= frozenset(
                    state
                    for state in result
                    if self.condition_holds(
                        formula.condition, i, model.strategy_of(i, state), context
                    )
                )
            return result
        if isinstance(formula, SetVar):
            return env
        if isinstance(formula, Nu):
            current = self.universe
            while True:
                nxt = self.eval(formula.body, current) & current
                if nxt == current:
                    return current
                current = nxt
        if isinstance(formula, ForallX):
            if not self.second_order:
                raise ModalError("forall X needs the second-order interpreter")
            result = self.universe
            for candidate in subsets(sorted(self.universe)):
                result &= self.eval(formula.body, candidate)
                if not result:
                    break
            return result
        raise ModalError(f"cannot interpret {formula!r}")


def interpret(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """The event where the formula holds; ``env`` interprets free X."""
    registry = registry or ConditionRegistry.standard()
    evaluator = _Evaluator(model, registry, second_order=False)
    return evaluator.eval(formula, model.universe if env is None else env)


def interpret_so(
    model: BeliefModel,
    formula: FormulaNu,
    env: Event | None = None,
    registry: ConditionRegistry | None = None,
) -> Event:
    """Like :func:`interpret` but allowing ``forall X`` (enumerates all
    events at each quantifier, so exponential in the state count)."""
    if len(model.states) > 20:
        raise ModalError("second-order interpretation is limited to 20 states")
    registry = registry or ConditionRegistry.standard()
    evaluator = _Evaluator(model, registry, second_order=True)
    return evaluator.eval(formula, model.universe if env is None else env)


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
    instead.  Returns the first countermodel found.  Raises
    :class:`ModalError` when the search would check no model at all, so a
    positive verdict is never earned on an empty corpus.
    """
    if max_states < 1:
        raise ModalError(f"models need at least 1 state, got {max_states}")
    if samples is not None and samples < 1:
        raise ModalError(f"need at least 1 sampled model, got {samples}")
    registry = registry or ConditionRegistry.standard()
    if samples is None:
        candidates = enumerate_belief_models(game, max_states)
    else:
        candidates = sample_belief_models(game, samples, max_states, seed)
    second_order = any(isinstance(f, ForallX) for f in iter_subformulas(formula))
    shared_cache: dict[tuple, bool] = {}
    checked = 0
    for model in candidates:
        checked += 1
        evaluator = _Evaluator(model, registry, second_order, optimal_cache=shared_cache)
        if evaluator.eval(formula, model.universe) != model.universe:
            return ValidityReport(False, model, checked)
    return ValidityReport(True, None, checked)
