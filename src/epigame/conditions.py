"""First-order language of optimality conditions over strategic games.

A condition is a closed formula read from the point of view of one player
(the *owner*, supplied at evaluation time).  Atoms are context membership
``C(t)`` and payoff comparison ``a >= b @ c``, meaning: the owner, keeping
everyone else at profile c, weakly prefers switching to a's own component
over switching to b's.  The constant ``o`` denotes the focus profile under
evaluation.  The surface syntax additionally offers ``or``, ``->``, strict
``>`` and bounded/unbounded universal quantifiers; all of these are expanded
to the negation/conjunction/exists core at parse time.

Three conditions are built in:

* ``lsd`` — the focus is not strictly dominated within the context,
* ``gsd`` — the focus is not strictly dominated by any strategy of the full game,
* ``gbr`` — the focus is a best response, within the context, against the full game.

Two evaluators share the core AST.  :func:`satisfies` (and :func:`models`)
is the naive reference: quantifiers range over full profiles and payoffs
are compared as fractions.  The fast path is the optimality kernel: the
elimination operators and the modal layer call
``epigame.optimality.plan(formula)(prefs, masks)`` directly, and
:func:`epigame.optimality.optimal_strategies` names the strategies that
call keeps.  On closed, context-safe conditions it decides every strategy
of the owner at once and agrees with the reference.  It compiles each
condition once into closures that are handed the owner's payoff table
(:class:`~epigame.games.Preferences`) and the context's per-player masks on
every call.  It rests on *quantifier projection*: a bound profile is seen
only through its owner component and its opponents' partial profile, a
component the formula reads, by ``>=`` or by ``C(.)``, ranges over its
whole domain, and one it never reads takes any single value, since the
formula sees nothing of it.  A guard narrows this further: in ``exists v . body`` whose
top-level conjunction chain has a ``C(v)`` conjunct of that binder, in any
position, ``v`` ranges over the profiles inside the context and the
conjunct is dropped.  This is sound because ``C(v)`` is false at every
value outside the context, so those values add nothing to the ``exists``,
and true at every value inside, where dropping it changes nothing.  A
profile is inside exactly when its owner component and its opponents'
partial profile both are, so projection applies to each within the
context: the in-context values of a read component, one in-context value
of an unread one, and none at all when the context leaves either part
empty, which makes the ``exists`` false, as ``C(v)`` did.  A ``C(w)`` of
another variable is not a guard of this binder and stays a test.

The module also holds the propositional core of both formula languages,
:class:`Neg` and :class:`Conj`, and the recursive-descent skeleton that
reads ``not``, ``and``, ``or``, ``->`` and parentheses for both parsers.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Mapping

from .games import FormatError, Game, InputError, Profile, Restriction, profile_with, records
from .value import Value, setfield

CONSTANT = "o"
#: Variables and condition names, in both formula languages and in
#: condition files: ASCII only, so that every name a file defines can be
#: written in a formula.
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_KEYWORDS = {"not", "and", "or", "exists", "forall", "in", "C", CONSTANT}


# ---------------------------------------------------------------------------
# AST (core syntax only: C(t), t >= t @ t, not, and, exists)


class CtxAtom(Value):
    term: str

    def __init__(self, term: str):
        setfield(self, "term", term)


class GeqAtom(Value):
    left: str
    right: str
    ctx: str

    def __init__(self, left: str, right: str, ctx: str):
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "ctx", ctx)


class Neg(Value):
    body: FormulaO

    def __init__(self, body: FormulaO):
        setfield(self, "body", body)


class Conj(Value):
    left: FormulaO
    right: FormulaO

    def __init__(self, left: FormulaO, right: FormulaO):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Exists(Value):
    var: str
    body: FormulaO

    def __init__(self, var: str, body: FormulaO):
        setfield(self, "var", var)
        setfield(self, "body", body)


FormulaO = CtxAtom | GeqAtom | Neg | Conj | Exists


class FormulaSyntaxError(FormatError):
    """A syntax error in a condition or modal formula."""


class UnboundVariableError(ValueError, InputError):
    pass


class DuplicateNameError(ValueError, InputError):
    """A condition name that is already defined."""


class UnknownNameError(KeyError, InputError):
    """A condition or lemma name that nothing defines.  Its ``str()`` is the
    plain message, where a bare :class:`KeyError` quotes it."""

    def __str__(self) -> str:
        return Exception.__str__(self)


# ---------------------------------------------------------------------------
# Lexer / parser

#: The deepest formula either parser accepts, counted two ways: parentheses
#: and prefix operators open at once while reading, and levels of the
#: expanded syntax tree.  The parsers and every evaluator recurse once per
#: level (a few frames per parenthesis), so this keeps all of them well
#: inside Python's default recursion limit.
MAX_NESTING = 64


class _DescentParser:
    """Recursive-descent skeleton shared by the condition and modal parsers,
    which owns their propositional core.

    It holds the token cursor, the ``->`` / ``or`` / ``and`` ladder
    (``->`` associates to the right, the others to the left, all expanded
    into :class:`Neg` and :class:`Conj`), ``not`` and parentheses, and the
    nesting bound.  Subclasses give the token pattern and :meth:`operand`,
    which reads every other primary.  Parse methods return a node and its
    tree height, which only the one-level builder :meth:`over` grows.
    """

    token_re: re.Pattern

    def __init__(self, text: str):
        lines = text.splitlines()
        self.tokens = [
            (match.group(), lineno, match.start() + 1)
            for lineno, line in enumerate(lines or [""], start=1)
            for match in self.token_re.finditer(line)
        ]
        self.tokens.append(("", len(lines) or 1, len(lines[-1]) + 1 if lines else 1))
        self.pos = 0
        self.open = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def error(self, message: str) -> FormulaSyntaxError:
        _, line, col = self.tokens[self.pos]
        return FormulaSyntaxError(message, line, col)

    def advance(self) -> str:
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        if self.peek() != token:
            raise self.error(f"expected {token!r}")
        self.advance()

    def too_deep(self) -> FormulaSyntaxError:
        return self.error(f"formula nested deeper than {MAX_NESTING} levels")

    def over(self, make, part):
        """``make`` applied to a parsed part's node, one level above it."""
        node, height = part
        if height >= MAX_NESTING:
            raise self.too_deep()
        return make(node), height + 1

    def neg(self, part):
        return self.over(Neg, part)

    def conj(self, left, right):
        """The conjunction of two parsed parts, one level above the higher."""
        return self.over(partial(Conj, left[0]), (right[0], max(left[1], right[1])))

    def parse(self):
        formula, _ = self.implication()
        if self.peek() != "":
            raise self.error(f"unexpected {self.peek()!r}")
        return formula

    def implication(self):
        left = self.disjunction()
        if self.peek() != "->":
            return left
        self.advance()
        right = self.deeper(self.implication)
        return self.neg(self.conj(left, self.neg(right)))

    def disjunction(self):
        left = self.conjunction()
        while self.peek() == "or":
            self.advance()
            right = self.conjunction()
            left = self.neg(self.conj(self.neg(left), self.neg(right)))
        return left

    def conjunction(self):
        left = self.unary()
        while self.peek() == "and":
            self.advance()
            left = self.conj(left, self.unary())
        return left

    def unary(self):
        return self.deeper(self.primary)

    def deeper(self, parse):
        """Run ``parse`` one nesting level down, refusing to pass the bound."""
        if self.open == MAX_NESTING:
            raise self.too_deep()
        self.open += 1
        result = parse()
        self.open -= 1
        return result

    def primary(self):
        tok = self.peek()
        if tok == "not":
            self.advance()
            return self.neg(self.unary())
        if tok == "(":
            self.advance()
            inner = self.implication()
            self.expect(")")
            return inner
        return self.operand(tok)

    def operand(self, tok: str):
        """Read a primary that starts with ``tok``, neither ``not`` nor ``(``."""
        raise NotImplementedError


class _LoParser(_DescentParser):
    token_re = re.compile(rf">=|->|[()@.>]|{NAME}|\S")

    def operand(self, tok: str) -> tuple[FormulaO, int]:
        if tok in ("exists", "forall"):
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> tuple[FormulaO, int]:
        kind = self.advance()
        var = self.peek()
        if not self._is_variable(var):
            raise self.error("expected a variable name")
        self.advance()
        bounded = self.peek() == "in"
        if bounded:
            self.advance()
            self.expect("C")
        self.expect(".")
        body = self.implication()
        if kind == "forall":
            body = self.neg(body)
        if bounded:
            body = self.conj((CtxAtom(var), 1), body)
        found = self.over(partial(Exists, var), body)
        return self.neg(found) if kind == "forall" else found

    def atom(self) -> tuple[FormulaO, int]:
        if self.peek() == "C":
            self.advance()
            self.expect("(")
            term = self.term()
            self.expect(")")
            return CtxAtom(term), 1
        left = self.term()
        op = self.peek()
        if op not in (">=", ">"):
            raise self.error("expected '>=' or '>'")
        self.advance()
        right = self.term()
        self.expect("@")
        ctx = self.term()
        if op == ">=":
            return GeqAtom(left, right, ctx), 1
        # "b > a @ c" abbreviates "not (a >= b @ c)"
        return self.neg((GeqAtom(right, left, ctx), 1))

    def term(self) -> str:
        tok = self.peek()
        if tok == CONSTANT:
            self.advance()
            return CONSTANT
        if not self._is_variable(tok):
            raise self.error("expected a term (variable or 'o')")
        self.advance()
        return tok

    @staticmethod
    def _is_variable(tok: str) -> bool:
        return is_name(tok) and tok not in _KEYWORDS


def is_name(text: str) -> bool:
    return re.fullmatch(NAME, text) is not None


def parse_lo(text: str) -> FormulaO:
    """Parse a condition into the core AST, expanding all abbreviations."""
    return _LoParser(text).parse()


def pretty_lo(formula: FormulaO) -> str:
    """Render core syntax that :func:`parse_lo` reads back to the same AST."""
    if isinstance(formula, CtxAtom):
        return f"C({formula.term})"
    if isinstance(formula, GeqAtom):
        return f"{formula.left} >= {formula.right} @ {formula.ctx}"
    if isinstance(formula, Neg):
        return f"not {pretty_lo(formula.body)}"
    if isinstance(formula, Conj):
        return f"({pretty_lo(formula.left)} and {pretty_lo(formula.right)})"
    # the binder extends maximally right, so it is never printed bare
    return f"(exists {formula.var} . {pretty_lo(formula.body)})"


# ---------------------------------------------------------------------------
# Static analysis


class ConditionAnalysis(Value):
    closed: bool
    positive: bool
    context_safe: bool

    def __init__(self, closed: bool, positive: bool, context_safe: bool):
        setfield(self, "closed", closed)
        setfield(self, "positive", positive)
        setfield(self, "context_safe", context_safe)


def _scan(formula: FormulaO, negated: bool) -> tuple[frozenset[str], bool, bool]:
    """Free variables, positivity and context-safety in one walk; ``negated``
    is the parity of the negations above."""
    # The focus constant may only be compared, never used to *build* the
    # context: not as the @-subscript of >= and not inside C(.).  Only then
    # does truth depend on the owner's focus component alone, which is what
    # the elimination operators need.
    if isinstance(formula, CtxAtom):
        return frozenset({formula.term}) - {CONSTANT}, not negated, formula.term != CONSTANT
    if isinstance(formula, GeqAtom):
        terms = {formula.left, formula.right, formula.ctx}
        return frozenset(terms) - {CONSTANT}, True, formula.ctx != CONSTANT
    if isinstance(formula, Neg):
        return _scan(formula.body, not negated)
    if isinstance(formula, Conj):
        free, positive, safe = _scan(formula.left, negated)
        more, also_positive, also_safe = _scan(formula.right, negated)
        return free | more, positive and also_positive, safe and also_safe
    free, positive, safe = _scan(formula.body, negated)
    return free - {formula.var}, positive, safe


def analyze(formula: FormulaO) -> ConditionAnalysis:
    """Closedness, positivity (context atoms under an even number of
    negations), and context-safety of a condition."""
    free, positive, safe = _scan(formula, False)
    return ConditionAnalysis(closed=not free, positive=positive, context_safe=safe)


# ---------------------------------------------------------------------------
# Semantics


class OptimalityModel(Value):
    """A game together with a context restriction and a focus profile."""

    game: Game
    context: Restriction
    focus: Profile

    def __init__(self, game: Game, context: Restriction, focus: Profile):
        setfield(self, "game", game)
        setfield(self, "context", context)
        setfield(self, "focus", focus)
        if self.context.game != self.game:
            raise ValueError("context restricts a different game")
        if len(self.focus) != self.game.n or any(
            s not in self.game.strategies[i] for i, s in enumerate(self.focus)
        ):
            raise ValueError(f"bad focus profile {self.focus}")


def _resolve(term: str, assignment: Mapping[str, Profile], focus: Profile) -> Profile:
    if term == CONSTANT:
        return focus
    try:
        return assignment[term]
    except KeyError:
        raise UnboundVariableError(f"unbound variable {term!r}") from None


def satisfies(
    model: OptimalityModel,
    owner: int,
    formula: FormulaO,
    assignment: Mapping[str, Profile] | None = None,
) -> bool:
    """Evaluate a condition for ``owner`` under the given variable assignment.

    This is the naive reference evaluator, kept as the definition that
    :func:`epigame.optimality.optimal_strategies` is tested against: quantifiers range over
    all profiles of the full game, payoffs are compared as fractions, and
    ``C(t)`` asks whether every component of t's profile lies in the
    context.
    """
    game = model.game
    if not 0 <= owner < game.n:
        raise ValueError(f"owner {owner} out of range")
    assignment = dict(assignment or {})
    inside = [frozenset(model.context.ordered(i)) for i in game.players]

    def run(f: FormulaO, env: dict[str, Profile]) -> bool:
        if isinstance(f, CtxAtom):
            profile = _resolve(f.term, env, model.focus)
            return all(map(frozenset.__contains__, inside, profile))
        if isinstance(f, GeqAtom):
            a = _resolve(f.left, env, model.focus)
            b = _resolve(f.right, env, model.focus)
            c = _resolve(f.ctx, env, model.focus)
            better = game.payoff(owner, profile_with(c, owner, a[owner]))
            worse = game.payoff(owner, profile_with(c, owner, b[owner]))
            return better >= worse
        if isinstance(f, Neg):
            return not run(f.body, env)
        if isinstance(f, Conj):
            return run(f.left, env) and run(f.right, env)
        for candidate in game.profiles():
            if run(f.body, {**env, f.var: candidate}):
                return True
        return False

    return run(formula, assignment)


def models(model: OptimalityModel, owner: int, formula: FormulaO) -> bool:
    """Evaluate a closed condition (no assignment needed)."""
    return satisfies(model, owner, formula, {})


# ---------------------------------------------------------------------------
# Builtin conditions and registries

BUILTIN_CONDITION_TEXT: dict[str, str] = {
    "lsd": "forall y in C . exists z in C . o >= y @ z",
    "gsd": "forall y . exists z in C . o >= y @ z",
    "gbr": "exists z in C . forall y . o >= y @ z",
}


@lru_cache(maxsize=None)
def builtin(name: str) -> FormulaO:
    try:
        return parse_lo(BUILTIN_CONDITION_TEXT[name])
    except KeyError:
        raise UnknownNameError(f"unknown builtin condition {name!r}") from None


class ConditionInfo(Value):
    name: str
    formula: FormulaO
    analysis: ConditionAnalysis

    def __init__(self, name: str, formula: FormulaO, analysis: ConditionAnalysis):
        setfield(self, "name", name)
        setfield(self, "formula", formula)
        setfield(self, "analysis", analysis)


class ConditionRegistry:
    """Named conditions usable from the modal layer and proof scripts.

    :meth:`standard` is one shared registry of the builtins, which refuses
    :meth:`register`; :meth:`copy` it to add conditions.
    """

    def __init__(self) -> None:
        self._entries: dict[str, ConditionInfo] = {}
        self._frozen = False

    def register(self, name: str, formula: FormulaO) -> ConditionInfo:
        if self._frozen:
            raise ValueError("the standard registry is shared and read-only; register on a copy()")
        if name in self._entries:
            raise DuplicateNameError(f"condition {name!r} already registered")
        info = ConditionInfo(name, formula, analyze(formula))
        if not info.analysis.closed:
            raise UnboundVariableError(f"condition {name!r} is not closed")
        self._entries[name] = info
        return info

    def get(self, name: str) -> ConditionInfo:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(f"unknown condition {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def copy(self) -> ConditionRegistry:
        """A registry with the same conditions that accepts new ones."""
        registry = ConditionRegistry()
        registry._entries.update(self._entries)
        return registry

    @staticmethod
    def standard() -> ConditionRegistry:
        """The builtin conditions: one read-only registry per process."""
        return _standard_registry()


@lru_cache(maxsize=None)
def _standard_registry() -> ConditionRegistry:
    registry = ConditionRegistry()
    for name in BUILTIN_CONDITION_TEXT:
        registry.register(name, builtin(name))
    registry._frozen = True
    return registry


def parse_condition_file(text: str) -> dict[str, FormulaO]:
    """Parse ``condition <name>: <formula>`` lines; a line starting with # is
    a comment.  Names follow :data:`NAME`, the rule formulas read them by.
    Text that defines no condition is refused."""
    found: dict[str, FormulaO] = {}
    for lineno, line, raw in records(text):
        if not line.startswith("condition"):
            raise FormulaSyntaxError("expected 'condition <name>: <formula>'", lineno, 1)
        head, sep, body = line.partition(":")
        name = head[len("condition") :].strip()
        if not sep or not name:
            raise FormulaSyntaxError("expected 'condition <name>: <formula>'", lineno, 1)
        if not is_name(name):
            column = raw.index(name, raw.index("condition") + len("condition")) + 1
            raise FormulaSyntaxError(
                f"condition name {name!r} is not ASCII letters, digits and '_'", lineno, column
            )
        if name in found:
            raise FormulaSyntaxError(f"duplicate condition {name!r}", lineno, 1)
        try:
            found[name] = parse_lo(body)
        except FormulaSyntaxError as exc:
            raise FormulaSyntaxError(exc.message, lineno, raw.find(":") + 1 + exc.column) from None
    if not found:
        raise FormulaSyntaxError("no condition defined", 1, 1)
    return found
