"""Checker for derivations in the two modal proof systems.

The base system has two axiom schemas — ``ratDis`` (rationality plus belief
in an event yields optimality against it; the condition must be positive)
and ``nuDis`` (a greatest fixpoint unfolds into its body) — and two rules:
``mp`` and ``nuInd`` (anything that implies its own image under a positive
body is below the fixpoint).  Propositional glue lines are justified by
``taut``, checked by truth table after abstracting maximal non-propositional
subformulas.  The extended system adds ``incl`` (fixpoint monotonicity along
a pointwise implication) and ``link``, which turns a registered condition
implication into an implication between optimality modalities; lemmas are
admitted only after a kernel sweep over every context of a game corpus,
which decides all optimality models of a (context, player) with one
comparison of survivor masks (see :meth:`LemmaRegistry.register`).

All schemas are matched structurally against the bundled (player-index-free)
forms, which keeps proof scripts independent of any particular game.
Line numbers and references are ASCII digits; a malformed script raises
:class:`ProofSyntaxError` at its line, and at the column of a bad formula.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Iterator, Sequence

from .conditions import (
    ConditionRegistry, DuplicateNameError, FormulaO, FormulaSyntaxError, OptimalityModel,
    UnknownNameError, models,
)
from .games import (
    FormatError, Game, Profile, Restriction, bundled_games, bundled_text, lattice_size, read_index,
    records, restrictions,
)
from .modal import (
    Box,
    Conj,
    FormulaNu,
    ModalError,
    Neg,
    Nu,
    Opt,
    Rat,
    X,
    evaluable_condition,
    has_free_x,
    imp,
    iter_subformulas,
    match_imp,
    nu_free,
    parse_nu,
    positive_in_x,
    substitute_x,
)
from .optimality import plan
from .value import Value, setfield

TAUT_ATOM_LIMIT = 16


class ProofSyntaxError(FormatError):
    """A malformed proof script."""


class Justification(Value):
    rule: str
    refs: tuple[int, ...]
    lemmas: tuple[str, ...]

    def __init__(self, rule: str, refs: tuple[int, ...] = (), lemmas: tuple[str, ...] = ()):
        setfield(self, "rule", rule)
        setfield(self, "refs", refs)
        setfield(self, "lemmas", lemmas)


class ProofLine(Value):
    number: int
    formula: FormulaNu
    justification: Justification
    source_line: int

    def __init__(self, number: int, formula: FormulaNu, justification: Justification, source_line: int):
        setfield(self, "number", number)
        setfield(self, "formula", formula)
        setfield(self, "justification", justification)
        setfield(self, "source_line", source_line)


class ProofScript(Value):
    lines: tuple[ProofLine, ...]

    def __init__(self, lines: tuple[ProofLine, ...]):
        setfield(self, "lines", lines)
        if not lines:
            raise ValueError("a proof script needs at least one line, its last being the theorem")

    @property
    def theorem(self) -> FormulaNu:
        return self.lines[-1].formula


_JUST_RE = re.compile(
    r"^(?:(ratDis|nuDis|taut)|mp\s+([0-9]+)\s+([0-9]+)|(nuInd|incl)\s+([0-9]+)|link\s+([A-Za-z_0-9,\s]+))$"
)


def _parse_justification(text: str, lineno: int) -> Justification:
    match = _JUST_RE.match(text.strip())
    # references are ASCII digits; read_index refuses only those past int's limit
    refs = tuple(read_index(ref) for ref in match.group(2, 3, 5) if ref) if match else ()
    if not match or None in refs:
        raise ProofSyntaxError(f"bad justification {text.strip()!r}", lineno)
    if match.group(1):
        return Justification(match.group(1))
    if match.group(2):
        return Justification("mp", refs)
    if match.group(4):
        return Justification(match.group(4), refs)
    names = tuple(n.strip() for n in match.group(6).split(",") if n.strip())
    if not names:
        raise ProofSyntaxError("link needs a lemma name", lineno)
    return Justification("link", (), names)


def parse_proof(text: str) -> ProofScript:
    """Parse ``n. <formula> ; <justification>`` lines; a line starting with # is a comment."""
    lines: list[ProofLine] = []
    for lineno, stripped, raw in records(text):
        head, dot, rest = stripped.partition(".")
        number = read_index(head.strip()) if dot else None
        if number is None:
            raise ProofSyntaxError("expected '<number>. <formula> ; <justification>'", lineno)
        if number != len(lines) + 1:
            raise ProofSyntaxError(f"expected line number {len(lines) + 1}, got {number}", lineno)
        formula_text, sep, justification_text = rest.rpartition(";")
        if not sep:
            raise ProofSyntaxError("missing ';' before the justification", lineno)
        try:
            formula = parse_nu(formula_text)
        except FormulaSyntaxError as exc:
            # the formula text starts just past the number's dot
            start = raw.index(stripped) + len(head) + 1
            raise ProofSyntaxError(exc.message, lineno, start + exc.column) from None
        lines.append(
            ProofLine(number, formula, _parse_justification(justification_text, lineno), lineno)
        )
    if not lines:
        raise ProofSyntaxError("empty proof", 1)
    return ProofScript(tuple(lines))


# ---------------------------------------------------------------------------
# Propositional tautology checking


class AtomBudgetExceeded(ValueError):
    pass


def _propositional_atoms(formula: FormulaNu, atoms: dict[FormulaNu, int]) -> None:
    if isinstance(formula, Neg):
        _propositional_atoms(formula.body, atoms)
    elif isinstance(formula, Conj):
        _propositional_atoms(formula.left, atoms)
        _propositional_atoms(formula.right, atoms)
    elif formula not in atoms:
        atoms[formula] = len(atoms)


def is_tautology(formula: FormulaNu) -> bool:
    """Truth-table validity over the propositional skeleton: negation and
    conjunction are interpreted, everything else is an opaque atom."""
    atoms: dict[FormulaNu, int] = {}
    _propositional_atoms(formula, atoms)
    if len(atoms) > TAUT_ATOM_LIMIT:
        raise AtomBudgetExceeded(f"taut check limited to {TAUT_ATOM_LIMIT} atoms")

    def truth(f: FormulaNu, valuation: int) -> bool:
        if isinstance(f, Neg):
            return not truth(f.body, valuation)
        if isinstance(f, Conj):
            return truth(f.left, valuation) and truth(f.right, valuation)
        return bool(valuation >> atoms[f] & 1)

    return all(truth(formula, valuation) for valuation in range(1 << len(atoms)))


# ---------------------------------------------------------------------------
# Axiom schemas


class AxiomMatch(Value):
    rule: str
    bindings: dict | None

    def __init__(self, rule: str, bindings: dict | None):
        setfield(self, "rule", rule)
        setfield(self, "bindings", bindings)

    def __bool__(self) -> bool:
        return self.bindings is not None


def match_ratdis(formula: FormulaNu, conditions: ConditionRegistry) -> AxiomMatch:
    """``rat(c) -> (box chi -> O(c) chi)`` with c registered and positive."""
    outer = match_imp(formula)
    if outer:
        antecedent, rest = outer
        inner = match_imp(rest)
        if (
            inner
            and isinstance(antecedent, Rat)
            and antecedent.player is None
            and isinstance(inner[0], Box)
            and inner[0].player is None
            and isinstance(inner[1], Opt)
            and inner[1].player is None
            and inner[1].condition == antecedent.condition
            and inner[0].body == inner[1].body
            and antecedent.condition in conditions
            and conditions.get(antecedent.condition).analysis.positive
        ):
            return AxiomMatch(
                "ratDis", {"condition": antecedent.condition, "context": inner[0].body}
            )
    return AxiomMatch("ratDis", None)


def match_nudis(formula: FormulaNu, conditions: ConditionRegistry) -> AxiomMatch:
    """``nu X . psi -> psi[X := nu X . psi]`` with psi positive in X."""
    outer = match_imp(formula)
    if outer:
        fixpoint, unfolding = outer
        if (
            isinstance(fixpoint, Nu)
            and positive_in_x(fixpoint.body, conditions)
            and unfolding == substitute_x(fixpoint.body, fixpoint)
        ):
            return AxiomMatch("nuDis", {"body": fixpoint.body})
    return AxiomMatch("nuDis", None)


# ---------------------------------------------------------------------------
# Lemma registry (for the link rule)


class SweepEvidence(Value):
    """What a lemma's admission covered: the corpus games, and the
    optimality models (context, focus, owner) of those games that the
    sweep decided, whether or not each was evaluated on its own."""

    games: int
    models_checked: int

    def __init__(self, games: int, models_checked: int):
        setfield(self, "games", games)
        setfield(self, "models_checked", models_checked)


class Lemma(Value):
    """``lhs -> rhs``, admitted for the two names' ``formulas`` then."""

    name: str
    lhs: str
    rhs: str
    formulas: tuple[FormulaO, FormulaO]
    evidence: SweepEvidence

    def __init__(
        self, name: str, lhs: str, rhs: str, formulas: tuple[FormulaO, FormulaO], evidence: SweepEvidence
    ):
        setfield(self, "name", name)
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)
        setfield(self, "formulas", formulas)
        setfield(self, "evidence", evidence)


class ImplicationWitness(Value):
    game_index: int
    context: Restriction
    focus: Profile
    owner: int

    def __init__(self, game_index: int, context: Restriction, focus: Profile, owner: int):
        setfield(self, "game_index", game_index)
        setfield(self, "context", context)
        setfield(self, "focus", focus)
        setfield(self, "owner", owner)


class LemmaRefused(Exception):
    """The semantic sweep found a countermodel to the claimed implication."""

    def __init__(self, name: str, witness: ImplicationWitness):
        self.name = name
        self.witness = witness
        super().__init__(
            f"lemma {name!r} refused: owner {witness.owner + 1} at focus "
            f"{witness.focus} under context [{witness.context}]"
        )


class UndecidableLemmaError(ValueError):
    """A lemma admission that cannot be decided: a side the optimality
    kernel cannot evaluate, one that is not context-safe, or an empty
    corpus, which holds no model to sweep."""


def implication_counterexamples(
    game: Game, lhs: FormulaO, rhs: FormulaO
) -> Iterator[tuple[Restriction, Profile, int]]:
    """Optimality models where lhs holds but rhs fails, in enumeration order.

    The naive reference for :meth:`LemmaRegistry.register`, one
    :func:`~epigame.conditions.models` call per (context, focus, owner);
    kept for the tests that check the kernel sweep against it."""
    for context in restrictions(game):
        for focus in game.profiles():
            om = OptimalityModel(game, context, focus)
            for owner in game.players:
                if models(om, owner, lhs) and not models(om, owner, rhs):
                    yield context, focus, owner


def _first_counterexample(
    game: Game, lhs: FormulaO, rhs: FormulaO
) -> tuple[Restriction, Profile, int] | None:
    """The first item of :func:`implication_counterexamples`, found with the
    optimality kernel: per context, one survivor-mask difference per player.
    Contexts are walked as masks, in :func:`~epigame.games.restrictions`
    order, and only the witness's is built as a restriction."""
    lhs_plan, rhs_plan = plan(lhs), plan(rhs)
    prefs = tuple(map(game.preferences, game.players))
    for masks in product(*(range(1 << len(names)) for names in game.strategies)):
        escaping = [lhs_plan(p, masks) & ~rhs_plan(p, masks) for p in prefs]
        if any(escaping):
            for focus in game.profiles():
                for owner in game.players:
                    if escaping[owner] >> game.strategies[owner].index(focus[owner]) & 1:
                        return Restriction(game, masks), focus, owner
    return None


class LemmaRegistry:
    def __init__(self) -> None:
        self._entries: dict[str, Lemma] = {}

    def get(self, name: str) -> Lemma:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(f"unknown lemma {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def register(
        self,
        name: str,
        lhs: str,
        rhs: str,
        conditions: ConditionRegistry,
        corpus: Sequence[Game],
    ) -> Lemma:
        """Admit ``lhs -> rhs`` after sweeping every optimality model of
        every corpus game; raises :class:`LemmaRefused` on the first
        counterexample, in :func:`implication_counterexamples` order.

        A repeated name raises :class:`~epigame.conditions.DuplicateNameError`.
        Both sides must be context-safe (registered conditions are closed)
        and the corpus must hold a game, else :class:`UndecidableLemmaError`
        is raised before any sweep.  For a context-safe condition, whether
        a (context, focus, owner) model satisfies it depends only on the
        owner's strategy in the focus, which is the
        contract of :func:`~epigame.optimality.plan`.  So per context, one
        mask per player, lhs survivors minus rhs survivors, decides every
        focus of that player at once: the implication fails exactly at the
        foci whose owner strategy is in that mask.  Contexts are walked in
        :func:`~epigame.games.restrictions` order, and only a context with
        an escaping strategy is scanned for the first escaping (focus,
        owner).  ``link`` compares the recorded formulas with its own
        registry's.
        """
        if name in self._entries:
            raise DuplicateNameError(f"lemma {name!r} already registered")
        sides = []
        for which, side in (("left", lhs), ("right", rhs)):
            info = conditions.get(side)
            if not info.analysis.context_safe:
                raise UndecidableLemmaError(
                    f"lemma {name!r}: its {which} side {side!r} is not context-safe"
                )
            sides.append(info.formula)
        if not corpus:
            raise UndecidableLemmaError(f"lemma {name!r}: an empty corpus has no model to sweep")
        checked = 0
        for index, game in enumerate(corpus):
            witness = _first_counterexample(game, *sides)
            if witness is not None:
                raise LemmaRefused(name, ImplicationWitness(index, *witness))
            checked += lattice_size(game) * len(game.payoffs) * game.n
        lemma = Lemma(name, lhs, rhs, tuple(sides), SweepEvidence(len(corpus), checked))
        self._entries[name] = lemma
        return lemma


# ---------------------------------------------------------------------------
# Proof checking


class ProofFailure(Value):
    line: int
    reason: str

    def __init__(self, line: int, reason: str):
        setfield(self, "line", line)
        setfield(self, "reason", reason)


class ProofReport(Value):
    ok: bool
    failure: ProofFailure | None
    theorem: FormulaNu | None

    def __init__(self, ok: bool, failure: ProofFailure | None, theorem: FormulaNu | None):
        setfield(self, "ok", ok)
        setfield(self, "failure", failure)
        setfield(self, "theorem", theorem)


def _check_line(
    line: ProofLine,
    earlier: dict[int, FormulaNu],
    conditions: ConditionRegistry,
    lemmas: LemmaRegistry,
) -> str | None:
    just = line.justification
    rule = just.rule

    for ref in just.refs:
        if ref not in earlier:
            return f"reference to line {ref} is not an earlier line"

    if rule == "ratDis":
        if not match_ratdis(line.formula, conditions):
            return "not an instance of ratDis (same positive condition and context everywhere)"
        return None
    if rule == "nuDis":
        if not match_nudis(line.formula, conditions):
            return "not an instance of nuDis (unfolding of a positive-in-X fixpoint)"
        return None
    if rule == "taut":
        try:
            if not is_tautology(line.formula):
                return "not a propositional tautology"
        except AtomBudgetExceeded as exc:
            return str(exc)
        return None
    if rule == "mp":
        j, k = just.refs
        if earlier[k] != imp(earlier[j], line.formula):
            return f"line {k} is not 'line {j} -> this line'"
        return None
    if rule == "nuInd":
        (j,) = just.refs
        parts = match_imp(line.formula)
        if not parts or not isinstance(parts[1], Nu):
            return "conclusion must have shape 'chi -> nu X . psi'"
        chi, fixpoint = parts
        if not positive_in_x(fixpoint.body, conditions):
            return "fixpoint body is not positive in X"
        if earlier[j] != imp(chi, substitute_x(fixpoint.body, chi)):
            return f"line {j} is not 'chi -> psi[X := chi]' for this conclusion"
        return None
    if rule == "incl":
        (j,) = just.refs
        parts = match_imp(line.formula)
        if (
            not parts
            or not isinstance(parts[0], Nu)
            or not isinstance(parts[1], Nu)
        ):
            return "conclusion must have shape 'nu X . chi -> nu X . psi'"
        chi, psi = parts[0].body, parts[1].body
        if earlier[j] != imp(chi, psi):
            return f"line {j} is not the pointwise implication of the two bodies"
        if not positive_in_x(chi, conditions):
            return "left body is not positive in X"
        if not nu_free(psi):
            return "right body must not contain a fixpoint"
        if not has_free_x(psi):
            return "right body must mention X"
        return None
    if rule == "link":
        if len(just.lemmas) != 1:
            return "link takes exactly one lemma (bundled form)"
        name = just.lemmas[0]
        if name not in lemmas:
            return f"lemma {name!r} is not registered"
        lemma = lemmas.get(name)
        expected = imp(Opt(lemma.lhs, None, X), Opt(lemma.rhs, None, X))
        if line.formula != expected:
            return f"formula does not match 'O({lemma.lhs}) X -> O({lemma.rhs}) X'"
        for side, formula in zip((lemma.lhs, lemma.rhs), lemma.formulas):
            if conditions.get(side).formula != formula:
                return f"lemma {name!r} was admitted for another formula of {side!r}"
        return None
    return f"unknown rule {rule!r}"


def check_proof(
    script: ProofScript,
    conditions: ConditionRegistry | None = None,
    lemmas: LemmaRegistry | None = None,
) -> ProofReport:
    """Verify every line; returns the first failure or the proved theorem."""
    conditions = conditions or ConditionRegistry.standard()
    lemmas = lemmas or LemmaRegistry()
    earlier: dict[int, FormulaNu] = {}
    for line in script.lines:
        reason = _refused_condition(line.formula, conditions) or _check_line(
            line, earlier, conditions, lemmas
        )
        if reason is not None:
            return ProofReport(False, ProofFailure(line.number, reason), None)
        earlier[line.number] = line.formula
    return ProofReport(True, None, script.theorem)


def _refused_condition(formula: FormulaNu, conditions: ConditionRegistry) -> str | None:
    """The evaluator's refusal of the first condition the formula names
    that it refuses, checked before any matching, so that no line is
    certified about a condition no model can interpret."""
    for sub in iter_subformulas(formula):
        if isinstance(sub, (Rat, Opt)):
            try:
                evaluable_condition(conditions, sub.condition)
            except (UnknownNameError, ModalError) as refusal:
                return str(refusal)
    return None


def standard_lemmas() -> LemmaRegistry:
    """The registry used by the bundled scripts: best response implies both
    undominatedness notions of the standard registry, on the bundled games."""
    conditions = ConditionRegistry.standard()
    corpus = bundled_games()
    registry = LemmaRegistry()
    registry.register("gbr_implies_lsd", "gbr", "lsd", conditions, corpus)
    registry.register("gbr_implies_gsd", "gbr", "gsd", conditions, corpus)
    return registry


def bundled_proof(name: str) -> str:
    """The text of a packaged proof script, e.g. ``THM-MAIN``."""
    return bundled_text(f"{name}.prf")
