"""Seeded single-line mutants of proof scripts.

Used by the kernel robustness tests: a sound checker must reject (almost)
every small corruption of a valid script.  Mutants always differ from the
original on exactly one line; a few survivors are expected, since e.g.
swapping the conjuncts of a tautology line usually leaves a tautology.
"""

from __future__ import annotations

import random

from epigame.modal import Box, Conj, ForallX, FormulaNu, Neg, Nu, Opt, Rat
from epigame.proofs import Justification, ProofLine, ProofScript

BUILTIN_NAMES = ("lsd", "gsd", "gbr")
LEMMA_NAMES = ("gbr_implies_lsd", "gbr_implies_gsd")

Path = tuple[str, ...]


def formula_paths(formula: FormulaNu) -> list[Path]:
    """Every position in the tree as a tuple of attribute steps."""
    paths: list[Path] = [()]
    if isinstance(formula, Conj):
        paths += [("left",) + p for p in formula_paths(formula.left)]
        paths += [("right",) + p for p in formula_paths(formula.right)]
    elif isinstance(formula, (Neg, Box, Opt, Nu, ForallX)):
        paths += [("body",) + p for p in formula_paths(formula.body)]
    return paths


def subformula_at(formula: FormulaNu, path: Path) -> FormulaNu:
    for step in path:
        formula = getattr(formula, step)
    return formula


def replace_at(formula: FormulaNu, path: Path, new: FormulaNu) -> FormulaNu:
    if not path:
        return new
    step = path[0]
    child = replace_at(getattr(formula, step), path[1:], new)
    if isinstance(formula, Conj):
        return Conj(child, formula.right) if step == "left" else Conj(formula.left, child)
    if isinstance(formula, Neg):
        return Neg(child)
    if isinstance(formula, Box):
        return Box(formula.player, child)
    if isinstance(formula, Opt):
        return Opt(formula.condition, formula.player, child)
    if isinstance(formula, Nu):
        return Nu(child)
    return ForallX(child)


def _with_formula(line: ProofLine, formula: FormulaNu) -> ProofLine:
    return ProofLine(line.number, formula, line.justification, line.source_line)


def _with_justification(line: ProofLine, justification: Justification) -> ProofLine:
    return ProofLine(line.number, line.formula, justification, line.source_line)


def _swap_condition(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    spots = [
        p
        for p in formula_paths(line.formula)
        if isinstance(subformula_at(line.formula, p), (Rat, Opt))
    ]
    if not spots:
        return None
    path = rng.choice(spots)
    node = subformula_at(line.formula, path)
    other = rng.choice([n for n in BUILTIN_NAMES if n != node.condition])
    if isinstance(node, Rat):
        new = Rat(other, node.player)
    else:
        new = Opt(other, node.player, node.body)
    return _with_formula(line, replace_at(line.formula, path, new))


def _swap_conjuncts(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    spots = [
        p
        for p in formula_paths(line.formula)
        if isinstance(subformula_at(line.formula, p), Conj)
    ]
    if not spots:
        return None
    path = rng.choice(spots)
    node = subformula_at(line.formula, path)
    return _with_formula(line, replace_at(line.formula, path, Conj(node.right, node.left)))


def _insert_negation(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    path = rng.choice(formula_paths(line.formula))
    node = subformula_at(line.formula, path)
    return _with_formula(line, replace_at(line.formula, path, Neg(node)))


def _perturb_ref(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    refs = line.justification.refs
    if not refs or total < 2:
        return None
    slot = rng.randrange(len(refs))
    new_ref = rng.choice([n for n in range(1, total + 1) if n != refs[slot]])
    new_refs = refs[:slot] + (new_ref,) + refs[slot + 1 :]
    just = line.justification
    return _with_justification(line, Justification(just.rule, new_refs, just.lemmas))


def _swap_rule(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    old = line.justification.rule
    target = rng.choice([r for r in ("ratDis", "nuDis", "taut", "mp", "nuInd", "incl", "link") if r != old])
    if target in ("ratDis", "nuDis", "taut"):
        new = Justification(target)
    elif target == "mp":
        new = Justification(target, (rng.randint(1, total), rng.randint(1, total)))
    elif target in ("nuInd", "incl"):
        new = Justification(target, (rng.randint(1, total),))
    else:
        new = Justification(target, (), (rng.choice(LEMMA_NAMES),))
    return _with_justification(line, new)


def _swap_lemma(line: ProofLine, rng: random.Random, total: int) -> ProofLine | None:
    if line.justification.rule != "link":
        return None
    names = line.justification.lemmas
    other = rng.choice([n for n in LEMMA_NAMES if n not in names])
    just = line.justification
    return _with_justification(line, Justification(just.rule, just.refs, (other,)))


_OPERATORS = (
    _swap_condition,
    _swap_conjuncts,
    _insert_negation,
    _perturb_ref,
    _swap_rule,
    _swap_lemma,
)


def mutate_script(script: ProofScript, rng: random.Random) -> ProofScript:
    """One random single-line mutation; retries until the line changes."""
    total = len(script.lines)
    while True:
        index = rng.randrange(total)
        original = script.lines[index]
        mutated = rng.choice(_OPERATORS)(original, rng, total)
        if mutated is None or mutated == original:
            continue
        lines = script.lines[:index] + (mutated,) + script.lines[index + 1 :]
        return ProofScript(lines)
