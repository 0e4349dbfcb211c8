import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from epigame.conditions import (
    BUILTIN_CONDITION_TEXT, ConditionRegistry, DuplicateNameError, builtin, parse_lo,
)
from epigame.modal import Box, Conj, Neg, Nu, Rat, X, check_validity, imp, parse_nu, substitute_x
from epigame.proofs import (
    AtomBudgetExceeded,
    ImplicationWitness,
    Justification,
    LemmaRefused,
    LemmaRegistry,
    ProofLine,
    ProofScript,
    ProofSyntaxError,
    SweepEvidence,
    UndecidableLemmaError,
    bundled_proof,
    check_proof,
    implication_counterexamples,
    is_tautology,
    match_nudis,
    match_ratdis,
    parse_proof,
    standard_lemmas,
)
from epigame.oracles import bundled_games, fig2, generated_conditions, generated_games
from mutations import mutate_script

REGISTRY = ConditionRegistry.standard()

MAIN = parse_proof(bundled_proof("THM-MAIN"))
IMP = parse_proof(bundled_proof("THM-IMP"))


# --- parsing -----------------------------------------------------------------


def test_parse_bundled_scripts():
    assert len(MAIN.lines) == 8
    assert MAIN.lines[0].justification == Justification("ratDis")
    assert MAIN.lines[3].justification == Justification("mp", (1, 3))
    assert MAIN.lines[5].justification == Justification("nuInd", (5,))
    assert MAIN.theorem == parse_nu("(rat(gbr) and CB rat(gbr)) -> nu X . O(gbr) X")

    assert len(IMP.lines) == 13
    assert IMP.lines[8].justification == Justification("link", (), ("gbr_implies_lsd",))
    assert IMP.lines[9].justification == Justification("incl", (10 - 1,))
    assert IMP.theorem == parse_nu("(rat(gbr) and CB rat(gbr)) -> nu X . O(lsd) X")


def test_parse_proof_errors():
    for text, message in [
        ("2. rat(gbr) ; taut", "expected line number 1"),
        ("1. rat(gbr) taut", "missing ';'"),
        ("1. rat(gbr) ; zap", "bad justification 'zap'"),
        ("1. rat( ; taut", "^line 1, column 9: expected a condition name$"),
        # formula columns count from the start of the file's line
        ("# one\n  1. rat(gbr -> rat(gbr) ; taut", r"^line 2, column 14: expected '\)'$"),
        ("# nothing here\n", "empty proof"),
        ("one. rat(gbr) ; taut", "expected '<number>"),
        ("1. rat(gbr) ; link", "bad justification"),
        ("². X ; taut", "expected '<number>"),
        ("1. X ; mp 1 " + "2" * 5000, "bad justification"),
    ]:
        with pytest.raises(ProofSyntaxError, match=message):
            parse_proof(text)


def test_parse_proof_skips_comments_and_blanks():
    script = parse_proof("# intro\n\n1. rat(gbr) -> rat(gbr) ; taut\n")
    assert len(script.lines) == 1
    assert script.lines[0].source_line == 3


# --- tautology checking --------------------------------------------------------


def test_is_tautology():
    a, b = Rat("gbr", None), Nu(X)
    assert is_tautology(imp(a, a))
    assert is_tautology(imp(Conj(a, b), b))
    assert not is_tautology(imp(a, b))
    assert not is_tautology(a)
    # modal structure is opaque: box a -> a is not propositionally valid
    assert not is_tautology(imp(Box(None, a), a))


def test_tautology_atom_budget():
    atoms = [Rat("gbr", i) for i in range(17)]
    conjunction = atoms[0]
    for atom in atoms[1:]:
        conjunction = Conj(conjunction, atom)
    with pytest.raises(AtomBudgetExceeded, match="limited to 16 atoms"):
        is_tautology(imp(conjunction, conjunction))


# --- axiom schemas --------------------------------------------------------------


def test_match_ratdis():
    line1 = MAIN.lines[0].formula
    match = match_ratdis(line1, REGISTRY)
    assert match
    assert match.bindings["condition"] == "gbr"
    assert match.bindings["context"] == parse_nu("CB rat(gbr) and rat(gbr)")

    # the positivity gate refuses the same shape for lsd
    unsafe = parse_nu("rat(lsd) -> (box rat(lsd) -> O(lsd) rat(lsd))")
    assert not match_ratdis(unsafe, REGISTRY)
    # contexts must agree between the belief and the optimality modality
    skewed = parse_nu("rat(gbr) -> (box rat(gbr) -> O(gbr) rat(gsd))")
    assert not match_ratdis(skewed, REGISTRY)
    # only the bundled (player-free) form instantiates the schema
    pointed = parse_nu("rat(gbr, 1) -> (box rat(gbr, 1) -> O(gbr, 1) rat(gbr, 1))")
    assert not match_ratdis(pointed, REGISTRY)


def test_match_nudis():
    assert match_nudis(MAIN.lines[1].formula, REGISTRY)
    body = Box(None, Conj(X, Rat("gbr", None)))
    good = imp(Nu(body), substitute_x(body, Nu(body)))
    assert match_nudis(good, REGISTRY)
    wrong_unfolding = imp(Nu(body), Box(None, Conj(X, Rat("gbr", None))))
    assert not match_nudis(wrong_unfolding, REGISTRY)
    negative_body = Neg(X)
    bad = imp(Nu(negative_body), substitute_x(negative_body, Nu(negative_body)))
    assert not match_nudis(bad, REGISTRY)


# --- full proofs -----------------------------------------------------------------


def test_bundled_proofs_check():
    report = check_proof(MAIN)
    assert report.ok and report.failure is None
    assert report.theorem == MAIN.theorem

    report = check_proof(IMP, lemmas=standard_lemmas())
    assert report.ok
    assert report.theorem == IMP.theorem


def test_link_requires_registered_lemmas():
    report = check_proof(IMP)  # no lemma registry supplied
    assert not report.ok
    assert report.failure.line == 9
    assert "not registered" in report.failure.reason


def test_condition_swap_fails_at_the_induction_line():
    text = bundled_proof("THM-MAIN").replace(
        "nu X . O(gbr) X ; nuInd 5", "nu X . O(lsd) X ; nuInd 5"
    )
    report = check_proof(parse_proof(text))
    assert not report.ok
    assert report.failure.line == 6
    assert "positive" in report.failure.reason


def test_modus_ponens_shape_is_checked():
    text = (
        "1. rat(gbr) -> rat(gbr) ; taut\n"
        "2. rat(gbr) -> (rat(gbr) -> rat(gbr)) ; taut\n"
        "3. rat(lsd) ; mp 1 2\n"
    )
    report = check_proof(parse_proof(text))
    assert not report.ok
    assert report.failure.line == 3
    assert "not 'line 1 -> this line'" in report.failure.reason


def test_references_must_point_backwards():
    report = check_proof(parse_proof("1. rat(gbr) ; mp 1 2"))
    assert not report.ok
    assert report.failure.line == 1
    assert "not an earlier line" in report.failure.reason


def test_unknown_condition_is_reported_before_matching():
    report = check_proof(parse_proof("1. rat(mystery) -> rat(mystery) ; taut"))
    assert not report.ok
    assert report.failure.line == 1
    assert report.failure.reason == "unknown condition 'mystery'"


def test_a_condition_the_evaluator_refuses_fails_its_line():
    # positive, so ratDis and nuDis would match it, but interpret refuses it
    conditions = REGISTRY.copy()
    conditions.register("focal", parse_lo("exists z in C . C(o) and o >= o @ z"))
    for text in (
        "1. rat(focal) -> (box X -> O(focal) X) ; ratDis",
        "1. (nu X . O(focal) X) -> O(focal) (nu X . O(focal) X) ; nuDis",
    ):
        report = check_proof(parse_proof(text), conditions)
        assert not report.ok
        assert report.failure.line == 1
        assert report.failure.reason == "condition 'focal' is not context-safe"


def test_an_empty_script_is_refused_at_construction():
    with pytest.raises(ValueError, match="at least one line"):
        ProofScript(())


def test_unknown_rule_is_rejected():
    line = ProofLine(1, Rat("gbr", None), Justification("zap"), 1)
    report = check_proof(ProofScript((line,)))
    assert not report.ok and "unknown rule" in report.failure.reason


def test_taut_line_must_be_a_tautology():
    report = check_proof(parse_proof("1. rat(gbr) -> rat(lsd) ; taut"))
    assert not report.ok
    assert report.failure.reason == "not a propositional tautology"


def test_incl_side_conditions():
    lemmas = standard_lemmas()

    ok = parse_proof(
        "1. O(gbr) X -> O(lsd) X ; link gbr_implies_lsd\n"
        "2. (nu X . O(gbr) X) -> nu X . O(lsd) X ; incl 1\n"
    )
    assert check_proof(ok, lemmas=lemmas).ok

    mismatched = parse_proof(
        "1. O(gbr) X -> O(lsd) X ; link gbr_implies_lsd\n"
        "2. (nu X . O(gbr) X) -> nu X . O(gsd) X ; incl 1\n"
    )
    report = check_proof(mismatched, lemmas=lemmas)
    assert not report.ok and "pointwise implication" in report.failure.reason

    nested_fixpoint = parse_proof(
        "1. rat(gbr) and (nu X . X) -> nu X . X ; taut\n"
        "2. (nu X . rat(gbr) and (nu X . X)) -> nu X . nu X . X ; incl 1\n"
    )
    report = check_proof(nested_fixpoint, lemmas=lemmas)
    assert not report.ok and "must not contain a fixpoint" in report.failure.reason

    no_x = parse_proof(
        "1. rat(gbr) and rat(lsd) -> rat(lsd) ; taut\n"
        "2. (nu X . rat(gbr) and rat(lsd)) -> nu X . rat(lsd) ; incl 1\n"
    )
    report = check_proof(no_x, lemmas=lemmas)
    assert not report.ok and "must mention X" in report.failure.reason

    negative_left = parse_proof(
        "1. not not O(lsd) X -> O(lsd) X ; taut\n"
        "2. (nu X . not not O(lsd) X) -> nu X . O(lsd) X ; incl 1\n"
    )
    report = check_proof(negative_left, lemmas=lemmas)
    assert not report.ok and "left body is not positive" in report.failure.reason


def test_link_side_conditions():
    lemmas = standard_lemmas()

    doubled = parse_proof("1. O(gbr) X -> O(lsd) X ; link gbr_implies_lsd, gbr_implies_gsd")
    report = check_proof(doubled, lemmas=lemmas)
    assert not report.ok and "exactly one lemma" in report.failure.reason

    unregistered = parse_proof("1. O(gbr) X -> O(lsd) X ; link made_up")
    report = check_proof(unregistered, lemmas=lemmas)
    assert not report.ok and "'made_up' is not registered" in report.failure.reason

    mismatch = parse_proof("1. O(gbr) X -> O(gsd) X ; link gbr_implies_lsd")
    report = check_proof(mismatch, lemmas=lemmas)
    assert not report.ok and "does not match" in report.failure.reason


def test_link_refuses_lemmas_admitted_for_other_formulas():
    """A lemma was swept for the formulas its names had at admission; a
    registry that gives either name another formula cannot link it."""
    lemmas = standard_lemmas()
    swapped = ConditionRegistry()
    for name, formula in (("gbr", "lsd"), ("lsd", "gbr"), ("gsd", "gsd")):
        swapped.register(name, builtin(formula))
    script = parse_proof("1. O(gbr) X -> O(lsd) X ; link gbr_implies_lsd\n")
    # the line is false under the swapped names, so accepting it is unsound
    assert not check_validity(fig2(), script.theorem, swapped).valid
    report = check_proof(script, swapped, lemmas)
    assert not report.ok
    assert report.failure.reason == "lemma 'gbr_implies_lsd' was admitted for another formula of 'gbr'"

    renamed_right = ConditionRegistry()
    for name, formula in (("gbr", "gbr"), ("gsd", "lsd")):
        renamed_right.register(name, builtin(formula))
    report = check_proof(parse_proof("1. O(gbr) X -> O(gsd) X ; link gbr_implies_gsd\n"), renamed_right, lemmas)
    assert not report.ok
    assert report.failure.reason == "lemma 'gbr_implies_gsd' was admitted for another formula of 'gsd'"


# --- the lemma registry ---------------------------------------------------------


def test_standard_lemmas_sweep_evidence():
    lemmas = standard_lemmas()
    for name in ("gbr_implies_lsd", "gbr_implies_gsd"):
        lemma = lemmas.get(name)
        assert lemma.lhs == "gbr"
        # three bundled games: 16*4*2 + 16*4*2 + 32*6*2 models
        assert lemma.evidence == SweepEvidence(3, 640)
    with pytest.raises(KeyError, match="unknown lemma"):
        lemmas.get("nothing")


def test_false_implication_is_refused_with_a_witness():
    registry = LemmaRegistry()
    with pytest.raises(LemmaRefused) as exc:
        registry.register("lsd_implies_gsd", "lsd", "gsd", REGISTRY, [fig2()])
    witness = exc.value.witness
    assert witness.game_index == 0
    # the witness is a genuine countermodel
    from epigame.conditions import OptimalityModel, builtin, models

    om = OptimalityModel(fig2(), witness.context, witness.focus)
    assert models(om, witness.owner, builtin("lsd"))
    assert not models(om, witness.owner, builtin("gsd"))
    assert "lsd_implies_gsd" not in registry


def test_counterexample_stream_contains_the_textbook_case():
    g = fig2()
    from epigame.conditions import builtin

    cases = list(implication_counterexamples(g, builtin("lsd"), builtin("gsd")))
    assert (g.restriction({"U", "M"}, {"R"}), ("U", "R"), 1) in cases


def test_lemma_registry_rejects_duplicates():
    lemmas = standard_lemmas()
    with pytest.raises(ValueError, match="already registered"):
        lemmas.register("gbr_implies_lsd", "gbr", "lsd", REGISTRY, [fig2()])


def test_a_repeated_lemma_name_is_a_duplicate_name_error():
    registry = LemmaRegistry()
    registry.register("gbr_implies_gsd", "gbr", "gsd", REGISTRY, [fig2()])
    with pytest.raises(DuplicateNameError, match="lemma 'gbr_implies_gsd' already registered"):
        registry.register("gbr_implies_gsd", "gbr", "lsd", REGISTRY, [fig2()])


def test_lemma_sides_must_be_closed_and_context_safe():
    conditions = REGISTRY.copy()
    conditions.register("focal", parse_lo("exists z in C . C(o) and o >= o @ z"))
    registry = LemmaRegistry()
    # refused before the corpus is read: sweeping it would fail on None
    with pytest.raises(UndecidableLemmaError) as refusal:
        registry.register("focal_implies_gsd", "focal", "gsd", conditions, [None])
    assert isinstance(refusal.value, ValueError)
    assert str(refusal.value) == "lemma 'focal_implies_gsd': its left side 'focal' is not context-safe"
    with pytest.raises(UndecidableLemmaError, match="its right side 'focal' is not context-safe"):
        registry.register("gbr_implies_focal", "gbr", "focal", conditions, [None])
    assert "focal_implies_gsd" not in registry and "gbr_implies_focal" not in registry


def test_an_empty_corpus_admits_no_lemma():
    # lsd -> gbr is false: nothing but a sweep of no game would admit it
    registry = LemmaRegistry()
    with pytest.raises(UndecidableLemmaError) as refusal:
        registry.register("bad", "lsd", "gbr", REGISTRY, [])
    assert str(refusal.value) == "lemma 'bad': an empty corpus has no model to sweep"
    assert "bad" not in registry


def test_lemma_sweep_leaves_the_game_memo_alone():
    corpus = [copy.copy(game) for game in bundled_games()]  # copies start without caches
    registry = LemmaRegistry()
    for rhs in ("lsd", "gsd"):
        registry.register(f"gbr_implies_{rhs}", "gbr", rhs, REGISTRY, corpus)
    assert not any("modal_cache" in vars(game) for game in corpus)


LEMMA_SIDES = [builtin(name) for name in BUILTIN_CONDITION_TEXT] + list(generated_conditions())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LEMMA_SIDES), st.sampled_from(LEMMA_SIDES), st.sampled_from(generated_games()))
def test_kernel_admission_matches_the_naive_stream(lhs, rhs, game):
    """The kernel sweep admits a lemma exactly when the naive stream is
    empty, and otherwise reports the stream's first model as its witness."""
    conditions = REGISTRY.copy()
    conditions.register("lhs", lhs)
    conditions.register("rhs", rhs)
    first = next(implication_counterexamples(game, lhs, rhs), None)
    registry = LemmaRegistry()
    if first is None:
        registry.register("lemma", "lhs", "rhs", conditions, [game])
        assert "lemma" in registry
    else:
        with pytest.raises(LemmaRefused) as refusal:
            registry.register("lemma", "lhs", "rhs", conditions, [game])
        assert refusal.value.witness == ImplicationWitness(0, *first)


# --- soundness and robustness ----------------------------------------------------


def test_theorems_hold_on_sampled_models():
    from epigame.modal import check_validity
    from epigame.oracles import fig1_right

    for script in (MAIN, IMP):
        report = check_validity(fig1_right(), script.theorem, samples=150, seed=17)
        assert report.valid


def test_mutants_do_not_slip_through():
    lemmas = standard_lemmas()
    rng = random.Random(99)
    rejected = 0
    for _ in range(60):
        mutant = mutate_script(IMP, rng)
        if not check_proof(mutant, lemmas=lemmas).ok:
            rejected += 1
    assert rejected >= 57  # a mutation may occasionally land on another valid step
