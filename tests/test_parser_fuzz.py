"""Every parser either parses its input or refuses it with its own format
error, positioned at a line (and a column, for formulas), never anything else."""

from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from epigame.beliefs import ModelFormatError, format_model, parse_model, sample_belief_models
from epigame.conditions import BUILTIN_CONDITION_TEXT, FormulaSyntaxError, parse_condition_file, parse_lo
from epigame.games import GameFormatError, bundled_game, parse_game
from epigame.modal import parse_nu
from epigame.proofs import ProofSyntaxError, bundled_proof, parse_proof

FIG2 = bundled_game("fig2")
GAME_TEXTS = [
    resources.files("epigame").joinpath("data", f"{name}.game").read_text()
    for name in ("fig1_left", "fig1_right", "fig2")
]
MODEL_TEXTS = [format_model(m) for m in sample_belief_models(FIG2, 3, 3, seed=5)]
LO_TEXTS = [*BUILTIN_CONDITION_TEXT.values(), "forall y . (C(y) -> o > y @ o) or not C(o)"]
CONDITION_TEXTS = [
    "# the builtins\n" + "".join(f"condition {n}: {t}\n" for n, t in BUILTIN_CONDITION_TEXT.items()),
    "condition strict: exists z in C . forall y . o > y @ z\n",
]
NU_TEXTS = [
    "(rat(gbr) and CB rat(gbr)) -> nu X . O(lsd) X",
    "forall X . [1] X -> O(gsd, 2) X",
    "not box rat(lsd, 2) or [2] X",
]
PROOF_TEXTS = [bundled_proof("THM-MAIN"), bundled_proof("THM-IMP")]

# name -> (parser, its error, whether errors carry a column, texts to mutate)
PARSERS = {
    "game": (parse_game, GameFormatError, False, GAME_TEXTS),
    "model": (lambda text: parse_model(text, FIG2), ModelFormatError, False, MODEL_TEXTS),
    "proof": (parse_proof, ProofSyntaxError, False, PROOF_TEXTS),
    "conditions": (parse_condition_file, FormulaSyntaxError, True, CONDITION_TEXTS),
    "lo": (parse_lo, FormulaSyntaxError, True, LO_TEXTS),
    "nu": (parse_nu, FormulaSyntaxError, True, NU_TEXTS),
}

# digits such as '²' pass str.isdigit but not int(), and '٣' passes both
DIGITS = ["²", "٣", "0", "10", ""]
PIECES = DIGITS + [
    " ", "\n", "#", ":", "=", ",", ".", ";", "/", "-", "(", ")", "[", "]", "{", "}", "@",
    "1", "2", "3", "1e9", "w1", "w9", "zz", "U", "M", "L", "X", "y", "o",
    "players:", "strategies", "payoff", "states:", "plays", "possible", "condition",
    "not", "and", "or", "->", ">=", ">", "C(y)", "exists", "forall", "in C",
    "rat(gbr)", "O(lsd, 2)", "box", "CB", "nu X .", "mp 1 2", "taut", "link gbr_implies_lsd",
]


@st.composite
def mutated(draw, texts):
    """One of the texts with one to three edits: a span replaced by a piece,
    or a digit (an index, a count, a line number) replaced by a digit piece."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        digits = [k for k, c in enumerate(text) if c.isdigit()]
        if digits and draw(st.booleans()):
            start = draw(st.sampled_from(digits))
            text = text[:start] + draw(st.sampled_from(DIGITS)) + text[start + 1 :]
        else:
            start = draw(st.integers(0, len(text)))
            stop = draw(st.integers(start, min(len(text), start + 6)))
            text = text[:start] + draw(st.sampled_from(PIECES)) + text[stop:]
    return text


free_text = st.one_of(
    st.text(alphabet=st.sampled_from("".join(PIECES) + "\t é"), max_size=40),
    st.lists(st.sampled_from(PIECES), max_size=12).map(" ".join),
)


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parsers_refuse_only_with_positioned_format_errors(name, data):
    parse, error, has_column, texts = PARSERS[name]
    text = data.draw(st.one_of(mutated(texts), free_text), label="text")
    try:
        parse(text)
    except error as exc:
        assert exc.line is not None and 1 <= exc.line <= len(text.splitlines()) + 1, exc
        if has_column:
            assert exc.column is not None and exc.column >= 1, exc
