"""Every subcommand, on mutated bundled inputs, exits 0, 1 or 2: a verdict
or a usage error, never an internal error (exit 3) or a traceback."""

import contextlib
import io

import pytest
from hypothesis import event, given, settings, strategies as st

from epigame.cli import main
from test_parser_fuzz import CONDITION_TEXTS, GAME_TEXTS, MODEL_TEXTS, NU_TEXTS, PROOF_TEXTS, mutated

# the sampled models are models of fig2
FIG2_TEXT = GAME_TEXTS[2]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_subcommands_answer_mutated_inputs_with_a_verdict_or_a_usage_error(workdir, data):
    # one input is mutated, the others are bundled ones, so that most runs
    # get past the parsers to a verdict or a refusal of what they read
    target = data.draw(st.sampled_from(["game", "model", "formula", "proof", "conditions"]), label="target")

    def text(kind, texts):
        return data.draw(mutated(texts) if kind == target else st.sampled_from(texts), label=kind)

    def file(kind, texts):
        path = workdir / kind
        path.write_text(text(kind, texts), encoding="utf-8")
        return str(path)

    def condition_spec():
        builtin = data.draw(st.sampled_from(["lsd", "gsd", "gbr", None]), label="builtin")
        return builtin or file("conditions", CONDITION_TEXTS)

    command = data.draw(
        st.sampled_from(["eliminate", "evaluate", "check-valid", "check-proof", "analyze-condition"]),
        label="command",
    )
    if command == "eliminate":
        argv = [command, file("game", GAME_TEXTS), condition_spec()]
        argv += data.draw(st.sampled_from([[], ["--trace"], ["--name", "strict"]]), label="options")
    elif command == "evaluate":
        argv = [command, file("model", MODEL_TEXTS), file("game", [FIG2_TEXT]), text("formula", NU_TEXTS)]
    elif command == "check-valid":
        argv = [command, file("game", GAME_TEXTS), text("formula", NU_TEXTS)]
        if data.draw(st.booleans(), label="exhaustive"):
            argv += ["--exhaustive", str(data.draw(st.integers(1, 2), label="K"))]
        else:
            argv += ["--random", *map(str, data.draw(st.tuples(st.integers(1, 20), st.integers(1, 3))))]
            argv += ["--seed", str(data.draw(st.integers(0, 9), label="seed"))]
    elif command == "check-proof":
        argv = [command, file("proof", PROOF_TEXTS)]
    else:
        argv = [command, condition_spec()]
    if command in ("evaluate", "check-valid", "check-proof") and data.draw(st.booleans(), label="extra"):
        argv += ["--conditions", file("conditions", CONDITION_TEXTS)]
    if data.draw(st.booleans(), label="json"):
        argv.append("--json")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a formula that reads as an option
            code = exc.code
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
