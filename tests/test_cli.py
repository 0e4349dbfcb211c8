import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epigame
from epigame.beliefs import parse_model
from epigame import cli
from epigame.cli import build_parser, main
from epigame.games import parse_game
from epigame.modal import interpret, parse_nu
from epigame.proofs import LemmaRegistry, bundled_proof

GAME = """\
players: 2
strategies 1: U D
strategies 2: L R
payoff U L : 1 1
payoff U R : 1 0
payoff D L : 0 0
payoff D R : 0 1
"""

MODEL = """\
states: w
plays 1: w=D
plays 2: w=L
possible 1: w={w}
possible 2: w={w}
"""

CONDITIONS = """\
condition weak: forall y in C . exists z in C . o >= y @ z
condition strict: exists z in C . forall y . o >= y @ z
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("game.game", GAME),
        ("model.model", MODEL),
        ("conditions.txt", CONDITIONS),
        ("THM-MAIN.prf", bundled_proof("THM-MAIN")),
        ("THM-IMP.prf", bundled_proof("THM-IMP")),
    ]:
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    return paths


def test_eliminate(files, capsys):
    assert main(["eliminate", files["game.game"], "lsd"]) == 0
    assert capsys.readouterr().out == "1: U / 2: L\n"


def test_eliminate_trace(files, capsys):
    assert main(["eliminate", files["game.game"], "lsd", "--trace"]) == 0
    assert capsys.readouterr().out == (
        "stage 0: {1: U D; 2: L R}\n"
        "stage 1: {1: U; 2: L R}\n"
        "stage 2: {1: U; 2: L}\n"
        "stage 3: {1: U; 2: L}\n"
        "closure_ordinal: 2\n"
        "1: U / 2: L\n"
    )


def test_eliminate_json(files, capsys):
    assert main(["eliminate", files["game.game"], "lsd", "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["survivors"] == {"1": ["U"], "2": ["L"]}
    assert payload["closure_ordinal"] == 2
    assert len(payload["stages"]) == 4
    assert payload["stages"][0] == {"1": ["U", "D"], "2": ["L", "R"]}


def test_eliminate_with_condition_file(files, capsys):
    assert main(["eliminate", files["game.game"], files["conditions.txt"], "--name", "weak"]) == 0
    assert capsys.readouterr().out == "1: U / 2: L\n"

    assert main(["eliminate", files["game.game"], files["conditions.txt"]]) == 2
    assert "pick one with --name" in capsys.readouterr().err

    assert main(["eliminate", files["game.game"], files["conditions.txt"], "--name", "nope"]) == 2
    assert "does not define condition 'nope'" in capsys.readouterr().err


def test_evaluate(files, capsys):
    assert main(["evaluate", files["model.model"], files["game.game"], "rat(lsd, 1)"]) == 0
    assert capsys.readouterr().out == "w\n"
    assert main(["evaluate", files["model.model"], files["game.game"], "rat(gsd, 1)"]) == 0
    assert capsys.readouterr().out == "\n"


def test_evaluate_json(files, capsys):
    assert main(["evaluate", files["model.model"], files["game.game"], "rat(lsd, 1)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"states": ["w"]}


def test_evaluate_second_order_formula(files, capsys):
    code = main(["evaluate", files["model.model"], files["game.game"], "forall X . X"])
    assert code == 0
    assert capsys.readouterr().out == "\n"


def test_evaluate_with_registered_conditions(files, capsys):
    code = main(
        [
            "evaluate",
            files["model.model"],
            files["game.game"],
            "rat(weak, 1)",
            "--conditions",
            files["conditions.txt"],
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "w\n"


def test_evaluate_model_game_mismatch(files, tmp_path, capsys):
    other = tmp_path / "other.model"
    other.write_text(MODEL.replace("w=D", "w=Q"))
    assert main(["evaluate", str(other), files["game.game"], "rat(lsd, 1)"]) == 2
    assert "unknown strategy 'Q'" in capsys.readouterr().err


def test_check_valid_verdicts(files, capsys):
    code = main(["check-valid", files["game.game"], "rat(gbr) -> rat(lsd)", "--exhaustive", "1"])
    assert code == 0
    assert capsys.readouterr().out == "VALID-ON-CORPUS\n"

    code = main(["check-valid", files["game.game"], "rat(gbr)", "--exhaustive", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("countermodel:\n")
    # the printed countermodel really falsifies the formula
    model = parse_model(out[len("countermodel:\n") :], parse_game(GAME))
    assert interpret(model, parse_nu("rat(gbr)")) != model.universe


def test_check_valid_random_mode(files, capsys):
    code = main(
        ["check-valid", files["game.game"], "rat(gbr) -> rat(lsd)", "--random", "40", "2", "--seed", "5"]
    )
    assert code == 0
    assert capsys.readouterr().out == "VALID-ON-CORPUS\n"


def test_check_valid_json(files, capsys):
    code = main(["check-valid", files["game.game"], "rat(gbr)", "--exhaustive", "1", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["models_checked"] == 1
    assert payload["countermodel"].startswith("states:")


@pytest.mark.parametrize(
    "mode", [["--exhaustive", "0"], ["--exhaustive", "-1"], ["--random", "0", "2"], ["--random", "5", "0"]]
)
def test_check_valid_refuses_an_empty_search(files, capsys, mode):
    # --exhaustive 1 refutes rat(gbr), so VALID-ON-CORPUS here would be unearned
    assert main(["check-valid", files["game.game"], "rat(gbr)", *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "at least 1" in captured.err
    assert captured.err.count("\n") == 1


def test_check_valid_refuses_an_exhaustive_search_past_3_states(files, capsys):
    assert main(["check-valid", files["game.game"], "rat(gbr)", "--exhaustive", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive enumeration is limited to 3 states\n"


def test_an_open_condition_is_refused_at_registration(files, tmp_path, capsys):
    open_file = tmp_path / "open.cond"
    open_file.write_text("condition a: C(x)\n")
    argv = ["check-valid", files["game.game"], "rat(lsd)", "--exhaustive", "1", "--conditions", str(open_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: condition 'a' is not closed\n")


def test_an_internal_error_exits_3_with_one_line(files, capsys, monkeypatch):
    def broken(*args):
        raise ValueError("no stage\nrepeated")

    monkeypatch.setattr("epigame.cli.iterate", broken)
    assert main(["eliminate", files["game.game"], "lsd"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: ValueError: no stage repeated\n")


def test_deeply_nested_formula_is_a_usage_error(files, capsys):
    formula = "not " * 1000 + "rat(gbr)"
    assert main(["check-valid", files["game.game"], formula, "--exhaustive", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1, column") and "nested deeper than" in err
    assert err.count("\n") == 1


def test_check_valid_reads_a_free_x_universally(files, capsys):
    # X is not valid: the empty event refutes it at the first model
    assert main(["check-valid", files["game.game"], "X", "--exhaustive", "1"]) == 1
    assert capsys.readouterr().out.startswith("countermodel:\n")


def test_check_valid_bounds_second_order_search(files, capsys):
    argv = ["check-valid", files["game.game"], "forall X . (X or not X)", "--random", "1", "30"]
    assert main(argv + ["--seed", "19"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limited to 20 states" in err
    # a first-order sampled sweep is bounded too, before its first draw
    assert main(["check-valid", files["game.game"], "rat(gbr)", "--random", "3", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sampled validity checks are limited to 20 states\n"


def test_check_valid_refuses_a_seed_without_random(files, capsys):
    argv = ["check-valid", files["game.game"], "rat(gbr)", "--exhaustive", "2", "--seed", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --seed applies only to --random\n")
    # with --random, an explicit seed 0 is the default draw
    for seed in ([], ["--seed", "0"]):
        assert main(["check-valid", files["game.game"], "rat(gbr)", "--random", "5", "2", "--json"] + seed) == 1
    first, second = capsys.readouterr().out.splitlines()
    assert first == second



def test_non_positive_nu_bodies_are_flagged_on_stderr(files, capsys):
    # the note comes with the verdict; stdout and the exit code are unchanged
    assert main(["evaluate", files["model.model"], files["game.game"], "nu X . not X"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n"
    assert captured.err == (
        "note: the body of (nu X . not X) is not positive in X,"
        " so it is read as the contracted iteration from all states\n"
    )
    fig2 = str(Path(epigame.__file__).parent / "data" / "fig2.game")
    lsd = "rat(gbr) and CB rat(gbr) -> nu X . O(lsd) X"
    assert main(["check-valid", fig2, lsd, "--exhaustive", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "VALID-ON-CORPUS\n"
    assert captured.err.startswith("note: the body of (nu X . O(lsd) X) is not positive in X")
    assert captured.err.count("\n") == 1
    # CB and O(gbr) keep X positive, so nothing is flagged
    assert main(["evaluate", files["model.model"], files["game.game"], "CB rat(gbr)"]) == 0
    assert capsys.readouterr().err == ""
    gbr = "rat(gbr) and CB rat(gbr) -> nu X . O(gbr) X"
    assert main(["check-valid", fig2, gbr, "--exhaustive", "2"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("VALID-ON-CORPUS\n", "")

@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("bad.game", "players: ²\n", ["eliminate", "{path}", "lsd"]),
        ("bad.game", "players: 1\nstrategies ²: a\n", ["eliminate", "{path}", "lsd"]),
        ("bad.model", "states: w\nplays ²: w=U\n", ["evaluate", "{path}", "{game}", "X"]),
        ("bad.prf", "². X ; taut", ["check-proof", "{path}"]),
        (None, "[²] X", ["check-valid", "{game}", "{text}", "--exhaustive", "1"]),
        (None, "rat(gbr, ²)", ["check-valid", "{game}", "{text}", "--exhaustive", "1"]),
    ],
)
def test_non_ascii_digits_are_format_errors(files, tmp_path, capsys, name, text, argv):
    path = tmp_path / (name or "unused")
    path.write_text(text)
    fields = {"path": str(path), "game": files["game.game"], "text": text}
    assert main([arg.format(**fields) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and err.count("\n") == 1


def test_check_valid_needs_a_search_mode(files):
    with pytest.raises(SystemExit) as exc:
        main(["check-valid", files["game.game"], "rat(gbr)"])
    assert exc.value.code == 2


def test_check_proof(files, capsys):
    assert main(["check-proof", files["THM-MAIN.prf"]]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert main(["check-proof", files["THM-IMP.prf"]]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_check_proof_failure(files, tmp_path, capsys):
    broken = tmp_path / "broken.prf"
    broken.write_text(
        bundled_proof("THM-MAIN").replace(
            "nu X . O(gbr) X ; nuInd 5", "nu X . O(lsd) X ; nuInd 5"
        )
    )
    assert main(["check-proof", str(broken)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL line 6:")
    assert "positive" in out


def test_check_proof_json(files, capsys):
    assert main(["check-proof", files["THM-MAIN.prf"], "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}


def test_check_proof_admits_lemmas_only_for_link(files, tmp_path, capsys, monkeypatch):
    """Only ``link`` reads lemmas, so a script without it sweeps none, and
    the process admits them once for every later script."""
    cli._standard_lemmas.cache_clear()
    registered = []
    register = LemmaRegistry.register

    def counted(self, name, *args):
        registered.append(name)
        return register(self, name, *args)

    monkeypatch.setattr(LemmaRegistry, "register", counted)
    assert main(["check-proof", files["THM-MAIN.prf"]]) == 0
    assert capsys.readouterr().out == "OK\n" and registered == []
    assert main(["check-proof", files["THM-IMP.prf"]]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert registered == ["gbr_implies_lsd", "gbr_implies_gsd"]

    assert main(["check-proof", files["THM-IMP.prf"]]) == 0
    assert capsys.readouterr().out == "OK\n"
    wrong = tmp_path / "wrong.prf"
    wrong.write_text(
        bundled_proof("THM-IMP").replace("; link gbr_implies_lsd", "; link gbr_implies_gsd")
    )
    assert main(["check-proof", str(wrong)]) == 1
    assert capsys.readouterr().out == (
        "FAIL line 9: formula does not match 'O(gbr) X -> O(gsd) X'\n"
    )
    # a registry with an extra condition reuses the standard admission
    assert main(["check-proof", files["THM-IMP.prf"], "--conditions", files["conditions.txt"]]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert registered == ["gbr_implies_lsd", "gbr_implies_gsd"]


def test_the_shared_parser_carries_nothing_between_calls(files, capsys):
    weak = ["evaluate", files["model.model"], files["game.game"], "rat(weak) -> rat(weak)"]
    assert main(weak + ["--conditions", files["conditions.txt"]]) == 0
    assert capsys.readouterr().out == "w\n"
    # without --conditions the standard registry is used: weak is unknown
    assert main(weak) == 2
    assert capsys.readouterr().err == "error: unknown condition 'weak'\n"

    assert main(["eliminate", files["game.game"], "lsd", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["survivors"] == {"1": ["U"], "2": ["L"]}
    assert main(["eliminate", files["game.game"], "lsd"]) == 0
    assert capsys.readouterr().out == "1: U / 2: L\n"

    with pytest.raises(SystemExit) as exit_info:
        main(["check-valid", files["game.game"], "rat(gbr)"])
    assert exit_info.value.code == 2 and "--exhaustive" in capsys.readouterr().err
    assert main(["check-valid", files["game.game"], "rat(gbr)", "--exhaustive", "1"]) == 1
    assert capsys.readouterr().out.startswith("countermodel:\n")

    assert build_parser() is not build_parser()


def test_analyze_condition(files, capsys):
    assert main(["analyze-condition", "lsd", "gsd", "gbr"]) == 0
    assert capsys.readouterr().out == (
        "lsd: closed=yes positive=no context_safe=yes\n"
        "gsd: closed=yes positive=yes context_safe=yes\n"
        "gbr: closed=yes positive=yes context_safe=yes\n"
    )

    assert main(["analyze-condition", files["conditions.txt"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weak"] == {"closed": True, "positive": False, "context_safe": True}
    assert payload["strict"] == {"closed": True, "positive": True, "context_safe": True}


def test_analyze_condition_refuses_a_repeated_name(tmp_path, capsys):
    a, b = tmp_path / "a.cond", tmp_path / "b.cond"
    a.write_text("condition weak: forall y in C . exists z in C . o >= y @ z\n")
    b.write_text("condition weak: exists z in C . forall y . o >= y @ z\n")
    for argv, name in [([str(a), str(b)], "weak"), (["lsd", "lsd"], "lsd")]:
        assert main(["analyze-condition", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: condition {name!r} is defined twice\n")


def test_error_exit_codes(files, tmp_path, capsys):
    assert main(["eliminate", str(tmp_path / "missing.game"), "lsd"]) == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.game"
    bad.write_text("players: 2\nwat\n")
    assert main(["eliminate", str(bad), "lsd"]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["evaluate", files["model.model"], files["game.game"], "rat("]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["eliminate", files["game.game"], "wat"]) == 2
    capsys.readouterr()

    repeated = tmp_path / "repeated.model"
    repeated.write_text(MODEL.replace("plays 1: w=D", "plays 1: w=U w=D"))
    assert main(["evaluate", str(repeated), files["game.game"], "rat(lsd)"]) == 2
    assert "line 2: duplicate entry for state 'w'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eliminate", "{bad}", "lsd"],
        ["eliminate", "{game}", "{bad}"],
        ["evaluate", "{bad}", "{game}", "X"],
        ["check-proof", "{bad}"],
        ["check-valid", "{game}", "rat(lsd)", "--exhaustive", "1", "--conditions", "{bad}"],
        ["analyze-condition", "{bad}"],
    ],
)
def test_a_file_that_is_not_utf8_is_a_usage_error(files, tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("players: 2\n# caf\xe9\n".encode("latin-1"))
    assert main([arg.format(bad=bad, game=files["game.game"]) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"error: {bad} is not UTF-8 text (bad byte at offset 16)\n",
    )


def test_condition_specs_are_builtins_or_readable_files(files, tmp_path, capsys):
    assert main(["eliminate", files["game.game"], "foo"]) == 2
    assert capsys.readouterr().err == (
        "error: foo is neither a builtin condition (lsd, gsd, gbr)"
        " nor a readable file (No such file or directory)\n"
    )
    assert main(["analyze-condition", "lsd", str(tmp_path)]) == 2
    assert "is neither a builtin condition" in capsys.readouterr().err
    # --conditions reads its specs the same way, so a builtin is registered twice
    argv = ["check-valid", files["game.game"], "rat(lsd)", "--exhaustive", "1", "--conditions", "gbr"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: condition 'gbr' already registered\n"


@pytest.mark.parametrize(
    "command",
    [
        ["analyze-condition", "{empty}"],
        ["eliminate", "{game}", "{empty}"],
        ["check-valid", "{game}", "rat(lsd)", "--exhaustive", "1", "--conditions", "{empty}"],
    ],
)
def test_a_condition_file_defining_nothing_is_a_usage_error(files, tmp_path, capsys, command):
    empty = tmp_path / "empty.cond"
    empty.write_text("# nothing\n")
    argv = [arg.format(empty=empty, game=files["game.game"]) for arg in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 1, column 1: no condition defined\n")


@pytest.mark.parametrize("formula", ["rat(nope)", "O(nope) X", "O(nope, 1) rat(lsd)"])
@pytest.mark.parametrize("command", ["evaluate", "check-valid"])
def test_unknown_conditions_are_one_line_usage_errors(files, capsys, command, formula):
    if command == "evaluate":
        argv = ["evaluate", files["model.model"], files["game.game"], formula]
    else:
        argv = ["check-valid", files["game.game"], formula, "--exhaustive", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unknown condition 'nope'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eliminate", "{game}", "lsd", "--trace"],
        ["eliminate", "{game}", "{conditions}", "--name", "strict"],
        ["evaluate", "{model}", "{game}", "rat(lsd, 1)"],
        ["evaluate", "{model}", "{game}", "rat(gsd, 1)"],
        ["check-valid", "{game}", "rat(gbr) -> rat(lsd)", "--exhaustive", "2"],
        ["check-valid", "{game}", "rat(gbr)", "--exhaustive", "1"],
        ["check-valid", "{game}", "rat(gbr)", "--random", "5", "2", "--seed", "3"],
        ["check-proof", "{main}"],
        ["check-proof", "{broken}"],
        ["analyze-condition", "lsd", "gbr", "{conditions}"],
    ],
)
def test_text_and_json_give_one_verdict(files, tmp_path, capsys, argv):
    broken = tmp_path / "broken.prf"
    broken.write_text(bundled_proof("THM-MAIN").replace("; mp 2 4", "; mp 1 4"))
    fields = {
        "game": files["game.game"],
        "model": files["model.model"],
        "conditions": files["conditions.txt"],
        "main": files["THM-MAIN.prf"],
        "broken": str(broken),
    }
    argv = [arg.format(**fields) for arg in argv]
    code = main(argv)
    text = capsys.readouterr().out
    assert main(argv + ["--json"]) == code
    payload = json.loads(capsys.readouterr().out)
    assert code == (1 if False in (payload.get("valid"), payload.get("ok")) else 0)
    lines = text.splitlines()
    if argv[0] == "eliminate":
        survivors = [f"{i}: {' '.join(names) or '-'}" for i, names in payload["survivors"].items()]
        assert lines[-1] == " / ".join(survivors)
        if "--trace" in argv:
            assert len(lines) == len(payload["stages"]) + 2
            assert lines[-2] == f"closure_ordinal: {payload['closure_ordinal']}"
    elif argv[0] == "evaluate":
        assert text == " ".join(payload["states"]) + "\n"
    elif argv[0] == "check-valid":
        assert text == (
            "VALID-ON-CORPUS\n" if payload["valid"] else "countermodel:\n" + payload["countermodel"]
        )
    elif argv[0] == "check-proof":
        failure = "" if payload["ok"] else f"FAIL line {payload['line']}: {payload['reason']}"
        assert text == (failure or "OK") + "\n"
    else:
        assert [line.split(": ")[0] for line in lines] == list(payload)
        for line, flags in zip(lines, payload.values()):
            shown = dict(flag.split("=") for flag in line.split(": ")[1].split())
            assert shown == {key: "yes" if value else "no" for key, value in flags.items()}


def test_module_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "epigame", "eliminate", files["game.game"], "lsd"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "1: U / 2: L\n"


def test_runtime_does_not_import_oracles():
    # a fresh interpreter: the test suite itself has imported the oracles
    data = Path(epigame.__file__).parent / "data"
    script = f"""
import sys
from epigame.cli import main
assert main(["check-valid", {str(data / "fig2.game")!r}, "rat(gbr)", "--exhaustive", "1"]) == 1
assert main(["check-proof", {str(data / "THM-MAIN.prf")!r}]) == 0
print("epigame.oracles" in sys.modules)
"""
    src = str(Path(epigame.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["OK", "False"]
