"""Command-line front end.

Subcommands: ``eliminate``, ``evaluate``, ``check-valid``, ``check-proof``,
``analyze-condition``.  Exit codes: 0 on success (and for positive semantic
verdicts), 1 for negative semantic verdicts (invalid formula, failed proof),
2 for usage, file, or parse errors, 3 for an internal error.  Every
subcommand accepts ``--json``.  Subcommands return their verdict as
``(positive, payload, text)``; ``main`` alone prints it and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from .beliefs import EnumerationLimitError, format_model, parse_model
from .conditions import (
    BUILTIN_CONDITION_TEXT,
    ConditionRegistry,
    DuplicateNameError,
    FormulaO,
    UnboundVariableError,
    UnknownNameError,
    analyze,
    builtin,
    parse_condition_file,
)
from .games import FormatError, parse_game
from .modal import (
    FormulaNu,
    ModalError,
    Nu,
    check_validity,
    interpret,
    iter_subformulas,
    parse_nu,
    positive_in_x,
    pretty_nu,
)
from .operators import (
    ConditionOperator,
    OperatorError,
    format_trace,
    iterate,
)
from .proofs import LemmaRegistry, check_proof, parse_proof, standard_lemmas


class UsageError(ValueError):
    """A command line that does not pick out one condition to act on, or
    whose options do not go together."""


_USER_ERRORS = (
    FormatError,
    OperatorError,
    ModalError,
    OSError,
    UnknownNameError,
    DuplicateNameError,
    EnumerationLimitError,
    UnboundVariableError,
    UsageError,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text (bad byte at offset {exc.start})") from None


def _read_conditions(spec: str) -> dict[str, FormulaO]:
    """The conditions a spec names: a builtin name, or a condition file."""
    if spec in BUILTIN_CONDITION_TEXT:
        return {spec: builtin(spec)}
    try:
        text = _read(spec)
    except OSError as exc:
        builtins = ", ".join(BUILTIN_CONDITION_TEXT)
        raise UnknownNameError(
            f"{spec} is neither a builtin condition ({builtins})"
            f" nor a readable file ({exc.strerror})"
        ) from None
    return parse_condition_file(text)


def _load_registry(specs: list[str] | None) -> ConditionRegistry:
    if not specs:
        return ConditionRegistry.standard()
    registry = ConditionRegistry.standard().copy()
    for spec in specs:
        for name, formula in _read_conditions(spec).items():
            registry.register(name, formula)
    return registry


def _resolve_condition(spec: str, name: str | None) -> FormulaO:
    """The one condition a spec names (picked with --name when a file
    defines several)."""
    defined = _read_conditions(spec)
    if name is not None:
        if name not in defined:
            raise UsageError(f"{spec} does not define condition {name!r}")
        return defined[name]
    if len(defined) != 1:
        raise UsageError(f"{spec} defines {len(defined)} conditions; pick one with --name")
    return next(iter(defined.values()))


def _note_contracted(formula: FormulaNu, registry: ConditionRegistry) -> None:
    """Flag on stderr each ``nu`` whose body is not positive in X: its value
    is then the contracted iteration, which need not be a greatest fixpoint."""
    for f in dict.fromkeys(iter_subformulas(formula)):
        if isinstance(f, Nu) and not positive_in_x(f.body, registry):
            print(
                f"note: the body of {pretty_nu(f)} is not positive in X,"
                " so it is read as the contracted iteration from all states",
                file=sys.stderr,
            )


def _survivors_payload(restriction) -> dict:
    return {
        str(i + 1): list(restriction.ordered(i)) for i in restriction.game.players
    }


def _cmd_eliminate(args: argparse.Namespace) -> tuple[bool, dict, str]:
    game = parse_game(_read(args.game))
    formula = _resolve_condition(args.condition, args.name)
    trace = iterate(ConditionOperator(game, formula))
    payload = {
        "survivors": _survivors_payload(trace.outcome),
        "closure_ordinal": trace.closure_ordinal,
    }
    if not args.trace:
        return True, payload, str(trace.outcome)
    payload["stages"] = [_survivors_payload(stage) for stage in trace.stages]
    return True, payload, f"{format_trace(trace)}\n{trace.outcome}"


def _cmd_evaluate(args: argparse.Namespace) -> tuple[bool, dict, str]:
    game = parse_game(_read(args.game))
    model = parse_model(_read(args.model), game)
    registry = _load_registry(args.conditions)
    formula = parse_nu(args.formula)
    event = interpret(model, formula, registry=registry)
    _note_contracted(formula, registry)
    ordered = model.ordered_event(event)
    return True, {"states": list(ordered)}, " ".join(ordered)


def _cmd_check_valid(args: argparse.Namespace) -> tuple[bool, dict, str]:
    if args.seed is not None and args.random is None:
        raise UsageError("--seed applies only to --random")
    game = parse_game(_read(args.game))
    registry = _load_registry(args.conditions)
    formula = parse_nu(args.formula)
    samples, max_states = args.random or (None, args.exhaustive)
    report = check_validity(
        game, formula, registry, max_states=max_states, samples=samples, seed=args.seed or 0
    )
    _note_contracted(formula, registry)
    payload: dict = {"valid": report.valid, "models_checked": report.models_checked}
    if report.valid:
        return True, payload, "VALID-ON-CORPUS"
    payload["countermodel"] = model = format_model(report.countermodel)
    return False, payload, "countermodel:\n" + model.removesuffix("\n")


@lru_cache(maxsize=None)
def _standard_lemmas() -> LemmaRegistry:
    return standard_lemmas()


def _cmd_check_proof(args: argparse.Namespace) -> tuple[bool, dict, str]:
    script = parse_proof(_read(args.proof))
    registry = _load_registry(args.conditions)
    # Only link reads lemmas, so only a script that uses it pays their sweep,
    # once per process.  Every registry here is the standard one or a copy
    # of it plus new names (register refuses to redefine gbr, lsd or gsd),
    # so the lemmas' recorded formulas match; were they to differ, link
    # would fail the line, never pass it.
    linked = any(line.justification.rule == "link" for line in script.lines)
    report = check_proof(script, registry, _standard_lemmas() if linked else None)
    if report.ok:
        return True, {"ok": True}, "OK"
    line, reason = report.failure.line, report.failure.reason
    return False, {"ok": False, "line": line, "reason": reason}, f"FAIL line {line}: {reason}"


def _cmd_analyze_condition(args: argparse.Namespace) -> tuple[bool, dict, str]:
    found: dict[str, FormulaO] = {}
    for spec in args.condition:
        for name, formula in _read_conditions(spec).items():
            if name in found:
                raise DuplicateNameError(f"condition {name!r} is defined twice")
            found[name] = formula
    payload = {name: asdict(analyze(formula)) for name, formula in found.items()}
    text = "\n".join(
        f"{name}: " + " ".join(f"{key}={'yes' if flag else 'no'}" for key, flag in flags.items())
        for name, flags in payload.items()
    )
    return True, payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigame",
        description="Optimality conditions, strategy elimination, belief models, proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eliminate", help="iterate a condition's elimination operator")
    p.add_argument("game", help="game file")
    p.add_argument("condition", help="builtin condition name or condition file")
    p.add_argument("--name", help="condition to pick from a multi-condition file")
    p.add_argument("--trace", action="store_true", help="print every stage")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("evaluate", help="evaluate a modal formula on a belief model")
    p.add_argument("model", help="belief model file")
    p.add_argument("game", help="game file")
    p.add_argument("formula", help="modal formula")
    p.add_argument("--conditions", action="append", help="extra condition file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("check-valid", help="search belief models for a countermodel")
    p.add_argument("game", help="game file")
    p.add_argument("formula", help="modal formula")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--exhaustive", type=int, metavar="K", help="all models with up to K states"
    )
    group.add_argument(
        "--random",
        type=int,
        nargs=2,
        metavar=("N", "K"),
        help="N sampled models with up to K states",
    )
    p.add_argument("--seed", type=int, help="seed of the --random draws (default 0)")
    p.add_argument("--conditions", action="append", help="extra condition file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_valid)

    p = sub.add_parser("check-proof", help="check a proof script")
    p.add_argument("proof", help="proof script file")
    p.add_argument("--conditions", action="append", help="extra condition file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("analyze-condition", help="report closed/positive/context-safe")
    p.add_argument("condition", nargs="+", help="builtin names or condition files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze_condition)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parsing leaves it unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        positive, payload, text = args.func(args)
        print(json.dumps(payload) if args.json else text)
        return 0 if positive else 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of its input: one line, no traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
