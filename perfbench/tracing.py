"""Span tracing of the epigame layers, installed at run time from outside.

:class:`Tracer` replaces each function or method named in :data:`TARGETS`
with a wrapper that records one span per call: its name, start, end, parent
span and the request it belongs to.  A function is replaced at its
definition and at every module attribute that re-binds it (``modal.models``
is ``conditions.models``), so calls through any import path are seen.
Spans are kept in flat arrays while the run lasts and written out when it
ends; the program itself is not modified, and :meth:`Tracer.uninstall`
puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("games", "conditions", "operators", "beliefs", "modal", "proofs", "oracles", "cli")

#: (module, qualified name) of every traced callable.  Class attributes are
#: patched on the class, so every caller sees them; module functions are
#: patched wherever they are bound.
TARGETS = (
    ("games", "parse_game"),
    ("games", "Game.__eq__"),
    ("games", "Restriction.__init__"),
    ("games", "Restriction.leq"),
    ("games", "Restriction.meet"),
    ("games", "Restriction.join"),
    ("conditions", "models"),
    ("conditions", "analyze"),
    ("conditions", "ConditionRegistry.__init__"),
    ("operators", "condition_operator"),
    ("operators", "ConditionOperator.apply"),
    ("operators", "ContractedOperator.apply"),
    ("operators", "iterate"),
    ("operators", "check_monotone"),
    ("beliefs", "BeliefModel.__init__"),
    ("beliefs", "game_of_event"),
    ("beliefs", "parse_model"),
    ("beliefs", "format_model"),
    ("modal", "parse_nu"),
    ("modal", "interpret"),
    ("modal", "interpret_so"),
    ("modal", "check_validity"),
    ("oracles", "enumerate_belief_models"),
    ("oracles", "sample_belief_models"),
    ("proofs", "parse_proof"),
    ("proofs", "check_proof"),
    ("proofs", "LemmaRegistry.register"),
    ("proofs", "standard_lemmas"),
    ("cli", "main"),
)

_MARK = "__perfbench_original__"


def _modules():
    """The package and its layer modules, imported."""
    names = ["epigame"] + [f"epigame.{m}" for m in MODULES]
    return [importlib.import_module(name) for name in names]


def _sites(module: str, qualname: str) -> tuple[object, list[tuple[object, str]]]:
    """The original object of a target and every (owner, attribute) bound to it."""
    mod = importlib.import_module(f"epigame.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(mod, cls_name)
        return cls.__dict__[attr], [(cls, attr)]
    original = getattr(mod, qualname)
    sites = [
        (owner, name)
        for owner in _modules()
        for name, value in vars(owner).items()
        if value is original
    ]
    return original, sites


def untraced_problems() -> list[str]:
    """Every traced attribute that is not its original object.

    Run around an untraced measurement: a wrapper left behind would make
    the numbers measure something else."""
    problems = [
        f"{owner.__name__}.{name} is a tracing wrapper"
        for owner in _modules()
        for name, value in vars(owner).items()
        if hasattr(value, _MARK)
    ]
    for module, qualname in TARGETS:
        if "." in qualname and hasattr(_sites(module, qualname)[0], _MARK):
            problems.append(f"epigame.{module}.{qualname} is a tracing wrapper")
    return problems


# Result hooks turn return values into counters at the layer boundary.
def _count_stages(tracer, args, result):
    tracer.counters["operators.stages"] += len(result.stages)


def _count_pairs(tracer, args, result):
    tracer.counters["operators.monotone_pairs"] += result.pairs_checked


def _count_validity(tracer, args, result):
    tracer.counters["modal.validity_models_checked"] += result.models_checked


def _count_sweep(tracer, args, result):
    tracer.counters["proofs.lemma_sweep_size"] += result.evidence.models_checked


def _note_model(tracer, args, result):
    tracer.interpreted.add((tracer.request_id, id(args[0])))


_HOOKS = {
    "operators.iterate": _count_stages,
    "operators.check_monotone": _count_pairs,
    "modal.check_validity": _count_validity,
    "proofs.LemmaRegistry.register": _count_sweep,
    "modal.interpret": _note_model,
    "modal.interpret_so": _note_model,
}


class Tracer:
    """Records spans for the calls in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self.counters: Counter = Counter()
        self.interpreted: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, qualname in TARGETS:
            original, sites = _sites(module, qualname)
            replacement = self._wrap(original, f"{module}.{qualname}")
            for owner, attr in sites:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        self.names.append(name)
        nid = len(self.names) - 1
        kind_append = self.kind.append
        parent_append = self.parent.append
        request_append = self.request.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self.stack
        push = stack.append
        pop = stack.pop
        tracer = self
        hook = _HOOKS.get(name)

        def enter() -> int:
            idx = len(ends)
            kind_append(nid)
            parent_append(stack[-1])
            request_append(tracer.request_id)
            end_append(0.0)
            push(idx)
            start_append(perf_counter())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = perf_counter()
            pop()

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens in next(), inside the caller's
            # loop, so each step is a span of its own.
            def wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)

                def spanned():
                    while True:
                        idx = enter()
                        try:
                            item = next(steps)
                        except StopIteration:
                            return
                        finally:
                            leave(idx)
                        tracer.counters[name + ".items"] += 1
                        yield item

                return spanned()

        elif hook is None:

            def wrapper(*args, **kwargs):
                idx = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)

        else:

            def wrapper(*args, **kwargs):
                idx = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(idx)
                hook(tracer, args, result)
                return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans nest strictly (one thread, one stack), so a span's self time is
        its duration minus the durations of its direct children."""
        n = len(self.end)
        start, end, parent, kind = self.start, self.end, self.parent, self.kind
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[kind[i]]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[i]
        return out

    def children_of(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        c, p = self.names.index(child), self.names.index(parent)
        kind = self.kind
        return sum(1 for k, up in zip(kind, self.parent) if k == c and up >= 0 and kind[up] == p)

    def inside_layer(self, child: str, layer: str) -> int:
        """Spans named ``child`` with an ancestor span in ``layer``."""
        c = self.names.index(child)
        in_layer = {i for i, name in enumerate(self.names) if name.startswith(layer + ".")}
        inside = bytearray(len(self.end))
        count = 0
        for i, up in enumerate(self.parent):
            if up >= 0 and (inside[up] or self.kind[up] in in_layer):
                inside[i] = 1
                count += self.kind[i] == c
        return count

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.end),
            "arrays": [["kind", "H"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(out)


def load_spans(path: Path) -> tuple[list[str], list[tuple]]:
    """Read a file written by :meth:`Tracer.dump` back as
    ``(names, [(name, start, end, parent, request), ...])``."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for field, code in header["arrays"]:
            column = array(code)
            column.fromfile(src, header["count"])
            columns[field] = column
    names = header["names"]
    spans = [
        (names[k], s, e, p, r)
        for k, s, e, p, r in zip(
            columns["kind"], columns["start"], columns["end"], columns["parent"], columns["request"]
        )
    ]
    return names, spans
