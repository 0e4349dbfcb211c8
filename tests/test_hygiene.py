"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import epigame

SOURCES = Path(epigame.__file__).parent
TESTS = Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def unused_imports(path: Path) -> list[str]:
    """Module-level imports whose bound name is never read in the module;
    ``__future__`` imports and lines marked ``# noqa: F401`` are exempt."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_no_unused_module_imports():
    # __init__.py imports only to re-export through __all__
    sources = sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py")
    assert sources
    sources += sorted(TESTS.glob("*.py"))
    # the demo smoke test only runs the demos, so nothing else reads their imports
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    sources += demos
    problems = [problem for path in sources for problem in unused_imports(path)]
    assert problems == []


def oracle_imports(source: str) -> list[int]:
    """The lines of import statements anywhere in the source, function
    bodies included, that name the ``oracles`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in dotted):
            found.append(node.lineno)
    return found


def test_runtime_modules_do_not_import_the_oracles():
    # test_cli.test_runtime_does_not_import_oracles checks the loaded modules
    # of a CLI run in a fresh interpreter; this reads every import statement
    for source in (
        "from .oracles import fig2",
        "from . import oracles",
        "from epigame.oracles import fig2",
        "def f():\n    import epigame.oracles",
    ):
        assert oracle_imports(source), source
    runtime = sorted(p for p in SOURCES.glob("*.py") if p.name != "oracles.py")
    assert len(runtime) > 5
    problems = [f"{path.name}:{line}" for path in runtime for line in oracle_imports(path.read_text())]
    assert problems == []



def imported_modules(source: str) -> set[str]:
    """The top-level package of every module an import statement anywhere
    in the source names, function bodies included; relative imports are
    within the package and left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_runtime_modules_do_not_import_dataclasses():
    # the decorator generates each class's methods at import time, a third
    # of the package's start-up; epigame.value writes them once instead
    assert "dataclasses" in imported_modules("def f():\n    from dataclasses import dataclass")
    assert "dataclasses" in imported_modules("import dataclasses as dc")
    sources = sorted(SOURCES.glob("*.py"))
    assert len(sources) > 5
    assert [path.name for path in sources if "dataclasses" in imported_modules(path.read_text())] == []
