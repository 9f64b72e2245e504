"""Source rules of ``src/ancestral``, read off its syntax trees: no
``assert``, no module reaching into another module's private names, and no
module but ``__init__.py`` importing ``ancestral.oracle``; and every row of
the mutant suite ``tests/mutants.py`` still applies to the source."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from mutants import MUTANTS, ROOT

SRC = Path(__file__).resolve().parent.parent / "src" / "ancestral"
ORACLE = "ancestral.oracle"


def sources() -> list[Path]:
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no module found in {SRC}"
    return paths


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_assert_in_src():
    """``python -O`` drops every assert, so no check of the package may be
    one."""
    found = [
        f"{path}:{node.lineno}"
        for path in sources()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "\n".join(found)


def test_no_module_reaches_into_another_modules_private_names():
    found = []
    for path in sources():
        tree = parse(path)
        modules = set()  # the names that this file binds to ancestral modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module
                if node.level:  # a relative import, from inside the package
                    module = ".".join(filter(None, ["ancestral", node.module]))
                if module.split(".")[0] != "ancestral":
                    continue
                for alias in node.names:
                    if private(alias.name):
                        found.append(f"{path}:{node.lineno}: from {module} import {alias.name}")
                    elif module == "ancestral":
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(
                    a.asname or a.name for a in node.names if a.name.split(".")[0] == "ancestral"
                )
        found += [
            f"{path}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and private(node.attr)
            and ast.unparse(node.value) in modules
        ]
    assert not found, "\n".join(found)


def test_only_the_package_init_imports_the_oracle():
    """The exhaustive references stay off every production path."""
    found = []
    for path in sources():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # a relative import, from inside the package
                    module = ".".join(filter(None, ["ancestral", node.module]))
                # "from ancestral.oracle import x" and "from ancestral import oracle"
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name == ORACLE or name.startswith(ORACLE + ".") for name in names):
                found.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "\n".join(found)


def test_mutant_rows_match_the_source():
    """Every row of ``tests/mutants.py`` still applies: its fragment occurs
    exactly once in its file, its name is its own, and the test it names is
    a function of the test file it names. A fragment that code moved would
    otherwise show only when the mutant suite runs."""
    rows = Counter(m.name for m in MUTANTS)
    found = [f"{name}: names {count} rows" for name, count in rows.items() if count > 1]
    for m in MUTANTS:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.fragment)
        if count != 1:
            found.append(f"{m.name}: fragment occurs {count} times in {m.file}")
        path, _, test = m.test.partition("::")
        func = test.split("[")[0]
        defined = {
            node.name
            for node in parse(ROOT / path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if func not in defined:
            found.append(f"{m.name}: no test {func} in {path}")
    assert not found, "\n".join(found)
