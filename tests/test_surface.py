"""Every public top-level function and class of the package is used: named
somewhere outside its own definition, in the package, the benchmark, the
scripts or the README.  Names that only tests use belong in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cactus_crystal"

# rsk_inverse is the reference inverse of RSK, kept beside rsk for the
# tableau-layer oracles of the crystal layer, though only tests call it
ALLOWED = {"rsk_inverse"}


def _sources():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "scripts").glob("*.py"), ROOT / "README.md"]
    return {path: path.read_text().splitlines(keepends=True) for path in paths}


def test_every_public_definition_is_used():
    sources = _sources()
    defined, unused = set(), []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("".join(sources[module])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name.startswith("_") or node.name in ALLOWED:
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            named = re.compile(r"\b%s\b" % node.name).search
            if not any(named("".join(lines[:start - 1] + lines[node.end_lineno:]
                                     if path == module else lines))
                       for path, lines in sources.items()):
                unused.append("%s.%s" % (module.stem, node.name))
    assert not unused, "used only by tests: " + ", ".join(unused)
    assert ALLOWED <= defined
