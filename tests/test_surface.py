"""Every public top-level function, class and assigned name of the package
is used: named by code somewhere outside its own definition, in the package,
the benchmark, the scripts or the README's code.  Names that only tests use
belong in the tests; names starting with an underscore, dunders included,
are exempt.  Prose does not count: a docstring or a README sentence that
says "Weight" does not use a name Weight."""

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cactus_crystal"

# rsk_inverse is the reference inverse of RSK, kept beside rsk for the
# tableau-layer oracles of the crystal layer, though only tests call it
ALLOWED = {"rsk_inverse"}

# a string literal that is one identifier names it, as in getattr(module, "f")
IDENTIFIER_STRING = re.compile(r"""[rRuU]?(['"])(\w+)\1""")
README_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _names(path):
    """(line, word) per identifier that the code of a file names: NAME tokens
    and identifier strings in Python, every word of the README's fenced
    blocks and code spans."""
    text = path.read_text()
    if path.suffix != ".py":
        for code in README_CODE.finditer(text):
            line = text.count("\n", 0, code.start()) + 1
            for word in re.finditer(r"\w+", code.group()):
                yield line + code.group().count("\n", 0, word.start()), word.group()
        return
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.start[0], tok.string
        elif tok.type == tokenize.STRING:
            literal = IDENTIFIER_STRING.fullmatch(tok.string)
            if literal:
                yield tok.start[0], literal.group(2)


def _definitions(tree):
    """(name, first line, last line) per top-level function, class and name
    assigned at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, start, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)):
                yield name.id, node.lineno, node.end_lineno


def test_every_public_definition_is_used():
    uses = defaultdict(list)
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 *(ROOT / "scripts").glob("*.py"), ROOT / "README.md"]:
        for line, word in _names(path):
            uses[word].append((path, line))
    defined, unused = set(), []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, start, end in _definitions(ast.parse(module.read_text())):
            defined.add(name)
            if name.startswith("_") or name in ALLOWED:
                continue
            if all(path == module and start <= line <= end
                   for path, line in uses[name]):
                unused.append("%s.%s" % (module.stem, name))
    assert not unused, "used only by tests: " + ", ".join(unused)
    assert ALLOWED <= defined
