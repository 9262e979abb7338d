"""The README's Python tour runs as written and prints what it says, and
its command-line block runs in order."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import cactus_crystal

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)


def _stated_value(lines, stmt):
    """The literal in the comment after an expression statement, if any."""
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
    comment = tail.partition("#")[2].strip()
    try:
        return True, ast.literal_eval(comment)
    except (SyntaxError, ValueError):
        return False, None


def test_readme_has_a_python_tour():
    assert len(BLOCKS) >= 3


def test_readme_python_blocks_run_and_match_their_comments():
    namespace = {}
    for block in BLOCKS:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            stated, expected = _stated_value(lines, stmt)
            if stated:
                assert value == expected, ast.unparse(stmt)


def test_readme_command_block_runs_in_order(tmp_path):
    block, = [b for b in SH_BLOCKS if b.startswith("cactus-crystal ")]
    src = os.path.dirname(os.path.dirname(cactus_crystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cactus-crystal", line
        proc = subprocess.run([sys.executable, "-m", "cactus_crystal.cli",
                               *argv[1:]], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (line, proc.stderr)
