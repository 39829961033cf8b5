"""README's "Library quick start" block runs and gives the results its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    lines = block.splitlines()
    env, got, stated = {}, [], []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            # a bare expression states its value in its trailing comment
            got.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), env))
            stated.append(ast.literal_eval(lines[stmt.end_lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), env)
    assert len(stated) == 4
    assert got == stated
