"""No function in the library calls itself, so no recursion depth grows
with the input. Direct self-calls only: a function (nested ones
included) calling its own name, or a method calling itself through
`self` or `cls`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "interval6"


def self_calls(tree: ast.AST) -> list[str]:
    """`name:line` of every function in `tree` whose body calls its own name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == fn.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_self_call_scan_sees_nested_and_method_recursion():
    code = """
def outer(n):
    def place(j):
        return j == n or place(j + 1)
    return place(0)

class Walker:
    def step(self, n):
        return n and self.step(n - 1)

def flat(items):
    return sorted(items)
"""
    assert self_calls(ast.parse(code)) == ["place:4", "step:9"]


def test_library_has_no_recursion():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    hits = [f"{path.name}:{hit}" for path in sources for hit in self_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert hits == []
