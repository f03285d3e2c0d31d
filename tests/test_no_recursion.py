"""No function of the package can reach itself by the calls that name it, so
no depth of input turns into a RecursionError inside the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "namelogic").glob("*.py"))


def _functions(tree: ast.Module) -> list[tuple[str, ast.AST, bool, tuple[str, ...]]]:
    """(qualified name, node, is a method, enclosing functions innermost
    last) for every function of the module, nested ones included."""
    out = []
    stack: list[tuple[ast.AST, str, tuple[str, ...]]] = [(tree, "", ())]
    while stack:
        node, prefix, scopes = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}.", scopes))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child, isinstance(node, ast.ClassDef), scopes))
                stack.append((child, name + ".", scopes + (name,)))
            else:
                stack.append((child, prefix, scopes))
    return out


def _calls(fn: ast.AST):
    """("name", f) for each call f(...) in fn's own body, and ("self", f) for
    each self.f(...) or cls.f(...); nested definitions are their own."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                yield "name", f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                yield "self", f.attr
        stack.extend(ast.iter_child_nodes(node))


def call_graph(source: str) -> dict[str, set[str]]:
    """Each function's callees within the module.  A bare name resolves to
    a function defined in an enclosing function, innermost first, else at
    module level; self.f and cls.f to every method f of a class in the
    module, since a subclass may be the receiver."""
    functions = _functions(ast.parse(source))
    names = {name for name, _, _, _ in functions}
    methods: dict[str, set[str]] = {}
    for name, _, is_method, _ in functions:
        if is_method:
            methods.setdefault(name.rsplit(".", 1)[-1], set()).add(name)
    graph: dict[str, set[str]] = {}
    for name, node, _, scopes in functions:
        out = graph[name] = set()
        for how, callee in _calls(node):
            if how == "self":
                out |= methods.get(callee, set())
                continue
            for scope in (*reversed((*scopes, name)), None):
                qualified = callee if scope is None else f"{scope}.{callee}"
                if qualified in names:
                    out.add(qualified)
                    break
    return graph


def recursive_functions(source: str) -> list[str]:
    """The functions of the source that can reach themselves."""
    graph = call_graph(source)
    found = []
    for start, callees in graph.items():
        seen: set[str] = set()
        stack = list(callees)
        while stack:
            g = stack.pop()
            if g == start:
                found.append(start)
                break
            if g not in seen:
                seen.add(g)
                stack.extend(graph[g])
    return sorted(found)


def test_the_guard_finds_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def even(n):
    return odd(n - 1)

def odd(n):
    return even(n - 1)

def outer(n):
    def inner(k):
        return inner(k - 1)
    return inner(n)

def loop(n):
    while n:
        n -= 1
    return helper(n)

def helper(n):
    return n

class Parser:
    def expr(self):
        return self.term()

    def term(self):
        return self.expr()

    def leaf(self):
        return print(self)
'''
    assert recursive_functions(source) == [
        "Parser.expr", "Parser.term", "direct", "even", "odd", "outer.inner",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_reaches_itself(path):
    assert recursive_functions(path.read_text(encoding="utf-8")) == []
