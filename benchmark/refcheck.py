"""Independent reference routes used by the benchmark's correctness gate.

A set-based evaluator for the full language over model dictionaries, a small
parser for printed formulas, and the relational-to-neighborhood translation.
None of it imports namelogic, and the evaluator is iterative, so it also
answers the deep-nesting queries.
"""

from __future__ import annotations

import re

from gen import BINARY, MODAL, children


class RefModel:
    def __init__(self, d: dict):
        self.states = frozenset(d["states"])
        succ: dict[tuple[str, str], set[str]] = {}
        for a, pairs in d.get("relations", {}).items():
            for x, y in pairs:
                succ.setdefault((a, x), set()).add(y)
        self.succ = {k: frozenset(v) for k, v in succ.items()}
        self.named = {
            (w, n): frozenset(group)
            for w, per in d.get("naming", {}).items()
            for n, group in per.items()
            if group
        }
        self.val = {p: frozenset(ws) for p, ws in d.get("valuation", {}).items()}

    def successors(self, a, w):
        return self.succ.get((a, w), frozenset())

    def group(self, w, n):
        return self.named.get((w, n), frozenset())


def extension(m: RefModel, f) -> frozenset[str]:
    """All states of m where f holds, by postorder over the formula tree."""
    ext: dict[int, frozenset[str]] = {}
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if not ready:
            stack.append((g, True))
            stack.extend((c, False) for c in children(g))
            continue
        ext[id(g)] = _node(m, g, [ext[id(c)] for c in children(g)])
    return ext[id(f)]


def _node(m: RefModel, g, kids) -> frozenset[str]:
    op, S = g[0], m.states
    if op == "p":
        return m.val.get(g[1], frozenset())
    if op == "T":
        return S
    if op == "F":
        return frozenset()
    if op == "!":
        return S - kids[0]
    if op in BINARY:
        a, b = kids
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "->":
            return (S - a) | b
        return (a & b) | (S - a - b)
    good = kids[0]
    if op == "E":
        return frozenset(w for w in S if all(m.successors(a, w) <= good for a in m.group(w, g[1])))
    if op == "S":
        return frozenset(w for w in S if any(m.successors(a, w) <= good for a in m.group(w, g[1])))
    if op == "D":
        out = set()
        for w in S:
            group = m.group(w, g[1])
            if group and frozenset.intersection(*(m.successors(a, w) for a in group)) <= good:
                out.add(w)
        return frozenset(out)
    if op == "B":
        agent, name = g[1], g[2]
        return frozenset(
            w for w in S
            if all(v in good for v in m.successors(agent, w) if agent in m.group(v, name))
        )
    if op == "C":
        step = {w: frozenset().union(*(m.successors(a, w) for a in m.group(w, g[1]))) for w in S}
        out = set()
        for w in S:
            seen, frontier = set(), set(step[w])
            while frontier:
                seen |= frontier
                frontier = {y for x in frontier for y in step[x]} - seen
            if seen <= good:
                out.add(w)
        return frozenset(out)
    raise ValueError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Parser for printed formulas (distinguishers, CLI output)

_TOKEN = re.compile(r"\s*(<->|->|[&|!()\[\];]|[A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str):
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad formula text at {pos}: {text[pos:pos + 20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    it = _Parser(tokens)
    f = it.binary(0)
    if it.peek() != "":
        raise ValueError(f"trailing input in {text!r}")
    return f


_OPS = ("<->", "->", "|", "&")


class _Parser:
    def __init__(self, tokens):
        self.tokens, self.i = tokens, 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, want=None):
        tok = self.tokens[self.i]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def binary(self, level):
        if level == len(_OPS):
            return self.unary()
        op = _OPS[level]
        left = self.binary(level + 1)
        if op in ("<->", "->"):  # right associative
            if self.peek() == op:
                self.take()
                return (op, left, self.binary(level))
            return left
        while self.peek() == op:
            self.take()
            left = (op, left, self.binary(level + 1))
        return left

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return ("!", self.unary())
        if tok in ("E", "S", "C", "D", "B") and self.tokens[self.i + 1] == "[":
            self.take()
            self.take("[")
            first = self.take()
            if tok == "B":
                self.take(";")
                name = self.take()
                self.take("]")
                return ("B", first, name, self.unary())
            self.take("]")
            return (tok, first, self.unary())
        if tok == "(":
            self.take()
            f = self.binary(0)
            self.take(")")
            return f
        self.take()
        if tok == "true":
            return ("T",)
        if tok == "false":
            return ("F",)
        return ("p", tok)


# ---------------------------------------------------------------------------
# Translations


def kripke_to_nbhd(d: dict) -> dict:
    """The neighborhood model of a relational one, in the sorted wire form:
    the family at (w, n) collects the successor sets of the agents n names."""
    m = RefModel(d)
    nu: dict[str, dict[str, list[list[str]]]] = {}
    for (w, n), group in sorted(m.named.items()):
        fam = {m.successors(a, w) for a in group}
        nu.setdefault(w, {})[n] = sorted(sorted(X) for X in fam)
    return {
        "states": sorted(m.states),
        "names": sorted(d.get("names", [])),
        "nu": nu,
        "valuation": {p: sorted(ws) for p, ws in sorted(m.val.items())},
    }


def algebra_warnings(d: dict) -> set[tuple[str, str]]:
    """(name, state) cells whose only neighborhood is the empty set: the one
    place the complex-algebra duality law is reported rather than asserted."""
    return {
        (n, w)
        for w, per in d.get("nu", {}).items()
        for n, fam in per.items()
        if fam and all(not X for X in fam)
    }


def uses_only(f, ops: str) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] in MODAL + ("B",) and g[0] not in ops:
            return False
        stack.extend(children(g))
    return True
