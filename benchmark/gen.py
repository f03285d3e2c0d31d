"""Seeded input generators for the namelogic benchmark.

This module imports nothing from namelogic, so a change to the library's own
random generators or closure code cannot change the benchmark's inputs.

Formulas are nested tuples:

    ("p", atom) | ("T",) | ("F",) | ("!", f) | (op, l, r) for op in & | -> <->
    | (M, name, f) for M in E S C D | ("B", agent, name, f)

Models are dictionaries in namelogic's JSON wire format.
"""

from __future__ import annotations

import random

PROPS = ("p", "q")
NAMES = ("n", "m")
AGENTS = ("a", "b", "c")

BINARY = ("&", "|", "->", "<->")
MODAL = ("E", "S", "C", "D")

# print levels, loosest to tightest, as in the library's concrete syntax
_IFF, _IMPLIES, _OR, _AND, _UNARY, _ATOM = range(6)
_LEVEL = {"<->": _IFF, "->": _IMPLIES, "|": _OR, "&": _AND}
# required level of (left, right) operand for each binary operator
_SIDES = {
    "&": (_AND, _AND + 1),
    "|": (_OR, _OR + 1),
    "->": (_IMPLIES + 1, _IMPLIES),
    "<->": (_IFF + 1, _IFF),
}


def to_text(f) -> str:
    """Concrete syntax for a formula, without recursion (deep inputs print)."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, required = item
        op = g[0]
        if op == "p":
            parts, level = [g[1]], _ATOM
        elif op == "T":
            parts, level = ["true"], _ATOM
        elif op == "F":
            parts, level = ["false"], _ATOM
        elif op == "!":
            parts, level = ["!", (g[1], _UNARY)], _UNARY
        elif op in MODAL:
            parts, level = [f"{op}[{g[1]}] ", (g[2], _UNARY)], _UNARY
        elif op == "B":
            parts, level = [f"B[{g[1]};{g[2]}] ", (g[3], _UNARY)], _UNARY
        else:
            left, right = _SIDES[op]
            parts, level = [(g[1], left), f" {op} ", (g[2], right)], _LEVEL[op]
        if level < required:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


def children(f) -> tuple:
    op = f[0]
    if op in ("p", "T", "F"):
        return ()
    if op in BINARY:
        return (f[1], f[2])
    return (f[-1],)


def tree_size(f) -> int:
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        stack.extend(children(g))
    return count


def height(f) -> int:
    best, stack = 0, [(f, 1)]
    while stack:
        g, h = stack.pop()
        best = max(best, h)
        stack.extend((c, h + 1) for c in children(g))
    return best


# ---------------------------------------------------------------------------
# Random formulas


def random_formula(rng, size, modal="ESCDB", props=PROPS, names=NAMES, agents=AGENTS):
    """A formula of exactly `size` nodes.  Binary splits are triangular, so
    trees stay shallow (height ~ a few times log size)."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.9:
            return ("p", rng.choice(props))
        return ("T",) if roll < 0.95 else ("F",)
    if size == 2 or rng.random() < 0.3:
        arg = random_formula(rng, size - 1, modal, props, names, agents)
        op = rng.choice(modal) if modal and rng.random() < 0.7 else "!"
        if op == "!":
            return ("!", arg)
        if op == "B":
            return ("B", rng.choice(agents), rng.choice(names), arg)
        return (op, rng.choice(names), arg)
    k = 1 + int((size - 2) * (rng.random() + rng.random()) / 2)
    left = random_formula(rng, k, modal, props, names, agents)
    right = random_formula(rng, size - 1 - k, modal, props, names, agents)
    return (rng.choice(BINARY), left, right)


def shallow_formula(rng, size, modal="ESCDB", max_height=40, **kw):
    """random_formula, redrawn until its height is at most max_height, so that
    ordinary queries stay far from any recursion limit."""
    while True:
        f = random_formula(rng, size, modal, **kw)
        if height(f) <= max_height:
            return f


def heavy_tail_sizes(count: int, smallest: int, largest: int, alpha: float = 0.9) -> list[int]:
    """Deterministic Pareto quantiles: the size mix is the same for every seed,
    only the formulas drawn at those sizes change."""
    out = []
    for i in range(count):
        u = (i + 0.5) / count
        out.append(min(largest, int(smallest * (1.0 - u) ** (-1.0 / alpha))))
    return out


def deep_formula(kind: str, depth: int, rng):
    """A nesting `depth` levels deep: parentheses, negations, E-chains or a
    flat conjunction chain.  Returns (tree, text)."""
    atom = ("p", rng.choice(PROPS))
    if kind == "paren":
        inner = ("&", atom, ("p", rng.choice(PROPS)))
        return inner, "(" * depth + to_text(inner) + ")" * depth
    if kind == "not":
        f = atom
        for _ in range(depth):
            f = ("!", f)
        return f, "!" * depth + atom[1]
    if kind == "E":
        name = rng.choice(NAMES)
        f = atom
        for _ in range(depth):
            f = ("E", name, f)
        return f, f"E[{name}] " * depth + atom[1]
    if kind == "and":
        atoms = [("p", rng.choice(PROPS)) for _ in range(depth + 1)]
        f = atoms[0]
        for a in atoms[1:]:
            f = ("&", f, a)
        return f, " & ".join(a[1] for a in atoms)
    raise ValueError(kind)


def contingent_prop(rng, props=PROPS):
    """A propositional formula that is neither valid nor unsatisfiable."""
    while True:
        f = random_formula(rng, rng.randint(3, 5), modal="", props=props)
        values = {prop_value(f, dict(zip(props, bits))) for bits in _assignments(len(props))}
        if values == {True, False}:
            return f


def _assignments(k):
    for i in range(1 << k):
        yield tuple(bool(i >> j & 1) for j in range(k))


def prop_value(f, env) -> bool:
    op = f[0]
    if op == "p":
        return env[f[1]]
    if op in ("T", "F"):
        return op == "T"
    if op == "!":
        return not prop_value(f[1], env)
    a, b = prop_value(f[1], env), prop_value(f[2], env)
    return {"&": a and b, "|": a or b, "->": (not a) or b, "<->": a == b}[op]


# ---------------------------------------------------------------------------
# Closure size of the E/S/C decision procedure, computed independently


def _desugar(f):
    op = f[0]
    if op in ("p", "T", "F"):
        return f
    if op == "!":
        return ("!", _desugar(f[1]))
    if op == "&":
        return ("&", _desugar(f[1]), _desugar(f[2]))
    if op == "|":
        return ("!", ("&", ("!", _desugar(f[1])), ("!", _desugar(f[2]))))
    if op == "->":
        return ("!", ("&", _desugar(f[1]), ("!", _desugar(f[2]))))
    if op == "<->":
        return ("&", _desugar(("->", f[1], f[2])), _desugar(("->", f[2], f[1])))
    return (op, f[1], _desugar(f[2]))


def closure_size(f) -> int:
    """Size of the closure the decision procedure works in: subterms of the
    desugared formula, single negations, S[n] true / E[n] false seeds, the S
    weakening of E members and the one-step unfolding of C members."""
    chi = _desugar(f)
    names = set()
    stack = [chi]
    while stack:
        g = stack.pop()
        if g[0] in MODAL:
            names.add(g[1])
        stack.extend(children(g))
    seen = set()
    queue = [chi] + [("S", n, ("T",)) for n in names] + [("E", n, ("F",)) for n in names]
    while queue:
        g = queue.pop()
        if g in seen:
            continue
        seen.add(g)
        queue.extend(children(g))
        if g[0] != "!":
            queue.append(("!", g))
        if g[0] == "E":
            queue.append(("S", g[1], g[2]))
        elif g[0] == "C":
            queue.append(("E", g[1], g[2]))
            queue.append(("E", g[1], g))
    return len(seen)


# ---------------------------------------------------------------------------
# Models


def relational_model(rng, n_states, mode="general", edge_density=0.2, naming_density=0.4,
                     agents=AGENTS, names=NAMES, props=PROPS, prefix="w"):
    """A model that validates in lenient mode: every bearer of a name at a
    state has a reflexive loop there.  "epistemic" models give each agent an
    equivalence relation on the states where it bears a name."""
    states = [f"{prefix}{i}" for i in range(n_states)]
    naming: dict[str, dict[str, list[str]]] = {}
    bearer_states: dict[str, list[str]] = {a: [] for a in agents}
    for w in states:
        for n in names:
            group = [a for a in agents if rng.random() < naming_density]
            if group:
                naming.setdefault(w, {})[n] = group
                for a in group:
                    if w not in bearer_states[a]:
                        bearer_states[a].append(w)
    relations: dict[str, list[list[str]]] = {}
    for a in agents:
        if mode == "general":
            pairs = {(x, y) for x in states for y in states if rng.random() < edge_density}
            pairs |= {(w, w) for w in bearer_states[a]}
        else:
            blocks: list[list[str]] = []
            for w in bearer_states[a]:
                if blocks and rng.random() > 1.0 / (len(blocks) + 1):
                    rng.choice(blocks).append(w)
                else:
                    blocks.append([w])
            pairs = {(x, y) for block in blocks for x in block for y in block}
        relations[a] = sorted([x, y] for x, y in pairs)
    # every atom profile on an equal share of the states: the number of
    # atom-agreeing state pairs, where bisimulation starts, is then fixed
    profiles = [i % (1 << len(props)) for i in range(n_states)]
    rng.shuffle(profiles)
    valuation = {p: [w for w, bits in zip(states, profiles) if bits >> j & 1]
                 for j, p in enumerate(props)}
    return {
        "states": states,
        "agents": list(agents),
        "names": list(names),
        "relations": relations,
        "naming": naming,
        "valuation": valuation,
    }


def disjoint_union(m1: dict, m2: dict) -> dict:
    """Tagged union: state or agent x of the i-th model becomes "i:x"."""
    out = {"states": [], "agents": [], "names": sorted(set(m1["names"]) | set(m2["names"])),
           "relations": {}, "naming": {}, "valuation": {}}
    for i, m in enumerate((m1, m2)):
        tag = f"{i}:"
        out["states"] += [tag + s for s in m["states"]]
        out["agents"] += [tag + a for a in m["agents"]]
        for a, pairs in m["relations"].items():
            out["relations"][tag + a] = [[tag + x, tag + y] for x, y in pairs]
        for w, per in m["naming"].items():
            out["naming"][tag + w] = {n: [tag + a for a in g] for n, g in per.items()}
        for p, ws in m["valuation"].items():
            out["valuation"].setdefault(p, []).extend(tag + w for w in ws)
    return out


def generated_submodel(m: dict, root: str) -> dict:
    """Restrict m to the states reachable from root along any agent's edges."""
    succ: dict[str, set[str]] = {}
    for pairs in m["relations"].values():
        for x, y in pairs:
            succ.setdefault(x, set()).add(y)
    keep, frontier = {root}, [root]
    while frontier:
        for y in succ.get(frontier.pop(), ()):
            if y not in keep:
                keep.add(y)
                frontier.append(y)
    return {
        "states": [w for w in m["states"] if w in keep],
        "agents": list(m["agents"]),
        "names": list(m["names"]),
        "relations": {a: [[x, y] for x, y in pairs if x in keep and y in keep]
                      for a, pairs in m["relations"].items()},
        "naming": {w: per for w, per in m["naming"].items() if w in keep},
        "valuation": {p: [w for w in ws if w in keep] for p, ws in m["valuation"].items()},
    }


def neighborhood_model(rng, n_states, names=NAMES, props=PROPS) -> dict:
    """A neighborhood model; a few cells hold only the empty neighborhood,
    the degenerate case the algebra check reports as a warning."""
    states = [f"s{i}" for i in range(n_states)]
    nu: dict[str, dict[str, list[list[str]]]] = {}
    for w in states:
        for n in names:
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.25:
                fam = [[]]
            else:
                fam = []
                for _ in range(rng.randint(1, 3)):
                    X = sorted({w} | {v for v in states if rng.random() < 0.35})
                    if X not in fam:
                        fam.append(X)
            nu.setdefault(w, {})[n] = fam
    valuation = {p: [w for w in states if rng.random() < 0.5] for p in props}
    return {"states": states, "names": list(names), "nu": nu, "valuation": valuation}


def make_rng(seed: int, stream: str) -> random.Random:
    """Independent, reproducible random stream per workload part."""
    return random.Random(f"{seed}/{stream}")
