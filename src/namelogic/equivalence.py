"""Structural comparisons: frame morphisms, bisimulations, distinguishers.

A frame morphism matches, per name, the image of each named agent's
successor set with some named agent on the other side (forth and back).  A
bisimulation relaxes the equation to a full back-and-forth matching of
successor sets through the relation.  Both notions preserve truth of the
E/S fragment.

Bisimilarity and E/S modal equivalence come from one partition refinement
engine, _refine, on the int masks of the two models' truth-core indexes
side by side, without building their disjoint union: _layout lists, per
state, the successor masks of the agents each name picks out there.  Round
0 splits the states by the proposition masks; each later round splits
blocks by a one-step signature, per name the class sets (ints) of the
named agents' successor masks: bisimilarity keeps them all, since through
an equivalence two successor sets match back and forth exactly when they
reach the same classes, and modal equivalence the minimal ones and their
union, all that E and S observe.
greatest_bisimulation refines to the stable partition.  A question about
one pair stops at the first round that separates it: bisimilar answers
from that round's blocks without building a relation, and
distinguishing_formula builds only the separating formula asked for
(Cleaveland, "On automatically explaining bisimulation inequivalence",
CAV 1990) from the rounds up to the split, so it returns one exactly when
one exists.

Bisimilarity is strictly finer than modal equivalence even on finite
models: one side may carry an extra named agent whose successor set is a
union of others', observable by no formula.  So bisimilar points always
get None, while rare non-bisimilar but equivalent pairs do too.
check_bisimulation, the independent certifier, reads the matching clauses
themselves, not the engine.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import or_
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .errors import UndeclaredSymbolError
from .formula import And, E, FALSE, Formula, Not, Or, Prop, S, TRUE
from .kripke import KripkeModel, _bit_indices
from .record import Record

Pair = tuple[str, str]


class Violation(Record):
    # state: a state, or a state pair for bisimulation checks; name: a name
    # or None; condition: "there" | "back" | "atoms" | "valuation"
    __slots__ = ("state", "name", "condition", "detail")


class MorphismCheckReport(Record):
    __slots__ = ("ok", "violations")  # violations: a tuple of Violation

    def __bool__(self) -> bool:
        return self.ok


class BisimRelation(Record):
    __slots__ = ("pairs",)  # a frozenset of (state, state) pairs

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


def _report(violations: list[Violation]) -> MorphismCheckReport:
    return MorphismCheckReport(not violations, tuple(violations))


def _atom_profile(m: KripkeModel, w: str, props: Iterable[str]) -> frozenset[str]:
    return frozenset(p for p in props if m.holds(p, w))


# ---------------------------------------------------------------------------
# Frame morphisms

def check_frame_morphism(
    src: KripkeModel,
    dst: KripkeModel,
    f: Mapping[str, str],
    compare_valuations: bool = False,
) -> MorphismCheckReport:
    """Verify the forth and back successor-set equations at every state/name.

    forth: each agent named n at w has a counterpart named n at f(w) whose
    successor set is exactly the image of its own.  back: each counterpart
    arises this way.  With compare_valuations, w and f(w) must also agree on
    the propositions both models interpret.
    """
    if set(f) != set(src.states) or not set(f.values()) <= set(dst.states):
        raise UndeclaredSymbolError(
            "map is not a total function from source states to target states"
        )
    out: list[Violation] = []
    for w in sorted(src.states):
        for n in sorted(src.names | dst.names):
            image_sets = {
                a: frozenset(f[v] for v in src.successors(a, w))
                for a in src.named(w, n)
            }
            targets = {
                a2: dst.successors(a2, f[w]) for a2 in dst.named(f[w], n)
            }
            for a, img in sorted(image_sets.items()):
                if img not in targets.values():
                    out.append(Violation(w, n, "there", f"no agent named {n!r} at {f[w]!r} has"
                                         f" successor set {sorted(img)} (image of {a!r})"))
            for a2, succ in sorted(targets.items()):
                if succ not in image_sets.values():
                    out.append(Violation(w, n, "back", f"successor set {sorted(succ)} of {a2!r} at"
                                         f" {f[w]!r} is no image of an agent named {n!r} at {w!r}"))
    if compare_valuations:
        shared = sorted(set(src.valuation) & set(dst.valuation))
        for w in sorted(src.states):
            if _atom_profile(src, w, shared) != _atom_profile(dst, f[w], shared):
                out.append(Violation(w, None, "valuation",
                                     f"{w!r} and {f[w]!r} disagree on shared propositions"))
    return _report(out)


# ---------------------------------------------------------------------------
# Bisimulations

def _matched(b: frozenset[Pair], left: frozenset[str], right: frozenset[str]) -> bool:
    # full back-and-forth matching of two successor sets through b
    return all(any((v, v2) in b for v2 in right) for v in left) and all(
        any((v, v2) in b for v in left) for v2 in right
    )


def _pair_ok(
    m1: KripkeModel, m2: KripkeModel, b: frozenset[Pair], w: str, w2: str
) -> Optional[Violation]:
    for n in sorted(m1.names | m2.names):
        left = {a: m1.successors(a, w) for a in m1.named(w, n)}
        right = {a2: m2.successors(a2, w2) for a2 in m2.named(w2, n)}
        for a, succ in sorted(left.items()):
            if not any(_matched(b, succ, succ2) for succ2 in right.values()):
                return Violation((w, w2), n, "there",
                                 f"agent {a!r} named {n!r} at {w!r} has no matching agent at {w2!r}")
        for a2, succ2 in sorted(right.items()):
            if not any(_matched(b, succ, succ2) for succ in left.values()):
                return Violation((w, w2), n, "back",
                                 f"agent {a2!r} named {n!r} at {w2!r} has no matching agent at {w!r}")
    return None


def check_bisimulation(
    m1: KripkeModel, m2: KripkeModel, b: BisimRelation
) -> MorphismCheckReport:
    """Certify that every pair of b satisfies atom agreement and the per-name
    back-and-forth matching clauses, read against b itself."""
    for w, w2 in b.pairs:
        if w not in m1.states or w2 not in m2.states:
            raise UndeclaredSymbolError(f"pair ({w!r}, {w2!r}) references undeclared states")
    out: list[Violation] = []
    props = sorted(set(m1.valuation) | set(m2.valuation))
    for w, w2 in sorted(b.pairs):
        if _atom_profile(m1, w, props) != _atom_profile(m2, w2, props):
            out.append(
                Violation((w, w2), None, "atoms", f"{w!r} and {w2!r} differ on atoms")
            )
            continue
        bad = _pair_ok(m1, m2, b.pairs, w, w2)
        if bad is not None:
            out.append(bad)
    return _report(out)


def greatest_bisimulation(m1: KripkeModel, m2: KripkeModel) -> BisimRelation:
    """Largest relation passing check_bisimulation: the pairs across the two
    sides of a block of the coarsest stable partition of their states."""
    shift, pairs = len(m1.states), []  # m2's states sit above m1's
    for block in _refine(_layout(m1, m2), modal=False)[-1]:
        left, right = block.members & (1 << shift) - 1, block.members >> shift
        pairs += product(map(m1.order.__getitem__, _bit_indices(left)),
                         map(m2.order.__getitem__, _bit_indices(right)))
    return BisimRelation(frozenset(pairs))


def bisimilar(m1: KripkeModel, w1: str, m2: KripkeModel, w2: str) -> bool:
    """Is (w1, w2) in greatest_bisimulation(m1, m2)?  Refinement stops at
    the round that separates the two points, and no relation is built."""
    if w1 not in m1.states or w2 not in m2.states:
        raise UndeclaredSymbolError(f"undeclared state in ({w1!r}, {w2!r})")
    pair = m1.bit[w1] | m2.bit[w2] << len(m1.states)
    return any(b.members & pair == pair for b in _refine(_layout(m1, m2), False, pair)[-1])


# ---------------------------------------------------------------------------
# Partition refinement (Kanellakis & Smolka 1990)

class _Block(NamedTuple):
    members: int  # one bit per state
    parent: Optional[int]  # its block in the previous round; None in the first
    signature: Any  # the atom profile in round 0; later set only if the parent split


class _Layout(NamedTuple):
    names: list[str]  # the names either family uses, sorted: the signatures' order
    val: dict[str, int]  # proposition -> its joint mask
    fams: list[list[tuple[int, tuple[int, ...]]]]  # per state: (name number, successor masks)


def _layout(m1: KripkeModel, m2: KripkeModel) -> _Layout:
    """The declared states of m1 and m2 side by side: state w of m1 keeps
    its bit m1.bit[w], and w of m2 takes m2.bit[w] << len(m1.states), the
    sorted order of their tagged disjoint union.  A state lists, by name
    number, the successor masks of the agents each name picks out there.
    Raises on a named agent's successor that its model does not declare;
    what an undeclared state carries is left out."""
    ix1, ix2, shift = m1._index, m2._index, len(m1.states)
    names = sorted(ix1.fam.keys() | ix2.fam.keys())
    number = {n: k for k, n in enumerate(names)}
    fams: list[list] = [[] for _ in range(shift + len(m2.states))]
    for ix, s in ((ix1, 0), (ix2, shift)):
        for n, entries in ix.fam.items():
            for w, union, members in entries:
                if union & ~ix.full:
                    x, y = ix.order[w.bit_length() - 1], min(ix.states_of(union & ~ix.full))
                    raise UndeclaredSymbolError(f"undeclared {y!r} is an {n!r} successor of {x!r}")
                if s:
                    members = tuple(succ << s for succ in members)
                fams[w.bit_length() - 1 + s].append((number[n], members))
    val = {p: (ix1.val.get(p, 0) & ix1.full) | (ix2.val.get(p, 0) & ix2.full) << shift
           for p in ix1.val.keys() | ix2.val.keys()}
    return _Layout(names, val, fams)


def _refine(layout: _Layout, modal: bool, pair: int = 0) -> list[list[_Block]]:
    """The rounds of partition refinement on the states of a layout.
    Round 0 splits all states by each proposition's mask, one atom profile
    per block; each later round splits blocks by their members' signatures
    over the previous round's classes, and numbers blocks by parent block,
    then by first member.  A state's signature holds, per name, the class
    sets of its successor masks: a class set is the OR of the class bits of
    a mask's states, read from a state -> class bit table filled once per
    round.  A block of one state is carried over without computing its
    signature.

    The rounds go up to the stable partition, or, given pair, the OR of
    two state bits, up to the first round where no block holds both.
    Round r does not depend on later rounds, so the rounds returned are
    the first ones of the full refinement."""
    names, val, fams = layout
    full = (1 << len(fams)) - 1
    blocks = [full] if full else []
    for mask in val.values():
        blocks = [part for b in blocks for part in (b & mask, b & ~mask) if part]
    blocks.sort(key=lambda b: b & -b)
    rounds = [[_Block(b, None, frozenset(p for p, mask in val.items() if b & mask))
               for b in blocks]]
    absent = (frozenset(), 0) if modal else frozenset()
    cls = [0] * len(fams)  # state -> the bit of its class
    while not pair or any(block.members & pair == pair for block in rounds[-1]):
        for c, block in enumerate(rounds[-1]):
            for i in _bit_indices(block.members):
                cls[i] = 1 << c
        class_sets: dict[int, int] = {}  # successor mask -> its class set
        split: list[_Block] = []
        for c, (b, _, _) in enumerate(rounds[-1]):
            groups: dict[Any, int] = {}
            for i in _bit_indices(b) if b & (b - 1) else ():
                sig = [absent] * len(names)
                for k, members in fams[i]:
                    for succ in members:
                        if succ not in class_sets:
                            got, rest = 0, succ
                            while rest:
                                low = rest & -rest
                                got |= cls[low.bit_length() - 1]
                                rest ^= low
                            class_sets[succ] = got
                    f = frozenset(map(class_sets.__getitem__, members))
                    # E and S observe only the minimal sets and the union
                    sig[k] = (frozenset(P for P in f if not any(Q & P == Q != P for Q in f)),
                              reduce(or_, f, 0)) if modal else f
                sig = tuple(sig)
                groups[sig] = groups.get(sig, 0) | 1 << i
            if len(groups) > 1:
                parts = sorted(groups.items(), key=lambda kv: kv[1] & -kv[1])
                split += [_Block(ws, c, sig) for sig, ws in parts]
            else:
                split.append(_Block(b, c, None))
        if len(split) == len(rounds[-1]):
            break
        rounds.append(split)
    return rounds


# ---------------------------------------------------------------------------
# Distinguishing formulas (Cleaveland 1990)

def _separator(names: list[str], sig_x, sig_y) -> tuple[bool, type, str, list[int]]:
    """How the block with modal signature sig_x differs from the one with
    sig_y, as (positive, op, name, classes): op(name, the disjunction of the
    classes' characteristic formulas, negated under E) holds in the first
    block, not the second, when positive; the other way round when not."""
    for n, (min_x, union_x), (min_y, union_y) in zip(names, sig_x, sig_y):
        if min_x != min_y:
            for P in sorted(min_x, key=lambda P: [*_bit_indices(P)]):
                if not any(Q & P == Q for Q in min_y):
                    return True, S, n, [*_bit_indices(P)]
            for P in sorted(min_y, key=lambda P: [*_bit_indices(P)]):
                if not any(Q & P == Q for Q in min_x):
                    return False, S, n, [*_bit_indices(P)]
        if union_x & ~union_y:  # the first class only x reaches
            return False, E, n, [next(_bit_indices(union_x & ~union_y))]
        if union_y & ~union_x:
            return True, E, n, [next(_bit_indices(union_y & ~union_x))]
    raise AssertionError("states were split without a signature difference")


def _delta(rounds: list[list[_Block]], names: list[str], ci: int, cj: int) -> Formula:
    """delta(r, ci, cj), true in block ci of round r and false in block cj,
    for the last round, built only where the asked pair needs it.  Blocks
    with different parents take their parents' delta; otherwise ci > cj
    negates delta(r, cj, ci), and ci < cj is the _separator of the two
    signatures over chi(r - 1, c), the conjunction of delta(r - 1, c, d)
    over every other block d.  An explicit stack bounds the call depth."""
    memo: dict[tuple, Formula] = {}  # delta by (r, ci, cj), chi by (r, c)
    waiting: dict[tuple, tuple] = {}  # a separator's shape and chi rows while deltas are built
    stack = [root := (len(rounds) - 1, ci, cj)]
    while stack:
        r, ci, cj = key = stack.pop()
        if key in memo:
            continue
        x, y = rounds[r][ci], rounds[r][cj]
        if r == 0:
            p = min(x.signature ^ y.signature)
            memo[key] = Prop(p) if p in x.signature else Not(Prop(p))
        elif x.parent != y.parent or ci > cj:
            dep = (r - 1, x.parent, y.parent) if x.parent != y.parent else (r, cj, ci)
            if dep not in memo:
                stack += [key, dep]
                continue
            memo[key] = memo[dep] if dep[0] < r else Not(memo[dep])
        else:
            if key not in waiting:
                sep, blocks = _separator(names, x.signature, y.signature), len(rounds[r - 1])
                waiting[key] = sep, {c: [(r - 1, c, d) for d in range(blocks) if d != c]
                                     for c in sep[3] if (r - 1, c) not in memo}
            (positive, op, n, cs), rows = waiting[key]
            missing = [k for row in rows.values() for k in row if k not in memo]
            if missing:
                stack += [key, *missing]
                continue
            del waiting[key]
            for c, row in rows.items():
                if (r - 1, c) not in memo:
                    memo[(r - 1, c)] = reduce(And, [memo[k] for k in row]) if row else TRUE
            body = reduce(Or, [memo[(r - 1, c)] for c in cs]) if cs else FALSE
            f = op(n, Not(body) if op is E else body)
            memo[key] = f if positive else Not(f)
    return memo[root]


def distinguishing_formula(
    m1: KripkeModel, w1: str, m2: KripkeModel, w2: str
) -> Optional[Formula]:
    """A formula of the E/S fragment true at (m1, w1) and false at (m2, w2),
    or None when the two points satisfy exactly the same such formulas."""
    if w1 not in m1.states or w2 not in m2.states:
        raise UndeclaredSymbolError(f"undeclared state in ({w1!r}, {w2!r})")
    layout, x, y = _layout(m1, m2), m1.bit[w1], m2.bit[w2] << len(m1.states)
    rounds = _refine(layout, True, x | y)
    cx, cy = (next(c for c, b in enumerate(rounds[-1]) if b.members & s) for s in (x, y))
    return None if cx == cy else _delta(rounds, layout.names, cx, cy)

