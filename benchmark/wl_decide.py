"""Workload `decide`: satisfiability and validity.

Three query classes per pass:
  (a) `satisfiable` on E/S/C formulas: two random ones per closure band from
      12 to 51, and two fixed heavy formulas for the bands up to the 64
      budget (random draws there are too heavy-tailed for a steady total);
  (b) `valid` on AX_N / AX_NC schema instances (known valid) on a fixed
      ladder of closure sizes from 12 to 64, dense where the median falls,
      and on negative controls (known invalid);
  (c) `satisfiable_bounded` at bounds (2, 2) on negated sound D/B schema
      instances (known misses: every tier is searched) and on negated
      non-theorems whose countermodels lie in an exhaustively searched tier
      (known hits).  The misses are fixed instances without atoms: every
      schema once with each operand pair, and K(D) repeated, whose searches
      cost the same; that repeated block is where p90 falls.
"""

from __future__ import annotations

from namelogic import kripke
from namelogic.decision import satisfiable, satisfiable_bounded, valid
from namelogic.formula import parse_formula

import gen
import refcheck

RANDOM_BANDS = ((12, 19), (20, 27), (28, 35), (36, 43), (44, 51))
PER_BAND = 2

# Heavy sat queries: closure 63 with 232 initial atoms (the extracted model
# has 221 states, 904 agents and 131,958 edges) and closure 64 with 322.
ANCHORS = (
    "C[m] !S[n] (E[m] q & E[n] S[m] q | (S[m] p | !!E[m] p & (p <-> p) & (!p | q)))",
    "C[n] C[m] (C[m] (q | false & q) -> S[m] C[n] true)",
)

# closure-size ladder of the valid instances: three per band of four, and
# sixty in the band where the pass's median falls, so that p50 is a
# statistic of many similar queries rather than of one draw
VALID_BANDS = {(lo, lo + 3): 3 for lo in range(12, 64, 4)}
VALID_BANDS[(36, 39)] = 60


def _imp(a, b):
    return ("->", a, b)


def _and(a, b):
    return ("&", a, b)


# sound schemas of AX_N and AX_NC
VALID_SCHEMAS = (
    lambda n, f, g: _imp(("S", n, f), f),                                            # T(S)
    lambda n, f, g: _imp(_and(("E", n, f), ("E", n, _imp(f, g))), ("E", n, g)),      # K(E)
    lambda n, f, g: _imp(_and(("S", n, f), ("E", n, _imp(f, g))), ("S", n, g)),      # Int_1
    lambda n, f, g: _imp(("C", n, _imp(f, g)), _imp(("C", n, f), ("C", n, g))),      # K(C)
    lambda n, f, g: _imp(("C", n, f), ("E", n, _and(f, ("C", n, f)))),              # FP
)
INT_2 = _imp(("!", ("E", "n", ("F",))), ("S", "n", ("T",)))

# invalid for every contingent propositional phi
INVALID_SCHEMAS = (
    lambda n, phi: _imp(("E", n, phi), phi),
    lambda n, phi: _imp(phi, ("E", n, phi)),
    lambda n, phi: _imp(("S", n, phi), ("E", n, phi)),
    lambda n, phi: _imp(("E", n, phi), ("S", n, phi)),
    lambda n, phi: _imp(("C", n, phi), phi),
)

# sound D/B schemas: negated, they have no model at all
MISS_SCHEMAS = (
    lambda f, g: _imp(_and(("D", "n", f), ("D", "n", _imp(f, g))), ("D", "n", g)),   # K(D)
    lambda f, g: _imp(("S", "n", f), ("D", "n", f)),                                 # Incl(S,D)
    lambda f, g: _imp(("D", "n", f), f),                                             # T(D)
    lambda f, g: _imp(_and(("D", "n", f), ("E", "n", _imp(f, g))), ("D", "n", g)),   # Int(D,E)
    lambda f, g: _imp(("B", "a", "n", _imp(f, g)),
                      _imp(("B", "a", "n", f), ("B", "a", "n", g))),                 # K(B)
)
# (schema, operand pair) of each miss: all ten once, then twelve more K(D)
# instances, an equal-cost block wide enough that p90 falls inside it, away
# from its edges, whatever the seeded queries around it cost.  Names are
# not renamed: a renaming changes the search order and so the cost.
MISSES = [(s, o) for s in range(5) for o in range(2)] + [(0, 0), (0, 1)] * 6

# non-theorems with a countermodel of at most 2 states and 2 agents, one name
# and two atoms: that tier is searched exhaustively, so the negation is a hit
HIT_SCHEMAS = (
    lambda phi: _imp(("E", "n", phi), ("D", "n", phi)),
    lambda phi: _imp(("B", "a", "n", phi), phi),
    lambda phi: _imp(("D", "n", phi), ("E", "n", phi)),
    lambda phi: _imp(phi, ("D", "n", phi)),
    lambda phi: _imp(("B", "a", "n", phi), ("D", "n", phi)),
)


def _valid_ladder(rng):
    """Schema instances filling every closure band of VALID_BANDS."""
    slots = {band: [] for band in VALID_BANDS}
    draws = 0
    while any(len(got) < VALID_BANDS[band] for band, got in slots.items()):
        draws += 1
        if draws > 200_000:
            raise RuntimeError("cannot fill the closure ladder of valid instances")
        build = VALID_SCHEMAS[draws % len(VALID_SCHEMAS)]
        f = gen.random_formula(rng, rng.randint(1, 9), modal="ESC")
        g = gen.random_formula(rng, rng.randint(1, 9), modal="ESC")
        inst = build(rng.choice(gen.NAMES), f, g)
        size = gen.closure_size(("!", inst))
        for band, got in slots.items():
            if band[0] <= size <= band[1] and len(got) < VALID_BANDS[band]:
                got.append(inst)
    return [inst for got in slots.values() for inst in got]


# operands (f, g) of the miss instances: no atoms and one name, so each
# search covers the same few thousand candidates
MISS_OPERANDS = (
    (("E", "n", ("F",)), ("S", "n", ("T",))),
    (("S", "n", ("T",)), ("!", ("E", "n", ("F",)))),
)


class DecideWorkload:
    name = "decide"

    def __init__(self, seed: int):
        rng = gen.make_rng(seed, "decide")
        specs = []  # (kind, expectation, tree)
        for lo, hi in RANDOM_BANDS:
            for _ in range(PER_BAND):
                while True:
                    tree = gen.random_formula(rng, rng.randint(4, 16), modal="ESC")
                    if lo <= gen.closure_size(tree) <= hi:
                        break
                specs.append(("sat", None, tree))
        for text in ANCHORS:
            specs.append(("sat", "sat", refcheck.parse(text)))

        for inst in _valid_ladder(rng) + [INT_2]:
            specs.append(("valid", True, inst))
        for i in range(10):
            build = INVALID_SCHEMAS[i % len(INVALID_SCHEMAS)]
            specs.append(("valid", False, build(rng.choice(gen.NAMES), gen.contingent_prop(rng))))

        for si, oi in MISSES:
            f, g = MISS_OPERANDS[oi]
            specs.append(("oracle", "sat-bounded-unknown", ("!", MISS_SCHEMAS[si](f, g))))
        for build in HIT_SCHEMAS:
            specs.append(("oracle", "sat", ("!", build(("p", rng.choice(gen.PROPS))))))
        rng.shuffle(specs)

        self.queries = [
            {"id": i, "kind": kind, "expect": expect, "tree": tree, "text": gen.to_text(tree),
             "deep": False}
            for i, (kind, expect, tree) in enumerate(specs)
        ]

    def setup_texts(self):
        return []

    def fresh(self, tr):
        return None

    def run(self, q, ctx, tr):
        f = tr.call("formula.parse_formula", parse_formula, q["text"])
        if q["kind"] == "valid":
            ok = tr.call("decision.valid", valid, f)
            return ("valid" if ok else "invalid"), None
        if q["kind"] == "sat":
            res = tr.call(
                lambda r: "decision.satisfiable_sat" if r is not None and r.verdict == "sat"
                else "decision.satisfiable_unsat",
                satisfiable, f)
            if tr.enabled:
                for key in ("closure_size", "initial_atoms", "rounds"):
                    tr.count(f"decision.{key}", res.stats[key])
                if res.model is not None:
                    tr.count("decision.model_states", len(res.model.states))
                    tr.count("decision.model_agents", len(res.model.agents))
                    tr.count("decision.model_edges",
                             sum(len(p) for p in res.model.relations.values()))
        else:
            res = tr.call(
                lambda r: "decision.oracle_hit" if r is not None and r.verdict == "sat"
                else "decision.oracle_miss",
                satisfiable_bounded, f, 2, 2)
            if tr.enabled:
                tr.count("decision.oracle_calls", 1)
                tr.count("decision.oracle_hits", res.verdict == "sat")
        return res.verdict, (res.model, res.state, f)

    def gate(self, q, verdict, artifact, tr):
        if q["kind"] == "valid":
            if verdict != ("valid" if q["expect"] else "invalid"):
                return [f"expected {'valid' if q['expect'] else 'invalid'}, got {verdict}"]
            return []
        errors = []
        if q["expect"] is not None and verdict != q["expect"]:
            errors.append(f"expected {q['expect']}, got {verdict}")
        model, state, f = artifact
        if model is not None:
            if not tr.call("kripke.check", kripke.check, model, state, f).value:
                errors.append("returned model fails kripke.check")
            ref = refcheck.RefModel(kripke.model_to_dict(model))
            if state not in refcheck.extension(ref, q["tree"]):
                errors.append("returned model fails the reference evaluator")
        return errors
