"""Workload `bisim`: greatest bisimulations, pointwise bisimilarity and
distinguishing formulas on seeded model pairs of 12 to 48 states.

Pair kinds: m against m joined with another model (each point of m is
bisimilar to its copy), m against a generated submodel (each kept point is
bisimilar to itself), and independent random pairs.  Besides two pairs of
each kind per ladder size, a block of independent pairs of one middle size
costs about what the median query costs, so p50 is a statistic of many
similar queries rather than of wherever the ladder's median falls.  Only
`equivalence` is loaded; distinguishers are re-checked through `kripke`.
"""

from __future__ import annotations

import json

from namelogic import equivalence, kripke
from namelogic.formula import print_formula, walk

import gen
import refcheck

SIZES = (12, 16, 20, 24, 28, 32, 36, 40, 44, 48)
KINDS = ("union", "submodel", "independent")
# (size, kind, copy).  One bisimilar query per pair: each recomputes the
# pair's whole relation, so more queries on one pair would only repeat its
# cost, while two pairs per ladder step give the percentiles twice as many
# independent draws.  Copy 0 asks about points known to be bisimilar (union
# and submodel pairs), copy 1 about random points.
LADDER = [(size, kind, copy) for copy in (0, 1) for size in SIZES for kind in KINDS]
MEDIAN_BLOCK = [(28, "independent", 1)] * 24


class BisimWorkload:
    name = "bisim"

    def __init__(self, seed: int):
        rng = gen.make_rng(seed, "bisim")
        self.pairs = []  # (left dict, right dict)
        self.queries = []
        for size, kind, copy in LADDER + MEDIAN_BLOCK:
            if kind == "union":
                left = gen.relational_model(rng, size, "general")
                other = gen.relational_model(rng, size // 2, "epistemic", prefix="v")
                right = gen.disjoint_union(left, other)
                w = rng.choice(left["states"])
                known = (w, f"0:{w}")
            elif kind == "submodel":
                left = gen.relational_model(rng, size, "epistemic")
                # the root whose submodel is nearest half of m: the pair's
                # cost then depends on the size ladder, not on the draw
                subs = [gen.generated_submodel(left, w) for w in left["states"]]
                right = min(subs, key=lambda d: abs(len(d["states"]) - size // 2))
                w = rng.choice(right["states"])
                known = (w, w)
            else:
                left = gen.relational_model(rng, size, "general")
                right = gen.relational_model(rng, size, ("general", "epistemic")[size % 8 // 4])
                known = None
            pi = len(self.pairs)
            self.pairs.append((left, right))
            sure = copy == 0 and known is not None
            points = known if sure else (rng.choice(left["states"]), rng.choice(right["states"]))
            self.queries.append({"id": len(self.queries), "kind": "greatest", "pair": pi,
                                 "deep": False})
            self.queries.append({"id": len(self.queries), "kind": "bisimilar", "pair": pi,
                                 "points": points, "known": sure, "deep": False})
        self.texts = [(json.dumps(a), json.dumps(b)) for a, b in self.pairs]
        self._relations: dict[int, frozenset] = {}  # filled by gate, pair by pair

    def setup_texts(self):
        return [t for pair in self.texts for t in pair]

    def fresh(self, tr):
        return [
            tuple(tr.call("kripke.model_from_dict", kripke.model_from_dict, json.loads(t))
                  for t in pair)
            for pair in self.texts
        ]

    def run(self, q, ctx, tr):
        m1, m2 = ctx[q["pair"]]
        if q["kind"] == "greatest":
            rel = tr.call("equivalence.greatest_bisimulation", equivalence.greatest_bisimulation,
                          m1, m2)
            if tr.enabled:
                tr.count("equivalence.relation_pairs", len(rel))
            return str(len(rel)), rel
        w1, w2 = q["points"]
        same = tr.call("equivalence.bisimilar", equivalence.bisimilar, m1, w1, m2, w2)
        if same:
            return "bisimilar", None
        f = tr.call("equivalence.distinguishing_formula", equivalence.distinguishing_formula,
                    m1, w1, m2, w2)
        if f is None:
            return "equivalent", None
        text = print_formula(f)
        if tr.enabled:
            tr.count("equivalence.distinguisher_nodes", sum(1 for _ in walk(f)))
        return "distinguished", (f, text)

    def gate(self, q, verdict, artifact, tr):
        left, right = self.pairs[q["pair"]]
        m1, m2 = kripke.model_from_dict(left), kripke.model_from_dict(right)
        errors = []
        if q["kind"] == "greatest":
            report = tr.call("equivalence.check_bisimulation", equivalence.check_bisimulation,
                             m1, m2, artifact)
            if not report.ok:
                errors.append("greatest relation fails check_bisimulation")
            self._relations[q["pair"]] = artifact.pairs
            return errors
        w1, w2 = q["points"]
        relation = self._relations.get(q["pair"])
        if relation is not None and (verdict == "bisimilar") != ((w1, w2) in relation):
            errors.append("bisimilar disagrees with the greatest relation")
        if q["known"] and verdict != "bisimilar":
            errors.append("known bisimilar points reported non-bisimilar")
        if verdict == "distinguished":
            f, text = artifact
            if not tr.call("kripke.check", kripke.check, m1, w1, f).value \
                    or tr.call("kripke.check", kripke.check, m2, w2, f).value:
                errors.append("distinguisher fails kripke.check")
            tree = refcheck.parse(text)
            if w1 not in refcheck.extension(refcheck.RefModel(left), tree) \
                    or w2 in refcheck.extension(refcheck.RefModel(right), tree):
                errors.append("distinguisher fails the reference evaluator")
        return errors
