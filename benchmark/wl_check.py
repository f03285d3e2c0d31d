"""Workload `check`: model checking of full-language formulas on seeded
relational models, with neighborhood truth for E/S-only queries.

Formula sizes follow a fixed heavy-tailed ladder (a few nodes up to a few
thousand); a fixed share of queries nests hundreds to thousands of levels
deep.  Never enters `decision` or `equivalence`.
"""

from __future__ import annotations

import json

from namelogic import kripke, neighborhood
from namelogic.formula import parse_formula

import gen
import refcheck

N_MODELS = 12
N_ORDINARY = 1152
DEEP_KINDS = ("paren", "not", "E", "and")
DEEP_LEVELS = (240, 900, 3000)
DEEP_COPIES = 4  # 48 deep queries: 4% of a pass


class CheckWorkload:
    name = "check"

    def __init__(self, seed: int):
        rng = gen.make_rng(seed, "check")
        self.models = []
        for i in range(N_MODELS):
            n_states = 8 + round(24 * i / (N_MODELS - 1))
            mode = "general" if i % 2 == 0 else "epistemic"
            self.models.append(gen.relational_model(rng, n_states, mode))
        self.model_texts = [json.dumps(d) for d in self.models]

        specs = []
        for i, size in enumerate(gen.heavy_tail_sizes(N_ORDINARY, 3, 3000)):
            roll = i % 10
            if roll < 4:  # E/S only: also answered by neighborhood truth
                tree = gen.shallow_formula(rng, size, modal="ES")
            elif roll == 4:  # distributed knowledge at the root
                tree = ("D", rng.choice(gen.NAMES), gen.shallow_formula(rng, max(1, size - 1)))
            else:
                tree = gen.shallow_formula(rng, size)
            specs.append(("ordinary", tree, gen.to_text(tree)))
        for _ in range(DEEP_COPIES):
            for level in DEEP_LEVELS:
                for kind in DEEP_KINDS:
                    tree, text = gen.deep_formula(kind, level, rng)
                    specs.append((f"deep-{kind}-{level}", tree, text))
        # sizes ascend, so cycling through the models pairs every part of the
        # size ladder with every model size; then the order is shuffled
        placed = [(spec, i % N_MODELS) for i, spec in enumerate(specs)]
        rng.shuffle(placed)

        self.queries = []
        for qid, ((kind, tree, text), mi) in enumerate(placed):
            self.queries.append({
                "id": qid,
                "kind": kind,
                "deep": kind != "ordinary",
                "tree": tree,
                "text": text,
                "model": mi,
                "state": rng.choice(self.models[mi]["states"]),
                "es": refcheck.uses_only(tree, "ES"),
                "d_root": tree[0] == "D",
                "nodes": gen.tree_size(tree),
            })

    def setup_texts(self):
        return self.model_texts

    def fresh(self, tr):
        """New model objects for every pass: KripkeModel memoises extensions."""
        models = [tr.call("kripke.model_from_dict", kripke.model_from_dict, json.loads(t))
                  for t in self.model_texts]
        return {"models": models, "nbhd": {}}

    def run(self, q, ctx, tr):
        m = ctx["models"][q["model"]]
        f = tr.call("formula.parse_formula", parse_formula, q["text"])
        ext = tr.call("kripke.extension", kripke.extension, m, f)
        value = tr.call("kripke.check", kripke.check, m, q["state"], f).value
        nb_ext = None
        if q["es"]:
            nb = ctx["nbhd"].get(q["model"])
            if nb is None:
                nb = ctx["nbhd"][q["model"]] = tr.call(
                    "neighborhood.kripke_to_nbhd", neighborhood.kripke_to_nbhd, m)
            nb_ext = tr.call("neighborhood.extension_nbhd", neighborhood.extension_nbhd, nb, f)
        if tr.enabled:
            tr.count("formula.parse_nodes", q["nodes"])
            tr.count("kripke.states_evaluated", q["nodes"] * len(m.states))
        verdict = f"{int(value)}:{','.join(sorted(ext))}"
        return verdict, (ext, value, nb_ext)

    def gate(self, q, verdict, artifact, tr):
        ext, value, nb_ext = artifact
        d = self.models[q["model"]]
        ref = refcheck.extension(refcheck.RefModel(d), q["tree"])
        errors = []
        if ext != ref:
            errors.append("extension differs from the reference evaluator")
        if value != (q["state"] in ref):
            errors.append("check value differs from the reference evaluator")
        if q["es"] and nb_ext != ext:
            errors.append("Kripke and neighborhood truth disagree")
        if q["d_root"]:
            m = kripke.model_from_dict(d)
            arg = parse_formula(gen.to_text(q["tree"][2]))
            by_subsets, _ = kripke.distributed_by_subsets(m, q["state"], q["tree"][1], arg)
            if by_subsets != value:
                errors.append("distributed_by_subsets disagrees with check")
        return errors
