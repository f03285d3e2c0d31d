"""Workload `cli`: README-shaped `namelogic` subcommands, each run as a fresh
interpreter, one at a time, on small generated model files; some formulas
come in on stdin.  A CLI user mostly pays interpreter start, import, argument
parsing and JSON I/O, so only this workload shows gains there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from namelogic import cli, decision, equivalence, kripke, neighborhood
from namelogic.formula import Not, parse_formula

import gen
import refcheck

VARIANTS = 2
CHILD_TIMEOUT_S = 60


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int, workdir: str, env: dict):
        rng = gen.make_rng(seed, "cli")
        self.env = env
        self.files: dict[str, dict] = {}
        self.queries = []

        def save(stem, doc):
            path = os.path.join(workdir, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.files[path] = doc
            return path

        def add(argv, stdin=None, **facts):
            self.queries.append({"id": len(self.queries), "argv": argv, "stdin": stdin,
                                 "deep": False, **facts})

        for v in range(VARIANTS):
            model = save(f"model{v}", gen.relational_model(rng, 6 + 2 * v, ("general", "epistemic")[v]))
            states = self.files[model]["states"]
            tree = gen.shallow_formula(rng, rng.randint(5, 30))
            add(["check", "--model", model, "--state", rng.choice(states),
                 "--formula", gen.to_text(tree)], tree=tree)

            while True:
                tree = gen.random_formula(rng, rng.randint(4, 10), modal="ES")
                if gen.closure_size(tree) <= 40:
                    break
            add(["sat", "--formula", "-"], stdin=gen.to_text(tree), tree=tree)

            # !(D p -> E p) has a countermodel of 2 states and 2 agents, in a
            # tier the oracle searches exhaustively: a known hit
            atom = ("p", rng.choice(gen.PROPS))
            tree = ("!", ("->", ("D", "n", atom), ("E", "n", atom)))
            add(["sat", "--formula", gen.to_text(tree), "--oracle", "--bounds", "2,2"],
                tree=tree, expect="sat")
            # negated T(D) and Incl(S,D): sound, so every tier is searched in
            # vain.  Equal cost and a sixth of the queries, these hold p90.
            # The atom is fixed: renaming it changes the search order and so
            # the cost.
            phi = ("E", "n", ("p", "p"))
            for tree in (("!", ("->", ("D", "n", phi), phi)),
                         ("!", ("->", ("S", "n", phi), ("D", "n", phi)))):
                add(["sat", "--formula", gen.to_text(tree), "--oracle", "--bounds", "2,2"],
                    tree=tree, expect="sat-bounded-unknown")

            f = gen.random_formula(rng, 3, modal="ES")
            g = gen.random_formula(rng, 3, modal="ES")
            name = rng.choice(gen.NAMES)
            valid_inst = ("->", ("&", ("S", name, f), ("E", name, ("->", f, g))), ("S", name, g))
            invalid_inst = ("->", ("E", name, gen.contingent_prop(rng)), ("S", name, ("T",)))
            tree, expect = (valid_inst, True) if v == 0 else (invalid_inst, False)
            add(["valid", "--formula", "-"], stdin=gen.to_text(tree), tree=tree, expect=expect)

            left = save(f"left{v}", gen.relational_model(rng, 5 + v, "general"))
            right = save(f"right{v}", gen.relational_model(rng, 5 + v, "epistemic"))
            w1 = rng.choice(self.files[left]["states"])
            w2 = rng.choice(self.files[right]["states"])
            add(["bisim", "--model1", left, "--state1", w1, "--model2", right, "--state2", w2,
                 "--distinguish"])

            add(["translate", "--model", model, "--to", "nbhd"])
            add(["validate", "--model", model, "--mode", "strict"])
            add(["random", "--states", "5", "--mode", "epistemic", "--seed", str(rng.randrange(1000))])
            nbhd = save(f"nbhd{v}", gen.neighborhood_model(rng, 5 + v))
            add(["algebra", "--model", nbhd])

    def setup_texts(self):
        return [json.dumps(d) for d in self.files.values() if "relations" in d]

    def fresh(self, tr):
        return None

    def run(self, q, ctx, tr):
        proc = tr.call(
            "cli.process", subprocess.run,
            [sys.executable, "-m", "namelogic.cli", *q["argv"]],
            input=q["stdin"] or "", capture_output=True, text=True, env=self.env,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        payload = json.loads(proc.stdout)
        if tr.enabled:
            tr.count("cli.stdout_bytes", len(proc.stdout))
        return f"{proc.returncode}:{_verdict_fields(q['argv'][0], payload)}", payload

    def run_in_process(self, q, tr):
        """Traced runs only: the same argv through cli.main in this process,
        plus the library calls the command wraps that the trace reports."""
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(q["stdin"] or "")
        try:
            with contextlib.redirect_stdout(out):
                tr.call("cli.main", cli.main, list(q["argv"]))
        finally:
            sys.stdin = saved
        for path in q["argv"]:
            if path in self.files:
                doc = self.files[path]
                if "nu" in doc:
                    m = tr.call("neighborhood.nbhd_from_dict", neighborhood.nbhd_from_dict, doc)
                    tr.call("neighborhood.verify_algebra_equations",
                            neighborhood.verify_algebra_equations, m)
                else:
                    tr.call("kripke.model_from_dict", kripke.model_from_dict, doc)

    def gate(self, q, verdict, payload, tr):
        command, argv = q["argv"][0], q["argv"]
        code = int(verdict.split(":")[0])
        arg = _options(argv)
        load = lambda key: kripke.model_from_dict(self.files[arg[key]])
        errors = []

        def expect_code(ok):
            if code != (0 if ok else 1):
                errors.append(f"exit code {code} does not match the verdict")

        if command == "check":
            m = load("--model")
            value = kripke.check(m, arg["--state"], parse_formula(arg["--formula"])).value
            ref = arg["--state"] in refcheck.extension(
                refcheck.RefModel(self.files[arg["--model"]]), q["tree"])
            if payload["value"] != value or value != ref:
                errors.append("check value differs from the library or the reference")
            expect_code(value)
        elif command == "sat":
            f = parse_formula(q["stdin"] or arg["--formula"])
            lib = (decision.satisfiable_bounded(f, 2, 2) if "--oracle" in argv
                   else decision.satisfiable(f))
            if payload["verdict"] != lib.verdict:
                errors.append("sat verdict differs from the library")
            if q.get("expect") and payload["verdict"] != q["expect"]:
                errors.append(f"expected {q['expect']}")
            if payload["verdict"] == "sat":
                ref = refcheck.RefModel(payload["model"])
                if payload["state"] not in refcheck.extension(ref, q["tree"]):
                    errors.append("printed model fails the reference evaluator")
            expect_code(payload["verdict"] == "sat")
        elif command == "valid":
            lib = decision.satisfiable(Not(parse_formula(q["stdin"])))
            if payload["verdict"] != lib.verdict:
                errors.append("valid verdict differs from the library")
            if (payload["verdict"] == "unsat") != q["expect"]:
                errors.append("known validity misreported")
            expect_code(payload["verdict"] == "unsat")
        elif command == "bisim":
            m1, m2 = load("--model1"), load("--model2")
            w1, w2 = arg["--state1"], arg["--state2"]
            same = equivalence.bisimilar(m1, w1, m2, w2)
            if payload["bisimilar"] != same:
                errors.append("bisimilar differs from the library")
            text = payload.get("distinguisher")
            if text is not None:
                tree = refcheck.parse(text)
                if w1 not in refcheck.extension(refcheck.RefModel(self.files[arg["--model1"]]), tree) \
                        or w2 in refcheck.extension(refcheck.RefModel(self.files[arg["--model2"]]), tree):
                    errors.append("printed distinguisher fails the reference evaluator")
            expect_code(same)
        elif command == "translate":
            if payload != refcheck.kripke_to_nbhd(self.files[arg["--model"]]):
                errors.append("translation differs from the reference")
            expect_code(True)
        elif command == "validate":
            ok = not kripke.has_errors(kripke.validate_model(load("--model"), "strict"))
            if payload["ok"] != ok:
                errors.append("validate differs from the library")
            expect_code(ok)
        elif command == "random":
            lib = kripke.model_to_dict(kripke.random_model(
                states=5, mode="epistemic", seed=int(arg["--seed"])))
            if payload != lib:
                errors.append("random model differs from the library")
            expect_code(True)
        elif command == "algebra":
            doc = self.files[arg["--model"]]
            diags = neighborhood.verify_algebra_equations(neighborhood.nbhd_from_dict(doc))
            if payload["ok"] is not True or kripke.has_errors(diags):
                errors.append("the complex-algebra laws always hold; an error was reported")
            if len(payload["diagnostics"]) != len(refcheck.algebra_warnings(doc)):
                errors.append("empty-neighborhood warnings differ from the reference")
            expect_code(True)
        return errors


def _options(argv: list[str]) -> dict[str, str]:
    """--flag value pairs of an argv; bare flags map to an empty string."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else "--"
            out[tok] = "" if nxt.startswith("--") else nxt
    return out


def _verdict_fields(command: str, payload: dict) -> str:
    """The verdict part of a command's output, without models or witnesses."""
    if command == "check":
        return str(payload["value"])
    if command in ("sat", "valid"):
        return payload["verdict"]
    if command == "bisim":
        return f"{payload['bisimilar']}/{payload.get('distinguisher') is not None}"
    if command in ("validate", "algebra"):
        return f"{payload['ok']}/{len(payload['diagnostics'])}"
    return str(len(json.dumps(payload, sort_keys=True)))
