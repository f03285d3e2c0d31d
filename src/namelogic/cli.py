"""Command-line interface: batch queries over the JSON model formats.

Every command is a thin wrapper over one library call; verdicts are computed
by the library and only serialized here.  Exit codes: 0 affirmative verdict,
1 negative verdict, 2 usage or input error.  All results go to stdout as
JSON; --pretty changes whitespace only.
"""

import argparse
import json
import sys
from typing import Any, Optional

# Each command imports the subsystem it runs, so a child that runs one
# command does not load the others.
from . import kripke
from .errors import LogicError, ModelFormatError
from .formula import _CLASSES, Not, _program, _root, _text_length, parse_formula, print_formula

# A distinguisher whose text would be longer than this many characters is
# printed as its numbered DAG: a formula's text can grow exponentially with
# its number of distinct subterms.
_TEXT_CAP = 1_000_000


def _emit(payload: Any, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _read_formula(flag: str):
    text = sys.stdin.read() if flag == "-" else flag
    return parse_formula(text)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses into nested arrays and objects
            raise ModelFormatError(f"{path}: the JSON document nests too deeply") from None


def _diag_payload(diags) -> list[dict]:
    return [{"level": d.level, "code": d.code, "message": d.message} for d in diags]


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    m = kripke.model_from_dict(_load_json(args.model))
    if args.state not in m.states:
        raise LogicError(f"state {args.state!r} is not in the model")
    res = kripke.check(m, args.state, _read_formula(args.formula))
    _emit({"value": res.value, "witness": res.witness}, args.pretty)
    return 0 if res.value else 1


def cmd_sat(args) -> int:
    from . import decision

    chi = _read_formula(args.formula)
    if args.oracle:
        res = decision.satisfiable_bounded(chi, *(args.bounds or ()))
    else:
        if args.bounds:
            raise LogicError("--bounds requires --oracle")
        res = decision.satisfiable(chi)
    _emit(res.to_dict(), args.pretty)
    return 0 if res.verdict == "sat" else 1


def cmd_valid(args) -> int:
    from . import decision

    res = decision.satisfiable(Not(_read_formula(args.formula)))
    _emit(res.to_dict(), args.pretty)
    return 0 if res.verdict == "unsat" else 1


def cmd_bisim(args) -> int:
    from . import equivalence

    m1 = kripke.model_from_dict(_load_json(args.model1))
    m2 = kripke.model_from_dict(_load_json(args.model2))
    same = equivalence.bisimilar(m1, args.state1, m2, args.state2)
    payload: dict[str, Any] = {"bisimilar": same}
    if args.distinguish and not same:
        f = equivalence.distinguishing_formula(m1, args.state1, m2, args.state2)
        if f is None:
            payload["distinguisher"] = None
        else:
            # never print an unchecked separator: what is printed is read
            # back, the text by the parser, since a proposition named true
            # prints as the constant, the DAG by the constructor the parser
            # ends in, and checked in the union, which declares both
            # vocabularies
            keys = _program(f)[0]  # kept on f, so the printer numbers f no more
            if _text_length(keys) <= _TEXT_CAP:
                shown = print_formula(f)
                g, what = parse_formula(shown), repr(shown)
            else:  # each key's class name, string fields and operand numbers, children first
                nodes = [[cls.__name__, list(fields), list(ks)] for cls, fields, ks in keys]
                shown = {"form": "dag", "nodes": nodes}
                g = _root([(_CLASSES[name], tuple(fields), tuple(ks)) for name, fields, ks in nodes])
                what = f"DAG of {len(nodes)} nodes"
            u = kripke.disjoint_union([m1, m2])
            here = kripke.check(u, f"0:{args.state1}", g).value
            there = kripke.check(u, f"1:{args.state2}", g).value
            if not here or there:
                raise LogicError(f"distinguisher {what} does not separate the two points")
            payload["distinguisher"] = shown
    _emit(payload, args.pretty)
    return 0 if same else 1


def cmd_translate(args) -> int:
    from . import neighborhood

    data = _load_json(args.model)
    if args.to == "nbhd":
        doc = neighborhood.nbhd_to_dict(neighborhood.kripke_to_nbhd(kripke.model_from_dict(data)))
        try:  # never write a document the neighborhood loader refuses
            neighborhood.nbhd_from_dict(doc)
        except ModelFormatError as exc:
            raise ModelFormatError(f"{args.model}: its neighborhood translation would not load: {exc}") from None
        _emit(doc, args.pretty)
    else:
        back = neighborhood.nbhd_to_kripke(neighborhood.nbhd_from_dict(data))
        _emit(kripke.model_to_dict(back), args.pretty)
    return 0


def cmd_validate(args) -> int:
    diags = kripke.validate_model(kripke.model_from_dict(_load_json(args.model)), args.mode)
    ok = not kripke.has_errors(diags)
    _emit({"mode": args.mode, "ok": ok, "diagnostics": _diag_payload(diags)}, args.pretty)
    return 0 if ok else 1


def cmd_random(args) -> int:
    m = kripke.random_model(
        states=args.states,
        agents=args.agents,
        names=args.names,
        props=args.props,
        edge_density=args.edge_density,
        naming_density=args.naming_density,
        mode=args.mode,
        seed=args.seed,
    )
    _emit(kripke.model_to_dict(m), args.pretty)
    return 0


def cmd_algebra(args) -> int:
    from . import neighborhood

    m = neighborhood.nbhd_from_dict(_load_json(args.model))
    diags = neighborhood.verify_algebra_equations(m)
    ok = not kripke.has_errors(diags)
    _emit({"ok": ok, "diagnostics": _diag_payload(diags)}, args.pretty)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _bounds(text: str) -> tuple[int, int]:
    try:
        raw_states, raw_agents = text.split(",")
        out = (int(raw_states), int(raw_agents))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --bounds STATES,AGENTS") from exc
    if out[0] < 1 or out[1] < 0:
        raise argparse.ArgumentTypeError("bounds must be at least 1 state and 0 agents")
    return out


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="namelogic",
        description="model checking, satisfiability, and bisimulation for "
        "epistemic logic with intensional group names",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(fn=fn)
        return p

    p = command("check", cmd_check, "evaluate a formula at a state of a model")
    p.add_argument("--model", required=True, help="path to a model JSON file")
    p.add_argument("--state", required=True, help="state id to evaluate at")
    p.add_argument("--formula", required=True, help="formula text, or - for stdin")

    p = command("sat", cmd_sat, "decide satisfiability of a formula")
    p.add_argument("--formula", required=True, help="formula text, or - for stdin")
    p.add_argument("--bounds", type=_bounds, help="STATES,AGENTS bounds for --oracle")
    p.add_argument("--oracle", action="store_true", help="bounded model search instead of the decision procedure")

    p = command("valid", cmd_valid, "decide validity of a formula")
    p.add_argument("--formula", required=True, help="formula text, or - for stdin")

    p = command("bisim", cmd_bisim, "test two pointed models for bisimilarity")
    p.add_argument("--model1", required=True)
    p.add_argument("--state1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--state2", required=True)
    p.add_argument("--distinguish", action="store_true", help="print a re-verified distinguishing formula when not bisimilar")

    p = command("translate", cmd_translate, "convert between relational and neighborhood models")
    p.add_argument("--model", required=True, help="path to the source model JSON file")
    p.add_argument("--to", required=True, choices=("nbhd", "kripke"))

    p = command("validate", cmd_validate, "run well-formedness diagnostics on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="lenient", choices=("lenient", "strict", "epistemic"))

    p = command("random", cmd_random, "generate a seeded random model")
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--names", type=int, default=2)
    p.add_argument("--props", type=int, default=2)
    p.add_argument("--edge-density", type=float, default=0.3)
    p.add_argument("--naming-density", type=float, default=0.4)
    p.add_argument("--mode", default="general", choices=("general", "epistemic"))
    p.add_argument("--seed", type=int, default=0)

    p = command("algebra", cmd_algebra, "check the complex-algebra equations of a neighborhood model")
    p.add_argument("--model", required=True, help="path to a neighborhood model JSON file")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # some argparse versions strip the "--" of --opt=--, leaving []
            setattr(args, name, "--")
    try:
        return args.fn(args)
    except (LogicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
