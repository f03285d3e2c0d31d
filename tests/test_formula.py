import copy
import json
import pickle
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import (
    closure_members,
    desugar,
    reference_closure,
    reference_desugar,
    reference_equal,
    reference_modal_depth,
    reference_print,
    reference_symbols,
    refuse_node_builds,
    subformulas,
)

from namelogic import formula, kripke, neighborhood
from namelogic.errors import ParseError, UnsupportedFragmentError
from namelogic.formula import (
    And,
    B,
    Bot,
    C,
    D,
    E,
    FALSE,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Prop,
    S,
    TRUE,
    Top,
    _REPR_CAP,
    _Binary,
    _Modal,
    _build,
    _desugar,
    _keys,
    _numbering,
    _text_length,
    _program,
    agents_in,
    closure,
    modal_depth,
    names_in,
    parse_formula,
    print_formula,
    props_in,
    walk,
)

p, q, r = Prop("p"), Prop("q"), Prop("r")


# ---------------------------------------------------------------------------
# Parsing

def test_parse_atom():
    assert parse_formula("p") == p


def test_parse_constants():
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_parse_someone_and_not_everyone():
    assert parse_formula("S[n] p & !E[n] p") == And(S("n", p), Not(E("n", p)))


def test_parse_common_knowledge_disjunction():
    assert parse_formula("C[n] (p | q)") == C("n", Or(p, q))


def test_parse_relativized_modality():
    assert parse_formula("B[a;n] (p -> q)") == B("a", "n", Implies(p, q))


def test_implication_is_right_associative():
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))


def test_iff_is_right_associative():
    assert parse_formula("p <-> q <-> r") == Iff(p, Iff(q, r))


def test_precedence_ladder():
    # <-> below -> below | below & below unary
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p | q -> r") == Implies(Or(p, q), r)
    assert parse_formula("p -> q <-> r") == Iff(Implies(p, q), r)
    assert parse_formula("!p & q") == And(Not(p), q)


def test_modalities_bind_their_immediate_argument():
    assert parse_formula("E[n] p & q") == And(E("n", p), q)
    assert parse_formula("S[m] S[m] q") == S("m", S("m", q))
    assert parse_formula("!E[n] p") == Not(E("n", p))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p &")
    assert exc.value.line == 1
    assert exc.value.column == 4


def test_unknown_token_rejected():
    with pytest.raises(ParseError):
        parse_formula("p @ q")


def test_unclosed_paren_rejected():
    with pytest.raises(ParseError):
        parse_formula("(p")


def test_uppercase_atom_rejected():
    with pytest.raises(ParseError):
        parse_formula("P")


def test_modal_without_bracket_is_not_an_atom():
    with pytest.raises(ParseError):
        parse_formula("E p")


# (text, (message, line, column)) for rejected texts, (text, printed) for
# accepted ones; recorded from the character-at-a-time tokenizer that the
# regular-expression one replaced.
PINNED_PARSES = [
    ("p @ q", ("unknown token '@'", 1, 3)),
    ("p &\n\tq @ r", ("unknown token '@'", 2, 4)),
    ("p\n\t& (q\n\t\t| ", ("expected a formula, got 'end of input'", 3, 5)),
    ("(p & q", ("expected ')', got 'end of input'", 1, 7)),
    ("p & q)", ("unexpected ')'", 1, 6)),
    ("E[n p", ("expected ']', got 'p'", 1, 5)),
    ("B[a n] p", ("expected ';', got 'n'", 1, 5)),
    ("B[a;n p", ("expected ']', got 'p'", 1, 7)),
    ("S[] p", ("expected identifier, got ']'", 1, 3)),
    ("P", ("propositions are lowercase identifiers, got 'P'", 1, 1)),
    ("p &", ("expected a formula, got 'end of input'", 1, 4)),
    ("", ("expected a formula, got 'end of input'", 1, 1)),
    (" \t\n  ", ("expected a formula, got 'end of input'", 2, 3)),
    ("!(", ("expected a formula, got 'end of input'", 1, 3)),
    ("p q", ("unexpected 'q'", 1, 3)),
    ("p <- q", ("unknown token '<'", 1, 3)),
    ("E p", ("propositions are lowercase identifiers, got 'E'", 1, 1)),
    ("1p", ("unknown token '1'", 1, 1)),
    ("\u00b2p", ("unknown token '\u00b2'", 1, 1)),
    ("p\r\n& $", ("unknown token '$'", 2, 3)),
    ("\u00c9lan", ("propositions are lowercase identifiers, got '\u00c9lan'", 1, 1)),
    ("p & \uff08q\uff09", ("unknown token '\uff08'", 1, 5)),
    ("C[n]", ("expected a formula, got 'end of input'", 1, 5)),
    ("p -> ", ("expected a formula, got 'end of input'", 1, 6)),
    ("p\u2028& @", ("unknown token '@'", 1, 5)),
    ("p\x0b\x0c& q\r\n\t@", ("unknown token '@'", 2, 2)),
    ("p \t", "p"),
    ("p\n  ", "p"),
    ("\u3000p\xa0&\u2028q", "p & q"),
    ("\u00f1 & q_1", "\u00f1 & q_1"),
    ("E[n] \u00f6 <-> B[a;n] \u043f\u0440", "E[n] \u00f6 <-> B[a;n] \u043f\u0440"),
    # the edges of the parser's operator stack, recorded from the recursive
    # descent parser that the explicit-stack one replaced
    ("((p)", ("expected ')', got 'end of input'", 1, 5)),
    ("(p))", ("unexpected ')'", 1, 4)),
    ("!)", ("expected a formula, got ')'", 1, 2)),
    ("E[n] )", ("expected a formula, got ')'", 1, 6)),
    ("(p q)", ("expected ')', got 'q'", 1, 4)),
    ("p !q", ("unexpected '!'", 1, 3)),
    ("E[true] p", ("expected identifier, got 'true'", 1, 3)),
    ("B[a;true] p", ("expected identifier, got 'true'", 1, 5)),
    ("E[n] E p", ("propositions are lowercase identifiers, got 'E'", 1, 6)),
    ("((p -> q) & r", ("expected ')', got 'end of input'", 1, 14)),
    ("a | b & c -> d <-> e", "a | b & c -> d <-> e"),
    ("!E[n] (p -> q) -> r", "!E[n] (p -> q) -> r"),
    ("(a -> b) -> c", "(a -> b) -> c"),
    ("((((p))))", "p"),
    # repeated atoms, constants and heads, recorded before the parser
    # memoised atoms
    ("p p", ("unexpected 'p'", 1, 3)),
    ("(p & q) p", ("unexpected 'p'", 1, 9)),
    ("p & p & P", ("propositions are lowercase identifiers, got 'P'", 1, 9)),
    ("q & !q & E[n]", ("expected a formula, got 'end of input'", 1, 14)),
    ("true & true | false & false", "true & true | false & false"),
    ("E[n] p & E[n] p", "E[n] p & E[n] p"),
    ("B[a;n] p -> B[a;n] p", "B[a;n] p -> B[a;n] p"),
]


@pytest.mark.parametrize("text, expected", PINNED_PARSES)
def test_parse_outcomes_are_pinned(text, expected):
    if isinstance(expected, str):
        assert print_formula(parse_formula(text)) == expected
        return
    message, line, column = expected
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{line}:{column}: {message}",
        line,
        column,
    )


# ---------------------------------------------------------------------------
# Printing

def test_print_examples():
    assert print_formula(S("n", p)) == "S[n] p"
    assert print_formula(Not(E("n", p))) == "!E[n] p"
    assert print_formula(D("n", And(p, q))) == "D[n] (p & q)"
    assert print_formula(B("a", "n", p)) == "B[a;n] p"


def test_print_respects_associativity():
    assert print_formula(And(And(p, q), r)) == "p & q & r"
    assert print_formula(And(p, And(q, r))) == "p & (q & r)"
    assert print_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
    assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"


def _formulas(names=("n", "m"), props=("p", "q"), agents=("a", "b")):
    leaves = [st.sampled_from([Prop(x) for x in props] + [TRUE, FALSE])]

    def extend(children):
        name = st.sampled_from(names)
        agent = st.sampled_from(agents)
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            st.builds(E, name, children),
            st.builds(S, name, children),
            st.builds(C, name, children),
            st.builds(D, name, children),
            st.builds(B, agent, name, children),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=12)


@given(_formulas())
def test_print_parse_roundtrip(f):
    assert parse_formula(print_formula(f)) == f


@given(_formulas())
def test_desugar_is_idempotent(f):
    core = desugar(f)
    assert _desugar(_keys(core)).keys == _keys(core)  # a formula in the core is numbered as it is
    assert desugar(core) == core


def test_desugared_conjuncts_are_one_node():
    core = desugar(parse_formula("(p | q) & !(!p & !q)"))
    assert core.left is core.right
    core = desugar(And(Iff(p, q), E("n", Implies(p, q))))
    assert core.left.left is core.right.arg


@given(_formulas())
def test_desugared_equal_subterms_are_one_node(f):
    core = desugar(parse_formula(print_formula(f)))
    one: dict[Formula, Formula] = {}
    for x in walk(core):
        assert one.setdefault(x, x) is x


def test_a_parsed_query_is_numbered_from_its_keys():
    # closure desugars a parsed root's program as it stands: its operands
    # are never read and no node is built, and a formula in the core keeps
    # its keys.  A root built in code is
    # numbered by a walk that reads its operands, and a parsed operand is
    # numbered from its keys, its operands still unbuilt
    g, h = parse_formula("S[n] (p & !E[m] q) & C[n] !(p & !E[m] q)"), parse_formula("p -> E[n] q")
    read = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (Not, _Binary, _Modal):
            mp.setattr(cls, "_kids", lambda self, kids=cls._kids: read.append(self) or kids(self))
        with pytest.MonkeyPatch.context() as no_build:
            refuse_node_builds(no_build)
            cl = closure(g)
        assert read == []
        closure(w := Not(h))
    assert {id(x) for x in read} == {id(w), id(h)}
    with pytest.raises(AttributeError):
        h._kids()
    assert cl.keys[:cl.root + 1] == tuple(_keys(g))


@given(_formulas())
def test_desugar_removes_sugar(f):
    assert not any(isinstance(g, (Or, Implies, Iff)) for g in subformulas(f))


@given(_formulas())
def test_folds_match_the_recursive_definitions(f):
    assert print_formula(f) == reference_print(f)
    assert desugar(f) == reference_desugar(f)
    assert modal_depth(f) == reference_modal_depth(f)
    assert frozenset(_build(_desugar(_keys(f)).keys)) == subformulas(f)


FIGURE = Path(__file__).resolve().parent.parent / "figure1.json"


def test_dag_shaped_formula_is_read_once_per_shared_subterm():
    # f_{k+1} = f_k & f_k, 40 levels: 41 distinct nodes, 2^40 as a tree
    m = kripke.model_from_dict(json.loads(FIGURE.read_text()))
    base = Implies(S("n", p), E("m", q))
    f = base
    for _ in range(40):
        f = And(f, f)
    assert modal_depth(f) == 1
    assert len(_desugar(_keys(f)).keys) == len(subformulas(base)) + 40
    assert names_in(f) == frozenset({"n", "m"})
    assert len(closure(f)) == len(closure(base)) + 2 * 40
    assert kripke.extension(m, f) == kripke.extension(m, base)
    nb = neighborhood.kripke_to_nbhd(m)
    assert neighborhood.extension_nbhd(nb, f) == neighborhood.extension_nbhd(nb, base)


def _twice_over(levels: int = 40) -> Formula:
    """f_{k+1} = f_k & f_k over p -> S[n] q: 4 + levels distinct nodes,
    built afresh on each call."""
    f = Implies(Prop("p"), S("n", Prop("q")))
    for _ in range(levels):
        f = And(f, f)
    return f


class _Compared(Exception):
    pass


def _refused(self, other):
    raise _Compared


@given(_formulas())
def test_numbering_never_compares_formulas(f):
    # every numbering knows a subterm by its class, fields and operand
    # numbers, so equal subterms built apart get one number uncompared; a
    # failure reports no traceback, whose frames would print the DAG as a
    # tree
    a, b = _twice_over(), _twice_over()
    g = _rebuild(f)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Formula, "__eq__", _refused)
            keys = _numbering(a, b)
            one_number = len(keys) == 44 and keys == _numbering(a) == _numbering(b)
            one_each = len(_numbering(f, g)) == len(_numbering(f))
            assert print_formula(S("n", And(Prop("p"), Prop("p")))) == "S[n] (p & p)"
            text = print_formula(f)
            assert print_formula(parse_formula(text)) == text == print_formula(g)
            agree = []
            for h in (a, f, g):
                core = desugar(h)
                size = len(_keys(core))
                agree += [len(_desugar(_keys(h)).keys) == size, len(_program(h)[0]) == len(_numbering(h))]
                try:
                    cl = closure(h)
                except UnsupportedFragmentError:
                    continue
                agree.append(len(_numbering(closure_members(cl)[cl.root], core)) == size)
            depth = modal_depth(a)
    except _Compared:
        pytest.fail("two formulas were compared", pytrace=False)
    assert one_number  # a and b: 44 nodes in all
    assert one_each
    assert all(agree)
    assert depth == 1


_CHAIN = 10_000


def _constructed_chain(kind: str):
    """A chain of _CHAIN levels, built by the constructors, with its text,
    modal depth, number of desugared subterms and an equivalent small formula."""
    f, text = p, "p"
    for _ in range(_CHAIN):
        if kind == "!":
            f, text = Not(f), "!" + text
        elif kind == "E":
            f, text = E("n", f), "E[n] " + text
        elif kind == "B":
            f, text = B("a", "n", f), "B[a;n] " + text
        elif kind == "&":
            f, text = And(q, f), f"q & ({text})" if isinstance(f, And) else f"q & {text}"
        else:
            f, text = Implies(q, f), "q -> " + text
    return f, text, {
        "!": (0, _CHAIN + 1, p),
        "E": (_CHAIN, _CHAIN + 1, None),
        "B": (_CHAIN, _CHAIN + 1, None),
        "&": (0, _CHAIN + 2, And(q, p)),
        "->": (0, 3 * _CHAIN + 2, Implies(q, p)),
    }[kind]


@pytest.mark.parametrize("kind", ["!", "E", "B", "&", "->"])
def test_constructed_deep_chains_are_read_without_recursion(kind):
    m = kripke.model_from_dict(json.loads(FIGURE.read_text()))
    f, text, (depth, size, same) = _constructed_chain(kind)
    assert print_formula(f) == text
    assert parse_formula(text) == f
    assert modal_depth(f) == depth
    core = desugar(f)
    assert len(_keys(core)) == size
    assert names_in(f) == (frozenset({"n"}) if kind in "EB" else frozenset())
    assert names_in(core) == names_in(f)
    ext = kripke.extension(m, f)
    assert ext <= m.states
    if same is not None:
        assert ext == kripke.extension(m, same)


# ---------------------------------------------------------------------------
# Nodes: cached hashes, lazy symbol sets, immutability


def _rebuild(f):
    """A fresh copy of f, built node by node through the public constructors."""
    args = [_rebuild(x) if isinstance(x, Formula) else x for x in
            (getattr(f, field) for field in type(f).__match_args__)]
    return type(f)(*args)


@given(_formulas(names=("n", "m", "k"), props=("p", "q", "r"), agents=("a", "b", "c")))
def test_symbol_sets_match_the_walk(f):
    names, props, agents = reference_symbols(f)
    assert names_in(f) == names
    assert props_in(f) == props
    assert agents_in(f) == agents
    for g in walk(f):  # every subterm was filled on the way, and correctly
        assert (names_in(g), props_in(g), agents_in(g)) == reference_symbols(g)


def test_operands_are_properties_and_no_class_has_getattr():
    # a class that defines __getattr__ puts every attribute read on its
    # nodes on CPython's slower lookup; a parsed root builds its operands
    # in the operand properties instead, all of them on the first read
    assert not [c for cls in formula._CLASSES.values() for c in cls.__mro__ if "__getattr__" in vars(c)]
    text = "S[n] (p & !E[m] q) & C[n] !(p & !E[m] q)"
    g = parse_formula(text)
    unfolded = []
    unfold = formula._unfold
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formula, "_unfold", lambda f: unfolded.append(id(f)) or unfold(f))
        g.left, g.right
    assert unfolded == [id(g)]
    f = And(S("n", And(p, Not(E("m", q)))), C("n", Not(And(p, Not(E("m", q))))))
    with pytest.MonkeyPatch.context() as no_build:
        refuse_node_builds(no_build)
        assert hash(Not(parse_formula(text))) == hash(Not(f))


@given(_formulas())
def test_rebuilt_formula_is_equal_with_equal_hash(f):
    g = _rebuild(f)
    assert g is not f
    assert g == f and not g != f
    assert hash(g) == hash(f)
    assert {f: 1}[g] == 1
    assert print_formula(g) == print_formula(f)


@given(_formulas())
def test_compiled_program_is_kept_without_changing_the_node(f):
    before = (hash(f), repr(f), pickle.dumps(f))
    prog = _program(f)
    assert _program(f) == prog  # read back from the node
    assert _program(_rebuild(f)) == prog
    assert (hash(f), repr(f), pickle.dumps(f)) == before
    assert pickle.loads(pickle.dumps(f)) == f


def test_kept_program_holds_no_reference_to_its_formula():
    # a program that held its root would make a cycle, and no formula asked
    # about would be freed by reference counting
    f = parse_formula("E[n] (p & S[m] q) | B[a;n] C[n] !p")
    before = sys.getrefcount(f)
    prog = _program(f)
    assert sys.getrefcount(f) == before
    assert _program(f) is prog
    assert prog[0] == _numbering(f)
    assert prog[0][-1] == (Or, (), (4, 7))  # the last key is f's


@given(_formulas())
def test_kept_program_holds_only_classes_strings_and_ints(f):
    for g in (f, parse_formula(print_formula(f))):
        stack = list(_program(g))
        while stack:
            x = stack.pop()
            if isinstance(x, (tuple, list, frozenset)):
                stack += x
            else:
                assert isinstance(x, (type, str, int)), x


@given(_formulas())
def test_parsed_formula_comes_with_its_numbering(f):
    g = parse_formula(print_formula(f))
    prog = g._prog  # kept by the parser, before any query
    assert _program(g) is prog
    keys = _numbering(f)
    assert prog[0] == keys  # key for key: class, fields, operand numbers
    assert _numbering(g) == keys
    assert prog[1:] == _program(f)[1:]
    assert not any(isinstance(x, Formula) for key in prog[0] for x in key)
    one: dict[Formula, Formula] = {}
    for x in walk(g):  # equal subterms are one node
        assert one.setdefault(x, x) is x


def test_parser_shares_equal_subterms():
    g = parse_formula("E[n] p & E[n] p")
    assert g.left is g.right
    g = parse_formula("(p -> q) | !(p -> q) & B[a;n] (p -> q)")
    assert g.left is g.right.left.arg is g.right.right.arg
    assert parse_formula("true & !true").left is TRUE


@given(_formulas())
def test_nodes_are_immutable(f):
    for g in walk(f):
        for field in type(g).__match_args__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(g, field, TRUE)
        for field in type(g).__match_args__:
            with pytest.raises(AttributeError):
                delattr(g, field)
    assert parse_formula(print_formula(f)) == f


def test_equality_distinguishes_kind_and_fields():
    assert E("n", p) != S("n", p)
    assert hash(E("n", p)) != hash(S("n", p))  # the hash mixes in the class
    assert hash(And(p, q)) != hash(Or(p, q)) and hash(TRUE) != hash(FALSE)
    assert E("n", p) != E("m", p)
    assert B("a", "n", p) != B("b", "n", p)
    assert And(p, q) != And(q, p)
    assert Prop("p") != "p" and TRUE != FALSE and TRUE == Top()


# classes of one shape, which a one-field change may swap
_SIBLINGS = [(And, Or, Implies, Iff), (E, S, C, D), (Top, Bot)]
_POOLS = {"name": ("n", "m", "k"), "agent": ("a", "b", "c")}


def _one_field_changed(f: Formula, at: int, draw) -> Formula:
    """A copy of f whose at-th subterm other than a negation, in a preorder
    walk, has one field changed: a name, a proposition, an agent, or its
    class for another of the same shape.  Every other node is rebuilt
    unchanged."""
    seen = -1

    def copy(g):
        nonlocal seen
        seen += not isinstance(g, Not)
        here = seen == at and not isinstance(g, Not)
        args = [copy(x) if isinstance(x, Formula) else x for x in
                (getattr(g, field) for field in type(g).__match_args__)]
        cls = type(g)
        if here:
            siblings = next((c for c in _SIBLINGS if cls in c), ())
            choices = [i for i, x in enumerate(args) if isinstance(x, str)]
            choices += ["class"] if siblings else []
            choice = draw(st.sampled_from(choices))
            if choice == "class":
                cls = draw(st.sampled_from([c for c in siblings if c is not cls]))
            else:
                field = type(g).__match_args__[choice]
                pool = ("p", "q", "r") if cls is Prop else _POOLS[field]
                args[choice] = draw(st.sampled_from([x for x in pool if x != args[choice]]))
        return cls(*args)

    return copy(f)


@given(_formulas(), _formulas(), st.data())
def test_equality_is_the_structural_definition(f, g, data):
    at = data.draw(st.integers(0, sum(not isinstance(x, Not) for x in walk(f)) - 1))
    changed = _one_field_changed(f, at, data.draw)
    assert not reference_equal(f, changed)
    parsed = parse_formula(print_formula(f))  # compares by its kept program
    for x, y in ((f, g), (f, _rebuild(f)), (f, changed), (changed, f), (parsed, f),
                 (parsed, changed), (changed, parsed), (parsed, g)):
        same = reference_equal(x, y)
        assert (x == y) == same and (x != y) == (not same)
        # unequal formulas seldom share a hash, so the key lists, which
        # == compares when the hashes agree, are checked on their own
        assert (_keys(x) == _keys(y)) == same
        if same:
            assert hash(x) == hash(y)
    Formula._hash.__set__(changed, hash(f))  # == decides by the keys, not by the hash
    assert f != changed and changed != f


def _chain(kind: str, depth: int, leaf: Formula) -> Formula:
    f = leaf
    for i in range(depth):
        if kind == "not":
            f = Not(f)
        elif kind == "and":
            f = And(f, Prop(f"p{i % 3}"))
        else:
            f = E(f"n{i % 2}", f)
    return f


@pytest.mark.parametrize("kind", ["not", "and", "E"])
def test_deep_chains_hash_compare_and_report_symbols(kind):
    f = _chain(kind, 3000, Prop("q"))
    g = _chain(kind, 3000, Prop("q"))
    h = _chain(kind, 3000, Prop("r"))
    assert f is not g
    assert hash(f) == hash(g)
    assert f == g and not f != g
    assert f != h  # unequal at the innermost leaf only
    assert {f: 0}[g] == 0
    expected_props = {"q"} | ({"p0", "p1", "p2"} if kind == "and" else set())
    assert props_in(f) == frozenset(expected_props)
    assert names_in(f) == (frozenset({"n0", "n1"}) if kind == "E" else frozenset())
    assert agents_in(f) == frozenset()


def _check_workload_deep_input(kind: str, levels: int) -> tuple[str, Formula]:
    """A deep input of the benchmark's check workload, as text and built in
    code: a conjunction inside that many parentheses, a ! chain, an E chain
    over two names, or a & chain of levels + 1 terms."""
    f = p
    if kind == "paren":
        return "(" * levels + "p & q" + ")" * levels, And(p, q)
    if kind == "not":
        for _ in range(levels):
            f = Not(f)
        return "!" * levels + "p", f
    if kind == "E":
        for i in range(levels):
            f = E("nm"[i % 2], f)
        return "".join(f"E[{'nm'[i % 2]}] " for i in reversed(range(levels))) + "p", f
    for i in range(1, levels + 1):
        f = And(f, (p, q)[i % 2])
    return " & ".join("pq"[i % 2] for i in range(levels + 1)), f


@pytest.mark.parametrize("kind", ["paren", "not", "E", "and"])
def test_deep_inputs_of_the_check_workload_parse(kind):
    ms = [kripke.model_from_dict(json.loads(FIGURE.read_text())) for _ in range(2)]
    for levels in (240, 900, 3000):
        text, g = _check_workload_deep_input(kind, levels)
        f = parse_formula(text)
        assert f == g
        for w in sorted(ms[0].states):  # two models, so neither reads the other's memo
            assert kripke.check(ms[0], w, f).value == kripke.check(ms[1], w, g).value


def _hash_refused(self):
    raise _Compared


@pytest.mark.parametrize("kind", ["paren", "not", "E", "and"])
def test_parsing_never_hashes_or_compares_formulas(kind):
    # a node hashes its operands' cached hashes and the table knows a
    # subterm by its key, so a parse calls neither Formula.__hash__ nor
    # Formula.__eq__; a failure reports no traceback, whose frames would
    # print the formulas
    text, _ = _check_workload_deep_input(kind, 3000)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Formula, "__hash__", _hash_refused)
            mp.setattr(Formula, "__eq__", _refused)
            f = parse_formula(text)
            g = parse_formula("B[a;n] (p & E[m] !q) -> S[n] C[m] D[n] true | false <-> p")
            symbols = (names_in(f), props_in(f), names_in(g), agents_in(g))
    except _Compared:
        pytest.fail("a parse hashed or compared a formula", pytrace=False)
    assert symbols[0] == (frozenset("nm") if kind == "E" else frozenset())
    assert symbols[1] == (frozenset("p") if kind in ("not", "E") else frozenset("pq"))
    assert symbols[2:] == (frozenset("nm"), frozenset("a"))


def _operand_refused(self):
    raise _Compared


@pytest.mark.parametrize("kind", ["not", "E", "and"])
def test_parsed_formulas_compare_without_reading_an_operand(kind):
    # a parsed formula carries its program, so == compares two key lists
    # and reads no operand slot; a failure reports no traceback, whose
    # frames would print the formulas
    text, _ = _check_workload_deep_input(kind, 3000)
    f, g, h = parse_formula(text), parse_formula(text), parse_formula(text + " & q")
    refused = property(_operand_refused)
    try:
        with pytest.MonkeyPatch.context() as mp:
            for cls, field in ((Not, "arg"), (_Modal, "arg"), (B, "arg"),
                               (_Binary, "left"), (_Binary, "right")):
                mp.setattr(cls, field, refused)
            outcomes = [f == g, g == f, {f: 0}.get(g), f != h, f == h]
    except _Compared:
        pytest.fail("an operand slot was read", pytrace=False)
    assert outcomes == [True, True, 0, True, False]


@pytest.mark.parametrize("kind", ["paren", "not", "E", "and"])
def test_deep_chains_pickle_and_copy_without_recursion(kind):
    # a formula reduces to its flat key list, so neither pickle nor
    # deepcopy recurses through the operands
    text, g = _check_workload_deep_input(kind, 3000)
    for f in (parse_formula(text), g):
        for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert back == f and hash(back) == hash(f)
            assert print_formula(back) == (text.strip("()") if kind == "paren" else text)


@given(_formulas())
def test_parsed_and_code_built_formulas_agree(f):
    g = parse_formula(print_formula(f))
    if f._kids():  # nothing read yet: the operands are still keys
        with pytest.raises(AttributeError):
            g._kids()
    assert g == f and f == g and hash(g) == hash(f) and repr(g) == repr(f)
    for h in (g, f):
        for back in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
            assert back == f and hash(back) == hash(f) and back.__class__ is f.__class__
    assert _text_length(_keys(g)) == _text_length(_keys(f)) == len(print_formula(f))
    # numbered before or after another root, as a code-built one is
    text = print_formula(f)
    assert _numbering(parse_formula(text), q) == _numbering(f, q)
    assert _numbering(q, parse_formula(text)) == _numbering(q, f)
    # and from its keys alone, as an operand of a root built in code
    first, later = parse_formula(text), parse_formula(text)
    with pytest.MonkeyPatch.context() as no_build:
        refuse_node_builds(no_build)
        assert _keys(Not(first)) == _keys(Not(f))
        assert _keys(And(q, later)) == _keys(And(q, f))
    # every field, node for node, and equal subterms of g are one node
    one: dict[Formula, Formula] = {}
    pairs = [(g, f)]
    while pairs:
        x, y = pairs.pop()
        assert x.__class__ is y.__class__ and x == y and hash(x) == hash(y)
        assert one.setdefault(x, x) is x
        for field in type(y).__match_args__:
            a, b = getattr(x, field), getattr(y, field)
            if isinstance(b, Formula):
                pairs.append((a, b))
            else:
                assert a == b


def test_comparing_subterms_built_in_code_keeps_no_program():
    # a formula without a program is compared through a numbering that is
    # not kept: a program on every subterm of a chain would cost memory
    # quadratic in its length
    f, g = _chain("E", 1000, Prop("q")), _chain("E", 1000, Prop("q"))
    pairs = list(zip(walk(f), walk(g)))
    assert all([x == y for x, y in pairs])
    assert not any([hasattr(x, "_prog") or hasattr(y, "_prog") for x, y in pairs])


def _doubling_dag(base: Formula, levels: int) -> Formula:
    """f_{k+1} = f_k & f_k: levels + 1 distinct nodes, 2^levels leaves as a tree."""
    f = base
    for _ in range(levels):
        f = And(f, f)
    return f


def test_separately_built_dags_compare_and_look_each_other_up_promptly():
    f = _doubling_dag(S("n", Prop("p")), 40)
    g = _doubling_dag(S("n", Prop("p")), 40)
    h = _doubling_dag(S("n", Prop("q")), 40)
    start = time.perf_counter()
    assert f is not g
    assert f == g and g == f
    assert {f: 0}[g] == 0 and {g: 1}[f] == 1
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert f != h and h != f  # unequal in the base proposition only
    assert h not in {f: 0}
    assert time.perf_counter() - start < 0.5


def _reference_repr(f) -> str:
    """The field-by-field repr, recursing through the operands."""
    if not isinstance(f, Formula):
        return repr(f)
    fields = ", ".join(f"{a}={_reference_repr(getattr(f, a))}" for a in f.__match_args__)
    return f"{type(f).__qualname__}({fields})"


def test_repr_of_a_small_formula_is_spelled_out():
    f = parse_formula("B[a;n] (S[n] p | !true) <-> E[m] false")
    assert repr(f) == (
        "Iff(left=B(agent='a', name='n', arg=Or(left=S(name='n', arg=Prop(name='p')),"
        " right=Not(arg=Top()))), right=E(name='m', arg=Bot()))"
    )


@given(_formulas())
def test_repr_is_the_field_by_field_text(f):
    assert repr(f) == _reference_repr(f)


def test_repr_is_written_out_up_to_its_cap():
    # each Not(arg=...) adds 9 characters to the 14 of Prop(name='p')
    levels = (_REPR_CAP - 14) // 9
    f = p
    for _ in range(levels):
        f = Not(f)
    assert repr(f) == "Not(arg=" * levels + "Prop(name='p')" + ")" * levels
    assert repr(Not(f)).startswith("<Not: repr abbreviated, ")


@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_repr_of_a_deep_or_shared_formula_is_abbreviated_promptly(shape):
    if shape == "chain":
        f, nodes = p, 10_001
        for _ in range(10_000):
            f = Not(f)
    else:
        f, nodes = _doubling_dag(S("n", Prop("p")), 40), 42
    start = time.perf_counter()
    text = repr(f)
    assert time.perf_counter() - start < 2.0
    assert text == (f"<{type(f).__qualname__}: repr abbreviated, longer than {_REPR_CAP}"
                    f" characters, {nodes} distinct nodes>")


# ---------------------------------------------------------------------------
# Subformulas and signature

def test_subformulas_of_core_conjunction():
    assert subformulas(And(p, q)) == frozenset({And(p, q), p, q})


def test_subformulas_include_modal_argument():
    assert subformulas(S("n", p)) == frozenset({S("n", p), p})


def test_signature_helpers():
    f = parse_formula("B[a;n] p & S[m] q")
    assert names_in(f) == frozenset({"n", "m"})
    assert props_in(f) == frozenset({"p", "q"})
    assert modal_depth(f) == 1
    assert modal_depth(parse_formula("S[n] S[n] S[n] p")) == 3
    assert modal_depth(p) == 0


# ---------------------------------------------------------------------------
# Closure

def test_closure_of_atom_has_no_modal_members():
    cl = closure(p)
    assert frozenset(closure_members(cl)) == frozenset({p, Not(p)})


def test_closure_of_someone_knows():
    # All members derivable by hand from the closure rules:
    # start S[n] p; subterms add p; seeds add S[n] true and E[n] false with
    # their subterms; E-weakening on E[n] false adds S[n] false; then single
    # negations of every non-negated member.
    positives = {
        S("n", p),
        p,
        S("n", TRUE),
        E("n", FALSE),
        S("n", FALSE),
        TRUE,
        FALSE,
    }
    expected = positives | {Not(g) for g in positives}
    cl = closure(S("n", p))
    assert frozenset(closure_members(cl)) == frozenset(expected)
    assert cl.names == frozenset({"n"})
    assert cl.props == frozenset({"p"})


def test_closure_of_common_knowledge_contains_unfolding():
    members = frozenset(closure_members(closure(C("n", p))))
    for member in (E("n", p), S("n", p), E("n", C("n", p))):
        assert member in members
        assert Not(member) in members


def test_closure_members_are_negation_paired():
    for chi in (S("n", p), C("n", Or(p, q)), parse_formula("S[n] p -> E[m] q")):
        members = frozenset(closure_members(closure(chi)))
        for g in members:
            if isinstance(g, Not):
                assert g.arg in members
            else:
                assert Not(g) in members


def test_closure_is_closed():
    for chi in (S("n", p), C("n", Or(p, q)), parse_formula("!(S[n] p & !p)")):
        members = frozenset(closure_members(closure(chi)))
        for member in members:
            assert frozenset(closure_members(closure(member))) <= members


def test_closure_rejects_distributed_and_relativized():
    with pytest.raises(UnsupportedFragmentError):
        closure(D("n", p))
    with pytest.raises(UnsupportedFragmentError):
        closure(B("a", "n", p))


@given(_formulas())
def test_closure_numbers_the_reference_members(f):
    try:
        want = reference_closure(f)
    except UnsupportedFragmentError as exc:
        with pytest.raises(UnsupportedFragmentError) as got:
            closure(f)
        assert str(got.value) == str(exc)
        return
    cl = closure(f)
    members = closure_members(cl)
    assert (frozenset(members), cl.names, cl.props) == want
    assert len(cl) == len(cl.keys) == len(frozenset(members))  # one number each
    number = {g: k for k, g in enumerate(members)}
    for k, (g, (cls, fields, ks)) in enumerate(zip(members, cl.keys)):
        assert all(j < k for j in ks)  # children first
        assert ks == tuple(number[x] for x in g._kids())
        assert (cls, fields) == (g.__class__, g._fields())
    assert members[cl.root] == reference_desugar(f)


def test_closure_desugars_first():
    nodes = closure_members(closure(Implies(p, q)))
    assert And(p, Not(q)) in nodes
    assert not any(isinstance(g, (Or, Implies, Iff)) for g in nodes)
