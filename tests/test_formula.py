import pytest
from hypothesis import given, strategies as st

from helpers import reference_symbols

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
    agents_in,
    closure,
    desugar,
    modal_depth,
    names_in,
    parse_formula,
    print_formula,
    props_in,
    subformulas,
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
    assert desugar(core) == core


@given(_formulas())
def test_desugar_removes_sugar(f):
    assert not any(isinstance(g, (Or, Implies, Iff)) for g in subformulas(f))


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


@given(_formulas())
def test_rebuilt_formula_is_equal_with_equal_hash(f):
    g = _rebuild(f)
    assert g is not f
    assert g == f and not g != f
    assert hash(g) == hash(f)
    assert {f: 1}[g] == 1
    assert print_formula(g) == print_formula(f)


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
    assert hash(E("n", p)) == hash(S("n", p))  # the dataclass hash ignores the class
    assert E("n", p) != E("m", p)
    assert B("a", "n", p) != B("b", "n", p)
    assert And(p, q) != And(q, p)
    assert Prop("p") != "p" and TRUE != FALSE and TRUE == Top()


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
    assert cl.formulas == frozenset({p, Not(p)})


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
    assert cl.formulas == frozenset(expected)
    assert cl.names == frozenset({"n"})
    assert cl.props == frozenset({"p"})


def test_closure_of_common_knowledge_contains_unfolding():
    cl = closure(C("n", p))
    for member in (E("n", p), S("n", p), E("n", C("n", p))):
        assert member in cl
        assert Not(member) in cl


def test_closure_members_are_negation_paired():
    for chi in (S("n", p), C("n", Or(p, q)), parse_formula("S[n] p -> E[m] q")):
        cl = closure(chi)
        for g in cl:
            if isinstance(g, Not):
                assert g.arg in cl
            else:
                assert Not(g) in cl


def test_closure_is_closed():
    for chi in (S("n", p), C("n", Or(p, q)), parse_formula("!(S[n] p & !p)")):
        cl = closure(chi)
        for member in cl:
            assert closure(member).formulas <= cl.formulas


def test_closure_rejects_distributed_and_relativized():
    with pytest.raises(UnsupportedFragmentError):
        closure(D("n", p))
    with pytest.raises(UnsupportedFragmentError):
        closure(B("a", "n", p))


def test_closure_desugars_first():
    cl = closure(Implies(p, q))
    assert And(p, Not(q)) in cl
    assert not any(isinstance(g, (Or, Implies, Iff)) for g in cl)
