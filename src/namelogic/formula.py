"""Formulas of epistemic logic with group names.

The language has propositional atoms, the constants ``true``/``false``, the
usual connectives, and five naming modalities:

* ``E[n] f``  -- everyone currently named n knows f
* ``S[n] f``  -- someone currently named n knows f
* ``C[n] f``  -- f is common knowledge among those named n
* ``D[n] f``  -- f is distributed knowledge among a subgroup named n
* ``B[i;n] f`` -- agent i knows that f holds wherever i is named n

Concrete syntax, loosest to tightest: ``<->``, ``->``, ``|``, ``&``, then the
unary operators ``!`` and the modalities, which bind their immediate
argument.  ``->`` and ``<->`` associate to the right.  Atoms are lowercase
identifiers; ``true`` and ``false`` are reserved.

Nodes are immutable ``__slots__`` objects compared by structure.  Each node
computes its hash once, in ``__init__``, from its field tuple and its
children's cached hashes, mixed with a constant of its class, so that nodes
of different classes over the same fields (``E[n] f`` and ``S[n] f``) hash
apart, and a memo lookup never re-hashes the subtree.
``==`` walks both formulas with an explicit stack and pushes each pair of
nodes at most once, so neither hashing nor comparison recurses, and two
equal DAGs built apart compare in time linear in their distinct pairs of
nodes, not in their paths.

A formula is a DAG: equal subterms may be one shared node.  A numbering
lists the distinct subterms of one or more roots children first, each with
the numbers of its operands, and one builder, ``_Table``, makes every
numbering.  It knows a subterm by its class, its string fields and its
operand numbers, so equal subterms get one number and no two formulas are
ever compared: hash-consing (Filliatre & Conchon 2006) that lasts for one
numbering.  The parser numbers a text as it builds it, so equal subterms
of one text are one node, and the parsed formula comes with its numbering
kept, the same list ``_numbering`` would make; ``_numbering`` numbers
formulas built in code, reading each node once by its id.  Printing,
``modal_depth`` and the truth core are folds over a numbering, so only the
parser recurses, and each of them meets a shared subterm once; printing
reads the numbering a formula carries, if it has one.  ``desugar`` writes
its result into a table, building a node only for a subterm the table has
not met, so equal subterms of the result are one node when those of its
input are.  ``closure`` grows that same table by the seeds and every
member its rules add, each after its operands, and the decision
procedure's layout reads the numbering as it is, so a query is numbered
once.

A formula asked about in a model is numbered once: ``_program`` keeps its
numbering on the node, with the name, proposition and agent sets that
``names_in``/``props_in``/``agents_in`` read.  ``kripke._run`` and the
oracle's lane evaluator run that numbering as it is, dispatching on each
node's class.  There is no global intern table: a strong one would keep
every parsed formula alive, and a weak one costs a weakref per node.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterator

from .errors import ParseError, UnsupportedFragmentError


class Formula:
    """Base class for all formula nodes. Instances are immutable."""

    # _prog stays unset until _program fills it
    __slots__ = ("_hash", "_prog")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        # Operands are checked for class and hash before they are pushed,
        # and propositions compared on the spot.  A pair of nodes is pushed
        # at most once, so two equal DAGs compare in time linear in their
        # distinct pairs, not in their paths.
        stack = [(self, other)]
        pushed: set[tuple[int, int]] = set()
        while stack:
            a, b = stack.pop()
            for field in a.__match_args__:
                x, y = getattr(a, field), getattr(b, field)
                if x is y:
                    continue
                cls = x.__class__
                if cls is not y.__class__:
                    return False
                if cls is str:
                    if x != y:
                        return False
                elif x._hash != y._hash:
                    return False
                elif cls is Prop:
                    if x.name != y.name:
                        return False
                else:
                    pair = (id(x), id(y))
                    if pair not in pushed:
                        pushed.add(pair)
                        stack.append((x, y))
        return True

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        """Class(field=value, ...), with the operands spelled out.  The
        texts are folded over the numbering, children first, so nothing
        recurses, and once one is longer than _REPR_CAP, as a deep or much
        shared formula's soon is, the repr is an abbreviation that says so."""
        nodes, kids = (getattr(self, "_prog", None) or _numbering(self))[:2]
        texts: list[str] = []
        for g, ks in zip(nodes, kids):
            values = [*map(repr, g._fields()), *[texts[k] for k in ks]]
            fields = ", ".join([f"{a}={v}" for a, v in zip(g.__match_args__, values)])
            texts.append(f"{g.__class__.__qualname__}({fields})")
            if len(texts[-1]) > _REPR_CAP:
                return (f"<{self.__class__.__qualname__}: repr abbreviated, longer than"
                        f" {_REPR_CAP} characters, {len(nodes)} distinct nodes>")
        return texts[-1]

    def __str__(self) -> str:
        return print_formula(self)

    def _kids(self) -> tuple[Formula, ...]:
        return ()

    def _fields(self) -> tuple[str, ...]:
        return ()


# The longest Formula.__repr__ written out in full, in characters.
_REPR_CAP = 10_000

# Slot setters: __setattr__ refuses every assignment, so constructors write
# through the slot descriptors directly.
_set_hash = Formula._hash.__set__
_set_prog = Formula._prog.__set__


class Prop(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_prop_name(self, name)
        _set_hash(self, hash((name,)) ^ self._salt)

    def _fields(self) -> tuple[str, ...]:
        return (self.name,)


_set_prop_name = Prop.name.__set__


class _Constant(Formula):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, _NO_FIELDS_HASH ^ self._salt)


_NO_FIELDS_HASH = hash(())


class Top(_Constant):
    __slots__ = ()


class Bot(_Constant):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set_not_arg(self, arg)
        _set_hash(self, hash((arg,)) ^ self._salt)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)


_set_not_arg = Not.arg.__set__


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)) ^ self._salt)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.left, self.right)


_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("name", "arg")
    __match_args__ = ("name", "arg")

    def __init__(self, name: str, arg: Formula):
        _set_modal_name(self, name)
        _set_modal_arg(self, arg)
        _set_hash(self, hash((name, arg)) ^ self._salt)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)

    def _fields(self) -> tuple[str, ...]:
        return (self.name,)


_set_modal_name = _Modal.name.__set__
_set_modal_arg = _Modal.arg.__set__


class E(_Modal):
    __slots__ = ()


class S(_Modal):
    __slots__ = ()


class C(_Modal):
    __slots__ = ()


class D(_Modal):
    __slots__ = ()


class B(Formula):
    __slots__ = ("agent", "name", "arg")
    __match_args__ = ("agent", "name", "arg")

    def __init__(self, agent: str, name: str, arg: Formula):
        _set_b_agent(self, agent)
        _set_b_name(self, name)
        _set_b_arg(self, arg)
        _set_hash(self, hash((agent, name, arg)) ^ self._salt)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)

    def _fields(self) -> tuple[str, ...]:
        return (self.agent, self.name)


_set_b_agent = B.agent.__set__
_set_b_name = B.name.__set__
_set_b_arg = B.arg.__set__


# Each class's own constant, mixed into every node's hash: E[n] a and
# S[n] a, And and Or over the same operands, true and false, would share a
# hash otherwise, and every closure holds S[n] a beside E[n] a.
for _salt, _cls in enumerate((Prop, Top, Bot, Not, And, Or, Implies, Iff, E, S, C, D, B), 1):
    _cls._salt = _salt
del _salt, _cls

TRUE = Top()
FALSE = Bot()

_MODAL_HEADS = {"E": E, "S": S, "C": C, "D": D}


# ---------------------------------------------------------------------------
# Parsing

# A token is (kind, text, line, column).  Each match is a run of whitespace
# other than a line break (str.isspace), then one of: a line break,
# punctuation, a run of word characters (str.isalnum or "_"), or any other
# non-space character.  Only whitespace at the very end goes unmatched.
_TOKEN = re.compile(r"([^\S\n]*)(?:(\n)|(<->|->|[&|!()\[\];])|(\w+)|(\S))")

_PUNCT = {
    "<->": "IFF",
    "->": "IMPLIES",
    "&": "AND",
    "|": "OR",
    "!": "NOT",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ";": "SEMI",
}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    for space, newline, punct, word, other in _TOKEN.findall(text):
        pos += len(space)
        if newline:
            pos += 1
            line += 1
            line_start = pos
            continue
        column = pos - line_start + 1
        if punct:
            tokens.append((_PUNCT[punct], punct, line, column))
            pos += len(punct)
        elif word and (word[0].isalpha() or word[0] == "_"):
            kind = "CONST" if word in ("true", "false") else "IDENT"
            tokens.append((kind, word, line, column))
            pos += len(word)
        else:  # any other character, or a word starting with a digit
            raise ParseError(f"unknown token {(word or other)[0]!r}", line, column)
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Each grammar method returns the
    number that the parser's _Table gives the subterm it read, so equal
    subterms of the text are one node, listed children first, as
    _numbering lists them."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = _Table()
        self.node = self.table.node

    def peek_kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        got_kind, text, line, column = self.advance()
        if got_kind != kind:
            got = text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", line, column)
        return text

    def parse(self) -> Formula:
        self.iff()
        kind, text, line, column = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected {text!r}", line, column)
        # the root is built last: no proper subterm equals it
        nodes = self.table.nodes
        f = nodes[-1]
        _keep(nodes, self.table.kids)
        return f

    def iff(self) -> int:
        left = self.implies()
        if self.peek_kind() == "IFF":
            self.pos += 1
            return self.node(Iff, (), (left, self.iff()))
        return left

    def implies(self) -> int:
        left = self.disj()
        if self.peek_kind() == "IMPLIES":
            self.pos += 1
            return self.node(Implies, (), (left, self.implies()))
        return left

    def disj(self) -> int:
        k = self.conj()
        while self.peek_kind() == "OR":
            self.pos += 1
            k = self.node(Or, (), (k, self.conj()))
        return k

    def conj(self) -> int:
        k = self.unary()
        while self.peek_kind() == "AND":
            self.pos += 1
            k = self.node(And, (), (k, self.unary()))
        return k

    def unary(self) -> int:
        kind, text, _, _ = self.tokens[self.pos]
        if kind == "NOT":
            self.pos += 1
            return self.node(Not, (), (self.unary(),))
        if kind == "IDENT" and text in ("E", "S", "C", "D", "B"):
            if self.tokens[self.pos + 1][0] == "LBRACK":
                return self.modality()
        return self.primary()

    def modality(self) -> int:
        head = self.advance()[1]
        self.expect("LBRACK", "'['")
        first = self.expect("IDENT", "identifier")
        if head == "B":
            self.expect("SEMI", "';'")
            name = self.expect("IDENT", "identifier")
            self.expect("RBRACK", "']'")
            return self.node(B, (first, name), (self.unary(),))
        self.expect("RBRACK", "']'")
        return self.node(_MODAL_HEADS[head], (first,), (self.unary(),))

    def primary(self) -> int:
        kind, text, line, column = self.advance()
        if kind == "CONST":
            g = TRUE if text == "true" else FALSE
            return self.node(g.__class__, (), (), g)
        if kind == "IDENT":
            if not text[0].islower():
                raise ParseError(
                    f"propositions are lowercase identifiers, got {text!r}",
                    line,
                    column,
                )
            return self.node(Prop, (text,), ())
        if kind == "LPAREN":
            k = self.iff()
            self.expect("RPAREN", "')'")
            return k
        got = text or "end of input"
        raise ParseError(f"expected a formula, got {got!r}", line, column)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula. Raises ParseError with position.

    Equal subterms of the text are one node, and the formula comes with
    its numbering kept, as _program would make it."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Structure

def walk(f: Formula) -> Iterator[Formula]:
    """All subterms of f, including f, once per occurrence.

    A subterm shared by several parents is yielded once for each path to
    it, so on a DAG such as f_{k+1} = f_k & f_k the walk is exponential in
    the depth; _numbering meets each distinct subterm once."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(g._kids())


class _Table:
    """A numbering under construction: nodes[k] is the node numbered k and
    kids[k] the numbers of its operands, left first, each number given
    after its operands'.  A subterm is known by its class, its fields and
    its operand numbers, so equal subterms get one number and no two
    formulas are ever compared.  The table lives for one numbering; there
    is no global one."""

    __slots__ = ("nodes", "kids", "slot")

    def __init__(self):
        self.nodes: list[Formula] = []
        self.kids: list[tuple[int, ...]] = []
        self.slot: dict[tuple, int] = {}

    def node(self, cls: type, fields: tuple, ks: tuple[int, ...], g: Formula | None = None) -> int:
        """The number of cls(*fields, *operands numbered ks).  On a miss
        that node is numbered: g if given (it must be such a node), else
        one built from the numbered operands."""
        key = (cls, fields, ks)
        k = self.slot.get(key)
        if k is None:
            nodes = self.nodes
            k = self.slot[key] = len(nodes)
            if g is None:
                g = cls(*fields, *[nodes[j] for j in ks])
            nodes.append(g)
            self.kids.append(ks)
        return k

    def add(self, *roots: Formula) -> tuple[list[Formula], list[tuple[int, ...]]]:
        """Number the subterms of the roots, children first, each left
        operand before the right and the roots in the order given, and
        return nodes and kids.  A node read once is known by its id for the
        rest of the walk, so a shared subterm is met once however often it
        occurs."""
        read: dict[int, int] = {}
        node = self.node
        stack = list(reversed(roots))
        while stack:
            g = stack[-1]
            if id(g) in read:
                stack.pop()
                continue
            ks = g._kids()
            if ks:
                pending = [x for x in ks if id(x) not in read]
                if pending:
                    pending.reverse()  # the left operand on top
                    stack += pending
                    continue
                ks = tuple([read[id(x)] for x in ks])
            stack.pop()
            read[id(g)] = node(g.__class__, g._fields(), ks, g)
        return self.nodes, self.kids


def _numbering(*roots: Formula) -> tuple[list[Formula], list[tuple[int, ...]]]:
    """The distinct subterms of the roots, children first: nodes[k] is the
    node numbered k and kids[k] the numbers of its operands, left first.
    Equal subterms get one number, so a shared subterm is met once however
    often it occurs.  The roots are numbered in the order given, each left
    operand before the right, and a single root comes last.

    The printer, desugar, modal_depth and _program fold over this list,
    computing each node's value from its operands' values, so that none of
    them recurses."""
    return _Table().add(*roots)


# ---------------------------------------------------------------------------
# Printing

_LVL_IFF, _LVL_IMPLIES, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = range(6)

# an infix node's separator, its level, and the levels its left and right
# operands need to go without parentheses
_INFIX = {
    And: (" & ", _LVL_AND, _LVL_AND, _LVL_AND + 1),
    Or: (" | ", _LVL_OR, _LVL_OR, _LVL_OR + 1),
    Implies: (" -> ", _LVL_IMPLIES, _LVL_IMPLIES + 1, _LVL_IMPLIES),
    Iff: (" <-> ", _LVL_IFF, _LVL_IFF + 1, _LVL_IFF),
}


def _texts(nodes: list[Formula], kids: list[tuple[int, ...]], drop: bool = False) -> list:
    """The print_formula text of every node of a numbering.

    With drop, each text is let go once its last reader has used it, and
    only the last node's text is kept: the texts of a chain's nodes add up
    to the square of its length."""
    text: list = []
    level: list[int] = []
    if drop:
        last = [0] * len(nodes)
        for j, ks in enumerate(kids):
            for k in ks:
                last[k] = j
    for j, (g, ks) in enumerate(zip(nodes, kids)):
        cls = g.__class__
        infix = _INFIX.get(cls)
        if infix is not None:
            sep, lvl, need_left, need_right = infix
            left, right = ks
            a = text[left] if level[left] >= need_left else f"({text[left]})"
            b = text[right] if level[right] >= need_right else f"({text[right]})"
            t = a + sep + b
        elif ks:
            k = ks[0]
            a = text[k] if level[k] >= _LVL_UNARY else f"({text[k]})"
            if cls is Not:
                t = "!" + a
            elif cls is B:
                t = f"B[{g.agent};{g.name}] " + a
            else:  # E, S, C, D: the class name is the head
                t = f"{cls.__name__}[{g.name}] " + a
            lvl = _LVL_UNARY
        else:
            t = g.name if cls is Prop else "true" if cls is Top else "false"
            lvl = _LVL_ATOM
        text.append(t)
        level.append(lvl)
        if drop:
            for k in ks:
                if last[k] == j:
                    text[k] = None
    return text


def print_formula(f: Formula) -> str:
    """Render a formula so that parse_formula(print_formula(f)) == f."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    # a parsed formula, or one asked about in a model, carries its numbering
    prog = getattr(f, "_prog", None) or _numbering(f)
    return _texts(prog[0], prog[1], drop=True)[-1]


# ---------------------------------------------------------------------------
# Symbols and folds

def _program(f: Formula) -> tuple:
    """f's numbering and symbols, (nodes, kids, names, props, agents),
    made once and kept on f: kripke._run and the oracle's lane evaluator
    run nodes and kids as they are, one node per step, and names_in,
    props_in and agents_in read the sets.  A parsed formula has it from
    the parser; a formula built in code is numbered on its first query.

    nodes[-1] is an equal copy of f, not f itself: f would otherwise
    reach itself through its own program, and no formula asked about
    would be freed by reference counting."""
    try:
        return f._prog
    except AttributeError:
        pass
    return _keep(*_numbering(f))


def _keep(nodes: list[Formula], kids: list[tuple[int, ...]]) -> tuple:
    """Keep the numbering of f = nodes[-1] on f as its program, with f
    replaced by an equal copy, and return the program."""
    f = nodes[-1]
    names = frozenset(g.name for g in nodes if isinstance(g, (_Modal, B)))
    props = frozenset(g.name for g in nodes if g.__class__ is Prop)
    agents = frozenset(g.agent for g in nodes if g.__class__ is B)
    nodes[-1] = f.__class__(*f._fields(), *f._kids())
    prog = (nodes, kids, names, props, agents)
    _set_prog(f, prog)
    return prog


def names_in(f: Formula) -> frozenset[str]:
    return _program(f)[2]


def props_in(f: Formula) -> frozenset[str]:
    return _program(f)[3]


def agents_in(f: Formula) -> frozenset[str]:
    return _program(f)[4]


def modal_depth(f: Formula) -> int:
    nodes, kids = _numbering(f)
    depth: list[int] = []
    for g, ks in zip(nodes, kids):
        d = max([depth[k] for k in ks], default=0)
        depth.append(d + 1 if isinstance(g, (_Modal, B)) else d)
    return depth[-1]


def desugar(f: Formula) -> Formula:
    """Rewrite ->, |, <-> into the !/& core. Idempotent.

    The result is built in one _Table, so equal subterms of the result
    are one node when those of f are, as in a parsed formula.  A node
    whose operands come out unchanged is returned as it is, so desugar(g)
    is g for g in the core."""
    return _desugared(f).nodes[-1]


def _desugared(f: Formula) -> _Table:
    """A table numbering desugar(f), which it numbers last: every node the
    table holds is a subterm of it."""
    nodes, kids = _numbering(f)
    table = _Table()
    node = table.node

    def implies(a: int, b: int) -> int:  # !(a & !b)
        return node(Not, (), (node(And, (), (a, node(Not, (), (b,)))),))

    out: list[int] = []
    for g, ks in zip(nodes, kids):
        cls = g.__class__
        args = tuple([out[k] for k in ks])
        if cls is Or:  # !a -> b
            out.append(implies(node(Not, (), args[:1]), args[1]))
        elif cls is Implies:
            out.append(implies(*args))
        elif cls is Iff:
            out.append(node(And, (), (implies(*args), implies(args[1], args[0]))))
        else:
            same = all([table.nodes[a] is nodes[k] for a, k in zip(args, ks)])
            out.append(node(cls, g._fields(), args, g if same else None))
    return table


def subformulas(f: Formula) -> frozenset[Formula]:
    """The reflexive-transitive subterm set of the desugared formula."""
    return frozenset(_desugared(f).nodes)


# ---------------------------------------------------------------------------
# Closure

@dataclass(frozen=True)
class Closure:
    """The finite formula set the decision procedure works inside, numbered.

    Closed under subterms, single negations of non-negations, witness seeds
    S[n] true / E[n] false for every name occurring in the input, S-weakening
    of E members, and the one-step unfolding members of C.

    nodes lists the members children first, one number per distinct
    formula, and kids[k] holds the numbers of the operands of nodes[k];
    nodes[root] is the desugared input.  formulas, len, in and iteration
    read the members as a set.
    """

    nodes: tuple[Formula, ...]
    kids: tuple[tuple[int, ...], ...]
    root: int
    names: frozenset[str]
    props: frozenset[str]

    @cached_property
    def formulas(self) -> frozenset[Formula]:
        return frozenset(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, f: Formula) -> bool:
        return f in self.formulas

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.nodes)


def closure(chi: Formula) -> Closure:
    """Number the closure of chi over the !/&/E/S/C core.

    chi is desugared first; D and B are outside the supported fragment.
    desugar numbers the desugared chi in a _Table, and the same table
    grows by the seeds, then by each member a rule adds.  Every added
    member is numbered after its operands, so the numbering stays children
    first, and a member already present keeps its number.
    """
    table = _desugared(chi)
    nodes, kids = table.nodes, table.kids
    for g in reversed(nodes):  # outermost first, as a walk of a tree meets them
        if isinstance(g, (D, B)):
            raise UnsupportedFragmentError(
                f"closure is defined for the E/S/C fragment, got {print_formula(g)}"
            )
    root = len(nodes) - 1
    names = frozenset(g.name for g in nodes if isinstance(g, _Modal))
    props = frozenset(g.name for g in nodes if g.__class__ is Prop)
    node = table.node
    if names:
        top, bot = node(Top, (), (), TRUE), node(Bot, (), (), FALSE)
        for n in sorted(names):
            node(S, (n,), (top,))
            node(E, (n,), (bot,))
    k = 0
    while k < len(nodes):  # the members added here are read in turn
        g = nodes[k]
        cls = g.__class__
        if cls is not Not:
            node(Not, (), (k,))
        if cls is E:
            node(S, (g.name,), kids[k])
        elif cls is C:
            node(E, (g.name,), kids[k])
            node(E, (g.name,), (k,))
        k += 1
    return Closure(tuple(nodes), tuple(kids), root, names, props)
