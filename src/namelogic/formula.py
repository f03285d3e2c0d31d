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
children's cached hashes, so the value is the one a frozen dataclass with the
same fields would give, but a memo lookup no longer re-hashes the subtree.
``==`` walks both trees with an explicit stack, so neither hashing nor
comparison recurses.  The name, proposition and agent sets read by
``names_in``/``props_in``/``agents_in`` are filled lazily, children first,
the first time they are asked for: most nodes built by the distinguisher
construction are discarded unread.  They share one frozenset per symbol and
reuse a child's set wherever a union adds nothing.  A node asked about as a
whole also keeps the truth program ``kripke._compile`` made for it.  There
is no intern
table: a strong one would keep every parsed formula alive, and a weak one
costs a weakref per node.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator

from .errors import ParseError, UnsupportedFragmentError


class Formula:
    """Base class for all formula nodes. Instances are immutable."""

    # _names/_props/_agents stay unset until _symbols fills them, _prog
    # until kripke._compile does
    __slots__ = ("_hash", "_names", "_props", "_agents", "_prog")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for field in a.__match_args__:
                x, y = getattr(a, field), getattr(b, field)
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        return print_formula(self)

    def _kids(self) -> tuple[Formula, ...]:
        return ()

    def _fill(self) -> None:
        _set_names(self, _NO_SYMBOLS)
        _set_props(self, _NO_SYMBOLS)
        _set_agents(self, _NO_SYMBOLS)


# Slot setters: __setattr__ refuses every assignment, so constructors write
# through the slot descriptors directly.
_set_hash = Formula._hash.__set__
_set_names = Formula._names.__set__
_set_props = Formula._props.__set__
_set_agents = Formula._agents.__set__
_set_prog = Formula._prog.__set__

_NO_SYMBOLS: frozenset[str] = frozenset()
_SINGLETONS: dict[str, frozenset[str]] = {}


def _one(symbol: str) -> frozenset[str]:
    out = _SINGLETONS.get(symbol)
    if out is None:
        out = _SINGLETONS[symbol] = frozenset((symbol,))
    return out


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if a is b or b <= a:
        return a
    if a <= b:
        return b
    return a | b


class Prop(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_prop_name(self, name)
        _set_hash(self, hash((name,)))

    def _fill(self) -> None:
        _set_names(self, _NO_SYMBOLS)
        _set_props(self, _one(self.name))
        _set_agents(self, _NO_SYMBOLS)


_set_prop_name = Prop.name.__set__


class _Constant(Formula):
    __slots__ = ()

    def __init__(self):
        _set_hash(self, _NO_FIELDS_HASH)


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
        _set_hash(self, hash((arg,)))

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)

    def _fill(self) -> None:
        arg = self.arg
        _set_names(self, arg._names)
        _set_props(self, arg._props)
        _set_agents(self, arg._agents)


_set_not_arg = Not.arg.__set__


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))

    def _kids(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def _fill(self) -> None:
        left, right = self.left, self.right
        _set_names(self, _union(left._names, right._names))
        _set_props(self, _union(left._props, right._props))
        _set_agents(self, _union(left._agents, right._agents))


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
        _set_hash(self, hash((name, arg)))

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)

    def _fill(self) -> None:
        arg = self.arg
        _set_names(self, _union(arg._names, _one(self.name)))
        _set_props(self, arg._props)
        _set_agents(self, arg._agents)


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
        _set_hash(self, hash((agent, name, arg)))

    def _kids(self) -> tuple[Formula, ...]:
        return (self.arg,)

    def _fill(self) -> None:
        arg = self.arg
        _set_names(self, _union(arg._names, _one(self.name)))
        _set_props(self, arg._props)
        _set_agents(self, _union(arg._agents, _one(self.agent)))


_set_b_agent = B.agent.__set__
_set_b_name = B.name.__set__
_set_b_arg = B.arg.__set__


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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

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
        f = self.iff()
        kind, text, line, column = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected {text!r}", line, column)
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek_kind() == "IFF":
            self.pos += 1
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disj()
        if self.peek_kind() == "IMPLIES":
            self.pos += 1
            return Implies(left, self.implies())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek_kind() == "OR":
            self.pos += 1
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek_kind() == "AND":
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, _, _ = self.tokens[self.pos]
        if kind == "NOT":
            self.pos += 1
            return Not(self.unary())
        if kind == "IDENT" and text in ("E", "S", "C", "D", "B"):
            if self.tokens[self.pos + 1][0] == "LBRACK":
                return self.modality()
        return self.primary()

    def modality(self) -> Formula:
        head = self.advance()[1]
        self.expect("LBRACK", "'['")
        first = self.expect("IDENT", "identifier")
        if head == "B":
            self.expect("SEMI", "';'")
            name = self.expect("IDENT", "identifier")
            self.expect("RBRACK", "']'")
            return B(first, name, self.unary())
        self.expect("RBRACK", "']'")
        return _MODAL_HEADS[head](first, self.unary())

    def primary(self) -> Formula:
        kind, text, line, column = self.advance()
        if kind == "CONST":
            return TRUE if text == "true" else FALSE
        if kind == "IDENT":
            if not text[0].islower():
                raise ParseError(
                    f"propositions are lowercase identifiers, got {text!r}",
                    line,
                    column,
                )
            return Prop(text)
        if kind == "LPAREN":
            f = self.iff()
            self.expect("RPAREN", "')'")
            return f
        got = text or "end of input"
        raise ParseError(f"expected a formula, got {got!r}", line, column)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula. Raises ParseError with position."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

_LVL_IFF, _LVL_IMPLIES, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = range(6)


def _fmt(f: Formula, required: int) -> str:
    match f:
        case Prop(name):
            text, level = name, _LVL_ATOM
        case Top():
            text, level = "true", _LVL_ATOM
        case Bot():
            text, level = "false", _LVL_ATOM
        case Not(arg):
            text, level = "!" + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case E(name, arg):
            text, level = f"E[{name}] " + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case S(name, arg):
            text, level = f"S[{name}] " + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case C(name, arg):
            text, level = f"C[{name}] " + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case D(name, arg):
            text, level = f"D[{name}] " + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case B(agent, name, arg):
            text, level = f"B[{agent};{name}] " + _fmt(arg, _LVL_UNARY), _LVL_UNARY
        case And(left, right):
            text = _fmt(left, _LVL_AND) + " & " + _fmt(right, _LVL_AND + 1)
            level = _LVL_AND
        case Or(left, right):
            text = _fmt(left, _LVL_OR) + " | " + _fmt(right, _LVL_OR + 1)
            level = _LVL_OR
        case Implies(left, right):
            text = _fmt(left, _LVL_IMPLIES + 1) + " -> " + _fmt(right, _LVL_IMPLIES)
            level = _LVL_IMPLIES
        case Iff(left, right):
            text = _fmt(left, _LVL_IFF + 1) + " <-> " + _fmt(right, _LVL_IFF)
            level = _LVL_IFF
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if level < required:
        return "(" + text + ")"
    return text


def print_formula(f: Formula) -> str:
    """Render a formula so that parse_formula(print_formula(f)) == f."""
    return _fmt(f, 0)


# ---------------------------------------------------------------------------
# Structure

def children(f: Formula) -> tuple[Formula, ...]:
    return f._kids() if isinstance(f, Formula) else ()


def walk(f: Formula) -> Iterator[Formula]:
    """All subterms of f, including f, without deduplication of leaves."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(g._kids())


def _symbols(f: Formula) -> Formula:
    """Fill the symbol sets of f and of every subterm still lacking them,
    children first.  Returns f."""
    if hasattr(f, "_agents"):
        return f
    stack = [f]
    while stack:
        g = stack[-1]
        ready = True
        for k in g._kids():
            if not hasattr(k, "_agents"):
                stack.append(k)
                ready = False
        if ready:
            stack.pop()
            g._fill()
    return f


def names_in(f: Formula) -> frozenset[str]:
    return _symbols(f)._names


def props_in(f: Formula) -> frozenset[str]:
    return _symbols(f)._props


def agents_in(f: Formula) -> frozenset[str]:
    return _symbols(f)._agents


def modal_depth(f: Formula) -> int:
    match f:
        case E(_, arg) | S(_, arg) | C(_, arg) | D(_, arg) | B(_, _, arg):
            return 1 + modal_depth(arg)
        case _:
            kids = children(f)
            return max((modal_depth(g) for g in kids), default=0)


def desugar(f: Formula) -> Formula:
    """Rewrite ->, |, <-> into the !/& core. Idempotent."""
    match f:
        case Or(l, r):
            return Not(And(Not(desugar(l)), Not(desugar(r))))
        case Implies(l, r):
            return Not(And(desugar(l), Not(desugar(r))))
        case Iff(l, r):
            return And(desugar(Implies(l, r)), desugar(Implies(r, l)))
        case Not(arg):
            return Not(desugar(arg))
        case And(l, r):
            return And(desugar(l), desugar(r))
        case E(name, arg):
            return E(name, desugar(arg))
        case S(name, arg):
            return S(name, desugar(arg))
        case C(name, arg):
            return C(name, desugar(arg))
        case D(name, arg):
            return D(name, desugar(arg))
        case B(agent, name, arg):
            return B(agent, name, desugar(arg))
        case _:
            return f


def subformulas(f: Formula) -> frozenset[Formula]:
    """The reflexive-transitive subterm set of the desugared formula."""
    f = desugar(f)
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(children(g))
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Closure

@dataclass(frozen=True)
class Closure:
    """The finite formula set the decision procedure works inside.

    Closed under subterms, single negations of non-negations, witness seeds
    S[n] true / E[n] false for every name occurring in the input, S-weakening
    of E members, and the one-step unfolding members of C.
    """

    formulas: frozenset[Formula]
    names: frozenset[str]
    props: frozenset[str]

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self.formulas

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def closure(chi: Formula) -> Closure:
    """Compute the closure of chi over the !/&/E/S/C core.

    chi is desugared first; D and B are outside the supported fragment.
    """
    chi = desugar(chi)
    for g in walk(chi):
        if isinstance(g, (D, B)):
            raise UnsupportedFragmentError(
                f"closure is defined for the E/S/C fragment, got {print_formula(g)}"
            )
    names = names_in(chi)
    formulas: set[Formula] = set()
    queue: list[Formula] = [chi]
    queue.extend(S(n, TRUE) for n in sorted(names))
    queue.extend(E(n, FALSE) for n in sorted(names))
    while queue:
        g = queue.pop()
        if g in formulas:
            continue
        formulas.add(g)
        queue.extend(children(g))
        if not isinstance(g, Not):
            queue.append(Not(g))
        match g:
            case E(n, arg):
                queue.append(S(n, arg))
            case C(n, arg):
                queue.append(E(n, arg))
                queue.append(E(n, C(n, arg)))
    return Closure(frozenset(formulas), names, props_in(chi))
