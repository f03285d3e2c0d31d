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

Nodes are immutable ``__slots__`` objects, and no class defines
``__getattr__``, so an attribute read takes CPython's fast path.  The
operands live in private slots behind the public ``arg``, ``left`` and
``right`` properties.  Each node computes its hash once, in ``__init__``:
the hash of the tuple of its string fields and its operands' ``_hash``
ints, read off their slots, mixed with a constant of its class, so that
nodes of different classes over the same fields (``E[n] f`` and ``S[n]
f``) hash apart.  Building a node over built operands calls no
Python-level ``__hash__``, and a memo lookup never re-hashes the subtree.
A parsed root gets the same value from ``__hash__``, folded over its keys
on first use (below).

A formula is a DAG: equal subterms may be one shared node.  A numbering
lists the distinct subterms of one or more roots children first, in a
``_Table``: a key list and a dict from each key to its number.  A subterm
is known by its key, (class, string fields, operand numbers), so equal
subterms get one number and no two formulas are ever compared: hash-consing
(Filliatre & Conchon 2006) that lasts for one numbering.  The parser and
``_numbering`` write into a table's dict and list directly, and the parser
memoises atoms per parse, so a repeated atom costs one lookup by its text;
the rest go through ``_Table.node``.  The key list is the one
representation of a numbered formula.  The numbering is canonical (children
first, left first, each distinct subterm once), so two formulas are equal
exactly when their key lists are: ``==`` checks identity, class and hash,
then compares the two lists, a comparison of tuples of classes, strings and
ints that runs in C and never recurses.  A formula compares by its
program's keys when it carries one, else by a fresh numbering that is not
kept.

The parser is one loop over the tokens, its pending operators and operands
on explicit stacks, and writes keys only: a text is numbered as it is read,
and no node is built for its subterms.  The parsed formula is its root,
made by ``_root`` from the key list with its string fields and the keys,
kept as its program, the same list ``_numbering`` would make.  Its
``_hash`` and operand slots are left unset: ``__hash__`` folds the hash
over the keys on first use, and the first read of an operand property
builds the operands from the keys in one loop (``_unfold``), one node per
key, so equal subterms of one text are one node.  Pickling and copying go
through ``_root`` too.  ``_numbering`` numbers formulas built in code,
reading each node once by its id, and numbers a parsed root it meets from
the root's keys, building nothing, so numbering a formula built in code
over parsed roots, such as ``valid``'s negation of a query, builds no node.
Printing, ``repr``, ``modal_depth`` and the truth core are folds over the
keys, and each meets a shared subterm once; nothing here recurses, so no
depth of nesting is too deep to read, print, compare or evaluate.
``_desugar`` rewrites a key list into a table over the !/& core, and
``closure`` desugars the query's keys, a parsed query's program as it
stands, and grows that table by the seeds and every member its rules add,
each after its operands.  The closure is that key list and builds no node;
the layout reads the keys, so a query is numbered at most once.

A formula asked about in a model is numbered once: ``_program`` keeps its
keys on the node, with the name, proposition and agent sets that
``names_in``/``props_in``/``agents_in`` read and the classes of its modal
subterms, all read off the keys in one pass.  A program holds classes,
strings and ints only, never a formula, so it makes no reference cycle.
``kripke._run`` runs the keys as they are, for one model or for a block
of the oracle's candidates, dispatching on each key's class.  Beside its program a formula keeps, in
``_masks``, its truth masks for the last model index it was asked about,
so asking it again on that model costs no run; an index holds no formula,
so this makes no cycle either, and a model keeps nothing of the formulas
asked about it.  There is no global intern table: a strong one would keep
every parsed formula alive, and a weak one costs a weakref per node.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator

from .errors import ParseError, UnsupportedFragmentError
from .record import Record


class Formula:
    """Base class for all formula nodes. Instances are immutable."""

    # _prog stays unset until _program fills it, _masks until kripke._truth
    # does; a parsed root leaves _hash unset until __hash__ folds it, and
    # its operand slots until an operand property is read
    __slots__ = ("_hash", "_prog", "_masks")
    __match_args__: tuple[str, ...] = ()
    # the slot descriptors of the string fields and of the operands
    _field_slots: tuple = ()
    _operand_slots: tuple = ()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # a parsed root: fold its hash over its keys, once
            h = _hash_of(self._prog[0])
            _set_hash(self, h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return _keys(self) == _keys(other)

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __reduce__(self):
        # the flat key list, so no depth of nesting makes pickle or
        # deepcopy recurse
        return _root, (_keys(self),)

    def __repr__(self) -> str:
        """Class(field=value, ...), with the operands spelled out.  The
        texts are folded over the numbering, children first, so nothing
        recurses, and once one is longer than _REPR_CAP, as a deep or much
        shared formula's soon is, the repr is an abbreviation that says so."""
        keys = _keys(self)
        texts: list[str] = []
        for cls, fields, ks in keys:
            values = [*map(repr, fields), *[texts[k] for k in ks]]
            named = ", ".join([f"{a}={v}" for a, v in zip(cls.__match_args__, values)])
            texts.append(f"{cls.__qualname__}({named})")
            if len(texts[-1]) > _REPR_CAP:
                return (f"<{self.__class__.__qualname__}: repr abbreviated, longer than"
                        f" {_REPR_CAP} characters, {len(keys)} distinct nodes>")
        return texts[-1]

    def __str__(self) -> str:
        return print_formula(self)

    def _kids(self) -> tuple[Formula, ...]:
        """The operands, read through their slots: on a parsed root whose
        operands are not built yet this raises AttributeError, and builds
        nothing."""
        return ()

    def _fields(self) -> tuple[str, ...]:
        return ()


# The longest Formula.__repr__ written out in full, in characters.
_REPR_CAP = 10_000

# Slot setters: __setattr__ refuses every assignment, so constructors write
# through the slot descriptors directly.
_set_hash = Formula._hash.__set__
_set_prog = Formula._prog.__set__
_set_masks = Formula._masks.__set__


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


# The operands sit in private slots behind properties, which build a parsed
# root's on first read (_unfold).  A constructor calls hash() on an operand
# only when its _hash slot is unset, as a parsed root's is until then.

class Not(Formula):
    __slots__ = ("_arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set_not_arg(self, arg)
        try:
            h = arg._hash
        except AttributeError:
            h = hash(arg)
        _set_hash(self, hash((h,)) ^ self._salt)

    @property
    def arg(self) -> Formula:  # _Modal's and B's too
        try:
            return self._arg
        except AttributeError:
            _unfold(self)
            return self._arg

    def _kids(self) -> tuple[Formula, ...]:
        return (self._arg,)


_set_not_arg = Not._arg.__set__
Not._operand_slots = (Not._arg,)


class _Binary(Formula):
    __slots__ = ("_left", "_right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        try:
            h = hash((left._hash, right._hash))
        except AttributeError:
            h = hash((hash(left), hash(right)))
        _set_hash(self, h ^ self._salt)

    @property
    def left(self) -> Formula:
        try:
            return self._left
        except AttributeError:
            _unfold(self)
            return self._left

    @property
    def right(self) -> Formula:
        try:
            return self._right
        except AttributeError:
            _unfold(self)
            return self._right

    def _kids(self) -> tuple[Formula, ...]:
        return (self._left, self._right)


_set_left = _Binary._left.__set__
_set_right = _Binary._right.__set__
_Binary._operand_slots = (_Binary._left, _Binary._right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("name", "_arg")
    __match_args__ = ("name", "arg")

    def __init__(self, name: str, arg: Formula):
        _set_modal_name(self, name)
        _set_modal_arg(self, arg)
        try:
            h = arg._hash
        except AttributeError:
            h = hash(arg)
        _set_hash(self, hash((name, h)) ^ self._salt)

    arg, _kids = Not.arg, Not._kids

    def _fields(self) -> tuple[str, ...]:
        return (self.name,)


_set_modal_name = _Modal.name.__set__
_set_modal_arg = _Modal._arg.__set__
_Modal._field_slots = (_Modal.name,)
_Modal._operand_slots = (_Modal._arg,)


class E(_Modal):
    __slots__ = ()


class S(_Modal):
    __slots__ = ()


class C(_Modal):
    __slots__ = ()


class D(_Modal):
    __slots__ = ()


class B(Formula):
    __slots__ = ("agent", "name", "_arg")
    __match_args__ = ("agent", "name", "arg")

    def __init__(self, agent: str, name: str, arg: Formula):
        _set_b_agent(self, agent)
        _set_b_name(self, name)
        _set_b_arg(self, arg)
        try:
            h = arg._hash
        except AttributeError:
            h = hash(arg)
        _set_hash(self, hash((agent, name, h)) ^ self._salt)

    arg, _kids = Not.arg, Not._kids

    def _fields(self) -> tuple[str, ...]:
        return (self.agent, self.name)


_set_b_agent = B.agent.__set__
_set_b_name = B.name.__set__
_set_b_arg = B._arg.__set__
B._field_slots = (B.agent, B.name)
B._operand_slots = (B._arg,)


# Every node class by name, the name a numbered DAG gives each key's class.
_CLASSES = {cls.__name__: cls for cls in (Prop, Top, Bot, Not, And, Or, Implies, Iff, E, S, C, D, B)}

# Each class's own constant, mixed into every node's hash: E[n] a and
# S[n] a, And and Or over the same operands, true and false, would share a
# hash otherwise, and every closure holds S[n] a beside E[n] a.
for _salt, _cls in enumerate(_CLASSES.values(), 1):
    _cls._salt = _salt
del _salt, _cls

TRUE = Top()
FALSE = Bot()


# ---------------------------------------------------------------------------
# Parsing

# The tokens: punctuation, a run of word characters (str.isalnum or "_"),
# or any other non-space character.  Whitespace (str.isspace) is skipped
# between them, and only "\n" starts a new line.
_TOKEN = re.compile(r"<->|->|[&|!()\[\];]|\w+|\S")
_PUNCT = frozenset(["<->", "->", "&", "|", "!", "(", ")", "[", "]", ";"])

# The parser's pending operators, (level, class, fields), innermost last.
# A connective's level runs from 0 (<->) to 3 (&); a prefix operator's is
# _UNARY; an open parenthesis, or the text as a whole, is a _GROUP.
_UNARY = 4
_GROUP = (-1, None, ())
_NOT = (_UNARY, Not, ())

# Each connective's operator, and its bind: a new connective first applies
# the pending ones whose level is above its bind, so & and | associate to
# the left, -> and <-> to the right.
_BINARY = {
    "<->": (0, (0, Iff, ())),
    "->": (1, (1, Implies, ())),
    "|": (1, (2, Or, ())),
    "&": (2, (3, And, ())),
}
# A closing parenthesis, or the end, applies every connective pending in
# its group: each level is above a _GROUP's.
_CLOSE = (_GROUP[0], None)

_HEADS = {"E": E, "S": S, "C": C, "D": D, "B": B}


def _is_word(t: str) -> bool:
    c = t[:1]
    return c.isalpha() or c == "_"


def _is_identifier(t: str) -> bool:
    return _is_word(t) and t != "true" and t != "false"


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a formula. Raises ParseError with position.

    One loop reads the tokens by precedence climbing: the left operands of
    the pending connectives sit on one stack, and the connectives, prefix
    operators and open parentheses on another, so no depth of nesting
    makes it recurse.  A prefix operator applies when its operand is
    complete, and a connective once its right operand is followed by a
    connective that binds no tighter, a closing parenthesis or the end.
    Each subterm is numbered as it is read, after its operands, and only
    its key is kept: no node is built for it.  The parser writes into a
    _Table's dict and key list directly, with no call per subterm, and
    memoises atoms per parse: an atom's text maps to its number once it
    has passed the checks, so a repeated atom costs one dict lookup, and
    the dict never holds a leaf's key.  The formula returned is the root
    that _root makes from the keys, which it keeps as its program, the list
    _numbering would make; its operands are built on first read, equal
    subterms of the text as one node."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of input
    table = _Table()
    keys, slot = table.keys, table.slot
    atoms: dict[str, int] = {}  # an atom's text to its number
    ops: list[tuple] = [_GROUP]
    lefts: list[int] = []
    depth = 0  # open parentheses
    i = 0
    while True:
        # an operand: prefix operators, then an atom or an open parenthesis
        t = tokens[i]
        i += 1
        k = atoms.get(t)
        if k is None:
            if t == "!":
                ops.append(_NOT)
                continue
            if t == "(":
                ops.append(_GROUP)
                depth += 1
                continue
            c = t[:1]
            if not (c.isalpha() or c == "_"):
                raise _error(text, tokens, i - 1, "expected a formula, got {}")
            cls = _HEADS.get(t)
            if cls is not None and tokens[i] == "[":
                first = tokens[i + 1]
                c = first[:1]  # _is_identifier(first), inlined
                if not (c.isalpha() or c == "_") or first == "true" or first == "false":
                    raise _error(text, tokens, i + 1, "expected identifier, got {}")
                if cls is B:
                    if tokens[i + 2] != ";":
                        raise _error(text, tokens, i + 2, "expected ';', got {}")
                    if not _is_identifier(tokens[i + 3]):
                        raise _error(text, tokens, i + 3, "expected identifier, got {}")
                    fields, i = (first, tokens[i + 3]), i + 4
                else:
                    fields, i = (first,), i + 2
                if tokens[i] != "]":
                    raise _error(text, tokens, i, "expected ']', got {}")
                ops.append((_UNARY, cls, fields))
                i += 1
                continue
            if t == "true":
                key = (Top, (), ())
            elif t == "false":
                key = (Bot, (), ())
            elif c.islower():
                key = (Prop, (t,), ())
            else:
                raise _error(text, tokens, i - 1, "propositions are lowercase identifiers, got {}")
            # a leaf's key comes from its text alone, so the memo numbers
            # each leaf once, and the slot dict never needs it
            k = atoms[t] = len(keys)
            keys.append(key)
        top = ops[-1]
        while True:
            # the operand k is complete: apply the prefix operators on it
            while top[0] == _UNARY:
                ops.pop()
                key = (top[1], top[2], (k,))  # table.node, inlined
                n = len(keys)
                k = slot.setdefault(key, n)
                if k == n:
                    keys.append(key)
                top = ops[-1]
            t = tokens[i]
            i += 1
            bind, op = _BINARY.get(t, _CLOSE)
            if op is None and t != (")" if depth else ""):
                message = "expected ')', got {}" if depth else "unexpected {}"
                raise _error(text, tokens, i - 1, message)
            while top[0] > bind:
                ops.pop()
                key = (top[1], (), (lefts.pop(), k))
                n = len(keys)
                k = slot.setdefault(key, n)
                if k == n:
                    keys.append(key)
                top = ops[-1]
            if op is not None:
                lefts.append(k)
                ops.append(op)
                break
            # the innermost group closes
            if not depth:
                # the root is numbered last: no proper subterm equals it
                return _root(keys)
            ops.pop()
            depth -= 1
            top = ops[-1]


def _error(text: str, tokens: list[str], i: int, message: str) -> ParseError:
    """The ParseError for tokens[i], message formatted with its repr.  If a
    token from i on is not one of the language's, it is the error for the
    first such token instead, as a tokenizer run ahead of the parser would
    raise it.  Line and column come from scanning the text again."""
    for j in range(i, len(tokens) - 1):
        t = tokens[j]
        if not (_is_word(t) or t in _PUNCT):
            i, message = j, f"unknown token {t[0]!r}"
            break
    else:
        message = message.format(repr(tokens[i] or "end of input"))
    match = next(islice(_TOKEN.finditer(text), i, None), None)
    pos = len(text) if match is None else match.start()
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


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
        try:
            kids = g._kids()
        except AttributeError:  # a parsed root: build its operands
            _unfold(g)
            kids = g._kids()
        stack.extend(kids)


class _Table:
    """A numbering under construction: keys[k] is the key of the subterm
    numbered k, (class, string fields, operand numbers left first), each
    number given after its operands'.  A subterm is known by its key, so
    equal subterms get one number and no two formulas are ever compared.
    The keys alone are the numbered formula: Formula.__eq__, the printer,
    the folds and the truth core read nothing else, so the table builds no
    node; _build makes the nodes of a numbering that needs them.  The
    table lives for one numbering; there is no global one.  The parser and
    _numbering write into slot and keys directly, as node does, to save a
    call per subterm; the parser leaves its leaves out of slot."""

    __slots__ = ("keys", "slot")

    def __init__(self):
        self.keys: list[tuple] = []
        self.slot: dict[tuple, int] = {}

    def node(self, cls: type, fields: tuple, ks: tuple[int, ...]) -> int:
        """The number of cls(*fields, *operands numbered ks), numbered on a
        miss."""
        key = (cls, fields, ks)
        k = self.slot.get(key)
        if k is None:
            k = self.slot[key] = len(self.keys)
            self.keys.append(key)
        return k


def _numbering(*roots: Formula) -> list[tuple]:
    """The key list of the distinct subterms of the roots, children first:
    keys[k] is the (class, fields, operand numbers) of the subterm
    numbered k.  Equal subterms get one number, so a shared subterm is met
    once however often it occurs.  The roots are numbered in the order
    given, each left operand before the right, and a single root comes
    last.

    A node read once is known by its id for the rest of the walk.  A
    parsed root whose operands are not built yet is not walked: its
    program's keys are numbered in the table, in their order, so it numbers
    as a walk of its subterms would, and nothing is built.  Met before any
    other subterm, as a query is, or a query under valid's negation, its
    program is the numbering so far.

    The printer, modal_depth and _program fold over the keys, computing
    each node's value from its operands' values, so that none of them
    recurses."""
    table = _Table()
    keys, slot = table.keys, table.slot
    read: dict[int, int] = {}
    stack = list(reversed(roots))
    while stack:
        g = stack[-1]
        if id(g) in read:
            stack.pop()
            continue
        try:
            ks = g._kids()
        except AttributeError:  # a parsed root: number its program's keys
            stack.pop()
            prog = g._prog[0]
            if not keys:  # numbered first, it numbers as its program does
                keys += prog
                slot.update(zip(prog, range(len(prog))))
                read[id(g)] = len(keys) - 1
                continue
            out: list[int] = []  # each key's number in the table
            for c, fields, pks in prog:
                key = (c, fields, tuple([out[x] for x in pks]))
                k = slot.get(key)
                if k is None:
                    k = slot[key] = len(keys)
                    keys.append(key)
                out.append(k)
            read[id(g)] = out[-1]
            continue
        if len(ks) == 1:
            a = read.get(id(ks[0]))
            if a is None:
                stack.append(ks[0])
                continue
            ks = (a,)
        elif ks:
            a, b = read.get(id(ks[0])), read.get(id(ks[1]))
            if a is None or b is None:
                if b is None:
                    stack.append(ks[1])
                if a is None:
                    stack.append(ks[0])  # the left operand on top
                continue
            ks = (a, b)
        stack.pop()
        key = (g.__class__, g._fields(), ks)  # table.node, inlined
        k = slot.get(key)
        if k is None:
            k = slot[key] = len(keys)
            keys.append(key)
        read[id(g)] = k
    return keys


def _keys(f: Formula) -> list[tuple]:
    """f's key list: its program's if it carries one, else a fresh
    numbering's, which is not kept, so comparing or printing the subterms
    of a formula built in code leaves no program on them.  No node is
    built: a parsed root under f is numbered from its keys."""
    try:
        return f._prog[0]
    except AttributeError:
        return _numbering(f)


def _build(keys: list[tuple]) -> list[Formula]:
    """One node per key, children first, each built from its key over the
    nodes of its operands, true and false as TRUE and FALSE."""
    nodes: list[Formula] = []
    push = nodes.append
    for cls, fields, ks in keys:
        if len(ks) == 2:  # only a binary connective has two operands, and no fields
            push(cls(nodes[ks[0]], nodes[ks[1]]))
        elif ks:
            push(cls(*fields, nodes[ks[0]]))
        elif cls is Prop:
            push(Prop(fields[0]))
        else:
            push(TRUE if cls is Top else FALSE)
    return nodes


def _root(keys: list[tuple]) -> Formula:
    """The formula whose key list is keys, with keys kept as its program.
    A leaf is built; any other root is made by cls.__new__ with its string
    fields alone, its _hash and operand slots unset: Formula.__hash__ folds
    the hash over the keys on first use, and the first read of an operand
    builds them all (_unfold).  The parser, pickle and deepcopy make
    formulas here."""
    cls, fields, ks = keys[-1]
    if ks:
        f = cls.__new__(cls)
        for slot, value in zip(cls._field_slots, fields):
            slot.__set__(f, value)
    else:
        f = _build(keys)[-1]
    _set_prog(f, _program_of(keys))
    return f


def _unfold(f: Formula) -> None:
    """Build the proper subterms of f, a root _root made, from its
    program's keys in one loop, and set f's operand slots.  Equal subterms
    have one key, so they are one node."""
    keys = f._prog[0]
    nodes = _build(keys[:-1])
    for slot, k in zip(f._operand_slots, keys[-1][2]):
        slot.__set__(f, nodes[k])


def _hash_of(keys: list[tuple]) -> int:
    """The hash __init__ gives the last node of keys, folded over the keys:
    each node's is the hash of its string fields and its operands' hashes,
    mixed with its class's constant."""
    h: list[int] = []
    push = h.append
    for cls, fields, ks in keys:
        if len(ks) == 2:  # only a binary connective has two operands, and no fields
            push(hash((h[ks[0]], h[ks[1]])) ^ cls._salt)
        else:
            push(hash(fields + (h[ks[0]],) if ks else fields) ^ cls._salt)
    return h[-1]


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


def _texts(keys: list[tuple], drop: bool = False) -> list:
    """The print_formula text of every node of a numbering, from its keys.

    With drop, each text is let go once its last reader has used it, and
    only the last node's text is kept: the texts of a chain's nodes add up
    to the square of its length."""
    text: list = []
    level: list[int] = []
    if drop:
        last = [0] * len(keys)
        for j, (_, _, ks) in enumerate(keys):
            for k in ks:
                last[k] = j
    for j, (cls, fields, ks) in enumerate(keys):
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
                t = f"B[{fields[0]};{fields[1]}] " + a
            else:  # E, S, C, D: the class name is the head
                t = f"{cls.__name__}[{fields[0]}] " + a
            lvl = _LVL_UNARY
        else:
            t = fields[0] if cls is Prop else "true" if cls is Top else "false"
            lvl = _LVL_ATOM
        text.append(t)
        level.append(lvl)
        if drop:
            for k in ks:
                if last[k] == j:
                    text[k] = None
    return text


def _text_length(keys: list[tuple]) -> int:
    """len(print_formula) of the formula keys number, folded over the keys
    with _texts's levels and parenthesis rules, so no text is built: the
    text of a much shared formula can be exponentially longer than its key
    list."""
    size: list[int] = []
    level: list[int] = []
    for cls, fields, ks in keys:
        infix = _INFIX.get(cls)
        if infix is not None:
            sep, lvl, need_left, need_right = infix
            left, right = ks
            n = size[left] + len(sep) + size[right]
            n += 2 * ((level[left] < need_left) + (level[right] < need_right))
        elif ks:
            k = ks[0]
            # "!", "B[agent;name] " or "E[name] ", then the operand
            head = 1 if cls is Not else len(fields[0]) + len(fields[1]) + 5 if cls is B else len(fields[0]) + 4
            n = head + size[k] + 2 * (level[k] < _LVL_UNARY)
            lvl = _LVL_UNARY
        else:
            n = len(fields[0]) if cls is Prop else 4 if cls is Top else 5
            lvl = _LVL_ATOM
        size.append(n)
        level.append(lvl)
    return size[-1]


def print_formula(f: Formula) -> str:
    """Render a formula so that parse_formula(print_formula(f)) == f."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _texts(_keys(f), drop=True)[-1]


# ---------------------------------------------------------------------------
# Symbols and folds

def _program(f: Formula) -> tuple:
    """f's program, (keys, names, props, agents, heads), made once and kept
    on f.  keys is f's numbering, one (class, fields, operand numbers) per
    distinct subterm, children first and f last: kripke._run runs it as
    it is, one key per step, and Formula.__eq__ compares it.  names_in,
    props_in and agents_in read the sets; heads holds the classes of f's
    modal subterms.  A parsed formula has its program from the parser; a
    formula built in code is numbered on its first query.  A program holds
    only classes, strings and ints, so it never reaches f, and a formula
    asked about is freed by reference counting."""
    try:
        return f._prog
    except AttributeError:
        pass
    prog = _program_of(_numbering(f))
    _set_prog(f, prog)
    return prog


def _program_of(keys: list[tuple]) -> tuple:
    """The program of the formula keys number.  The symbols are read off
    the keys in one pass: a subterm's string fields are its name, its
    proposition, or B's agent and name."""
    names, props, agents, heads = set(), set(), set(), set()
    for cls, fields, _ in keys:
        if fields:
            if cls is Prop:
                props.add(fields[0])
            elif cls is B:
                agents.add(fields[0])
                names.add(fields[1])
                heads.add(B)
            else:
                names.add(fields[0])
                heads.add(cls)
    return keys, frozenset(names), frozenset(props), frozenset(agents), frozenset(heads)


def names_in(f: Formula) -> frozenset[str]:
    return _program(f)[1]


def props_in(f: Formula) -> frozenset[str]:
    return _program(f)[2]


def agents_in(f: Formula) -> frozenset[str]:
    return _program(f)[3]


def modal_depth(f: Formula) -> int:
    depth: list[int] = []
    for cls, _, ks in _keys(f):
        d = max([depth[k] for k in ks], default=0)
        depth.append(d + 1 if issubclass(cls, (_Modal, B)) else d)
    return depth[-1]


def _desugar(keys: list[tuple]) -> _Table:
    """A table numbering the desugared formula that keys number, ->, | and
    <-> rewritten into the !/& core, last, so every key it holds is a
    subterm's.  A formula in the core is numbered as keys number it."""
    table = _Table()
    node = table.node

    def implies(a: int, b: int) -> int:  # !(a & !b)
        return node(Not, (), (node(And, (), (a, node(Not, (), (b,)))),))

    out: list[int] = []
    for cls, fields, ks in keys:
        args = tuple([out[j] for j in ks])
        if cls is Or:  # !a -> b
            out.append(implies(node(Not, (), args[:1]), args[1]))
        elif cls is Implies:
            out.append(implies(*args))
        elif cls is Iff:
            out.append(node(And, (), (implies(*args), implies(args[1], args[0]))))
        else:
            out.append(node(cls, fields, args))
    return table


# ---------------------------------------------------------------------------
# Closure

class Closure(Record):
    """The finite formula set the decision procedure works inside, numbered.

    Closed under subterms, single negations of non-negations, witness seeds
    S[n] true / E[n] false for every name occurring in the input, S-weakening
    of E members, and the one-step unfolding members of C.

    keys lists the members children first, one (class, fields, operand
    numbers) per distinct formula, and keys[root] is the desugared input;
    no member is built as a node.  len counts the members.
    """

    __slots__ = ("keys", "root", "names", "props")

    def __len__(self) -> int:
        return len(self.keys)


def closure(chi: Formula) -> Closure:
    """Number the closure of chi over the !/&/E/S/C core.

    chi is desugared first, from its keys, a parsed chi's program as it
    stands; D and B are outside the supported fragment.  The table of the
    desugared chi grows by the seeds, then by each member a rule adds.
    Every added member is numbered after its operands, so the numbering
    stays children first, and a member already present keeps its number.
    """
    table = _desugar(_keys(chi))
    keys = table.keys
    for k in range(len(keys) - 1, -1, -1):  # outermost first, as a walk of a tree meets them
        if keys[k][0] is D or keys[k][0] is B:
            raise UnsupportedFragmentError(
                f"closure is defined for the E/S/C fragment, got {_texts(keys[:k + 1], drop=True)[-1]}"
            )
    root = len(keys) - 1
    names = frozenset([fields[0] for cls, fields, _ in keys if cls is E or cls is S or cls is C])
    props = frozenset([fields[0] for cls, fields, _ in keys if cls is Prop])
    node = table.node
    if names:
        top, bot = node(Top, (), ()), node(Bot, (), ())
        for n in sorted(names):
            node(S, (n,), (top,))
            node(E, (n,), (bot,))
    k = 0
    while k < len(keys):  # the members added here are read in turn
        cls, fields, ks = keys[k]
        if cls is not Not:
            node(Not, (), (k,))
        if cls is E:
            node(S, fields, ks)
        elif cls is C:
            node(E, fields, ks)
            node(E, fields, (k,))
        k += 1
    return Closure(tuple(keys), root, names, props)
