"""The package's result records: built by position or keyword, equal and
hashed by value within their class, printed as Class(field=value, ...),
frozen, and pickled by their fields."""

import copy
import pickle

import pytest

from namelogic import closure, parse_formula
from namelogic.decision import AxiomCheck, AxiomSuiteReport, EliminationState, SatResult
from namelogic.equivalence import BisimRelation, MorphismCheckReport, Violation
from namelogic.formula import Closure
from namelogic.kripke import Diagnostic, KripkeModel, TruthResult
from namelogic.neighborhood import NeighborhoodModel

_CL = closure(parse_formula("S[n] p"))
_CHECK = AxiomCheck("AX_N", "T(S)", parse_formula("S[n] p -> p"), "valid", True)

# class, its fields, two distinct value tuples, the defaulted fields' values,
# and the repr of the first
RECORDS = [
    (Closure, ("keys", "root", "names", "props"),
     (_CL.keys, _CL.root, _CL.names, _CL.props),
     (_CL.keys, 0, _CL.names, _CL.props), {}, None),
    (Diagnostic, ("level", "code", "message"),
     ("error", "undeclared-state", "naming entry at undeclared state 'z'"),
     ("warning", "undeclared-state", "naming entry at undeclared state 'z'"), {},
     "Diagnostic(level='error', code='undeclared-state', message=\"naming entry at undeclared state 'z'\")"),
    (TruthResult, ("value", "witness"), (True, {"agent": "a"}), (False, None), {"witness": None},
     "TruthResult(value=True, witness={'agent': 'a'})"),
    (SatResult, ("verdict", "model", "state", "stats"),
     ("unsat", None, None, {"rounds": 2, "initial_atoms": 4}), ("unsat", None, None, {"rounds": 3}), {},
     "SatResult(verdict='unsat', model=None, state=None, stats={'rounds': 2, 'initial_atoms': 4})"),
    (EliminationState, ("surviving", "round", "eliminated"),
     ([3, 1], 2, [(0, "C[n] p claimed")]), ([3], 2, [(0, "C[n] p claimed")]), {},
     "EliminationState(surviving=[3, 1], round=2, eliminated=[(0, 'C[n] p claimed')])"),
    (AxiomCheck, ("system", "schema", "instance", "method", "ok", "detail"),
     ("AX_N", "T(S)", _CHECK.instance, "valid", True, ""),
     ("AX_N", "T(S)", _CHECK.instance, "valid", False, "refuted"), {"detail": ""},
     "AxiomCheck(system='AX_N', schema='T(S)', instance=Implies(left=S(name='n', arg=Prop(name='p')), "
     "right=Prop(name='p')), method='valid', ok=True, detail='')"),
    (AxiomSuiteReport, ("mode", "checks", "models_checked"), ("general", (_CHECK,), 0),
     ("epistemic", (_CHECK,), 0), {},
     "AxiomSuiteReport(mode='general', checks=(AxiomCheck(system='AX_N', schema='T(S)', "
     "instance=Implies(left=S(name='n', arg=Prop(name='p')), right=Prop(name='p')), method='valid', "
     "ok=True, detail=''),), models_checked=0)"),
    (Violation, ("state", "name", "condition", "detail"),
     (("w", "v"), None, "atoms", "'w' and 'v' differ on atoms"), ("w", "n", "there", "no match"), {},
     "Violation(state=('w', 'v'), name=None, condition='atoms', detail=\"'w' and 'v' differ on atoms\")"),
    (MorphismCheckReport, ("ok", "violations"), (True, ()), (False, ()), {},
     "MorphismCheckReport(ok=True, violations=())"),
    (BisimRelation, ("pairs",), (frozenset([("w", "w")]),), (frozenset(),), {},
     "BisimRelation(pairs=frozenset({('w', 'w')}))"),
    (NeighborhoodModel, ("states", "names", "nu", "valuation"),
     (frozenset({"w"}), frozenset({"n"}), {("w", "n"): frozenset({frozenset({"w"})})}, {"p": frozenset({"w"})}),
     (frozenset({"w"}), frozenset({"n"}), {}, {"p": frozenset({"w"})}), {},
     "NeighborhoodModel(states=frozenset({'w'}), names=frozenset({'n'}), "
     "nu={('w', 'n'): frozenset({frozenset({'w'})})}, valuation={'p': frozenset({'w'})})"),
]
# a list or a dict among the fields makes these unhashable
UNHASHABLE = (SatResult, EliminationState, NeighborhoodModel)


def _ids(records):
    return [cls.__name__ for cls, *_ in records]


@pytest.mark.parametrize("cls, fields, values, other, defaults, text", RECORDS, ids=_ids(RECORDS))
def test_construction_by_position_and_keyword(cls, fields, values, other, defaults, text):
    r = cls(*values)
    assert tuple(getattr(r, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == r
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == r
    required = len(fields) - len(defaults)
    left_out = cls(*values[:required])
    assert all(getattr(left_out, f) == v for f, v in defaults.items())


@pytest.mark.parametrize("cls, fields, values, other, defaults, text", RECORDS, ids=_ids(RECORDS))
def test_missing_extra_or_repeated_fields_raise(cls, fields, values, other, defaults, text):
    required = len(fields) - len(defaults)
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls, fields, values, other, defaults, text", RECORDS, ids=_ids(RECORDS))
def test_equality_and_hash_by_value(cls, fields, values, other, defaults, text):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != values
    for cls2, _, values2, *_ in RECORDS:
        if cls2 is not cls:
            assert a != cls2(*values2) and not a == cls2(*values2)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, values, other, defaults, text", RECORDS, ids=_ids(RECORDS))
def test_records_are_frozen(cls, fields, values, other, defaults, text):
    r = cls(*values)
    for field in (fields[0], "unknown"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(r, field, values[0])
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(r, field)
    assert getattr(r, fields[0]) == values[0]


@pytest.mark.parametrize("cls, fields, values, other, defaults, text", RECORDS, ids=_ids(RECORDS))
def test_pickle_and_copy_round_trip(cls, fields, values, other, defaults, text):
    r = cls(*values)
    for back in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(back) is cls and back == r
        assert tuple(getattr(back, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields, values, other, defaults, text",
                         [r for r in RECORDS if r[-1] is not None], ids=_ids(r for r in RECORDS if r[-1]))
def test_repr_texts_are_pinned(cls, fields, values, other, defaults, text):
    assert repr(cls(*values)) == text


def test_truth_result_compares_as_its_value():
    # a witness is best-effort and never part of equality
    assert TruthResult(True, "x") == TruthResult(True) == True
    assert TruthResult(False, "x") == False
    assert TruthResult(True) != False and TruthResult(True) != 1
    assert hash(TruthResult(True, "x")) == hash(True)
    assert bool(TruthResult(True)) and not TruthResult(False)


def test_custom_members_are_kept():
    assert len(_CL) == len(_CL.keys)
    assert SatResult("sat", None, None, {}) and not SatResult("unsat", None, None, {})
    assert SatResult("unsat", None, None, {"b": 1, "a": 2}).to_dict() == {
        "verdict": "unsat", "model": None, "state": None, "stats": {"a": 2, "b": 1}}
    bad = AxiomCheck("AX_N", "T(S)", _CHECK.instance, "valid", False)
    report = AxiomSuiteReport("general", (_CHECK, bad), 0)
    assert not report.ok and report.failures() == [bad]
    assert AxiomSuiteReport("general", (_CHECK,), 0).ok
    assert MorphismCheckReport(True, ()) and not MorphismCheckReport(False, ())
    rel = BisimRelation(frozenset([("w", "v"), ("u", "u")]))
    assert len(rel) == 2 and ("w", "v") in rel and ["w", "v"] in rel and ("v", "w") not in rel
    assert list(rel) == [("u", "u"), ("w", "v")]


def test_a_cached_index_is_no_field():
    m = NeighborhoodModel(*RECORDS[-1][2])
    before = repr(m)
    assert m._index is m._index
    assert repr(m) == before and m == NeighborhoodModel(*RECORDS[-1][2])
    assert pickle.loads(pickle.dumps(m)) == m


def test_formulas_and_models_are_frozen_with_the_same_messages():
    f, m = parse_formula("E[n] p"), KripkeModel({"w"}, {"a"}, {"n"}, {}, {}, {})
    with pytest.raises(AttributeError, match="^cannot assign to field 'name'$"):
        f.name = "m"
    with pytest.raises(AttributeError, match="^cannot delete field 'name'$"):
        del f.name
    with pytest.raises(AttributeError, match="^cannot assign to field 'states'$"):
        m.states = frozenset()
    assert f.name == "n" and m.states == {"w"}
