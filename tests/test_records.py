"""Value semantics of the package's frozen records."""

import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil

import pytest

import fuzzymaps
from fuzzymaps import (
    I,
    ONE,
    ZERO,
    ClassViolation,
    ComponentTag,
    DomainError,
    EmptyUnion,
    FixedPoint,
    InvalidInput,
    LimitCycle,
    Matrix,
    Model,
    ModelClass,
    ParseError,
    Scalar,
    ShapeMismatch,
    SpecialMatrix,
    SpecialStateVector,
    ThresholdMode,
    ValueDomain,
    serialize_matrix,
)
from fuzzymaps.fileformats import ModelFile, ParsedStructure
from fuzzymaps.fre import FreSolution
from fuzzymaps.models import _ClassRule

SQUARE = Matrix(2, 2, [0, 1, 1, 0], "tri")
UNION = SpecialMatrix([(SQUARE, ComponentTag())])
MODEL = Model(ModelClass.SFCM, UNION, (("a", "b"),), ("expert 1",))
MODEL_TEXT = ("Model(model_class=<ModelClass.SFCM: 'SFCM'>, "
              "matrix=SpecialMatrix(special fuzzy square: 2x2/CM), "
              "labels=(('a', 'b'),), experts=('expert 1',))")
CM_ONLY, FUZZY, NONE = frozenset({"CM"}), frozenset({"fuzzy"}), frozenset()

# per record class: its fields, the arguments of one record and its repr;
# a shorter argument list with the record its defaults complete; and
# arguments that fail a check, with the error and its text
RECORDS = [
    pytest.param(
        Matrix, ("rows", "cols", "entries", "domain"),
        (1, 2, (ZERO, I), ValueDomain.STATE_TRI),
        "Matrix(1x2 state-tri: 0 I)",
        ((1, 2, (0, 0)), (1, 2, (0, 0), ValueDomain.ANY)),
        [((0, 2, []), ShapeMismatch, "matrix shape 0x2 is empty")],
        id="Matrix"),
    pytest.param(
        SpecialMatrix, ("components",), (((SQUARE, ComponentTag()),),),
        "SpecialMatrix(special fuzzy square: 2x2/CM)", None,
        [(([],), EmptyUnion, "a union needs at least one component")],
        id="SpecialMatrix"),
    pytest.param(
        SpecialStateVector, ("parts", "side"), (((ONE, ZERO),), "range"),
        "SpecialStateVector(range: [1 0])",
        ((((1, 0),),), (((1, 0),), "domain")),
        [(([[1]], "left"), ParseError, "unknown side 'left'")],
        id="SpecialStateVector"),
    pytest.param(
        FixedPoint, ("state",), ((ONE, ZERO),),
        "FixedPoint(state=(Scalar('1'), Scalar('0')))", None, [],
        id="FixedPoint"),
    pytest.param(
        LimitCycle, ("states", "period"), (((ONE,), (ZERO,)), 2),
        "LimitCycle(states=((Scalar('1'),), (Scalar('0'),)), period=2)",
        None, [], id="LimitCycle"),
    pytest.param(
        ComponentTag, ("kind", "algebra", "op"),
        ("RM", "neutrosophic", "maxmin"),
        "ComponentTag(kind='RM', algebra='neutrosophic', op='maxmin')",
        ((), ("CM", "fuzzy", "circle")),
        [(("XM",), ParseError, "unknown component kind 'XM'"),
         (("CM", "crisp"), ParseError, "unknown algebra 'crisp'"),
         (("CM", "fuzzy", "sum"), ParseError, "unknown operator 'sum'")],
        id="ComponentTag"),
    pytest.param(
        ThresholdMode, ("kind", "k"), ("neutrosophic", 0.5),
        "ThresholdMode(kind='neutrosophic', k=0.5)",
        (("fuzzy",), ("fuzzy", 0.0)),
        [(("crisp",), ParseError, "unknown threshold kind 'crisp'"),
         (("fuzzy", "0"), InvalidInput,
          "threshold k must be finite and real, got '0'")],
        id="ThresholdMode"),
    pytest.param(
        FreSolution, ("max_solution", "solvable", "residual"),
        (Matrix(1, 2, [0.3, 1]), True, Matrix(1, 2, [0.3, 0.9])),
        "FreSolution(max_solution=Matrix(1x2 any: 0.3 1), solvable=True, "
        "residual=Matrix(1x2 any: 0.3 0.9))", None, [], id="FreSolution"),
    pytest.param(
        Model, ("model_class", "matrix", "labels", "experts"),
        (ModelClass.SFCM, UNION, (("a", "b"),), ("expert 1",)),
        MODEL_TEXT, None,
        [((ModelClass.SFCM, UNION, ((), ()), ("x",)), ClassViolation,
          "2 label groups for 1 components"),
         ((ModelClass.SFCM, UNION, ((),), ()), ClassViolation,
          "0 expert names for 1 components")],
        id="Model"),
    pytest.param(
        ModelFile, ("name", "model"), ("demo", MODEL),
        f"ModelFile(name='demo', model={MODEL_TEXT})", None, [],
        id="ModelFile"),
    pytest.param(
        ParsedStructure,
        ("model_class", "name", "components", "labels", "experts"),
        (ModelClass.SFCM, "demo", ((SQUARE, ComponentTag()),), (None,),
         (None,)),
        "ParsedStructure(model_class=<ModelClass.SFCM: 'SFCM'>, "
        "name='demo', components=((Matrix(2x2 tri: 0 1; 1 0), "
        "ComponentTag(kind='CM', algebra='fuzzy', op='circle')),), "
        "labels=(None,), experts=(None,))", None, [], id="ParsedStructure"),
    pytest.param(
        _ClassRule, ("kinds", "algebras", "ops", "uniform_shape",
                     "require_kinds", "require_algebras"),
        (CM_ONLY, FUZZY, NONE, True, CM_ONLY, FUZZY),
        "_ClassRule(kinds=frozenset({'CM'}), algebras=frozenset({'fuzzy'}), "
        "ops=frozenset(), uniform_shape=True, require_kinds=frozenset({'CM'})"
        ", require_algebras=frozenset({'fuzzy'}))",
        ((CM_ONLY, FUZZY, NONE), (CM_ONLY, FUZZY, NONE, False, NONE, NONE)),
        [], id="_ClassRule"),
]

# per record class that was a hand-written immutable class before it
# became a _FrozenRecord: one record of its RECORDS row, pickled at
# protocol 2 by that class; it must still load equal
PICKLED = {
    Matrix: (
        b'\x80\x02cfuzzymaps.matrices\nMatrix\nq\x00(K\x01K\x02cfuzzymaps.'
        b'values\nScalar\nq\x01G\x00\x00\x00\x00\x00\x00\x00\x00G\x00\x00'
        b'\x00\x00\x00\x00\x00\x00\x86q\x02Rq\x03h\x01G\x00\x00\x00\x00'
        b'\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00\x86q\x04Rq\x05'
        b'\x86q\x06cfuzzymaps.values\nValueDomain\nq\x07X\t\x00\x00\x00sta'
        b'te-triq\x08\x85q\tRq\ntq\x0bRq\x0c.'),
    SpecialMatrix: (
        b'\x80\x02cfuzzymaps.special\nSpecialMatrix\nq\x00cfuzzymaps.matri'
        b'ces\nMatrix\nq\x01(K\x02K\x02(cfuzzymaps.values\nScalar\nq\x02G'
        b'\x00\x00\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00'
        b'\x00\x86q\x03Rq\x04h\x02G?\xf0\x00\x00\x00\x00\x00\x00G\x00\x00'
        b'\x00\x00\x00\x00\x00\x00\x86q\x05Rq\x06h\x02G?\xf0\x00\x00\x00'
        b'\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86q\x07Rq\x08h'
        b'\x02G\x00\x00\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00'
        b'\x00\x00\x86q\tRq\ntq\x0bcfuzzymaps.values\nValueDomain\nq\x0cX'
        b'\x03\x00\x00\x00triq\r\x85q\x0eRq\x0ftq\x10Rq\x11cfuzzymaps.spec'
        b'ial\nComponentTag\nq\x12X\x02\x00\x00\x00CMq\x13X\x05\x00\x00'
        b'\x00fuzzyq\x14X\x06\x00\x00\x00circleq\x15\x87q\x16Rq\x17\x86q'
        b'\x18\x85q\x19\x85q\x1aRq\x1b.'),
    SpecialStateVector: (
        b'\x80\x02cfuzzymaps.special\nSpecialStateVector\nq\x00cfuzzymaps.'
        b'values\nScalar\nq\x01G?\xf0\x00\x00\x00\x00\x00\x00G\x00\x00\x00'
        b'\x00\x00\x00\x00\x00\x86q\x02Rq\x03h\x01G\x00\x00\x00\x00\x00'
        b'\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86q\x04Rq\x05\x86'
        b'q\x06\x85q\x07X\x05\x00\x00\x00rangeq\x08\x86q\tRq\n.'),
}


def positional_match(record):
    """The fields that a class pattern with one capture per field binds."""
    cls = type(record)
    match len(cls.__match_args__), record:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
        case 4, cls(a, b, c, d):
            return (a, b, c, d)
        case 5, cls(a, b, c, d, e):
            return (a, b, c, d, e)
        case 6, cls(a, b, c, d, e, f):
            return (a, b, c, d, e, f)
    return None


@pytest.mark.parametrize("cls, names, args, text, defaults, errors", RECORDS)
def test_a_record_is_a_frozen_value_of_its_fields(cls, names, args, text,
                                                  defaults, errors):
    record = cls(*args)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in names) == args
    # keyword construction, and the defaults
    assert cls(**dict(zip(names, args))) == record
    if defaults is not None:
        given, full = defaults
        assert cls(*given) == cls(*full)
    # equal to an equal copy, and hashed alike
    twin = cls(*args)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record)
    # another record class with equal fields is another value
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert other != record and record != other
    assert repr(other) == f"Other{text}"
    for duplicate in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is cls and duplicate == record
        assert repr(duplicate) == text
    if cls in PICKLED:
        assert pickle.loads(PICKLED[cls]) == record
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert positional_match(record) == args
    for bad, error, message in errors:
        with pytest.raises(error) as raised:
            cls(*bad)
        assert str(raised.value) == message


def test_a_repr_names_a_value_that_has_no_text():
    # each entry shows as Scalar's repr shows it (values._named), where a
    # file, which cannot hold inf, refuses it
    row = Matrix(1, 2, [math.inf, 1])
    assert repr(row) == "Matrix(1x2 any: inf 1)"
    assert repr(SpecialStateVector([[1, Scalar(0, -math.inf)]])) == \
        "SpecialStateVector(domain: [1 -infI])"
    assert repr(FreSolution(row, False, row)) == (
        "FreSolution(max_solution=Matrix(1x2 any: inf 1), solvable=False, "
        "residual=Matrix(1x2 any: inf 1))")
    with pytest.raises(DomainError):
        serialize_matrix(row)


def test_only_the_records_of_a_run_are_dataclasses():
    # the other records are slotted classes, which an import builds
    # without generating and exec'ing each one's methods
    found = set()
    for info in pkgutil.iter_modules(fuzzymaps.__path__):
        module = importlib.import_module(f"fuzzymaps.{info.name}")
        found.update(f"{module.__name__}.{name}"
                     for name, value in vars(module).items()
                     if isinstance(value, type)
                     and value.__module__ == module.__name__
                     and dataclasses.is_dataclass(value))
    assert found == {"fuzzymaps.dynamics.HiddenPattern",
                     "fuzzymaps.dynamics.IterationRecord"}
