"""Value semantics of the package's frozen records."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import fuzzymaps
from fuzzymaps import (
    ONE,
    ZERO,
    ClassViolation,
    ComponentTag,
    FixedPoint,
    InvalidInput,
    LimitCycle,
    Matrix,
    Model,
    ModelClass,
    ParseError,
    SpecialMatrix,
    ThresholdMode,
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
