"""Every entry point that takes a name from a closed vocabulary parses it
with one rule: a member (or, for an Enum, its text value) is accepted,
and anything else raises ParseError("unknown <what> ...")."""

import pytest

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    I,
    ONE,
    RANGE_SIDE,
    RM,
    TCONORM_KINDS,
    TNORM_KINDS,
    ZERO,
    ComponentTag,
    Matrix,
    ModelClass,
    OrderPolicy,
    ParseError,
    SpecialStateVector,
    ThresholdMode,
    ValueDomain,
    build_model,
    elementwise_min,
    maxmin_compose,
    render_trace,
    run,
    scalar_min,
    tconorm,
    tnorm,
)
from fuzzymaps.special import apply_part

SQ = Matrix.from_rows([[0, 1], [1, 0]], ValueDomain.TRI)
MODEL = build_model(ModelClass.SFCM, [(SQ, ComponentTag())])
SEED = SpecialStateVector([(ONE, ZERO)])
PATTERN = run(MODEL, SEED)
HALF = Matrix.from_rows([[0.5]])
INDET = Matrix.from_rows([[I]])

POLICIES = list(OrderPolicy) + [p.value for p in OrderPolicy]


def _own_policy(name):
    """The policy `name` spells, or the book's for a name that spells none:
    a run made at it may claim `name` when its trace is rendered."""
    return name if name in POLICIES else OrderPolicy.BOOK_DEFAULT


# id: (call with the name, <what> in the error, bad names, accepted names)
ENTRY_POINTS = {
    "ValueDomain.parse": (ValueDomain.parse, "value domain",
                          ["tri-state", None],
                          list(ValueDomain) + [d.value for d in ValueDomain]),
    "OrderPolicy.parse": (OrderPolicy.parse, "order policy",
                          ["alphabetical", 1], POLICIES),
    "ModelClass.parse": (ModelClass.parse, "model class", ["SXYZ", 5],
                         [ModelClass.SSHM, "SSHM", " sshm "]),
    # a value lookup fails as parse does, and takes no spelling parse
    # adds to the member values
    "ValueDomain()": (ValueDomain, "value domain", ["tri-state", "UNIT"],
                      list(ValueDomain) + [d.value for d in ValueDomain]),
    "OrderPolicy()": (OrderPolicy, "order policy",
                      ["alphabetical", "BOOK_DEFAULT", 1], POLICIES),
    "ModelClass()": (ModelClass, "model class", ["SXYZ", " sshm ", "sshm"],
                     [ModelClass.SSHM, "SSHM"]),
    "ComponentTag.kind": (lambda n: ComponentTag(kind=n), "component kind",
                          ["XY", "cm"], [CM, RM]),
    "ComponentTag.algebra": (lambda n: ComponentTag(algebra=n), "algebra",
                             ["classical"], ["fuzzy", "neutrosophic"]),
    "ComponentTag.op": (lambda n: ComponentTag(op=n), "operator",
                        ["convolve"], ["circle", "maxmin", "minmax"]),
    "SpecialStateVector": (lambda n: SpecialStateVector([(ONE,)], side=n),
                           "side", ["up"], [DOMAIN_SIDE, RANGE_SIDE]),
    "ThresholdMode": (lambda n: ThresholdMode(n, 0.0), "threshold kind",
                      ["crisp"], ["fuzzy", "neutrosophic"]),
    "tnorm": (lambda n: tnorm(n, 0.5, 0.5), "t-norm kind", ["fancy"],
              list(TNORM_KINDS)),
    "tconorm": (lambda n: tconorm(n, 0.5, 0.5), "t-conorm kind", ["fancy"],
                list(TCONORM_KINDS)),
    "apply_part": (lambda n: apply_part((ONE, ZERO), SQ, n), "operator",
                   ["bogus"], ["circle", "maxmin", "minmax"]),
    "build_model": (lambda n: build_model(n, [(SQ, ComponentTag())]),
                    "model class", ["SFXM", 5, None],
                    [ModelClass.SFCM, "sfcm"]),
    "run policy": (lambda n: run(MODEL, SEED, policy=n), "order policy",
                   ["bogus", None], POLICIES),
    "maxmin_compose policy": (lambda n: maxmin_compose(HALF, INDET, policy=n),
                              "order policy", ["bogus"], POLICIES),
    "elementwise_min policy": (
        lambda n: elementwise_min(HALF, INDET, policy=n), "order policy",
        ["bogus"], POLICIES),
    "scalar_min policy": (lambda n: scalar_min(0.5, I, policy=n),
                          "order policy", ["bogus"], POLICIES),
    # the benchmark's call may claim its run's policy, read by this rule
    "render_trace policy": (
        lambda n: render_trace(run(MODEL, SEED, policy=_own_policy(n)),
                               MODEL.matrix, policy=n),
        "order policy", ["bogus"], POLICIES),
    "render_trace model_class": (
        lambda n: render_trace(PATTERN, MODEL.matrix, model_class=n),
        "model class", ["SXYZ", 5], [ModelClass.SFCM, "SFCM", " sfcm "]),
    "Matrix domain": (lambda n: Matrix(1, 2, [0, 1], domain=n),
                      "value domain", ["bogus", None],
                      [ValueDomain.UNIT, "unit"]),
}

BAD = [(entry, bad) for entry, (_, _, bads, _) in ENTRY_POINTS.items()
       for bad in bads]
GOOD = [(entry, good) for entry, (_, _, _, goods) in ENTRY_POINTS.items()
        for good in goods]


@pytest.mark.parametrize("entry, bad", BAD, ids=[f"{e}-{b!r}" for e, b in BAD])
def test_an_unknown_name_is_a_parse_error(entry, bad):
    call, what, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ParseError, match=f"unknown {what} {bad!r}"):
        call(bad)


@pytest.mark.parametrize("entry, good", GOOD,
                         ids=[f"{e}-{g!r}" for e, g in GOOD])
def test_a_member_or_its_text_is_accepted(entry, good):
    call = ENTRY_POINTS[entry][0]
    call(good)


@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS
                                   if e.endswith("policy")])
@pytest.mark.parametrize("policy", list(OrderPolicy))
def test_a_policy_text_gives_its_members_result(entry, policy):
    call = ENTRY_POINTS[entry][0]
    assert call(policy.value) == call(policy)


def test_indeterminacy_text_is_honoured_not_run_as_the_book_policy():
    dominant = OrderPolicy.INDETERMINACY_DOMINANT
    assert elementwise_min(HALF, INDET, policy="indeterminacy") \
        == elementwise_min(HALF, INDET, policy=dominant) == INDET
    assert elementwise_min(HALF, INDET, policy="book") == HALF
    # a neutrosophic max-min square where min(0, I) decides the run
    square = Matrix.from_rows([[0.5, I], [I, 0.3]], ValueDomain.NEUTRO_UNIT)
    model = build_model(ModelClass.SSHM, [(square, ComponentTag(
        algebra="neutrosophic", op="maxmin"))])
    dominant_run = run(model, SEED, policy=dominant)
    assert run(model, SEED, policy="indeterminacy") == dominant_run
    assert run(model, SEED, policy="book") != dominant_run


@pytest.mark.parametrize("parse", [ValueDomain.parse, OrderPolicy.parse,
                                   ModelClass.parse, ValueDomain,
                                   OrderPolicy, ModelClass])
def test_an_unhashable_name_is_unknown(parse):
    with pytest.raises(ParseError, match=r"^unknown .* \['book'\]$"):
        parse(["book"])
