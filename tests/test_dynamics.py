"""Iteration engine: thresholded updating, cycle detection, worked runs.

All golden trajectories here were recomputed step by step with the scalar
rules before being frozen into assertions. Comments give the raw activation
sums the thresholds are cutting.
"""

import copy
import math
import pathlib
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    ComponentTag,
    FixedPoint,
    HiddenPattern,
    InvalidInput,
    IterationCapExceeded,
    IterationRecord,
    LimitCycle,
    Matrix,
    NonCMComponent,
    NonRMComponent,
    OrderPolicy,
    Scalar,
    ValueDomain,
    SpecialMatrix,
    SpecialStateVector,
    ThresholdMode,
    build_model,
    parse_matrix_text,
    parse_model_text,
    parse_scalar,
    parse_trace,
    parse_vector_text,
    render_trace,
    run_cm,
    run,
    run_mixed,
    run_rm,
    transpose,
    verify_trace,
)
from fuzzymaps.dynamics import (
    Recurrence,
    _field_width,
    _kernels,
    landing_side,
    validate_input,
)
from replay import assert_capped_run_replays

TRI = ValueDomain.TRI
UNIT = ValueDomain.UNIT
BIPOLAR = ValueDomain.BIPOLAR
NTRI = ValueDomain.NEUTRO_TRI
INDET = parse_scalar("I")
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def tri(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=TRI)


def ntri(rows):
    return Matrix.from_rows(
        [[parse_scalar(str(v)) for v in r] for r in rows], domain=NTRI)


def unitm(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=UNIT)


def crisp(vals):
    return tuple(Scalar(v) for v in vals)


def seed(*parts, side=DOMAIN_SIDE):
    return SpecialStateVector([crisp(p) for p in parts], side=side)


# ------------------------------------------------------------ cut and pin

def test_threshold_update_pins_seeded_coordinates():
    # neutrosophic square seeded at nodes 1 and 2: the raw pass gives
    # [I 0 1+I 1]; the cut maps I and the tied 1+I to I, and the pin puts
    # the seeded nodes back to 1 over an I and a 0
    m = SpecialMatrix([(ntri([[0, 0, 1, 1], ["I", 0, "I", 0],
                              [0, 0, 0, 0], [0, 0, 0, 0]]),
                        ComponentTag(algebra="neutrosophic"))])
    got = run_cm(m, seed([1, 1, 0, 0]))
    first = got.trace[0]
    assert first.raw[0] == tuple(parse_scalar(t) for t in
                                       ("I", "0", "1+I", "1"))
    assert first.thresholded[0] == tuple(parse_scalar(t) for t in
                                               ("I", "0", "I", "1"))
    assert first.updated[0] == tuple(parse_scalar(t) for t in
                                           ("1", "1", "I", "1"))


def test_threshold_update_skips_other_side():
    # domain seed at coordinate 1; the range landing cuts its coordinate 1
    # to 0 and stays unpinned, the domain landing after it is pinned
    m = SpecialMatrix([(tri([[-1, -1, 0], [0, 1, 1]]), ComponentTag(kind=RM))])
    got = run_rm(m, seed([1, 0]))
    to_range, to_domain = got.trace[0], got.trace[1]
    assert "step 1 component=1 side=range " in render_trace(got)
    assert to_range.thresholded[0] == crisp([0, 0, 0])
    assert to_range.updated[0] == crisp([0, 0, 0])
    assert to_domain.thresholded[0] == crisp([0, 0])
    assert to_domain.updated[0] == crisp([1, 0])
    assert got.outcomes[0] == FixedPoint((crisp([1, 0]), crisp([0, 0, 0])))


# ------------------------------------------------------------- recurrence

@pytest.mark.parametrize("kind, seeded, step, side", [
    (CM, DOMAIN_SIDE, 1, DOMAIN_SIDE),
    (CM, DOMAIN_SIDE, 2, DOMAIN_SIDE),
    (CM, RANGE_SIDE, 1, RANGE_SIDE),
    (CM, RANGE_SIDE, 2, RANGE_SIDE),
    (RM, DOMAIN_SIDE, 1, RANGE_SIDE),
    (RM, DOMAIN_SIDE, 2, DOMAIN_SIDE),
    (RM, RANGE_SIDE, 1, DOMAIN_SIDE),
    (RM, RANGE_SIDE, 2, RANGE_SIDE),
    (RM, DOMAIN_SIDE, 7, RANGE_SIDE),
    (RM, RANGE_SIDE, 10, RANGE_SIDE),
])
def test_landing_side(kind, seeded, step, side):
    # an RM part is on the far side after an odd number of steps; a CM
    # part never leaves the seeded side
    assert landing_side(kind, seeded, step) == side


@pytest.mark.parametrize("kind", [CM, RM])
@pytest.mark.parametrize("seeded", [DOMAIN_SIDE, RANGE_SIDE])
def test_a_round_ends_on_each_seeded_side_landing(kind, seeded):
    # a run steps one round of its kernels at a time and compares the state
    # that ends it: the round ends are exactly the steps that land on the
    # seeded side
    rounds = len(_kernels(tri([[0, 1], [1, 0]]), ComponentTag(kind=kind), 0.0,
                          (), OrderPolicy.BOOK_DEFAULT, seeded))
    assert [step % rounds == 0 for step in range(9)] == [
        landing_side(kind, seeded, step) == seeded for step in range(9)]


def first_pattern(history, kind=CM):
    """Feed `history` (a domain-seeded component's states, one per step
    from the seed) to the recurrence rule once per round, the state that
    ends it: every step of a CM component, every second of an RM one,
    whose partners are read from the recorded next step. The pattern of
    the first recurrence, or None while every compared state is new."""
    recurrence = Recurrence(kind, DOMAIN_SIDE, history[0])
    width = 1 if kind == CM else 2
    for step in range(width, len(history), width):
        if recurrence.closes(step, history[step]):
            return Recurrence.outcome(recurrence.cycle(
                history[step], lambda t: history[t + 1]))
    return None


def test_detect_cycle_fixed_point():
    a, b = (Scalar(0),), (Scalar(1),)
    assert first_pattern([a, b, b]) == FixedPoint(b)
    assert first_pattern([a]) is None
    assert first_pattern([a, b]) is None


def test_detect_cycle_period_two():
    a, b = (Scalar(0),), (Scalar(1),)
    got = first_pattern([a, b, a])
    assert isinstance(got, LimitCycle)
    assert got.period == 2
    assert got.states == (a, b)


def test_detect_cycle_with_transient_prefix():
    a, b, c = (Scalar(0),), (Scalar(1),), (Scalar(0.5),)
    got = first_pattern([c, a, b, a])
    assert got.period == 2
    assert got.states == (a, b)


def test_detect_cycle_pairs_each_rm_state_with_the_next_step():
    # only the domain states of even steps are compared; each is paired
    # with the range state recorded one step later, which is never compared
    d0, d1 = (Scalar(0),), (Scalar(1),)
    r0, r1 = (Scalar(0), Scalar(0)), (Scalar(1), Scalar(0))
    assert first_pattern([d0, r0, d0], RM) == FixedPoint((d0, r0))
    assert first_pattern([d0, r0, d1, r0], RM) is None
    got = first_pattern([d0, r0, d1, r1, d0, r0], RM)
    assert got == LimitCycle(((d0, r0), (d1, r1)), 2)


class ScanRecurrence:
    """The reference for Recurrence: each compared state keyed by the step
    that recorded it, and a cycle read by a scan over every (state, step)
    pair for those from the recurring state's step on."""

    def __init__(self, kind, side, first):
        self.kind, self.side, self.seen = kind, side, {first: 0}

    def closes(self, step, state):
        return self.seen.setdefault(state, step) != step

    def cycle(self, state, far=None):
        start = self.seen[state]
        cycle = [(s, t) for s, t in self.seen.items() if t >= start]
        if self.kind == CM:
            return [s for s, _ in cycle]
        pairs = [(s, far(t)) for s, t in cycle]
        return pairs if self.side == DOMAIN_SIDE else [p[::-1] for p in pairs]


def reference_outcome(cycle):
    return (FixedPoint(cycle[0]) if len(cycle) == 1
            else LimitCycle(tuple(cycle), len(cycle)))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from([CM, RM]),
       side=st.sampled_from([DOMAIN_SIDE, RANGE_SIDE]),
       lead=st.integers(0, 4), period=st.integers(1, 5), data=st.data())
def test_recurrence_matches_a_scan_over_its_rounds(kind, side, lead, period,
                                                   data):
    # a history of `lead` rounds before a cycle of `period` rounds, whose
    # last round recurs on the cycle's first state: with lead 0 the cycle
    # closes on the seed itself. States are hashable and each round's is
    # new until the last; an RM round is two steps, and the far-side state
    # of each step is its own value, so a pairing at any other step differs
    states = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), unique=True,
        min_size=lead + period, max_size=lead + period))
    rounds = states + [states[lead]]
    width = 1 if kind == CM else 2
    far_states = {t: ("far", t) for t in range(width * len(rounds))}
    far = far_states.__getitem__
    got, want = Recurrence(kind, side, rounds[0]), ScanRecurrence(
        kind, side, rounds[0])
    for r, state in enumerate(rounds[1:], 1):
        closed = got.closes(width * r, state)
        assert closed == want.closes(width * r, state)
        assert closed == (r == len(rounds) - 1)
    cycle = got.cycle(rounds[-1], far)
    assert list(cycle) == want.cycle(rounds[-1], far)
    assert len(cycle) == period
    assert Recurrence.outcome(cycle) == reference_outcome(
        want.cycle(rounds[-1], far))


# --------------------------------------------------- single square signed map

A_SQ = tri([[0, 1, 0, -1, 0], [-1, 0, -1, 0, 1], [0, -1, 0, 1, -1],
            [0, 0, 0, 0, 1], [1, -1, 1, 0, 0]])


def test_square_map_two_node_seed():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    got = run_cm(m, seed([0, 1, 0, 0, 1]))
    assert got.outcomes[0] == FixedPoint(crisp([0, 1, 0, 0, 1]))
    assert got.steps == 1


def test_square_map_single_node_seed():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    got = run_cm(m, seed([0, 0, 1, 0, 0]))
    assert got.outcomes[0] == FixedPoint(crisp([0, 0, 1, 1, 0]))


def test_square_map_three_node_seed():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    got = run_cm(m, seed([1, 0, 1, 0, 1]))
    # raw pass gives [1 -1 1 0 -1]; cut and re-pin keeps the seed
    assert got.outcomes[0] == FixedPoint(crisp([1, 0, 1, 0, 1]))
    assert got.trace[0].raw[0] == crisp([1, -1, 1, 0, -1])


def test_all_zero_input_is_fixed():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    got = run_cm(m, seed([0, 0, 0, 0, 0]))
    assert got.outcomes[0] == FixedPoint(crisp([0, 0, 0, 0, 0]))


def test_seeded_coordinates_stay_on_every_step():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    got = run_cm(m, seed([0, 1, 0, 0, 1]))
    for rec in got.trace:
        part = rec.updated[0]
        assert part[1] == Scalar(1)
        assert part[4] == Scalar(1)


# ---------------------------------------------- single rectangular signed map

B_RECT = tri([[1, -1, 0, 1], [0, 1, 0, 0], [-1, 0, 1, 0], [0, 0, 0, -1],
              [0, 1, 1, 0], [1, 1, -1, 1]])


def test_rect_map_domain_seed_settles_to_pair():
    m = SpecialMatrix([(B_RECT, ComponentTag(kind=RM))])
    got = run_rm(m, seed([1, 0, 1, 0, 1, 1]))
    out = got.outcomes[0]
    assert isinstance(out, FixedPoint)
    dom, rng = out.state
    assert dom == crisp([1, 1, 1, 0, 1, 1])
    assert rng == crisp([1, 1, 1, 1])


def test_rect_map_range_seed_settles_to_pair():
    m = SpecialMatrix([(B_RECT, ComponentTag(kind=RM))])
    got = run_rm(m, seed([1, 0, 0, 1], side=RANGE_SIDE))
    dom, rng = got.outcomes[0].state
    assert dom == crisp([1, 0, 0, 0, 0, 1])
    assert rng == crisp([1, 0, 0, 1])
    assert got.side == RANGE_SIDE


def test_rm_alternates_sides_in_trace():
    m = SpecialMatrix([(B_RECT, ComponentTag(kind=RM))])
    got = run_rm(m, seed([1, 0, 1, 0, 1, 1]))
    sides = [s["side"] for s in parse_trace(render_trace(got))["steps"]]
    assert sides[:2] == [RANGE_SIDE, DOMAIN_SIDE]
    # the part lengths alternate with them: range 4, domain 6
    assert [len(rec.updated[0]) for rec in got.trace[:2]] == [4, 6]


# ------------------------------------------------- five-expert square unions

T_UNION = [
    tri([[0, 1, 0, 0, -1], [1, 0, 1, 1, 0], [0, 1, 0, -1, 0],
         [0, 0, 0, 0, 1], [1, 0, -1, 0, 0]]),
    tri([[0, 0, 1, 0, 1], [-1, 0, 0, -1, 0], [0, 0, 0, 1, 0],
         [1, 0, 0, 0, 1], [0, 1, 0, 0, 0]]),
    tri([[0, 1, 0, 1, 0], [0, 0, -1, 0, 1], [1, 0, 0, 1, 0],
         [0, 1, 0, 0, 1], [1, 0, 0, 1, 0]]),
    tri([[0, 0, 0, 1, 1], [-1, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 1, 0, 0, -1], [1, -1, 0, 1, 0]]),
    tri([[0, 1, 0, -1, 0], [1, 0, -1, 0, 0], [0, 1, 0, -1, 0],
         [0, 0, -1, 0, 1], [-1, 0, 0, 1, 0]]),
]


def test_five_expert_union_settles_componentwise():
    m = SpecialMatrix([(t, ComponentTag()) for t in T_UNION])
    x = seed([0, 1, 0, 0, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 0],
             [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
    got = run_cm(m, x)
    want = ([1, 1, 1, 0, 0], [1, 1, 1, 0, 1], [1, 1, 1, 1, 1],
            [0, 1, 1, 1, 0], [1, 1, 1, 0, 0])
    for out, fp in zip(got.outcomes, want):
        assert out == FixedPoint(crisp(fp))
    assert got.steps == 3
    assert got.settled_steps == (3, 2, 3, 3, 3)


def test_five_expert_union_intermediate_raws():
    m = SpecialMatrix([(t, ComponentTag()) for t in T_UNION])
    x = seed([0, 1, 0, 0, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 0],
             [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
    got = run_cm(m, x)
    first = got.trace[0]
    assert [p for p in first.raw] == [
        crisp([1, 0, 1, 1, 0]), crisp([0, 1, 1, 0, 1]),
        crisp([1, 0, 0, 1, 0]), crisp([-1, 0, 1, 0, 0]),
        crisp([0, 1, 0, -1, 0])]
    assert [p for p in first.updated] == [
        crisp([1, 1, 1, 1, 0]), crisp([1, 1, 1, 0, 1]),
        crisp([1, 0, 1, 1, 0]), crisp([0, 1, 1, 0, 0]),
        crisp([0, 1, 1, 0, 0])]
    second = got.trace[1]
    assert [p for p in second.raw] == [
        crisp([1, 2, 1, 0, 0]), crisp([-1, 1, 1, 0, 1]),
        crisp([1, 2, 0, 2, 1]), crisp([-1, 0, 1, 1, 0]),
        crisp([1, 1, -1, -1, 0])]


def test_shared_node_union_lights_everything():
    ms = [
        tri([[0, 1, 1, 1, 0], [1, 0, 1, 0, 1], [1, 1, 0, 1, 0],
             [1, 0, 0, 0, 1], [1, 1, 0, 0, 0]]),
        tri([[0, 1, 0, 1, 0], [1, 0, 1, 0, 1], [0, 1, 0, 1, 0],
             [1, 0, 0, 0, 1], [0, 1, 1, 0, 0]]),
        tri([[0, 1, 0, 0, 1], [1, 0, 1, 0, 0], [1, 0, 0, 0, 1],
             [0, 0, 1, 0, 1], [1, 0, 0, 1, 0]]),
        tri([[0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 1, 0, 0, 1],
             [0, 1, 1, 0, 1], [1, 0, 1, 0, 0]]),
        tri([[0, 0, 0, 1, 1], [1, 0, 0, 0, 1], [0, 0, 0, 1, 1],
             [1, 1, 0, 0, 0], [0, 0, 1, 1, 0]]),
    ]
    m = SpecialMatrix([(t, ComponentTag()) for t in ms])
    got = run_cm(m, seed(*([[0, 1, 0, 0, 0]] * 5)))
    ones = FixedPoint(crisp([1, 1, 1, 1, 1]))
    assert all(out == ones for out in got.outcomes)
    # second raw pass on the first expert map: column sums over lit nodes
    assert got.trace[1].raw[0] == crisp([3, 3, 2, 2, 1])
    # every component reads all-ones by the third cut state
    for part in got.trace[2].updated:
        assert part == crisp([1, 1, 1, 1, 1])


def test_varied_size_union_lights_everything():
    ms = [
        tri([[0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 0]]),
        tri([[0, 1, 1, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 1, 1],
             [1, 1, 1, 0, 1], [0, 0, 1, 1, 0]]),
        tri([[0, 1, 1, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0]]),
        tri([[0, 1, 1, 1, 0, 1], [1, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1],
             [1, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 1], [0, 1, 1, 1, 1, 0]]),
    ]
    m = SpecialMatrix([(t, ComponentTag()) for t in ms])
    got = run_cm(m, seed([1, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0],
                         [1, 0, 0, 0, 0, 0]))
    for out, n in zip(got.outcomes, (4, 5, 4, 6)):
        assert out == FixedPoint(crisp([1] * n))


# ------------------------------------------------ three-expert rectangular run

R_UNION = [
    tri([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
         [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1],
         [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]),
    tri([[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0],
         [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 0, 1], [0, 0, 0, 1, 1]]),
    tri([[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
         [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
         [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]),
]


def test_three_expert_rect_union_pairs():
    m = SpecialMatrix([(r, ComponentTag(kind=RM)) for r in R_UNION])
    got = run_rm(m, seed(*([[1, 0, 0, 0, 0, 0, 0, 0]] * 3)))
    want = [
        ([1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1]),
        ([1, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1]),
        ([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0]),
    ]
    for out, (dom, rng) in zip(got.outcomes, want):
        assert out == FixedPoint((crisp(dom), crisp(rng)))
    assert got.steps == 4
    assert got.settled_steps == (4, 4, 2)


# -------------------------------------------------- six-component mixed union

MIX_COMPONENTS = [
    (tri([[0, 0, 0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1],
          [0, 0, 0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 0, 0, 0],
          [1, 0, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 1, 0, 0],
          [0, 1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 0, 0, 1, 0]]),
     ComponentTag()),
    (tri([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0],
          [1, 0, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]),
     ComponentTag()),
    (ntri([["0", "0", "1", "0", "0", "I", "1"],
           ["0", "0", "0", "1", "0", "0", "0"],
           ["0", "0", "0", "0", "0", "0", "1"],
           ["1", "0", "0", "0", "0", "0", "0"],
           ["1", "0", "0", "0", "0", "0", "0"],
           ["0", "1", "0", "0", "1", "0", "I"],
           ["0", "0", "I", "0", "0", "0", "0"]]),
     ComponentTag(algebra="neutrosophic")),
    (tri([[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
          [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1],
          [1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]),
     ComponentTag(kind=RM)),
    (tri([[0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
          [0, 1, 0, 0], [0, 0, 1, 1]]),
     ComponentTag(kind=RM)),
    (ntri([["0", "0", "0", "1"], ["0", "0", "1", "0"],
           ["0", "0", "1", "0"], ["1", "1", "0", "0"],
           ["0", "0", "1", "0"], ["0", "0", "0", "I"],
           ["0", "0", "0", "1"]]),
     ComponentTag(kind=RM, algebra="neutrosophic")),
]


def test_six_component_mixture_full_run():
    # note the two squares here keep their published self-loops; the bare
    # engine does not police diagonals
    m = SpecialMatrix(MIX_COMPONENTS)
    x = seed([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
             [0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1],
             [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0])
    got = run_mixed(m, x)
    first = got.trace[0].updated
    assert first[0] == crisp([1, 0, 0, 1, 1, 0, 0, 0])
    assert first[1] == crisp([1, 0, 1, 0, 1, 0])
    assert first[2] == crisp([0, 1, 0, 1, 0, 0, 0])
    assert first[3] == crisp([0, 0, 0, 1, 0])
    assert first[4] == crisp([0, 1, 0, 0])
    assert first[5] == crisp([1, 1, 0, 0])
    second = got.trace[1].updated
    assert second[0] == crisp([1, 0, 0, 1, 1, 1, 0, 0])
    assert second[1] == crisp([1, 0, 1, 1, 1, 0])
    assert second[2] == crisp([1, 1, 0, 1, 0, 0, 0])
    assert second[3] == crisp([0, 0, 0, 0, 0, 0, 0, 1])
    assert second[4] == crisp([0, 1, 1, 0, 1, 0])
    assert second[5] == crisp([0, 0, 0, 1, 0, 0, 0])
    assert got.outcomes[0] == FixedPoint(crisp([1, 0, 0, 1, 1, 1, 0, 0]))
    assert got.outcomes[1] == FixedPoint(crisp([1, 0, 1, 1, 1, 0]))
    assert got.outcomes[2] == FixedPoint(
        tuple(parse_scalar(t) for t in ("I", "1", "I", "1", "I", "I", "I")))
    assert got.outcomes[3] == FixedPoint(
        (crisp([0, 0, 0, 0, 0, 0, 0, 1]), crisp([0, 0, 0, 1, 0])))
    assert got.outcomes[4] == FixedPoint(
        (crisp([0, 1, 1, 0, 1, 0]), crisp([0, 1, 0, 0])))
    assert got.outcomes[5] == FixedPoint(
        (crisp([0, 0, 0, 1, 0, 0, 0]), crisp([1, 1, 0, 0])))
    assert got.steps == 7
    assert got.settled_steps == (3, 3, 7, 2, 4, 2)


# ------------------------------------------------- mixed operator union runs

OPMIX_COMPONENTS = [
    (tri([[0, 1, -1, 0, 0], [1, 0, 0, 0, 1], [-1, 0, 0, 1, 0],
          [0, 0, 1, 0, 0], [0, -1, 0, 1, 0]]),
     ComponentTag()),
    (unitm([[0.3, 0.8, 1, 0.5, 0, 0.7], [0.5, 0.7, 0, 1, 0.6, 1],
            [1, 0.5, 0.2, 0.7, 0.2, 0]]),
     ComponentTag(kind=RM, op="minmax")),
    (tri([[1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, -1],
          [0, 1, 0, 0], [0, 1, 1, 0]]),
     ComponentTag(kind=RM)),
    (unitm([[0.9, 0.2, 1, 0, 0.5], [0.3, 0, 0.5, 1, 0.7],
            [1, 0.2, 1, 0, 0.3], [0, 1, 0.3, 0.2, 1],
            [0.9, 0.7, 0.6, 0.7, 0]]),
     ComponentTag(op="maxmin")),
    (tri([[1, 0, 1, 1, 1, 0, 0, 1, -1], [0, 1, 0, 0, 0, 1, 0, 0, 0],
          [1, -1, 0, 0, 0, 0, 0, -1, 1], [0, 0, 1, 0, 1, 0, 1, 0, 0],
          [-1, 0, 0, -1, 1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 1, 1, 0, 0]]),
     ComponentTag(kind=RM)),
]


def opmix_seed():
    return seed([1, 0, 0, 0, 0], [0, 0, 1], [0, 0, 0, 0, 0, 1],
                [0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0])


def test_mixed_operator_first_steps():
    m = SpecialMatrix(OPMIX_COMPONENTS)
    got = run_mixed(m, opmix_seed())
    first = got.trace[0]
    assert first.raw[0] == crisp([0, 1, -1, 0, 0])
    assert first.raw[1] == tuple(Scalar(v) for v in
                                       (0.3, 0.7, 0, 0.5, 0, 0.7))
    assert first.raw[2] == crisp([0, 1, 1, 0])
    assert first.raw[3] == tuple(Scalar(v) for v in
                                       (0.9, 0.7, 0.6, 1, 0.7))
    assert first.raw[4] == crisp([0, 0, 1, 0, 1, 0, 1, 0, 0])
    # only the circle components get cut and pinned
    assert first.updated[0] == crisp([1, 1, 0, 0, 0])
    assert first.updated[1] == first.raw[1]
    assert first.updated[2] == crisp([0, 1, 1, 0])
    assert first.updated[3] == first.raw[3]
    assert first.updated[4] == first.raw[4]
    second = got.trace[1]
    assert second.raw[1] == (Scalar(0), Scalar(0), Scalar(0.2))
    assert second.raw[2] == crisp([-1, 1, 1, 1, 1, 2])
    assert second.updated[2] == crisp([0, 1, 1, 1, 1, 1])
    assert second.raw[3] == tuple(Scalar(v) for v in
                                        (0.9, 1, 0.9, 0.7, 1))
    assert second.raw[4] == crisp([2, 0, 0, 3, 1, 0])
    assert second.updated[4] == crisp([1, 0, 0, 1, 1, 0])


def test_mixed_operator_outcomes():
    m = SpecialMatrix(OPMIX_COMPONENTS)
    got = run_mixed(m, opmix_seed())
    c1 = got.outcomes[0]
    assert isinstance(c1, LimitCycle)
    assert c1.period == 4
    assert c1.states == (crisp([1, 1, 0, 0, 0]), crisp([1, 1, 0, 0, 1]),
                         crisp([1, 0, 0, 1, 1]), crisp([1, 0, 0, 1, 0]))
    c2 = got.outcomes[1]
    assert c2 == FixedPoint(((Scalar(0), Scalar(0), Scalar(0.2)),
                             tuple(Scalar(v) for v in
                                   (0.3, 0.5, 0, 0.5, 0, 0.2))))
    assert got.outcomes[2] == FixedPoint(
        (crisp([0, 1, 1, 1, 1, 1]), crisp([1, 1, 1, 0])))
    c4 = got.outcomes[3]
    assert isinstance(c4, LimitCycle)
    assert c4.period == 2
    assert c4.states == (tuple(Scalar(v) for v in (0.9, 1, 0.9, 0.7, 1)),
                         tuple(Scalar(v) for v in (0.9, 0.7, 0.9, 1, 0.7)))
    assert got.outcomes[4] == FixedPoint(
        (crisp([1, 0, 0, 1, 1, 0]),
         crisp([0, 0, 1, 0, 1, 0, 1, 1, 0])))
    assert got.steps == 5
    assert got.settled_steps == (5, 4, 4, 4, 4)


def test_level_components_are_never_pinned():
    m = SpecialMatrix(OPMIX_COMPONENTS)
    got = run_mixed(m, opmix_seed())
    # the maxmin square was seeded at coords 2 and 5 but its updated states
    # drift freely (0.7 at coord 2 on step two)
    assert got.trace[1].updated[3][1] == Scalar(1)
    assert got.trace[2].updated[3][1] == Scalar(0.7)


# ------------------------------------------------------------------ validation

def test_run_rejects_non_crisp_input():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    for text in ("0.5", "I", "1+I", "-1", "2"):
        x0 = SpecialStateVector([[parse_scalar(text)] + [Scalar(0)] * 4])
        with pytest.raises(InvalidInput) as info:
            run_cm(m, x0)
        assert str(info.value) == (f"component 1, coordinate 1: non-crisp "
                                   f"input {text}; entries must be 0 or 1")


def test_run_mixed_rejects_range_seed_on_square_component():
    m = SpecialMatrix([(A_SQ, ComponentTag()),
                       (B_RECT, ComponentTag(kind=RM))])
    x = seed([0, 1, 0, 0, 1], [1, 0, 0, 1], side=RANGE_SIDE)
    with pytest.raises(InvalidInput, match="component 1: square component "
                                           "has no range space"):
        run_mixed(m, x)


def test_run_cm_rejects_wrong_length_or_count_with_invalid_input():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    with pytest.raises(InvalidInput, match="input length 3"):
        run_cm(m, seed([1, 0, 0]))
    with pytest.raises(InvalidInput, match="input has 2 parts"):
        run_cm(m, seed([0, 1, 0, 0, 1], [0, 1, 0, 0, 1]))


def test_run_cm_rejects_rm_components():
    m = SpecialMatrix([(B_RECT, ComponentTag(kind=RM))])
    with pytest.raises(NonCMComponent):
        run_cm(m, seed([1, 0, 1, 0, 1, 1]))


def test_run_rm_rejects_cm_components():
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    with pytest.raises(NonRMComponent):
        run_rm(m, seed([0, 1, 0, 0, 1]))


def test_a_run_of_one_kind_names_the_first_component_of_the_other():
    rm32 = tri([[1, 0], [0, 1], [1, 1]])
    union = SpecialMatrix([
        (tri([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), ComponentTag()),
        (rm32, ComponentTag(kind=RM)), (tri([[0, 1], [1, 0]]), ComponentTag()),
        (rm32, ComponentTag(kind=RM))])
    x = seed([1, 0, 0], [1, 0, 0], [1, 0], [1, 0, 0])
    for _ in range(2):  # the second reads the union's kept kinds
        with pytest.raises(NonCMComponent, match="^component 2 is tagged RM$"):
            run_cm(union, x)
        with pytest.raises(NonRMComponent, match="^component 1 is tagged CM$"):
            run_rm(union, x)


def test_iteration_cap():
    m = SpecialMatrix(OPMIX_COMPONENTS)
    with pytest.raises(IterationCapExceeded):
        run_mixed(m, opmix_seed(), max_steps=2)


@pytest.mark.parametrize("cap, message", [
    (6, "component 3 is still unsettled after 6 steps"),
    (3, "components 3, 5 are still unsettled after 3 steps"),
    (1, "components 1, 2, 3, 4, 5, 6 are still unsettled after 1 step"),
])
def test_iteration_cap_names_each_unsettled_component(cap, message):
    # the six-model mixture settles its components at steps 3, 3, 7, 2,
    # 4 and 2, so 7 is the least cap it runs under
    model = parse_model_text(
        (FIXTURES / "six_model_mixture.model").read_text()).model
    x = parse_vector_text(
        (FIXTURES / "six_model_mixture_seed.vec").read_text())
    pattern = run_mixed(model.matrix, x, max_steps=7)
    assert pattern.settled_steps == (3, 3, 7, 2, 4, 2)
    assert pattern == run_mixed(model.matrix, x)
    with pytest.raises(IterationCapExceeded) as err:
        run_mixed(model.matrix, x, max_steps=cap)
    assert str(err.value) == message


def test_an_rm_cap_below_a_settle_step_names_the_component():
    # an RM round is two steps, and its cycle closes on the even step that
    # ends one: components settling at step 4 run under a cap of 4, not 3,
    # and no RM component settles under a cap of 1
    m = SpecialMatrix([(r, ComponentTag(kind=RM)) for r in R_UNION])
    part = [1, 0, 0, 0, 0, 0, 0, 0]
    x = seed(part, part, part)
    assert run_rm(m, x, max_steps=4) == run_rm(m, x)
    assert run_rm(m, x).settled_steps == (4, 4, 2)
    for cap, message in [
            (3, "components 1, 2 are still unsettled after 3 steps"),
            (1, "components 1, 2, 3 are still unsettled after 1 step")]:
        with pytest.raises(IterationCapExceeded) as err:
            run_rm(m, x, max_steps=cap)
        assert str(err.value) == message
    last = SpecialMatrix([(R_UNION[2], ComponentTag(kind=RM))])
    assert run_rm(last, seed(part), max_steps=2).settled_steps == (2,)
    with pytest.raises(IterationCapExceeded,
                       match="^component 1 is still unsettled after 1 step$"):
        run_rm(last, seed(part), max_steps=1)


def test_replay_is_deterministic():
    m = SpecialMatrix(OPMIX_COMPONENTS)
    a = run_mixed(m, opmix_seed())
    b = run_mixed(m, opmix_seed())
    assert a == b


# ------------------------------------------------------ patterns read lazily

def every_kernel_run():
    """A run of a union with components on every kernel, CM and RM, that
    has a limit cycle and frozen steps; its trace is not yet read."""
    neutro_maxmin = (Matrix.from_rows([[Scalar(0), INDET],
                                       [Scalar(0.5), Scalar(0)]],
                                      domain=ValueDomain.NEUTRO_UNIT),
                     ComponentTag(algebra="neutrosophic", op="maxmin"))
    m = SpecialMatrix(MIX_COMPONENTS + OPMIX_COMPONENTS + [neutro_maxmin])
    x = seed([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
             [0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1],
             [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0])
    x = SpecialStateVector(x.parts + opmix_seed().parts + (crisp([1, 0]),))
    return m, x, run_mixed(m, x)


def read_all(pattern):
    for record in pattern.trace:
        record.raw, record.thresholded, record.updated
    return pattern


VALUE_VIEWS = [repr, hash, copy.copy, copy.deepcopy,
               lambda v: pickle.loads(pickle.dumps(v))]
VALUE_VIEW_IDS = ["repr", "hash", "copy", "deepcopy", "pickle"]


@pytest.mark.parametrize("view", VALUE_VIEWS + [lambda r: r.frozen],
                         ids=VALUE_VIEW_IDS + ["frozen"])
def test_a_record_is_the_same_value_read_or_unread(view):
    # a run keeps its orbits in kernel form until its trace is read
    read = read_all(every_kernel_run()[2]).trace
    unread = every_kernel_run()[2].trace
    assert [view(r) for r in unread] == [view(r) for r in read]


@pytest.mark.parametrize("view", VALUE_VIEWS, ids=VALUE_VIEW_IDS)
def test_a_pattern_is_the_same_value_read_or_unread(view):
    # a run keeps its orbits until its trace is read, and the pattern
    # built from its public fields is the same value
    m, x, unread = every_kernel_run()
    assembled = run_mixed(m, x)
    assembled.trace
    read = read_all(run_mixed(m, x))
    public = HiddenPattern(read.outcomes, read.trace, read.input, read.special,
                           read.policy, read.threshold_k)
    assert view(unread) == view(assembled) == view(read) == view(public)


def test_an_unread_pattern_pickles_to_the_bytes_of_a_read_one():
    m, x, unread = every_kernel_run()
    read = read_all(run_mixed(m, x))
    assert pickle.dumps(unread) == pickle.dumps(read)


def test_a_pattern_is_immutable_read_or_unread():
    for pattern in (every_kernel_run()[2], read_all(every_kernel_run()[2])):
        for field in ("outcomes", "trace", "input"):
            with pytest.raises(FrozenInstanceError):
                setattr(pattern, field, ())
            with pytest.raises(FrozenInstanceError):
                delattr(pattern, field)


def test_a_record_is_immutable_read_or_unread():
    pattern = every_kernel_run()[2]
    for record in (pattern.trace[0], read_all(pattern).trace[0]):
        for field in ("raw", "thresholded", "updated", "frozen"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, ())
            with pytest.raises(FrozenInstanceError):
                delattr(record, field)


def test_runs_compare_equal_whether_or_not_their_records_were_read():
    m, x, unread = every_kernel_run()
    read = read_all(run_mixed(m, x))
    assert unread == read and read == unread
    assert every_kernel_run()[2] == every_kernel_run()[2]
    # a record is a plain dataclass: the public constructor builds each of
    # a run's records from its fields, and replace applies to it
    assert [f.name for f in fields(IterationRecord)] == [
        "raw", "thresholded", "updated", "frozen"]
    assert list(unread.trace) == [
        IterationRecord(r.raw, r.thresholded, r.updated, r.frozen)
        for r in read.trace]
    record = unread.trace[0]
    thawed = replace(record, frozen=(True,) * len(record.frozen))
    assert thawed != record and thawed.frozen == (True,) * len(record.frozen)
    assert (thawed.raw, thawed.thresholded, thawed.updated) == (
        record.raw, record.thresholded, record.updated)


def test_equal_states_of_one_run_decode_to_one_tuple():
    # per component and side, so that a rendered trace finds each state's
    # text by identity
    m, x, pattern = every_kernel_run()
    assert any(isinstance(o, LimitCycle) for o in pattern.outcomes)
    assert any(any(r.frozen) for r in pattern.trace)
    for idx, (_, tag) in enumerate(m):
        shared = {}
        for step, record in enumerate(pattern.trace, 1):
            side = x.side if record.frozen[idx] \
                else landing_side(tag.kind, x.side, step)
            for part in (record.thresholded[idx], record.updated[idx]):
                assert shared.setdefault((side, part), part) is part
        outcome = pattern.outcomes[idx]
        states = (outcome.state,) if isinstance(outcome, FixedPoint) \
            else outcome.states
        for state in states:
            pairs = zip((DOMAIN_SIDE, RANGE_SIDE), state) if tag.kind == RM \
                else [(x.side, state)]
            for side, part in pairs:
                assert shared.setdefault((side, part), part) is part


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_rejected(k):
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    with pytest.raises(InvalidInput):
        run_cm(m, seed([0, 1, 0, 0, 1]), threshold_k=k)


SFCM_2 = build_model("SFCM", [(tri([[0, 1], [1, 0]]), ComponentTag())])


@pytest.mark.parametrize("probe", [
    pytest.param(lambda x: run(SFCM_2, x, threshold_k="0.5"), id="k-text"),
    pytest.param(lambda x: run(SFCM_2, x, threshold_k=None), id="k-none"),
    pytest.param(lambda x: run(SFCM_2, x, threshold_k=True), id="k-bool"),
    pytest.param(lambda x: run(SFCM_2, x, max_steps="5"), id="cap-text"),
    pytest.param(lambda x: run(SFCM_2, x, max_steps=2.5), id="cap-float"),
    pytest.param(lambda x: ThresholdMode("fuzzy", "x"), id="mode-k-text"),
    # the benchmark's call may claim the run's k, which no other value
    # equals: a trace records the k the run checked
    pytest.param(lambda x: render_trace(run(SFCM_2, x), SFCM_2.matrix,
                                        threshold_k="0"), id="trace-k-text"),
    pytest.param(lambda x: render_trace(run(SFCM_2, x), SFCM_2.matrix,
                                        threshold_k=math.nan),
                 id="trace-k-nan"),
])
def test_run_option_of_a_wrong_type_is_invalid_input(probe):
    # a finite real k (not a bool) and an int cap, else exit code 3
    with pytest.raises(InvalidInput):
        probe(seed([1, 0]))


@pytest.mark.parametrize("probe, name", [
    pytest.param(lambda x: run_cm("x", x), "union", id="run_cm-text"),
    pytest.param(lambda x: run_rm(None, x), "union", id="run_rm-none"),
    pytest.param(lambda x: run_mixed("x", x), "union", id="run_mixed-text"),
    pytest.param(lambda x: run_mixed(SFCM_2.matrix, x.parts), "seed",
                 id="run_mixed-parts"),
    pytest.param(lambda x: run_cm(SFCM_2.matrix, [1, 0]), "seed",
                 id="run_cm-list"),
    pytest.param(lambda x: run(None, x), "model", id="run-none"),
    pytest.param(lambda x: run(SFCM_2.matrix, x), "model", id="run-union"),
    pytest.param(lambda x: run(SFCM_2, None), "seed", id="run-seed-none"),
    # the type comes before every check of a value
    pytest.param(lambda x: run_mixed("x", x, max_steps=0), "union",
                 id="run_mixed-before-cap"),
    pytest.param(lambda x: run(SFCM_2, None, threshold_k=math.nan), "seed",
                 id="run-before-k"),
    # the trace entry points follow the same rule
    pytest.param(lambda x: parse_trace(5), "text", id="parse_trace-int"),
    pytest.param(lambda x: verify_trace(5), "text", id="verify_trace-int"),
    pytest.param(lambda x: render_trace(5, SFCM_2.matrix), "pattern",
                 id="render_trace-int"),
    pytest.param(lambda x: render_trace(run(SFCM_2, x), 5), "model",
                 id="render_trace-model-int"),
    # and so do the readers and the seed check a run goes through
    pytest.param(lambda x: parse_model_text(5), "text",
                 id="parse_model_text-int"),
    pytest.param(lambda x: parse_vector_text(5), "text",
                 id="parse_vector_text-int"),
    pytest.param(lambda x: parse_matrix_text(5), "text",
                 id="parse_matrix_text-int"),
    pytest.param(lambda x: validate_input(5, 5), "union",
                 id="validate_input-int"),
    pytest.param(lambda x: validate_input(SFCM_2.matrix, 5), "seed",
                 id="validate_input-seed-int"),
])
def test_a_wrongly_typed_run_argument_is_a_type_error_naming_it(probe, name):
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        probe(seed([1, 0]))


@pytest.mark.parametrize("k", [10 ** 400, -10 ** 400])
@pytest.mark.parametrize("probe", [
    pytest.param(lambda x, k: run(SFCM_2, x, threshold_k=k), id="run"),
    pytest.param(lambda x, k: ThresholdMode("fuzzy", k), id="mode"),
])
def test_threshold_k_beyond_the_float_range_is_invalid_input(probe, k):
    # an int k must fit a float: a trace records the run's k as a Scalar
    with pytest.raises(InvalidInput, match="threshold k must be finite"):
        probe(seed([1, 0]), k)


@pytest.mark.parametrize("engine", [run_cm, run_mixed])
@pytest.mark.parametrize("cap", [0, -3])
def test_step_cap_below_one_rejected(engine, cap):
    m = SpecialMatrix([(A_SQ, ComponentTag())])
    with pytest.raises(InvalidInput, match=f"at least 1, got {cap}$"):
        engine(m, seed([0, 1, 0, 0, 1]), max_steps=cap)
    # one step is enough for a seed that is already fixed
    assert engine(m, seed([0, 1, 0, 0, 1]), max_steps=1).steps == 1


# ---------------------------------- step kernels vs the public Scalar operations

@st.composite
def circle_runs(draw, row, domain, algebra, nodes, sizes=None):
    """A circle union of 1-3 components of 1-`nodes` nodes (sizes from
    `sizes` when given), each matrix row drawn by `row(cols)` (CM or RM on
    the domain side, RM on the range side, rows and cols drawn apart), a
    crisp seed, a small step cap and a cut constant k: one of a few small
    values, or a half-integer from -(2 nodes + 3) to 2 nodes + 3, mostly
    beyond every raw value a step can reach."""
    sizes = st.integers(1, nodes) if sizes is None else sizes
    side = draw(st.sampled_from([DOMAIN_SIDE, RANGE_SIDE]))
    comps, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        # square components take domain-side seeds only
        kind = draw(st.sampled_from([CM, RM] if side == DOMAIN_SIDE
                                    else [RM]))
        rows = draw(sizes)
        cols = rows if kind == CM else draw(sizes)
        entries = [w for _ in range(rows) for w in draw(row(cols))]
        comps.append((Matrix(rows, cols, entries, domain),
                      ComponentTag(kind=kind, algebra=algebra)))
        size = cols if kind == RM and side == RANGE_SIDE else rows
        parts.append(draw(st.lists(st.sampled_from([0, 1]), min_size=size,
                                   max_size=size)))
    bound = 2 * (2 * nodes + 3)
    k = draw(st.one_of(st.sampled_from([-1, 0, 0.5, 1, 2]),
                       st.integers(-bound, bound).map(lambda h: h / 2)))
    max_steps = draw(st.integers(1, 12))
    return SpecialMatrix(comps), seed(*parts, side=side), k, max_steps


def weight_rows(weights):
    """A matrix row of entries drawn from `weights`."""
    return lambda cols: st.lists(st.sampled_from(weights), min_size=cols,
                                 max_size=cols)


def tri_runs():
    """Fuzzy circle unions over {-1, 0, 1}, of 1-12 nodes."""
    return circle_runs(weight_rows([-1, 0, 0, 1]), TRI, "fuzzy", 12)


def saturated_runs():
    """Fuzzy circle unions of 1-40 nodes whose rows are each all +1 or all
    -1, so that a raw value reaches the number of ON inputs; sizes around
    31-32 nodes, where the packed kernel's field widens, come often."""
    def row(cols):
        return st.sampled_from([[-1] * cols, [1] * cols])
    sizes = st.one_of(st.integers(1, 40), st.sampled_from([31, 32]))
    return circle_runs(row, TRI, "fuzzy", 40, sizes)


def trit_runs():
    """Neutrosophic circle unions over {-1, 0, 1, I}, of 1-10 nodes."""
    return circle_runs(weight_rows([-1, 0, 0, 1, INDET]), NTRI,
                       "neutrosophic", 10)


@settings(max_examples=300, deadline=None)
@given(tri_runs())
def test_packed_kernel_matches_scalar_reference(case):
    assert_capped_run_replays(*case)


@settings(max_examples=60, deadline=None)
@given(saturated_runs())
def test_packed_kernel_matches_scalar_reference_on_saturated_maps(case):
    assert_capped_run_replays(*case)


@settings(max_examples=300, deadline=None)
@given(trit_runs())
def test_trit_kernel_matches_scalar_reference(case):
    assert_capped_run_replays(*case)


@st.composite
def field_boundary_runs(draw):
    """Fuzzy circle unions of 1-3 RM components of shape 1 x m or m x 1,
    for m = 63 or 64: the max(rows, cols) at which the packed field widens
    from 8 to 16 bits. Every part on one side is a single field. A row of
    weights is drawn over {-1, 0, 1}, or all +1 or all -1, and a seed part
    is crisp or all 1, on either side, so that a raw value reaches +-m;
    k is often at or beyond +-m, where the cut is clamped."""
    side = draw(st.sampled_from([DOMAIN_SIDE, RANGE_SIDE]))
    comps, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from([63, 64]))
        rows, cols = draw(st.sampled_from([(1, m), (m, 1)]))
        entries = draw(st.one_of(
            st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=m,
                     max_size=m),
            st.sampled_from([[-1] * m, [1] * m])))
        comps.append((Matrix(rows, cols, entries, TRI),
                      ComponentTag(kind=RM)))
        size = rows if side == DOMAIN_SIDE else cols
        parts.append(draw(st.one_of(
            st.lists(st.sampled_from([0, 1]), min_size=size, max_size=size),
            st.just([1] * size))))
    k = draw(st.one_of(st.sampled_from([-1, 0, 0.5, 1]),
                       st.sampled_from([-66, -65, -64.5, -64, -63.5, 62.5,
                                        63, 64, 64.5, 65]),
                       st.integers(-134, 134).map(lambda h: h / 2)))
    max_steps = draw(st.integers(1, 12))
    return SpecialMatrix(comps), seed(*parts, side=side), k, max_steps


def test_packed_fields_are_whole_bytes():
    # F is 8 bits up to max(rows, cols) = 63 and 16 from 64
    widths = [_field_width(Matrix(1, m, [0] * m)) for m in (1, 63, 64, 127)]
    assert widths == [8, 8, 16, 16]


@settings(max_examples=100, deadline=None)
@given(field_boundary_runs())
def test_packed_kernel_matches_scalar_reference_across_the_byte_boundary(
        case):
    # the replay reads every record's raw, cut and pinned parts back
    assert_capped_run_replays(*case)


@st.composite
def square_boundary_runs(draw):
    """A fuzzy circle union of one CM component of m = 63 or 64 nodes, on
    either side of the packed field's widening from 8 to 16 bits, where a
    state holds one cut byte per coordinate in every byte (m = 63) or in
    every other byte (m = 64). A row is all +1 or all -1, so that a raw
    value reaches +-m, in none, a fifth or all of the rows; the others
    hold 3 % or 10 % nonzero weights over {-1, 0, 1}, sparse enough that
    an orbit stays short to replay through Scalars. The seed is sparse (at
    most 3 ON), dense (at most 3 OFF) or all ON, and k is often at or
    beyond either clamp end, -m - 1 and m, or just inside."""
    m = draw(st.sampled_from([63, 64]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nonzero = draw(st.sampled_from([0.03, 0.1]))
    saturated = draw(st.sampled_from([0, 0.2, 1]))  # share of rows
    entries = []
    for _ in range(m):
        if rng.random() < saturated:
            entries += [rng.choice([-1, 1])] * m
        else:
            entries += [rng.choice([-1, 1]) if rng.random() < nonzero else 0
                        for _ in range(m)]
    picked = draw(st.sets(st.integers(0, m - 1), max_size=3))
    on = draw(st.sampled_from([picked, set(range(m)) - picked,
                               set(range(m))]))
    k = draw(st.one_of(st.sampled_from([-1, 0, 0.5]),
                       st.sampled_from([-66, -65, -64.5, -64, -63.5, -63,
                                        62.5, 63, 63.5, 64, 64.5, 65])))
    max_steps = draw(st.integers(1, 12))
    return (SpecialMatrix([(Matrix(m, m, entries, TRI), ComponentTag())]),
            seed([int(i in on) for i in range(m)]), k, max_steps)


@settings(max_examples=80, deadline=None)
@given(square_boundary_runs())
def test_packed_kernel_matches_scalar_reference_on_wide_square_maps(case):
    assert_capped_run_replays(*case)


_LEVELS = [0, 0.2, 0.5, 0.7, 1]


@st.composite
def level_runs(draw):
    """A fuzzy union of 1-3 maxmin/minmax components of 1-6 nodes over
    UNIT entries (CM or RM on the domain side, RM on the range side), a
    crisp seed and a small step cap."""
    side = draw(st.sampled_from([DOMAIN_SIDE, RANGE_SIDE]))
    comps, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([CM, RM] if side == DOMAIN_SIDE
                                    else [RM]))
        rows = draw(st.integers(1, 6))
        cols = rows if kind == CM else draw(st.integers(1, 6))
        entry = st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 1.0))
        entries = draw(st.lists(entry, min_size=rows * cols,
                                max_size=rows * cols))
        op = draw(st.sampled_from(["maxmin", "minmax"]))
        comps.append((Matrix(rows, cols, entries, UNIT),
                      ComponentTag(kind=kind, op=op)))
        size = cols if kind == RM and side == RANGE_SIDE else rows
        parts.append(draw(st.lists(st.sampled_from([0, 1]), min_size=size,
                                   max_size=size)))
    max_steps = draw(st.integers(1, 12))
    return SpecialMatrix(comps), seed(*parts, side=side), max_steps


@settings(max_examples=300, deadline=None)
@given(level_runs())
def test_level_kernel_matches_scalar_reference(case):
    special, x0, max_steps = case
    assert_capped_run_replays(special, x0, 0.0, max_steps)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tri_runs(), trit_runs(), level_runs().map(
    lambda case: (case[0], case[1], 0.0, case[2]))))
def test_steps_and_settle_steps_read_the_orbits(case):
    # CM, RM and mixed unions whose components settle at different steps,
    # so that settled ones are frozen: the two counts read the orbits and
    # leave the trace unassembled, and equal what the trace gives
    special, x0, k, _ = case
    pattern = run_mixed(special, x0, threshold_k=k)
    steps, settled = pattern.steps, pattern.settled_steps
    assert "trace" not in pattern.__dict__
    from_trace = HiddenPattern(pattern.outcomes, pattern.trace, x0, special,
                               pattern.policy, k)
    assert (steps, settled) == (from_trace.steps, from_trace.settled_steps)


# entries drawn for each (algebra, op) on its carrier
_NEUTRO_LEVELS = (_LEVELS + [INDET, Scalar(0, 0.5)], ValueDomain.NEUTRO_UNIT)
_RM_ENTRIES = {
    ("fuzzy", "circle"): ([-1, 0, 0, 1], TRI),
    ("neutrosophic", "circle"): ([-1, 0, 0, 1, INDET], NTRI),
    ("fuzzy", "maxmin"): (_LEVELS, UNIT),
    ("fuzzy", "minmax"): (_LEVELS, UNIT),
    ("neutrosophic", "maxmin"): _NEUTRO_LEVELS,
    ("neutrosophic", "minmax"): _NEUTRO_LEVELS,
}


@st.composite
def range_seeded_rm_unions(draw):
    """A union of 1-3 RM components of 1-6 x 1-6 nodes, each of a drawn
    algebra and operator over entries of its carrier, with one crisp
    range-side seed part per component, an order policy and a cut
    constant k in {-1, 0, 1}."""
    comps, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        algebra, op = draw(st.sampled_from(sorted(_RM_ENTRIES)))
        values, domain = _RM_ENTRIES[algebra, op]
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        entries = draw(st.lists(st.sampled_from(values),
                                min_size=rows * cols, max_size=rows * cols))
        comps.append((Matrix(rows, cols, entries, domain),
                      ComponentTag(kind=RM, algebra=algebra, op=op)))
        parts.append(draw(st.lists(st.sampled_from([0, 1]), min_size=cols,
                                   max_size=cols)))
    return (comps, parts, draw(st.sampled_from(list(OrderPolicy))),
            draw(st.sampled_from([-1, 0, 1])))


def reversed_pairs(outcome):
    """An RM outcome with each (domain, range) pair reversed."""
    if isinstance(outcome, FixedPoint):
        return FixedPoint(outcome.state[::-1])
    return LimitCycle(tuple(s[::-1] for s in outcome.states), outcome.period)


@settings(max_examples=200, deadline=None)
@given(range_seeded_rm_unions())
def test_range_seeded_run_is_the_transposed_run_seeded_on_the_domain(case):
    # seeded on the range, an RM component steps its transpose first and
    # pins on the range: the run of the transposed matrices seeded on the
    # domain takes the same steps, so the records and settle steps agree
    # and each outcome pair comes back reversed. A kernel built on the
    # wrong operand, or a pin on the wrong landing, breaks the symmetry
    comps, parts, policy, k = case
    options = {"policy": policy, "threshold_k": k}
    ranged = run_rm(SpecialMatrix(comps), seed(*parts, side=RANGE_SIDE),
                    **options)
    flipped = run_rm(SpecialMatrix([(transpose(m), tag) for m, tag in comps]),
                     seed(*parts), **options)
    assert ranged.trace == flipped.trace
    assert ranged.settled_steps == flipped.settled_steps
    assert tuple(map(reversed_pairs, ranged.outcomes)) == flipped.outcomes


def fresh(value):
    """`value` rebuilt from its value alone, without its memos."""
    return pickle.loads(pickle.dumps(value))


def test_one_seed_against_other_unions_gets_the_unmemoized_problems():
    # a seed keeps each part's problems per component index, kind and
    # shape, and a union its carrier problems: a check against one union
    # never answers for another
    sq3, sq2 = tri([[0] * 3] * 3), tri([[0, 1], [1, 0]])
    rm32, rm23 = tri([[1, 0]] * 3), tri([[1, 0, 1]] * 2)
    off = unitm([[0, 1, 0]] * 3)  # a unit matrix under a circle tag
    unions = [SpecialMatrix(c) for c in (
        [(sq3, ComponentTag()), (sq2, ComponentTag())],
        [(rm32, ComponentTag(kind=RM)), (sq2, ComponentTag())],
        [(sq2, ComponentTag()), (sq3, ComponentTag())],
        [(rm23, ComponentTag(kind=RM)), (rm32, ComponentTag(kind=RM))],
        [(sq3, ComponentTag())],
        [(off, ComponentTag()), (sq2, ComponentTag())],
        [(sq2, ComponentTag(op="maxmin")), (sq3, ComponentTag())],
    )]
    seeds = [SpecialStateVector([[1, 0, 0.5], [1, 0]]),
             SpecialStateVector([[1, 0, 0], [0, 1]]),
             SpecialStateVector([[1, 0, 0], [0, 1]], side=RANGE_SIDE)]
    for x in seeds:
        for union in unions + unions[::-1]:
            expected = validate_input(fresh(union), fresh(x))
            problems = validate_input(union, x)
            assert problems == expected
            problems.append("not kept")  # a caller's list, not the memo
            assert validate_input(union, x) == expected
            if expected:
                with pytest.raises(InvalidInput) as err:
                    run_mixed(union, x)
                assert str(err.value) == "; ".join(expected)
            else:
                assert run_mixed(union, x) == run_mixed(fresh(union),
                                                        fresh(x))


def test_a_seed_checked_against_two_unions_keeps_each_message():
    # the seed keeps its problems per tuple of its union's component
    # shapes: a seed bad in components 2 and 4 reads the same messages
    # however often it is checked, and a union of other shapes gets its
    # own, not the first union's
    sq3, sq2 = tri([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), tri([[0, 1], [1, 0]])
    first = SpecialMatrix([(sq3, ComponentTag()), (sq2, ComponentTag()),
                           (sq3, ComponentTag()), (sq3, ComponentTag())])
    other = SpecialMatrix([(sq3, ComponentTag()), (sq3, ComponentTag()),
                           (sq3, ComponentTag()), (sq2, ComponentTag())])
    x = SpecialStateVector([[1, 0, 0], [1, 0.5], [0, 0, 1], [0, 1]])
    messages = {
        first: "component 2, coordinate 2: non-crisp input 0.5; entries "
               "must be 0 or 1; component 4: input length 2 does not match "
               "the domain space of 3x3",
        other: "component 2: input length 2 does not match the domain "
               "space of 3x3",
    }
    for union in (first, other, first, other):
        with pytest.raises(InvalidInput) as err:
            run_mixed(union, x)
        assert str(err.value) == messages[union]



# each off-carrier component of a bare union, with the carrier its tag
# needs
OFF_CARRIER = [
    pytest.param(Matrix.from_rows([[0, 0.5, -1], [2, 0, 1], [1, -1, 0]]),
                 ComponentTag(), "tri", id="real-weights"),
    # the declared domain decides, not the entries
    pytest.param(Matrix.from_rows([[0, 1, -1], [1, 0, 1], [1, -1, 0]]),
                 ComponentTag(), "tri", id="crisp-any"),
    pytest.param(unitm([[0, 0.9, 0.3], [0.4, 0, 1], [0.7, 0.2, 0]]),
                 ComponentTag(), "tri", id="unit-circle"),
    pytest.param(Matrix.from_rows([[0, parse_scalar("2I")], [INDET, 1]]),
                 ComponentTag(algebra="neutrosophic"), "neutro-tri",
                 id="neutrosophic-circle-2I"),
    pytest.param(Matrix.from_rows([[0, 0.5], [INDET, 1]]),
                 ComponentTag(algebra="neutrosophic"), "neutro-tri",
                 id="neutrosophic-circle-half"),
    pytest.param(Matrix.from_rows([[0, -0.4], [0.3, 0]], BIPOLAR),
                 ComponentTag(op="maxmin"), "unit", id="bipolar-maxmin"),
    pytest.param(ntri([[0, "I"], [1, 0]]), ComponentTag(op="maxmin"),
                 "unit", id="fuzzy-maxmin-over-I"),
    pytest.param(ntri([[0, "I"], [1, 0]]), ComponentTag(), "tri",
                 id="fuzzy-circle-over-I"),
]


@pytest.mark.parametrize("matrix, tag, carrier", OFF_CARRIER)
@pytest.mark.parametrize("engine", [run_cm, run_mixed])
def test_off_carrier_component_is_invalid_input(engine, matrix, tag,
                                                carrier):
    # a bare union must declare a domain inside its tag's carrier, the
    # rule build_model applies too; the run raises before step 1
    m = SpecialMatrix([(unitm([[0, 1], [1, 0]]), ComponentTag(op="maxmin")),
                       (matrix, tag)])
    x0 = seed([1, 0], [1] + [0] * (matrix.rows - 1))
    with pytest.raises(InvalidInput) as err:
        engine(m, x0)
    assert str(err.value) == (
        f"component 2: values declared {matrix.domain.value}, but a "
        f"{tag.algebra} {tag.op} component needs {carrier}")
