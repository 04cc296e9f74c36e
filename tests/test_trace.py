"""Trace serialization, parsing, and independent verification."""

import dataclasses
import math
import pathlib
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    I,
    InvalidInput,
    RANGE_SIDE,
    RM,
    ComponentTag,
    FixedPoint,
    HiddenPattern,
    LimitCycle,
    Matrix,
    ModelClass,
    OrderPolicy,
    Scalar,
    ShapeMismatch,
    TraceError,
    SpecialMatrix,
    WrongEntryPoint,
    SpecialStateVector,
    build_model,
    parse_model_text,
    parse_trace,
    parse_vector_text,
    render_trace,
    run,
    outcome_shape,
    run_mixed,
    serialize_model,
    transpose,
    verify_trace,
)
from fuzzymaps.dynamics import landing_side
from replay import assert_replays, public_step, seed_pin

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# `fuzzymaps run --trace` of the six-model mixture, as the CLI writes it
GOLDEN = (FIXTURES / "six_model_mixture.trace").read_text()


def run_fixture(model_name, vec_name, **kwargs):
    mf = parse_model_text((FIXTURES / model_name).read_text())
    state = parse_vector_text((FIXTURES / vec_name).read_text())
    pattern = run(mf.model, state, **kwargs)
    return mf, pattern


def trace_of(model_name, vec_name, **kwargs):
    mf, pattern = run_fixture(model_name, vec_name, **kwargs)
    return render_trace(pattern, mf.model, name=mf.name)


SQUARE = ("single_square_signed.model", "single_square_seed_a.vec")
RECT = ("single_rect_signed.model", "single_rect_domain_seed.vec")
RECT_RANGE = ("single_rect_signed.model", "single_rect_range_seed.vec")
MIXED = ("six_model_mixture.model", "six_model_mixture_seed.vec")
LEVELS = ("mixed_operator_union.model", "mixed_operator_seed.vec")


def test_square_trace_layout():
    text = trace_of(*SQUARE)
    lines = text.splitlines()
    assert lines[0] == "trace 1"
    assert lines[1].startswith("run side=domain steps=")
    assert "class=SFCM" in lines[1]
    assert "name=[single-square-signed]" in lines[1]
    assert lines[1].endswith(" threshold-k=0")
    assert lines[2].startswith(
        "component 1 kind=CM algebra=fuzzy op=circle rows=5 cols=5")
    assert "expert=[expert 1]" in lines[2]
    assert "mask 1 [2 5]" in lines
    assert "input 1 [0 1 0 0 1]" in lines
    assert lines[-1] == "end"
    assert any(l.startswith("final 1 fixed-point period=1") for l in lines)


def test_trace_is_deterministic():
    a = trace_of(*SQUARE)
    b = trace_of(*SQUARE)
    assert a == b


def test_parse_trace_structure():
    data = parse_trace(trace_of(*SQUARE))
    assert data["side"] == "domain"
    assert data["class"] is ModelClass.SFCM
    assert data["tags"] == {0: ComponentTag(kind=CM)}
    assert data["shapes"] == {0: (5, 5)}
    assert data["masks"] == {0: (1, 4)}
    assert data["inputs"][0] == tuple(
        0 if i not in (1, 4) else 1 for i in range(5))
    assert data["steps"][0]["step"] == 1
    assert data["finals"][0]["shape"] == "fixed-point"


def test_verify_square_trace():
    outcomes = verify_trace(trace_of(*SQUARE))
    assert outcomes == (FixedPoint((0, 1, 0, 0, 1)),)


def test_verify_rect_trace_both_seed_sides():
    for pair in (RECT, RECT_RANGE):
        outcomes = verify_trace(trace_of(*pair))
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], FixedPoint)
        domain_part, range_part = outcomes[0].state
        assert len(domain_part) == 6
        assert len(range_part) == 4


def test_verify_mixed_trace():
    mf, pattern = run_fixture(*MIXED)
    text = render_trace(pattern)
    outcomes = verify_trace(text)
    assert outcomes == pattern.outcomes


def test_verify_level_trace_with_cycles():
    mf, pattern = run_fixture(*LEVELS)
    assert any(isinstance(o, LimitCycle) for o in pattern.outcomes)
    text = render_trace(pattern)
    assert verify_trace(text) == pattern.outcomes


def test_render_trace_rejects_a_union_or_experts_of_another_size():
    mf, pattern = run_fixture(*SQUARE)
    (component,) = mf.model.matrix
    with pytest.raises(InvalidInput, match="union is not the one the run"):
        render_trace(pattern, SpecialMatrix([component, component]))
    # the bare union and `experts`, kept for the benchmark's one call
    with pytest.raises(ShapeMismatch, match="2 experts for 1 components"):
        render_trace(pattern, mf.model.matrix, experts=["a", "b"])


# an all-zero 5x5 fuzzy max-min union, of the shape of SQUARE's union
ZERO_MAXMIN = SpecialMatrix([(Matrix(5, 5, [0] * 25, "unit"),
                              ComponentTag(kind=CM, op="maxmin"))])


@pytest.mark.parametrize("other, claims", [
    pytest.param(lambda own: ZERO_MAXMIN, {}, id="another-union-bare"),
    pytest.param(lambda own: build_model("SSHM", ZERO_MAXMIN), {},
                 id="another-union-model"),
    pytest.param(lambda own: SpecialMatrix(list(own)), {},
                 id="an-equal-union"),
    pytest.param(lambda own: None, {"threshold_k": 0.0}, id="another-k"),
    pytest.param(lambda own: None,
                 {"policy": OrderPolicy.INDETERMINACY_DOMINANT},
                 id="another-policy"),
])
def test_render_trace_refuses_what_its_run_did_not_run(other, claims):
    # SQUARE run at k=-1 reaches other outcomes than at k=0: rendered
    # against another union, or claiming another k or policy, its trace
    # would say op=maxmin or threshold-k=0 and still verify
    mf, pattern = run_fixture(*SQUARE, threshold_k=-1.0)
    assert pattern.outcomes != run_fixture(*SQUARE)[1].outcomes
    with pytest.raises(InvalidInput):
        render_trace(pattern, other(mf.model.matrix), **claims)


def test_render_trace_writes_the_settings_of_its_run():
    mf, pattern = run_fixture(*SQUARE, threshold_k=-1.0)
    text = render_trace(pattern, mf.model, name=mf.name)
    assert text.splitlines()[1].endswith(" policy=book threshold-k=-1")
    assert verify_trace(text) == pattern.outcomes
    # the bare union, labelled and claiming the run's own settings, as the
    # benchmark's call passes them
    assert render_trace(pattern, mf.model.matrix, experts=mf.model.experts,
                        policy=OrderPolicy.BOOK_DEFAULT, threshold_k=-1.0,
                        model_class=mf.model.model_class,
                        name=mf.name) == text


@pytest.mark.parametrize("field, value, error, message", [
    pytest.param("input", (), TypeError, "input must be a SpecialStateVector",
                 id="input"),
    pytest.param("special", None, TypeError, "special must be a SpecialMatrix",
                 id="special"),
    pytest.param("policy", "book", TypeError, "policy must be a OrderPolicy",
                 id="policy-text"),
    pytest.param("threshold_k", "0", InvalidInput, "threshold k must be",
                 id="threshold-k-text"),
    pytest.param("threshold_k", math.inf, InvalidInput, "threshold k must be",
                 id="threshold-k-inf"),
])
def test_a_hand_built_pattern_is_checked_before_it_renders(
        field, value, error, message):
    # render_trace would read `.value` of a text policy, and coerce a text
    # k, leaking AttributeError or TypeError
    mf, pattern = run_fixture(*SQUARE)
    fields = {"outcomes": pattern.outcomes, "trace": pattern.trace,
              "input": pattern.input, "special": pattern.special,
              "policy": pattern.policy, "threshold_k": pattern.threshold_k}
    assert render_trace(HiddenPattern(**fields)) == render_trace(pattern)
    with pytest.raises(error, match=message):
        HiddenPattern(**{**fields, field: value})
    # replace rebuilds through the same checks
    flipped = dataclasses.replace(pattern, outcomes=pattern.outcomes[::-1])
    assert flipped.outcomes == pattern.outcomes[::-1]
    with pytest.raises(error, match=message):
        dataclasses.replace(pattern, **{field: value})


def test_metadata_is_optional():
    mf, pattern = run_fixture(*SQUARE)
    bare = render_trace(pattern)
    assert "class=" not in bare
    assert "expert=" not in bare
    assert verify_trace(bare) == pattern.outcomes


@pytest.mark.parametrize("name, expert", [
    pytest.param("demo] steps=7 [", "expert 1", id="name-steps"),
    pytest.param("demo] side=range [", "expert 1", id="name-side"),
    pytest.param("demo", "zz] kind=RM [", id="expert-kind"),
])
def test_free_text_cannot_restate_engine_fields(name, expert):
    # a model or expert name is free text: whatever it holds, the run and
    # component fields come from the engine's own text
    mf, pattern = run_fixture(*SQUARE)
    model = build_model(mf.model.model_class, mf.model.matrix,
                        experts=[expert])
    text = render_trace(pattern, model, name=name)
    assert f"[{name}]" in text and f"expert=[{expert}]" in text
    assert verify_trace(text) == pattern.outcomes
    data = parse_trace(text)
    assert (data["side"], data["run_steps"], data["tags"]) == (
        DOMAIN_SIDE, pattern.steps, {0: ComponentTag(kind=CM)})


# every character str.splitlines breaks a line on
LINE_BREAKS = ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def test_line_breaks_are_every_character_splitlines_breaks_on():
    assert LINE_BREAKS == [chr(c) for c in range(0x110000)
                           if len(f"a{chr(c)}b".splitlines()) > 1]


@pytest.mark.parametrize("char", LINE_BREAKS, ids=ascii)
def test_writers_refuse_a_name_holding_a_line_break(char):
    # a name is written into one line, which its reader would read as two
    mf, pattern = run_fixture(*SQUARE)
    model, bad = mf.model, f"demo{char}component 9"
    badly_named = build_model(model.model_class, model.matrix, experts=[bad])
    with pytest.raises(InvalidInput, match="^model name "):
        render_trace(pattern, model, name=bad)
    with pytest.raises(InvalidInput, match="^expert name "):
        render_trace(pattern, badly_named)
    with pytest.raises(InvalidInput, match="^model name "):
        serialize_model(model, name=bad)
    with pytest.raises(InvalidInput, match="^expert name "):
        serialize_model(badly_named)


def test_tampered_final_is_rejected():
    text = trace_of(*SQUARE)
    doctored = text.replace("state=[0 1 0 0 1]", "state=[1 1 0 0 1]")
    assert doctored != text
    with pytest.raises(TraceError) as err:
        verify_trace(doctored)
    assert "does not match" in str(err.value)


def test_tampered_step_is_rejected():
    # flipping a recorded updated state breaks recurrence detection
    text = trace_of(*SQUARE)
    target = next(l for l in text.splitlines()
                  if l.startswith("step 1 component=1"))
    doctored = text.replace(target,
                            target.replace("updated=[0 1 0 0 1]",
                                           "updated=[0 1 1 0 1]"))
    assert doctored != text
    with pytest.raises(TraceError):
        verify_trace(doctored)


@pytest.mark.parametrize("pair, line, old, new", [
    pytest.param(SQUARE, "run ", "steps=1 ", "steps=99 ", id="run-steps"),
    pytest.param(SQUARE, "run ", "components=1", "components=9",
                 id="run-components"),
    pytest.param(SQUARE, "mask 1 ", "[2 5]", "[1 3]", id="mask"),
    pytest.param(RECT, "step 1 ", "side=range", "side=domain",
                 id="step-side"),
])
def test_restated_fact_that_disagrees_is_rejected(pair, line, old, new):
    # each field restates what the other lines already record
    text = trace_of(*pair)
    target = next(l for l in text.splitlines() if l.startswith(line))
    doctored = text.replace(target, target.replace(old, new, 1))
    assert doctored != text
    with pytest.raises(TraceError):
        verify_trace(doctored)


def test_square_component_seeded_on_the_range_is_rejected():
    # a CM component has no range space, however consistently every line
    # of the trace restates that side
    doctored = trace_of(*SQUARE).replace("side=domain", "side=range")
    with pytest.raises(TraceError, match="no range space"):
        verify_trace(doctored)


_LENGTH = "component 1 {}: length"
# a seed is held to the run's own rule, so it is rejected in its words
_SEED_LENGTH = "component 1: input length"
_MISMATCH = "recorded final .* does not match"


@pytest.mark.parametrize("pair, line, old, new, message", [
    pytest.param(SQUARE, "component 1 ", "rows=5 cols=5", "rows=7 cols=2",
                 _SEED_LENGTH, id="component-shape"),
    pytest.param(SQUARE, "component 1 ", "rows=5 cols=5", "rows=5 cols=7",
                 "component 1: a CM component must be square, got 5x7",
                 id="cm-not-square"),
    pytest.param(SQUARE, "input 1 ", "[0 1 0 0 1]", "[0 1 0 0 1 0]",
                 _SEED_LENGTH, id="input"),
    pytest.param(SQUARE, "step 1 ", "raw=[0", "raw=[0 0",
                 _LENGTH.format("step 1"), id="raw"),
    pytest.param(SQUARE, "step 1 ", "thresholded=[0", "thresholded=[0 0",
                 _LENGTH.format("step 1"), id="thresholded"),
    pytest.param(SQUARE, "step 1 ", "updated=[0", "updated=[0 0",
                 _LENGTH.format("step 1"), id="updated"),
    pytest.param(SQUARE, "final 1 ", "state=[0", "state=[0 0", _MISMATCH,
                 id="final"),
    pytest.param(RECT, "step 3 ", "raw=[1", "raw=[1 1",
                 _LENGTH.format("step 3"), id="range-raw"),
    pytest.param(RECT, "final 1 ", "range=[1", "range=[1 1", _MISMATCH,
                 id="final-range"),
    pytest.param(MIXED, "input 1 ", "[1 0 0 0", "[1 0 0.5 0",
                 "component 1, coordinate 3: non-crisp input 0.5; entries "
                 "must be 0 or 1", id="input-not-crisp"),
])
def test_part_of_the_wrong_length_is_rejected(pair, line, old, new, message):
    # every part is as long as its component's space on its side, and a
    # seed is crisp, as a run requires; a final state is held to the
    # checked step parts it must equal
    text = trace_of(*pair)
    target = next(l for l in text.splitlines() if l.startswith(line))
    doctored = text.replace(target, target.replace(old, new, 1))
    assert doctored != text
    with pytest.raises(TraceError, match=message):
        verify_trace(doctored)


def test_run_without_components_is_rejected():
    # a union is never empty, so no engine writes components=0
    with pytest.raises(TraceError, match="components=0, but a union has at "
                                         "least one component"):
        verify_trace("trace 1\nrun side=domain steps=0 components=0\nend\n")


def test_unfrozen_step_after_settling_is_rejected():
    mf, pattern = run_fixture(*MIXED)
    text = render_trace(pattern)
    idx = pattern.settled_steps.index(min(pattern.settled_steps))
    target = next(l for l in text.splitlines()
                  if l.startswith(f"step {min(pattern.settled_steps) + 1} "
                                  f"component={idx + 1} "))
    assert "frozen=yes" in target
    doctored = text.replace(target, target.replace("frozen=yes", "frozen=no"))
    with pytest.raises(TraceError, match=f"component {idx + 1}: settled="):
        verify_trace(doctored)


def _mixed_step_line(text, step, component):
    return next(l for l in text.splitlines()
                if l.startswith(f"step {step} component={component} "))


def test_frozen_rm_part_sits_on_the_seeded_side():
    # component 4 (RM 8x5) settled at step 2 and is carried on the domain
    # side, though step 3 lands the unfrozen RM parts on the range side
    mf, pattern = run_fixture(*MIXED)
    text = render_trace(pattern)
    assert _mixed_step_line(text, 3, 4) == (
        "step 3 component=4 side=domain frozen=yes "
        "raw=[0 0 0 0 0 0 0 1] thresholded=[0 0 0 0 0 0 0 1] "
        "updated=[0 0 0 0 0 0 0 1]")
    assert _mixed_step_line(text, 3, 5).startswith(
        "step 3 component=5 side=range frozen=no ")


@pytest.mark.parametrize("step, old, new", [
    pytest.param(3, "raw=[0 0 0 0 0 0 0 1]", "raw=[0 0 0 0 0 0 0 5]",
                 id="raw"),
    pytest.param(3, "thresholded=[0 0 0 0 0 0 0 1]",
                 "thresholded=[1 0 0 0 0 0 0 1]", id="thresholded"),
    pytest.param(3, "updated=[0 0 0 0 0 0 0 1]", "updated=[1 1 1 1 1 1 1 1]",
                 id="updated"),
    pytest.param(4, "side=domain", "side=range", id="side"),
])
def test_frozen_line_that_changes_its_part_is_rejected(step, old, new):
    mf, pattern = run_fixture(*MIXED)
    text = render_trace(pattern)
    target = _mixed_step_line(text, step, 4)
    doctored = text.replace(target, target.replace(old, new))
    assert doctored != text
    with pytest.raises(TraceError, match=f"component 4: frozen step {step} "):
        verify_trace(doctored)


def test_step_after_every_component_settled_is_rejected():
    # the engine stops at the first step where every component is frozen,
    # so an extra, well-formed all-frozen step must not verify
    mf, pattern = run_fixture(*MIXED)
    text = render_trace(pattern)
    steps = pattern.steps
    lines = [_mixed_step_line(text, steps, idx + 1)
             for idx in range(len(pattern.outcomes))]
    extra = []
    for idx, line in enumerate(lines):
        state = line.split("updated=")[1]
        extra.append(f"step {steps + 1} component={idx + 1} side=domain "
                     f"frozen=yes raw={state} thresholded={state} "
                     f"updated={state}")
    doctored = text.replace(lines[-1], "\n".join([lines[-1], *extra]))
    doctored = doctored.replace(f"steps={steps} ", f"steps={steps + 1} ")
    with pytest.raises(TraceError, match=f"steps={steps + 1}, but every "
                                         f"component has settled by step "
                                         f"{steps}"):
        verify_trace(doctored)


def test_settled_field_is_checked():
    text = trace_of(*SQUARE)
    final = next(l for l in text.splitlines() if l.startswith("final 1 "))
    settled = final.split()[4]
    assert settled == "settled=1"
    for wrong in ("settled=999", "settled=0", "settled=2"):
        with pytest.raises(TraceError, match="settled="):
            verify_trace(text.replace(final, final.replace(settled, wrong)))


def _one_component(kind, rows, algebra="fuzzy"):
    domain = "tri" if algebra == "fuzzy" else "neutro-tri"
    matrix = Matrix(len(rows), len(rows[0]), [v for row in rows for v in row],
                    domain)
    return SpecialMatrix([(matrix, ComponentTag(kind=kind, algebra=algebra))])


# one run of each outcome shape: union, domain seed, describe() text and
# trace final line of its single component
OUTCOME_SHAPES = [
    pytest.param(
        _one_component(CM, [[0, -1], [1, 0]]), [0, 1],
        "fixed point: [1 1]",
        "final 1 fixed-point period=1 settled=2 state=[1 1]",
        id="fixed-point"),
    pytest.param(
        _one_component(RM, [[0, -1], [-1, -1]]), [0, 1],
        "fixed pair: domain=[0 1] range=[0 0]",
        "final 1 fixed-pair period=1 settled=2 domain=[0 1] range=[0 0]",
        id="fixed-pair"),
    pytest.param(
        _one_component(CM, [[0, 0, 1], [0, 0, -1], [0, 1, 0]]), [1, 0, 0],
        "limit cycle (period 4): [1 0 0] -> [1 0 1] -> [1 1 1] -> [1 1 0]",
        "final 1 limit-cycle period=4 settled=4 "
        "states=[1 0 0]|[1 0 1]|[1 1 1]|[1 1 0]",
        id="limit-cycle"),
    pytest.param(
        _one_component(RM, [[0, 0, 0, 0, I, -1],
                            [0, I, -1, 1, -1, I],
                            [0, -1, 0, 1, I, I],
                            [1, -1, I, 1, -1, 0],
                            [1, 0, 1, 1, 1, -1]], algebra="neutrosophic"),
        [0, 1, 0, 1, 1],
        "pair cycle (period 2): domain=[0 1 1 1 1] range=[1 0 I 1 I 1] "
        "-> domain=[I 1 1 1 1] range=[1 0 I 1 1 I]",
        "final 1 pair-cycle period=2 settled=6 "
        "domains=[0 1 1 1 1]|[I 1 1 1 1] ranges=[1 0 I 1 I 1]|[1 0 I 1 1 I]",
        id="pair-cycle"),
]


@pytest.mark.parametrize("special, seed, described, final", OUTCOME_SHAPES)
def test_each_outcome_shape_describes_renders_and_verifies(
        special, seed, described, final):
    pattern = run_mixed(special, SpecialStateVector([seed]))
    assert pattern.describe() == f"component 1: {described}"
    text = render_trace(pattern)
    assert final in text.splitlines()
    assert parse_trace(text)["finals"][0]["outcome"] == pattern.outcomes[0]
    assert verify_trace(text) == pattern.outcomes


@pytest.mark.parametrize("special, seed, described, final", OUTCOME_SHAPES)
def test_changed_final_period_is_rejected(special, seed, described, final):
    x = SpecialStateVector([seed])
    text = render_trace(run_mixed(special, x))
    period = final.split()[3]  # period=1, 2 or 4
    for wrong in ("period=0", "period=3", "period=5"):
        with pytest.raises(TraceError, match="does not fit"):
            verify_trace(text.replace(final, final.replace(period, wrong)))


@pytest.mark.parametrize("special, seed, described, final",
                         OUTCOME_SHAPES[:2])
def test_fixed_final_relabelled_as_cycle_is_rejected(
        special, seed, described, final):
    # one state recorded as a period-1 cycle is a fixed point, not a cycle
    x = SpecialStateVector([seed])
    text = render_trace(run_mixed(special, x))
    relabelled = final
    for fixed, cycle in (("fixed-point", "limit-cycle"), ("state=", "states="),
                         ("fixed-pair", "pair-cycle"), ("domain=", "domains="),
                         ("range=", "ranges=")):
        relabelled = relabelled.replace(fixed, cycle)
    with pytest.raises(TraceError, match="does not fit"):
        verify_trace(text.replace(final, relabelled))


def test_pair_cycle_with_an_unpaired_state_is_rejected():
    special, seed, _, final = OUTCOME_SHAPES[3].values
    x = SpecialStateVector([seed])
    text = render_trace(run_mixed(special, x))
    unpaired = final.replace(" ranges=", "|[0 1 I 1 1] ranges=")
    with pytest.raises(TraceError, match="does not fit"):
        verify_trace(text.replace(final, unpaired))


def test_parse_rejects_malformed_lines():
    good = trace_of(*SQUARE)
    with pytest.raises(TraceError):
        parse_trace(good.replace("trace 1", "trace 9"))
    with pytest.raises(TraceError):
        parse_trace(good.replace("run side=domain", "run side=sideways"))
    with pytest.raises(TraceError):
        parse_trace(good + "wat\n")
    with pytest.raises(TraceError):
        parse_trace(good.replace("end\n", ""))
    with pytest.raises(TraceError):
        parse_trace("\n".join(l for l in good.splitlines()
                              if not l.startswith("run")) + "\n")
    # dropping the final line desynchronizes component/final bookkeeping
    with pytest.raises(TraceError):
        parse_trace("\n".join(l for l in good.splitlines()
                              if not l.startswith("final")) + "\n")


@pytest.mark.parametrize("prefix, edit", [
    pytest.param("component 1 ",
                 lambda l: l.replace("component 1", "component x"),
                 id="component-index"),
    pytest.param("component 1 ", lambda l: "component 1",
                 id="component-no-fields"),
    pytest.param("step 1 ", lambda l: l.replace(" side=domain", ""),
                 id="step-no-side"),
    pytest.param("step 1 ", lambda l: "step x", id="step-index"),
    pytest.param("final 1 ", lambda l: "final 1", id="final-no-fields"),
    pytest.param("final 1 ", lambda l: l.replace(" period=1", ""),
                 id="final-no-period"),
    pytest.param("input 1 ", lambda l: "input 1", id="input-no-state"),
    pytest.param("mask 1 ", lambda l: "mask 1 [a]", id="mask-coordinate"),
    # each name and the run's k are read with the engine's own rule
    pytest.param("component 1 ",
                 lambda l: l.replace("algebra=fuzzy", "algebra=bogus"),
                 id="algebra"),
    pytest.param("component 1 ",
                 lambda l: l.replace("op=circle", "op=convolve"), id="op"),
    pytest.param("run ", lambda l: l.replace("policy=book", "policy=bogus"),
                 id="policy"),
    pytest.param("run ", lambda l: l.replace("class=SMFCRNCRM", "class=NOPE"),
                 id="class"),
    pytest.param("run ",
                 lambda l: l.replace("threshold-k=0", "threshold-k=banana"),
                 id="threshold-k"),
    pytest.param("run ", lambda l: l.replace("threshold-k=0", "threshold-k=I"),
                 id="threshold-k-indeterminate"),
    pytest.param("step 1 ", lambda l: l.replace("frozen=no", "frozen=maybe"),
                 id="frozen"),
    # every number is ASCII decimal digits, which int() does not insist on
    pytest.param("run ", lambda l: l.replace("steps=7", "steps=0_7"),
                 id="steps-underscore"),
    pytest.param("run ", lambda l: l.replace("components=6", "components=６"),
                 id="components-fullwidth"),
    pytest.param("component 1 ", lambda l: l.replace("rows=8", "rows=+8"),
                 id="rows-sign"),
    pytest.param("component 1 ",
                 lambda l: l.replace("component 1", "component ١"),
                 id="component-index-arabic-indic"),
    pytest.param("mask 1 ", lambda l: "mask 1 [0_1]", id="mask-underscore"),
    pytest.param("step 1 ", lambda l: l.replace("step 1", "step +1"),
                 id="step-sign"),
    pytest.param("step 1 ",
                 lambda l: l.replace("component=1", "component=1_0"),
                 id="step-component-underscore"),
    pytest.param("final 1 ", lambda l: l.replace("period=1", "period=１"),
                 id="period-fullwidth"),
    pytest.param("final 1 ", lambda l: l.replace("settled=3", "settled=٣"),
                 id="settled-arabic-indic"),
    pytest.param("input 1 ", lambda l: l.replace("[1 ", "[１ "),
                 id="input-fullwidth-digit"),
    # each record holds its fields in the order the engine writes them,
    # once each and one space apart
    pytest.param("run ", lambda l: l.replace("steps=7 components=6",
                                             "components=6 steps=7"),
                 id="run-reordered"),
    pytest.param("run ", lambda l: l.replace("policy=book threshold-k=0",
                                             "threshold-k=0 policy=book"),
                 id="run-reordered-tail"),
    pytest.param("run ", lambda l: l.replace(" threshold-k=0",
                                             " steps=7 threshold-k=0"),
                 id="run-repeated"),
    pytest.param("run ", lambda l: l.replace(" policy=", " junk policy="),
                 id="run-stray"),
    pytest.param("step 1 ", lambda l: l.replace("side=domain frozen=no",
                                                "frozen=no side=domain"),
                 id="step-reordered"),
    pytest.param("step 1 ", lambda l: l.replace(" frozen=no",
                                                " frozen=no frozen=no"),
                 id="step-repeated"),
    pytest.param("step 1 ", lambda l: l.replace(" raw=", " junk raw="),
                 id="step-stray"),
    pytest.param("component 1 ",
                 lambda l: l.replace("algebra=fuzzy op=circle",
                                     "op=circle algebra=fuzzy"),
                 id="component-reordered"),
    pytest.param("component 1 ",
                 lambda l: l.replace(" rows=8", " rows=8 rows=8"),
                 id="component-repeated"),
    pytest.param("component 1 ", lambda l: l.replace(" kind=", " junk kind="),
                 id="component-stray"),
    pytest.param("final 1 ", lambda l: l.replace("period=1 settled=3",
                                                 "settled=3 period=1"),
                 id="final-reordered"),
    pytest.param("final 1 ", lambda l: l.replace(" period=1",
                                                 " period=1 period=1"),
                 id="final-repeated"),
    pytest.param("final 1 ", lambda l: l.replace(" state=", " junk state="),
                 id="final-stray"),
])
def test_malformed_line_raises_trace_error_naming_it(prefix, edit):
    lines = GOLDEN.splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(prefix))
    edited = edit(lines[at])
    assert edited != lines[at]
    lines[at] = edited
    with pytest.raises(TraceError, match=rf"^line {at + 1}: "):
        verify_trace("\n".join(lines) + "\n")


def test_a_second_run_line_is_rejected():
    # a copy of the run line at other settings, inserted after it, would
    # otherwise verify, and parse_trace would report the copy's settings
    lines = GOLDEN.splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("run "))
    copy = lines[at].replace(" policy=book threshold-k=0",
                             " policy=indeterminacy threshold-k=0.5")
    assert copy != lines[at]
    lines.insert(at + 1, copy)
    text = "\n".join(lines) + "\n"
    for read in (parse_trace, verify_trace):
        with pytest.raises(TraceError,
                           match=rf"^line {at + 2}: a second run line$"):
            read(text)


@pytest.mark.parametrize("head, false", [
    pytest.param("component", lambda l: l.replace("op=circle", "op=maxmin"),
                 id="component"),
    pytest.param("input", lambda l: "input 1 [0 1 0 0 0 0 0 0]", id="input"),
    pytest.param("mask", lambda l: "mask 1 [2]", id="mask"),
    pytest.param("final", lambda l: "final 1 fixed-point period=1 settled=3 "
                                    "state=[1 1 1 1 1 1 1 1]", id="final"),
])
def test_a_second_line_for_one_component_is_rejected(head, false):
    # a false line inserted before the true one would otherwise verify,
    # and parse_trace would report the true line's record only
    lines = GOLDEN.splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(f"{head} 1 "))
    line = false(lines[at])
    assert line != lines[at]
    lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    for read in (parse_trace, verify_trace):
        with pytest.raises(TraceError, match=rf"^line {at + 2}: a second "
                                             rf"{head} line for component 1$"):
            read(text)


@pytest.mark.parametrize("old, new", [
    pytest.param(" threshold-k=0", " threshold-k=0 op=tagged", id="op-tagged"),
    pytest.param(" threshold-k=0", "", id="no-threshold-k"),
    pytest.param(" threshold-k=0", " op=tagged",
                 id="op-tagged-no-threshold-k"),
])
def test_older_run_lines_still_verify(old, new):
    # run lines of older traces: ending in `op=tagged`, or with no k
    older = GOLDEN.replace(old, new, 1)
    assert older != GOLDEN
    assert verify_trace(older) == verify_trace(GOLDEN)


def test_a_long_run_line_is_read_in_linear_time():
    # each `]` is a place where a model name may end; no field after the
    # name holds one, so trying them all reads the line once. Were the
    # fields after it free to hold `]`, this line would take ~20 s.
    lines = GOLDEN.splitlines()
    lines[1] = "run side=domain steps=7 components=6 name=[" + \
        "] a=b" * 20000 + " x"
    start = time.perf_counter()
    with pytest.raises(TraceError, match="^line 2: malformed run record$"):
        parse_trace("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 2


def test_bad_state_on_many_lines_names_the_first():
    # a state text that fails to parse is never kept for the lines after it
    lines = trace_of(*MIXED).splitlines()
    step = next(l for l in lines if l.startswith("step 2 "))
    state = step.split(" updated=")[1]
    first = next(i for i, l in enumerate(lines) if state in l)
    assert sum(state in l for l in lines) > 1
    bad = "\n".join(lines).replace(state, state[:-1] + " 1+]") + "\n"
    with pytest.raises(TraceError, match=rf"^line {first + 1}: "):
        parse_trace(bad)


def test_bad_step_body_on_many_lines_names_the_first():
    # a step body that fails to parse is never kept for the lines after it
    lines = GOLDEN.splitlines()
    body = "component=6 side=domain frozen=yes "
    at = [i for i, l in enumerate(lines)
          if l.startswith("step ") and body in l]
    repeated = lines[at[0]].split(None, 2)[2]
    assert sum(l.split(None, 2)[2] == repeated for l in lines
               if l.startswith("step ")) > 1
    bad = [l.replace("frozen=yes", "frozen=maybe") if i in at else l
           for i, l in enumerate(lines)]
    with pytest.raises(TraceError, match=rf"^line {at[0] + 1}: unknown "
                                         rf"frozen flag 'maybe'"):
        parse_trace("\n".join(bad) + "\n")


def test_repeated_step_bodies_parse_to_their_own_step_numbers():
    data = parse_trace(GOLDEN)
    lines = [l.split(None, 2) for l in GOLDEN.splitlines()
             if l.startswith("step ")]
    assert [e["step"] for e in data["steps"]] == [int(l[1]) for l in lines]
    for entry, (_, _, body) in zip(data["steps"], lines):
        assert f"component={entry['component'] + 1} " in body
        assert f"frozen={'yes' if entry['frozen'] else 'no'} " in body


@pytest.mark.parametrize("model_class, problem", [
    ("SFCM", "component 3: neutrosophic components not allowed in SFCM; "
             "component 4: kind RM not allowed in SFCM"),
    ("SMNCNRM", "component 1: fuzzy components not allowed in SMNCNRM"),
    ("SMFRE", "component 1: kind CM not allowed in SMFRE"),
    ("SFRE", "component 1: kind CM not allowed in SFRE; .*; SFRE describes "
             "relational equations; solve it with the fre module"),
], ids=["SFCM", "SMNCNRM", "SMFRE", "SFRE"])
def test_run_class_is_held_to_the_component_lines(model_class, problem):
    # the golden mixture's components break these classes' tag-and-shape
    # rule, the one build_model applies to a union; an equation class is
    # refused as one too
    tampered = GOLDEN.replace("class=SMFCRNCRM", f"class={model_class}", 1)
    assert tampered != GOLDEN
    with pytest.raises(TraceError, match=f"^{problem}"):
        verify_trace(tampered)
    # SSHM admits every tag and shape
    assert verify_trace(GOLDEN.replace("class=SMFCRNCRM", "class=SSHM", 1)) \
        == verify_trace(GOLDEN)


@pytest.mark.parametrize("model_class", ["SFRE", "SMFRE"])
def test_an_equation_class_has_no_run_to_trace(model_class):
    # a fuzzy RM max-min union keeps the equation classes' tag-and-shape
    # rule, but an equation class has no dynamical run: run refuses it, and
    # a trace can neither be rendered for it nor verify with it
    special = SpecialMatrix([(Matrix.from_rows([[0.9, 0.6], [0.4, 0.3]],
                                               "unit"),
                              ComponentTag(kind=RM, op="maxmin"))])
    x0 = SpecialStateVector([(Scalar(1), Scalar(0))])
    with pytest.raises(WrongEntryPoint):
        run(build_model(model_class, special), x0)
    pattern = run_mixed(special, x0)
    with pytest.raises(WrongEntryPoint):
        render_trace(pattern, build_model(model_class, special))
    text = render_trace(pattern, build_model("SSHM", special))
    tampered = text.replace("class=SSHM", f"class={model_class}", 1)
    assert tampered != text
    with pytest.raises(TraceError, match=f"^{model_class} describes "
                                         f"relational equations"):
        verify_trace(tampered)


# field values and state tokens a tampered trace may hold
_TOKENS = ["bogus", "nan", "1e400", "I", "[", "|", "]", "-1", "0", "0.5",
           "2", "yes", "no", "CM", "RM", "range", "domain", "99", "-3", ""]


@st.composite
def tampered_golden(draw):
    """The golden trace with one line dropped, duplicated or swapped with
    another, or one field value or state token replaced."""
    lines = GOLDEN.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
    if how == "drop":
        del lines[at]
    elif how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        # separators are kept, so only the token between them changes
        pieces = re.split(r"([\s=\[\]|])", lines[at])
        spots = [i for i, piece in enumerate(pieces) if i % 2 == 0 and piece]
        pieces[draw(st.sampled_from(spots))] = draw(st.sampled_from(_TOKENS))
        lines[at] = "".join(pieces)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(tampered_golden())
def test_tampered_golden_trace_verifies_or_raises_trace_error(text):
    try:
        verify_trace(text)
    except TraceError:
        pass


# (algebra, operator) -> the domain a component of that kind declares, its
# tag's carrier, and the entries it draws from
_ENTRIES = {
    ("fuzzy", "circle"): ("tri", [-1, 0, 0, 1]),
    ("neutrosophic", "circle"): ("neutro-tri", [-1, 0, 0, 1, I]),
    ("fuzzy", "maxmin"): ("unit", [0, 0.3, 0.6, 1]),
    ("fuzzy", "minmax"): ("unit", [0, 0.3, 0.6, 1]),
    ("neutrosophic", "maxmin"): ("neutro-unit", [0, 0.5, 1, I]),
    ("neutrosophic", "minmax"): ("neutro-unit", [0, 0.5, 1, I]),
}
# Only neutrosophic circle RM components were seen to close pair cycles:
# about 1 in 6 random ones of 2-5 nodes a side over these entries, 1 in
# 16 over the pool above. Half of all RM draws are of this kind.
_RM_CYCLING = ("neutrosophic", "circle"), ("neutro-tri", [-1, 1, I])


@st.composite
def seeded_unions(draw):
    """A union of 1-3 components of 1-5 nodes over every algebra/operator
    pair, with a crisp seed on a valid side (CM or RM on the domain side,
    RM on the range side) and a cut constant."""
    side = draw(st.sampled_from([DOMAIN_SIDE, RANGE_SIDE]))
    comps, parts = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([CM, RM] if side == DOMAIN_SIDE
                                    else [RM]))
        low = 1
        if kind == RM and draw(st.booleans()):
            (algebra, op), (domain, pool) = _RM_CYCLING
            low = 2
        else:
            algebra, op = draw(st.sampled_from(sorted(_ENTRIES)))
            domain, pool = _ENTRIES[algebra, op]
        rows = draw(st.integers(low, 5))
        cols = rows if kind == CM else draw(st.integers(low, 5))
        entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                                max_size=rows * cols))
        comps.append((Matrix(rows, cols, entries, domain),
                      ComponentTag(kind=kind, algebra=algebra, op=op)))
        size = cols if kind == RM and side == RANGE_SIDE else rows
        parts.append(draw(st.lists(st.sampled_from([0, 1]), min_size=size,
                                   max_size=size)))
    k = draw(st.sampled_from([-1, 0, 0.5, 1]))
    return SpecialMatrix(comps), SpecialStateVector(parts, side=side), k


@settings(max_examples=200, deadline=None)
@given(seeded_unions(), st.sampled_from(list(OrderPolicy)))
def test_verify_trace_rederives_every_run(case, policy):
    special, x0, k = case
    # every record replays through the public Scalar operations, and
    # verify_trace re-derives the outcomes from the rendered trace
    assert_replays(run_mixed(special, x0, threshold_k=k, policy=policy))


@settings(max_examples=200, deadline=None)
@given(seeded_unions(), st.sampled_from(list(OrderPolicy)))
def test_trace_round_trip_preserves_step_data(case, policy):
    # the run line reads back as the run's settings, each step line as its
    # record's component, side, frozen flag and parts, and each final
    # line as its outcome
    special, x0, k = case
    pattern = run_mixed(special, x0, threshold_k=k, policy=policy)
    data = parse_trace(render_trace(pattern))
    assert (data["policy"], data["threshold_k"]) == (policy, k)
    assert isinstance(data["threshold_k"], float)
    kinds = [tag.kind for _, tag in special]
    assert [(e["step"], e["component"]) for e in data["steps"]] == [
        (t, c) for t in range(1, pattern.steps + 1) for c in range(len(kinds))]
    for entry in data["steps"]:
        step, c = entry["step"], entry["component"]
        record = pattern.trace[step - 1]
        frozen = record.frozen[c]
        assert entry["frozen"] == frozen
        # a frozen part is carried on the seeded side
        assert entry["side"] == (x0.side if frozen
                                 else landing_side(kinds[c], x0.side, step))
        assert (entry["raw"], entry["thresholded"], entry["updated"]) == (
            record.raw[c], record.thresholded[c], record.updated[c])
    assert [data["finals"][c]["outcome"] for c in range(len(kinds))] == list(
        pattern.outcomes)


def _assert_cycles_step(special, x0, k, pattern):
    """Every state of every reported cycle steps to the next one, and each
    cycle starts at the first state of the seed's orbit that it holds."""
    for (matrix, tag), seed, outcome in zip(special, x0.parts,
                                            pattern.outcomes):
        cycle = outcome.states if isinstance(outcome, LimitCycle) \
            else (outcome.state,)
        pin = seed_pin(seed)
        if tag.kind == CM:
            seeded = list(cycle)

            def advance(state):
                return public_step(state, matrix, tag, k, pin)[2]
        else:
            # seeded-side state -> unpinned far-side partner -> next
            # seeded-side state, pinned
            there, back = (matrix, transpose(matrix))
            if x0.side == RANGE_SIDE:
                there, back = back, there
                cycle = [pair[::-1] for pair in cycle]
            seeded = [s for s, _ in cycle]
            for s, far in cycle:
                assert public_step(s, there, tag, k, ())[2] == far

            def advance(state):
                far = public_step(state, there, tag, k, ())[2]
                return public_step(far, back, tag, k, pin)[2]
        for t, state in enumerate(seeded):
            assert advance(state) == seeded[(t + 1) % len(seeded)]
        state = seed
        for _ in range(pattern.steps + 1):
            if state in seeded:
                break
            state = advance(state)
        assert state == seeded[0]


def _range_seeded(special):
    # the transposed union seeded on its range side mirrors the original
    (matrix, tag), = special
    return SpecialMatrix([(transpose(matrix), tag)])


@pytest.mark.parametrize("special, x0", [
    *[pytest.param(p.values[0], SpecialStateVector([p.values[1]]), id=p.id)
      for p in OUTCOME_SHAPES],
    *[pytest.param(_range_seeded(p.values[0]),
                   SpecialStateVector([p.values[1]], side=RANGE_SIDE),
                   id=f"range-seeded-{p.id}")
      for p in OUTCOME_SHAPES if "pair" in p.id],
])
def test_each_outcome_shape_steps_to_itself(special, x0):
    _assert_cycles_step(special, x0, 0.0, run_mixed(special, x0))


def test_every_reported_cycle_steps_to_its_next_state():
    shapes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(seeded_unions())
    def check(case):
        special, x0, k = case
        pattern = run_mixed(special, x0, threshold_k=k)
        _assert_cycles_step(special, x0, k, pattern)
        shapes.update(outcome_shape(o)[0] for o in pattern.outcomes)

    check()
    assert shapes["pair-cycle"], shapes  # the draws reach RM pair cycles
