"""Machine-readable run traces.

One line per component per step, plus header, input, mask, and final
lines. All indices and coordinates are 1-based in the file. State vectors
render like `[0 1 I]` using the scalar text syntax, several states joined
by `|`. The format is deterministic: the same run options yield the same
bytes, and a trace alone is enough to re-derive (and thus audit) the
final hidden pattern.

A run repeats a few states many times and decodes equal states of a
component to one tuple, so each call renders each such tuple once
(render_trace) and parses each distinct bracketed state text, and each
distinct step line after its step number, once (parse_trace). Every
number in a trace is written in ASCII digits, and read only so.
"""

from __future__ import annotations

import re
from functools import cache
from operator import itemgetter

from .dynamics import (
    HiddenPattern,
    Recurrence,
    describe_outcome,
    landing_side,
    on_coordinates,
    outcome_shape,
    part_problem,
    seed_problems,
)
from .errors import (FuzzymapsError, InvalidInput, ShapeMismatch, TraceError,
                     WrongEntryPoint)
from .models import Model, ModelClass, _dynamical_class, _tag_diagnostics
from .special import CM, SIDES, ComponentTag, SpecialMatrix, render_part
from .values import (
    OrderPolicy,
    _ascii_int,
    _check_one_line,
    _check_threshold_k,
    _require_type,
    parse_name,
    parse_scalar,
    parse_scalars,
    render_scalar,
)

TRACE_VERSION = "1"
_STEP = itemgetter("step")
_SIDE_AND_PARTS = itemgetter("side", "raw", "thresholded", "updated")


# the state fields of a final line, by outcome shape (None: no second)
_FINAL_FIELDS = {
    "fixed-point": ("state", None),
    "fixed-pair": ("domain", "range"),
    "limit-cycle": ("states", None),
    "pair-cycle": ("domains", "ranges"),
}


class _PartTexts(dict):
    """One render's text of each part, rendered on first use. A run decodes
    equal parts of a component to one tuple, so parts are told apart by
    identity, which needs no hash of their values; each text is kept with
    its part, so that no id is reused while the render lasts."""

    def text(self, part):
        entry = self.get(id(part))
        if entry is None:
            entry = self[id(part)] = part, render_part(part)
        return entry[1]


def render_trace(pattern: HiddenPattern, model=None, *, name="",
                 experts=None, model_class=None, policy=None,
                 threshold_k=None) -> str:
    """Serialize a run result: its tags, shapes, policy and k as the run
    recorded them, and the class and expert names of `model`, a Model of
    the very union the run ran (else InvalidInput), named `name`. Kept only
    for bench/workloads.py until ROADMAP item 2b: a bare union labelled by
    `experts` and `model_class`, and `policy` and `threshold_k` as claims,
    never written, each raising InvalidInput unless it is the run's own."""
    _require_type(pattern, HiddenPattern, "pattern")
    _require_type(name, str, "name")
    special, count = pattern.special, len(pattern.outcomes)
    if model is not None and not isinstance(model, SpecialMatrix):
        _require_type(model, Model, "model")
        experts, model_class = model.experts, model.model_class
        model = model.matrix
    if model is not None and model is not special:
        raise InvalidInput("the model's union is not the one the run ran")
    if policy is not None and OrderPolicy.parse(policy) is not pattern.policy \
            or threshold_k is not None and threshold_k != pattern.threshold_k:
        raise InvalidInput(f"the run's policy is {pattern.policy.value} and "
                           f"its threshold k {pattern.threshold_k!r}")
    if experts is not None and len(experts) != count:
        raise ShapeMismatch(f"{len(experts)} experts for {count} components")
    _check_one_line("model name", name)
    _check_one_line("expert name", *(experts or ()))
    text = _PartTexts().text
    out = [f"trace {TRACE_VERSION}"]
    run_fields = [f"side={pattern.side}", f"steps={pattern.steps}",
                  f"components={count}"]
    if model_class is not None:
        run_fields.append(f"class={_dynamical_class(model_class).value}")
    if name:
        run_fields.append(f"name=[{name}]")
    run_fields += [f"policy={pattern.policy.value}",
                   f"threshold-k={render_scalar(pattern.threshold_k)}"]
    out.append("run " + " ".join(run_fields))
    for idx, (mat, tag) in enumerate(special):
        fields = [f"kind={tag.kind}", f"algebra={tag.algebra}",
                  f"op={tag.op}", f"rows={mat.rows}", f"cols={mat.cols}"]
        if experts is not None:
            fields.append(f"expert=[{experts[idx]}]")
        out.append(f"component {idx + 1} " + " ".join(fields))
    for idx, coords in enumerate(pattern.mask):
        body = " ".join(str(c + 1) for c in coords)
        out.append(f"mask {idx + 1} [{body}]")
    for idx, part in enumerate(pattern.input.parts):
        out.append(f"input {idx + 1} {text(part)}")
    # each component's step line head by step parity, and once frozen
    heads = [(*(f"component={idx} side="
                f"{landing_side(tag.kind, pattern.side, parity)} frozen=no"
                for parity in (0, 1)),
              f"component={idx} side={pattern.side} frozen=yes")
             for idx, (_, tag) in enumerate(special, 1)]
    for step, record in enumerate(pattern.trace, 1):
        for head, frozen, raw, cut, new in zip(
                heads, record.frozen, record.raw, record.thresholded,
                record.updated):
            out.append(f"step {step} {head[2 if frozen else step & 1]} "
                       f"raw={text(raw)} thresholded={text(cut)} "
                       f"updated={text(new)}")
    settled = pattern.settled_steps
    for idx, outcome in enumerate(pattern.outcomes):
        shape, cycle = outcome_shape(outcome)
        columns = zip(*cycle) if "pair" in shape else (cycle,)
        states = " ".join(f"{field}={'|'.join(map(text, column))}"
                          for field, column
                          in zip(_FINAL_FIELDS[shape], columns))
        out.append(f"final {idx + 1} {shape} period={outcome.period} "
                   f"settled={settled[idx]} {states}")
    out.append("end")
    return "\n".join(out) + "\n"


# Each record's fields in the order render_trace writes them: a step
# line's after its step number, a run, component and final line's after
# their head. A model or expert name is free text, which may hold `]` and
# `key=`, so it runs to the last `]` of its line; a run line may end in
# fields of other names (older ones end in `op=tagged`). No field after
# a name holds `]`, so a line is read in time linear in its length.
_STATE = r"\[[^\]]*\]"
_STATES = rf"{_STATE}(?:\|{_STATE})*"
_LINE_PATTERNS = (
    rf"component=([0-9]+) side=(\S+) frozen=(\S+) raw=({_STATE}) "
    rf"thresholded=({_STATE}) updated=({_STATE})",
    r"side=(\S+) steps=([0-9]+) components=([0-9]+)(?: class=(\S+))?"
    r"(?: name=\[.*\])?(?: policy=([^\s\]]+))?(?: threshold-k=([^\s\]]+))?"
    r"(?: (?!(?:side|steps|components|class|name|policy|threshold-k)=)"
    r"[\w-]+=[^\s\]]+)*",
    r"([0-9]+) kind=(\S+) algebra=(\S+) op=(\S+) rows=([0-9]+) cols=([0-9]+)"
    r"(?: expert=\[.*\])?",
    rf"([0-9]+) (\S+) period=([0-9]+) settled=([0-9]+) (\w+)=({_STATES})"
    rf"(?: (\w+)=({_STATES}))?",
)
# compiled on the first parse, so that an import compiles none of them
_line_patterns = cache(lambda: tuple(map(re.compile, _LINE_PATTERNS)))


def _fields(pattern, text: str) -> tuple:
    """The fields of `text`, which `pattern` must match whole."""
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(f"not a record of its kind: {text!r}")
    return match.groups()


def _parse_state(text: str, states: dict):
    """The state `text` spells, parsed once per trace: `states` maps each
    bracketed text parsed so far to its tuple. A text that fails to parse
    is never kept, so its error names the line it first appears on."""
    state = states.get(text)
    if state is None:
        if not (text.startswith("[") and text.endswith("]")):
            raise TraceError(f"bad state {text!r}")
        state = states[text] = parse_scalars(text[1:-1].split())
    return state


def _first(records: dict, idx: int, head: str) -> int:
    """`idx`, unless `records` already holds a `head` line for that
    component, which raises TraceError."""
    if idx in records:
        raise TraceError(f"a second {head} line for component {idx + 1}")
    return idx


def parse_trace(text: str) -> dict:
    """Structural parse into a dict: side, the run line's step and
    component counts, model class, OrderPolicy and threshold k (a float),
    each None when absent, component tags, (rows, cols) shapes, inputs,
    masks, steps, finals. Each name, and k, is read with the engine's own
    rule, and each run, component, step and final line holds its fields
    once, one space apart, in render_trace's order; a trace has one run
    line, which may end in other fields, and one component, input, mask
    and final line per component. Raises TraceError, naming the line, on
    malformed input."""
    _require_type(text, str, "text")
    step_re, run_re, component_re, final_re = _line_patterns()
    side = model_class = None
    tags, shapes, inputs, masks, finals, steps = {}, {}, {}, {}, {}, []
    states = {}  # bracketed state text -> its parsed tuple
    bodies = {}  # step line text after the step number -> its fields
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "step":  # most lines of a trace
                number, body = rest.split(None, 1)
                step = _ascii_int(number)
                entry = bodies.get(body)
                if entry is None:
                    comp, at, frozen, raw, cut, new = _fields(step_re, body)
                    entry = bodies[body] = {
                        "component": int(comp) - 1, "side": at,
                        "frozen": parse_name(frozen, ("yes", "no"),
                                             "frozen flag") == "yes",
                        "raw": _parse_state(raw, states),
                        "thresholded": _parse_state(cut, states),
                        "updated": _parse_state(new, states)}
                steps.append({"step": step, **entry})
            elif head == "trace":
                if rest.strip() != TRACE_VERSION:
                    raise TraceError(
                        f"unsupported trace version {rest.strip()!r}")
            elif head == "run":
                if side is not None:
                    raise TraceError("a second run line")
                side_text, *counts, cls, policy, k = _fields(run_re, rest)
                side = parse_name(side_text, SIDES, "side")
                counts = tuple(map(int, counts))
                if cls is not None:
                    model_class = ModelClass.parse(cls)
                if policy is not None:
                    policy = OrderPolicy.parse(policy)
                if k is not None:
                    k = parse_scalar(k)
                    k = k.real_part if k.is_real else k
                    _check_threshold_k(k)
            elif head == "component":
                idx, kind, algebra, op, *shape = _fields(component_re, rest)
                idx = _first(tags, int(idx) - 1, head)
                tags[idx] = ComponentTag(kind, algebra, op)
                shapes[idx] = tuple(map(int, shape))
            elif head == "input":
                tokens = rest.split(None, 1)
                idx = _first(inputs, _ascii_int(tokens[0]) - 1, head)
                inputs[idx] = _parse_state(tokens[1].strip(), states)
            elif head == "mask":
                tokens = rest.split(None, 1)
                body = tokens[1].strip()
                if not (body.startswith("[") and body.endswith("]")):
                    raise TraceError("bad mask")
                idx = _first(masks, _ascii_int(tokens[0]) - 1, head)
                masks[idx] = tuple(
                    _ascii_int(c) - 1 for c in body[1:-1].split())
            elif head == "final":
                idx, shape, period, settled, *named = _fields(final_re, rest)
                idx = _first(finals, int(idx) - 1, head)
                if shape not in _FINAL_FIELDS:
                    raise TraceError(f"unknown final shape {shape!r}")
                if tuple(named[::2]) != _FINAL_FIELDS[shape]:
                    raise ValueError(f"{shape} with fields {named[::2]}")
                columns = [tuple(_parse_state(chunk, states)
                                 for chunk in column.split("|"))
                           for column in named[1::2] if column]
                cycle = tuple(zip(*columns)) if "pair" in shape \
                    else columns[0]
                outcome = Recurrence.outcome(cycle)
                period = int(period)
                if outcome_shape(outcome)[0] != shape \
                        or outcome.period != period \
                        or len({len(c) for c in columns}) != 1:
                    raise TraceError(f"{shape} period={period} does not "
                                     f"fit its recorded states")
                finals[idx] = {"shape": shape, "period": period,
                               "settled": int(settled),
                               "outcome": outcome}
            elif head == "end":
                saw_end = True
            else:
                raise TraceError(f"unknown record {head!r}")
        except (ValueError, IndexError, KeyError):
            # a missing field or token, or a number that does not parse
            raise TraceError(
                f"line {lineno}: malformed {head} record") from None
        except FuzzymapsError as exc:
            # a rule of the trace format or of the engine that the line breaks
            raise TraceError(f"line {lineno}: {exc}") from None
    if side is None:
        raise TraceError("trace has no run line")
    if not saw_end:
        raise TraceError("trace has no end line")
    if set(tags) != set(inputs) or set(tags) != set(finals):
        raise TraceError("component, input, and final lines disagree")
    return {"side": side, "run_steps": counts[0], "components": counts[1],
            "class": model_class, "policy": policy, "threshold_k": k,
            "tags": tags, "shapes": shapes, "inputs": inputs,
            "masks": masks, "steps": steps, "finals": finals}


def verify_trace(text: str) -> tuple:
    """Re-derive every component's final pattern from the recorded step
    states with the engine's recurrence rule, and check it, its settle
    step, the frozen steps after it, the run line's counts (one component
    or more) and model class (the tag-and-shape rule every Model applies,
    and one that has a dynamical run), the masks, square CM shapes, every
    part's side and length (part_problem) and crisp seeds (seed_problems)
    against the trace. Returns the verified outcomes in order."""
    data = parse_trace(text)
    side, n, steps = data["side"], data["components"], data["run_steps"]
    if n < 1:
        raise TraceError(f"run line says components={n}, but a union has "
                         f"at least one component")
    # sizes are compared first, so no list is built from an untrusted count
    tags, shapes = data["tags"], data["shapes"]
    if len(tags) != n or sorted(tags) != list(range(n)):
        raise TraceError(f"run line says components={n}, but the trace "
                         f"has {len(tags)} component lines")
    if data["class"] is not None:
        problems = _tag_diagnostics(data["class"],
                                    [(tags[i], shapes[i]) for i in range(n)])
        try:
            _dynamical_class(data["class"])
        except WrongEntryPoint as exc:
            problems.append(str(exc))
        if problems:
            raise TraceError("; ".join(problems))
    # each component's step entries, in step order whatever the line order
    entries, grouped = data["steps"], {idx: [] for idx in range(n)}
    for entry in sorted(entries, key=_STEP):
        grouped.setdefault(entry["component"], []).append(entry)
    order = list(range(1, steps + 1)) if len(entries) == n * steps else None
    if len(grouped) != n or any(list(map(_STEP, comp_steps)) != order
                                for comp_steps in grouped.values()):
        raise TraceError(f"run line says steps={steps}, but the step lines "
                         f"are not one per component per step 1..{steps}")
    outcomes = []
    last = 0  # the largest settle step, where the engine stops
    for idx in range(n):
        where = f"component {idx + 1}"
        state = data["inputs"][idx]
        if data["masks"].get(idx) != on_coordinates(state):
            raise TraceError(f"{where}: mask does not match its input")
        kind, shape = tags[idx].kind, shapes[idx]
        if problems := seed_problems(where, state, kind, side, *shape):
            raise TraceError("; ".join(problems))
        if kind == CM and shape[0] != shape[1]:
            raise TraceError(f"{where}: a CM component must be square, got "
                             f"{shape[0]}x{shape[1]}")
        recurrence = Recurrence(kind, side, state)
        # landing_side read once per parity: step s lands on sides[s & 1]
        sides = (landing_side(kind, side, 0), landing_side(kind, side, 1))
        comp_steps = grouped[idx]
        fits = set()  # the (side, part lengths) that part_problem passed
        for entry in comp_steps:
            at, raw, cut, new = _SIDE_AND_PARTS(entry)
            if at != sides[entry["step"] & 1]:
                raise TraceError(f"{where}: step {entry['step']} lands on "
                                 f"the wrong side")
            if (lengths := (at, len(raw), len(cut), len(new))) not in fits:
                for part in (raw, cut, new):
                    if problem := part_problem(part, kind, at, *shape):
                        raise TraceError(
                            f"{where} step {entry['step']}: {problem}")
                fits.add(lengths)
            # a step that lands on the seeded side ends a round
            if at == side and recurrence.closes(entry["step"], new):
                closed = entry["step"]
                break
        else:
            raise TraceError(f"{where}: recorded states never recur; trace "
                             f"incomplete")
        final = data["finals"][idx]
        unfrozen = [e["step"] for e in comp_steps if not e["frozen"]]
        if final["settled"] != closed \
                or unfrozen != list(range(1, closed + 1)):
            raise TraceError(
                f"{where}: settled={final['settled']} with {len(unfrozen)} "
                f"unfrozen step lines, but its states first recur at step "
                f"{closed}")
        # a frozen part is carried unchanged on the seeded side
        carried = (side, *(comp_steps[closed - 1]["updated"],) * 3)
        for entry in comp_steps[closed:]:
            if _SIDE_AND_PARTS(entry) != carried:
                raise TraceError(
                    f"{where}: frozen step {entry['step']} does not carry "
                    f"the state settled at step {closed} on the {side} side")
        last = max(last, closed)
        # built from the length-checked input and step parts, so a final
        # state of any other length does not match it
        rebuilt = Recurrence.outcome(recurrence.cycle(
            new, lambda t: comp_steps[t]["updated"]))
        if rebuilt != final["outcome"]:
            raise TraceError(
                f"{where}: recorded final "
                f"({describe_outcome(final['outcome'])}) does not match the "
                f"states in the trace ({describe_outcome(rebuilt)})")
        outcomes.append(rebuilt)
    if last != steps:
        raise TraceError(f"run line says steps={steps}, but every component "
                         f"has settled by step {last}")
    return tuple(outcomes)
