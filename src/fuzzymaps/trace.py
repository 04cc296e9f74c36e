"""Machine-readable run traces.

One line per component per step, plus header, input, mask, and final
lines. All indices and coordinates are 1-based in the file. State vectors
render like `[0 1 I]` using the scalar text syntax, several states joined
by `|`. The format is deterministic: the same run options yield the same
bytes, and a trace alone is enough to re-derive (and thus audit) the
final hidden pattern.

A run repeats a few states many times, so each call renders each
distinct state once (render_trace) and parses each distinct bracketed
state text once (parse_trace).
"""

from __future__ import annotations

import re

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
from .errors import FuzzymapsError, ShapeMismatch, TraceError
from .models import ModelClass, _tag_diagnostics
from .special import CM, SIDES, ComponentTag, SpecialMatrix, render_part
from .values import (
    OrderPolicy,
    _check_threshold_k,
    parse_name,
    parse_scalar,
    render_scalar,
)

TRACE_VERSION = "1"


# the state fields of a final line, by outcome shape
_FINAL_FIELDS = {
    "fixed-point": ("state",),
    "fixed-pair": ("domain", "range"),
    "limit-cycle": ("states",),
    "pair-cycle": ("domains", "ranges"),
}


class _PartTexts(dict):
    """One render's text of each distinct part, rendered on first use."""

    def __missing__(self, part):
        text = self[part] = render_part(part)
        return text


def render_trace(pattern: HiddenPattern, special: SpecialMatrix, *,
                 experts=None, policy=None, threshold_k=0.0,
                 model_class=None, name="") -> str:
    """Serialize a run result. `special` supplies the component tags,
    whose operators the run applied, and `experts` their names, one per
    component; `policy` and `model_class`, each a member or its text, are
    recorded when given. The run line ends at `threshold-k=`; its model
    metadata is embedded for audit but not needed for verification."""
    _check_threshold_k(threshold_k)
    count = len(pattern.outcomes)
    if len(special) != count:
        raise ShapeMismatch(f"union has {len(special)} components, run has "
                            f"{count}")
    if experts is not None and len(experts) != count:
        raise ShapeMismatch(f"{len(experts)} experts for {count} components")
    text = _PartTexts().__getitem__
    out = [f"trace {TRACE_VERSION}"]
    run_fields = [f"side={pattern.side}", f"steps={pattern.steps}",
                  f"components={len(special)}"]
    if model_class is not None:
        run_fields.append(f"class={ModelClass.parse(model_class).value}")
    if name:
        run_fields.append(f"name=[{name}]")
    if policy is not None:
        run_fields.append(f"policy={OrderPolicy.parse(policy).value}")
    run_fields.append(f"threshold-k={render_scalar(threshold_k)}")
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
    for step, record in enumerate(pattern.trace, 1):
        for idx, (mat, tag) in enumerate(special):
            # a frozen part is carried on the seeded side
            frozen = record.frozen[idx]
            side = pattern.side if frozen \
                else landing_side(tag.kind, pattern.side, step)
            # the three parts are often one object: a frozen or level
            # part, or a cut that pinning left alone
            raw, cut, new = (record.raw[idx], record.thresholded[idx],
                             record.updated[idx])
            raw_text = text(raw)
            cut_text = raw_text if cut is raw else text(cut)
            new_text = cut_text if new is cut else text(new)
            out.append(
                f"step {step} component={idx + 1} side={side} "
                f"frozen={'yes' if frozen else 'no'} raw={raw_text} "
                f"thresholded={cut_text} updated={new_text}")
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


_FIELD_RE = re.compile(
    r"([\w-]+)=((?:\[[^\]]*\])(?:\|\[[^\]]*\])*|\S+)")
# the one bracketed field of a run or component line, a model or expert
# name: free text, which may hold brackets and `key=` of its own. No other
# field there has a bracket, so it runs from the first `[` to the last `]`.
_FREE_TEXT_RE = re.compile(r"[\w-]+=\[.*\]")


def _engine_fields(text: str) -> dict:
    """The engine-written fields of a run or component line."""
    return dict(_FIELD_RE.findall(_FREE_TEXT_RE.sub("", text, count=1)))


def _parse_state(text: str, states: dict):
    """The state `text` spells, parsed once per trace: `states` maps each
    bracketed text parsed so far to its tuple. A text that fails to parse
    is never kept, so its error names the line it first appears on."""
    state = states.get(text)
    if state is None:
        if not (text.startswith("[") and text.endswith("]")):
            raise TraceError(f"bad state {text!r}")
        state = states[text] = tuple(map(parse_scalar, text[1:-1].split()))
    return state


def _parse_states(text: str, states: dict):
    return tuple(_parse_state(chunk, states) for chunk in text.split("|"))


def parse_trace(text: str) -> dict:
    """Structural parse into a dict: side, the run line's step and
    component counts and model class (None when absent), component tags,
    (rows, cols) shapes, inputs, masks, steps, finals. Each name, and the
    run's k, is read with the engine's own rule. Raises TraceError, naming
    the line, on malformed input."""
    side = None
    model_class = None
    tags = {}
    shapes = {}
    inputs = {}
    masks = {}
    steps = []
    finals = {}
    states = {}  # bracketed state text -> its parsed tuple
    saw_end = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "trace":
                if rest.strip() != TRACE_VERSION:
                    raise TraceError(
                        f"unsupported trace version {rest.strip()!r}")
            elif head == "run":
                fields = _engine_fields(rest)
                side = parse_name(fields["side"], SIDES, "side")
                counts = int(fields["steps"]), int(fields["components"])
                if "class" in fields:
                    model_class = ModelClass.parse(fields["class"])
                if "policy" in fields:
                    OrderPolicy.parse(fields["policy"])
                if "threshold-k" in fields:
                    k = parse_scalar(fields["threshold-k"])
                    _check_threshold_k(k.real_part if k.is_real else k)
            elif head == "component":
                tokens = rest.split(None, 1)
                idx = int(tokens[0]) - 1
                fields = _engine_fields(tokens[1])
                tags[idx] = ComponentTag(fields["kind"], fields["algebra"],
                                         fields["op"])
                shapes[idx] = int(fields["rows"]), int(fields["cols"])
            elif head == "input":
                tokens = rest.split(None, 1)
                inputs[int(tokens[0]) - 1] = _parse_state(tokens[1].strip(),
                                                          states)
            elif head == "mask":
                tokens = rest.split(None, 1)
                body = tokens[1].strip()
                if not (body.startswith("[") and body.endswith("]")):
                    raise TraceError("bad mask")
                coords = body[1:-1].split()
                masks[int(tokens[0]) - 1] = tuple(int(c) - 1 for c in coords)
            elif head == "step":
                tokens = rest.split(None, 1)
                fields = dict(_FIELD_RE.findall(tokens[1]))
                steps.append({
                    "step": int(tokens[0]),
                    "component": int(fields["component"]) - 1,
                    "side": fields["side"],
                    "frozen": parse_name(fields["frozen"], ("yes", "no"),
                                         "frozen flag") == "yes",
                    "raw": _parse_state(fields["raw"], states),
                    "thresholded": _parse_state(fields["thresholded"],
                                                states),
                    "updated": _parse_state(fields["updated"], states),
                })
            elif head == "final":
                tokens = rest.split(None, 1)
                idx = int(tokens[0]) - 1
                fields = dict(_FIELD_RE.findall(tokens[1]))
                shape = tokens[1].split()[0]
                if shape not in _FINAL_FIELDS:
                    raise TraceError(f"unknown final shape {shape!r}")
                columns = [_parse_states(fields[field], states)
                           for field in _FINAL_FIELDS[shape]]
                cycle = tuple(zip(*columns)) if "pair" in shape \
                    else columns[0]
                outcome = Recurrence.outcome(cycle)
                period = int(fields["period"])
                if outcome_shape(outcome)[0] != shape \
                        or outcome.period != period \
                        or len({len(c) for c in columns}) != 1:
                    raise TraceError(f"{shape} period={period} does not "
                                     f"fit its recorded states")
                finals[idx] = {"shape": shape, "period": period,
                               "settled": int(fields["settled"]),
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
            "class": model_class, "tags": tags, "shapes": shapes,
            "inputs": inputs, "masks": masks, "steps": steps,
            "finals": finals}


def verify_trace(text: str) -> tuple:
    """Re-derive every component's final pattern from the recorded step
    states with the engine's recurrence rule, and check it, its settle
    step, the frozen steps after it, the run line's counts (one component
    or more) and model class (the tag-and-shape rule build_model applies),
    the masks, square CM shapes, every part's side and length
    (part_problem) and crisp seeds (seed_problems) against the trace.
    Returns the verified outcomes in order."""
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
        if problems:
            raise TraceError("; ".join(problems))
    entries = sorted(data["steps"], key=lambda e: (e["component"], e["step"]))
    keys = [(e["component"], e["step"]) for e in entries]
    if len(keys) != n * steps or keys != [
            (c, t) for c in range(n) for t in range(1, steps + 1)]:
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
        comp_steps = entries[idx * steps:(idx + 1) * steps]
        for entry in comp_steps:
            if entry["side"] != landing_side(kind, side, entry["step"]):
                raise TraceError(f"{where}: step {entry['step']} lands on "
                                 f"the wrong side")
            for part in (entry["raw"], entry["thresholded"], entry["updated"]):
                if problem := part_problem(part, kind, entry["side"], *shape):
                    raise TraceError(
                        f"{where} step {entry['step']}: {problem}")
            cycle = recurrence.add(entry["step"], entry["updated"])
            if cycle is not None:
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
        settled_state = comp_steps[closed - 1]["updated"]
        for entry in comp_steps[closed:]:
            if entry["side"] != side or any(
                    entry[f] != settled_state
                    for f in ("raw", "thresholded", "updated")):
                raise TraceError(
                    f"{where}: frozen step {entry['step']} does not carry "
                    f"the state settled at step {closed} on the {side} side")
        last = max(last, closed)
        # built from the length-checked input and step parts, so a final
        # state of any other length does not match it
        rebuilt = Recurrence.outcome(cycle)
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
