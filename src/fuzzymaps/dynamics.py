"""The hidden-pattern engine: one step rule per component, iterated to a
fixed point, a limit cycle, or a fixed binary pair.

Each rule below is written once, and every entry point (run_cm, run_rm,
run_mixed, and models.run through them) goes through it:

* Input: validate_input. A seed has one crisp {0,1} part per component,
  all on one side. Square (CM) components have a single node space, their
  domain, so they take domain-side seeds only; rectangular (RM)
  components take either side.
* Step: apply, cut, pin. Circle-operator components are cut onto {0,1}
  (fuzzy) or {0,1,I} (neutrosophic) after every application, and the
  coordinates that were ON in the seed (on_coordinates) are pinned back
  to 1 - but only when the result lands on the seeded side. A CM
  component lands there on every step; an RM component alternates its
  matrix with its transpose and is pinned only when it returns to the
  seeded side. maxmin/minmax components pass through raw: no cut, no
  pin. Their values stay inside the finite set of stored inputs, so runs
  still terminate.
* Recurrence: a component settles at its first recurring state on the
  seeded side, and is then frozen and carried unchanged while the others
  keep iterating. An RM state is paired with its unpinned far-side
  landing one step later. A one-state cycle is a FixedPoint, a longer
  one a LimitCycle. Recurrence holds this rule, and trace verification
  drives it too.

Each component's step (operator, cut, pin, and for RM components the
transpose) is compiled once at the start of a run, and the run calls only
that one step. A test (tests/test_trace.py) steps every reported cycle
again through the public Scalar operations, which the kernels do not use.
_compile_step takes the first kernel in _KERNELS that accepts the
component, else the Scalar reference:

* bitmask: fuzzy circle components whose entries are all real and in
  {-1, 0, 1}; int states, popcounts via int.bit_count (so Python 3.10+),
  column masks built once per matrix and kept on it;
* float level: fuzzy maxmin/minmax components whose entries are all
  finite reals; float-tuple states, one C-level max/min call per entry;
* Scalar reference (_ScalarStep): every other component, on Scalar
  tuples through apply_part. Neutrosophic maxmin/minmax stay here, where
  the order policy applies.

Differential tests hold each kernel to the reference, which they select
by emptying _KERNELS: all produce the same Scalar records, outcomes and
trace bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InvalidInput,
    IterationCapExceeded,
    NonCMComponent,
    NonRMComponent,
)
from .matrices import transpose
from .special import (
    CM,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    SpecialMatrix,
    SpecialStateVector,
    apply_part,
    other_side,
    render_part,
)
from .values import (
    ONE,
    OrderPolicy,
    Scalar,
    ThresholdMode,
    ZERO,
    threshold_scalar,
)

DEFAULT_MAX_STEPS = 10_000


def on_coordinates(part) -> tuple:
    """The 0-based coordinates that are ON (equal to 1) in a crisp seed
    part: the coordinates a circle step pins."""
    return tuple(i for i, v in enumerate(part) if v == ONE)


@dataclass(frozen=True)
class FixedPoint:
    """Period-1 hidden pattern. For RM components the state is a
    (domain_state, range_state) pair of tuples."""

    state: tuple

    @property
    def period(self):
        return 1


@dataclass(frozen=True)
class LimitCycle:
    """Recurrent hidden pattern of period >= 2; states lists one full
    cycle in iteration order."""

    states: tuple
    period: int


class Recurrence:
    """First-recurrence detection and pairing, the rule that settles a
    component.

    Every state a component reaches is added in step order from the seed
    on, with its step and the side it lands on. Only seeded-side states
    are compared: the first one equal to an earlier one closes the cycle
    that starts at that earlier state and runs up to the state before the
    recurrence. A far-side landing (RM components only) is never pinned;
    it is kept as the partner of the seeded-side state one step earlier,
    and an RM cycle closes as (domain, range) pairs.
    """

    __slots__ = ("side", "seen", "partners")

    def __init__(self, side, first):
        self.side = side
        self.seen = {first: 0}  # seeded-side state -> step, in step order
        self.partners = {}  # step -> far-side landing

    def add(self, step, side, state):
        """Record `state`, reached at `step` on `side`; return the cycle it
        closes, or None while every seeded-side state is new."""
        if side != self.side:
            self.partners[step] = state
            return None
        start = self.seen.setdefault(state, step)
        if start == step:
            return None
        cycle = [(s, t) for s, t in self.seen.items() if t >= start]
        if not self.partners:  # a CM component has no far side
            return [s for s, _ in cycle]
        pairs = [(s, self.partners[t + 1]) for s, t in cycle]
        return pairs if self.side == DOMAIN_SIDE else [p[::-1] for p in pairs]

    @staticmethod
    def outcome(cycle):
        """The hidden pattern of one full cycle: FixedPoint for a single
        state, LimitCycle for more."""
        cycle = tuple(cycle)
        if len(cycle) == 1:
            return FixedPoint(cycle[0])
        return LimitCycle(cycle, len(cycle))


@dataclass(frozen=True)
class IterationRecord:
    """One engine step: the raw union, its thresholded form, and the form
    after pinning, each a tuple of Scalar parts, one per component.
    `frozen` marks components that had already settled and were carried
    unchanged through this step. `side` is where RM parts land on this
    step (CM parts and frozen parts always sit on the seeded side)."""

    step: int
    side: str
    raw: tuple
    thresholded: tuple
    updated: tuple
    frozen: tuple


@dataclass(frozen=True)
class HiddenPattern:
    """Run result: one outcome per component plus the full trace. The
    seeded side, step count, settle steps and input mask derive from
    `input` and `trace`."""

    outcomes: tuple
    trace: tuple
    input: SpecialStateVector

    @property
    def side(self) -> str:
        return self.input.side

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def settled_steps(self) -> tuple:
        """Per component, the step it settled at: the number of records
        in which it is not frozen."""
        return tuple(column.count(False)
                     for column in zip(*(r.frozen for r in self.trace)))

    @property
    def mask(self) -> tuple:
        """Per component, the 0-based coordinates ON in the seed."""
        return tuple(map(on_coordinates, self.input.parts))

    def describe(self) -> str:
        lines = []
        for idx, outcome in enumerate(self.outcomes):
            lines.append(f"component {idx + 1}: {describe_outcome(outcome)}")
        return "\n".join(lines)


def outcome_shape(outcome):
    """Name the shape of `outcome` - fixed-point, fixed-pair, limit-cycle
    or pair-cycle - and return it with one full cycle of its states in
    iteration order. A fixed point's cycle is its one state; an RM state
    is a (domain, range) pair of tuples, where a CM state is a flat tuple
    of scalars."""
    fixed = isinstance(outcome, FixedPoint)
    cycle = (outcome.state,) if fixed else outcome.states
    if isinstance(cycle[0][0], tuple):
        return ("fixed-pair" if fixed else "pair-cycle"), cycle
    return ("fixed-point" if fixed else "limit-cycle"), cycle


def describe_outcome(outcome) -> str:
    shape, cycle = outcome_shape(outcome)
    if "pair" in shape:
        body = " -> ".join(f"domain={render_part(d)} range={render_part(r)}"
                           for d, r in cycle)
    else:
        body = " -> ".join(map(render_part, cycle))
    name = shape.replace("-", " ")
    if isinstance(outcome, FixedPoint):
        return f"{name}: {body}"
    return f"{name} (period {outcome.period}): {body}"


def _threshold_part(part, mode):
    if mode is None:
        return tuple(part)
    return tuple(threshold_scalar(v, mode) for v in part)


def _pin_part(part, on_indices):
    if not on_indices:
        return tuple(part)
    out = list(part)
    for idx in on_indices:
        out[idx] = ONE
    return tuple(out)


def validate_input(m: SpecialMatrix, x: SpecialStateVector) -> list:
    """Every way `x` is not a valid seed for a run of `m`, as messages
    naming the component: the part count, a range-side seed of a square
    component, each part's length on the seeded side, and entries other
    than 0 and 1. Empty means valid."""
    if len(x) != len(m):
        return [f"input has {len(x)} parts, union has {len(m)} components"]
    out = []
    for idx, ((mat, tag), part) in enumerate(zip(m, x.parts)):
        where = f"component {idx + 1}"
        if tag.kind == CM and x.side != DOMAIN_SIDE:
            out.append(f"{where}: square component has no {x.side} space")
        expected = mat.cols if x.side == RANGE_SIDE and tag.kind == RM \
            else mat.rows
        if len(part) != expected:
            out.append(f"{where}: input length {len(part)} does not match "
                       f"the {x.side} space of {mat.rows}x{mat.cols}")
            continue
        for coord, value in enumerate(part):
            if value != ZERO and value != ONE:
                out.append(f"{where}, coordinate {coord + 1}: non-crisp "
                           f"input {value}; entries must be 0 or 1")
    return out


# -- compiled steps ----------------------------------------------------------

class _Step:
    """One component's step rule (apply, cut, pin), built once per run.

    `step(state, side)` advances a state that addresses `side` and returns
    (raw, thresholded, updated, landing side). A CM component lands on the
    seeded side every time; an RM component applies its matrix from the
    domain side and its transpose from the range side. Only a landing on
    the seeded side is pinned.

    States are native to the step. `seed` gives the native form of the
    crisp seed part, `decode` turns a state back into the Scalar tuple
    that records and outcomes carry, and `scalars` does the same for a raw
    union part.
    """

    def __init__(self, kind, seeded_side, forward, backward):
        # side -> (operand applied from that side, landing side, pinned?)
        if kind == CM:
            self.moves = {seeded_side: (forward, seeded_side, True)}
        else:
            self.moves = {
                DOMAIN_SIDE: (forward, RANGE_SIDE,
                              seeded_side == RANGE_SIDE),
                RANGE_SIDE: (backward, DOMAIN_SIDE,
                             seeded_side == DOMAIN_SIDE),
            }


class _ScalarStep(_Step):
    """The reference semantics: Scalar tuples through apply_part."""

    def __init__(self, matrix, tag, seeded_side, k, pin_on, policy):
        backward = transpose(matrix) if tag.kind == RM else None
        super().__init__(tag.kind, seeded_side, matrix, backward)
        self.op = tag.op
        self.policy = policy
        # maxmin/minmax parts flow raw
        self.mode = ThresholdMode(tag.algebra, k) if tag.op == "circle" \
            else None
        self.pin_on = pin_on

    def step(self, state, side):
        mat, land, pinned = self.moves[side]
        raw = apply_part(state, mat, self.op, self.policy)
        thresholded = _threshold_part(raw, self.mode)
        updated = _pin_part(thresholded, self.pin_on) if pinned \
            else thresholded
        return raw, thresholded, updated, land

    @staticmethod
    def seed(part):
        return part

    @staticmethod
    def decode(state, side):
        return state

    @staticmethod
    def scalars(raw):
        return raw


class _IntScalars(dict):
    """The shared Scalar of each integer raw value, made on first use."""

    def __missing__(self, n):
        value = self[n] = Scalar(n)
        return value


_INT_SCALARS = _IntScalars()
_BIT_SCALARS = (ZERO, ONE)


class _BitmaskStep(_Step):
    """Fuzzy circle step over {-1, 0, 1} weights on int bitmasks.

    Bit i of a state is coordinate i. The applied matrix is a pair of mask
    tuples (P, N): P[j] and N[j] hold the +1 and -1 rows of column j, so
    raw_j = |x & P[j]| - |x & N[j]|; the cut sets bit j when raw_j > k and
    pinning ORs in the seed mask.
    """

    def __init__(self, kind, seeded_side, forward, backward, sizes, k,
                 pin_on):
        super().__init__(kind, seeded_side, forward, backward)
        self.sizes = sizes  # side -> state length
        self.k = k
        self.pin = sum(1 << i for i in pin_on)
        self.bits = tuple(1 << j for j in range(max(sizes.values())))

    def step(self, x, side):
        (pos, neg), land, pinned = self.moves[side]
        raw = [(x & p).bit_count() - (x & n).bit_count()
               for p, n in zip(pos, neg)]
        k = self.k
        cut = sum([bit for r, bit in zip(raw, self.bits) if r > k])
        return raw, cut, (cut | self.pin) if pinned else cut, land

    def seed(self, part):
        return self.pin  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x, side):
        return tuple([_BIT_SCALARS[x >> i & 1]
                      for i in range(self.sizes[side])])

    @staticmethod
    def scalars(raw):
        return tuple(map(_INT_SCALARS.__getitem__, raw))


def _sign_masks(matrix, by_rows):
    """(P, N) of `matrix`: per column (per row when `by_rows`), the bitmask
    of its +1 entries and that of its -1 entries. None unless every entry
    is real and in {-1, 0, 1}."""
    rows, cols = matrix.rows, matrix.cols
    pos = [0] * (rows if by_rows else cols)
    neg = pos[:]
    for idx, entry in enumerate(matrix.entries):
        a = entry.real_part
        if entry.indet_coeff or a not in (-1.0, 0.0, 1.0):
            return None
        if a:
            i, j = divmod(idx, cols)
            if by_rows:
                i, j = j, i
            (pos if a > 0 else neg)[j] |= 1 << i
    return tuple(pos), tuple(neg)


def _column_masks(matrix):
    return _sign_masks(matrix, False)


def _row_masks(matrix):
    return _sign_masks(matrix, True)


def _bitmask_step(matrix, tag, seeded_side, k, pin_on):
    """The bitmask kernel of a fuzzy circle component whose entries are all
    real and in {-1, 0, 1}; None for any other component. The masks are
    built once per matrix and kept on it; a CM component builds none for
    the transpose."""
    if tag.op != "circle" or tag.algebra != "fuzzy":
        return None
    forward = matrix._memo(_column_masks)
    if forward is None:
        return None
    if tag.kind == CM:
        return _BitmaskStep(CM, seeded_side, forward, None,
                            {seeded_side: matrix.rows}, k, pin_on)
    return _BitmaskStep(RM, seeded_side, forward,
                        matrix._memo(_row_masks),
                        {DOMAIN_SIDE: matrix.rows, RANGE_SIDE: matrix.cols},
                        k, pin_on)


class _LevelStep(_Step):
    """Fuzzy max-min or min-max step over real entries on float tuples.

    A state is the tuple of its coordinates' real parts, and the applied
    matrix is a tuple of its columns as float tuples, so raw_j is one
    C-level call, max(map(min, x, column_j)) for max-min. Parts flow raw:
    no cut, no pin. Every raw value is a seed value (0 or 1) or a matrix
    entry, so `values` maps each float back to its Scalar.
    """

    def __init__(self, kind, seeded_side, forward, backward, op, values):
        super().__init__(kind, seeded_side, forward, backward)
        self.inner, self.outer = (min, max) if op == "maxmin" else (max, min)
        self.values = values  # float -> Scalar

    def step(self, x, side):
        columns, land, _ = self.moves[side]
        inner, outer = self.inner, self.outer
        raw = tuple([outer(map(inner, x, col)) for col in columns])
        return raw, raw, raw, land

    @staticmethod
    def seed(part):
        return tuple([v.real_part for v in part])

    def decode(self, x, side):
        return self.scalars(x)

    def scalars(self, raw):
        return tuple(map(self.values.__getitem__, raw))


def _level_step(matrix, tag, seeded_side, k, pin_on):
    """The float kernel of a fuzzy maxmin/minmax component whose entries are
    all finite reals; None for any other component. Neutrosophic level
    components stay on the Scalar path, where the order policy applies."""
    if tag.op == "circle" or tag.algebra != "fuzzy":
        return None
    entries = matrix.entries
    reals = tuple([e.real_part for e in entries])
    if any(e.indet_coeff for e in entries) \
            or not all(map(math.isfinite, reals)):
        return None
    cols = matrix.cols
    columns = tuple(reals[j::cols] for j in range(cols))
    rows = None
    if tag.kind == RM:  # the columns of the transpose
        rows = tuple(reals[i:i + cols] for i in range(0, len(reals), cols))
    values = {0.0: ZERO, 1.0: ONE}
    values.update(zip(reals, entries))
    return _LevelStep(tag.kind, seeded_side, columns, rows, tag.op, values)


# The specialized kernels, tried in order before the Scalar reference.
# Emptying this tuple runs every component on the reference.
_KERNELS = (_bitmask_step, _level_step)


def _compile_step(matrix, tag, seeded_side, k, pin_on, policy):
    for build in _KERNELS:
        step = build(matrix, tag, seeded_side, k, pin_on)
        if step is not None:
            return step
    return _ScalarStep(matrix, tag, seeded_side, k, pin_on, policy)


class _ComponentRun:
    """Mutable per-component iteration state over its compiled step."""

    def __init__(self, kind, rule, start, seeded_side):
        self.kind = kind
        self.rule = rule
        self.seeded_side = seeded_side
        self.cur = rule.seed(start)  # native to the rule
        self.part = start  # the Scalar form of cur
        self.cur_side = seeded_side  # space the current state addresses
        self.outcome = None  # set when the component settles
        self.recurrence = Recurrence(seeded_side, self.cur)

    # -- stepping ----------------------------------------------------------
    def step(self):
        """Advance one application; returns the Scalar forms of (raw,
        thresholded, updated)."""
        rule = self.rule
        raw, thresholded, updated, land = rule.step(self.cur, self.cur_side)
        thr_part = rule.decode(thresholded, land)
        self.part = thr_part if updated is thresholded \
            else rule.decode(updated, land)
        self.cur = updated
        self.cur_side = land
        # a part that flows raw is its own thresholded form
        raw_part = thr_part if raw is thresholded else rule.scalars(raw)
        return raw_part, thr_part, self.part

    def observe(self, step_index):
        """Feed the new state to the recurrence rule; settle on the cycle
        it closes, in Scalar form."""
        cycle = self.recurrence.add(step_index, self.cur_side, self.cur)
        if cycle is None:
            return
        decode = self.rule.decode
        if self.kind == RM:
            cycle = [(decode(d, DOMAIN_SIDE), decode(r, RANGE_SIDE))
                     for d, r in cycle]
        else:
            cycle = [decode(s, self.seeded_side) for s in cycle]
        self.outcome = Recurrence.outcome(cycle)


def _run(m: SpecialMatrix, x0: SpecialStateVector, *, op=None,
         policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
         max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    if not math.isfinite(threshold_k):
        raise InvalidInput(f"threshold k must be finite, got {threshold_k}")
    problems = validate_input(m, x0)
    if problems:
        raise InvalidInput("; ".join(problems))
    has_rm = any(tag.kind == RM for _, tag in m)
    runs = []
    for (mat, tag), part in zip(m, x0.parts):
        if op is not None and tag.op != op:
            tag = type(tag)(kind=tag.kind, algebra=tag.algebra, op=op)
        pin_on = on_coordinates(part) if tag.op == "circle" else ()
        rule = _compile_step(mat, tag, x0.side, threshold_k, pin_on, policy)
        runs.append(_ComponentRun(tag.kind, rule, part, x0.side))
    records = []
    for step in range(1, max_steps + 1):
        frozen = tuple(r.outcome is not None for r in runs)
        if all(frozen):
            break
        raw, thresholded, updated = zip(*[
            (r.part,) * 3 if f else r.step() for r, f in zip(runs, frozen)])
        side = other_side(x0.side) if (has_rm and step % 2 == 1) else x0.side
        records.append(IterationRecord(step, side, raw, thresholded,
                                       updated, frozen))
        for r, f in zip(runs, frozen):
            if not f:
                r.observe(step)
    pending = [str(idx + 1) for idx, r in enumerate(runs)
               if r.outcome is None]
    if pending:
        raise IterationCapExceeded(
            f"components {', '.join(pending)} still unsettled after "
            f"{max_steps} steps")
    return HiddenPattern(
        outcomes=tuple(r.outcome for r in runs),
        trace=tuple(records),
        input=x0,
    )


def run_cm(m: SpecialMatrix, x0: SpecialStateVector, *, op=None,
           policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
           max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    """Iterate a union of square components to its hidden pattern."""
    for idx, (_, tag) in enumerate(m):
        if tag.kind != CM:
            raise NonCMComponent(f"component {idx + 1} is tagged {tag.kind}")
    return _run(m, x0, op=op, policy=policy, threshold_k=threshold_k,
                max_steps=max_steps)


def run_rm(m: SpecialMatrix, x0: SpecialStateVector, *, op=None,
           policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
           max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    """Alternate rectangular components with their transposes until each
    settles into a fixed binary pair (or a cycle of pairs)."""
    for idx, (_, tag) in enumerate(m):
        if tag.kind != RM:
            raise NonRMComponent(f"component {idx + 1} is tagged {tag.kind}")
    return _run(m, x0, op=op, policy=policy, threshold_k=threshold_k,
                max_steps=max_steps)


def run_mixed(m: SpecialMatrix, x0: SpecialStateVector, *, op=None,
              policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
              max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    """Run an arbitrary CM/RM mixture: square components advance against
    their own matrix every step while rectangular ones alternate sides."""
    return _run(m, x0, op=op, policy=policy, threshold_k=threshold_k,
                max_steps=max_steps)
