"""The hidden-pattern engine: one step rule per component, iterated to a
fixed point, a limit cycle, or a fixed binary pair.

Each rule below is written once, and every entry point goes through it:
run_mixed runs, and run_cm, run_rm and models.run forward their options
to it. Each component runs on the kernel its tag names, which applies
the operator its tag declares.

* Input: validate_input. Every component's values sit inside the
  carrier of its tag (special._carrier_problems, the rule build_model
  applies too), and a seed has one crisp {0,1} part per component, all
  on one side. Square (CM) components have a single node space, their
  domain, so they take domain-side seeds only; rectangular (RM)
  components take either side. part_problem checks a part's side and
  length, seed_problems adds the crisp check, and trace verification
  asks both too.
* Schedule: landing_side. A CM component lands on the seeded side every
  step; an RM component alternates its matrix with its transpose, so it
  lands on the far side after an odd number of steps. The run,
  Recurrence, render_trace and verify_trace all take sides from it.
* Step: apply, cut, pin. Circle-operator components are cut onto {0,1}
  (fuzzy) or {0,1,I} (neutrosophic) after every application, and the
  coordinates that were ON in the seed (on_coordinates) are pinned back
  to 1 - but only on a step that lands on the seeded side.
  maxmin/minmax components pass through raw: no cut, no pin. Their
  values stay inside the finite set of stored inputs, so runs still
  terminate.
* Recurrence: a component settles at its first recurring state on the
  seeded side, and is then frozen and carried unchanged while the others
  keep iterating. An RM state is paired with its unpinned far-side
  landing one step later. A one-state cycle is a FixedPoint, a longer
  one a LimitCycle. Recurrence holds this rule, and trace verification
  drives it too.

Each component's step is compiled once at the start of a run into the
kernel its tag names, which only applies and cuts per side (the matrix
from the domain, its transpose from the range), and the run calls only
that one step. The carrier rule fixes what a kernel's entries can be,
so each kernel takes every component of its tag:

  algebra       operator       kernel
  fuzzy         circle         bitmask
  neutrosophic  circle         trit
  fuzzy         maxmin/minmax  float level
  neutrosophic  maxmin/minmax  Scalar (_ScalarStep)

* bitmask: weights in {-1, 0, 1}; int states, popcounts via
  int.bit_count (so Python 3.10+), column masks built once per matrix
  and kept on it;
* trit: weights in {-1, 0, 1, I}; states are pairs of int bitmasks (the
  1 and the I coordinates), raw values t + sI have exact integer parts,
  popcounts over the bitmask kernel's per-matrix masks plus a mask of
  the I entries, and the cut is threshold_scalar, once per distinct raw
  value in a run;
* float level: memberships in [0, 1]; float-tuple states, one C-level
  max/min call per entry;
* Scalar: Scalar tuples through apply_part, where the order policy
  applies.

Tests replay every run record by record through the public Scalar
operations (apply_part, threshold_scalar, landing_side and the pin),
which the kernels do not use, and step every reported cycle again
through them.
"""

from __future__ import annotations

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
    _carrier_problems,
    apply_part,
    other_side,
    render_part,
)
from .values import (
    I,
    ONE,
    OrderPolicy,
    Scalar,
    ThresholdMode,
    ZERO,
    _check_threshold_k,
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


def landing_side(kind, seeded_side, step) -> str:
    """The side a part of `kind`, seeded on `seeded_side`, sits on after
    `step` steps: an RM part alternates its matrix with its transpose, so
    it is on the far side after an odd number of steps; a CM part never
    leaves the seeded side. A step that lands on the seeded side pins."""
    if kind == RM and step % 2:
        return other_side(seeded_side)
    return seeded_side


def part_problem(part, kind, side, rows, cols, what="length"):
    """The problem with `part` as a part of a rows x cols component of
    `kind` on `side`, or None: a CM component has no range space, and a
    part is as long as its space, rows on the domain and cols on an RM
    component's range. `what` names the length in the message."""
    expected = rows if side == DOMAIN_SIDE else cols if kind == RM else None
    if expected is None:
        return f"square component has no {side} space"
    if len(part) != expected:
        return (f"{what} {len(part)} does not match the {side} space of "
                f"{rows}x{cols}")
    return None


def seed_problems(where, part, kind, side, rows, cols) -> list:
    """Every way `part` is not a seed part of a rows x cols component of
    `kind` on `side`, as messages naming `where`: its side or length
    (part_problem), else each entry other than 0 and 1."""
    problem = part_problem(part, kind, side, rows, cols, "input length")
    if problem is not None:
        return [f"{where}: {problem}"]
    return [f"{where}, coordinate {coord + 1}: non-crisp input {value}; "
            f"entries must be 0 or 1" for coord, value in enumerate(part)
            if value.indet_coeff or value.real_part not in (0.0, 1.0)]


class Recurrence:
    """First-recurrence detection and pairing, the rule that settles a
    component.

    Every state a component of `kind` reaches is added in step order from
    the seed on, and landing_side tells where it lands. Only seeded-side
    states are compared: the first one equal to an earlier one closes the
    cycle that starts at that earlier state and runs up to the state
    before the recurrence. A far-side landing (RM components only) is
    never pinned; it is kept as the partner of the seeded-side state one
    step earlier, and an RM cycle closes as (domain, range) pairs.
    """

    __slots__ = ("kind", "side", "seen", "partners")

    def __init__(self, kind, side, first):
        self.kind = kind
        self.side = side
        self.seen = {first: 0}  # seeded-side state -> step, in step order
        self.partners = {}  # step -> far-side landing

    def add(self, step, state):
        """Record `state`, reached at `step`; return the cycle it closes,
        or None while every seeded-side state is new."""
        if landing_side(self.kind, self.side, step) != self.side:
            self.partners[step] = state
            return None
        start = self.seen.setdefault(state, step)
        if start == step:
            return None
        cycle = [(s, t) for s, t in self.seen.items() if t >= start]
        if self.kind == CM:
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
    unchanged through this step. A record's step is its position in the
    trace, from 1; landing_side gives where each unfrozen part sits, and
    a frozen part sits on the seeded side."""

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


def validate_input(m: SpecialMatrix, x: SpecialStateVector) -> list:
    """Every way a run of `m` from `x` cannot start, as messages naming
    the component: each component off the carrier of its tag, then the
    part count, else each part's seed_problems on the seeded side. Empty
    means valid."""
    out = _carrier_problems(m)
    if len(x) != len(m):
        return out + [
            f"input has {len(x)} parts, union has {len(m)} components"]
    for idx, ((mat, tag), part) in enumerate(zip(m, x.parts)):
        out += seed_problems(f"component {idx + 1}", part, tag.kind, x.side,
                             mat.rows, mat.cols)
    return out


# -- compiled steps ----------------------------------------------------------
#
# A kernel is one component's step (apply, cut, pin), built once per run
# from (matrix, tag, k, pin_on, policy). It keeps its operand per side:
# the matrix, applied from the domain, and for an RM component its
# transpose, applied from the range. `step(state, side, pin)` applies
# the operand of the side `state` addresses, cuts, pins when told, and
# returns (raw, thresholded, updated); landing_side decides `pin`. States
# are native to the kernel: `seed` makes one from the crisp seed part,
# `decode` turns a state on a side back into the Scalar tuple that
# records and outcomes carry, and `scalars` does the same for a raw part.

class _ScalarStep:
    """Neutrosophic max-min or min-max step on Scalar tuples through
    apply_part, under the run's order policy. Parts flow raw: no cut, no
    pin."""

    def __init__(self, matrix, tag, k, pin_on, policy):
        self.operands = {DOMAIN_SIDE: matrix, RANGE_SIDE:
                         transpose(matrix) if tag.kind == RM else None}
        self.op = tag.op
        self.policy = policy

    def step(self, state, side, pin):
        raw = apply_part(state, self.operands[side], self.op, self.policy)
        return raw, raw, raw

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
    """The shared Scalar of each raw circle value t + sI with integer t and
    s, keyed by the number t + sj: an int for the fuzzy kernel's reals, a
    complex for the neutrosophic one. Made on first use."""

    def __missing__(self, n):
        value = self[n] = Scalar(n.real, n.imag)
        return value


_INT_SCALARS = _IntScalars()
_BIT_SCALARS = (ZERO, ONE)


class _BitmaskStep:
    """Fuzzy circle step over {-1, 0, 1} weights on int bitmasks.

    Bit i of a state is coordinate i. The applied operand holds the mask
    tuples (P, N, Im) of _sign_masks, the matrix's columns for the domain
    and, on an RM component, its rows for the range, built once per
    matrix and kept on it. P[j] and N[j] hold the +1 and -1 rows of
    column j, so raw_j = |x & P[j]| - |x & N[j]|; the cut sets bit j when
    raw_j > k and pinning ORs in the seed mask. Im is all 0 here.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        self.operands = {DOMAIN_SIDE: matrix._memo(_column_masks),
                         RANGE_SIDE: matrix._memo(_row_masks)
                         if tag.kind == RM else None}
        self.sizes = {DOMAIN_SIDE: matrix.rows, RANGE_SIDE: matrix.cols}
        self.k = k
        self.pin = sum(1 << i for i in pin_on)
        self.bits = tuple(1 << j for j in range(max(matrix.shape)))

    def step(self, x, side, pin):
        pos, neg, _ = self.operands[side]
        raw = [(x & p).bit_count() - (x & n).bit_count()
               for p, n in zip(pos, neg)]
        k = self.k
        cut = sum([bit for r, bit in zip(raw, self.bits) if r > k])
        return raw, cut, (cut | self.pin) if pin else cut

    def seed(self, part):
        return self.pin  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x, side):
        return tuple([_BIT_SCALARS[x >> i & 1]
                      for i in range(self.sizes[side])])

    @staticmethod
    def scalars(raw):
        return tuple(map(_INT_SCALARS.__getitem__, raw))


def _sign_masks(matrix, by_rows):
    """(P, N, Im) of a circle component's `matrix`, whose entries the
    carrier rule keeps in {-1, 0, 1, I}: per column (per row when
    `by_rows`), the bitmask of its +1 entries, that of its -1 entries and
    that of its I entries."""
    rows, cols = matrix.rows, matrix.cols
    pos = [0] * (rows if by_rows else cols)
    neg = pos[:]
    ind = pos[:]
    for idx, entry in enumerate(matrix.entries):
        a, b = entry.real_part, entry.indet_coeff
        if b:
            masks = ind
        elif a:
            masks = pos if a > 0 else neg
        else:
            continue
        i, j = divmod(idx, cols)
        if by_rows:
            i, j = j, i
        masks[j] |= 1 << i
    return tuple(pos), tuple(neg), tuple(ind)


def _column_masks(matrix):
    return _sign_masks(matrix, False)


def _row_masks(matrix):
    return _sign_masks(matrix, True)


_TRIT_SCALARS = (ZERO, ONE, I)  # by code: x1 bit + 2 * xI bit


class _CutCodes(dict):
    """One run's cut of each raw value t + sj, by values.threshold_scalar,
    as a code: 0 for 0, 1 for 1, 2 for I. Made on first use."""

    def __init__(self, mode):
        super().__init__()
        self.mode = mode

    def __missing__(self, n):
        value = self[n] = _TRIT_SCALARS.index(
            threshold_scalar(_INT_SCALARS[n], self.mode))
        return value


class _TritStep(_BitmaskStep):
    """Neutrosophic circle step over {-1, 0, 1, I} weights on pairs of int
    bitmasks.

    A {0, 1, I} state is the pair (x1, xI): the bitmask of its 1
    coordinates and that of its I coordinates. The applied operand holds
    the mask tuples (P, N, Im) of _sign_masks, the +1, -1 and I rows of
    each column. As I * I = I, raw_j = t + sI with
    t = |x1 & P[j]| - |x1 & N[j]| and
    s = |x1 & Im[j]| + |xI & P[j]| - |xI & N[j]| + |xI & Im[j]|, both
    exact integers.
    The cut is values.threshold_scalar, once per distinct raw value, and
    pinning sets the seed's bits to 1.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        super().__init__(matrix, tag, k, pin_on, policy)
        self.cut = _CutCodes(ThresholdMode(tag.algebra, k))

    def step(self, x, side, pin):
        x1, xi = x
        raw = [complex((x1 & p).bit_count() - (x1 & n).bit_count(),
                       (x1 & m).bit_count() + (xi & p).bit_count()
                       - (xi & n).bit_count() + (xi & m).bit_count())
               for p, n, m in zip(*self.operands[side])]
        codes = list(map(self.cut.__getitem__, raw))
        bits = self.bits
        cut = (sum([bit for c, bit in zip(codes, bits) if c == 1]),
               sum([bit for c, bit in zip(codes, bits) if c == 2]))
        if not pin:
            return raw, cut, cut
        return raw, cut, (cut[0] | self.pin, cut[1] & ~self.pin)

    def seed(self, part):
        return self.pin, 0  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x, side):
        x1, xi = x
        return tuple([_TRIT_SCALARS[(x1 >> i & 1) | (xi >> i & 1) << 1]
                      for i in range(self.sizes[side])])


class _LevelStep:
    """Fuzzy max-min or min-max step over [0, 1] memberships on float
    tuples.

    A state is the tuple of its coordinates' real parts, and the applied
    operand is a tuple of columns as float tuples, so raw_j is one C-level
    call, max(map(min, x, column_j)) for max-min. Parts flow raw: no cut,
    no pin. Every raw value is a seed value (0 or 1) or a matrix entry, so
    `values` maps each float back to its Scalar.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        entries = matrix.entries
        reals = tuple([e.real_part for e in entries])
        cols = matrix.cols
        rows = None
        if tag.kind == RM:  # the columns of the transpose
            rows = tuple(reals[i:i + cols]
                         for i in range(0, len(reals), cols))
        self.operands = {DOMAIN_SIDE: tuple(reals[j::cols]
                                            for j in range(cols)),
                         RANGE_SIDE: rows}
        self.inner, self.outer = (min, max) if tag.op == "maxmin" \
            else (max, min)
        self.values = {0.0: ZERO, 1.0: ONE}  # float -> Scalar
        self.values.update(zip(reals, entries))

    def step(self, x, side, pin):
        inner, outer = self.inner, self.outer
        raw = tuple([outer(map(inner, x, col))
                     for col in self.operands[side]])
        return raw, raw, raw

    @staticmethod
    def seed(part):
        return tuple([v.real_part for v in part])

    def decode(self, x, side):
        return self.scalars(x)

    def scalars(self, raw):
        return tuple(map(self.values.__getitem__, raw))


# The kernel each (algebra, op) names. The carrier rule fixes what a
# component's entries can be, so each kernel takes every component of its
# tag.
_KERNEL_BY_TAG = {
    ("fuzzy", "circle"): _BitmaskStep,
    ("neutrosophic", "circle"): _TritStep,
    ("fuzzy", "maxmin"): _LevelStep,
    ("fuzzy", "minmax"): _LevelStep,
    ("neutrosophic", "maxmin"): _ScalarStep,
    ("neutrosophic", "minmax"): _ScalarStep,
}


class _ComponentRun:
    """Mutable per-component iteration state over its compiled step."""

    def __init__(self, kind, rule, start, seeded_side):
        self.kind = kind
        self.rule = rule
        self.seeded_side = seeded_side
        self.cur = rule.seed(start)  # native to the rule
        self.part = start  # the Scalar form of cur
        self.side = seeded_side  # space the current state addresses
        self.outcome = None  # set when the component settles
        self.recurrence = Recurrence(kind, seeded_side, self.cur)

    def step(self, step):
        """Take step number `step`, landing and pinning as landing_side
        says, and settle on the cycle the new state closes; returns the
        Scalar forms of (raw, thresholded, updated)."""
        rule, seeded = self.rule, self.seeded_side
        land = landing_side(self.kind, seeded, step)
        raw, thresholded, updated = rule.step(self.cur, self.side,
                                              land == seeded)
        thr_part = rule.decode(thresholded, land)
        self.part = thr_part if updated is thresholded \
            else rule.decode(updated, land)
        self.cur = updated
        self.side = land
        cycle = self.recurrence.add(step, updated)
        if cycle is not None:
            decode = rule.decode
            if self.kind == RM:
                cycle = [(decode(d, DOMAIN_SIDE), decode(r, RANGE_SIDE))
                         for d, r in cycle]
            else:
                cycle = [decode(s, seeded) for s in cycle]
            self.outcome = Recurrence.outcome(cycle)
        # a part that flows raw is its own thresholded form
        raw_part = thr_part if raw is thresholded else rule.scalars(raw)
        return raw_part, thr_part, self.part


def run_mixed(m: SpecialMatrix, x0: SpecialStateVector, *,
              policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
              max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    """Run an arbitrary CM/RM mixture: square components advance against
    their own matrix every step while rectangular ones alternate sides,
    each on the kernel its tag names. The run options `policy` (an
    OrderPolicy or its text), `threshold_k` (the cut) and `max_steps` (the
    cap) are declared and checked here, and validate_input's problems
    raise InvalidInput before step 1."""
    _check_threshold_k(threshold_k)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int):
        raise InvalidInput(f"max steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise InvalidInput(f"max steps must be at least 1, got {max_steps}")
    policy = OrderPolicy.parse(policy)
    problems = validate_input(m, x0)
    if problems:
        raise InvalidInput("; ".join(problems))
    runs = []
    for (mat, tag), part in zip(m, x0.parts):
        rule = _KERNEL_BY_TAG[tag.algebra, tag.op](
            mat, tag, threshold_k, on_coordinates(part), policy)
        runs.append(_ComponentRun(tag.kind, rule, part, x0.side))
    records = []
    for step in range(1, max_steps + 1):
        frozen = tuple(r.outcome is not None for r in runs)
        if all(frozen):
            break
        raw, thresholded, updated = zip(*[
            (r.part,) * 3 if f else r.step(step) for r, f in zip(runs, frozen)])
        records.append(IterationRecord(raw, thresholded, updated, frozen))
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


def run_cm(m: SpecialMatrix, x0: SpecialStateVector,
           **options) -> HiddenPattern:
    """Iterate a union of square components to its hidden pattern."""
    for idx, (_, tag) in enumerate(m):
        if tag.kind != CM:
            raise NonCMComponent(f"component {idx + 1} is tagged {tag.kind}")
    return run_mixed(m, x0, **options)


def run_rm(m: SpecialMatrix, x0: SpecialStateVector,
           **options) -> HiddenPattern:
    """Alternate rectangular components with their transposes until each
    settles into a fixed binary pair (or a cycle of pairs)."""
    for idx, (_, tag) in enumerate(m):
        if tag.kind != RM:
            raise NonRMComponent(f"component {idx + 1} is tagged {tag.kind}")
    return run_mixed(m, x0, **options)
