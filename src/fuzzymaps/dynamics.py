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
  asks both too; a run reads them from one memo on the seed.
* Schedule: landing_side. A CM component lands on the seeded side every
  step; an RM component alternates its matrix with its transpose, so it
  lands on the far side after an odd number of steps. A run reads it
  once per component, to build the kernels of one round (_kernels);
  render_trace and verify_trace take sides from it too.
* Step: apply, cut, pin. Circle-operator components are cut onto {0,1}
  (fuzzy) or {0,1,I} (neutrosophic) after every application, and the
  coordinates that were ON in the seed (on_coordinates) are pinned back
  to 1 - but only on a step that lands on the seeded side.
  maxmin/minmax components pass through raw: no cut, no pin. Their
  values stay inside the finite set of stored inputs, so runs still
  terminate.
* Recurrence: a component settles at its first recurring state on the
  seeded side, compared once per round (the steps that bring it back
  there). An RM state is paired with the unpinned far-side state recorded
  one step later. A one-state cycle is a FixedPoint, a longer one a
  LimitCycle; Recurrence holds this rule (a cycle is one slice of the
  states it keeps in round order), and verify_trace drives it too.
* Orbits: the components of a union never read each other, so each
  runs alone from its seed part until it settles (_orbit), and a run is
  one orbit per component. The union trace is derived from the orbits:
  step s holds each component's own step s, and a component that has
  settled is frozen and carried unchanged on the seeded side until the
  last one settles.

Each kernel is one-way: it applies one operand from its rows to its
columns, cuts, and ORs in a pin mask fixed when it is built, empty unless
its steps land on the seeded side. A CM component runs one kernel over
its matrix; an RM component runs one over its matrix and one over its
transpose, and each round takes the one that lands on the far side, then
the one that lands home. What a kernel derives from its matrix alone is
kept on the matrix (Matrix._memo), and so is an RM matrix's transpose.
The carrier rule fixes what a kernel's entries can be, so each kernel
takes every component of its tag:

  algebra       operator       kernel
  fuzzy         circle         packed
  neutrosophic  circle         trit
  either        maxmin/minmax  Scalar (_ScalarStep)

* packed: weights in {-1, 0, 1}; a state is one int holding a
  byte-aligned field per coordinate, and a step is one C-level sum of the
  packed weights that the state's cut bytes select, compiled once per
  matrix and cut and kept on the matrix;
* trit: weights in {-1, 0, 1, I}; states are pairs of int bitmasks (the
  1 and the I coordinates), raw values t + sI have exact integer parts,
  popcounts via int.bit_count (so Python 3.10+) over per-matrix masks of
  the +1, -1 and I entries, and the cut is threshold_scalar, once per
  distinct raw value per kernel in a run;
* Scalar: Scalar tuples through apply_part, which folds each row on int
  order codes under the order policy (reals order alike under both) and
  returns operand objects.

A run keeps each orbit's steps in the kernels' own form. The union
trace is assembled from them on its first read, which decodes every
part to a Scalar tuple through the kernel that took its step; within a
run, each distinct state of a kernel decodes once, so equal states share
one tuple. Outcomes are decoded when their component settles, so a run
whose trace nobody reads builds no record.

Tests replay every run record by record through the public Scalar
operations (apply_part, threshold_scalar, landing_side and the pin),
which the packed and trit kernels do not use, and step every reported
cycle again through them. The Scalar kernel's step is apply_part itself,
which the order tests hold to a spec written outside the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

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
    _FrozenRecord,
    _check_threshold_k,
    _require_type,
    threshold_scalar,
)

DEFAULT_MAX_STEPS = 10_000


def on_coordinates(part) -> tuple:
    """The 0-based coordinates that are ON (equal to 1) in a crisp seed
    part: the coordinates a circle step pins."""
    return tuple([i for i, v in enumerate(part) if v == 1])


class FixedPoint(_FrozenRecord):
    """Period-1 hidden pattern. For RM components the state is a
    (domain_state, range_state) pair of tuples."""

    __slots__ = ("state",)

    def __init__(self, state: tuple):
        object.__setattr__(self, "state", state)

    @property
    def period(self):
        return 1


class LimitCycle(_FrozenRecord):
    """Recurrent hidden pattern of period >= 2; states lists one full
    cycle in iteration order."""

    __slots__ = ("states", "period")

    def __init__(self, states: tuple, period: int):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "period", period)


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
            if value not in (0, 1)]


class Recurrence:
    """First-recurrence detection and pairing, the rule that settles a
    component.

    A component of `kind` is compared once per round, the steps that
    bring it back to the seeded side: closes takes the state that ends
    each round, from the seed on, and the first one equal to an earlier
    one closes the cycle from that earlier state up to the state before
    it. An RM cycle closes as (domain, range) pairs, each seeded-side
    state of step t with the unpinned far-side state recorded at t + 1.
    The states are kept in round order, so a cycle is one slice of them."""

    __slots__ = ("kind", "side", "seen")

    def __init__(self, kind, side, first):
        self.kind = kind
        self.side = side
        self.seen = {first: 0}  # seeded-side state -> step, in round order

    def closes(self, step, state):
        """Record `state`, the seeded-side state that ends the round at
        `step`; true when it equals an earlier one."""
        return self.seen.setdefault(state, step) != step

    def cycle(self, state, far=None):
        """The cycle the recurring `state` closed, in step order: its
        seeded-side states, on an RM component each paired with far(t),
        the far-side state recorded at step t + 1."""
        steps = list(self.seen.values())
        start = steps.index(self.seen[state])  # its round
        states = list(self.seen)[start:]
        if self.kind == CM:
            return states
        return [self.orient((s, far(t)))
                for s, t in zip(states, steps[start:])]

    def orient(self, pair):
        """A (seeded-side, far-side) pair in (domain, range) order."""
        return pair if self.side == DOMAIN_SIDE else pair[::-1]

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
    """Run result: one outcome per component plus the full trace, and the
    union (`special`), OrderPolicy and cut constant the run was made with.
    The seeded side and input mask derive from `input`, the step count and
    settle steps from `trace`, or on a run's pattern from its orbits.

    A run keeps each component's orbit, its kernels' (raw, thresholded,
    updated) of every step up to its first recurrence, and `trace` is
    assembled and decoded from the orbits on first read (_union_trace). A
    pattern compares, hashes, prints, copies and pickles by its six
    fields, read or not."""

    outcomes: tuple
    trace: tuple
    input: SpecialStateVector
    special: SpecialMatrix
    policy: OrderPolicy
    threshold_k: float

    def __post_init__(self):
        # a run builds its pattern through _from_orbits, which skips this
        _require_type(self.input, SpecialStateVector, "input")
        _require_type(self.special, SpecialMatrix, "special")
        _require_type(self.policy, OrderPolicy, "policy")
        _check_threshold_k(self.threshold_k)

    @classmethod
    def _from_orbits(cls, outcomes, orbits, input, special, policy,
                     threshold_k):
        """A pattern whose trace is assembled from `orbits`, one (kernels,
        steps) per component, on first read."""
        pattern = object.__new__(cls)
        pattern.__dict__.update(outcomes=outcomes, input=input,
                                special=special, policy=policy,
                                threshold_k=threshold_k, _orbits=orbits)
        return pattern

    def __getattr__(self, name):
        # reached only for an unset attribute: `trace`, on a run's pattern
        # until its first read
        if name != "trace" or "_orbits" not in self.__dict__:
            raise AttributeError(
                f"'HiddenPattern' object has no attribute {name!r}")
        trace = self.__dict__["trace"] = _union_trace(self._orbits)
        return trace

    def __reduce__(self):
        return HiddenPattern, (self.outcomes, self.trace, self.input,
                               self.special, self.policy, self.threshold_k)

    @property
    def side(self) -> str:
        return self.input.side

    @property
    def steps(self) -> int:
        """The number of records: a run's longest orbit."""
        if "_orbits" in self.__dict__:
            return max(self.settled_steps)
        return len(self.trace)

    @property
    def settled_steps(self) -> tuple:
        """Per component, the step it settled at: the length of its orbit
        on a run's pattern (not assembling `trace`), else the number of
        records in which it is not frozen."""
        if "_orbits" in self.__dict__:
            return tuple([len(steps) for _, steps in self._orbits])
        return tuple(column.count(False)
                     for column in zip(*(r.frozen for r in self.trace)))

    @property
    def mask(self) -> tuple:
        """Per component, the 0-based coordinates ON in the seed."""
        return self.input._memo(_seed_masks)

    def describe(self) -> str:
        lines = []
        for idx, outcome in enumerate(self.outcomes):
            lines.append(f"component {idx + 1}: {describe_outcome(outcome)}")
        return "\n".join(lines)


def _union_trace(orbits) -> tuple:
    """The union's records, one per step up to the last component's settle
    step: a component's step s is decoded by the kernel of its round that
    took it, through its memos (_Kernel.part and raw_part), so equal
    states share one tuple. Once its orbit has ended the component is
    frozen and carried unchanged on the seeded side."""
    total = max(len(steps) for _, steps in orbits)
    columns = []  # per component, its (raw, thresholded, updated) per step
    for kernels, steps in orbits:
        column = []
        for step, (raw, cut, new) in enumerate(steps):
            kernel = kernels[step % len(kernels)]
            thresholded = kernel.part(cut)
            # a part that flows raw is its own thresholded form
            column.append((thresholded if raw is cut
                           else kernel.raw_part(raw),
                           thresholded, kernel.part(new)))
        # a component settles on a step that lands on the seeded side
        column += [(column[-1][2],) * 3] * (total - len(steps))
        columns.append(column)
    frozen = [tuple([step > len(steps) for _, steps in orbits])
              for step in range(1, total + 1)]
    return tuple([IterationRecord(*zip(*parts), flags)
                  for parts, flags in zip(zip(*columns), frozen)])


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
    means valid. A union or seed of the wrong type raises TypeError.

    Each input is read once: the union keeps its carrier problems and its
    components' (kind, rows, cols), and the seed its problems per those."""
    _require_type(m, SpecialMatrix, "union")
    _require_type(x, SpecialStateVector, "seed")
    return [*m._memo(_carrier_problems),
            *x._memo(_seed_problems, m._memo(_component_shapes))]


def _component_shapes(m) -> tuple:
    """The (kind, rows, cols) of each component of the union `m`."""
    return tuple([(tag.kind, mat.rows, mat.cols) for mat, tag in m])


def _seed_problems(x, shapes) -> tuple:
    """The part count of the seed `x` against a union of components of
    these (kind, rows, cols), else each part's seed_problems."""
    if len(x) != len(shapes):
        return (f"input has {len(x)} parts, union has {len(shapes)} "
                f"components",)
    return tuple([problem for idx, (part, (kind, rows, cols))
                  in enumerate(zip(x.parts, shapes))
                  for problem in seed_problems(f"component {idx + 1}", part,
                                               kind, x.side, rows, cols)])


def _seed_masks(x) -> tuple:
    """Per part of the seed `x`, its on_coordinates."""
    return tuple(map(on_coordinates, x.parts))


# -- compiled steps ----------------------------------------------------------
#
# A kernel steps one operand from its rows to its columns: `step(state)`
# applies, cuts and ORs in the pin mask fixed when the kernel was built,
# and returns (raw, thresholded, updated). States are native to the
# kernel: `seed` makes the seeded-side state from the crisp seed part,
# `decode` turns a state of its output space back into the Scalar tuple
# that records and outcomes carry, and `decode_raw` does that for a raw
# part whose form differs from a state's. _kernels builds a component's
# kernels, one round's in step order.

class _Kernel:
    """One run's decoded parts of one kernel: each distinct state and raw
    part in its output space is decoded to a Scalar tuple once, by the
    kernel's `decode` and `decode_raw`, and equal parts share that tuple.
    The memos are made on first use, so a run whose trace nobody reads
    makes none."""

    parts = raws = None  # state or raw -> Scalar tuple

    def part(self, state):
        if self.parts is None:
            self.parts = {}
        return self.parts.get(state) or self.parts.setdefault(
            state, self.decode(state))

    def raw_part(self, raw):
        if self.raws is None:
            self.raws = {}
        return self.raws.get(raw) or self.raws.setdefault(
            raw, self.decode_raw(raw))


class _ScalarStep(_Kernel):
    """Max-min or min-max step, fuzzy or neutrosophic, on Scalar tuples
    through apply_part, under the run's order policy. Parts flow raw: no
    cut, no pin, and a state is its own Scalar tuple."""

    def __init__(self, matrix, tag, k, pin_on, policy):
        self.matrix = matrix
        self.op = tag.op
        self.policy = policy

    def step(self, state):
        raw = apply_part(state, self.matrix, self.op, self.policy)
        return raw, raw, raw

    @staticmethod
    def seed(part):
        return part

    @staticmethod
    def decode(state):
        return state


class _IntScalars(dict):
    """The shared Scalar of each raw circle value t + sI with integer t and
    s, keyed by the number t + sj: an int for the fuzzy kernel's reals, a
    complex for the neutrosophic one. Made on first use."""

    def __missing__(self, n):
        value = self[n] = Scalar(n.real, n.imag)
        return value


_INT_SCALARS = _IntScalars()
_BIT_SCALARS = (ZERO, ONE)


class _PackedStep(_Kernel):
    """Fuzzy circle step over {-1, 0, 1} weights on packed fields, one
    field of F bits per coordinate of one int: multiple byte processing
    with full-word instructions (Lamport, CACM 18(8), 1975).

    Coordinate i of a state sits at bit F*i. The operand W holds, in row
    order, W_i = sum_j m_ij << F*j. F is a multiple of 8 (_field_width),
    so a state, whose bits sit only at field starts, has one cut byte per
    coordinate, exactly 0 or 1 (_PackedCode.cuts). A step is one
    C-level sum over the weights those bytes select,
    y = sum(compress(W, cut bytes), (B - c) * ONES), with no Python-level
    work per ON coordinate, and field j of y is B - c + raw_j. As
    |raw_j| <= m = max(rows, cols), the clamped cut c = floor(k) + 1 lies
    in [-m, m + 1] and the guard bit B = 1 << (F - 1) exceeds 2m + 1, no
    field borrows or carries. Raws are ints, so raw_j > k exactly when
    field j reaches B: the cut is (y >> (F - 1)) & ONES, and the pin ORs
    in its mask. The code is compiled once per matrix and clamped cut
    (_PackedCode) and kept on the matrix; a run binds only the pin mask.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        reach = matrix.rows if matrix.rows > matrix.cols else matrix.cols
        cut = math.floor(k) + 1
        cut = -reach if cut < -reach else reach + 1 if cut > reach else cut
        self.code = code = matrix._memo(_PackedCode, cut)
        self.pin = sum(map(code.bits.__getitem__, pin_on))

    def step(self, x):
        code = self.code
        y = sum(compress(code.weights,
                         x.to_bytes(code.inputs, "little")[code.cuts]),
                code.bias)
        cut = (y >> code.shift) & code.ones
        return y, cut, cut | self.pin

    def seed(self, part):
        return self.pin  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x):
        cuts = x.to_bytes(self.code.outputs, "little")[self.code.cuts]
        part = itemgetter(*cuts)(_BIT_SCALARS)
        return part if len(cuts) > 1 else (part,)  # one index: a bare item

    def decode_raw(self, y):
        code = self.code
        mask, offset = code.mask, code.offset
        return tuple([_INT_SCALARS[(y >> s & mask) - offset]
                      for s in code.fields])


class _PackedCode:
    """A packed circle step over a matrix, compiled once per matrix and
    clamped cut and kept on the matrix (Matrix._memo): the operand
    (W, bias, ONES), the shift that takes each field's guard bit to its
    low bit, the slice that picks each coordinate's cut byte, the byte
    lengths of an input and of an output state, and the low bit and bit
    position of each output field."""

    __slots__ = ("weights", "bias", "ones", "offset", "shift", "mask",
                 "cuts", "inputs", "outputs", "bits", "fields")

    def __init__(self, matrix, cut):
        width = _field_width(matrix)
        self.weights, self.ones = matrix._memo(_packed)
        # field j of a raw record y is offset + raw_j
        self.offset = offset = (1 << width - 1) - cut
        self.bias = offset * self.ones
        self.shift = width - 1
        self.mask = (1 << width) - 1
        stride = width // 8  # bytes per field
        self.cuts = slice(None, None, stride)
        self.inputs = stride * matrix.rows
        self.outputs = stride * matrix.cols
        self.bits = _field_bits(width, matrix.cols)
        self.fields = range(0, width * matrix.cols, width)


def _field_width(matrix):
    """F, the field width of a packed circle step over `matrix`: the least
    multiple of 8 whose guard bit 1 << (F - 1) exceeds 2m + 1, for
    m = max(rows, cols). F is 8 up to m = 63 and 16 from m = 64."""
    return ((2 * max(matrix.shape) + 1).bit_length() + 8) // 8 * 8


def _packed(matrix):
    """((W_0, ..., W_rows-1), ONES) of a fuzzy circle `matrix`: W_i packs
    row i's weights, one F-bit field per column, each +-(the field's low
    bit) by its sign, and ONES has a 1 in each column's field. Kept on the
    matrix for every cut, as matrix._memo(_packed)."""
    cols = matrix.cols
    outputs = _field_bits(_field_width(matrix), cols)
    reals = [e.real_part for e in matrix.entries]
    weights = tuple([sum([bit if w > 0 else -bit
                          for bit, w in zip(outputs, reals[i:i + cols]) if w])
                     for i in range(0, len(reals), cols)])
    return weights, sum(outputs)


@functools.lru_cache(maxsize=64)
def _field_bits(width, count):
    """The low bit of each of `count` fields of `width` bits, held once
    for every matrix of that size."""
    return tuple([1 << width * i for i in range(count)])


def _sign_masks(matrix):
    """(P, N, Im) of a neutrosophic circle component's `matrix`, whose
    entries the carrier rule keeps in {-1, 0, 1, I}: per column, the
    bitmask of the rows of its +1 entries, that of its -1 entries and
    that of its I entries. Kept on the matrix, as
    matrix._memo(_sign_masks)."""
    cols = matrix.cols
    pos = [0] * cols
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
        masks[j] |= 1 << i
    return tuple(pos), tuple(neg), tuple(ind)


_TRIT_SCALARS = (ZERO, ONE, I)  # by code: x1 bit + 2 * xI bit


class _CutCodes(dict):
    """One kernel's cut of each raw value t + sj, by
    values.threshold_scalar, as a code: 0 for 0, 1 for 1, 2 for I. Made
    on first use."""

    def __init__(self, mode):
        super().__init__()
        self.mode = mode

    def __missing__(self, n):
        value = self[n] = _TRIT_SCALARS.index(
            threshold_scalar(_INT_SCALARS[n], self.mode))
        return value


class _TritStep(_Kernel):
    """Neutrosophic circle step over {-1, 0, 1, I} weights on pairs of int
    bitmasks.

    Bit i of a bitmask is coordinate i, and a {0, 1, I} state is the pair
    (x1, xI): the bitmask of its 1 coordinates and that of its I
    coordinates. The operand holds the mask tuples (P, N, Im) of
    _sign_masks, the +1, -1 and I rows of each column of the matrix,
    built once per matrix and kept on it. As I * I = I, raw_j = t + sI
    with t = |x1 & P[j]| - |x1 & N[j]| and
    s = |x1 & Im[j]| + |xI & P[j]| - |xI & N[j]| + |xI & Im[j]|, both
    exact integers (popcounts via int.bit_count, so Python 3.10+).
    The cut is values.threshold_scalar, once per distinct raw value, and
    the pin sets its mask's bits to 1.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        self.operand = matrix._memo(_sign_masks)
        self.size = matrix.cols
        self.pin = sum(1 << i for i in pin_on)
        self.bits = _field_bits(1, matrix.cols)
        self.cut = _CutCodes(ThresholdMode(tag.algebra, k))

    def step(self, x):
        x1, xi = x
        raw = tuple([complex((x1 & p).bit_count() - (x1 & n).bit_count(),
                             (x1 & m).bit_count() + (xi & p).bit_count()
                             - (xi & n).bit_count() + (xi & m).bit_count())
                     for p, n, m in zip(*self.operand)])
        codes = list(map(self.cut.__getitem__, raw))
        bits, pin = self.bits, self.pin
        ones = sum([bit for c, bit in zip(codes, bits) if c == 1])
        inds = sum([bit for c, bit in zip(codes, bits) if c == 2])
        return raw, (ones, inds), (ones | pin, inds & ~pin)

    def seed(self, part):
        return self.pin, 0  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x):
        x1, xi = x
        return tuple([_TRIT_SCALARS[(x1 >> i & 1) | (xi >> i & 1) << 1]
                      for i in range(self.size)])

    @staticmethod
    def decode_raw(raw):
        return tuple(map(_INT_SCALARS.__getitem__, raw))


# The kernel each (algebra, op) names. The carrier rule fixes what a
# component's entries can be, so each kernel takes every component of its
# tag.
_KERNEL_BY_TAG = {
    ("fuzzy", "circle"): _PackedStep,
    ("neutrosophic", "circle"): _TritStep,
    ("fuzzy", "maxmin"): _ScalarStep,
    ("fuzzy", "minmax"): _ScalarStep,
    ("neutrosophic", "maxmin"): _ScalarStep,
    ("neutrosophic", "minmax"): _ScalarStep,
}


def _kernels(mat, tag, k, pin_on, policy, seeded):
    """The kernels of one round of a component seeded on `seeded`, in step
    order: the last lands on the seeded side and pins `pin_on`; an RM
    round first steps to where landing_side puts step 1, without a pin.
    A kernel from the domain applies the matrix, one from the range its
    transpose (kept on the matrix)."""
    far = landing_side(tag.kind, seeded, 1)
    make = _KERNEL_BY_TAG[tag.algebra, tag.op]
    home = make(mat if far == DOMAIN_SIDE else mat._memo(transpose), tag, k,
                pin_on, policy)
    if far == seeded:
        return (home,)
    return make(mat if seeded == DOMAIN_SIDE else mat._memo(transpose), tag,
                k, (), policy), home


def _orbit(kernels, kind, part, seeded, max_steps):
    """Step the seed `part` one round at a time, each round through
    `kernels` in order, until Recurrence closes its first cycle on the
    state that ends a round. Returns the kernels' (raw, thresholded,
    updated) of each step and the outcome of the cycle, or None when none
    closes within `max_steps`; an RM cycle closes on an even step only,
    so no round steps past the cap."""
    home = kernels[-1]
    state = home.seed(part)
    recurrence = Recurrence(kind, seeded, state)
    closes, rounds = recurrence.closes, [kernel.step for kernel in kernels]
    steps = []
    append = steps.append
    for step in range(len(rounds), max_steps + 1, len(rounds)):
        for stepper in rounds:
            taken = stepper(state)
            append(taken)
            state = taken[2]
        if closes(step, state):
            break
    else:
        return steps, None
    if kind == CM:
        return steps, Recurrence.outcome(
            map(home.part, recurrence.cycle(state)))
    domain, range_ = recurrence.orient(kernels[::-1])
    return steps, Recurrence.outcome(
        [(domain.part(d), range_.part(r))
         for d, r in recurrence.cycle(state, lambda t: steps[t][2])])


def run_mixed(m: SpecialMatrix, x0: SpecialStateVector, *,
              policy=OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
              max_steps=DEFAULT_MAX_STEPS) -> HiddenPattern:
    """Run an arbitrary CM/RM mixture: square components advance against
    their own matrix every step while rectangular ones alternate sides,
    each on the kernel its tag names and each as its own orbit (_orbit).
    The run options `policy` (an OrderPolicy or its text), `threshold_k`
    (the cut) and `max_steps` (the cap) are declared and checked here,
    and validate_input's problems raise InvalidInput before step 1. Every
    component still unsettled after `max_steps` steps is named in one
    IterationCapExceeded. A union or seed of the wrong type raises
    TypeError first."""
    problems = validate_input(m, x0)  # a wrong type raises TypeError here
    _check_threshold_k(threshold_k)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int):
        raise InvalidInput(f"max steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise InvalidInput(f"max steps must be at least 1, got {max_steps}")
    policy = OrderPolicy.parse(policy)
    if problems:
        raise InvalidInput("; ".join(problems))
    outcomes, orbits = [], []
    for (mat, tag), part, pin_on in zip(m, x0.parts, x0._memo(_seed_masks)):
        kernels = _kernels(mat, tag, threshold_k, pin_on, policy, x0.side)
        steps, outcome = _orbit(kernels, tag.kind, part, x0.side, max_steps)
        outcomes.append(outcome)
        orbits.append((kernels, steps))
    pending = [str(idx + 1) for idx, o in enumerate(outcomes) if o is None]
    if pending:
        which = (f"component {pending[0]} is" if len(pending) == 1
                 else f"components {', '.join(pending)} are")
        raise IterationCapExceeded(
            f"{which} still unsettled after {max_steps} "
            f"step{'s' if max_steps > 1 else ''}")
    return HiddenPattern._from_orbits(tuple(outcomes), tuple(orbits), x0,
                                      m, policy, threshold_k)


def _run_only(kind, error, m, x0, options) -> HiddenPattern:
    """run_mixed of a union whose components are all of `kind`: the first
    that is not raises `error`, once the argument types pass."""
    _require_type(m, SpecialMatrix, "union")
    _require_type(x0, SpecialStateVector, "seed")
    for idx, (tagged, _, _) in enumerate(m._memo(_component_shapes)):
        if tagged != kind:
            raise error(f"component {idx + 1} is tagged {tagged}")
    return run_mixed(m, x0, **options)


def run_cm(m: SpecialMatrix, x0: SpecialStateVector,
           **options) -> HiddenPattern:
    """Iterate a union of square components to its hidden pattern."""
    return _run_only(CM, NonCMComponent, m, x0, options)


def run_rm(m: SpecialMatrix, x0: SpecialStateVector,
           **options) -> HiddenPattern:
    """Alternate rectangular components with their transposes until each
    settles into a fixed binary pair (or a cycle of pairs)."""
    return _run_only(RM, NonRMComponent, m, x0, options)
