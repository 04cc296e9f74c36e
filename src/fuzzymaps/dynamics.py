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
  seeded side. An RM state is paired with its unpinned far-side landing
  one step later. A one-state cycle is a FixedPoint, a longer one a
  LimitCycle. Recurrence holds this rule, and trace verification drives
  it too.
* Orbits: the components of a union never read each other, so each
  runs alone from its seed part until it settles (_orbit), and a run is
  one orbit per component. The union trace is derived from the orbits:
  step s holds each component's own step s, and a component that has
  settled is frozen and carried unchanged on the seeded side until the
  last one settles.

Each component's step is set up at the start of a run on the kernel its
tag names, which only applies and cuts per side (the matrix from the
domain, its transpose from the range), and the run calls only that one
step. What a kernel derives from the matrix alone is kept on the matrix
(Matrix._memo). The carrier rule fixes what a kernel's entries can be,
so each kernel takes every component of its tag:

  algebra       operator       kernel
  fuzzy         circle         packed
  neutrosophic  circle         trit
  fuzzy         maxmin/minmax  float level
  neutrosophic  maxmin/minmax  Scalar (_ScalarStep)

* packed: weights in {-1, 0, 1}; a state is one int holding a field of
  F bits per coordinate, and a step adds, to a bias, one packed int of
  weights per ON coordinate. Field j of the sum is raw_j + B - c, where
  the cut c = floor(k) + 1 is clamped to [-m, m + 1] for
  m = max(rows, cols) and the guard bit B = 1 << (F - 1) is above
  2m + 1. As |raw_j| <= m, no field borrows or carries, and the cut is
  each field's guard bit. F is a multiple of 8, so a state decodes from
  its bytes. The operands depend only on the matrix, the clamped cut and
  the kind, and are compiled once and kept on the matrix;
* trit: weights in {-1, 0, 1, I}; states are pairs of int bitmasks (the
  1 and the I coordinates), raw values t + sI have exact integer parts,
  popcounts via int.bit_count (so Python 3.10+) over per-matrix masks of
  the +1, -1 and I entries, and the cut is threshold_scalar, once per
  distinct raw value in a run;
* float level: memberships in [0, 1]; float-tuple states, one C-level
  max/min call per entry;
* Scalar: Scalar tuples through apply_part, where the order policy
  applies.

A run keeps each orbit's steps in the kernel's own form. The union
trace is assembled from them on its first read, and a record's parts
are decoded to Scalar tuples only when its field is read; within a run,
each distinct state on a side decodes once, so equal states share one
tuple. Outcomes are decoded when their component settles, so a run whose
trace nobody reads builds no record.

Tests replay every run record by record through the public Scalar
operations (apply_part, threshold_scalar, landing_side and the pin),
which the kernels do not use, and step every reported cycle again
through them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
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
    return tuple([i for i, v in enumerate(part)
                  if v.real_part == 1.0 and not v.indet_coeff])


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

    __slots__ = ("kind", "side", "sides", "seen", "partners")

    def __init__(self, kind, side, first):
        self.kind = kind
        self.side = side
        # landing_side read once per parity: sides[step & 1] is the side
        # of the state reached at `step`
        self.sides = (landing_side(kind, side, 0), landing_side(kind, side, 1))
        self.seen = {first: 0}  # seeded-side state -> step, in step order
        self.partners = {}  # step -> far-side landing

    def add(self, step, state):
        """Record `state`, reached at `step`; return the cycle it closes,
        or None while every seeded-side state is new."""
        if self.sides[step & 1] != self.side:
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


class IterationRecord:
    """One engine step: the raw union, its thresholded form, and the form
    after pinning, each a tuple of Scalar parts, one per component.
    `frozen` marks components that had already settled and were carried
    unchanged through this step. A record's step is its position in the
    trace, from 1; landing_side gives where each unfrozen part sits, and
    a frozen part sits on the seeded side.

    A run keeps each component's parts in its kernel's own form; `raw`,
    `thresholded` and `updated` decode them on first read and keep the
    result. A record is immutable, and compares, hashes, prints, copies
    and pickles by its four fields, read or not."""

    __slots__ = ("frozen", "_entries", "_parts")

    def __init__(self, raw, thresholded, updated, frozen):
        object.__setattr__(self, "frozen", frozen)
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_parts", [raw, thresholded, updated])

    @classmethod
    def _encoded(cls, entries, frozen):
        """A record of kernel-form entries, one (rule, side, raw,
        thresholded, updated) per component, raw None where it is the
        thresholded part."""
        record = object.__new__(cls)
        object.__setattr__(record, "frozen", frozen)
        object.__setattr__(record, "_entries", entries)
        object.__setattr__(record, "_parts", [None, None, None])
        return record

    def _field(self, index):
        """Field `index` of (raw, thresholded, updated), decoded from the
        kernel-form entries on first read."""
        parts = self._parts
        if parts[index] is None:
            if index:
                parts[index] = tuple([entry[0].part(entry[1], entry[index + 2])
                                      for entry in self._entries])
            else:
                parts[0] = tuple([
                    rule.part(side, cut) if raw is None
                    else rule.raw_part(side, raw)
                    for rule, side, raw, cut, _ in self._entries])
        return parts[index]

    @property
    def raw(self):
        return self._field(0)

    @property
    def thresholded(self):
        return self._field(1)

    @property
    def updated(self):
        return self._field(2)

    def _fields(self):
        return self.raw, self.thresholded, self.updated, self.frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return ("IterationRecord(raw={!r}, thresholded={!r}, updated={!r}, "
                "frozen={!r})".format(*self._fields()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IterationRecord, self._fields()


@dataclass(frozen=True)
class HiddenPattern:
    """Run result: one outcome per component plus the full trace. The
    seeded side, step count, settle steps and input mask derive from
    `input` and `trace`.

    A run keeps each component's orbit, its kernel's (raw, thresholded,
    updated) of every step up to its first recurrence, and `trace` is
    assembled from the orbits on first read (_union_trace). A pattern
    compares, hashes, prints, copies and pickles by its three fields,
    read or not."""

    outcomes: tuple
    trace: tuple
    input: SpecialStateVector

    @classmethod
    def _from_orbits(cls, outcomes, orbits, input):
        """A pattern whose trace is assembled from `orbits`, one (rule,
        kind, steps) per component, on first read."""
        pattern = object.__new__(cls)
        pattern.__dict__.update(outcomes=outcomes, input=input,
                                _orbits=orbits)
        return pattern

    def __getattr__(self, name):
        # reached only for an unset attribute: `trace`, on a run's pattern
        # until its first read
        if name != "trace" or "_orbits" not in self.__dict__:
            raise AttributeError(
                f"'HiddenPattern' object has no attribute {name!r}")
        trace = self.__dict__["trace"] = _union_trace(self._orbits,
                                                      self.input.side)
        return trace

    def __reduce__(self):
        return HiddenPattern, (self.outcomes, self.trace, self.input)

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
        return self.input._memo(_seed_masks)

    def describe(self) -> str:
        lines = []
        for idx, outcome in enumerate(self.outcomes):
            lines.append(f"component {idx + 1}: {describe_outcome(outcome)}")
        return "\n".join(lines)


def _union_trace(orbits, seeded) -> tuple:
    """The union's records, one per step up to the last component's settle
    step, each of kernel-form entries (IterationRecord._encoded): a
    component's step sits where landing_side lands it, and once its orbit
    has ended it is frozen and carried unchanged on the seeded side."""
    total = max(len(steps) for _, _, steps in orbits)
    columns = []
    for rule, kind, steps in orbits:
        # a part that flows raw is its own thresholded form
        column = [(rule, landing_side(kind, seeded, step),
                   None if raw is cut else raw, cut, new)
                  for step, (raw, cut, new) in enumerate(steps, 1)]
        settled = steps[-1][2]
        column += [(rule, seeded, None, settled, settled)] * (
            total - len(steps))
        columns.append(column)
    frozen = [tuple([step > len(steps) for _, _, steps in orbits])
              for step in range(1, total + 1)]
    return tuple(map(IterationRecord._encoded, zip(*columns), frozen))


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
    means valid.

    Each input is read once: the union keeps its carrier problems and the
    seed keeps each part's problems per component index, kind and shape,
    so a sweep of seeds over one union, or of unions under one seed,
    checks each part once."""
    out = [*m._memo(_carrier_problems)]
    if len(x) != len(m):
        return out + [
            f"input has {len(x)} parts, union has {len(m)} components"]
    for idx, (mat, tag) in enumerate(m):
        out += x._memo(_part_problems, idx, tag.kind, mat.rows, mat.cols)
    return out


def _part_problems(x, idx, kind, rows, cols) -> tuple:
    """The seed_problems of part `idx` of the seed `x` as the seed part of
    component idx + 1, a rows x cols component of `kind`."""
    return tuple(seed_problems(f"component {idx + 1}", x.parts[idx], kind,
                               x.side, rows, cols))


def _seed_masks(x) -> tuple:
    """Per part of the seed `x`, its on_coordinates."""
    return tuple(map(on_coordinates, x.parts))


# -- compiled steps ----------------------------------------------------------
#
# A kernel is one component's step (apply, cut, pin), built once per run
# from (matrix, tag, k, pin_on, policy). It keeps its operand per side:
# the matrix, applied from the domain, and for an RM component its
# transpose, applied from the range. `step(state, side, pin)` applies
# the operand of the side `state` addresses, cuts, pins when told, and
# returns (raw, thresholded, updated); landing_side decides `pin`. States
# are native to the kernel: `seed` makes one from the crisp seed part,
# and `part` turns a state on a side back into the Scalar tuple that
# records and outcomes carry, as `raw_part` does a raw part whose form
# differs from a state's.

class _Kernel:
    """One run's decoded parts of one component: each distinct state and
    raw part on a side is decoded to a Scalar tuple once, by the kernel's
    `decode` and `decode_raw`, and equal parts share that tuple."""

    def __init__(self):
        self.parts = {}  # (side, state) -> Scalar tuple
        self.raws = {}  # (side, raw) -> Scalar tuple

    def part(self, side, state):
        key = side, state
        part = self.parts.get(key)
        if part is None:
            part = self.parts[key] = self.decode(state, side)
        return part

    def raw_part(self, side, raw):
        key = side, raw
        part = self.raws.get(key)
        if part is None:
            part = self.raws[key] = self.decode_raw(raw, side)
        return part


class _ScalarStep(_Kernel):
    """Neutrosophic max-min or min-max step on Scalar tuples through
    apply_part, under the run's order policy. Parts flow raw: no cut, no
    pin, and a state is its own Scalar tuple."""

    def __init__(self, matrix, tag, k, pin_on, policy):
        super().__init__()
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

    Coordinate i of a state sits at bit F*i. The applied operand maps the
    bit of each input coordinate i to W_i = sum_j m_ij << F*j, the
    matrix's row i packed over its columns for the domain and, on an RM
    component, its column i packed over its rows for the range. A step
    starts from bias = (B - c) * ONES, ONES holding a 1 in the field of
    each output coordinate, and adds W_i for each ON coordinate, so field
    j of the raw record y is B - c + raw_j. As |raw_j| <= m = max(rows,
    cols), the clamped cut c = floor(k) + 1 lies in [-m, m + 1] and the
    guard bit B = 1 << (F - 1) exceeds 2m + 1, each field stays in
    [1, 2B): it never borrows from or carries into its neighbour. Raws are
    ints, so raw_j > k exactly when field j reaches B, its top bit: the
    cut is (y >> (F - 1)) & ONES, and pinning ORs in the seed's bits.

    F is a multiple of 8 (_field_width), so each field starts on a byte
    and the cut bit of coordinate i is the low bit of byte (F/8)*i: a
    state decodes from every (F/8)-th byte of its little-endian bytes.
    The operands depend only on the matrix, the clamped cut and the kind,
    so they are compiled once (_PackedCode) and kept on the matrix; a run
    adds only its pin mask and its decode memo.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        super().__init__()
        reach = max(matrix.shape)
        cut = min(max(math.floor(k) + 1, -reach), reach + 1)
        self.code = code = matrix._memo(_PackedCode, cut, tag.kind)
        self.operands = code.operands
        self.shift = code.shift
        self.pin = sum(map(code.bits.__getitem__, pin_on))

    def step(self, x, side, pin):
        weights, y, ones = self.operands[side]
        while x:
            low = x & -x
            y += weights[low]
            x ^= low
        cut = (y >> self.shift) & ones
        return y, cut, (cut | self.pin) if pin else cut

    def seed(self, part):
        return self.pin  # a crisp seed's ON bits are exactly its pin mask

    def decode(self, x, side):
        code = self.code
        cuts = x.to_bytes(code.lengths[side], "little")[::code.stride]
        part = itemgetter(*cuts)(_BIT_SCALARS)
        return part if len(cuts) > 1 else (part,)  # one index: a bare item

    def decode_raw(self, y, side):
        code = self.code
        mask, offset = code.mask, code.offset
        return tuple([_INT_SCALARS[(y >> s & mask) - offset]
                      for s in code.fields[side]])


class _PackedCode:
    """A packed circle step compiled for one matrix, clamped cut and kind:
    the applied operand (weights, bias, ONES) of each side the kind steps
    from, the shift that takes each field's guard bit to its low bit, and
    the layout a part on each side decodes by. Built through Matrix._memo,
    so each is built once and kept on the matrix."""

    __slots__ = ("operands", "offset", "shift", "mask", "stride", "bits",
                 "fields", "lengths")

    def __init__(self, matrix, cut, kind):
        width = _field_width(matrix)
        # field j of a raw record y is offset + raw_j
        self.offset = offset = (1 << width - 1) - cut
        sides = {DOMAIN_SIDE: matrix._memo(_packed, False)}
        if kind == RM:
            sides[RANGE_SIDE] = matrix._memo(_packed, True)
        self.operands = {side: (weights, offset * ones, ones)
                         for side, (weights, ones) in sides.items()}
        self.shift = width - 1
        self.mask = (1 << width) - 1
        self.stride = width // 8  # bytes per field
        self.bits = _field_bits(width, max(matrix.shape))  # a pin's bits
        sizes = {DOMAIN_SIDE: matrix.rows, RANGE_SIDE: matrix.cols}
        # the bit position of each field, and the bytes, of a part per side
        self.fields = {side: range(0, width * n, width)
                       for side, n in sizes.items()}
        self.lengths = {side: self.stride * n for side, n in sizes.items()}


def _field_width(matrix):
    """F, the field width of a packed circle step over `matrix`: the least
    multiple of 8 whose guard bit 1 << (F - 1) exceeds 2m + 1, for
    m = max(rows, cols). F is 8 up to m = 63 and 16 from m = 64."""
    return ((2 * max(matrix.shape) + 1).bit_length() + 8) // 8 * 8


def _packed(matrix, by_columns):
    """({1 << F*i: W_i}, ONES) of a fuzzy circle `matrix` applied from the
    domain, or from the range when `by_columns`: W_i packs input i's
    weights, one F-bit field per output, and ONES has a 1 in each output
    field. Kept on the matrix for every cut, as matrix._memo(_packed,
    by_columns)."""
    width = _field_width(matrix)
    rows, cols = matrix.rows, matrix.cols
    reals = [int(e.real_part) for e in matrix.entries]
    lines = [reals[j::cols] for j in range(cols)] if by_columns \
        else [reals[i:i + cols] for i in range(0, rows * cols, cols)]
    outputs = _field_bits(width, len(lines[0]))
    weights = dict(zip(_field_bits(width, len(lines)),
                       [sum([bit * w for bit, w in zip(outputs, line) if w])
                        for line in lines]))
    return weights, sum(outputs)


@functools.lru_cache(maxsize=64)
def _field_bits(width, count):
    """The low bit of each of `count` fields of `width` bits: the keys of
    a packed matrix's weights, held once for every matrix of that size."""
    return tuple([1 << width * i for i in range(count)])


def _sign_masks(matrix, by_rows):
    """(P, N, Im) of a neutrosophic circle component's `matrix`, whose
    entries the carrier rule keeps in {-1, 0, 1, I}: per column (per row
    when `by_rows`), the bitmask of its +1 entries, that of its -1 entries
    and that of its I entries. Kept on the matrix, as
    matrix._memo(_sign_masks, by_rows)."""
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


class _TritStep(_Kernel):
    """Neutrosophic circle step over {-1, 0, 1, I} weights on pairs of int
    bitmasks.

    Bit i of a bitmask is coordinate i, and a {0, 1, I} state is the pair
    (x1, xI): the bitmask of its 1 coordinates and that of its I
    coordinates. The applied operand holds the mask tuples (P, N, Im) of
    _sign_masks, the +1, -1 and I rows of each column of the matrix for
    the domain and, on an RM component, of each row for the range, built
    once per matrix and kept on it. As I * I = I, raw_j = t + sI with
    t = |x1 & P[j]| - |x1 & N[j]| and
    s = |x1 & Im[j]| + |xI & P[j]| - |xI & N[j]| + |xI & Im[j]|, both
    exact integers (popcounts via int.bit_count, so Python 3.10+).
    The cut is values.threshold_scalar, once per distinct raw value, and
    pinning sets the seed's bits to 1.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        super().__init__()
        self.operands = {DOMAIN_SIDE: matrix._memo(_sign_masks, False),
                         RANGE_SIDE: matrix._memo(_sign_masks, True)
                         if tag.kind == RM else None}
        self.sizes = {DOMAIN_SIDE: matrix.rows, RANGE_SIDE: matrix.cols}
        self.pin = sum(1 << i for i in pin_on)
        self.bits = _field_bits(1, max(matrix.shape))
        self.cut = _CutCodes(ThresholdMode(tag.algebra, k))

    def step(self, x, side, pin):
        x1, xi = x
        raw = tuple([complex((x1 & p).bit_count() - (x1 & n).bit_count(),
                             (x1 & m).bit_count() + (xi & p).bit_count()
                             - (xi & n).bit_count() + (xi & m).bit_count())
                     for p, n, m in zip(*self.operands[side])])
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

    @staticmethod
    def decode_raw(raw, side):
        return tuple(map(_INT_SCALARS.__getitem__, raw))


class _LevelStep(_Kernel):
    """Fuzzy max-min or min-max step over [0, 1] memberships on float
    tuples.

    A state is the tuple of its coordinates' real parts, and the applied
    operand is a tuple of columns as float tuples, so raw_j is one C-level
    call, max(map(min, x, column_j)) for max-min. Parts flow raw: no cut,
    no pin. Every raw value is a seed value (0 or 1) or a matrix entry, so
    `values` maps each float back to its Scalar.
    """

    def __init__(self, matrix, tag, k, pin_on, policy):
        super().__init__()
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
        return tuple(map(self.values.__getitem__, x))


# The kernel each (algebra, op) names. The carrier rule fixes what a
# component's entries can be, so each kernel takes every component of its
# tag.
_KERNEL_BY_TAG = {
    ("fuzzy", "circle"): _PackedStep,
    ("neutrosophic", "circle"): _TritStep,
    ("fuzzy", "maxmin"): _LevelStep,
    ("fuzzy", "minmax"): _LevelStep,
    ("neutrosophic", "maxmin"): _ScalarStep,
    ("neutrosophic", "minmax"): _ScalarStep,
}


def _orbit(rule, kind, part, seeded, max_steps):
    """Step `rule` from the seed `part` on `seeded` until Recurrence
    closes its first cycle, landing and pinning as landing_side says.
    Returns the kernel's (raw, thresholded, updated) of each step and the
    outcome of the cycle, or None when none closes within `max_steps`."""
    state = rule.seed(part)
    recurrence = Recurrence(kind, seeded, state)
    sides, add, step_rule = recurrence.sides, recurrence.add, rule.step
    side = seeded  # the side `state` addresses
    steps = []
    for step in range(1, max_steps + 1):
        land = sides[step & 1]
        taken = step_rule(state, side, land == seeded)
        steps.append(taken)
        state, side = taken[2], land
        cycle = add(step, state)
        if cycle is not None:
            break
    else:
        return steps, None
    decode = rule.part
    if kind == RM:
        cycle = [(decode(DOMAIN_SIDE, d), decode(RANGE_SIDE, r))
                 for d, r in cycle]
    else:
        cycle = [decode(seeded, s) for s in cycle]
    return steps, Recurrence.outcome(cycle)


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
    IterationCapExceeded."""
    _check_threshold_k(threshold_k)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int):
        raise InvalidInput(f"max steps must be an int, got {max_steps!r}")
    if max_steps < 1:
        raise InvalidInput(f"max steps must be at least 1, got {max_steps}")
    policy = OrderPolicy.parse(policy)
    problems = validate_input(m, x0)
    if problems:
        raise InvalidInput("; ".join(problems))
    outcomes, orbits = [], []
    for (mat, tag), part, pin_on in zip(m, x0.parts, x0._memo(_seed_masks)):
        rule = _KERNEL_BY_TAG[tag.algebra, tag.op](
            mat, tag, threshold_k, pin_on, policy)
        steps, outcome = _orbit(rule, tag.kind, part, x0.side, max_steps)
        outcomes.append(outcome)
        orbits.append((rule, tag.kind, steps))
    pending = [str(idx + 1) for idx, o in enumerate(outcomes) if o is None]
    if pending:
        which = (f"component {pending[0]} is" if len(pending) == 1
                 else f"components {', '.join(pending)} are")
        raise IterationCapExceeded(
            f"{which} still unsettled after {max_steps} "
            f"step{'s' if max_steps > 1 else ''}")
    return HiddenPattern._from_orbits(tuple(outcomes), tuple(orbits), x0)


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
