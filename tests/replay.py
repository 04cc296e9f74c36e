"""The engine's step rule through the public Scalar operations, which the
packed and trit kernels do not use, and through the order spec
(tests/spec_oracle.py), which the max-min/min-max kernel does not use:
the reference every run is replayed against.

Imported by the test modules next to it.
"""

import pytest

import spec_oracle as spec
from fuzzymaps import (
    DOMAIN_SIDE,
    ONE,
    IterationCapExceeded,
    Matrix,
    OrderPolicy,
    ThresholdMode,
    render_trace,
    run_mixed,
    threshold_scalar,
    transpose,
    verify_trace,
)
from fuzzymaps.dynamics import landing_side
from fuzzymaps.special import apply_part


class Oracle:
    """The oracle over Scalars: each Scalar goes in as its own (a, b)
    pair object, and each pair the oracle picks comes back as its
    Scalar."""

    def __init__(self):
        self._scalars = {}  # id of a pair -> (the pair, its Scalar)

    def pairs(self, values):
        out = []
        for x in values:
            p = (x.real_part, x.indet_coeff)
            self._scalars[id(p)] = (p, x)
            out.append(p)
        return out

    def scalars(self, picks):
        return tuple(self._scalars[id(p)][1] for p in picks)

    def pair(self, a, b, policy):
        return self.scalars(spec.pair(*self.pairs((a, b)), policy.value))

    def fold(self, part, mat: Matrix, op, policy):
        rows = [self.pairs(mat.row(i)) for i in range(mat.rows)]
        return self.scalars(spec.fold(self.pairs(part), rows, op,
                                      policy.value))

    def compose(self, p: Matrix, q: Matrix, op, policy):
        return tuple(x for i in range(p.rows)
                     for x in self.fold(p.row(i), q, op, policy))


def public_step(state, matrix, tag, k, pin, policy=OrderPolicy.BOOK_DEFAULT):
    """One apply -> cut -> pin step of `state` against `matrix`: a circle
    step through apply_part and threshold_scalar, `pin` listing the
    coordinates set to 1, and a max-min/min-max step through the spec's
    fold (Oracle), which picks the very operand Scalars. Returns (raw,
    thresholded, updated); maxmin/minmax parts flow raw."""
    if tag.op != "circle":
        raw = Oracle().fold(state, matrix, tag.op, policy)
        return raw, raw, raw
    raw = tuple(apply_part(state, matrix, tag.op, policy))
    mode = ThresholdMode(tag.algebra, k)
    cut = tuple(threshold_scalar(v, mode) for v in raw)
    updated = list(cut)
    for i in pin:
        updated[i] = ONE
    return raw, cut, tuple(updated)


def seed_pin(part):
    """The coordinates a crisp seed part pins: those equal to 1."""
    return [i for i, v in enumerate(part) if v == ONE]


def assert_replays(pattern):
    """Every record of `pattern`, a run of its union from its seed, is one
    public_step of each unfrozen part from its last updated form, under
    the run's own cut constant and policy: the matrix applied from the
    domain and its transpose from the range, as landing_side places the
    part, pinned when it lands on the seeded side. A frozen part is
    carried unchanged. verify_trace re-derives the outcomes from the
    rendered records."""
    special, x0 = pattern.special, pattern.input
    k, policy = pattern.threshold_k, pattern.policy
    parts = list(x0.parts)
    for step, record in enumerate(pattern.trace, 1):
        for idx, (matrix, tag) in enumerate(special):
            got = (record.raw[idx], record.thresholded[idx],
                   record.updated[idx])
            if record.frozen[idx]:
                assert got == (parts[idx],) * 3
                continue
            here = landing_side(tag.kind, x0.side, step - 1)
            land = landing_side(tag.kind, x0.side, step)
            operand = matrix if here == DOMAIN_SIDE else transpose(matrix)
            pin = seed_pin(x0.parts[idx]) if land == x0.side else ()
            assert got == public_step(parts[idx], operand, tag, k, pin,
                                      policy), (step, idx)
            parts[idx] = record.updated[idx]
    assert verify_trace(render_trace(pattern)) == pattern.outcomes


def assert_capped_run_replays(special, x0, k, max_steps):
    """The uncapped run replays (assert_replays), and the run capped at
    `max_steps` raises IterationCapExceeded exactly when the uncapped one
    settles after the cap, else equals it."""
    pattern = run_mixed(special, x0, threshold_k=k)
    assert_replays(pattern)
    if pattern.steps > max_steps:
        with pytest.raises(IterationCapExceeded):
            run_mixed(special, x0, threshold_k=k, max_steps=max_steps)
    else:
        assert run_mixed(special, x0, threshold_k=k,
                         max_steps=max_steps) == pattern
