"""A spec of the scalar order that shares no code with the engine.

It imports nothing from `fuzzymaps`. A value a + bI is the pair (a, b)
of floats, and a rule returns the very pair objects it picks, so that a
test can map them back to the engine's operands. Each rule cites the
sentence of PAPER.md's Ordering paragraph that it states.
"""

from functools import reduce

BOOK = "book"
INDETERMINACY = "indeterminacy"


class Undefined(Exception):
    """No order. `values` are the values the error names, in its order:
    one value that has no order at all, or under `book` a negative value
    and a value of its other kind."""

    def __init__(self, *values):
        super().__init__(*values)
        self.values = values


def is_real(x):
    return x[1] == 0


def is_mixed(x):
    return x[0] != 0 and x[1] != 0


def has_nan(x):
    return x[0] != x[0] or x[1] != x[1]


def is_negative(x):
    return x[0] < 0 or x[1] < 0


def check(values, policy):
    """Raise Undefined unless every two of `values` have an order.

    "A mixed value (`a + bI` with both parts nonzero) and a value with a
    NaN coefficient have no order under either policy."
    "A negative real or multiple of `I` has no order against a value of
    the other kind." (`book`)
    "Otherwise it raises `OrderUndefined` before it folds anything,
    naming the first mixed or NaN value (in the part, then in the matrix
    by rows), or under `book` the first negative value and the first
    value of its other kind."
    """
    for x in values:
        if is_mixed(x) or has_nan(x):
            raise Undefined(x)
    if policy == BOOK:
        negatives = [x for x in values if is_negative(x)]
        if negatives:
            others = [x for x in values
                      if is_real(x) != is_real(negatives[0])]
            if others:
                raise Undefined(negatives[0], others[0])


def pair(x, y, policy):
    """(min, max) of the values x and y under `policy`, as the operands;
    equal values give (x, x).

    "Two reals compare by value, and two pure multiples of `I` by
    coefficient."
    "Under the default `book` policy a real `n` and a pure `mI` compare
    by coefficient when neither is negative: the larger is the max, and
    when `n` meets `nI` both min and max are `nI`."
    "Under `indeterminacy` a pure multiple of `I` is both the min and the
    max against any real."
    """
    check((x, y), policy)
    if x == y:
        return x, x
    if is_real(x) == is_real(y):
        return (x, y) if sum(x) < sum(y) else (y, x)
    real, indet = (x, y) if is_real(x) else (y, x)
    if policy == INDETERMINACY or real[0] == indet[1]:
        return indet, indet
    return (real, indet) if real[0] < indet[1] else (indet, real)


def low(policy):
    return lambda x, y: pair(x, y, policy)[0]


def high(policy):
    return lambda x, y: pair(x, y, policy)[1]


def fold(part, rows, op, policy):
    """One max-min (op "maxmin") or min-max ("minmax") fold of the values
    `part` against the matrix `rows` (a list of rows): entry j folds the
    inner end of part[k] and rows[k][j] over k with the outer end, from
    k = 0 up.

    "A max-min or min-max fold (one `apply_part`, or one row of a
    composition) is defined only when every two of its values, from the
    part and from the matrix, have an order."
    """
    check([*part, *(x for row in rows for x in row)], policy)
    inner, outer = ((low(policy), high(policy)) if op == "maxmin"
                    else (high(policy), low(policy)))
    return tuple(reduce(outer, map(inner, part, column))
                 for column in zip(*rows))


def compose(p_rows, q_rows, op, policy):
    """A max-min or min-max composition: each row of `p_rows` folded
    against `q_rows`, row after row, as one tuple."""
    return tuple(x for row in p_rows for x in fold(row, q_rows, op, policy))
