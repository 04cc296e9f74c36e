"""Scalar values: reals extended with the indeterminate I, plus the order,
threshold, and t-norm/t-conorm operations built on them.

A scalar is a + bI with I*I = I, stored as the complex a + bj: a signed
zero is stored as 0.0, and Scalar(3, -0.0) == Scalar(3) == 3.0 hash alike.
"""

from __future__ import annotations

import math
import re
import struct
from enum import Enum
from itertools import islice, repeat
from operator import add, attrgetter

from .errors import (
    DomainError,
    InvalidInput,
    ModeMismatch,
    OrderUndefined,
    ParseError,
    ShapeMismatch,
)


class Scalar(complex):
    """Immutable a + bI value, stored as the complex a + bj, whose hash
    and equality it keeps (in C). Division, power, abs, unary plus,
    conjugate and a format spec raise TypeError: I has no inverse."""

    __slots__ = ()

    def __new__(cls, real_part=0.0, indet_coeff=0.0):
        # normalize signed zeros (-0.0 + 0.0 is 0.0), so rendering is stable
        return complex.__new__(cls, float(real_part) + 0.0,
                               float(indet_coeff) + 0.0)

    real_part = complex.real
    indet_coeff = complex.imag

    def __reduce__(self):
        return Scalar, (self.real_part, self.indet_coeff)

    def __bool__(self):
        return True  # a value, not a number: ZERO is true too

    def _undefined(self, *operands):
        raise TypeError("Scalar has no /, **, abs, unary + or conjugate")

    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = _undefined
    __abs__ = __pos__ = conjugate = _undefined
    __format__ = object.__format__

    # -- variant predicates -------------------------------------------------
    @property
    def is_real(self):
        return self.indet_coeff == 0.0

    @property
    def is_pure_indet(self):
        """Nonzero multiple of I with no real part."""
        return self.real_part == 0.0 and self.indet_coeff != 0.0

    @property
    def is_mixed(self):
        return self.real_part != 0.0 and self.indet_coeff != 0.0

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        other = coerce(other)
        return Scalar(self.real_part + other.real_part,
                      self.indet_coeff + other.indet_coeff)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.real_part, -self.indet_coeff)

    def __sub__(self, other):
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        other = coerce(other)
        a, b = self.real_part, self.indet_coeff
        c, d = other.real_part, other.indet_coeff
        # (a+bI)(c+dI) = ac + (ad+bc+bd)I since I*I = I
        return Scalar(a * c, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Scalar({_named(self)!r})"  # 'inf' where str raises

    def __str__(self):
        return render_scalar(self)


def coerce(value) -> Scalar:
    """Accept Scalar, int, or float wherever a Scalar is expected."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar value")
    if isinstance(value, (int, float)):
        return Scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def _coerce_each(values, what, name) -> tuple:
    """`values` as a tuple of Scalars, each as coerce gives it. `values`
    that are not iterable raise ShapeMismatch naming them as `what`; a
    value that is not a Scalar, an int or a float, or is an int too large
    for a float, raises DomainError, and `name(i)` names the i-th value
    (0-based)."""
    try:
        values = tuple(values)
    except TypeError:
        _require_iterable(values, what)
        raise
    if all(map(isinstance, values, repeat(Scalar))):
        return values
    out = []
    for idx, value in enumerate(values):
        try:
            out.append(coerce(value))
        except TypeError:
            raise DomainError(
                f"{name(idx)} = {value!r} is not a scalar") from None
        except OverflowError:
            raise DomainError(
                f"{name(idx)} is an int too large for a float") from None
    return tuple(out)


def _require_iterable(values, what):
    """Raise ShapeMismatch naming `values` as `what` unless they are
    iterable: a bare number where a sequence belongs is a shape error, not
    a leaked TypeError."""
    try:
        iter(values)
    except TypeError:
        raise ShapeMismatch(
            f"{what} must be a sequence, got {values!r}") from None


class _FrozenRecord:
    """A frozen value record. A subclass lists the fields it adds as
    `__slots__` and sets each in its own `__init__` through
    object.__setattr__; its fields, its bases' first, are its
    `__match_args__`. A record compares, hashes, prints, copies and
    pickles by its fields in that order, and raises AttributeError on
    assignment or deletion. Equal fields make no two records of different
    classes equal."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ += cls.__slots__
        # `_values`, the fields as a tuple, read in C as a dataclass's
        # generated methods read them inline; attrgetter of one name gives
        # the bare value
        get = attrgetter(*cls.__match_args__)
        cls._values = property(get if len(cls.__match_args__) > 1
                               else lambda record: (get(record),))

    def __repr__(self):
        body = ", ".join([f"{name}={value!r}" for name, value
                          in zip(self.__match_args__, self._values)])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled record is checked too
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _require_type(value, cls, name):
    """Raise TypeError naming the argument `name` unless `value` is a
    `cls`: a wrongly typed argument fails before any check of its value."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got "
                        f"{type(value).__name__}")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)

ALGEBRAS = ("fuzzy", "neutrosophic")


# Enum -> {text value: member}, built on the first parse_name of the Enum
_MEMBERS = {}


def parse_name(value, names, what):
    """The name in the closed vocabulary `names` that `value` is or
    spells: a member of an Enum `names`, given as itself or by its text
    value, or one of a tuple of names. Anything else raises
    ParseError("unknown <what> ...")."""
    if isinstance(names, type):
        if isinstance(value, names):
            return value
        members = _MEMBERS.get(names)
        if members is None:
            members = _MEMBERS[names] = {m.value: m for m in names}
        try:
            return members[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            pass
    elif value in names:
        return value
    raise ParseError(f"unknown {what} {value!r}")


class _Vocabulary(Enum):
    """A closed vocabulary: a member-less Enum base. A subclass names
    itself in its class statement, as `class OrderPolicy(_Vocabulary,
    what="order policy")`, and parse_name's ParseError names it so."""

    def __init_subclass__(cls, what, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._what = what

    @classmethod
    def parse(cls, value):
        """The member `value` is or spells by its text value."""
        if isinstance(value, cls):  # a member passes with no more work
            return value
        return parse_name(value, cls, cls._what)

    @classmethod
    def _missing_(cls, value):
        """A value lookup that finds no member raises ParseError, as
        parse_name does, not ValueError; it accepts no more values."""
        return parse_name(value, cls, cls._what)


# The membership predicate of each value domain, by its text value, on a
# Scalar a + bI. A NEUTRO_UNIT value is never mixed: a mixed a + bI has no
# order for max and min.
_MEMBERSHIP = {
    "tri": lambda v: (v.indet_coeff == 0
                      and v.real_part in (-1.0, 0.0, 1.0)),
    "unit": lambda v: v.indet_coeff == 0 and 0.0 <= v.real_part <= 1.0,
    "bipolar": lambda v: v.indet_coeff == 0 and -1.0 <= v.real_part <= 1.0,
    "neutro-tri": lambda v: (
        (v.indet_coeff == 0 and v.real_part in (-1.0, 0.0, 1.0))
        or (v.real_part == 0 and v.indet_coeff == 1.0)),
    "neutro-unit": lambda v: (
        (v.indet_coeff == 0 and 0.0 <= v.real_part <= 1.0)
        or (v.real_part == 0 and 0.0 <= v.indet_coeff <= 1.0)),
    "state-tri": lambda v: (
        (v.indet_coeff == 0 and v.real_part in (0.0, 1.0))
        or (v.real_part == 0 and v.indet_coeff == 1.0)),
    "any": lambda v: True,
}


class ValueDomain(_Vocabulary, what="value domain"):
    """Entry domains a matrix can be declared over. `domain.contains(v)`
    tells whether the Scalar `v` lies in the domain."""

    TRI = "tri"                  # {-1, 0, 1}
    UNIT = "unit"                # [0, 1]
    BIPOLAR = "bipolar"          # [-1, 1]
    NEUTRO_TRI = "neutro-tri"    # {-1, 0, 1, I}
    NEUTRO_UNIT = "neutro-unit"  # a in [0, 1] or bI with b in [0, 1]
    STATE_TRI = "state-tri"      # {0, 1, I}
    ANY = "any"                  # unconstrained (products, sums)

    def __init__(self, text):
        # each member binds its own predicate once, so a call to
        # `contains` reads no Enum attribute and takes no branch
        self.contains = _MEMBERSHIP[text]

    @property
    def neutrosophic(self) -> bool:
        return self in (ValueDomain.NEUTRO_TRI, ValueDomain.NEUTRO_UNIT,
                        ValueDomain.STATE_TRI)


# Containment lattice used to type operation results. ANY is the top.
_DOMAIN_PARENTS = {
    ValueDomain.TRI: (ValueDomain.BIPOLAR, ValueDomain.NEUTRO_TRI),
    ValueDomain.UNIT: (ValueDomain.BIPOLAR, ValueDomain.NEUTRO_UNIT),
    ValueDomain.STATE_TRI: (ValueDomain.NEUTRO_TRI, ValueDomain.NEUTRO_UNIT),
    ValueDomain.BIPOLAR: (ValueDomain.ANY,),
    ValueDomain.NEUTRO_TRI: (ValueDomain.ANY,),
    ValueDomain.NEUTRO_UNIT: (ValueDomain.ANY,),
    ValueDomain.ANY: (),
}


def _ancestors(domain):
    seen = {domain}
    frontier = [domain]
    while frontier:
        for parent in _DOMAIN_PARENTS[frontier.pop()]:
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


def domain_join(a: ValueDomain, b: ValueDomain) -> ValueDomain:
    """Least domain containing both operand domains (ANY if incomparable)."""
    if a is b:
        return a
    common = _ancestors(a) & _ancestors(b)
    # the common-ancestor sets of this lattice are chains, so the least
    # element is the one every other common ancestor contains
    for candidate in common:
        if all(other in _ancestors(candidate) for other in common):
            return candidate
    return ValueDomain.ANY


class OrderPolicy(_Vocabulary, what="order policy"):
    """How a real is ordered against a pure multiple of I."""

    __hash__ = object.__hash__  # in C, by identity, as members compare

    BOOK_DEFAULT = "book"
    INDETERMINACY_DOMINANT = "indeterminacy"


def _check_threshold_k(k):
    """Raise InvalidInput unless the cut constant `k` is a finite real
    number that a float holds: an int or a float, but not a bool. A trace
    renders k as a Scalar, whose coefficients are floats, so an int too
    large for a float is rejected too."""
    if not isinstance(k, bool) and isinstance(k, (int, float)):
        try:
            if math.isfinite(k):
                return
        except OverflowError:  # an int beyond the float range
            pass
    raise InvalidInput(f"threshold k must be finite and real, got {k!r}")


class ThresholdMode(_FrozenRecord):
    """Cut rule for raw activation values. kind is 'fuzzy' or 'neutrosophic';
    k is the cut constant (strict inequality, default 0), a finite real."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: float = 0.0):
        parse_name(kind, ALGEBRAS, "threshold kind")
        _check_threshold_k(k)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)


def _named(x) -> str:
    """`x` as repr and an order message name it: render_scalar's text, or
    for a coefficient that is not finite, which it rejects, the float's."""
    try:
        return render_scalar(x)
    except DomainError:
        a, b = x.real_part, x.indet_coeff
        return " + ".join([repr(a)] * (a != 0) + [f"{b!r}I"] * (b != 0))


def _check_order(values, policy: OrderPolicy) -> None:
    """Raise OrderUndefined unless every two of the Scalars `values` have
    an order under `policy`, naming (PAPER.md, Ordering) the first mixed or
    NaN value, or the first negative value and the first of its other kind."""
    for x in values:
        a, b = x.real_part, x.indet_coeff
        if a and b or a != a or b != b:
            raise OrderUndefined(f"{_named(x)} has no defined order")
    if policy is OrderPolicy.BOOK_DEFAULT:
        low = [x for x in values if x.real_part < 0 or x.indet_coeff < 0]
        kind = low and not low[0].indet_coeff  # True: the other is I
        other = [x for x in values if low and bool(x.indet_coeff) is kind]
        if other:
            raise OrderUndefined(f"{_named(low[0])} and {_named(other[0])} "
                                 f"have no defined order")


def _order_pair(a: Scalar, b: Scalar, policy: OrderPolicy):
    """Return (min, max) under the policy, as the operands themselves
    (equal operands give (a, a)), by their order codes (_order_code); a
    pair without an order raises as _check_order((a, b), policy) does.
    This is behind scalar_min, scalar_max and elementwise_*."""
    codes = _order_codes((a, b), policy)
    if codes is None or policy is OrderPolicy.BOOK_DEFAULT and min(codes) < 0:
        _check_order((a, b), policy)  # raises unless a and b are one kind
    x, y = codes
    flip = _ORDER_FLIP[policy]
    return a if x <= y else b, a if x ^ flip >= y ^ flip else b


# A negative double's bit pattern XOR this constant is its key
_NEGATIVE_KEY = 2**63 - 1
# The min order's code XOR this constant is the max order's code.
_ORDER_FLIP = {OrderPolicy.BOOK_DEFAULT: 1,
               OrderPolicy.INDETERMINACY_DOMINANT: 1 << 64}


def _order_code(reals: list, indets: list, policy: OrderPolicy):
    """The layout of the order codes, written once: the code of each value
    reals[i] + indets[i]*I under `policy`, as a list, or None when one has
    no order at all (a mixed value, or a NaN coefficient).

    A value's key is the bit pattern s of its coefficient (the nonzero
    one, or 0) as a double, read as a signed int, or s ^ (2**63 - 1) for
    s < 0: it orders every double but NaN. Under BOOK_DEFAULT the code is
    key << 1 | is_real, so nI sits just below n; under
    INDETERMINACY_DOMINANT it is is_real << 64 | key + 2**63, so every
    multiple of I sits below every real. That is the order of min; the
    code XOR `_ORDER_FLIP[policy]` is the order of max (`_book_pick` takes
    nI at a tie of n and nI). Equal codes are equal values. Under
    BOOK_DEFAULT a negative value codes below 0 and orders only against
    values of its own kind (_check_order)."""
    if any(indets):
        sums = list(map(add, reals, indets))
        # a value that is not mixed counts once: its zero coefficients,
        # less one when its sum is 0; a mixed value counts 0 or -1
        if reals.count(0.0) + indets.count(0.0) - sums.count(0.0) \
                != len(sums):
            return None
        reals = sums
    n = len(reals)
    keys = list(struct.unpack(f"{n}q", struct.pack(f"{n}d", *reals)))
    total = sum(reals)  # NaN when one is, or when inf meets -inf
    if total != total and any(map(math.isnan, reals)):
        return None
    if min(keys) < 0:
        keys = [k if k >= 0 else k ^ _NEGATIVE_KEY for k in keys]
    if policy is OrderPolicy.INDETERMINACY_DOMINANT:
        return [(not b) << 64 | k + 2**63 for k, b in zip(keys, indets)]
    return [k << 1 | (not b) for k, b in zip(keys, indets)]


def _book_pick(outer, codes) -> int:
    """`outer(codes)`, for `outer` max or min of BOOK_DEFAULT codes of one
    order, but nI where it picks n and `codes` hold nI: the two codes
    differ in bit 0 alone."""
    best = outer(codes)
    return best ^ 1 if best ^ 1 in codes else best


# _order_codes' memo, one per policy: Scalar -> its code, for values that
# have one. Bounded like _TEXTS: once full it only reads.
_CODE_LIMIT = 4096
_CODES = {policy: {} for policy in OrderPolicy}
_REAL = attrgetter("real_part")
_INDET = attrgetter("indet_coeff")


def _order_codes(values, policy: OrderPolicy):
    """The `_order_code` of each Scalar of the sequence `values` under
    `policy`, as a list, or None when one has none: one C-level pass of
    memo lookups, or one bulk pass for a list the memo lacks."""
    table = _CODES[policy]
    try:
        return list(map(table.__getitem__, values))
    except KeyError:
        pass
    codes = _order_code(list(map(_REAL, values)), list(map(_INDET, values)),
                        policy)
    room = _CODE_LIMIT - len(table)
    if codes is not None and room > 0:
        table.update(islice(zip(values, codes), room))
    return codes


def scalar_min(a, b, policy=OrderPolicy.BOOK_DEFAULT) -> Scalar:
    return _order_pair(coerce(a), coerce(b), OrderPolicy.parse(policy))[0]


def scalar_max(a, b, policy=OrderPolicy.BOOK_DEFAULT) -> Scalar:
    return _order_pair(coerce(a), coerce(b), OrderPolicy.parse(policy))[1]


def threshold_scalar(x, mode: ThresholdMode) -> Scalar:
    """Map a raw activation value onto {0, 1, I} via the cut rules.

    Fuzzy(k) accepts reals only: 1 if x > k else 0. Neutrosophic(k) adds:
    a pure mI goes to I when m > k, else 0; a mixed t + sI is cut on its
    coefficient of larger magnitude as if real (t if |t| > |s|, s if
    |s| > |t|), and only an exact tie |t| = |s| gives I. A `mode` that is
    not a ThresholdMode raises TypeError.
    """
    if not isinstance(mode, ThresholdMode):
        raise TypeError(f"threshold mode must be a ThresholdMode, got "
                        f"{mode!r}")
    x = coerce(x)
    k = mode.k
    if mode.kind == "fuzzy":
        if not x.is_real:
            raise ModeMismatch(
                f"fuzzy thresholding cannot accept {_named(x)}")
        return ONE if x.real_part > k else ZERO
    if x.is_real:
        return ONE if x.real_part > k else ZERO
    if x.real_part == 0.0:
        return I if x.indet_coeff > k else ZERO
    t, s = x.real_part, x.indet_coeff
    if abs(t) == abs(s):
        return I
    dominant = t if abs(t) > abs(s) else s
    return ONE if dominant > k else ZERO


TNORM_KINDS = ("standard", "algebraic_product", "bounded_difference",
               "drastic")
TCONORM_KINDS = ("standard", "algebraic_sum", "bounded_sum", "drastic")


def _norm_operand(x, what):
    """Validate a t-norm/t-conorm operand: a real in [0,1] or a pure
    multiple of I (treated as the indeterminate). Returns the float value,
    or None for an indeterminate operand."""
    x = coerce(x)
    if x.is_mixed:
        raise OrderUndefined(
            f"{_named(x)} has no defined order for {what}")
    if not ValueDomain.NEUTRO_UNIT.contains(x):
        raise DomainError(f"{_named(x)} is outside the {what} domain")
    return x.real_part if x.is_real else None


def tnorm(kind, a, b) -> Scalar:
    """Intersection operators on [0,1] extended with I. Every kind absorbs
    indeterminacy: the result is I whenever either operand is."""
    parse_name(kind, TNORM_KINDS, "t-norm kind")
    va = _norm_operand(a, "t-norm")
    vb = _norm_operand(b, "t-norm")
    if va is None or vb is None:
        return I
    if kind == "standard":
        return Scalar(min(va, vb))
    if kind == "algebraic_product":
        return Scalar(va * vb)
    if kind == "bounded_difference":
        return Scalar(max(0.0, va + vb - 1.0))
    # drastic: a when b = 1, b when a = 1, 0 otherwise
    if vb == 1.0:
        return Scalar(va)
    if va == 1.0:
        return Scalar(vb)
    return ZERO


def tconorm(kind, a, b) -> Scalar:
    """Union operators dual to tnorm; I absorbs here as well."""
    parse_name(kind, TCONORM_KINDS, "t-conorm kind")
    va = _norm_operand(a, "t-conorm")
    vb = _norm_operand(b, "t-conorm")
    if va is None or vb is None:
        return I
    if kind == "standard":
        return Scalar(max(va, vb))
    if kind == "algebraic_sum":
        return Scalar(va + vb - va * vb)
    if kind == "bounded_sum":
        return Scalar(min(1.0, va + vb))
    # drastic: a when b = 0, b when a = 0, 1 otherwise
    if vb == 0.0:
        return Scalar(va)
    if va == 0.0:
        return Scalar(vb)
    return ONE


# ASCII digits only: `\d` and float() also take other scripts' digits
_NUMBER_RE = re.compile(
    r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


def _check_one_line(what: str, *names) -> None:
    """Raise InvalidInput, naming `what`, for a name that holds a line
    break (any character str.splitlines breaks on): a file writes each
    name into one line, which its reader would read as several."""
    for name in map(str, names):
        if "".join(name.splitlines()) != name:
            raise InvalidInput(f"{what} {name!r} holds a line break")


def _ascii_int(text: str) -> int:
    """The natural number `text` spells in ASCII decimal digits. Raises
    ValueError, as int() does, on anything else: a sign, an underscore,
    surrounding whitespace or another script's digits, all of which int()
    takes."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number in ASCII digits: {text!r}")
    return int(text)


def _parse_number(text, original):
    if not _NUMBER_RE.match(text):
        raise ParseError(f"bad scalar {original!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"scalar {original!r} is out of range")
    return value


def _parse_coeff(coeff_txt, original):
    if coeff_txt in ("", "+"):
        return 1.0
    if coeff_txt == "-":
        return -1.0
    return _parse_number(coeff_txt, original)


# parse_scalar's memo: token text -> the one shared Scalar it parses to.
# Scalar is immutable, so equal tokens can share an object (tuple
# comparisons then succeed on identity). Bounded: once full it only reads.
_LITERAL_LIMIT = 4096
_LITERALS = {}


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar text syntax: `0.3`, `-1`, `I`, `2I`, `0.3+0.5I`,
    `7-I`, and the I-term-first form `7I-1`. Whitespace inside the token
    is ignored. Numerals are ASCII digits only. A coefficient that
    overflows a float raises ParseError, and a `text` that is not a str
    raises TypeError naming it. Equal tokens share one Scalar object while
    the memo (_LITERALS) has room."""
    try:
        value = _LITERALS.get(text)
    except TypeError:  # an unhashable text, so not a str
        value = None
    if value is None:
        _require_type(text, str, "text")
        value = _parse_scalar(text)  # a ParseError is never memoized
        if len(_LITERALS) < _LITERAL_LIMIT:
            _LITERALS[text] = value
    return value


def parse_scalars(tokens) -> tuple:
    """The scalars a sequence of tokens spells, in order: the objects
    `[parse_scalar(t) for t in tokens]` gives, and on a bad token the
    same ParseError. A line of tokens the memo holds, the common case, is
    one C-level pass of lookups; only a line with a token the memo lacks
    goes through parse_scalar token by token."""
    try:
        return tuple(map(_LITERALS.__getitem__, tokens))
    except KeyError:  # a token not memoized (yet): parse each in turn
        return tuple(map(parse_scalar, tokens))


def _parse_scalar(text):
    token = "".join(text.split())
    if not token:
        raise ParseError("empty scalar token")
    if token.count("I") > 1:
        raise ParseError(f"bad scalar {text!r}")
    if token.endswith("I"):
        body = token[:-1]
        real_txt, coeff_txt = "", body
        for pos in range(len(body) - 1, 0, -1):
            # a sign right after e/E belongs to an exponent, not a term split
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                real_txt, coeff_txt = body[:pos], body[pos:]
                break
        coeff = _parse_coeff(coeff_txt, text)
        real_val = _parse_number(real_txt, text) if real_txt else 0.0
        return Scalar(real_val, coeff)
    ipos = token.find("I")
    if ipos >= 0:
        coeff = _parse_coeff(token[:ipos], text)
        rest = token[ipos + 1:]
        if not rest or rest[0] not in "+-":
            raise ParseError(f"bad scalar {text!r}")
        return Scalar(_parse_number(rest, text), coeff)
    return Scalar(_parse_number(token, text))


def _render_real(x: float) -> str:
    try:
        integral = x == int(x)
    except (OverflowError, ValueError):  # int() of inf or nan
        raise DomainError(f"{x} is not a finite scalar") from None
    if integral and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# render_scalar's memo: Scalar -> its text, read by render_row too. A
# run's values come from a few literals, so a trace renders the same few
# again and again. Equal Scalars render alike, as no signed zero
# is stored. Bounded like _LITERALS: once full it only reads.
_TEXT_LIMIT = 4096
_TEXTS = {}


def render_scalar(x) -> str:
    """Canonical text form: integral values without a decimal point, pure
    multiples of I as `nI` (coefficient 1 rendered bare), mixed values as
    `a+bI` / `a-bI`. An infinite or NaN coefficient raises DomainError.
    Each value is rendered once while the memo (_TEXTS) has room."""
    x = coerce(x)
    text = _TEXTS.get(x)
    if text is None:  # a DomainError is never memoized
        text = _render_pair(x.real_part, x.indet_coeff)
        if len(_TEXTS) < _TEXT_LIMIT:
            _TEXTS[x] = text
    return text


def render_row(values) -> str:
    """The values as render_scalar renders them, one space apart: for
    Scalars the memo holds, the common case, in one C-level pass."""
    values = tuple(values)
    if all(map(isinstance, values, repeat(Scalar))):
        try:
            return " ".join(map(_TEXTS.__getitem__, values))
        except KeyError:  # a value not memoized (yet)
            pass
    return " ".join(map(render_scalar, values))


def _render_pair(a, b):
    if b == 0.0:
        return _render_real(a)
    mag = abs(b)
    ipart = "I" if mag == 1.0 else _render_real(mag) + "I"
    if a == 0.0:
        return ipart if b > 0 else "-" + ipart
    return _render_real(a) + ("+" if b > 0 else "-") + ipart
