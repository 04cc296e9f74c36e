"""Scalar values: reals extended with the indeterminate I, plus the order,
threshold, and t-norm/t-conorm operations built on them.

A scalar is a + bI with I*I = I. Values are canonicalized on construction:
a coefficient of exactly 0 collapses to the plain real form, so
Scalar(3, 0) == Scalar(3) and hashes identically.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from itertools import repeat
from operator import attrgetter

from .errors import (
    DomainError,
    InvalidInput,
    ModeMismatch,
    OrderUndefined,
    ParseError,
    ShapeMismatch,
)


class Scalar:
    """Immutable a + bI value."""

    __slots__ = ("real_part", "indet_coeff")

    def __init__(self, real_part=0.0, indet_coeff=0.0):
        a = float(real_part)
        b = float(indet_coeff)
        # normalize signed zeros so rendering and hashing are stable
        object.__setattr__(self, "real_part", a + 0.0 if a != 0 else 0.0)
        object.__setattr__(self, "indet_coeff", b + 0.0 if b != 0 else 0.0)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.real_part, self.indet_coeff)

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

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.real_part == other.real_part
                and self.indet_coeff == other.indet_coeff)

    def __hash__(self):
        # a real scalar equals its float, so it hashes like it
        if not self.indet_coeff:
            return hash(self.real_part)
        return hash((self.real_part, self.indet_coeff))

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r})"

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


class ValueDomain(Enum):
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

    @classmethod
    def parse(cls, value) -> "ValueDomain":
        """The domain `value` is or spells (`tri`, `unit`, ...)."""
        return parse_name(value, cls, "value domain")

    @classmethod
    def _missing_(cls, value):
        """A value lookup that finds no member raises ParseError, as
        parse_name does, not ValueError; it accepts no more values."""
        return parse_name(value, cls, "value domain")


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


class OrderPolicy(Enum):
    """How a real is ordered against a pure multiple of I."""

    BOOK_DEFAULT = "book"
    INDETERMINACY_DOMINANT = "indeterminacy"

    @classmethod
    def parse(cls, value) -> "OrderPolicy":
        """The policy `value` is or spells (`book`, `indeterminacy`)."""
        return parse_name(value, cls, "order policy")

    @classmethod
    def _missing_(cls, value):
        """A value lookup that finds no member raises ParseError, as
        parse_name does, not ValueError; it accepts no more values."""
        return parse_name(value, cls, "order policy")


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


def _order_pair(a: Scalar, b: Scalar, policy: OrderPolicy):
    """Return (min, max) under the policy, as the operands themselves
    (equal operands give (a, a)). Raises on mixed operands, naming `a`
    when both are mixed.

    Each coefficient is read once: the order only selects operands, and
    it is the innermost call of every max-min and min-max step."""
    ar, ai = a.real_part, a.indet_coeff
    br, bi = b.real_part, b.indet_coeff
    if not ai and not bi:  # two reals
        if ar < br:
            return a, b
        return (a, a) if ar == br else (b, a)
    if ar and ai:
        raise OrderUndefined(f"{render_scalar(a)} has no defined order")
    if br and bi:
        raise OrderUndefined(f"{render_scalar(b)} has no defined order")
    if ai and bi:
        # both pure multiples of I: compare coefficients under either policy
        if ai < bi:
            return a, b
        return (a, a) if ai == bi else (b, a)
    # one real, one pure multiple of I
    if ai:
        real, indet, mr, mi = b, a, abs(br), abs(ai)
    else:
        real, indet, mr, mi = a, b, abs(ar), abs(bi)
    if policy is OrderPolicy.INDETERMINACY_DOMINANT:
        return indet, indet
    # BookDefault: compare magnitudes; an exact tie collapses to the
    # indeterminate value on both ends (min(n, nI) = max(n, nI) = nI).
    if mr == mi:
        return indet, indet
    return (real, indet) if mr < mi else (indet, real)


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
                f"fuzzy thresholding cannot accept {render_scalar(x)}")
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
            f"{render_scalar(x)} has no defined order for {what}")
    if not ValueDomain.NEUTRO_UNIT.contains(x):
        raise DomainError(f"{render_scalar(x)} is outside the {what} domain")
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
    overflows a float raises ParseError. Equal tokens share one Scalar
    object while the memo (_LITERALS) has room."""
    value = _LITERALS.get(text)
    if value is None:
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


# render_scalar's memo: the (real_part, indet_coeff) float pair -> its
# text. A run's values come from a few literals, so a trace renders the
# same few pairs again and again. Keyed by the float pair (a C-level tuple
# hash, not Scalar.__hash__); equal floats render alike, and signed zeros
# never reach it. Bounded like _LITERALS: once full it only reads.
_TEXT_LIMIT = 4096
_TEXTS = {}


def render_scalar(x) -> str:
    """Canonical text form: integral values without a decimal point, pure
    multiples of I as `nI` (coefficient 1 rendered bare), mixed values as
    `a+bI` / `a-bI`. An infinite or NaN coefficient raises DomainError.
    Each coefficient pair is rendered once while the memo (_TEXTS) has
    room."""
    x = coerce(x)
    key = (x.real_part, x.indet_coeff)
    text = _TEXTS.get(key)
    if text is None:
        text = _render_pair(*key)  # a DomainError is never memoized
        if len(_TEXTS) < _TEXT_LIMIT:
            _TEXTS[key] = text
    return text


def _render_pair(a, b):
    if b == 0.0:
        return _render_real(a)
    mag = abs(b)
    ipart = "I" if mag == 1.0 else _render_real(mag) + "I"
    if a == 0.0:
        return ipart if b > 0 else "-" + ipart
    return _render_real(a) + ("+" if b > 0 else "-") + ipart
