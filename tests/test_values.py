"""Scalar arithmetic, ordering, thresholds, norms, and text forms."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import values
from fuzzymaps import (
    I,
    ONE,
    ZERO,
    ComponentTag,
    DomainError,
    FixedPoint,
    Matrix,
    ModeMismatch,
    OrderPolicy,
    OrderUndefined,
    ParseError,
    Scalar,
    SpecialMatrix,
    SpecialStateVector,
    ThresholdMode,
    ValueDomain,
    parse_scalar,
    render_scalar,
    run_cm,
    scalar_max,
    scalar_min,
    tconorm,
    threshold_scalar,
    tnorm,
)
from fuzzymaps.special import render_part
from fuzzymaps.values import coerce

TOL = 1e-12


# ---------------------------------------------------------------- arithmetic

def test_scalar_coerces_numbers():
    assert coerce(3) == Scalar(3.0, 0.0)
    assert coerce(0.5).real_part == 0.5
    assert coerce(I) is I


def test_scalar_rejects_bool():
    with pytest.raises(TypeError):
        coerce(True)


def test_addition_groups_indeterminate_part():
    a = Scalar(2, 3)
    b = Scalar(5, -1)
    assert a + b == Scalar(7, 2)


def test_multiplication_absorbs_indeterminate_square():
    # (a+bI)(c+dI) = ac + (ad+bc+bd)I since the indeterminate square
    # collapses onto itself
    a = Scalar(2, 3)
    b = Scalar(4, 5)
    got = a * b
    assert got == Scalar(8, 2 * 5 + 3 * 4 + 3 * 5)


def test_pure_indeterminate_is_idempotent_under_product():
    assert I * I == I
    assert I * Scalar(0, -1) == Scalar(0, -1)


def test_dunder_arithmetic_matches_functions():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert -a == Scalar(-1, -2)
    assert a - b == Scalar(-2, 3)


def test_real_scalar_equals_plain_value():
    assert Scalar(0.5, 0) == coerce(0.5)
    assert Scalar(1, 0) == ONE
    assert Scalar(0, 0) == ZERO


def test_real_scalar_hashes_like_its_number():
    # equal values hash alike, so a Scalar and its number are one set key
    assert hash(Scalar(1)) == hash(1)
    assert hash(Scalar(0.5)) == hash(0.5)
    assert hash(Scalar(-0.0)) == hash(0)
    assert 1 in {Scalar(1)}
    assert Scalar(0.5) in {0.5}
    assert {Scalar(2): "a"}[2.0] == "a"
    # indeterminate values keep their pair hash and stay apart from reals
    assert hash(Scalar(1, 1)) == hash(Scalar(1.0, 1.0))
    assert Scalar(0, 1) not in {0, 1}
    assert len({I, ZERO, ONE, Scalar(1, 1)}) == 4


def test_is_mixed():
    assert Scalar(2, 3).is_mixed
    assert not Scalar(2, 0).is_mixed
    assert not Scalar(0, 3).is_mixed
    assert not ZERO.is_mixed


# ------------------------------------------------------------------ ordering

def test_ordering_compares_coefficient_magnitudes():
    five_i = Scalar(0, 5)
    assert scalar_min(five_i, coerce(8)) == five_i
    assert scalar_max(five_i, coerce(8)) == coerce(8)
    assert scalar_min(coerce(2), Scalar(0, 7)) == coerce(2)
    assert scalar_max(coerce(2), Scalar(0, 7)) == Scalar(0, 7)


def test_equal_magnitude_tie_resolves_indeterminate():
    # n against nI: both extremes collapse onto nI
    three = coerce(3)
    three_i = Scalar(0, 3)
    assert scalar_min(three, three_i) == three_i
    assert scalar_max(three, three_i) == three_i
    assert scalar_min(three_i, three) == three_i


def test_real_vs_real_is_plain_order():
    assert scalar_min(coerce(0.2), coerce(0.7)) == coerce(0.2)
    assert scalar_max(coerce(0.2), coerce(0.7)) == coerce(0.7)


def test_pure_indeterminate_vs_pure_indeterminate():
    assert scalar_min(Scalar(0, 2), Scalar(0, 5)) == Scalar(0, 2)
    assert scalar_max(Scalar(0, 2), Scalar(0, 5)) == Scalar(0, 5)


def test_indeterminacy_dominant_policy():
    pol = OrderPolicy.INDETERMINACY_DOMINANT
    assert scalar_min(Scalar(0, 5), coerce(8), policy=pol) == Scalar(0, 5)
    assert scalar_max(Scalar(0, 5), coerce(8), policy=pol) == Scalar(0, 5)
    # real pairs unaffected
    assert scalar_max(coerce(2), coerce(8), policy=pol) == coerce(8)


def test_mixed_operand_has_no_order():
    with pytest.raises(OrderUndefined):
        scalar_min(Scalar(2, 3), coerce(1))
    with pytest.raises(OrderUndefined):
        scalar_max(coerce(1), Scalar(1, 1))


def test_order_policy_parse():
    assert OrderPolicy.parse("book") is OrderPolicy.BOOK_DEFAULT
    assert OrderPolicy.parse("indeterminacy") is OrderPolicy.INDETERMINACY_DOMINANT
    with pytest.raises(ParseError):
        OrderPolicy.parse("alphabetical")


# ---------------------------------------------------------------- thresholds

def test_fuzzy_threshold_is_strict():
    mode = ThresholdMode("fuzzy", 0.0)
    assert threshold_scalar(coerce(0.5), mode) == ONE
    assert threshold_scalar(ZERO, mode) == ZERO
    assert threshold_scalar(coerce(-1), mode) == ZERO


def test_fuzzy_threshold_rejects_indeterminate_input():
    mode = ThresholdMode("fuzzy", 0.0)
    with pytest.raises(ModeMismatch):
        threshold_scalar(I, mode)


def test_fuzzy_threshold_names_an_infinite_multiple_of_i():
    # the message names the value rather than failing to render it
    with pytest.raises(ModeMismatch,
                       match="^fuzzy thresholding cannot accept infI$"):
        threshold_scalar(Scalar(0, math.inf), ThresholdMode("fuzzy"))


def test_neutrosophic_threshold_pure_parts():
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(coerce(2), mode) == ONE
    assert threshold_scalar(coerce(-2), mode) == ZERO
    assert threshold_scalar(Scalar(0, 3), mode) == I
    assert threshold_scalar(Scalar(0, -3), mode) == ZERO


def test_neutrosophic_threshold_mixed_dominant_part_wins():
    # the coefficient of larger magnitude is cut like a real; only an
    # exact tie of magnitudes keeps the indeterminacy
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(Scalar(2, 1), mode) == ONE
    assert threshold_scalar(Scalar(-2, 1), mode) == ZERO
    assert threshold_scalar(Scalar(1, 3), mode) == ONE
    assert threshold_scalar(Scalar(-1, -3), mode) == ZERO
    assert threshold_scalar(Scalar(-3, -1), mode) == ZERO
    assert threshold_scalar(Scalar(1, -3), mode) == ZERO
    assert threshold_scalar(Scalar(-3, 1), mode) == ZERO


def test_neutrosophic_threshold_tied_parts_give_indeterminate():
    # the tie is exact and on magnitudes: 2 - 2I ties, a near-tie does not
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(Scalar(1, 1), mode) == I
    assert threshold_scalar(Scalar(2, -2), mode) == I
    assert threshold_scalar(Scalar(2, 2 + 1e-12), mode) == ONE


def test_threshold_level_shifts_cut():
    assert threshold_scalar(coerce(0.5), ThresholdMode("fuzzy", 0.5)) == ZERO
    assert threshold_scalar(coerce(0.6), ThresholdMode("fuzzy", 0.5)) == ONE
    assert threshold_scalar(Scalar(0, 0.4), ThresholdMode("neutrosophic", 0.5)) == ZERO
    assert threshold_scalar(Scalar(0, 0.6), ThresholdMode("neutrosophic", 0.5)) == I
    # the neutrosophic cut is strict too: at m = k a pure mI and a real
    # are both cut to 0
    mode = ThresholdMode("neutrosophic", 0.5)
    assert threshold_scalar(Scalar(0, 0.5), mode) == ZERO
    assert threshold_scalar(Scalar(0.5), mode) == ZERO


def test_a_trit_step_cuts_a_raw_multiple_of_i_at_the_constant_to_zero():
    # seeded at node 1, the step's raw part is [0 I]: at k = 1 its I is
    # exactly on the cut, so node 2 stays 0 and the seed is a fixed point
    matrix = Matrix.from_rows([[0, I], [0, 0]], ValueDomain.NEUTRO_TRI)
    union = SpecialMatrix([(matrix, ComponentTag(algebra="neutrosophic"))])
    pattern = run_cm(union, SpecialStateVector([(ONE, ZERO)]), threshold_k=1)
    assert pattern.trace[0].raw == ((ZERO, I),)
    assert pattern.trace[0].thresholded == ((ZERO, ZERO),)
    assert pattern.outcomes == (FixedPoint((ONE, ZERO)),)


@pytest.mark.parametrize("mode", [0, 0.5, "fuzzy", None])
def test_threshold_mode_of_another_type_is_a_type_error(mode):
    # a bare cut constant is not a mode: the error names what was given
    with pytest.raises(TypeError, match=f"got {mode!r}"):
        threshold_scalar(ONE, mode)


# ------------------------------------------------------------- domain lattice

def test_domain_membership():
    assert ValueDomain.TRI.contains(coerce(-1))
    assert not ValueDomain.TRI.contains(coerce(0.5))
    assert ValueDomain.UNIT.contains(coerce(0.5))
    assert not ValueDomain.UNIT.contains(coerce(-1))
    assert ValueDomain.NEUTRO_TRI.contains(I)
    assert not ValueDomain.TRI.contains(I)
    assert ValueDomain.NEUTRO_UNIT.contains(Scalar(0, 0.5))
    assert not ValueDomain.NEUTRO_UNIT.contains(coerce(-0.5))
    assert ValueDomain.ANY.contains(Scalar(3, -7))


# each domain against -1, 0, 0.5, 1, 1.5, I, 0.5I, 1.5I and 0.5+0.5I
DOMAIN_VALUES = ("-1", "0", "0.5", "1", "1.5", "I", "0.5I", "1.5I",
                 "0.5+0.5I")
DOMAIN_TABLE = {
    ValueDomain.TRI: (True, True, False, True, False, False, False, False,
                      False),
    ValueDomain.UNIT: (False, True, True, True, False, False, False, False,
                       False),
    ValueDomain.BIPOLAR: (True, True, True, True, False, False, False,
                          False, False),
    ValueDomain.NEUTRO_TRI: (True, True, False, True, False, True, False,
                             False, False),
    ValueDomain.NEUTRO_UNIT: (False, True, True, True, False, True, True,
                              False, False),
    ValueDomain.STATE_TRI: (False, True, False, True, False, True, False,
                            False, False),
    ValueDomain.ANY: (True, True, True, True, True, True, True, True,
                      True),
}


@pytest.mark.parametrize("domain", list(ValueDomain), ids=lambda d: d.value)
def test_domain_membership_table(domain):
    got = tuple(domain.contains(parse_scalar(v)) for v in DOMAIN_VALUES)
    assert got == DOMAIN_TABLE[domain]
    assert all(type(x) is bool for x in got)


def test_domain_parse_round_trip():
    for d in ValueDomain:
        assert ValueDomain.parse(d.value) is d
    with pytest.raises(ParseError):
        ValueDomain.parse("octonion")


def test_neutrosophic_flag():
    assert ValueDomain.NEUTRO_TRI.neutrosophic
    assert ValueDomain.NEUTRO_UNIT.neutrosophic
    assert not ValueDomain.TRI.neutrosophic
    assert not ValueDomain.UNIT.neutrosophic


# ------------------------------------------------------------ t-norm / conorm

NORM_KINDS = ("standard", "algebraic_product", "bounded_difference", "drastic")


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_tnorm_boundary_and_commutativity(kind):
    for a in (0.0, 0.3, 1.0):
        assert abs(tnorm(kind, a, 1.0).real_part - a) < TOL
        for b in (0.0, 0.7, 1.0):
            assert tnorm(kind, a, b) == tnorm(kind, b, a)


def test_tnorm_values():
    assert tnorm("standard", 0.4, 0.7) == Scalar(0.4)
    assert abs(tnorm("algebraic_product", 0.4, 0.7).real_part - 0.28) < TOL
    assert abs(tnorm("bounded_difference", 0.4, 0.7).real_part - 0.1) < TOL
    assert tnorm("drastic", 0.4, 0.7) == ZERO
    assert tnorm("drastic", 0.4, 1.0) == Scalar(0.4)


def test_tconorm_values():
    assert tconorm("standard", 0.4, 0.7) == Scalar(0.7)
    assert abs(tconorm("algebraic_sum", 0.4, 0.7).real_part - 0.82) < TOL
    assert tconorm("bounded_sum", 0.4, 0.7) == ONE
    assert abs(tconorm("bounded_sum", 0.4, 0.3).real_part - 0.7) < TOL
    assert tconorm("drastic", 0.4, 0.7) == ONE
    assert tconorm("drastic", 0.4, 0.0) == Scalar(0.4)


def test_norms_absorb_indeterminacy_first():
    for kind in NORM_KINDS:
        assert tnorm(kind, 0.3, I) == I
        assert tnorm(kind, I, 1.0) == I
    for kind in ("standard", "algebraic_sum", "bounded_sum", "drastic"):
        assert tconorm(kind, 0.3, I) == I
        assert tconorm(kind, I, 0.0) == I


def test_norms_reject_out_of_range_reals():
    with pytest.raises(DomainError):
        tnorm("standard", 1.2, 0.3)
    with pytest.raises(DomainError):
        tconorm("standard", -0.1, 0.3)


def test_norms_reject_mixed_values():
    with pytest.raises(OrderUndefined):
        tnorm("standard", Scalar(0.5, 0.5), 0.3)


def test_norms_name_a_mixed_value_with_a_nan_coefficient():
    # the message names the value rather than failing to render it
    with pytest.raises(OrderUndefined, match=(
            r"^0\.5 \+ nanI has no defined order for t-norm$")):
        tnorm("standard", Scalar(0.5, math.nan), 0.5)


def test_unknown_norm_kind():
    with pytest.raises(ParseError, match="unknown t-norm kind 'fancy'"):
        tnorm("fancy", 0.3, 0.3)
    with pytest.raises(ParseError, match="unknown t-conorm kind 'fancy'"):
        tconorm("fancy", 0.3, 0.3)


# ----------------------------------------------------------------- text form

def test_parse_scalar_basic_forms():
    assert parse_scalar("0.7") == coerce(0.7)
    assert parse_scalar("-1") == coerce(-1)
    assert parse_scalar("I") == I
    assert parse_scalar("-I") == Scalar(0, -1)
    assert parse_scalar("3I") == Scalar(0, 3)
    assert parse_scalar("2+3I") == Scalar(2, 3)
    assert parse_scalar("2-3I") == Scalar(2, -3)
    assert parse_scalar("0.9-2I") == Scalar(0.9, -2)


def test_parse_scalar_accepts_indeterminate_term_first():
    assert parse_scalar("7I-1") == Scalar(-1, 7)
    assert parse_scalar("4I+1") == Scalar(1, 4)


def test_parse_scalar_rejects_garbage():
    for bad in ("", "+", "I+I", "2++3I", "xyz", "2I3"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_parse_scalar_names_a_text_that_is_not_a_str():
    for bad in (5, 1.5, None, b"1", [1], {}):
        with pytest.raises(TypeError, match="^text must be a str, got "):
            parse_scalar(bad)
        # an unhashable value cannot be a key of the memo at all
        if getattr(bad, "__hash__", None) is not None:
            assert bad not in values._LITERALS


def test_parse_scalar_rejects_overflowing_literals():
    for bad in ("1e400", "-1e400", "1e400I", "1+1e400I", "1e400I-1"):
        with pytest.raises(ParseError, match="out of range"):
            parse_scalar(bad)
    assert parse_scalar("1e300") == Scalar(1e300)


def test_render_scalar_rejects_non_finite_coefficients():
    # on every call: a DomainError is never memoized
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_TEXTS", {})
        for bad in (Scalar(math.inf), Scalar(-math.inf), Scalar(math.nan),
                    Scalar(0, math.inf), Scalar(2, math.nan)):
            for _ in range(2):
                with pytest.raises(DomainError, match="not a finite scalar"):
                    render_scalar(bad)
        assert values._TEXTS == {}


def test_render_scalar_of_negative_zero_is_zero():
    assert render_scalar(Scalar(-0.0)) == "0"
    assert render_scalar(-0.0) == "0"
    assert render_scalar(Scalar(-0.0, 1)) == "I"
    assert render_scalar(Scalar(2, -0.0)) == "2"


def test_render_scalar_memo_is_bounded():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_TEXTS", {})
        for n in range(5000):
            assert render_scalar(Scalar(n / 8)) == values._render_pair(n / 8,
                                                                       0.0)
        assert len(values._TEXTS) == 4096  # full: it only reads now


def test_render_scalar_canonical():
    assert render_scalar(coerce(2)) == "2"
    assert render_scalar(coerce(0.5)) == "0.5"
    assert render_scalar(I) == "I"
    assert render_scalar(Scalar(0, -1)) == "-I"
    assert render_scalar(Scalar(0, 7)) == "7I"
    assert render_scalar(Scalar(2, 3)) == "2+3I"
    assert render_scalar(Scalar(2, -3)) == "2-3I"
    assert render_scalar(Scalar(-1, 7)) == "-1+7I"


scalars = st.builds(
    Scalar,
    st.one_of(st.integers(-50, 50), st.floats(-10, 10, allow_nan=False)),
    st.one_of(st.integers(-50, 50), st.floats(-10, 10, allow_nan=False)),
)


@given(scalars)
def test_render_parse_round_trip(s):
    assert parse_scalar(render_scalar(s)) == s


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars)
def test_multiplication_commutes(a, b):
    x = a * b
    y = b * a
    assert math.isclose(x.real_part, y.real_part, abs_tol=1e-9)
    assert math.isclose(x.indet_coeff, y.indet_coeff, abs_tol=1e-9)


@given(st.floats(0, 1), st.floats(0, 1))
def test_standard_norms_match_min_max(a, b):
    assert tnorm("standard", a, b) == coerce(min(a, b))
    assert tconorm("standard", a, b) == coerce(max(a, b))


# tokens: canonical renderings, and strings over the token alphabet, of
# which many are malformed
tokens = st.one_of(scalars.map(render_scalar),
                   st.text("0123456789.+-eEI ", max_size=8))


def test_parse_scalar_memo_matches_a_fresh_parse():
    @settings(max_examples=400, deadline=None)
    @given(tokens)
    def check(token):
        try:
            fresh = values._parse_scalar(token)
        except ParseError as exc:
            for _ in range(2):  # an invalid token raises on every call
                with pytest.raises(ParseError) as again:
                    parse_scalar(token)
                assert again.value.message == exc.message
            assert token not in values._LITERALS
        else:
            got = parse_scalar(token)
            assert (got.real_part, got.indet_coeff) == (fresh.real_part,
                                                        fresh.indet_coeff)
            if token in values._LITERALS:  # memoized: one shared object
                assert parse_scalar(token) is got
        assert len(values._LITERALS) <= values._LITERAL_LIMIT

    # a small bound, so that the memo fills up during the run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_LITERALS", {})
        mp.setattr(values, "_LITERAL_LIMIT", 16)
        check()
        assert len(values._LITERALS) == 16


def test_render_scalar_memo_matches_a_fresh_rendering():
    @settings(max_examples=400, deadline=None)
    @given(scalars)
    def check(s):
        fresh = values._render_pair(s.real_part, s.indet_coeff)
        for _ in range(2):  # the first call may fill the memo
            assert render_scalar(s) == fresh
        assert len(values._TEXTS) <= values._TEXT_LIMIT

    # a small bound, so that the memo fills up during the run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_TEXTS", {})
        mp.setattr(values, "_TEXT_LIMIT", 16)
        check()
        assert len(values._TEXTS) == 16


def test_parse_scalars_gives_the_objects_parse_scalar_gives():
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tokens, max_size=12))
    def check(line):
        try:
            expected = [parse_scalar(t) for t in line]
        except ParseError as exc:
            with pytest.raises(ParseError) as again:
                values.parse_scalars(line)
            assert again.value.message == exc.message
            return
        got = values.parse_scalars(line)
        assert len(got) == len(expected)
        for token, a, b in zip(line, got, expected):
            if token in values._LITERALS:  # memoized: one shared object
                assert a is b
            else:  # beyond a full memo every call parses afresh
                assert type(a) is Scalar
                assert (a.real_part, a.indet_coeff) == (b.real_part,
                                                        b.indet_coeff)

    # a small bound, so that the memo fills up and lines hold tokens
    # beyond it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_LITERALS", {})
        mp.setattr(values, "_LITERAL_LIMIT", 16)
        check()
        assert len(values._LITERALS) == 16


def test_parse_scalars_parses_the_tokens_a_line_adds_to_the_memo():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(values, "_LITERALS", {})
        got = values.parse_scalars(["0.25", "I", "0.25", "-7I"])
        assert got == (Scalar(0.25), I, Scalar(0.25), Scalar(0, -7))
        assert got[0] is got[2] is values._LITERALS["0.25"]
        # the second reading is all memo hits, to the same objects
        again = values.parse_scalars(["-7I", "0.25"])
        assert again[0] is got[3] and again[1] is got[0]


@pytest.mark.parametrize("token", [
    "１", "٣", "0.٥", "1e٣", "²", "1_0", "1_0I", "0.5+１I", "٣I-1"])
def test_numerals_are_ascii_digits_only(token):
    # `\d` and float() take other scripts' digits, and float() takes
    # underscores; the scalar syntax takes neither
    with pytest.raises(ParseError, match="bad scalar"):
        parse_scalar(token)
    with pytest.raises(ParseError, match="bad scalar"):
        values.parse_scalars(["0", token])



# ------------------------------------------------ stored as a complex a + bj

def test_scalar_is_stored_as_a_complex():
    # the deliberate surface of the storage: a Scalar is a complex, reads
    # as one and equals (and hashes like) the complex with its coefficients
    s = Scalar(0.5, -2)
    assert isinstance(s, complex)
    assert (s.real, s.imag) == (s.real_part, s.indet_coeff) == (0.5, -2.0)
    assert type(complex(s)) is complex and complex(s) == 0.5 - 2j
    assert s == 0.5 - 2j and hash(s) == hash(0.5 - 2j)
    assert I == 1j and ONE == 1 == 1.0


# an operation complex has and a + bI lacks -> a call of it
UNDEFINED = {
    "div": lambda s: s / 2,
    "rdiv": lambda s: 2 / s,
    "complex-rdiv": lambda s: 1j / s,
    "scalar-div": lambda s: s / s,
    "pow": lambda s: s ** 2,
    "rpow": lambda s: 2 ** s,
    "complex-rpow": lambda s: 1j ** s,
    "pow-mod": lambda s: pow(s, 2, 3),
    "abs": abs,
    "unary-plus": lambda s: +s,
    "conjugate": lambda s: s.conjugate(),
    "format-spec": lambda s: format(s, ">5"),
    "complex-add": lambda s: s + 1j,
    "complex-radd": lambda s: 1j + s,
    "complex-rmul": lambda s: 1j * s,
    "complex-rsub": lambda s: 1j - s,
    "int": int,
    "float": float,
    "round": round,
    "floordiv": lambda s: s // 1,
    "mod": lambda s: s % 1,
    "less-than": lambda s: s < s,
    "scalar-of-scalar": Scalar,
}


@pytest.mark.parametrize("op", list(UNDEFINED.values()), ids=list(UNDEFINED))
@pytest.mark.parametrize("s", [ZERO, ONE, I, Scalar(0.5, -2)],
                         ids=["0", "1", "I", "0.5-2I"])
def test_scalar_has_none_of_the_other_complex_operations(op, s):
    with pytest.raises(TypeError):
        op(s)


def test_scalar_surface_is_a_value_not_a_number():
    assert bool(ZERO) and bool(Scalar(-0.0, -0.0))  # every value is true
    assert format(I, "") == f"{I}" == str(I) == "I"
    assert f"{Scalar(0.5, -2)}" == "0.5-2I"
    for name in ("real_part", "indet_coeff", "other"):
        with pytest.raises(AttributeError):
            setattr(ONE, name, 2.0)
        with pytest.raises(AttributeError):
            delattr(ONE, name)
    for value in (1j, 1 + 0j, True, "1", None):
        with pytest.raises(TypeError):
            coerce(value)
    with pytest.raises(TypeError):
        Scalar(1j)
    with pytest.raises(TypeError):
        Scalar(0, 1j)
    assert Scalar(-0.0, -0.0).is_real and not Scalar(0, 1).is_real
    # a signed zero is stored as 0.0, in both coefficients
    zero = Scalar(-0.0, -0.0)
    assert repr((zero.real_part, zero.indet_coeff)) == "(0.0, 0.0)"
    assert pickle.dumps(zero) == pickle.dumps(ZERO)


# finite coefficients, signed zeros among them
coefficients = st.one_of(st.integers(-3, 3), st.sampled_from([0.0, -0.0]),
                         st.floats(-1e300, 1e300, allow_nan=False))


@given(coefficients, coefficients, coefficients, coefficients)
def test_scalars_are_equal_exactly_when_their_coefficients_are(a, b, c, d):
    x, y = Scalar(a, b), Scalar(c, d)
    same = (float(a) + 0.0, float(b) + 0.0) == (float(c) + 0.0, float(d) + 0.0)
    assert (x == y) is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)
    if not float(b):  # a real equals its float and hashes like it
        assert x == float(a) and hash(x) == hash(float(a))
        assert {float(a): "a"}[x] == "a"


def test_non_finite_scalars_compare_as_their_floats():
    nan = Scalar(math.nan)
    assert nan != nan and nan != Scalar(math.nan)
    assert Scalar(math.inf) == math.inf and Scalar(0, -math.inf) != ZERO


# (Scalar(0.5, -2), Scalar(3)) as the slotted Scalar of earlier releases
# pickled it, at protocols 0, 2 and 5: its __reduce__ gave the same float
# pair this one gives
OLD_PICKLES = (
    b"(cfuzzymaps.values\nScalar\np0\n(F0.5\nF-2.0\ntp1\nRp2\ng0\n"
    b"(F3.0\nF0.0\ntp3\nRp4\ntp5\n.",
    b"\x80\x02cfuzzymaps.values\nScalar\nq\x00G?\xe0\x00\x00\x00\x00"
    b"\x00\x00G\xc0\x00\x00\x00\x00\x00\x00\x00\x86q\x01Rq\x02h\x00G"
    b"@\x08\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x86q\x03Rq\x04\x86q\x05.",
    b"\x80\x05\x95O\x00\x00\x00\x00\x00\x00\x00\x8c\x10fuzzymaps.values"
    b"\x94\x8c\x06Scalar\x94\x93\x94G?\xe0\x00\x00\x00\x00\x00\x00G"
    b"\xc0\x00\x00\x00\x00\x00\x00\x00\x86\x94R\x94h\x02G@\x08\x00"
    b"\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86\x94R"
    b"\x94\x86\x94.",
)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_scalar_pickle_round_trip(protocol):
    for s in (ZERO, ONE, I, Scalar(0.5, -2), Scalar(math.inf, -1)):
        for back in (pickle.loads(pickle.dumps(s, protocol)), copy.copy(s),
                     copy.deepcopy(s)):
            assert type(back) is Scalar
            assert (back.real_part, back.indet_coeff) == (s.real_part,
                                                          s.indet_coeff)


@pytest.mark.parametrize("protocol, data", zip((0, 2, 5), OLD_PICKLES))
def test_scalar_pickles_of_earlier_releases_load(protocol, data):
    got = pickle.loads(data)
    assert got == (Scalar(0.5, -2), Scalar(3))
    assert all(type(s) is Scalar for s in got)
    assert pickle.dumps(got, protocol) == data  # and are written alike


def test_scalar_repr_never_raises():
    # a coefficient that is not finite is named as an order message names
    # it (values._named)
    assert repr(Scalar(0.5, -2)) == "Scalar('0.5-2I')"
    assert repr(Scalar(math.inf)) == "Scalar('inf')"
    assert repr(Scalar(0, -math.inf)) == "Scalar('-infI')"
    assert repr(Scalar(1, -math.inf)) == "Scalar('1.0 + -infI')"
    assert repr(Scalar(math.nan, 2)) == "Scalar('nan + 2.0I')"
    with pytest.raises(DomainError):  # the text form still has no inf
        str(Scalar(math.inf))


@pytest.mark.parametrize("policy", list(OrderPolicy), ids=lambda p: p.value)
def test_order_policy_hashes_by_identity(policy):
    assert hash(policy) == object.__hash__(policy)
    assert {policy: "p"}[OrderPolicy.parse(policy.value)] == "p"
    assert OrderPolicy.parse(policy.value) is policy
    assert OrderPolicy(policy.value) is policy
    assert copy.copy(policy) is policy and copy.deepcopy(policy) is policy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(policy, protocol)) is policy


def _render_each(part):
    return "[" + " ".join(map(render_scalar, part)) + "]"


def _bracketed_row(part):
    """render_row's text of `part`, bracketed as render_part brackets it."""
    return "[" + values.render_row(part) + "]"


def _memo(mp, texts, limit=values._TEXT_LIMIT):
    """Give render_scalar, and render_row which reads it directly, the
    memo `texts` of room `limit`."""
    mp.setattr(values, "_TEXTS", texts)
    mp.setattr(values, "_TEXT_LIMIT", limit)


def test_render_part_is_the_join_of_render_scalar():
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(scalars, st.integers(-9, 9),
                              st.floats(-9, 9, allow_nan=False)), max_size=6))
    def check(values_):
        part = tuple(values_)
        expected = _render_each(part)
        for render in (render_part, _bracketed_row):
            for _ in range(2):  # the first call may fill the memo
                assert render(part) == expected
            assert render(iter(part)) == expected

    # a small bound, so that the memo fills up and parts hold values
    # beyond it
    with pytest.MonkeyPatch.context() as mp:
        _memo(mp, {}, 16)
        check()
        assert len(values._TEXTS) == 16


def test_render_part_with_a_full_memo_renders_afresh():
    with pytest.MonkeyPatch.context() as mp:
        _memo(mp, {}, 0)
        for render in (render_part, _bracketed_row):
            assert render((Scalar(0.125), I, Scalar(2, -3))) == \
                "[0.125 I 2-3I]"
        assert values._TEXTS == {}


@pytest.mark.parametrize("part, error", [
    ((True,), TypeError),
    ((ONE, False), TypeError),
    ((1j,), TypeError),
    ((ONE, "1"), TypeError),
    ((None,), TypeError),
    ((Scalar(math.inf),), DomainError),
    ((ONE, Scalar(0, math.nan)), DomainError),
], ids=["bool", "bool-after-scalar", "complex", "text", "none", "inf", "nan"])
def test_render_part_raises_where_render_scalar_raises(part, error):
    render_part((ONE, ZERO, I))  # the memo holds 1 and 0, which True equals
    for render in (_render_each, render_part, _bracketed_row):
        with pytest.raises(error):
            render(part)
