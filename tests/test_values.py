"""Scalar arithmetic, ordering, thresholds, norms, and text forms."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fuzzymaps import values
from fuzzymaps import (
    I,
    coerce,
    ONE,
    ZERO,
    DomainError,
    ModeMismatch,
    OrderPolicy,
    OrderUndefined,
    ParseError,
    Scalar,
    ThresholdMode,
    ValueDomain,
    parse_scalar,
    render_scalar,
    scalar_max,
    scalar_min,
    tconorm,
    threshold_scalar,
    tnorm,
)

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


def test_neutrosophic_threshold_pure_parts():
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(coerce(2), mode) == ONE
    assert threshold_scalar(coerce(-2), mode) == ZERO
    assert threshold_scalar(Scalar(0, 3), mode) == I
    assert threshold_scalar(Scalar(0, -3), mode) == ZERO


def test_neutrosophic_threshold_mixed_dominant_part_wins():
    # the larger coefficient is cut like a real; only an exact tie keeps
    # the indeterminacy
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(Scalar(2, 1), mode) == ONE
    assert threshold_scalar(Scalar(-2, 1), mode) == ONE
    assert threshold_scalar(Scalar(1, 3), mode) == ONE
    assert threshold_scalar(Scalar(-1, -3), mode) == ZERO
    assert threshold_scalar(Scalar(-3, -1), mode) == ZERO


def test_neutrosophic_threshold_tied_parts_give_indeterminate():
    mode = ThresholdMode("neutrosophic", 0.0)
    assert threshold_scalar(Scalar(1, 1), mode) == I
    assert threshold_scalar(Scalar(2, 2 + 1e-12), mode) == I


def test_threshold_level_shifts_cut():
    assert threshold_scalar(coerce(0.5), ThresholdMode("fuzzy", 0.5)) == ZERO
    assert threshold_scalar(coerce(0.6), ThresholdMode("fuzzy", 0.5)) == ONE
    assert threshold_scalar(Scalar(0, 0.4), ThresholdMode("neutrosophic", 0.5)) == ZERO
    assert threshold_scalar(Scalar(0, 0.6), ThresholdMode("neutrosophic", 0.5)) == I


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

