"""Acceptance gate: one test per published criterion.

Every expectation below was recomputed independently (by hand or with a
plain-float oracle) before being frozen. Each test exercises the full
code path a user would hit, so `pytest -v` reads as a checklist.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import subprocess
import sys
import time

from fuzzymaps import (
    ComponentTag,
    FixedPoint,
    I,
    LimitCycle,
    Matrix,
    OrderPolicy,
    Scalar,
    SpecialMatrix,
    SpecialStateVector,
    TCONORM_KINDS,
    TNORM_KINDS,
    ValueDomain,
    check_necessary,
    mat_mul,
    maxmin_compose,
    minmax_compose,
    parse_model_text,
    parse_scalar,
    parse_vector_text,
    render_trace,
    run,
    run_cm,
    scalar_max,
    scalar_min,
    solve_max,
    tconorm,
    tnorm,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TOL = 1e-12


def unit(rows):
    return Matrix.from_rows([[Scalar(v) for v in r] for r in rows],
                            domain=ValueDomain.UNIT)


def neutro(rows):
    return Matrix.from_rows(
        [[parse_scalar(str(v)) for v in r] for r in rows],
        domain=ValueDomain.ANY)


def close(a, b):
    if not isinstance(a, Scalar):
        a = Scalar(a)
    if not isinstance(b, Scalar):
        b = Scalar(b)
    return (abs(a.real_part - b.real_part) <= TOL
            and abs(a.indet_coeff - b.indet_coeff) <= TOL)


def run_fixture(model_name, vec_name):
    mf = parse_model_text((FIXTURES / model_name).read_text())
    state = parse_vector_text((FIXTURES / vec_name).read_text())
    return mf, run(mf.model, state)


def test_criterion_01_composition_goldens():
    a = unit([[0.3, 0.1, 0.6], [0, 0.7, 1], [0.4, 0.2, 0.3]])
    b = unit([[0.6, 0.2, 0, 0.7], [0.3, 0.8, 0.2, 0], [1, 0.1, 0.4, 1]])
    r = maxmin_compose(a, b)
    want_r = [[0.6, 0.2, 0.4, 0.6], [1, 0.7, 0.4, 1], [0.4, 0.2, 0.3, 0.4]]
    for i in range(3):
        for j in range(4):
            assert close(r.at(i, j), want_r[i][j])
    p = minmax_compose(a, b)
    assert close(p.at(0, 0), 0.3)
    assert close(p.at(1, 0), 0.6)
    want_p = [[0.3, 0.3, 0.2, 0.1], [0.6, 0.2, 0, 0.7], [0.3, 0.3, 0.2, 0.2]]
    for i in range(3):
        for j in range(4):
            assert close(p.at(i, j), want_p[i][j])


def test_criterion_02_square_map_fixed_points():
    _, seeded_two_five = run_fixture("single_square_signed.model",
                                     "single_square_seed_a.vec")
    assert seeded_two_five.outcomes == (FixedPoint((0, 1, 0, 0, 1)),)
    _, seeded_three = run_fixture("single_square_signed.model",
                                  "single_square_seed_b.vec")
    assert seeded_three.outcomes == (FixedPoint((0, 0, 1, 1, 0)),)


def test_criterion_03_rect_map_binary_pairs():
    _, fwd = run_fixture("single_rect_signed.model",
                         "single_rect_domain_seed.vec")
    assert fwd.outcomes == (FixedPoint(((1, 1, 1, 0, 1, 1), (1, 1, 1, 1))),)
    _, back = run_fixture("single_rect_signed.model",
                          "single_rect_range_seed.vec")
    assert back.outcomes == (FixedPoint(((1, 0, 0, 0, 0, 1), (1, 0, 0, 1))),)


def test_criterion_04_five_expert_special_fixed_point():
    _, pattern = run_fixture("five_expert_signed_square.model",
                             "five_expert_signed_seed.vec")
    assert pattern.outcomes == (FixedPoint((1, 1, 1, 0, 0)),
                                FixedPoint((1, 1, 1, 0, 1)),
                                FixedPoint((1, 1, 1, 1, 1)),
                                FixedPoint((0, 1, 1, 1, 0)),
                                FixedPoint((1, 1, 1, 0, 0)))


def test_criterion_05_shared_seed_saturates_within_three_steps():
    _, pattern = run_fixture("five_expert_shared_square.model",
                             "five_expert_shared_seed.vec")
    # combined activation levels before the cut, second pass, first expert
    assert pattern.trace[1].raw[0] == (3, 3, 2, 2, 1)
    third = pattern.trace[2].updated
    assert all(v == 1 for part in third for v in part)
    all_ones = FixedPoint((1, 1, 1, 1, 1))
    assert pattern.outcomes == (all_ones,) * 5


def test_criterion_06_cli_prints_special_binary_pair():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzymaps.cli", "run",
         "--model", str(FIXTURES / "three_expert_rect.model"),
         "--input", str(FIXTURES / "three_expert_rect_seed.vec")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert ("component 1: fixed pair: domain=[1 0 0 0 0 1 0 0] "
            "range=[0 0 0 0 1]") in lines
    assert ("component 2: fixed pair: domain=[1 0 0 0 0 1 1 1] "
            "range=[0 0 0 1 1]") in lines
    assert ("component 3: fixed pair: domain=[1 0 0 0 0 0 0 0] "
            "range=[0 0 0 1 0]") in lines


def test_criterion_07_indeterminate_products():
    a = neutro([["7+I", "I"], ["I", "-6I"]])
    b = neutro([["7-I", "0"], ["I", "0"]])
    got = mat_mul(a, b)
    want = [[Scalar(49), Scalar(0)], [Scalar(0), Scalar(0)]]
    for i in range(2):
        for j in range(2):
            assert close(got.at(i, j), want[i][j])
    c = neutro([["0", "I", "2-I"], ["4-I", "0", "7"], ["8I", "-1", "0"]])
    d = neutro([["7I-1", "2+I", "3-I", "5-I", "0"],
                ["0", "7I", "2", "0", "3"],
                ["8+I", "3I", "-I", "1", "0"]])
    assert close(mat_mul(c, d).at(0, 0), parse_scalar("16-7I"))


def test_criterion_08_ordering_fixtures():
    assert scalar_min(parse_scalar("5I"), Scalar(8)) == parse_scalar("5I")
    assert scalar_max(Scalar(2), parse_scalar("7I")) == parse_scalar("7I")
    assert scalar_min(Scalar(3), parse_scalar("3I")) == parse_scalar("3I")
    assert scalar_max(Scalar(3), parse_scalar("3I")) == parse_scalar("3I")
    assert scalar_min(Scalar(3), parse_scalar("3I"),
                      policy=OrderPolicy.BOOK_DEFAULT) == parse_scalar("3I")


def test_criterion_09_relational_equation_property_suite():
    started = time.perf_counter()
    rng = random.Random(90210)
    grid = [i / 10 for i in range(11)]
    seen_solvable = seen_unsolvable = necessary_failures = 0
    for _ in range(100):
        m, s = rng.randint(1, 4), rng.randint(1, 4)
        q_rows = [[rng.randrange(11) / 10 for _ in range(s)]
                  for _ in range(m)]
        r_vals = [rng.randrange(11) / 10 for _ in range(s)]
        q = unit(q_rows)
        sol = solve_max(q, [Scalar(v) for v in r_vals])
        # independent plain-float oracle: try every grid vector
        cols = list(zip(*q_rows))
        witnesses = [
            p for p in itertools.product(grid, repeat=m)
            if all(max(min(pj, qj) for pj, qj in zip(p, col)) == rv
                   for col, rv in zip(cols, r_vals))]
        assert sol.solvable == bool(witnesses)
        p_hat = [v.real_part for v in sol.max_solution.row(0)]
        for p in witnesses:
            assert all(ph >= pv - TOL for ph, pv in zip(p_hat, p))
        if not check_necessary(q, [Scalar(v) for v in r_vals]):
            necessary_failures += 1
            assert not sol.solvable
            assert not witnesses
        if sol.solvable:
            seen_solvable += 1
        else:
            seen_unsolvable += 1
    assert seen_solvable and seen_unsolvable and necessary_failures
    assert time.perf_counter() - started < 10.0


def test_criterion_10_random_systems_terminate_below_cap():
    rng = random.Random(60045)
    cycles = 0
    families = (
        (ValueDomain.TRI, (Scalar(-1), Scalar(0), Scalar(1)), "fuzzy"),
        (ValueDomain.NEUTRO_TRI, (Scalar(-1), Scalar(0), Scalar(1), I),
         "neutrosophic"))
    for domain, entries, algebra in families:
        for _ in range(1000):
            rows = [[Scalar(0) if i == j else rng.choice(entries)
                     for j in range(6)] for i in range(6)]
            mat = Matrix.from_rows(rows, domain=domain)
            special = SpecialMatrix([(mat, ComponentTag(algebra=algebra))])
            coords = [rng.randint(0, 1) for _ in range(6)]
            if not any(coords):
                coords[rng.randrange(6)] = 1
            state = SpecialStateVector((tuple(Scalar(c) for c in coords),))
            pattern = run_cm(special, state)
            assert pattern.steps < 10_000
            if any(isinstance(o, LimitCycle) for o in pattern.outcomes):
                cycles += 1
    assert cycles >= 1


def test_criterion_11_norm_axiom_suite():
    reals = [Scalar(i / 10) for i in range(11)]
    points = reals + [I]
    one, zero = Scalar(1), Scalar(0)
    suites = ([(kind, tnorm, one) for kind in TNORM_KINDS]
              + [(kind, tconorm, zero) for kind in TCONORM_KINDS])
    for kind, op, neutral in suites:
        for a in points:
            assert close(op(kind, a, neutral), a)       # boundary
            assert op(kind, a, I) == I                  # indeterminacy wins
        for a in reals:                                 # monotone on reals
            for lo, hi in itertools.combinations(reals, 2):
                assert (op(kind, a, lo).real_part
                        <= op(kind, a, hi).real_part + TOL)
        for a in points:                                # commutative
            for b in points:
                assert close(op(kind, a, b), op(kind, b, a))
        for a, b, c in itertools.product(points, repeat=3):  # associative
            assert close(op(kind, a, op(kind, b, c)),
                         op(kind, op(kind, a, b), c))


FIXTURE_RUNS = (
    ("single_square_signed.model", "single_square_seed_a.vec"),
    ("single_square_signed.model", "single_square_seed_b.vec"),
    ("single_rect_signed.model", "single_rect_domain_seed.vec"),
    ("single_rect_signed.model", "single_rect_range_seed.vec"),
    ("five_expert_signed_square.model", "five_expert_signed_seed.vec"),
    ("five_expert_shared_square.model", "five_expert_shared_seed.vec"),
    ("four_expert_varied_square.model", "four_expert_varied_seed.vec"),
    ("mixed_algebra_square.model", "mixed_algebra_seed.vec"),
    ("mixed_operator_union.model", "mixed_operator_seed.vec"),
    ("three_expert_rect.model", "three_expert_rect_seed.vec"),
    ("six_model_mixture.model", "six_model_mixture_seed.vec"),
)


def test_criterion_12_determinism_and_round_trip():
    from fuzzymaps import serialize_model

    for model_name, vec_name in FIXTURE_RUNS:
        traces = []
        for _ in range(2):
            mf, pattern = run_fixture(model_name, vec_name)
            traces.append(render_trace(
                pattern, mf.model.matrix, experts=mf.model.experts,
                model_class=mf.model.model_class, name=mf.name))
        assert traces[0] == traces[1]
    # the deliberately broken diagnostics file cannot build a model and is
    # covered by the validation tests instead
    for path in sorted(FIXTURES.glob("*.model")):
        if "bad" in path.name:
            continue
        first = parse_model_text(path.read_text())
        canon = serialize_model(first)
        second = parse_model_text(canon)
        assert second.model == first.model
        assert serialize_model(second) == canon
