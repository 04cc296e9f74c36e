"""Tests of the benchmark's own code: seeded generators, output checks,
span recording, and the refusal to run without the package source."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import fuzzymaps
import fuzzymaps.cli
from fuzzymaps import FixedPoint, LimitCycle, ONE, ZERO

from bench import checks, gen, tracing
from bench.checks import CheckFailed
from bench.workloads import PipelinePaper

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _flip(state):
    return (ONE if state[0] == ZERO else ZERO,) + tuple(state[1:])


# ------------------------------------------------------------ generators

def test_generators_are_deterministic_per_seed():
    for seed in (0, 7):
        assert gen.sweep_models(seed, 2) == gen.sweep_models(seed, 2)
        assert gen.paper_runs("p", seed, 5) == gen.paper_runs("p", seed, 5)
        assert gen.fre_systems(seed, 4) == gen.fre_systems(seed, 4)
    assert gen.sweep_models(0, 1) != gen.sweep_models(1, 1)
    assert gen.paper_runs("p", 0, 3) != gen.paper_runs("p", 1, 3)
    assert gen.paper_runs("p", 0, 3) != gen.paper_runs("q", 0, 3)
    assert gen.fre_systems(0, 4) != gen.fre_systems(1, 4)


def test_generated_systems_match_their_construction():
    for system in gen.fre_systems(3, 10):
        p_hat = gen.max_solution_tenths(system.q, system.r)
        solvable = gen.maxmin_tenths(p_hat, system.q) == system.r
        assert solvable == system.solvable
        assert fuzzymaps.parse_matrix_text(system.q_text).rows == 5


def test_grid_solution_count_matches_enumeration():
    for system in gen.fre_systems(5, 6, m=3):
        brute = sum(
            1 for p in itertools.product(range(11), repeat=3)
            if gen.maxmin_tenths(p, system.q) == system.r)
        assert checks.grid_solution_count(system) == brute


# ---------------------------------------------------------------- checks

def _sweep_case():
    model = gen.sweep_models(11, 1)[0]
    parsed = fuzzymaps.parse_model_text(model.text).model
    x0 = fuzzymaps.parse_vector_text(gen.single_concept_vector(5, 30, 4))
    return model, fuzzymaps.run(parsed, x0)


def test_sweep_check_rejects_a_flipped_fixed_point_bit():
    model, pattern = _sweep_case()
    checks.check_sweep(model.matrices, 4, pattern)
    outcomes = list(pattern.outcomes)
    first = outcomes[0]
    if isinstance(first, FixedPoint):
        outcomes[0] = FixedPoint(_flip(first.state))
    else:
        outcomes[0] = LimitCycle((_flip(first.states[0]),)
                                 + first.states[1:], first.period)
    bad = dataclasses.replace(pattern, outcomes=tuple(outcomes))
    with pytest.raises(CheckFailed):
        checks.check_sweep(model.matrices, 4, bad)


def _pipeline_result():
    workload = PipelinePaper(2, "unused", "unused")
    for j in range(len(workload.runs)):
        model, pattern, text, verified = workload.op(j)
        if any(tag.kind == "CM" and isinstance(o, FixedPoint)
               for (_, tag), o in zip(model.matrix, pattern.outcomes)):
            return model, pattern, text, verified
    raise AssertionError("no generated run has a CM fixed point")


def test_pipeline_check_rejects_a_tampered_trace_line():
    model, pattern, text, verified = _pipeline_result()
    checks.check_pipeline(model, pattern, checks.verified_outcomes(text))
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("final 1 "))
    head, state = lines[idx].rsplit("[", 1)
    flipped = " ".join("0" if tok == "1" else "1"
                       for tok in state.rstrip("]").split())
    lines[idx] = f"{head}[{flipped}]"
    with pytest.raises(CheckFailed) as info:
        checks.verified_outcomes("\n".join(lines) + "\n")
    assert info.value.layer == "trace"


def test_pipeline_check_rejects_a_fixed_point_that_moves():
    model, pattern, _text, _verified = _pipeline_result()
    outcomes = list(pattern.outcomes)
    idx = next(i for i, ((_, tag), o) in enumerate(
        zip(model.matrix, outcomes))
        if tag.kind == "CM" and isinstance(o, FixedPoint))
    # flip a coordinate the seed does not pin
    state = list(outcomes[idx].state)
    free = next(i for i, v in enumerate(pattern.input.parts[idx])
                if v != ONE)
    state[free] = ZERO if state[free] != ZERO else ONE
    outcomes[idx] = FixedPoint(tuple(state))
    bad = dataclasses.replace(pattern, outcomes=tuple(outcomes))
    with pytest.raises(CheckFailed):
        checks.check_pipeline(model, bad, bad.outcomes)


def _fre_stdout(tmp_path, system):
    q = tmp_path / "q.txt"
    r = tmp_path / "r.txt"
    q.write_text(system.q_text)
    r.write_text(system.r_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fuzzymaps.cli.main(["fre", "--matrix", str(q), "--target",
                                 str(r), "--minimal"])
    return rc, out.getvalue()


def test_fre_check_rejects_a_wrong_minimal_vector(tmp_path):
    solvable, unsolvable = gen.fre_systems(4, 2)
    rc, stdout = _fre_stdout(tmp_path, solvable)
    assert checks.check_fre(solvable, rc, stdout) >= 1
    lines = stdout.splitlines()
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("minimal: "))
    assert any(solvable.r)  # so the zero vector is no solution
    lines[idx] = "minimal: 0 0 0 0 0"
    with pytest.raises(CheckFailed):
        checks.check_fre(solvable, rc, "\n".join(lines) + "\n")
    rc, stdout = _fre_stdout(tmp_path, unsolvable)
    assert checks.check_fre(unsolvable, rc, stdout) == 0
    with pytest.raises(CheckFailed):
        checks.check_fre(unsolvable, rc, stdout.replace(
            "minimal: none", "minimal: 0 0 0 0 0"))


def test_cli_check_rejects_a_nonzero_exit():
    with pytest.raises(CheckFailed):
        checks.check_cli(2, "", "", "")
    with pytest.raises(CheckFailed):
        checks.check_cli(0, "steps: 1\n", "steps: 2\n", "")


# --------------------------------------------------------------- tracing

def test_traced_op_nests_spans_and_restores_the_package():
    original = fuzzymaps.dynamics.apply_part
    tracer = tracing.Tracer(record_apply_part=5)
    workload = PipelinePaper(1, "unused", "unused")
    tracer.op = 0
    with tracer.patched(), tracer.span("bench.op"):
        workload.op(0)
    assert fuzzymaps.dynamics.apply_part is original
    names = {s.name for s in tracer.spans}
    assert {"models.run", "dynamics.run", "special.apply_part",
            "trace.verify_trace", "trace.parse_trace"} <= names
    selfs = tracing.self_times(tracer.spans)
    for i, span in enumerate(tracer.spans):
        assert span.op == 0 and span.ok
        assert 0 <= selfs[i] <= span.end - span.start
        if span.name == "dynamics.run":
            assert tracer.spans[span.parent].name == "models.run"
    assert len(tracer.apply_part_calls) == 5


# ------------------------------------------------------------ entry point

def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-paper",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
