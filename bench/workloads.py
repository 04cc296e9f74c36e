"""The four workloads. Each writes its generated inputs into a work
directory, defines one op, checks the op's output and, in a traced run,
counts the work the op did.

An op's inputs cycle through a fixed, seeded list, so op j always sees
input j mod len(list); counts and the outcome digest are taken over the
first COUNTED ops and repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import fuzzymaps
import fuzzymaps.cli

from . import checks, gen, setup_child

COUNTED = 40  # ops whose counts and outcome digest are reported


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _scalar_tokens(text: str) -> int:
    """Scalar entries in model, vector or matrix text: every token of a
    line that is not a header, label or side tag."""
    heads = ("model", "component", "expert", "rows", "cols", "end")
    count = 0
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] in heads:
            continue
        count += len(tokens) - (tokens[0] in ("domain", "range"))
    return count


def _trace_scalar_tokens(text: str) -> int:
    count = 0
    for chunk in text.split("[")[1:]:
        count += len(chunk.split("]", 1)[0].split())
    return count


def pattern_counts(pattern, special) -> dict:
    """Exact work counts of one run, read from its returned data."""
    cells = {"circle": 0, "level": 0}
    for (mat, tag), settled in zip(special, pattern.settled_steps):
        family = "circle" if tag.op == "circle" else "level"
        cells[family] += settled * mat.rows * mat.cols
    frozen = sum(sum(r.frozen) for r in pattern.trace)
    return {
        "dynamics.steps": pattern.steps,
        "dynamics.component_steps": sum(pattern.settled_steps),
        "dynamics.records": len(pattern.trace),
        "dynamics.frozen_slots": frozen,
        "dynamics.slots": pattern.steps * len(pattern.outcomes),
        "special.cells.circle": cells["circle"],
        "special.cells.level": cells["level"],
    }


def child_env(src: str) -> dict:
    """Environment of every child interpreter: the package from `src`,
    with bytecode caching on as in an ordinary install, so that timings
    do not depend on whether the caller's environment disables it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Workload:
    name = ""
    pin_cpu = True  # run on one CPU, where the calibration kernel runs too

    def __init__(self, seed: int, workdir: str, src: str):
        self.workdir = workdir

    def build(self):
        """In-process set-up: the same build the timed set-up children
        make."""

    def op(self, j: int):
        raise NotImplementedError

    def check(self, j: int, result) -> str:
        """Raise CheckFailed on a wrong result; return the op's outcome
        text for the digest."""
        raise NotImplementedError

    def counts(self, j: int, result) -> dict:
        return {}

    def setup_counts(self) -> dict:
        return {}


class SweepSfcm30(Workload):
    name = "sweep-sfcm30"
    models_per_run = 96
    n = 30
    experts = 5

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.generated = gen.sweep_models(seed, self.models_per_run,
                                          experts=self.experts, n=self.n)
        self.tokens = 0
        for m, model in enumerate(self.generated):
            _write(os.path.join(workdir, f"sweep-{m:03d}.model"), model.text)
            self.tokens += _scalar_tokens(model.text)
        for c in range(self.n):
            text = gen.single_concept_vector(self.experts, self.n, c)
            _write(os.path.join(workdir, f"concept-{c:03d}.vec"), text)
            self.tokens += _scalar_tokens(text)

    def build(self):
        self.models, self.vectors = setup_child.build(self.name,
                                                      self.workdir)

    def _input(self, j):
        # interleave the models so that every stretch of ops mixes them;
        # each model switches its concepts ON in turn
        m = j % len(self.models)
        return m, (j // len(self.models) + m) % self.n

    def op(self, j):
        m, c = self._input(j)
        return fuzzymaps.run(self.models[m], self.vectors[c])

    def check(self, j, pattern):
        m, c = self._input(j)
        checks.check_sweep(self.generated[m].matrices, c, pattern)
        return pattern.describe()

    def counts(self, j, pattern):
        m, _ = self._input(j)
        return pattern_counts(pattern, self.models[m].matrix)

    def setup_counts(self):
        return {"fileformats.scalar_tokens": self.tokens}


class PipelinePaper(Workload):
    name = "pipeline-paper"
    inputs = 256

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.runs = gen.paper_runs(self.name, seed, self.inputs)

    def op(self, j):
        run = self.runs[j % len(self.runs)]
        model_file = fuzzymaps.parse_model_text(run.model_text)
        x0 = fuzzymaps.parse_vector_text(run.vector_text)
        model = model_file.model
        pattern = fuzzymaps.run(model, x0)
        # the same call `fuzzymaps run --trace` makes
        text = fuzzymaps.render_trace(
            pattern, model.matrix, experts=model.experts,
            policy=fuzzymaps.OrderPolicy.BOOK_DEFAULT, threshold_k=0.0,
            model_class=model.model_class, name=model_file.name)
        verified = fuzzymaps.verify_trace(text)
        return model, pattern, text, verified

    def check(self, j, result):
        model, pattern, _text, verified = result
        checks.check_pipeline(model, pattern, verified)
        return pattern.describe()

    def counts(self, j, result):
        model, pattern, text, _ = result
        run = self.runs[j % len(self.runs)]
        out = pattern_counts(pattern, model.matrix)
        out["fileformats.scalar_tokens"] = (_scalar_tokens(run.model_text)
                                            + _scalar_tokens(run.vector_text))
        out["trace.bytes"] = len(text.encode("utf-8"))
        out["trace.scalar_tokens"] = _trace_scalar_tokens(text)
        return out


class FreMinimal(Workload):
    name = "fre-minimal"
    inputs = 100
    grid_points = 11 ** 5  # 0.1 grid over the 5 unknowns

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.systems = gen.fre_systems(seed, self.inputs)
        self.argvs = []
        for idx, system in enumerate(self.systems):
            q = _write(os.path.join(workdir, f"q-{idx:03d}.txt"),
                       system.q_text)
            r = _write(os.path.join(workdir, f"r-{idx:03d}.txt"),
                       system.r_text)
            self.argvs.append(["fre", "--matrix", q, "--target", r,
                               "--minimal"])
        self._solutions = {}

    def op(self, j):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = fuzzymaps.cli.main(self.argvs[j % len(self.argvs)])
        return rc, out.getvalue()

    def check(self, j, result):
        rc, stdout = result
        checks.check_fre(self.systems[j % len(self.systems)], rc, stdout)
        return stdout

    def counts(self, j, result):
        idx = j % len(self.systems)
        system = self.systems[idx]
        if idx not in self._solutions:
            self._solutions[idx] = checks.grid_solution_count(system)
        return {
            "fileformats.scalar_tokens": (_scalar_tokens(system.q_text)
                                          + _scalar_tokens(system.r_text)),
            "fre.grid_points": self.grid_points,
            "fre.grid_solutions": self._solutions[idx],
            "fre.minimal_found": sum(
                1 for line in result[1].splitlines()
                if line.startswith("minimal: ") and line != "minimal: none"),
            "fre.solvable": int(system.solvable),
        }


class CliCold(Workload):
    name = "cli-cold"
    inputs = 64
    # the op is a child process: on one CPU with the parent, each call
    # would also wait for the parent, and runs spread more than unpinned
    pin_cpu = False

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.env = child_env(src)
        self.runs = gen.paper_runs(self.name, seed, self.inputs)
        self.argvs = []
        for idx, run in enumerate(self.runs):
            model = _write(os.path.join(workdir, f"m-{idx:03d}.model"),
                           run.model_text)
            vec = _write(os.path.join(workdir, f"v-{idx:03d}.vec"),
                         run.vector_text)
            trace = os.path.join(workdir, f"t-{idx:03d}.trace")
            self.argvs.append(["run", "--model", model, "--input", vec,
                               "--trace", trace])

    def op(self, j):
        argv = self.argvs[j % len(self.argvs)]
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzymaps.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=60)
        return proc.returncode, proc.stdout

    def in_process(self, j) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            fuzzymaps.cli.main(self.argvs[j % len(self.argvs)])
        return out.getvalue()

    def _trace_text(self, j) -> str:
        with open(self.argvs[j % len(self.argvs)][-1],
                  encoding="utf-8") as handle:
            return handle.read()

    def check(self, j, result):
        rc, stdout = result
        if rc != 0:
            raise checks.CheckFailed("cli", f"child exited {rc}")
        checks.check_cli(rc, stdout, self.in_process(j), self._trace_text(j))
        return stdout

    def counts(self, j, result):
        run = self.runs[j % len(self.runs)]
        text = self._trace_text(j)
        steps = int(result[1].rsplit("steps: ", 1)[1])
        return {
            "dynamics.steps": steps,
            "dynamics.records": steps,
            "fileformats.scalar_tokens": (_scalar_tokens(run.model_text)
                                          + _scalar_tokens(run.vector_text)),
            "trace.bytes": len(text.encode("utf-8")),
            "trace.scalar_tokens": _trace_scalar_tokens(text),
        }


WORKLOADS = {w.name: w for w in (SweepSfcm30, PipelinePaper, FreMinimal,
                                 CliCold)}
