"""Output checks. Each raises CheckFailed naming the layer at fault.

The checks recompute what they can without the package: the SFCM step and
the relational-equation maximum solution are re-implemented here on
integers. Where the benchmark relies on the package (trace verification,
one explicit step through `special.apply_part`), it calls the public
function, not the engine's own check.
"""

from __future__ import annotations

from fuzzymaps import FixedPoint, ONE, ThresholdMode, verify_trace
from fuzzymaps.special import CM, apply_part
from fuzzymaps.values import threshold_scalar

from .gen import max_solution_tenths, maxmin_tenths


class CheckFailed(Exception):
    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


# ---------------------------------------------------------------- sweep

def _crisp(state) -> tuple:
    out = []
    for v in state:
        if v.indet_coeff != 0.0 or v.real_part not in (0.0, 1.0):
            raise CheckFailed("dynamics", f"non-crisp state entry {v}")
        out.append(int(v.real_part))
    return tuple(out)


def fcm_step(state, matrix, seed_on: int) -> tuple:
    """raw_j = sum_i x_i * m_ij, cut at > 0, then pin the seed concept."""
    n = len(state)
    out = [1 if sum(state[i] * matrix[i][j] for i in range(n)
                    if state[i]) > 0 else 0 for j in range(n)]
    out[seed_on] = 1
    return tuple(out)


def check_sweep(matrices, concept: int, pattern):
    """Every reported fixed point maps to itself and every limit cycle
    closes with its reported period, under an integer re-implementation
    of the fuzzy circle step."""
    if len(pattern.outcomes) != len(matrices):
        raise CheckFailed("dynamics", f"{len(pattern.outcomes)} outcomes "
                          f"for {len(matrices)} components")
    for idx, (outcome, mat) in enumerate(zip(pattern.outcomes, matrices)):
        where = f"component {idx + 1}"
        if isinstance(outcome, FixedPoint):
            states = (_crisp(outcome.state),)
        else:
            states = tuple(_crisp(s) for s in outcome.states)
            if outcome.period != len(states) or len(set(states)) != len(
                    states):
                raise CheckFailed("dynamics", f"{where}: cycle of "
                                  f"{len(states)} states reports period "
                                  f"{outcome.period}")
        for t, state in enumerate(states):
            expected = states[(t + 1) % len(states)]
            if fcm_step(state, mat, concept) != expected:
                raise CheckFailed("dynamics", f"{where}: state {t + 1} of "
                                  f"the reported pattern does not step to "
                                  f"the next one")


# ------------------------------------------------------------- pipeline

def check_pipeline(model, pattern, verified):
    """The trace verifies to the run's own outcomes, and each CM fixed
    point maps to itself under one public apply -> cut -> pin step."""
    if tuple(verified) != pattern.outcomes:
        raise CheckFailed("trace", "verify_trace returned other outcomes "
                          "than the run")
    for idx, ((mat, tag), outcome) in enumerate(
            zip(model.matrix, pattern.outcomes)):
        if tag.kind != CM or not isinstance(outcome, FixedPoint):
            continue
        state = outcome.state
        nxt = apply_part(state, mat, tag.op)
        if tag.op == "circle":
            mode = ThresholdMode(tag.algebra, 0.0)
            nxt = [threshold_scalar(v, mode) for v in nxt]
            for i, v in enumerate(pattern.input.parts[idx]):
                if v == ONE:
                    nxt[i] = ONE
        if tuple(nxt) != state:
            raise CheckFailed("dynamics", f"component {idx + 1}: fixed "
                              f"point does not map to itself")


def verified_outcomes(trace_text: str):
    """verify_trace, with its failure reported against the trace layer."""
    try:
        return verify_trace(trace_text)
    except Exception as exc:  # any failure to verify fails the check
        raise CheckFailed("trace", f"trace does not verify: {exc}") from exc


# ------------------------------------------------------------------ fre

def _tenths_row(line: str, prefix: str) -> tuple:
    out = []
    for token in line[len(prefix):].split():
        try:
            value = float(token)
        except ValueError:
            raise CheckFailed("fre", f"bad number {token!r}") from None
        t = round(value * 10)
        if abs(t / 10 - value) > 1e-12:
            raise CheckFailed("fre", f"{prefix.strip()} value {token} is "
                              f"off the 0.1 grid")
        out.append(t)
    return tuple(out)


def check_fre(system, rc: int, stdout: str):
    """The printed maximum solution equals an independently computed
    p-hat, the solvable flag matches the construction, and every printed
    minimal vector solves the system, lies under p-hat and is
    incomparable with the others."""
    if rc != 0:
        raise CheckFailed("cli", f"fre exited {rc}")
    lines = stdout.splitlines()
    p_hat = max_solution_tenths(system.q, system.r)
    if not lines or not lines[0].startswith("max-solution: "):
        raise CheckFailed("fre", "no max-solution line")
    if _tenths_row(lines[0], "max-solution: ") != p_hat:
        raise CheckFailed("fre", f"max-solution {lines[0]!r} differs from "
                          f"p-hat {p_hat}")
    expected = "solvable: yes" if system.solvable else "solvable: no"
    if expected not in lines:
        raise CheckFailed("fre", f"expected {expected!r}")
    minimal = [line for line in lines if line.startswith("minimal: ")]
    if not system.solvable:
        if minimal != ["minimal: none"]:
            raise CheckFailed("fre", "unsolvable system must print "
                              "`minimal: none`")
        return 0
    if not minimal or "minimal: none" in minimal:
        raise CheckFailed("fre", "solvable system printed no minimal "
                          "solution")
    vecs = [_tenths_row(line, "minimal: ") for line in minimal]
    for p in vecs:
        if maxmin_tenths(p, system.q) != system.r:
            raise CheckFailed("fre", f"minimal {p} does not solve p o Q = r")
        if any(a > b for a, b in zip(p, p_hat)):
            raise CheckFailed("fre", f"minimal {p} exceeds p-hat {p_hat}")
    for i, a in enumerate(vecs):
        for b in vecs[i + 1:]:
            if all(x <= y for x, y in zip(a, b)) or all(
                    x >= y for x, y in zip(a, b)):
                raise CheckFailed("fre", f"minimal vectors {a} and {b} "
                                  f"are comparable")
    return len(vecs)


def grid_solution_count(system) -> int:
    """Number of grid points p (entries in tenths) solving the
    system, by inclusion-exclusion over the columns: below p-hat every
    point reaches at most r, and it solves when each column k is hit by
    some j with min(p_j, q_jk) = r_k."""
    q, r = system.q, system.r
    p_hat = max_solution_tenths(q, r)
    cols = len(r)
    total = 0
    for subset in range(1 << cols):
        missed = [k for k in range(cols) if subset >> k & 1]
        prod = 1
        for j, row in enumerate(q):
            prod *= sum(1 for v in range(p_hat[j] + 1)
                        if all(min(v, row[k]) != r[k] for k in missed))
        total += -prod if len(missed) % 2 else prod
    return total


# -------------------------------------------------------------- cli-cold

def check_cli(rc: int, stdout: str, in_process_stdout: str,
              trace_text: str):
    """Exit code 0, stdout byte-equal to the in-process run of the same
    argv, and the written trace verifies."""
    if rc != 0:
        raise CheckFailed("cli", f"child exited {rc}")
    if stdout != in_process_stdout:
        raise CheckFailed("cli", "child stdout differs from in-process "
                          "cli.main")
    verified_outcomes(trace_text)
