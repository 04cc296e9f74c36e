"""Seeded input generators.

Each generator draws from its own `random.Random`, seeded by a namespace
string and the workload seed, so the same seed always yields byte-identical
model, vector and matrix text. The program only ever sees that text (or
files holding it); the plain-integer data returned beside it feeds the
benchmark's independent output checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rng_for(namespace: str, seed: int) -> random.Random:
    return random.Random(f"{namespace}/{seed}")


def tenths(t: int) -> str:
    """Text for the grid value t/10 (t in 0..10)."""
    if t == 0:
        return "0"
    if t == 10:
        return "1"
    return f"0.{t}"


def vector_text(parts) -> str:
    """Vector file text: one `domain` line per component part."""
    return "".join("domain " + " ".join(map(str, p)) + "\n" for p in parts)


# ------------------------------------------------------------ SFCM sweep

@dataclass(frozen=True)
class SweepModel:
    text: str
    matrices: tuple  # per expert: tuple of rows of ints in {-1, 0, 1}


def sweep_models(seed: int, count: int, *, experts: int = 5, n: int = 30,
                 density: float = 0.1) -> tuple:
    """`count` SFCM unions of `experts` signed n x n maps with a zero
    diagonal; each off-diagonal cell is nonzero with probability
    `density`, with either sign equally likely."""
    rng = rng_for("sweep-sfcm30", seed)
    out = []
    for m in range(count):
        lines = [f"model SFCM sweep-{m + 1}"]
        mats = []
        for e in range(experts):
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    v = 0
                    if i != j and rng.random() < density:
                        v = 1 if rng.random() < 0.5 else -1
                    row.append(v)
                rows.append(tuple(row))
            mats.append(tuple(rows))
            lines.append(f"component {e + 1} CM fuzzy circle tri {n}x{n}")
            lines.append(f"expert expert {e + 1}")
            lines.extend(" ".join(map(str, r)) for r in rows)
        lines.append("end")
        out.append(SweepModel("\n".join(lines) + "\n", tuple(mats)))
    return tuple(out)


def single_concept_vector(experts: int, n: int, concept: int) -> str:
    part = [1 if i == concept else 0 for i in range(n)]
    return vector_text([part] * experts)


# ------------------------------------------------- paper-scale SSHM runs

@dataclass(frozen=True)
class PaperRun:
    model_text: str
    vector_text: str


def _paper_component(rng, idx):
    kind = "CM" if rng.random() < 0.5 else "RM"
    algebra = "fuzzy" if rng.random() < 0.5 else "neutrosophic"
    op = rng.choice(("circle", "circle", "maxmin", "minmax"))
    rows = rng.randrange(4, 10)
    cols = rows if kind == "CM" else rng.randrange(4, 10)
    if op == "circle":
        domain = "tri" if algebra == "fuzzy" else "neutro-tri"
    else:
        domain = "unit" if algebra == "fuzzy" else "neutro-unit"
    grid = []
    for i in range(rows):
        row = []
        for j in range(cols):
            if op == "circle":
                if kind == "CM" and i == j:
                    row.append("0")
                    continue
                u = rng.random()
                if u < 0.15:
                    row.append("1")
                elif u < 0.25:
                    row.append("-1")
                elif algebra == "neutrosophic" and u < 0.32:
                    row.append("I")
                else:
                    row.append("0")
            else:
                t = rng.randrange(11)
                # neutrosophic memberships stay real or pure multiples of
                # I: a mixed a+bI has no order for max/min
                if algebra == "neutrosophic" and rng.random() < 0.15:
                    row.append("I" if t in (0, 10) else f"0.{t}I")
                else:
                    row.append(tenths(t))
        grid.append(" ".join(row))
    header = (f"component {idx + 1} {kind} {algebra} {op} {domain} "
              f"{rows}x{cols}")
    return [header, f"expert expert {idx + 1}"] + grid, rows


def paper_runs(namespace: str, seed: int, count: int, *,
               experts: int = 6) -> tuple:
    """`count` SSHM unions at the paper's scale (4-9 nodes per side)
    mixing CM/RM, fuzzy/neutrosophic and circle/maxmin/minmax components,
    each with a domain-side seed switching 1-2 coordinates ON per part."""
    rng = rng_for(namespace, seed)
    out = []
    for m in range(count):
        lines = [f"model SSHM paper-{m + 1}"]
        parts = []
        for e in range(experts):
            comp_lines, width = _paper_component(rng, e)
            lines.extend(comp_lines)
            on = rng.sample(range(width), rng.randrange(1, 3))
            parts.append([1 if i in on else 0 for i in range(width)])
        lines.append("end")
        out.append(PaperRun("\n".join(lines) + "\n", vector_text(parts)))
    return tuple(out)


# ------------------------------------------- max-min relational equations

@dataclass(frozen=True)
class FreSystem:
    q_text: str
    r_text: str
    q: tuple  # rows of ints, tenths
    r: tuple  # ints, tenths
    solvable: bool


def maxmin_tenths(p, q) -> tuple:
    """r_k = max_j min(p_j, q_jk) on integer tenths."""
    return tuple(max(min(pj, row[k]) for pj, row in zip(p, q))
                 for k in range(len(q[0])))


def max_solution_tenths(q, r) -> tuple:
    """Sanchez's greatest candidate p-hat_j = min_k (r_k if q_jk > r_k
    else 1), on integer tenths."""
    return tuple(min(rk if qjk > rk else 10 for qjk, rk in zip(row, r))
                 for row in q)


def fre_systems(seed: int, count: int, *, m: int = 5) -> tuple:
    """`count` grid-valued systems p o Q = r with Q of size m x (4..8).
    Even-numbered systems are solvable by construction (r = p o Q for a
    random grid p); odd-numbered ones get a random r, redrawn until no
    solution exists. Shapes cycle through 4..8 columns in pairs, so every
    stretch of ten systems holds each shape once solvable and once not."""
    rng = rng_for("fre-minimal", seed)
    out = []
    for idx in range(count):
        cols = 4 + (idx // 2) % 5
        q = tuple(tuple(rng.randrange(11) for _ in range(cols))
                  for _ in range(m))
        solvable = idx % 2 == 0
        if solvable:
            r = maxmin_tenths([rng.randrange(11) for _ in range(m)], q)
        else:
            while True:
                r = tuple(rng.randrange(11) for _ in range(cols))
                if maxmin_tenths(max_solution_tenths(q, r), q) != r:
                    break
        q_text = "".join(" ".join(map(tenths, row)) + "\n" for row in q)
        r_text = " ".join(map(tenths, r)) + "\n"
        out.append(FreSystem(q_text, r_text, q, r, solvable))
    return tuple(out)
