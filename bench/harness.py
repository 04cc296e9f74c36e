"""Runs one workload and prints its metrics.

Every workload is a closed loop with one caller and no threads: op j+1
starts when op j has returned and been checked. Only the op itself is
timed. An untraced run (`--trace 0`) reports the end-to-end metrics; a
traced run (`--trace 1`) alternates each input between an untraced and a
traced op, records spans around the calls into each layer of the traced
one, and reports the per-layer metrics plus the tracing overhead.

Gated op and set-up times are CPU times in reference milliseconds (see
calibration.py): each op's CPU time, its own and its child processes',
divided by that of a calibration kernel run just before and after it.
Wall-clock and raw CPU percentiles are printed in the report line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

from . import tracing
from .calibration import kernel_cpu_s, to_ref_ms
from .checks import CheckFailed
from .workloads import COUNTED, WORKLOADS, child_env

MIN_OPS = 100  # so that at least ten samples lie beyond the p90
HARD_CAP_S = 120.0  # a run stops here even short of MIN_OPS
SETUP_REPEATS = (3, 15)  # fewest and most set-ups per run
SETUP_BUDGET_S = 1.5  # wall time after which no further set-up starts
PROBE_REPEATS = 7
# calibration samples on each side of an op that its host-speed estimate
# takes the median of: one sample jitters, the host's phases last seconds
KERNEL_WINDOW = 4
APPLY_PART_RECORDS = 400  # special.apply_part calls kept for the replay
MAX_LOGGED_FAILURES = 3
# span-name prefixes of the layers each in-process workload exists to load
LOADED_LAYERS = {"sweep-sfcm30": ("dynamics.", "special."),
                 "pipeline-paper": ("fileformats.", "trace."),
                 "fre-minimal": ("fre.minimal",)}
# op ids of spans outside the loop's ops, which are numbered from 0
SETUP_OP, PROBE_OP = -2, -3

END_TO_END_UNITS = {"ops_per_ref_s": "1/s", "op_ref_ms_p50": "ms",
                    "op_ref_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

COUNT_METRICS = (
    "dynamics.steps", "dynamics.component_steps", "dynamics.records",
    "special.cells.circle", "special.cells.level",
    "fileformats.scalar_tokens", "trace.bytes", "trace.scalar_tokens",
    "fre.grid_points", "fre.grid_solutions", "fre.minimal_found",
    "fre.solvable")

# Timings the traced run reports where the workload reaches the layer.
NAMED_TIMINGS = (
    "models.run.ms", "fileformats.parse_model_text.ms",
    "fileformats.parse_vector_text.ms", "fileformats.parse_matrix_text.ms",
    "trace.render_trace.ms", "trace.parse_trace.ms", "trace.verify_trace.ms",
    "trace.verify_trace.self_ms", "fre.solve_max.ms",
    "fre.failing_columns.ms", "fre.minimal.ms",
    "matrices.maxmin_compose.ms", "cli.main.ms", "dynamics.ns_per_cell",
    "special.apply_part.ns_per_cell.circle_fuzzy",
    "special.apply_part.ns_per_cell.circle_neutro",
    "special.apply_part.ns_per_cell.maxmin",
    "special.apply_part.ns_per_cell.minmax")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def cpu_now() -> float:
    """CPU seconds used so far by this process and its waited-for
    children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _child_setup_s(argv, env) -> float:
    """Reference seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    setup, kernel = map(float, proc.stdout.split())
    return to_ref_ms(setup, kernel) / 1e3


def timed_setups(name: str, workdir: str, src: str) -> list:
    """Reference seconds of each fresh-interpreter set-up, after an
    untimed import that fills the bytecode cache. Cheap set-ups repeat
    more often, so that their median is as steady as a costly one's."""
    script = os.path.join(os.path.dirname(__file__), "setup_child.py")
    env = child_env(src)
    subprocess.run([sys.executable, "-c", "import fuzzymaps.cli"], env=env,
                   check=True, timeout=60)
    argv = [sys.executable, script, name, workdir]
    fewest, most = SETUP_REPEATS
    out = []
    start = time.perf_counter()
    while len(out) < fewest or (
            len(out) < most
            and time.perf_counter() - start < SETUP_BUDGET_S):
        out.append(_child_setup_s(argv, env))
    return out


def startup_probes(env) -> dict:
    """Reference ms of a bare interpreter and of one importing the CLI,
    run alternately so that drift in the host's speed hits both alike."""
    bare, loaded = [], []
    for _ in range(PROBE_REPEATS):
        for code, out in (("pass", bare), ("import fuzzymaps.cli", loaded)):
            kernel = kernel_cpu_s()
            cpu = cpu_now()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, timeout=60)
            cpu = cpu_now() - cpu
            out.append(to_ref_ms(cpu, (kernel + kernel_cpu_s()) / 2))
    floor = statistics.median(bare)
    return {"cli.interpreter_ms": floor,
            "cli.import_ms": statistics.median(loaded) - floor}


class Run:
    """Loop state: op times, failures, digest and counts."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        # (cpu s, wall s, kernel cpu s before, after) per op, untraced
        # and traced
        self.times = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.layer_failed = Counter()
        self.digest = hashlib.sha256()
        self.counted = Counter(workload.setup_counts())
        self.all_cells = 0

    def ref_ms(self, traced=False):
        """Op CPU times in reference ms, each scaled by the median of the
        calibration samples around it."""
        times = self.times[traced]
        kernels = [k for t in times for k in t[2:]]
        out = []
        for i, (cpu, _wall, _before, _after) in enumerate(times):
            centre = 2 * i + 1  # index of the op's own after-sample
            window = kernels[max(0, centre - KERNEL_WINDOW):
                             centre + KERNEL_WINDOW]
            out.append(to_ref_ms(cpu, statistics.median(window)))
        return out

    def column(self, idx, traced=False):
        return [t[idx] for t in self.times[traced]]

    def _log(self, j, exc):
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"op {j} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)

    def one(self, j: int, traced: bool):
        """Run, time and check op j once."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        kernel = kernel_cpu_s()
        wall, cpu = time.perf_counter(), cpu_now()
        try:
            if tracer is None:
                result = self.w.op(j)
            else:
                tracer.op = j
                with tracer.patched(), tracer.span("bench.op"):
                    result = self.w.op(j)
        except Exception as exc:  # a failed op is counted, not fatal
            self._record(traced, cpu, wall, kernel)
            self.failed += 1
            if traced:
                self.layer_failed[self._failed_layer(j)] += 1
            self._log(j, exc)
            return
        self._record(traced, cpu, wall, kernel)
        try:
            text = self.w.check(j, result)
        except CheckFailed as exc:
            self.failed += 1
            self.layer_failed[exc.layer] += 1
            self._log(j, exc)
            return
        except Exception as exc:  # a crashing check is a failed check too
            self.failed += 1
            self._log(j, exc)
            return
        if j < COUNTED and (traced or self.tracer is None):
            self.digest.update(text.encode("utf-8") + b"\n")
        if traced:
            counts = self.w.counts(j, result)
            self.all_cells += (counts.get("special.cells.circle", 0)
                               + counts.get("special.cells.level", 0))
            if j < COUNTED:
                self.counted.update(counts)

    def _record(self, traced, cpu, wall, kernel_before):
        cpu, wall = cpu_now() - cpu, time.perf_counter() - wall
        # the calibration kernel brackets the op: run just before and
        # just after it, so a change of host speed during the op is seen
        self.times[traced].append((cpu, wall, kernel_before, kernel_cpu_s()))

    def _failed_layer(self, j) -> str:
        failed = [s for s in self.tracer.spans if s.op == j and not s.ok]
        return max(failed, key=lambda s: s.start).layer if failed \
            else "bench"

    def loop(self, seconds: float):
        start = time.perf_counter()
        target = MIN_OPS if self.tracer is None else COUNTED
        j = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and j >= target):
                break
            self.one(j, traced=False)
            if self.tracer is not None:
                self.one(j, traced=True)
            j += 1


def end_to_end(run: Run, setups: list, workload_name: str) -> dict:
    ref = run.ref_ms()
    who = (resource.RUSAGE_CHILDREN if workload_name == "cli-cold"
           else resource.RUSAGE_SELF)
    return {
        "ops_per_ref_s": len(ref) / sum(ref) * 1e3,
        "op_ref_ms_p50": statistics.median(ref),
        "op_ref_ms_p90": p90(ref),
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def _replay(calls) -> dict:
    """ns per inner cell of special.apply_part per operator family,
    replaying recorded (state, matrix) pairs through the public call."""
    from fuzzymaps.special import apply_part

    groups = {}
    for args in calls:
        mat, op = args[1], args[2]
        family = op
        if op == "circle":
            family = ("circle_neutro" if mat.domain.neutrosophic
                      else "circle_fuzzy")
        groups.setdefault(family, []).append(args)
    out = {}
    for family, group in sorted(groups.items()):
        cells = sum(a[1].rows * a[1].cols for a in group)
        start = time.perf_counter()
        for args in group:
            apply_part(*args)
        elapsed = time.perf_counter() - start
        out[f"special.apply_part.ns_per_cell.{family}"] = elapsed / cells * 1e9
    return out


def per_layer(run: Run, env, workload) -> tuple:
    """(metrics for the result line, extra timings for the report)."""
    tracer = run.tracer
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    loop_ids = [i for i, s in enumerate(spans) if s.op >= 0]
    roots = sum(spans[i].end - spans[i].start for i in loop_ids
                if spans[i].parent < 0)
    layer_self = Counter()
    for i in loop_ids:
        layer_self[spans[i].layer] += selfs[i]
    traced_ops = len(run.times[True])

    metrics = {name: (run.counted.get(name, 0), "count")
               for name in COUNT_METRICS}
    slots = run.counted.get("dynamics.slots", 0)
    metrics["dynamics.frozen_share"] = (
        run.counted.get("dynamics.frozen_slots", 0) / slots if slots else 0,
        "ratio")
    points = run.counted.get("fre.grid_points", 0)
    metrics["fre.hit_ratio"] = (
        run.counted.get("fre.grid_solutions", 0) / points if points else 0,
        "ratio")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_pct"] = (
            100 * layer_self[layer] / roots if roots else 0, "%")
        metrics[f"{layer}.failed"] = (run.layer_failed[layer], "count")
    metrics["trace_overhead"] = (
        statistics.fmean(run.ref_ms(True)) / statistics.fmean(run.ref_ms()),
        "ratio")
    startup = startup_probes(env)
    for name, value in startup.items():
        metrics[name] = (value, "ms")

    # inclusive ms per op of every span name, per phase
    timings = {}
    for phase, ids, per in (
            ("loop", loop_ids, traced_ops),
            ("setup", [i for i, s in enumerate(spans) if s.op == SETUP_OP],
             1),
            ("probe", [i for i, s in enumerate(spans) if s.op == PROBE_OP],
             PROBE_REPEATS)):
        totals = Counter()
        for i in ids:
            totals[f"{spans[i].name}.ms"] += spans[i].end - spans[i].start
            if spans[i].name == "trace.verify_trace":
                totals["trace.verify_trace.self_ms"] += selfs[i]
        if totals:
            timings[phase] = {name: t / per * 1e3
                              for name, t in sorted(totals.items())}
    # a cold CLI call runs in a child, so its layers come from the
    # in-process probes
    source = timings.get("probe" if workload.name == "cli-cold" else "loop",
                         {})
    named = {k: v for k, v in source.items() if k in NAMED_TIMINGS}
    run_s = sum(spans[i].end - spans[i].start for i in loop_ids
                if spans[i].name == "models.run")
    if run.all_cells:
        named["dynamics.ns_per_cell"] = run_s / run.all_cells * 1e9
    named.update(_replay(tracer.apply_part_calls))

    def top_level(prefixes):
        # spans of these layers not nested in another span of them
        return sum(spans[i].end - spans[i].start for i in loop_ids
                   if spans[i].name.startswith(prefixes)
                   and not (spans[i].parent >= 0 and spans[
                       spans[i].parent].name.startswith(prefixes)))

    # the share of op time in the layers each workload is meant to load
    if workload.name == "cli-cold":
        share = {"cli.interpreter+import": 100 * sum(startup.values())
                 / statistics.median(run.ref_ms())}
    else:
        prefixes = LOADED_LAYERS[workload.name]
        name = "+".join(p.rstrip(".") for p in prefixes)
        share = {name: 100 * top_level(prefixes) / roots}
    report = {
        "share_pct": share,
        "timings": named,
        "not_reached": [k for k in NAMED_TIMINGS if k not in named],
        "spans_ms": timings,
        "op_ref_ms_p50_traced": statistics.median(run.ref_ms(True)),
    }
    return metrics, report


def cli_main_probes(workload, tracer):
    """In-process `cli.main` on the first argvs, traced, for the layer
    split of a CLI call."""
    tracer.op = PROBE_OP
    with tracer.patched():
        for j in range(PROBE_REPEATS):
            workload.in_process(j)


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU, so that
    the calibration kernel always runs where the op ran."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # the host does not allow it; calibration still applies


def main(args, root: str, src: str) -> int:
    cls = WORKLOADS[args.workload]
    if cls.pin_cpu:
        pin_to_one_cpu()
    env_block = environment()
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = cls(args.seed, workdir, src)
        setups = timed_setups(args.workload, workdir, src)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(record_apply_part=APPLY_PART_RECORDS)
            tracer.op = SETUP_OP
            with tracer.patched():
                workload.build()
        else:
            workload.build()
        run = Run(workload, tracer)
        run.loop(args.seconds)
        if tracer is not None:
            if args.workload == "cli-cold":
                cli_main_probes(workload, tracer)
            metrics, report = per_layer(run, child_env(src), workload)
        else:
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(run, setups,
                                              args.workload).items()}
            report = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    report.update({
        "workload": args.workload, "seed": args.seed,
        "trace": int(args.trace), "environment": env_block,
        "samples": len(run.times[False]),
        "traced_samples": len(run.times[True]),
        "op_wall_ms_p50": statistics.median(run.column(1)) * 1e3,
        "op_wall_ms_p90": p90(run.column(1)) * 1e3,
        "op_cpu_ms_p50": statistics.median(run.column(0)) * 1e3,
        "kernel_ms_p50": statistics.median(run.column(2)) * 1e3,
        "failed_frac": run.failed / max(run.attempted, 1),
        "outcome_digest": run.digest.hexdigest(),
        "setup_s_samples": setups,
    })
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# {args.workload} failed_frac = {report['failed_frac']:.6g} "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({"report": report}, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1
