"""One timed set-up, run in a fresh interpreter.

    python setup_child.py <workload> <workdir>

Prints the CPU seconds from just before `import fuzzymaps` until
everything the workload's ops consume is built from the files in
<workdir>, then the median CPU seconds of three calibration kernel runs
right after.
The benchmark runs this several times and reports the median, in
reference seconds, as `setup_s`.
"""

import sys
import time


def build(workload: str, workdir: str):
    """Import the package and build the op inputs from their text files.
    Returns what the ops consume (None when they consume files)."""
    import os

    import fuzzymaps

    if workload in ("fre-minimal", "cli-cold"):
        import fuzzymaps.cli  # noqa: F401  the ops enter through the CLI
    if workload != "sweep-sfcm30":
        return None
    names = sorted(os.listdir(workdir))

    def read(name):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            return handle.read()

    models = [fuzzymaps.parse_model_text(read(n)).model
              for n in names if n.endswith(".model")]
    vectors = [fuzzymaps.parse_vector_text(read(n))
               for n in names if n.endswith(".vec")]
    return models, vectors


if __name__ == "__main__":
    start = time.process_time()
    build(sys.argv[1], sys.argv[2])
    elapsed = time.process_time() - start
    import statistics

    import calibration

    kernel = statistics.median(calibration.kernel_cpu_s() for _ in range(3))
    print(repr(elapsed), repr(kernel))
