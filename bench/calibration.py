"""The benchmark's unit of time: a fixed piece of pure-Python work.

The host this benchmark was built on is a small shared machine whose
speed swings by up to 2x in phases lasting seconds, while the ops take
10-250 ms. Timing the same ops minutes apart on the wall clock, or on CPU
time, spreads by 10-25 %. So `kernel()` runs just before and just after
each op, and the op's CPU time is reported in reference milliseconds:

    op_ref_ms = op_cpu_s / kernel_cpu_s * KERNEL_REF_MS

where kernel_cpu_s is the median of the kernel runs nearest the op: the
op's CPU time on a machine exactly as fast as the one where the kernel
takes KERNEL_REF_MS. With the kernel measured next to each op, the median
of the same ops repeats within a few per cent.

The kernel does the kind of work the package does - small immutable
objects, method calls, float arithmetic, tuple and dict traffic - and
never calls the package, so a change to the package cannot move it.
"""

import time

KERNEL_REF_MS = 1.1  # kernel CPU time on the reference host, unloaded


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a,
                     self.a * other.b + self.b * other.a + self.b * other.b)

    def add(self, other):
        return _Pair(self.a + other.a, self.b + other.b)


def kernel(n: int = 1500) -> float:
    xs = [_Pair(float(i % 3 - 1), float(i % 2)) for i in range(64)]
    acc = _Pair(0.0, 0.0)
    seen = {}
    for i in range(n):
        acc = acc.add(xs[i & 63].mul(xs[(i * 7) & 63]))
        seen[i & 127] = (acc.a, i)
    return acc.a + len(seen)


def kernel_cpu_s() -> float:
    """CPU seconds of one kernel run in this process."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def to_ref_ms(cpu_s: float, kernel_s: float) -> float:
    return cpu_s / kernel_s * KERNEL_REF_MS
