"""Time a fixed reference kernel on request, to track the machine's speed.

    python3 perfbench/calib.py

``perfbench/worker.py`` starts one of these next to the workload and writes
a line to its standard input between timed operations (never during one).
It prints ``ready`` once warmed up. For each line it then runs the kernel
once and prints the duration of each part in seconds, and it exits when
its standard input closes. The kernel never changes and imports nothing
from ``msseg``, so its duration moves only with the machine: how fast the
shared cores and memory run at that moment. Running it in its
own process keeps it out of whatever thread or allocator state the program
under test sets up.

The kernel has three parts, timed apart: ``blas`` (matrix products of
conv-sized im2col operands, with numpy's default threading, as the program
uses), ``py`` (small-array numpy calls and dict updates, like the per-op
overhead of a small model) and ``mem`` (streaming passes over arrays far
larger than the caches, like the big activations of the full model).
"""

from __future__ import annotations

import sys
import time

import numpy as np

RNG = np.random.default_rng(0)
A = RNG.standard_normal((256, 1152))
B = RNG.standard_normal((1152, 1024))
SMALL = [RNG.standard_normal((8, 8, 16, 16)) for _ in range(4)]
BIG = [RNG.standard_normal(1 << 23) for _ in range(2)]  # 64 MiB each
PARTS = ("blas", "py", "mem")


def blas() -> None:
    for _ in range(12):
        A @ B


def py() -> None:
    acc = 0.0
    for i in range(2400):
        x = SMALL[i % 4] * 1.5 + SMALL[(i + 1) % 4]
        acc += float(np.maximum(x, 0.0).sum())
        d = {}
        for j in range(40):
            d[j] = j * i


def mem() -> None:
    for _ in range(6):
        np.add(BIG[0], BIG[1], out=BIG[0])
        BIG[0] *= 0.5


def kernel() -> list[float]:
    """The duration of each part, in PARTS order."""
    out = []
    for part in (blas, py, mem):
        t0 = time.perf_counter()
        part()
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    kernel()  # warm-up: page in the operands and start the BLAS threads
    print("ready", flush=True)
    for _ in sys.stdin:
        print(" ".join(repr(d) for d in kernel()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
