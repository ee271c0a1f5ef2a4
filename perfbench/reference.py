#!/usr/bin/env python3
"""Machine-speed reference: a fixed kernel in a process of its own.

    python3 perfbench/reference.py

``run.py`` starts one of these per run, with the BLAS thread count set
explicitly and without dropcap on the path, and sends it a line every
``spec.REFERENCE_EVERY_S`` seconds between problems.  It answers every
line with the kernel's wall time in seconds, and exits when its input
closes.  The kernel is the dense pipeline in plain numpy/scipy: it builds
the 1/r matrix of a fixed cloud of ``spec.REFERENCE_N`` points, LU-factors
it and solves once.  That is elementwise work on an n^2 array, then
BLAS-3, the same mix as an assemble and a dense solve.

It shares no thread pool, heap or environment setting with the
benchmarked code, so only the machine can move its times.
"""

import sys
import time

import numpy as np
import scipy.linalg

import spec


def main() -> int:
    points = np.random.default_rng(0).standard_normal((spec.REFERENCE_N, 3))
    rhs = np.ones(spec.REFERENCE_N)

    def kernel():
        dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
        np.fill_diagonal(dist, 1.0)
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(1.0 / dist), rhs)

    kernel()  # untimed: starts the BLAS threads and maps the buffers
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
