"""Per-call microbenchmarks of the spectral layer and the generator.

Each function runs on seeded inputs at dims 2, 4, 8 and 16; the metric is
the median over a few batches of the mean time per call, in microseconds.
A bare ``numpy.linalg.eigh`` is the floor that ``decompose`` builds on.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

DIMS = (2, 4, 8, 16)
BATCHES = 5
BATCH_S = 0.01


def _per_call_us(fn, args) -> float:
    calls = 1
    while True:  # size a batch to about BATCH_S
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        elapsed = time.perf_counter() - t0
        if elapsed >= BATCH_S / 4:
            break
        calls *= 4
    calls = max(1, int(calls * BATCH_S / elapsed))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(samples)


def run(seed: int) -> dict:
    from loewner_lab.generate import SplitMix64, derive_seed, random_orthogonal, random_spd
    from loewner_lab.means import geometric
    from loewner_lab.spectral import decompose, matrix_function

    out = {}
    for dim in DIMS:
        A = random_spd(dim, 0.25, 4.0, derive_seed(seed, 1, dim))
        B = random_spd(dim, 0.25, 4.0, derive_seed(seed, 2, dim))
        rng = SplitMix64(derive_seed(seed, 3, dim))
        cases = {
            "spectral.decompose": (decompose, (A,)),
            "spectral.eigh": (np.linalg.eigh, (A.data,)),
            "spectral.matrix_function": (matrix_function, (A, math.sqrt)),
            "generate.random_orthogonal": (random_orthogonal, (dim, rng)),
            "means.geometric": (geometric, (A, B)),
        }
        for name, (fn, args) in cases.items():
            out[f"{name}.us.d{dim}"] = (_per_call_us(fn, args), "us")
    return out
