"""Kernel sweep of the matrix layer, run at the end of every traced run.

At each dimension (default q, n_cap=64) it times ``sample_matrix``, one
matvec, a 64-column matmat (per vector) and ``prefix_col_sq_norms`` for half
the rows, and reports the CSC size.  Bytes moved per matvec are computed,
not measured: nnz * 12 (a float64 value and an int32 row index per stored
entry) plus 2 * d * 8 (input and output vectors).  The GB/s figure divides
that computed count by the measured matvec time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from modsketch import block_random

DIMS = (2070, 4176, 8211)
N_CAP = 64
DRAWS, MATVECS, MATMATS, PREFIXES = 3, 15, 3, 3
BATCH = 64


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def sweep(seed: int) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    rng = np.random.default_rng([seed, 6])
    for d_req in DIMS:
        params = block_random.auto_params(d_req, N_CAP)
        d = params.d
        mat, draws = None, []
        for r in range(DRAWS):
            mat = None  # at most one matrix alive at a time
            t0 = time.perf_counter()
            mat = block_random.sample_matrix(params, f"bench-kernel:{seed}:{r}")
            draws.append((time.perf_counter() - t0) * 1e3)
        x = rng.standard_normal(d)
        xs = rng.standard_normal((d, BATCH))
        matvec_ms = _median_ms(lambda: mat.matvec(x), MATVECS)
        csc = mat.csc
        computed = csc.nnz * 12 + 2 * d * 8
        out[f"block_random.sample_matrix.d{d}"] = (statistics.median(draws), "ms")
        out[f"block_random.matvec.d{d}"] = (matvec_ms, "ms")
        out[f"block_random.matmat64_per_vector.d{d}"] = (_median_ms(lambda: mat.matvec(xs), MATMATS) / BATCH, "ms")
        out[f"block_random.prefix_col_sq_norms.d{d}"] = (
            _median_ms(lambda: mat.prefix_col_sq_norms(d // 2), PREFIXES), "ms")
        out[f"block_random.csc_mb.d{d}"] = ((csc.data.nbytes + csc.indices.nbytes + csc.indptr.nbytes) / 1e6, "MB")
        out[f"block_random.matvec_bytes_computed.d{d}"] = (computed, "B")
        out[f"block_random.matvec_gbps_computed.d{d}"] = (computed / (matvec_ms / 1e3) / 1e9, "GB/s")
    return out
