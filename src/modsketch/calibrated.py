"""Calibration: the noise profiles of the matrix family, the delta(d) fit, and
the committed constants.

The theory leaves every constant unspecified (deviations are O(...) only), so
the constants below were fixed once by measurement and are committed rather
than recomputed per run.  They come from `modsketch calibrate` style sweeps:
120-trial noise profiles at the default activation probability over
d in {546, 1092, 2070, 4176}, n_cap = 64, quantile 0.99 (fitted log-log
slope vs d: -0.52).  :func:`measure_noise_profile` measures and
:func:`fit_delta_law` fits; rerun ``modsketch calibrate``, which calls both,
to reproduce the fitted coefficients within ~10%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from modsketch._seeding import derive_rng
from modsketch.block_random import BlockParams, ParameterError, require_integer, sample_matrix, transparent

__all__ = [
    "DELTA_ISO_COEFF",
    "DELTA_DESYNC_COEFF",
    "PREDICTED_ERROR_COEFF",
    "NoiseProfile",
    "delta_iso_fit",
    "delta_desync_fit",
    "fit_delta_law",
    "measure_noise_profile",
]

# 0.99-quantile of |<Rx,Rx> - <x,x>| ~= C * _law(d, b, n_cap)
DELTA_ISO_COEFF = 0.53
# 0.99-quantile of |<Rx,y>| ~= C * _law(d, b, n_cap)
DELTA_DESYNC_COEFF = 0.15
# Median full-vector l-inf recovery noise ~= C * beta * h * delta_desync
# (see modsketch.recovery.predicted_error; fixed from the d=2070, h=2, w=1
# single-leaf reference experiment, where the measured median was 0.425
# against beta*h*delta = 3.47).
PREDICTED_ERROR_COEFF = 0.12


def _law(d: int, b: int, n_cap: int) -> float:
    """sqrt(b*log2(n_cap)/d), the scale of every deviation of the family."""
    return math.sqrt(b * math.log2(n_cap) / d)


def delta_iso_fit(d: int, b: int, n_cap: int) -> float:
    """Fitted isometry deviation at the 0.99 quantile."""
    return DELTA_ISO_COEFF * _law(d, b, n_cap)


def delta_desync_fit(d: int, b: int, n_cap: int) -> float:
    """Fitted desynchronization deviation at the 0.99 quantile."""
    return DELTA_DESYNC_COEFF * _law(d, b, n_cap)


def fit_delta_law(deltas: list[tuple[int, int, float]], n_cap: int) -> tuple[float, float, list[float]]:
    """Fit measured (d, b, delta) triples two ways: the free exponent e of
    log(delta) = log(c') + e*log(d), and the coefficient c of the law at
    e = -1/2 (the mean of delta / law).  Returns e, c and each residual
    delta - c*law."""
    exponent, _ = np.polyfit(np.log([d for d, _, _ in deltas]), np.log([v for _, _, v in deltas]), 1)
    c = float(np.mean([v / _law(d, b, n_cap) for d, b, v in deltas]))
    return float(exponent), c, [v - c * _law(d, b, n_cap) for d, b, v in deltas]


@dataclass
class NoiseProfile:
    """Empirical deviation of a drawn expression from an exact rotation.

    delta_* are high quantiles of |<Ex, Ex> - alpha <x, x>| (isometry) and
    |<Ex, y> - alpha' <x, y>| (desynchronization) over fresh matrix draws;
    alpha is the fitted isometry scale.
    """

    delta_iso: float
    delta_desync: float
    alpha: float


_EXPRESSIONS = {("plain",): lambda mat, x: mat.matvec(x), ("transparent",): transparent}


def _fit(raw: np.ndarray, ip: np.ndarray, quantile: float) -> tuple[float, float]:
    """Least-squares scale of raw on ip, and the quantile of the residual."""
    denom = float(ip @ ip)
    alpha = float(raw @ ip) / denom if denom > 1e-12 else 0.0
    return alpha, float(np.quantile(np.abs(raw - alpha * ip), quantile))


def measure_noise_profile(
    expr_family: tuple[str, ...], mode: str, trials: int, params: BlockParams, quantile: float = 0.99,
    master_seed: int = 0, pairs_per_trial: int = 1,
) -> NoiseProfile:
    """Measure the noise profile of R (``("plain",)``) or of the transparent
    factor (I+R)/2 (``("transparent",)``).

    Mode ``"isometry"`` measures delta_iso alone; ``"both"`` adds
    delta_desync against a second unit vector correlated with the first, so
    that the leak factor is identifiable.  Trial t draws R under the key
    ``noise:{master_seed}:{t}:L:0`` and derives ``pairs_per_trial`` fresh
    unit test vector pairs from ``noise-vectors`` (more pairs stabilize the
    quantile without extra draws).  alpha is fitted by least squares of the
    raw statistic on the reference inner product, and delta is the empirical
    ``quantile`` of the residual.
    """
    apply = _EXPRESSIONS.get(expr_family) if isinstance(expr_family, tuple) else None
    if apply is None:
        raise ParameterError(f"expr_family must be ('plain',) or ('transparent',), got {expr_family!r}")
    if mode not in ("isometry", "both"):
        raise ParameterError(f"mode must be 'isometry' or 'both', got {mode!r}")
    n_trials = require_integer(trials, "trials", 30)  # fewer give no stable quantile
    if not 0.0 < quantile < 1.0:
        raise ParameterError("quantile must lie strictly inside (0, 1)")
    pairs = require_integer(pairs_per_trial, "pairs_per_trial", 1)
    master_seed = require_integer(master_seed, "master seed")
    iso_raw = np.empty(n_trials * pairs)
    des_raw = np.empty(n_trials * pairs)
    des_ip = np.empty(n_trials * pairs)
    for trial in range(n_trials):
        rng = derive_rng(master_seed, "noise-vectors", trial)
        mat = sample_matrix(params, f"noise:{master_seed}:{trial}:L:0")
        for pos in range(trial * pairs, (trial + 1) * pairs):
            x = rng.standard_normal(params.d)
            x /= np.linalg.norm(x)
            ex = apply(mat, x)
            iso_raw[pos] = float(ex @ ex)
            if mode == "both":
                rho = rng.uniform(-0.8, 0.8)
                perp = rng.standard_normal(params.d)
                perp -= (perp @ x) * x
                perp /= np.linalg.norm(perp)
                y = rho * x + math.sqrt(1.0 - rho * rho) * perp
                des_raw[pos] = float(ex @ y)
                des_ip[pos] = rho

    alpha, delta_iso = _fit(iso_raw, np.ones(n_trials * pairs), quantile)
    delta_desync = _fit(des_raw, des_ip, quantile)[1] if mode == "both" else 0.0
    return NoiseProfile(delta_iso=delta_iso, delta_desync=delta_desync, alpha=alpha)
