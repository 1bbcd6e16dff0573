"""Information recovery from sketches.

Every recovery is a contraction of the sketch against known matrix columns.
An attribute term of a depth-h object enters the overall sketch attenuated by
exactly w * 2^-(4h-3): 3(h-1) transparent halvings on the walk down, (h-1)
pair weights of 1/2, and the 1/2 in the attribute subsketch.  Recoveries
therefore scale by

    beta = 2^(4h-3) / w          (3/2 of that, i.e. 3*2^(4h-4)/w, in
                                  signature mode, whose attr coefficient
                                  is 1/3 instead of 1/2)

and contract with the relevant module matrix.  Contractions are normalized
per column, est_j = beta * <col_j, s> / ||col_j||^2, which is the plain
beta * (R^T s)_j in expectation but immune to the per-column norm
fluctuation of the block-sparse family (sd ~ sqrt(b/(qd)), non-negligible at
desk dimensions).  For erased sketches the normalizer is the column's
surviving-prefix norm, which realizes the d/d' rescale exactly, so every
recovery takes an erased sketch as it is.  Like the surviving prefix, the
signature mode is read from the sketch itself.  Each recovery works out its
beta once, and its report's noise bound uses that beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from modsketch.block_random import AnyMatrix, ModsketchError, ParameterError, require_integer, require_real
from modsketch.calibrated import PREDICTED_ERROR_COEFF, delta_desync_fit
from modsketch.sketcher import MatrixRegistry, Sketch, input_tuple_depth, pair_tuple_depth, signature_shape
from modsketch.sketcher import require_sketch

__all__ = [
    "RecoveryError",
    "EmptyClassError",
    "ModeMismatchError",
    "RecoveryReport",
    "beta_factor",
    "predicted_error",
    "recover_attributes_unique",
    "PathStep",
    "recover_attributes_by_path",
    "recover_frequency",
    "recover_summed_attributes",
    "recover_mean_attributes",
    "recover_signature",
    "sketch_similarity",
    "report_csv_header",
    "report_csv_row",
]


class RecoveryError(ModsketchError):
    pass


class EmptyClassError(RecoveryError):
    """Mean attributes requested for a module whose recovered count is zero."""


class ModeMismatchError(RecoveryError):
    """Signature recovery on a sketch built without the signature extension."""


@dataclass
class RecoveryReport:
    """Outcome of one recovery query.

    ``estimate`` is a d-vector for vector recoveries and a float for
    frequency; ``predicted_error`` is the calibrated noise bound for the
    query (see :func:`predicted_error`).
    """

    kind: str
    estimate: np.ndarray | float
    beta: float
    module: str
    depth: int
    weight: float
    erased_prefix: int
    d: int
    predicted_error: float
    path: tuple[int, ...] | None = None
    rounded: int | None = None
    low_confidence: bool = False
    extras: dict = field(default_factory=dict)


def beta_factor(h: int, w: float, signature_mode: bool = False) -> float:
    """Inverse of the depth-h attribute attenuation, 2^(4h-3)/w."""
    h = require_integer(h, "depth", 2)  # recoverable objects sit at depth >= 2
    w = require_real(w, "effective weight", 0, math.inf, "()")
    try:
        beta = math.ldexp(3.0 if signature_mode else 2.0, 4 * h - 4) / w
    except OverflowError:
        beta = math.inf
    if not math.isfinite(beta):
        raise RecoveryError(f"beta = 2^{4 * h - 3}/w at depth {h}, weight {w} overflows a float")
    return beta


def _noise_bound(beta: float, h: int, registry: MatrixRegistry, erased_prefix: int | None) -> float:
    p = registry.params
    scale = beta * h * delta_desync_fit(p.d, p.b, p.n_cap) * PREDICTED_ERROR_COEFF
    if erased_prefix is not None and erased_prefix < p.d:
        scale *= math.sqrt(p.d / erased_prefix)
    if not math.isfinite(scale):
        raise RecoveryError(f"the noise bound of a depth-{h} query with beta {beta:.3g} overflows a float")
    return scale


def predicted_error(
    h: int, w: float, registry: MatrixRegistry, erased_prefix: int | None = None
) -> float:
    """Calibrated noise scale for a depth-h, weight-w recovery of a plain
    sketch (a report on a signature sketch scales it by that mode's beta).

    The form mirrors the analysis bound O(2^{3h} h delta / w): the fitted
    desynchronization deviation, amplified by beta and by the number of
    accumulation steps h, inflated by sqrt(d/d') on an erased prefix.
    """
    return _noise_bound(beta_factor(h, w), h, registry, erased_prefix)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------


def _column_contract(mat: AnyMatrix, sk: Sketch) -> np.ndarray:
    """Per-column normalized transpose contraction of the sketch."""
    num = mat.rmatvec(sk.values)
    if sk.erased_prefix < sk.d:
        den = mat.prefix_col_sq_norms(sk.erased_prefix)
    else:
        den = mat.col_sq_norms
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 1e-12)
    return out


def _checked_beta(sk: Sketch, registry: MatrixRegistry, h: int, w: float) -> tuple[Sketch, float]:
    """sk by the sketch rule at the registry's d, with a surviving prefix of at least one block, and the beta
    of a depth-h, weight-w query on it, in the sketch's own mode."""
    sk = require_sketch(sk, registry.d, "registry")
    if sk.erased_prefix < registry.params.b:
        raise RecoveryError(
            f"surviving prefix {sk.erased_prefix} shorter than one block ({registry.params.b})"
        )
    return sk, beta_factor(h, w, sk.signature_mode)


def _report(sk: Sketch, registry: MatrixRegistry, h: int, w: float, beta: float, **fields) -> RecoveryReport:
    """A report on sk, with the noise bound of a depth-h query scaled by beta."""
    return RecoveryReport(
        beta=beta,
        depth=h,
        weight=float(w),  # every report's w has passed beta_factor
        erased_prefix=sk.erased_prefix,
        d=sk.d,
        predicted_error=_noise_bound(beta, h, registry, sk.erased_prefix),
        **fields,
    )


def recover_attributes_unique(
    sk: Sketch, module: str, h: int, w: float, registry: MatrixRegistry
) -> RecoveryReport:
    """Estimate the attribute vector of the module's single object.

    The caller asserts uniqueness (several objects of the module would
    superpose); the estimate is beta * normalized R_{M,1}^T contraction.
    """
    sk, beta = _checked_beta(sk, registry, h, w)
    est = beta * _column_contract(registry.module_matrix(module, 1), sk)
    return _report(sk, registry, h, w, beta, kind="attributes_unique", estimate=est, module=module)


@dataclass(frozen=True)
class PathStep:
    """One descent: which input position was taken and who produced the child."""

    tuple_position: int
    module: str


def recover_attributes_by_path(
    sk: Sketch, path: list[PathStep], registry: MatrixRegistry, w: float
) -> RecoveryReport:
    """Isolate one object by its input-index path, even under module reuse.

    Applies the plain transposes of the matrices along the walk (tuple
    position, module transparent, pair position) outermost first, then
    contracts with the target module's attribute matrix.  Plain (not
    transparent) transposes are deliberate: a transparent product would let
    through the other objects of the same module.
    """
    if not path:
        raise RecoveryError("path must contain at least one step")
    h = len(path) + 1
    sk, beta = _checked_beta(sk, registry, h, w)
    v = sk.values
    for parent_depth, step in enumerate(path, start=1):
        # descend from a depth-k object into its child at depth k+1
        is_last = parent_depth == len(path)
        v = registry.tuple_matrix(step.tuple_position, input_tuple_depth(parent_depth)).rmatvec(v)
        v = registry.module_matrix(step.module, 0).rmatvec(v)
        pair_pos = 1 if is_last else 2
        v = registry.tuple_matrix(pair_pos, pair_tuple_depth(parent_depth + 1)).rmatvec(v)
    target = path[-1].module
    est = beta * _column_contract(registry.module_matrix(target, 1), replace(sk, values=v, erased_prefix=len(v)))
    if sk.erased_prefix < sk.d:
        # the first transpose saw only the surviving prefix
        est = (sk.d / sk.erased_prefix) * est
    return _report(
        sk, registry, h, w, beta, kind="attributes_by_path", estimate=est, module=target,
        path=tuple(s.tuple_position for s in path),
    )


def recover_frequency(
    sk: Sketch, module: str, h: int, w_star: float, registry: MatrixRegistry, beta: float | None = None
) -> RecoveryReport:
    """Estimate how many objects the module produced (all at weight w_star).

    Every object contributes one unit through the e_1 slot of its attribute
    subsketch, so the first coordinate of the R_{M,2} contraction counts
    them; the count is exact whenever the noise stays below 1/2.  Only that
    coordinate is read, so only column 1 of R_{M,2} is contracted.  Pass
    ``beta`` to override the depth scaling (the flat prototype uses 4/w);
    the report's noise bound scales with the beta used.
    """
    sk, depth_beta = _checked_beta(sk, registry, h, w_star)
    beta = depth_beta if beta is None else require_real(beta, "beta", 0, math.inf, "()")
    real = float(beta * _column_contract(registry.module_first_column(module), sk)[0])
    return _report(
        sk, registry, h, w_star, beta, kind="frequency", estimate=real, module=module,
        rounded=int(round(real)), low_confidence=abs(real - round(real)) > 0.4,
    )


def recover_summed_attributes(
    sk: Sketch, module: str, h: int, w_star: float, registry: MatrixRegistry
) -> RecoveryReport:
    """Estimate the sum of attribute vectors over the module's objects."""
    report = recover_attributes_unique(sk, module, h, w_star, registry)
    report.kind = "summed_attributes"
    return report


def recover_mean_attributes(
    sk: Sketch, module: str, h: int, w_star: float, registry: MatrixRegistry
) -> RecoveryReport:
    """Summed attributes divided by the rounded recovered count."""
    freq = recover_frequency(sk, module, h, w_star, registry)
    count = freq.rounded or 0
    if count <= 0:
        raise EmptyClassError(f"module {module!r} has recovered count {count}")
    summed = recover_summed_attributes(sk, module, h, w_star, registry)
    summed.kind = "mean_attributes"
    summed.estimate = summed.estimate / count
    summed.rounded = count
    summed.low_confidence = freq.low_confidence
    return summed


def recover_signature(
    sk: Sketch, module: str, h: int, w: float, registry: MatrixRegistry
) -> RecoveryReport:
    """Recover an object's sparse signature and decide whether it is clean.

    Signatures have the registry's :func:`signature_shape`, which is the
    sketcher's too; recovery quantizes at the half-gap, and reports a match
    only when the residual stays below it, so a too-noisy sketch yields
    no-match rather than a wrong signature.
    """
    sk, beta = _checked_beta(sk, registry, h, w)
    if not sk.signature_mode:
        raise ModeMismatchError("sketch was not built with the signature extension")
    est = beta * _column_contract(registry.module_matrix(module, 3), sk)
    level = signature_shape(registry.params.n_cap)[1]
    quantized = np.where(est >= level / 2.0, level, 0.0)
    residual = float(np.max(np.abs(est - quantized)))
    matched = residual < level / 2.0
    return _report(
        sk, registry, h, w, beta, kind="signature", estimate=quantized, module=module,
        extras={"residual": residual, "matched": matched, "raw": est, "level": level},
    )


def sketch_similarity(a: Sketch, b: Sketch) -> float:
    """Plain inner product; unrelated sketches sit near zero, shared
    same-module objects push it up."""
    a = require_sketch(a)
    b = require_sketch(b, a.d, "first sketch")
    if a.erased_prefix != b.erased_prefix:
        raise ParameterError("sketches have different surviving prefixes")
    return float(a.values @ b.values)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_csv_header() -> str:
    return "kind,module,depth,weight,d,d_prime,seed,linf_error,predicted_error"


def report_csv_row(report: RecoveryReport, seed: str, truth: np.ndarray | float | None = None) -> str:
    err = ""
    if truth is not None:
        if isinstance(report.estimate, np.ndarray):
            err = repr(float(np.max(np.abs(report.estimate - truth))))
        else:
            err = repr(abs(float(report.estimate) - float(truth)))
    return (
        f"{report.kind},{report.module},{report.depth},{float(report.weight)!r},"
        f"{report.d},{report.erased_prefix},{seed},{err},{float(report.predicted_error)!r}"
    )
