"""Dense complex linear algebra and numerical-analysis substrate.

Matrices and vectors are plain ``numpy.ndarray`` objects with complex128
entries.  Everything here is a pure function of its inputs; the heavy
lifting is delegated to LAPACK through numpy/scipy, wrapped so that each
operation certifies its own residual and reports failure modes explicitly
instead of returning garbage.  SciPy is imported where it is used.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericsError",
    "SingularMatrixError",
    "QuadratureRule",
    "LimitSequence",
    "EigResult",
    "eig",
    "solve_linear",
    "smallest_singular_value",
    "determinant",
    "gauss_legendre",
    "extrapolate_to_zero",
    "matrix_exponential_apply",
]

#: eigenvector-matrix condition number beyond which a spectrum is flagged
#: defective (Jordan-like) rather than merely clustered.
DEFECTIVE_CONDITION = 1e8


class NumericsError(Exception):
    """Base class for numerical substrate failures."""


class SingularMatrixError(NumericsError):
    """Linear system singular to working precision.

    Attributes
    ----------
    smallest_pivot : float
        Magnitude of the smallest LU pivot encountered.
    """

    def __init__(self, msg, smallest_pivot):
        super().__init__(f"{msg} (smallest pivot magnitude {smallest_pivot:.3e})")
        self.smallest_pivot = smallest_pivot


def _as_square(a):
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericsError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration over [a, b].

    Weights are positive and sum to (b - a); nodes are strictly increasing.
    """

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if n.shape != w.shape or n.ndim != 1 or n.size == 0:
            raise NumericsError("nodes/weights must be matching 1-d arrays")
        if np.any(np.diff(n) <= 0):
            raise NumericsError("quadrature nodes must be strictly increasing")
        if np.any(w <= 0):
            raise NumericsError("quadrature weights must be positive")
        length = self.b - self.a
        if abs(w.sum() - length) > 1e-12 * max(1.0, abs(length)):
            raise NumericsError("quadrature weights do not sum to b - a")
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)

    def integrate(self, values):
        return np.tensordot(self.weights, np.asarray(values), axes=(0, 0))


@dataclass(frozen=True)
class LimitSequence:
    """Samples (eps_i, value_i) of a quantity with a limit as eps -> 0+.

    ``order`` declares the leading power structure of the error,
    value(eps) = L + c1*eps + ... + c_order*eps**order + o(eps**order).
    Values may be scalars or arrays of a common shape.
    """

    epsilons: np.ndarray
    values: list = field(default_factory=list)
    order: int = 1

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.ndim != 1 or eps.size < 2:
            raise NumericsError("need at least two (eps, value) samples")
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise NumericsError("epsilons must be positive and strictly decreasing")
        if len(self.values) != eps.size:
            raise NumericsError("one value per epsilon required")
        if self.order < 1:
            raise NumericsError("extrapolation order must be >= 1")
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class EigResult:
    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray
    residuals: np.ndarray
    eigenvector_condition: float
    defective: bool


def eig(a):
    """Eigendecomposition with residual certificates and a defectiveness flag.

    Every returned pair satisfies ||A v - lam v|| <= 1e-10 ||A|| ||v||; a
    violation raises.  ``defective`` is set when the eigenvector matrix has
    condition number above ``DEFECTIVE_CONDITION`` (Jordan blocks and
    near-Jordan clustering land here).
    """
    a = _as_square(a)
    lam, v = np.linalg.eig(a)
    norm_a = np.linalg.norm(a, 2)
    res = np.linalg.norm(a @ v - v * lam[None, :], axis=0)
    scale = norm_a * np.linalg.norm(v, axis=0)
    residuals = res / np.where(scale > 0, scale, 1.0)
    cond = np.linalg.cond(v)
    defective = bool(not np.isfinite(cond) or cond > DEFECTIVE_CONDITION)
    if norm_a > 0 and not defective and np.any(residuals > 1e-10):
        raise NumericsError(
            f"eigensolver did not converge: worst residual {residuals.max():.3e}"
        )
    return EigResult(lam, v, residuals, float(cond), defective)


def solve_linear(a, b):
    """Solve A x = b with a residual certificate.

    Raises :class:`SingularMatrixError` when a pivot is singular to working
    precision, reporting the smallest pivot magnitude.
    """
    import scipy.linalg as sla
    a = _as_square(a)
    b = np.asarray(b, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    smallest = float(pivots.min()) if pivots.size else 0.0
    norm_a = np.linalg.norm(a, 2)
    if smallest <= np.finfo(float).eps * max(norm_a, 1.0) * a.shape[0]:
        raise SingularMatrixError("matrix is singular to working precision", smallest)
    x = sla.lu_solve((lu, piv), b, check_finite=False)
    resid = np.linalg.norm(a @ x - b)
    bound = 1e-10 * norm_a * np.linalg.norm(x) + 1e-13 * np.linalg.norm(b)
    if resid > max(bound, 0.0) and norm_a > 0:
        raise SingularMatrixError(
            f"solution residual {resid:.3e} exceeds certificate {bound:.3e}", smallest
        )
    return x


def smallest_singular_value(a):
    """min_{||x||=1} ||A x|| for a rectangular matrix."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise NumericsError("matrix contains non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1]) if min(a.shape) > 0 else 0.0


def determinant(a):
    """Determinant via LU pivots with permutation-sign tracking."""
    import scipy.linalg as sla
    a = _as_square(a)
    lu, piv = sla.lu_factor(a, check_finite=False)
    # piv[i] = j means rows i and j were swapped at step i.
    nswaps = int(np.sum(piv != np.arange(len(piv))))
    det = complex((-1.0) ** nswaps)
    for d in np.diag(lu):
        det *= d
    return det


@functools.cache
def _leggauss(n):
    """The n-point Gauss-Legendre (nodes, weights) on [-1, 1], kept per n."""
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n, a, b):
    """n-point Gauss-Legendre rule on [a, b]; exact on degree <= 2n-1."""
    if n < 1:
        raise NumericsError("need at least one quadrature node")
    if not (a < b):
        raise NumericsError(f"invalid interval [{a}, {b}]")
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(mid + half * x, half * w, float(a), float(b))


def extrapolate_to_zero(seq: LimitSequence):
    """Richardson (polynomial-in-eps Neville) extrapolation to eps = 0+.

    Uses at most ``order + 1`` of the smallest samples, eliminating the
    powers eps, eps^2, ..., eps^order in turn.  Returns (value,
    error_estimate, diverged); the error estimate is the magnitude of the
    last-stage correction and ``diverged`` is set when successive
    extrapolants grow instead of settling.
    """
    eps = seq.epsilons
    vals = [np.asarray(v, dtype=complex) for v in seq.values]
    m = min(seq.order + 1, len(vals))
    eps = eps[-m:]
    table = [v.copy() for v in vals[-m:]]
    stage_best = [table[-1].copy()]
    for k in range(1, m):
        new = []
        for i in range(m - k):
            num = eps[i] * table[i + 1] - eps[i + k] * table[i]
            new.append(num / (eps[i] - eps[i + k]))
        table = new
        stage_best.append(table[-1].copy())
    value = stage_best[-1]
    if len(stage_best) >= 2:
        error = float(np.max(np.abs(stage_best[-1] - stage_best[-2])))
    else:
        error = float(np.max(np.abs(vals[-1] - vals[-2])))
    corrections = [
        float(np.max(np.abs(stage_best[k + 1] - stage_best[k])))
        for k in range(len(stage_best) - 1)
    ]
    scale = max(1e-300, max(float(np.max(np.abs(v))) for v in vals))
    mags = [float(np.max(np.abs(t))) for t in stage_best]
    growing_corrections = bool(
        len(corrections) >= 2
        and corrections[-1] > 2.0 * corrections[-2]
        and corrections[-1] > 1e-13 * max(1.0, float(np.max(np.abs(value))))
    )
    # successive extrapolants marching past the sampled range signal a
    # sequence with no finite limit of the declared order
    growing_extrapolants = bool(
        len(mags) >= 3 and all(b > a for a, b in zip(mags[:-1], mags[1:]))
        and mags[-1] > 1.2 * scale
    )
    diverged = growing_corrections or growing_extrapolants
    if value.ndim == 0:
        value = complex(value)
    return value, error, diverged


def matrix_exponential_apply(a, t, u):
    """Compute exp(-i t A) u.

    Refuses when |t| * ||A|| would push exp past the representable range.
    """
    import scipy.linalg as sla
    a = _as_square(a)
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(t):
        raise NumericsError("time must be finite")
    norm_a = np.linalg.norm(a, 2)
    if abs(t) * norm_a > 700.0:
        raise OverflowError(
            f"|t| * ||A|| = {abs(t) * norm_a:.3e} exceeds the representable range"
        )
    return sla.expm(-1j * t * a) @ u
