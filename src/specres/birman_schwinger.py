"""Boundary-value operators K(lam, side) = C R0(lam +/- i0) C W and the
classification of spectral points.

A point lam of the essential spectrum is an outgoing/incoming regular
spectral point exactly when Id + K(lam, +/-) is invertible; the weighted
resolvent of H then satisfies

    C R_H(lam +/- i0) C W = Id - (Id + K)^(-1),

which follows from (Id - C R_H C W)(Id + C R0 C W) = Id.  Zeros of
Id + K along the real axis are spectral singularities; their kernel
vectors reconstruct resonant states Psi = -R0(lam +/- i0) C W phi that
solve the stationary equation with outgoing/incoming tails.

:class:`BoundarySystem` is the one place where Id + K is formed and
factorized, at a complex z or at a boundary pair (lam, side); sigma_min,
solves, R_H applications and log det all come from it.

K = C R0 C W has no columns off the support S of W.  Ordering the nodes
as (S, T), Id + K = [[A, 0], [B, I]] with A = I + K_SS and B = K_TS, so
det(Id + K) = det A (the Sylvester / Weinstein-Aronszajn identity) and
(Id + K)^(-1) = [[A^(-1), 0], [-B A^(-1), I]].  Determinants, their
z-derivatives, solves, R_H applications and inverses are computed from
A, which has order |S| (16 of 192 nodes for a unit square well on the
default radial grid), and from the N x |S| column block of the free
kernel.  The singular values (sigma_min, the resonant-state SVD) stay at
full order N, because the detection thresholds are calibrated on the
smallest singular value of the full Id + K, which A does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .model import (
    AdmissibilityError,
    ModelError,
    OperatorModel,
    resolvent_action,
    weighted_matrix,
)

__all__ = [
    "BoundarySystem",
    "BoundaryValueOperator",
    "SpectralPointReport",
    "ResonantState",
    "BoundsReport",
    "bs_operator",
    "bs_matrix",
    "sigma_min",
    "log_det",
    "weighted_resolvent_H",
    "resolvent_H_apply",
    "sigma_profile",
    "classify_minima",
    "scan_singularities",
    "classify_point",
    "resonant_state",
    "embedded_eigenvalue_test",
    "adjoint_consistency",
    "dissipative_audit",
    "order_estimate",
    "epsilon_bounds_check",
    "threshold_equivalence_check",
    "locate_eigenvalues",
]

#: default sigma_min threshold below which a refined minimum is reported
DETECTION_THRESHOLD = 1e-4

#: sigma_min floor certifying a regular point (quadrature-noise margin)
REGULAR_FLOOR = 1e-2


class SingularBoundaryError(ModelError):
    """Id + K is numerically singular: lam sits at (or next to) a
    spectral singularity or an eigenvalue; the caller classifies."""


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------


def _k_from_action(model, act):
    g = model.grid
    c = model.c_values
    # scaled in place: every N x N temporary is fresh memory to page in
    k = c[:, None] * act.matrix()
    k *= c[None, :]
    k = model.right_apply_w(k)
    k *= g.sqrtw[:, None]
    k /= g.sqrtw[None, :]
    return k


def _k_block(model, act, rows, support):
    """K[rows, S] from the free-kernel block R0[rows, S] (S the support of W),
    scaled in the order of ``_k_from_action``, so its entries are the same."""
    g = model.grid
    c = model.c_values
    k = c[rows, None] * act.block(rows, support)
    k *= c[None, support]
    k = model.right_apply_w(k, support)
    k *= g.sqrtw[rows, None]
    k /= g.sqrtw[None, support]
    return k


class BoundarySystem:
    """Id + K at one spectral point: a complex z or a boundary pair (lam, side).

    K has no columns off the support S of W (``OperatorModel.support_mask``),
    so with T the other nodes, in the order (S, T),

        Id + K = [[A, 0], [B, I]],   A = I + K_SS,   B = K_TS.

    Everything but K itself and the singular values is computed from the
    LU factors of the |S| x |S| block A:

    * ``log_det``: det(Id + K) = det A (the Sylvester / Weinstein-Aronszajn
      identity);
    * ``w_solve``: W (Id + K)^(-1) sees only x_S = A^(-1) y_S of the
      solution (x_T = y_T - B x_S is never needed), hence A alone; so
      does ``resolvent_apply``;
    * ``inverse``: [[A^(-1), 0], [-B A^(-1), I]];
    * ``inverse_columns``: its S columns, which carry all of
      Id - (Id + K)^(-1).

    K_SS and K_TS are assembled from the blocks R0[S, S] and R0[T, S] of the
    free kernel, so the full N x N kernel is assembled only when a caller
    applies R0 to arbitrary vectors (``action.apply``); later blocks are
    then sliced from it.  ``k``, ``sigma_min`` and ``svd`` stay at full
    order: ``DETECTION_THRESHOLD`` and ``REGULAR_FLOOR`` are calibrated on
    the smallest singular value of the full Id + K, which the reduced
    block does not give.  When S is every node B is empty; when S is empty
    (W = 0) det = 1, the inverse is the identity and W (Id + K)^(-1) = 0.
    On the finite backend K is formed densely and its blocks are sliced
    from it, and the sample-level methods (``w_solve``,
    ``resolvent_apply``) do not exist.
    """

    def __init__(self, model, z=None, lam=None, side=None):
        self.model = model
        mask = model.support_mask()
        self.support = np.flatnonzero(mask)
        self.rest = np.flatnonzero(~mask)
        self._lu = self._k_ss = self._k_ts = None
        if model.backend == "finite":
            if z is None:
                raise AdmissibilityError(
                    "finite backend supports K(z) off the spectrum of H0 only"
                )
            self.action, self.z = None, complex(z)
        else:
            self.action = resolvent_action(model, z=z, lam=lam, side=side)

    @property
    def k(self):
        """K = [C R0(.) C] W on the grid, in the L2-isometric representation."""
        m = self.model
        if self.action is not None:
            return _k_from_action(m, self.action)
        r0 = np.linalg.solve(m.h0 - self.z * np.eye(m.size), np.eye(m.size))
        return m.c_diag[:, None] * r0 * m.c_diag[None, :] @ m.w_matrix

    def _k_rows(self, rows):
        if self.action is None:
            return self.k[np.ix_(rows, self.support)]
        return _k_block(self.model, self.action, rows, self.support)

    def k_support(self):
        """K_SS, the block of K on the support S of W."""
        if self._k_ss is None:
            self._k_ss = self._k_rows(self.support)
        return self._k_ss

    def _k_rest(self):
        if self._k_ts is None:
            self._k_ts = self._k_rows(self.rest)
        return self._k_ts

    def _a(self):
        return self.k_support() + np.eye(self.support.size)

    def _id_plus_k(self):
        a = self.k  # a fresh array: Id is added in place
        a[np.diag_indices_from(a)] += 1.0
        return a

    def _factors(self):
        if self._lu is None:
            self._lu = sla.lu_factor(self._a(), check_finite=False)
        return self._lu

    def sigma_min(self):
        """Smallest singular value of Id + K."""
        return float(np.linalg.svd(self._id_plus_k(), compute_uv=False)[-1])

    def svd(self):
        """Full SVD (u, s, vh) of Id + K; vh[-1] spans its numerical kernel."""
        return np.linalg.svd(self._id_plus_k())

    def log_det(self):
        """log |det(Id + K)| and the phase, as det A."""
        sign, logabs = np.linalg.slogdet(self._a())
        return float(logabs), complex(sign)

    def a_solve(self, rhs):
        """A^(-1) rhs for rhs indexed by the support S."""
        return sla.lu_solve(self._factors(), rhs, check_finite=False)

    def inverse_columns(self):
        """The S columns [[A^(-1)], [-B A^(-1)]] of (Id + K)^(-1), in the
        representation of K, as an N x |S| matrix."""
        a_inv = self.a_solve(np.eye(self.support.size))
        cols = np.empty((self.model.size, self.support.size), dtype=complex)
        cols[self.support] = a_inv
        cols[self.rest] = -(self._k_rest() @ a_inv)
        return cols

    def inverse(self):
        """(Id + K)^(-1), in the representation of K."""
        inv = np.eye(self.model.size, dtype=complex)
        inv[:, self.support] = self.inverse_columns()
        return inv

    def w_solve(self, samples):
        """W (Id + K)^(-1) on grid samples (a vector, or the columns of a
        matrix).  W only sees the S part x_S = A^(-1) y_S of the solution,
        so only A is factorized.  K acts in the L2-isometric
        representation, so the samples are scaled by sqrt(weights) on the
        way in and back on the way out.
        """
        sw = self.model.grid.sqrtw
        if np.ndim(samples) == 2:
            sw = sw[:, None]
        y = sw * np.asarray(samples, dtype=complex)
        x = np.zeros(y.shape, dtype=complex)
        x[self.support] = self.a_solve(y[self.support])
        return self.model.apply_w(x / sw)

    def resolvent_apply(self, samples):
        """R_H v by the factorized second resolvent identity,

            R_H v = R0 v - R0 C W (Id + K)^(-1) C R0 v.

        Returns (R_H v, source) with source = C W (Id + K)^(-1) C R0 v, the
        compactly supported source of the scattered part.  ``samples`` is a
        vector or a matrix of column vectors.
        """
        v = np.asarray(samples, dtype=complex)
        c = self.model.c_values if v.ndim == 1 else self.model.c_values[:, None]
        r0v = self.action.apply(v)
        source = c * self.w_solve(c * r0v)
        return r0v - self.action.apply(source), source


def bs_matrix(model, z=None, lam=None, side=None):
    """K = [C R0(.) C] W on the grid, in the L2-isometric representation."""
    return BoundarySystem(model, z=z, lam=lam, side=side).k


def bs_matrix_dz(model, z):
    """d/dz of K_SS(z), the block of K(z) on the support of W (exact
    resolvent algebra on the finite backend, central differences of the
    crease-exact block assembly on continuum grids).  K'(z) has the zero
    columns of K, so tr[(Id + K)^(-1) K'] = tr[A^(-1) K'_SS]."""
    if model.backend == "finite":
        n = model.size
        r0 = np.linalg.solve(model.h0 - complex(z) * np.eye(n), np.eye(n))
        c = model.c_diag
        s = np.flatnonzero(model.support_mask())
        return (c[:, None] * (r0 @ r0) * c[None, :] @ model.w_matrix)[np.ix_(s, s)]
    h = 1e-5 * max(1.0, abs(z))
    plus = BoundarySystem(model, z=z + h).k_support()
    return (plus - BoundarySystem(model, z=z - h).k_support()) / (2.0 * h)


@dataclass
class BoundaryValueOperator:
    """Discretized K(lam, side) with norm diagnostics."""

    lam: float
    side: str
    k_matrix: np.ndarray
    norm: float
    sigma_min: float


def bs_operator(model, lam, side):
    """Boundary-value operator K(lam, side) = C R0(lam +/- i0) C W."""
    system = BoundarySystem(model, lam=lam, side=side)
    k = system.k
    return BoundaryValueOperator(
        lam=float(lam), side=side, k_matrix=k,
        norm=float(np.linalg.norm(k, 2)), sigma_min=system.sigma_min(),
    )


def sigma_min(model, lam, side):
    return BoundarySystem(model, lam=lam, side=side).sigma_min()


def log_det(model, z=None, lam=None, side=None):
    """log |det(Id + K)| and the phase, via LU."""
    return BoundarySystem(model, z=z, lam=lam, side=side).log_det()


def weighted_resolvent_H(model, z=None, lam=None, side=None, min_sigma=1e-10):
    """C R_H(.) C W = Id - (Id + K)^(-1) on the grid.

    The product identity (Id - C R_H C W)(Id + C R0 C W) = Id is an exact
    consequence of the second resolvent identity and holds here to
    rounding; callers can re-verify cheaply.  When sigma_min(Id + K) falls
    below ``min_sigma`` the point is flagged as singular instead of
    inverting noise.
    """
    system = BoundarySystem(model, z=z, lam=lam, side=side)
    s = system.sigma_min()
    if s < min_sigma:
        raise SingularBoundaryError(
            f"sigma_min(Id+K) = {s:.3e}: spectral singularity or eigenvalue nearby"
        )
    return np.eye(model.size) - system.inverse()


def resolvent_H_apply(model, v_samples, z=None, lam=None, side=None):
    """R_H(.) v on the grid via the factorized second resolvent identity,

        R_H v = R0 v - R0 C W (Id + K)^(-1) C R0 v.

    Returns (samples, action, correction_source) where ``action`` is the
    free-resolvent action used (for exterior evaluation) and
    ``correction_source`` = C W (Id + K)^(-1) C R0 v is the compactly
    supported source of the scattered part.
    """
    if model.backend == "finite":
        n = model.size
        h = model.h
        out = np.linalg.solve(h - complex(z) * np.eye(n), np.asarray(v_samples))
        return out, None, None
    system = BoundarySystem(model, z=z, lam=lam, side=side)
    out, source = system.resolvent_apply(v_samples)
    return out, system.action, source


# ---------------------------------------------------------------------------
# scanning and classification
# ---------------------------------------------------------------------------


@dataclass
class ResonantState:
    """Kernel vector of Id + K and the reconstructed resonant state.

    ``phi`` is normalized on the grid; Psi = -R0(lam +/- i0) C W phi solves
    (-d^2/dx^2 + V - lam) Psi = 0 with a pure outgoing/incoming exterior
    tail whose amplitude is carried exactly by ``tail_amplitude``.
    """

    lam: float
    side: str
    phi: np.ndarray
    psi_samples: np.ndarray
    residual: float
    tail_amplitude: complex
    tail_fit_amplitude: complex
    tail_fit_relerr: float
    kernel_residual: float
    model: OperatorModel = field(repr=False, default=None)

    def psi_at(self, points):
        act = _state_system(self.model, self.lam, self.side).action
        source = self.model.c_values * self.model.apply_w(self.phi)
        return -act.evaluate(source, points)

    @property
    def psi_norm(self):
        g = self.model.grid
        return math.sqrt(float(g.weights @ np.abs(self.psi_samples) ** 2))


@dataclass
class SpectralPointReport:
    """Classification of one real spectral point."""

    lam: float
    kind: str  # regular | outgoing_singularity | incoming_singularity | both | embedded_eigenvalue
    sigma_min_plus: float
    sigma_min_minus: float
    nu: int | None = None
    state: ResonantState | None = None

    def as_record(self):
        return {
            "lambda": self.lam,
            "sigma_min_plus": self.sigma_min_plus,
            "sigma_min_minus": self.sigma_min_minus,
            "class": self.kind,
            "nu": self.nu,
        }


def _golden_min(f, a, b, tol):
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def classify_point(model, lam, detection_threshold=DETECTION_THRESHOLD):
    """SpectralPointReport at a single admissible lam (no refinement)."""
    sp = sigma_min(model, lam, "+")
    sm = sigma_min(model, lam, "-")
    out = sp < detection_threshold
    inc = sm < detection_threshold
    if out and inc:
        kind = "both"
    elif out:
        kind = "outgoing_singularity"
    elif inc:
        kind = "incoming_singularity"
    else:
        kind = "regular"
    return SpectralPointReport(float(lam), kind, sp, sm)


def sigma_profile(model, lam_grid, threads=None):
    """sigma_min(Id + K(lam, +/-)) at every point of a scan grid, by side.

    The grid must start on the admissible boundary and end within the
    energy the model grid resolves.  ``threads`` > 1 spreads the points
    over a pool of Python threads.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    for lam in (lam_grid[0], lam_grid[-1]):
        model.require_boundary(lam, "+")
    limit = model.max_scan_energy()
    if lam_grid[-1] > limit:
        raise AdmissibilityError(
            f"scan range exceeds grid resolution: lam_max {lam_grid[-1]:.3g} > {limit:.3g}"
        )

    def values_for(side):
        if threads and threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as ex:
                return np.array(list(ex.map(lambda l: sigma_min(model, l, side), lam_grid)))
        return np.array([sigma_min(model, l, side) for l in lam_grid])

    return {"+": values_for("+"), "-": values_for("-")}


def scan_singularities(model, lam_grid, detection_threshold=DETECTION_THRESHOLD,
                       refine_width=1e-8, estimate_orders=False, threads=None,
                       candidate_floor=REGULAR_FLOOR):
    """Scan sigma_min(Id + K(lam, +/-)) and classify refined minima.

    Local minima of either side falling below ``candidate_floor`` are
    refined by golden-section search to a bracket of width
    ``refine_width``; refined minima below ``detection_threshold`` are
    reported.  A point singular on both sides is tested for square
    integrability of its resonant state and promoted to
    ``embedded_eigenvalue`` when the outgoing tail amplitude vanishes.
    """
    return classify_minima(model, lam_grid, sigma_profile(model, lam_grid, threads),
                           detection_threshold, refine_width, estimate_orders,
                           candidate_floor)


def classify_minima(model, lam_grid, profile, detection_threshold=DETECTION_THRESHOLD,
                    refine_width=1e-8, estimate_orders=False,
                    candidate_floor=REGULAR_FLOOR):
    """The reports of ``scan_singularities`` from a ``sigma_profile`` result."""
    if not (0 < detection_threshold < 0.5):
        raise ModelError("detection threshold must lie in (0, 0.5)")
    lam_grid = np.asarray(lam_grid, dtype=float)
    candidates = []
    for side in ("+", "-"):
        v = profile[side]
        for i in range(1, len(v) - 1):
            if v[i] <= v[i - 1] and v[i] <= v[i + 1] and v[i] < candidate_floor:
                candidates.append((side, lam_grid[i - 1], lam_grid[i + 1]))

    reports = []
    seen = []
    for side, a, b in candidates:
        lam_star, val = _golden_min(lambda l: sigma_min(model, l, side), a, b, refine_width)
        if val >= detection_threshold:
            continue
        if any(abs(lam_star - s) < 10 * refine_width for s in seen):
            continue
        seen.append(lam_star)
        rep = classify_point(model, lam_star, detection_threshold)
        if rep.kind == "both":
            try:
                st = resonant_state(model, lam_star, "+", detection_threshold)
                rep.state = st
                if embedded_eigenvalue_test(st) == "eigenvalue":
                    rep.kind = "embedded_eigenvalue"
            except ModelError:
                pass
        elif rep.kind != "regular":
            try:
                rep.state = resonant_state(model, lam_star, side, detection_threshold)
            except ModelError:
                pass
        if estimate_orders and rep.kind != "regular":
            eps = np.geomspace(1e-1, 1e-4, 10)
            nu, quality = order_estimate(model, lam_star, side, eps)
            rep.nu = nu
        reports.append(rep)
    reports.sort(key=lambda r: r.lam)
    return reports


# ---------------------------------------------------------------------------
# resonant states
# ---------------------------------------------------------------------------


def _state_system(model, lam, side):
    """Boundary system at lam: boundary value on the essential spectrum,
    decaying resolvent-set kernel for lam < 0 (bound-state energies)."""
    if lam < 0:
        return BoundarySystem(model, z=complex(lam))
    return BoundarySystem(model, lam=lam, side=side)


def resonant_state(model, lam_star, side, detection_threshold=DETECTION_THRESHOLD):
    """Kernel vector of Id + K at a detected singularity and its state.

    phi is the right singular vector of the smallest singular value
    (normalized on the grid); the state is reconstructed as
    Psi(x) = -int G_{lam +/- i0}(x, y) c(y) (W phi)(y) dy and certified by
    the relative residual of the stationary equation on interior points.
    Negative lam addresses discrete (bound-state) energies, where the
    kernel is the real decaying resolvent-set kernel.
    """
    system = _state_system(model, lam_star, side)
    _, sv, vh = system.svd()
    kernel_residual = float(sv[-1])
    if kernel_residual > detection_threshold:
        raise ModelError(
            f"sigma_min(Id+K) = {kernel_residual:.3e} above detection threshold: "
            "no kernel vector to extract"
        )
    g = model.grid
    phi = np.conj(vh[-1]) / g.sqrtw  # back to sample representation
    norm_phi = math.sqrt(float(g.weights @ np.abs(phi) ** 2))
    phi = phi / norm_phi

    act = system.action
    source = model.c_values * model.apply_w(phi)
    psi = -act.apply(source)
    tail_amp = -act.outgoing_amplitude(source)

    residual = _stationary_residual(model, lam_star, act, source, psi)
    fit_amp, fit_err = _tail_fit(model, act, source)

    return ResonantState(
        lam=float(lam_star), side=side, phi=phi, psi_samples=psi,
        residual=residual, tail_amplitude=tail_amp,
        tail_fit_amplitude=fit_amp, tail_fit_relerr=fit_err,
        kernel_residual=kernel_residual, model=model,
    )


def _stationary_residual(model, lam, act, source, psi):
    """||(-Psi'' + V Psi - lam Psi)|| / ||Psi|| on interior sample points.

    Psi = -R0 source is evaluated exactly off the grid; V Psi = C W C Psi
    is sampled on the grid and interpolated, for either form of W.
    """
    g = model.grid

    breakpoints = model.potential.breakpoints
    h = 1e-3
    lo, hi = g.lo + 5 * h, g.hi - 5 * h
    pts = np.linspace(lo, hi, 101)
    ok = np.ones(pts.shape, bool)
    for b in breakpoints:
        ok &= np.abs(pts - b) > 3 * h
    pts = pts[ok]

    sten = np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12]) / h**2
    offsets = h * np.arange(-2, 3)
    res = np.empty(pts.size)
    mag = np.empty(pts.size)
    vpsi_samples = model.c_values * model.apply_w(model.c_values * psi)
    for i, x in enumerate(pts):
        vals = -act.evaluate(source, x + offsets)
        d2 = sten @ vals
        vpsi = g.interpolate(vpsi_samples, [x])[0]
        res[i] = abs(-d2 + vpsi - lam * vals[2])
        mag[i] = abs(vals[2])
    scale = math.sqrt(float(np.mean(mag**2)))
    return float(math.sqrt(np.mean(res**2)) / max(scale, 1e-300))


def _tail_fit(model, act, source):
    """Least-squares fit of the exterior tail amplitude (the DERIVED check).

    Fits Psi(x) = -(R0 source)(x) ~ A e^{i k x}, k the wavenumber of the
    action, on exterior sample points beyond the support of W (both
    exterior branches on the line backend).
    """
    g = model.grid
    k = act.k
    hi_support = max(abs(b) for b in model.potential.breakpoints) if model.potential.breakpoints else 0.0
    lo = max(hi_support + 0.5, g.hi - 0.45 * (g.hi - hi_support))
    pts = np.linspace(lo, g.hi + 3.0, 40)
    vals = -act.evaluate(source, pts)
    if abs(k) == 0.0:
        basis = np.ones_like(pts, dtype=complex)
    else:
        basis = np.exp(1j * k * pts)
    denom = np.vdot(basis, basis)
    if abs(denom) < 1e-300:
        raise ModelError("tail fit failed: grid too short for an exterior window")
    a = complex(np.vdot(basis, vals) / denom)
    resid = np.linalg.norm(vals - a * basis)
    scale = np.linalg.norm(vals)
    rel = float(resid / scale) if scale > 0 else 0.0
    return a, rel


def embedded_eigenvalue_test(state, amp_tol=1e-6):
    """'eigenvalue' when the outgoing tail amplitude vanishes (state in L2),
    'resonance' otherwise."""
    scale = state.psi_norm
    if not np.isfinite(scale) or scale == 0:
        raise ModelError("degenerate resonant state")
    if state.lam < 0:
        return "eigenvalue"  # resolvent-set kernel: the tail decays by construction
    if state.tail_fit_relerr > 0.5 and abs(state.tail_amplitude) > amp_tol * scale:
        raise ModelError(
            f"tail fit failed (relative misfit {state.tail_fit_relerr:.2f}); "
            "grid too short to classify"
        )
    return "eigenvalue" if abs(state.tail_amplitude) <= amp_tol * scale else "resonance"


# ---------------------------------------------------------------------------
# adjoint, dissipative and threshold structure
# ---------------------------------------------------------------------------


def adjoint_consistency(model, lam):
    """Factorization identity and H vs H* zero-location agreement.

    Checks Id = (Id - W (Id + M W)^(-1) M)(Id + W M) with M = C R0 C, and
    that sigma_min(Id + M W) and sigma_min(Id + W M) vanish together.
    """
    g = model.grid
    m = weighted_matrix(model, resolvent_action(model, lam=lam, side="+"))
    w = (g.sqrtw[:, None] * model.apply_w(np.eye(model.size))) / g.sqrtw[None, :]
    eye = np.eye(m.shape[0])
    mw = m @ w
    wm = w @ m
    inv = np.linalg.solve(eye + mw, m)
    identity_residual = float(np.linalg.norm((eye - w @ inv) @ (eye + wm) - eye, 2))
    s_mw = float(np.linalg.svd(eye + mw, compute_uv=False)[-1])
    s_wm = float(np.linalg.svd(eye + wm, compute_uv=False)[-1])
    # H* boundary operator at (lam, -) is the entrywise conjugate system
    k_star = np.conj(m) @ np.conj(w)
    s_star = float(np.linalg.svd(eye + k_star, compute_uv=False)[-1])
    return {
        "lambda": float(lam),
        "identity_residual": identity_residual,
        "sigma_min_MW": s_mw,
        "sigma_min_WM": s_wm,
        "sigma_min_adjoint": s_star,
    }


def dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=300,
                      detection_threshold=DETECTION_THRESHOLD):
    """Dissipative structure checks (requires W2 >= 0).

    Continuum: (a) the outgoing scan of H is empty whenever the outgoing
    scan of its self-adjoint part H_{V1} is empty; (b) any incoming
    singular state found reports ||W2 phi|| / ||phi|| (the vanishing of
    which is expected for outgoing candidates only).  Finite backend:
    every real eigenvector of H lies in Ker(V2) and is an eigenvector of
    H_{V1}.
    """
    if not model.dissipative:
        raise ModelError("dissipative audit requested on a non-dissipative model")
    report = {}
    if model.backend == "finite":
        lam, vecs = np.linalg.eig(model.h)
        v2 = model.v2_matrix
        hv1 = model.h0 + model.v1_matrix
        entries = []
        for j in range(lam.size):
            if abs(lam[j].imag) < 1e-9:
                u = vecs[:, j] / np.linalg.norm(vecs[:, j])
                entries.append({
                    "lambda": complex(lam[j]),
                    "v2_residual": float(np.linalg.norm(v2 @ u)),
                    "hv1_residual": float(np.linalg.norm(hv1 @ u - lam[j].real * u)),
                })
        report["real_eigenvalues"] = entries
        report["eigenvalue_imag_parts"] = [float(x) for x in np.sort(lam.imag)]
        report["passed"] = all(
            e["v2_residual"] <= 1e-10 and e["hv1_residual"] <= 1e-8 for e in entries
        )
        return report

    grid_lam = np.linspace(lam_range[0], lam_range[1], n_grid)
    profile = sigma_profile(model, grid_lam)
    report["outgoing_sigma_min"] = float(profile["+"].min())
    out_scan = classify_minima(model, grid_lam, profile, detection_threshold)
    outgoing = [r for r in out_scan
                if r.kind in ("outgoing_singularity", "both", "embedded_eigenvalue")]
    report["outgoing_detected"] = [r.as_record() for r in outgoing]

    sa_model = _self_adjoint_part(model)
    sa_scan = scan_singularities(sa_model, grid_lam, detection_threshold)
    sa_out = [r for r in sa_scan
              if r.kind in ("outgoing_singularity", "both", "embedded_eigenvalue")]
    report["self_adjoint_outgoing_detected"] = [r.as_record() for r in sa_out]

    incoming = [r for r in out_scan if r.kind in ("incoming_singularity", "both")]
    if incoming and model.w_sample_matrix is not None:
        raise ModelError("W2 ratios are implemented for multiplication W only")
    w2_ratios = []
    for r in incoming:
        st = r.state or resonant_state(model, r.lam, "-", detection_threshold)
        w2_vec = (-model.w_values.imag) * st.phi
        g = model.grid
        num = math.sqrt(float(g.weights @ np.abs(w2_vec) ** 2))
        den = math.sqrt(float(g.weights @ np.abs(st.phi) ** 2))
        w2_ratios.append({"lambda": r.lam, "w2_ratio": num / den})
    report["incoming_w2_ratios"] = w2_ratios
    report["passed"] = (len(sa_out) > 0) or (len(outgoing) == 0)
    return report


def _self_adjoint_part(model):
    """The model with W replaced by its Hermitian part W1."""
    from . import model as M

    pot = model.potential
    real_pot = M.PotentialSpec(
        pieces=tuple((a, b, complex(v.real)) for a, b, v in pot.pieces),
        func=(None if pot.func is None else (lambda x, f=pot.func: np.real(f(x)) + 0j)),
        support=pot.support, sigma=pot.sigma,
    )
    ctor = M.radial_model if model.backend == "radial" else M.line_model
    kwargs = {"weight": model.weight}
    if model.backend == "radial":
        return ctor(real_pot, length=model.grid.hi,
                    panels=model.grid.npanels, nodes_per_panel=model.grid.n, **kwargs)
    return ctor(real_pot, half_length=model.grid.hi,
                panels=model.grid.npanels, nodes_per_panel=model.grid.n, **kwargs)


def order_estimate(model, lam_star, side, eps_samples):
    """Order nu of a singularity from the blow-up of ||C R_H C W||.

    Fits log || Id - (Id + K(lam* + i s eps))^(-1) || against -log eps;
    nu is the nearest integer, flagged ambiguous beyond 0.2.
    """
    eps_samples = np.asarray(eps_samples, dtype=float)
    if eps_samples.max() / eps_samples.min() < 10.0**2.9:
        raise ModelError("order estimate needs eps samples spanning >= 3 decades")
    sgn = 1.0 if side == "+" else -1.0
    norms = []
    for eps in eps_samples:
        # Id - (Id + K)^(-1) vanishes off the S columns
        system = BoundarySystem(model, z=lam_star + 1j * sgn * eps)
        x = -system.inverse_columns()
        x[system.support, np.arange(system.support.size)] += 1.0
        norms.append(np.linalg.norm(x, 2))
    logs = np.log(np.asarray(norms))
    slope, intercept = np.polyfit(-np.log(eps_samples), logs, 1)
    resid = float(np.std(logs - (-np.log(eps_samples) * slope + intercept)))
    nu = int(round(slope))
    ambiguous = abs(slope - nu) > 0.2
    if max(norms) < 10.0 * min(norms):
        nu, ambiguous = 0, False  # plateau: regular point
    return nu, {"slope": float(slope), "fit_residual": resid, "ambiguous": ambiguous}


@dataclass
class BoundsReport:
    c0: float
    eps0: float
    exponents: dict
    identity_relative_error: float


def epsilon_bounds_check(model, lam, eps_samples, profile=None):
    """Power-law bounds of the resolvent near the boundary.

    Fits the eps-exponents of ||R0(lam + i eps) C|| (expected 1/2 on the
    essential spectrum, 0 in the resolvent set) and of the grid norm of
    R_H(lam +/- i eps) (expected <= 1), and verifies the exact norm
    identity ||R0(lam + i eps) C u||^2 = Im <u, C R0(lam + i eps) C u>/eps
    with both sides computed along independent paths (tail-corrected
    L2 norm vs weighted pairing).
    """
    from .model import GaussianBump

    eps_samples = np.asarray(sorted(eps_samples, reverse=True), dtype=float)
    if eps_samples.size < 4:
        raise ModelError("need at least 4 eps samples")
    g = model.grid
    if profile is None:
        mid = 0.5 * (g.lo + g.hi)
        profile = GaussianBump(center=mid if model.backend == "line1d" else 3.0, width=0.5)
    u = profile(g.nodes)

    r0c_norms, rh_norms = [], []
    id_err = 0.0
    for eps in eps_samples:
        system = BoundarySystem(model, z=lam + 1j * eps)
        act = system.action
        m = weighted_matrix(model, act)
        im_part = (m - m.conj().T) / 2j
        # ||R0(z) C||^2 = ||C R0(z*) R0(z) C|| = ||C Im R0(z) C|| / eps
        r0c_norms.append(math.sqrt(np.linalg.norm(im_part, 2) / eps))
        # grid-restricted R_H norm, R_H applied to every grid sample basis vector
        rh, _ = system.resolvent_apply(np.eye(model.size))
        rh_norms.append(np.linalg.norm((g.sqrtw[:, None] * rh) / g.sqrtw[None, :], 2))
        # exact identity, two computation paths
        cu = model.c_values * u
        lhs = act.norm_squared(cu)
        f = act.apply(cu)
        rhs = float((g.weights @ (np.conj(u) * model.c_values * f)).imag) / eps
        id_err = max(id_err, abs(lhs - rhs) / abs(lhs))

    loge = np.log(eps_samples)
    exps = {}
    for name, vals in (("r0c", r0c_norms), ("rh", rh_norms)):
        slope, intercept = np.polyfit(-loge, np.log(vals), 1)
        pred = -loge * slope + intercept
        ci = 2.0 * float(np.std(np.log(vals) - pred)) / math.sqrt(len(vals))
        exps[name] = {"exponent": float(slope), "ci": ci}
    c0 = float(np.exp(np.log(r0c_norms) + 0.5 * loge).max())
    return BoundsReport(
        c0=c0, eps0=float(eps_samples[0]), exponents=exps,
        identity_relative_error=float(id_err),
    )


def threshold_equivalence_check(model, detection_threshold=DETECTION_THRESHOLD):
    """At the radial threshold lam = 0 the two sides coincide.

    The zero-energy kernel min(r, r') is real, so K+(0) = K-(0) exactly and
    the classification at 0 is side-independent.  Refused on the line
    backend (no finite threshold kernel in 1d).
    """
    if model.backend != "radial":
        raise AdmissibilityError(
            "threshold diagnostics need the radial backend (1d threshold diverges)"
        )
    if model.weight.kind == "power" and model.weight.s <= 1.0:
        raise ModelError("threshold work needs weight exponent s > 1 (sigma > 2)")
    sp = sigma_min(model, 0.0, "+")
    sm = sigma_min(model, 0.0, "-")
    rep = classify_point(model, 0.0, detection_threshold)
    return {
        "sigma_min_plus": sp,
        "sigma_min_minus": sm,
        "difference": abs(sp - sm),
        "class": rep.kind,
        "side_independent": abs(sp - sm) <= 1e-10,
    }


# ---------------------------------------------------------------------------
# complex eigenvalues (discrete spectrum) via det(Id + K(z)) = 0
# ---------------------------------------------------------------------------


def _logdet_derivative(model, z):
    """d/dz log det(Id + K(z)) = tr[(Id + K)^(-1) K'(z)] = tr[A^(-1) K'_SS(z)]."""
    return complex(np.trace(BoundarySystem(model, z=z).a_solve(bs_matrix_dz(model, z))))


def locate_eigenvalues(model, re_range=(-10.0, 30.0), im_range=(-6.0, 6.0),
                       n_re=24, n_im=13, newton_tol=1e-11, max_newton=40):
    """Eigenvalues of H off the essential spectrum, det(Id + K(z)) = 0.

    Seeds come from local minima of log|det| on a coarse rectangular grid
    (both half-planes, plus rows hugging the negative real axis where
    bound states live); Newton iterates z <- z - 1/tr[(Id+K)^(-1) K'].
    Roots are validated by the argument principle on small circles
    (winding = multiplicity).
    """
    res = np.linspace(re_range[0], re_range[1], n_re)
    band = np.linspace(im_range[0], im_range[1], n_im)
    ims = np.array(sorted(set(float(b) for b in band if abs(b) > 0.02) | {-0.05, 0.05}))
    surface = np.empty((ims.size, n_re))
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            surface[i, j], _ = log_det(model, z=a + 1j * b)
    seeds = []
    for i in range(ims.size):
        for j in range(n_re):
            window = surface[max(0, i - 1): i + 2, max(0, j - 1): j + 2]
            if surface[i, j] == window.min() and surface[i, j] < np.median(surface) - 1.0:
                seeds.append(res[j] + 1j * ims[i])
    roots = []
    for z in seeds:
        zn = z
        ok = False
        for _ in range(max_newton):
            d = _logdet_derivative(model, zn)
            if d == 0:
                break
            step = -1.0 / d
            zn = zn + step
            if abs(step) < newton_tol * max(1.0, abs(zn)):
                ok = True
                break
        if not ok or not (re_range[0] - 1 < zn.real < re_range[1] + 1):
            continue
        if abs(zn.imag) < 1e-9:
            if zn.real >= -1e-9:
                continue  # on the essential spectrum: the scan's job
            zn = complex(zn.real)  # negative real bound state
        if any(abs(zn - r["z"]) < 1e-7 for r in roots):
            continue
        mult = eigenvalue_winding(model, zn, radius=1e-3)
        if mult >= 1:
            roots.append({"z": complex(zn), "multiplicity": mult})
    roots.sort(key=lambda r: (r["z"].real, r["z"].imag))
    return roots


def eigenvalue_winding(model, center, radius, n_nodes=32):
    """Argument-principle count of det(Id + K(z)) zeros inside a circle."""
    theta = 2 * math.pi * np.arange(n_nodes) / n_nodes
    total = 0.0 + 0.0j
    for t in theta:
        z = center + radius * np.exp(1j * t)
        dz = 1j * radius * np.exp(1j * t) * (2 * math.pi / n_nodes)
        total += _logdet_derivative(model, z) * dz
    return int(round((total / (2j * math.pi)).real))
