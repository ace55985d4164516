"""Time evolution, asymptotically disappearing states, the absolutely
continuous subspace and the J-orthogonal decomposition.

Sign conventions: a generalized eigenvector with Im(lambda) < 0 decays
under e^{-itH} as t -> +infinity, so the "plus" space of asymptotically
disappearing states matches the spectral data in the lower half-plane.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .calculus import J_GRAM_CONDITION_MAX, grid_inner, grid_norm, mode_transform
from .model import ModelError
from .numerics import gauss_legendre
from . import birman_schwinger as bs

__all__ = [
    "EvolutionCurve",
    "SubspaceBasis",
    "ACCertificate",
    "CertificateRefused",
    "evolve_norm_curve",
    "ads_basis",
    "generalized_eigenspace",
    "ac_certificate",
    "ac_equality_check",
    "j_decomposition_report",
]


class CertificateRefused(ModelError):
    """No finite time-correlation constant exists for this vector."""


@dataclass
class EvolutionCurve:
    times: np.ndarray
    norms: np.ndarray
    classification: str  # exponential | polynomial_exponential | bounded | growing
    rate: float | None
    fit_residual: float
    truncated: bool = False


def evolve_norm_curve(model, u, t_grid):
    """||e^{-itH} u|| on a time grid with a fitted decay classification.

    Finite backend only, on at least 4 time points, stepped from the time
    nearest 0 (``_propagate``).  Growing modes that overflow or pass 1e100
    truncate the curve (flagged); a curve cut below 4 points is
    "growing".  Classification is a least-squares fit of log||.|| against
    {1, t} and {1, t, log(1+t)} on the tail of the curve.
    """
    if model.backend != "finite":
        raise ModelError("evolution curves need the finite backend")
    u = np.asarray(u, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 4:
        raise ModelError(f"the decay fit needs at least 4 time points, got {t_grid.size}")
    states, lo, hi = _propagate(model.h, u, t_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([np.linalg.norm(state) for state in states[lo:hi]])
    n_keep = next((i for i, x in enumerate(norms) if not x <= 1e100), norms.size)
    truncated = (lo, lo + n_keep) != (0, t_grid.size)
    t_grid, norms = t_grid[lo:lo + n_keep], norms[:n_keep]
    if n_keep < 4:
        return EvolutionCurve(t_grid, norms, "growing", None, 0.0, truncated)

    tail = t_grid >= t_grid[0] + 0.5 * (t_grid[-1] - t_grid[0])
    tt, nn_raw = t_grid[tail], norms[tail]
    # beating between modes with close decay rates makes the raw log-norm
    # oscillate; the local-maximum envelope tracks the dominant rate
    peaks = np.ones(tt.size, dtype=bool)
    if tt.size >= 5:
        interior = (nn_raw[1:-1] >= nn_raw[:-2]) & (nn_raw[1:-1] >= nn_raw[2:])
        if np.count_nonzero(interior) >= 4:
            peaks = np.concatenate([[False], interior, [True]])
    te, ne = tt[peaks], np.log(np.maximum(nn_raw[peaks], 1e-300))
    design_exp = np.stack([np.ones_like(te), te], axis=1)
    sol_exp, res_exp = _lstsq_with_residual(design_exp, ne)
    design_pe = np.stack([np.ones_like(te), te, np.log(1.0 + np.abs(te))], axis=1)
    sol_pe, res_pe = _lstsq_with_residual(design_pe, ne)
    slope = sol_exp[1]
    spread = norms.max() / max(norms.min(), 1e-300)
    end_ratio = norms[-1] / max(norms[0], 1e-300)
    if truncated or (slope > 1e-6 and end_ratio > 10):
        cls, rate, resid = "growing", float(slope), res_exp
    elif abs(slope) * (te[-1] - te[0]) < 0.05 and spread < 10:
        cls, rate, resid = "bounded", None, res_exp
    elif res_exp > 1e-3 and res_pe < 0.5 * res_exp and abs(sol_pe[2]) > 0.5:
        cls, rate, resid = "polynomial_exponential", float(-sol_pe[1]), res_pe
    else:
        cls, rate, resid = "exponential", float(-slope), res_exp
    return EvolutionCurve(t_grid, norms, cls, rate, float(resid), truncated)


def _propagate(h, u, times):
    """(states, lo, hi): e^{-itH} u at the times of a sorted grid, the rows
    states[lo:hi], stepped (Jordan-safe) from the time nearest 0 both ways,
    one factor per direction on a uniform grid.  Each direction stops
    before its first step that overflows."""
    steps = np.diff(times)
    uniform = steps.size > 0 and np.allclose(steps, steps[0], rtol=1e-12)
    i0 = int(np.argmin(np.abs(times)))
    states = np.empty((times.size, u.size), dtype=complex)
    states[i0] = sla.expm(-1j * times[i0] * h) @ u
    lo, hi = i0, i0 + 1
    for sgn, stop in ((1, times.size), (-1, -1)):
        run = range(i0 + sgn, stop, sgn)
        step = sla.expm(-1j * (sgn * steps[0]) * h) if uniform and run else None
        with np.errstate(over="raise", invalid="raise"), contextlib.suppress(FloatingPointError):
            for i in run:
                if not uniform:
                    step = sla.expm(-1j * (times[i] - times[i - sgn]) * h)
                states[i] = step @ states[i - sgn]
                lo, hi = min(lo, i), max(hi, i + 1)
    return states, lo, hi


def _lstsq_with_residual(design, y):
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ sol
    scale = max(np.max(np.abs(y)), 1e-300)
    return sol, float(np.max(np.abs(pred - y)) / scale)


@dataclass
class SubspaceBasis:
    label: str
    vectors: np.ndarray  # (n, k) orthonormal columns
    principal_angles: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.vectors.shape[1]


def generalized_eigenspace(h, selector):
    """Orthonormal basis of the invariant subspace for selected eigenvalues.

    Schur-based, so Jordan structure is handled exactly; ``selector`` maps
    an eigenvalue to bool.
    """
    t, z, sdim = sla.schur(h, output="complex", sort=selector)
    return z[:, :sdim]


def ads_basis(model, sign):
    """Numerically-decaying subspace at t -> +/- infinity by stepped
    evolution with QR renormalization.

    The frame is evolved by the inverse group (decaying directions grow
    there) in steps short enough to stay overflow-free; the accumulated
    per-direction growth identifies the vectors that have decayed below a
    fixed tolerance at the horizon T = 50/gap.  Compared against the Schur
    eigenspace with Im(lambda) of the matching sign.
    """
    if model.backend != "finite":
        raise ModelError("ADS extraction needs the finite backend")
    if sign not in ("+", "-"):
        raise ModelError("sign must be '+' or '-'")
    h = model.h
    n = h.shape[0]
    lam = np.linalg.eigvals(h)
    band, decay = 1e-8, -math.log(1e-6)   # decay: growth of a kept direction
    noise = 1e-10 * max(1.0, float(np.linalg.norm(h, 2)))
    if np.any((np.abs(lam.imag) > noise) & (np.abs(lam.imag) < band)):
        raise ModelError(
            "eigenvalues within 1e-8 of the real axis: decay classification ambiguous"
        )
    want_im_negative = sign == "+"
    target = (lam.imag < -band) if want_im_negative else (lam.imag > band)
    complex_eigs = lam[np.abs(lam.imag) >= band]
    label = "ads_plus" if sign == "+" else "ads_minus"
    if complex_eigs.size == 0 or not np.any(target):
        # Lyapunov regime: verify no direction decays over a default horizon
        _, growth = _stepped_frame(h, lam, sign, 50.0)
        max_growth = float(np.max(growth))
        return SubspaceBasis(
            label, np.zeros((n, 0), dtype=complex), None,
            {"max_accumulated_growth": max_growth,
             "decaying_found": bool(max_growth >= decay)},
        )
    gap = float(np.min(np.abs(complex_eigs.imag)))
    horizon = 50.0 / gap
    q, growth = _stepped_frame(h, lam, sign, horizon)
    vectors = q[:, growth >= decay]
    oracle = generalized_eigenspace(
        h, (lambda x: x.imag < -band) if want_im_negative else (lambda x: x.imag > band)
    )
    angles = None
    if vectors.shape[1] and oracle.shape[1]:
        angles = sla.subspace_angles(vectors, oracle)
    return SubspaceBasis(
        label, vectors, angles,
        {"horizon": horizon, "gap": gap, "oracle_dim": oracle.shape[1],
         "accumulated_growth": growth},
    )


def _step_generator(h, lam, sign, horizon):
    max_im = max(np.max(np.abs(lam.imag)), 1e-12)
    t_step = min(3.0 / max_im, horizon)
    n_steps = max(1, int(math.ceil(horizon / t_step)))
    t_step = horizon / n_steps
    # inverse-group generator: decaying directions of e^{-itH} grow here
    b = sla.expm((1j if sign == "+" else -1j) * t_step * h)
    return b, n_steps


def _stepped_frame(h, lam, sign, horizon):
    n = h.shape[0]
    b, n_steps = _step_generator(h, lam, sign, horizon)
    q = np.eye(n, dtype=complex)
    growth = np.zeros(n)
    for _ in range(n_steps):
        y = b @ q
        q, r = np.linalg.qr(y)
        growth += np.log(np.maximum(np.abs(np.diag(r)), 1e-300))
    order = np.argsort(-growth)
    return q[:, order], growth[order]


# ---------------------------------------------------------------------------
# absolutely continuous subspace
# ---------------------------------------------------------------------------


@dataclass
class ACCertificate:
    c_u: float
    witness_values: list
    method: str
    terms: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _default_witnesses(model, rng):
    if model.backend == "finite":
        n = model.size
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(20)]
        vs += [e for e in np.eye(n, dtype=complex)]
        return vs
    x = model.grid.nodes
    span = model.grid.hi - model.grid.lo
    vs = []
    for _ in range(20):
        center = model.grid.lo + span * (0.15 + 0.6 * rng.random())
        width = 0.3 + 0.7 * rng.random()
        mod = 3.0 * rng.standard_normal()
        vs.append(np.exp(-0.5 * ((x - center) / width) ** 2) * np.exp(1j * mod * x))
    return vs


def ac_certificate(model, u=None, w=None, witnesses=None, reg=None):
    """Certify u in M(H): int |<e^{-itH} u, v>|^2 dt <= c_u ||v||^2.

    Continuum backends use the boundary-jump integral

        int |r(l)|^2 |<(R_H(l-i0) - R_H(l+i0)) C w, psi>|^2 dl / (2 pi),

    for u = r(H)(Id - Pi_p) C w from the certified dense class (``w``
    supplied; r and Pi_p trivial when H has no singularities or
    eigenvalues); the five resolvent-expansion constituents are reported
    separately.  Finite point-spectrum models refuse every u != 0: some
    time correlation fails to decay.  Witnesses left out are seeded.
    """
    rng = np.random.default_rng(7)
    if model.backend == "finite":
        u = np.asarray(u, dtype=complex)
        if np.linalg.norm(u) == 0.0:
            return ACCertificate(0.0, [], "time_domain")
        witnesses = witnesses or _default_witnesses(model, rng)
        ts = np.linspace(-60.0, 60.0, 481)
        states, lo, hi = _propagate(model.h, u, ts)
        if (lo, hi) != (0, ts.size):
            raise CertificateRefused(
                f"|e^(-itH) u| overflows near t = {ts[lo - 1] if lo else ts[hi]:.3g}: "
                "no finite time-correlation constant exists"
            )
        worst = None
        for v in witnesses:
            v = np.asarray(v, dtype=complex)
            g = np.array([abs(np.vdot(state, v)) for state in states])
            third = ts.size // 3
            head = float(np.trapezoid(g[:third] ** 2, ts[:third]))
            mid = float(np.trapezoid(g[third:2 * third] ** 2, ts[third:2 * third]))
            tail = float(np.trapezoid(g[2 * third:] ** 2, ts[2 * third:]))
            decaying = head < 0.25 * mid and tail < 0.25 * mid
            if not decaying and (head + mid + tail) > 1e-28 * np.linalg.norm(v) ** 2:
                worst = (head, mid, tail)
                break
        if worst is not None:
            raise CertificateRefused(
                "time correlations do not decay (point spectrum is an obstruction): "
                f"window integrals {worst}"
            )
        # finite models with nonempty point spectrum always land above;
        # reaching here means u ~ 0 numerically
        return ACCertificate(0.0, [], "time_domain")

    if w is None:
        raise ModelError(
            "continuum certificates need the dense-class datum w with "
            "u = r(H)(Id - Pi_p) C w"
        )
    if reg is None:
        eigs = bs.locate_eigenvalues(model, re_range=(-20.0, 40.0), n_re=16, n_im=9)
        if eigs:
            raise ModelError(
                "model has discrete eigenvalues: supply the regularizer/projection "
                "data of the certified dense class"
            )
    w = np.asarray(w, dtype=complex)
    cw = model.c_values * w
    witnesses = witnesses or _default_witnesses(model, rng)
    rfun = (lambda lam: 1.0) if reg is None else reg
    g = model.grid
    # spectral content of C w sets the integration range
    ks = np.linspace(0.05, math.sqrt(model.max_scan_energy()), 120)
    amps = np.abs(mode_transform(model, cw, ks))
    if amps.ndim > 1:
        amps = amps.sum(axis=-1)
    k_hi = ks[min(np.searchsorted(np.cumsum(amps**2), 0.999999 * np.sum(amps**2)),
                  ks.size - 1)]
    lam_max = float(max(4.0, (1.3 * k_hi) ** 2))

    n_k = 180
    rule = gauss_legendre(n_k, 1e-3, math.sqrt(lam_max))
    term_names = ["free", "second_minus", "second_plus", "third_minus", "third_plus"]
    term_sums = dict.fromkeys(term_names, 0.0)
    lams = rule.nodes * rule.nodes
    r_vals = np.array([complex(rfun(lam)) for lam in lams])
    # (n_k, 5, N): conjugated terms on the grid
    jump_rows = np.conj(r_vals[:, None, None] * _jump_terms(model, lams, cw))
    wgt = rule.weights * 2.0 * rule.nodes / (2.0 * math.pi)

    values = []
    for v in witnesses:
        v = np.asarray(v, dtype=complex)
        nv2 = abs(grid_inner(model, v, v))
        pair_vals = jump_rows @ (g.weights * v)   # (n_k, 5): <term, v> per node
        values.append(float(wgt @ np.abs(pair_vals.sum(axis=1)) ** 2) / nv2)
        per_term = wgt @ np.abs(pair_vals) ** 2
        for name, val in zip(term_names, per_term):
            term_sums[name] = max(term_sums[name], float(val) / nv2)
    c_u = float(max(values))
    return ACCertificate(
        c_u, [float(x) for x in values], "boundary_jump_integral",
        terms={k: float(v) for k, v in term_sums.items()},
        diagnostics={"lam_max": lam_max, "n_k": n_k},
    )


def _jump_terms(model, lams, cw):
    """The five constituents of (R_H(l-i0) - R_H(l+i0)) C w as grid vectors
    at every lam of a 1-D array: free difference, two second-order and two
    third-order terms, (K, 5, N), evaluated in stacks of at most
    ``bs.BATCH_POINTS`` points."""
    c = model.c_values[:, None]

    def terms(lam):
        plus = bs.BoundarySystem(model, lam=lam, side="+")
        systems = {"+": plus, "-": plus.mirror()}
        r0 = {s: systems[s].action.apply(cw[:, None]) for s in ("+", "-")}
        free = r0["-"] - r0["+"]
        second, third = {}, {}
        for s in ("+", "-"):
            act = systems[s].action
            second[s] = act.apply(c * model.apply_w(c * r0[s]))
            corr = c * systems[s].w_solve(c * r0[s])   # the source of resolvent_apply(cw)
            third[s] = act.apply(c * model.apply_w(c * act.apply(corr)))
        # R_H = R0 - R0 V R0 + R0 V R_H V R0, difference minus-plus
        return np.stack((free, -second["-"], +second["+"], third["-"], -third["+"]),
                        axis=-3)[..., 0]

    return bs.over_stacks(model, terms, lams)


def ac_equality_check(model):
    """Degenerate-case consistency on finite point-spectrum models.

    When the point spectrum spans everything, H_ac must vanish: every
    nonzero vector of a seeded frame is refused.  Isotropic eigenvectors (J-degenerate
    blocks) are detected and flagged as the known pathological case where
    the orthogonal-complement characterization is not expected.
    """
    if model.backend != "finite":
        raise ModelError("the equality check runs on finite models")
    n = model.size
    rng = np.random.default_rng(11)
    frame_size = min(n, 6)
    h = model.h
    refused = 0
    for _ in range(frame_size):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            ac_certificate(model, u=u)
        except CertificateRefused:
            refused += 1
    lam, vecs = np.linalg.eig(h)
    pathological = []
    for j in range(n):
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        q = v @ v  # bilinear self-pairing <J v, v>
        # defective eigenvectors carry sqrt(machine eps) perturbations
        if abs(q) < 1e-6:
            # isotropic eigenvector: orthogonal to the adjoint eigenvector
            w = np.conj(v)
            pathological.append({
                "lambda": complex(lam[j]),
                "bilinear_self_pairing": abs(q),
                "orthogonal_to_adjoint_eigvec": float(abs(np.vdot(w, v))),
            })
    return {
        "frame_size": frame_size,
        "refused": refused,
        "all_refused": refused == frame_size,
        "pathological_eigenvectors": pathological,
    }


# ---------------------------------------------------------------------------
# J-orthogonal decomposition
# ---------------------------------------------------------------------------


def j_decomposition_report(model):
    """H = ads_plus + ads_minus + bound (+ ac complement) with J-orthogonality.

    Needs JH = H*J, i.e. a complex-symmetric H on the finite backend.  The
    three invariant subspaces come from sorted Schur forms; completeness is
    the smallest singular value of the stacked basis and J-orthogonality
    the largest bilinear pairing u^T v across different components.
    """
    if model.backend != "finite":
        raise ModelError("the decomposition report runs on finite models")
    h = model.h
    if np.linalg.norm(h - h.T, 2) > 1e-10 * max(np.linalg.norm(h, 2), 1.0):
        raise ModelError("JH = H*J fails: H is not complex-symmetric")
    lam = np.linalg.eigvals(h)
    band = 1e-10 * max(1.0, float(np.linalg.norm(h, 2)))
    blocks = {
        "ads_plus": generalized_eigenspace(h, lambda x: x.imag < -band),
        "ads_minus": generalized_eigenspace(h, lambda x: x.imag > band),
        "bound": generalized_eigenspace(h, lambda x: abs(x.imag) <= band),
    }
    # J-Gram nondegeneracy on the real-eigenvalue block
    b0 = blocks["bound"]
    if b0.shape[1]:
        gram = b0.T @ b0
        sv = np.linalg.svd(gram, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond > J_GRAM_CONDITION_MAX:
            raise ModelError(
                f"degenerate J-form on the bound-state block (condition {cond:.3e})"
            )
    stacked = np.concatenate([b for b in blocks.values() if b.shape[1]], axis=1)
    sigma = float(np.linalg.svd(stacked, compute_uv=False)[-1]) if stacked.shape[1] else 1.0
    cross = 0.0
    names = list(blocks)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = blocks[names[i]], blocks[names[j]]
            if a.shape[1] and b.shape[1]:
                cross = max(cross, float(np.max(np.abs(a.T @ b))))
    return {
        "dimensions": {k: int(v.shape[1]) for k, v in blocks.items()},
        "completeness_sigma_min": sigma,
        "max_cross_bilinear": cross,
        "complete": sigma >= 1e-8,
        "j_orthogonal": cross <= 1e-8,
        "eigenvalues": [complex(x) for x in np.sort_complex(lam)],
        "bases": blocks,
    }
