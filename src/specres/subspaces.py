"""Time evolution, asymptotically disappearing states, the absolutely
continuous subspace and the J-orthogonal decomposition.

Sign conventions: a generalized eigenvector with Im(lambda) < 0 decays
under e^{-itH} as t -> +infinity, so the "plus" space of asymptotically
disappearing states matches the spectral data in the lower half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .calculus import grid_inner, grid_norm
from .model import ModelError
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

    Finite backend only.  Growing modes that overflow truncate the curve
    (flagged).  Classification is a least-squares fit of log||.|| against
    {1, t} and {1, t, log(1+t)} on the tail of the curve.
    """
    if model.backend != "finite":
        raise ModelError("evolution curves need the finite backend")
    u = np.asarray(u, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    h = model.h
    # propagate by stepping (Jordan-safe); uniform grids reuse one factor
    steps = np.diff(t_grid)
    uniform = steps.size > 0 and np.allclose(steps, steps[0], rtol=1e-12)
    norms = np.empty(t_grid.size)
    truncated = False
    n_keep = t_grid.size
    state = sla.expm(-1j * t_grid[0] * h) @ u
    norms[0] = np.linalg.norm(state)
    b = sla.expm(-1j * steps[0] * h) if uniform else None
    for i in range(1, t_grid.size):
        with np.errstate(over="raise", invalid="raise"):
            try:
                if uniform:
                    state = b @ state
                else:
                    state = sla.expm(-1j * (t_grid[i] - t_grid[i - 1]) * h) @ state
                norms[i] = np.linalg.norm(state)
            except FloatingPointError:
                truncated = True
                n_keep = i
                break
        if not np.isfinite(norms[i]) or norms[i] > 1e100:
            truncated = True
            n_keep = i
            break
    t_grid = t_grid[:n_keep]
    norms = norms[:n_keep]
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


def ads_basis(model, sign, horizon=None, tol=1e-6, ambiguity_band=1e-8):
    """Numerically-decaying subspace at t -> +/- infinity by stepped
    evolution with QR renormalization.

    The frame is evolved by the inverse group (decaying directions grow
    there) in steps short enough to stay overflow-free; the accumulated
    per-direction growth identifies vectors with ||e^{-iTH} u|| <= tol
    ||u|| at the horizon T = 50/gap.  Compared against the Schur
    eigenspace with Im(lambda) of the matching sign.
    """
    if model.backend != "finite":
        raise ModelError("ADS extraction needs the finite backend")
    if sign not in ("+", "-"):
        raise ModelError("sign must be '+' or '-'")
    h = model.h
    n = h.shape[0]
    lam = np.linalg.eigvals(h)
    noise = 1e-10 * max(1.0, float(np.linalg.norm(h, 2)))
    if np.any((np.abs(lam.imag) > noise) & (np.abs(lam.imag) < ambiguity_band)):
        raise ModelError(
            "eigenvalues within 1e-8 of the real axis: decay classification ambiguous"
        )
    want_im_negative = sign == "+"
    target = (lam.imag < -ambiguity_band) if want_im_negative else (lam.imag > ambiguity_band)
    complex_eigs = lam[np.abs(lam.imag) >= ambiguity_band]
    label = "ads_plus" if sign == "+" else "ads_minus"
    if complex_eigs.size == 0 or not np.any(target):
        # Lyapunov regime: verify no direction decays over a default horizon
        _, growth = _stepped_frame(h, sign, horizon=50.0)
        max_growth = float(np.max(growth))
        return SubspaceBasis(
            label, np.zeros((n, 0), dtype=complex), None,
            {"max_accumulated_growth": max_growth,
             "decaying_found": bool(max_growth >= -math.log(tol))},
        )
    gap = float(np.min(np.abs(complex_eigs.imag)))
    horizon = horizon or 50.0 / gap
    q, growth = _stepped_frame(h, sign, horizon)
    keep = growth >= -math.log(tol)
    vectors = q[:, keep]
    band = ambiguity_band
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


def _step_generator(h, sign, horizon):
    lam = np.linalg.eigvals(h)
    max_im = max(np.max(np.abs(lam.imag)), 1e-12)
    t_step = min(3.0 / max_im, horizon)
    n_steps = max(1, int(math.ceil(horizon / t_step)))
    t_step = horizon / n_steps
    # inverse-group generator: decaying directions of e^{-itH} grow here
    b = sla.expm((1j if sign == "+" else -1j) * t_step * h)
    return b, n_steps


def _stepped_frame(h, sign, horizon):
    n = h.shape[0]
    b, n_steps = _step_generator(h, sign, horizon)
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


def _default_witnesses(model, rng, count=20):
    if model.backend == "finite":
        n = model.size
        vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]
        vs += [e for e in np.eye(n, dtype=complex)]
        return vs
    x = model.grid.nodes
    span = model.grid.hi - model.grid.lo
    vs = []
    for _ in range(count):
        center = model.grid.lo + span * (0.15 + 0.6 * rng.random())
        width = 0.3 + 0.7 * rng.random()
        mod = 3.0 * rng.standard_normal()
        vs.append(np.exp(-0.5 * ((x - center) / width) ** 2) * np.exp(1j * mod * x))
    return vs


def ac_certificate(model, u=None, w=None, witnesses=None, reg=None, seed=7,
                   lam_max=None, t_max=60.0):
    """Certify u in M(H): int |<e^{-itH} u, v>|^2 dt <= c_u ||v||^2.

    Continuum backends use the boundary-jump integral

        int |r(l)|^2 |<(R_H(l-i0) - R_H(l+i0)) C w, psi>|^2 dl / (2 pi),

    for u = r(H)(Id - Pi_p) C w from the certified dense class (``w``
    supplied; r and Pi_p trivial when H has no singularities or
    eigenvalues); the five resolvent-expansion constituents are reported
    separately.  Finite point-spectrum models refuse every u != 0: some
    time correlation fails to decay.
    """
    rng = np.random.default_rng(seed)
    if model.backend == "finite":
        u = np.asarray(u, dtype=complex)
        if np.linalg.norm(u) == 0.0:
            return ACCertificate(0.0, [], "time_domain")
        witnesses = witnesses or _default_witnesses(model, rng)
        h = model.h
        ts = np.linspace(-t_max, t_max, 481)
        dt = ts[1] - ts[0]
        # Jordan-safe propagation by stepping from t = 0 both ways
        i0 = ts.size // 2
        states = {i0: sla.expm(-1j * ts[i0] * h) @ u}
        fwd = sla.expm(-1j * dt * h)
        bwd = sla.expm(1j * dt * h)
        overflow_at = None
        for i in range(i0 + 1, ts.size):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    states[i] = fwd @ states[i - 1]
                except FloatingPointError:
                    overflow_at = ts[i]
                    break
        for i in range(i0 - 1, -1, -1):
            with np.errstate(over="raise", invalid="raise"):
                try:
                    states[i] = bwd @ states[i + 1]
                except FloatingPointError:
                    overflow_at = ts[i]
                    break
        if overflow_at is not None:
            raise CertificateRefused(
                f"|e^(-itH) u| overflows near t = {overflow_at:.3g}: "
                "no finite time-correlation constant exists"
            )
        worst = None
        for v in witnesses:
            v = np.asarray(v, dtype=complex)
            g = np.array([abs(np.vdot(states[i], v)) for i in range(ts.size)])
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
    if lam_max is None:
        # spectral content of C w sets the integration range
        from .calculus import mode_transform

        ks = np.linspace(0.05, math.sqrt(model.max_scan_energy()), 120)
        amps = np.abs(mode_transform(model, cw, ks))
        if amps.ndim > 1:
            amps = amps.sum(axis=-1)
        k_hi = ks[min(np.searchsorted(np.cumsum(amps**2), 0.999999 * np.sum(amps**2)),
                      ks.size - 1)]
        lam_max = float(max(4.0, (1.3 * k_hi) ** 2))

    n_k = 180
    from .numerics import gauss_legendre

    rule = gauss_legendre(n_k, 1e-3, math.sqrt(lam_max))
    term_names = ["free", "second_minus", "second_plus", "third_minus", "third_plus"]
    term_sums = dict.fromkeys(term_names, 0.0)
    jump_rows = []
    for k in rule.nodes:
        lam = k * k
        terms = _jump_terms(model, lam, cw)
        jump_rows.append([complex(rfun(lam)) * t for t in terms])
    jump_rows = np.asarray(jump_rows)  # (n_k, 5) of grid vectors? no: vectors

    values = []
    for v in witnesses:
        v = np.asarray(v, dtype=complex)
        nv2 = abs(grid_inner(model, v, v))
        tot = 0.0
        per_term = dict.fromkeys(term_names, 0.0)
        for i, k in enumerate(rule.nodes):
            row = jump_rows[i]
            pair_vals = [complex(np.sum(g.weights * np.conj(t) * v)) for t in row]
            total_pair = sum(pair_vals)
            wgt = rule.weights[i] * 2.0 * k / (2.0 * math.pi)
            tot += wgt * abs(total_pair) ** 2
            for name, pv in zip(term_names, pair_vals):
                per_term[name] += wgt * abs(pv) ** 2
        values.append(tot / nv2)
        for name in term_names:
            term_sums[name] = max(term_sums[name], per_term[name] / nv2)
    c_u = float(max(values))
    return ACCertificate(
        c_u, [float(x) for x in values], "boundary_jump_integral",
        terms={k: float(v) for k, v in term_sums.items()},
        diagnostics={"lam_max": lam_max, "n_k": n_k},
    )


def _jump_terms(model, lam, cw):
    """The five constituents of (R_H(l-i0) - R_H(l+i0)) C w as grid vectors:
    free difference, two second-order and two third-order terms."""
    c = model.c_values
    systems = {s: bs.BoundarySystem(model, lam=lam, side=s) for s in ("+", "-")}
    r0 = {s: systems[s].action.apply(cw) for s in ("+", "-")}
    free = r0["-"] - r0["+"]
    second, third = {}, {}
    for s in ("+", "-"):
        act = systems[s].action
        second[s] = act.apply(c * model.apply_w(c * r0[s]))
        _, corr = systems[s].resolvent_apply(cw)
        third[s] = act.apply(c * model.apply_w(c * act.apply(corr)))
    # R_H = R0 - R0 V R0 + R0 V R_H V R0, difference minus-plus
    return (
        free,
        -second["-"],
        +second["+"],
        third["-"],
        -third["+"],
    )


def ac_equality_check(model, frame_size=None, seed=11):
    """Degenerate-case consistency on finite point-spectrum models.

    When the point spectrum spans everything, H_ac must vanish: every
    nonzero frame vector is refused.  Isotropic eigenvectors (J-degenerate
    blocks) are detected and flagged as the known pathological case where
    the orthogonal-complement characterization is not expected.
    """
    if model.backend != "finite":
        raise ModelError("the equality check runs on finite models")
    n = model.size
    rng = np.random.default_rng(seed)
    frame_size = frame_size or min(n, 6)
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


def j_decomposition_report(model, tol=1e-8):
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
        if cond > 1e8:
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
        "complete": sigma >= tol,
        "j_orthogonal": cross <= tol,
        "eigenvalues": [complex(x) for x in np.sort_complex(lam)],
        "bases": blocks,
    }
