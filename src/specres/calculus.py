"""Spectral projections and the (regularized) functional calculus.

Forms on continuum backends are evaluated along two independent routes:

* a boundary-exact route using the factorized representation

      1_I(H) = 1_I(H0) - (1/2 pi i) int_I [ R0(l+i0) C W (Id+K+)^(-1) C R0(l+i0)
                                          - R0(l-i0) C W (Id+K-)^(-1) C R0(l-i0) ] dl

  whose free term is the explicit spectral measure of H0 and whose
  correction term is localized on the support of W (so compactly
  supported test vectors never see a grid truncation);

* a direct route that evaluates the smoothed Stone integral at finite
  eps through resolvent applications at complex energies, followed by
  extrapolation (the eps -> 0 error carries an eps*log(eps) term from the
  interval endpoints, so the extrapolation basis includes it).

Products of two spectral projections reduce, via the first resolvent
identity R_H(z) R_H(z') = (R_H(z) - R_H(z'))/(z - z'), to scalar samples
of F(z) = <u, R_H(z) v>, which keeps compactly supported test vectors
free of any truncation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import birman_schwinger as bs
from .model import AdmissibilityError, ModelError
from .numerics import gauss_legendre

__all__ = [
    "SpectralProjection",
    "Regularizer",
    "RegularizedFunction",
    "ContourSpec",
    "IntegrandBlowupError",
    "grid_inner",
    "grid_norm",
    "mode_transform",
    "free_form",
    "free_apply",
    "spectral_form",
    "stone_form",
    "stone_apply",
    "functional_calculus_form",
    "regularized_calculus_form",
    "stone_product_form",
    "stone_product_forms",
    "spectral_product_form",
    "distinct_eigenvalues",
    "riesz_projection",
    "embedded_projection",
    "regularizer_apply",
    "apply_h",
    "resolution_residual",
    "dunford_contour_check",
]


class IntegrandBlowupError(ModelError):
    """The spectral integrand blows up inside the integration window
    (insufficient regularization order at a contained singularity)."""


# ---------------------------------------------------------------------------
# grid pairings and free spectral data
# ---------------------------------------------------------------------------


def grid_inner(model, a, b):
    """<a, b> = int conj(a) b on the model grid."""
    w = model.grid.weights
    return complex(np.sum(w * np.conj(a) * b))


def grid_norm(model, a):
    return math.sqrt(abs(grid_inner(model, a, a)))


def mode_transform(model, samples, k):
    """Generalized-eigenfunction amplitudes of a compact grid function.

    radial: (k,) array  u~(k) = int sin(k r) u(r) dr
    line1d: (k, 2) array of u~(+/- k) = int e^{ -/+ i k x } u(x) dx
    """
    g = model.grid
    k = np.atleast_1d(np.asarray(k, dtype=float))
    wu = g.weights * np.asarray(samples, dtype=complex)
    if model.backend == "radial":
        return np.sin(np.outer(k, g.nodes)) @ wu
    plus = np.exp(-1j * np.outer(k, g.nodes)) @ wu
    minus = np.exp(1j * np.outer(k, g.nodes)) @ wu
    return np.stack([plus, minus], axis=-1)


def free_form(model, interval, u, v, f=None, n_k=None):
    """<u, [f 1_I](H0) v> via the explicit spectral measure of H0."""
    a, b = interval
    if a >= b:
        return 0.0 + 0.0j
    ka, kb = math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
    if kb <= ka:
        return 0.0 + 0.0j
    n_k = n_k or max(64, int(40 * (kb - ka)))
    rule = gauss_legendre(n_k, ka, kb)
    tu = mode_transform(model, u, rule.nodes)
    tv = mode_transform(model, v, rule.nodes)
    fw = np.ones(rule.nodes.size, dtype=complex)
    if f is not None:
        fw = np.asarray([f(k * k) for k in rule.nodes], dtype=complex)
    if model.backend == "radial":
        vals = np.conj(tu) * tv * fw
        return complex((2.0 / math.pi) * (rule.weights @ vals))
    vals = np.sum(np.conj(tu) * tv, axis=-1) * fw
    return complex((1.0 / (2.0 * math.pi)) * (rule.weights @ vals))


def free_apply(model, interval, v, f=None, n_k=None, points=None):
    """[f 1_I](H0) v sampled on the grid (or at given points)."""
    a, b = interval
    ka, kb = math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
    pts = model.grid.nodes if points is None else np.asarray(points, dtype=float)
    if kb <= ka:
        return np.zeros(pts.shape, dtype=complex)
    n_k = n_k or max(64, int(40 * (kb - ka)))
    rule = gauss_legendre(n_k, ka, kb)
    tv = mode_transform(model, v, rule.nodes)
    fw = np.ones(rule.nodes.size, dtype=complex)
    if f is not None:
        fw = np.asarray([f(k * k) for k in rule.nodes], dtype=complex)
    if model.backend == "radial":
        basis = np.sin(np.outer(rule.nodes, pts))
        return (2.0 / math.pi) * ((rule.weights * fw * tv) @ basis)
    plus = np.exp(1j * np.outer(rule.nodes, pts))
    minus = np.exp(-1j * np.outer(rule.nodes, pts))
    amp = rule.weights * fw
    return (1.0 / (2.0 * math.pi)) * (
        (amp * tv[:, 0]) @ plus + (amp * tv[:, 1]) @ minus
    )


# ---------------------------------------------------------------------------
# adaptive quadrature with blow-up detection
# ---------------------------------------------------------------------------


def _adaptive(func, a, b, rtol=1e-4, max_depth=12, blowup_scale=None, _depth=0):
    """Recursive panel quadrature; raises IntegrandBlowupError when panel
    refinement keeps amplifying the local integrand."""
    coarse_rule = gauss_legendre(8, a, b)
    fine_rule = gauss_legendre(16, a, b)
    fc = np.asarray([func(x) for x in coarse_rule.nodes])
    ff = np.asarray([func(x) for x in fine_rule.nodes])
    coarse = coarse_rule.weights @ fc
    fine = fine_rule.weights @ ff
    scale = max(np.max(np.abs(ff)), 1e-300)
    if blowup_scale and scale > blowup_scale:
        raise IntegrandBlowupError(
            f"integrand magnitude {scale:.3e} exceeds blow-up bound "
            f"{blowup_scale:.3e} on [{a:.6g}, {b:.6g}]"
        )
    err = np.max(np.abs(fine - coarse))
    if err <= rtol * max(1.0, float(np.max(np.abs(fine)))) or _depth >= max_depth:
        if _depth >= max_depth and err > 10 * rtol * max(1.0, float(np.max(np.abs(fine)))):
            raise IntegrandBlowupError(
                f"quadrature failed to converge on [{a:.6g}, {b:.6g}] "
                f"(residual {err:.3e}); integrand likely singular"
            )
        return fine
    mid = 0.5 * (a + b)
    left = _adaptive(func, a, mid, rtol, max_depth, blowup_scale, _depth + 1)
    right = _adaptive(func, mid, b, rtol, max_depth, blowup_scale, _depth + 1)
    return left + right


# ---------------------------------------------------------------------------
# boundary-exact forms
# ---------------------------------------------------------------------------


def _boundary_system(model, lam, side, cache):
    """The BoundarySystem at (lam, side), shared through ``cache``."""
    key = (lam, side)
    if key not in cache:
        cache[key] = bs.BoundarySystem(model, lam=lam, side=side)
    return cache[key]


def _correction_pairing(model, lam, side, u, v, cache):
    """<C R0(l -/+ i0) u, W (Id + K(l, +/-))^(-1) C R0(l, +/-) v>.

    This is the W-localized form of <u, R0 C W (Id - C R_H C W) C R0 v>,
    the full second-plus-third order correction of the resolvent
    expansion.  Both sides' systems at lam come from ``cache``.
    """
    system = _boundary_system(model, lam, side, cache)
    other = _boundary_system(model, lam, "-" if side == "+" else "+", cache)
    c = model.c_values
    left = c * other.action.apply(u)
    wsol = system.w_solve(c * system.action.apply(v))
    return complex(np.sum(model.grid.weights * np.conj(left) * wsol))


def spectral_form(model, interval, u, v, f=None, rtol=1e-4, blowup_scale=None,
                  cache=None):
    """<u, [f 1_I](H) v> by the boundary-exact representation."""
    a, b = interval
    if not (a < b):
        return 0.0 + 0.0j
    model.require_boundary(max(a, 1e-12), "+")
    fval = (lambda lam: 1.0) if f is None else f
    free = free_form(model, interval, u, v, f=f)
    if model.w_is_zero:
        return free
    cache = {} if cache is None else cache

    def integrand(k):
        lam = k * k
        tp = _correction_pairing(model, lam, "+", u, v, cache)
        tm = _correction_pairing(model, lam, "-", u, v, cache)
        return -fval(lam) * (tp - tm) / (2j * math.pi) * 2.0 * k

    ka, kb = math.sqrt(max(a, 0.0)), math.sqrt(b)
    corr = _adaptive(integrand, ka, kb, rtol=rtol, blowup_scale=blowup_scale)
    return free + complex(corr)


def _assert_singularity_free(model, interval, cache, floor=bs.REGULAR_FLOOR, n_probe=24):
    """Refuse an interval on which sigma_min(Id + K) falls below ``floor``.

    sigma_min is probed at ``n_probe`` points per side, and each interior
    local minimum of a side's probes is refined by golden-section search
    over its two neighbouring gaps to the scan's width 1e-8.  A minimum at
    an end probe is not refined.  Every value is kept in ``cache`` (floats,
    not systems) under ("sigma_min", lam, side).
    """
    a, b = interval
    lams = np.linspace(max(a, 1e-6), b, n_probe)
    for side in ("+", "-"):
        def sigma(lam):
            key = ("sigma_min", float(lam), side)
            if key not in cache:
                cache[key] = bs.sigma_min(model, lam, side)
            if cache[key] < floor:
                raise AdmissibilityError(
                    f"interval [{a}, {b}] is not singularity-free: "
                    f"sigma_min(Id+K{side}) = {cache[key]:.3e} at lam = {lam:.6g}"
                )
            return cache[key]

        vals = [sigma(lam) for lam in lams]
        for i in range(1, n_probe - 1):
            if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
                bs._golden_min(sigma, lams[i - 1], lams[i + 1], 1e-8)


def stone_form(model, interval, u, v, rtol=1e-4, check_regular=True, cache=None):
    """<u, 1_I(H) v> for a closed singularity-free interval."""
    cache = {} if cache is None else cache
    if check_regular and not model.w_is_zero:
        _assert_singularity_free(model, interval, cache)
    return spectral_form(model, interval, u, v, f=None, rtol=rtol, cache=cache)


def stone_apply(model, interval, v, rtol=1e-4, points=None):
    """1_I(H) v sampled on the grid (or at arbitrary points)."""
    a, b = interval
    pts = model.grid.nodes if points is None else np.asarray(points, dtype=float)
    out = free_apply(model, interval, v, points=points)
    if model.w_is_zero:
        return out

    def vec_integrand(k):
        lam = k * k
        pieces = []
        for side, sgn in (("+", 1.0), ("-", -1.0)):
            system = bs.BoundarySystem(model, lam=lam, side=side)
            _, src = system.resolvent_apply(v)
            pieces.append(sgn * system.action.evaluate(src, pts))
        return -(pieces[0] + pieces[1]) / (2j * math.pi) * 2.0 * k

    corr = _adaptive(vec_integrand, math.sqrt(max(a, 0.0)), math.sqrt(b), rtol=rtol)
    return out + corr


def functional_calculus_form(model, interval, f, u, v, rtol=1e-4,
                             check_regular=True, cache=None):
    """<u, f(H) 1_I v> for bounded continuous f on I."""
    cache = {} if cache is None else cache
    if check_regular and not model.w_is_zero:
        _assert_singularity_free(model, interval, cache)
    return spectral_form(model, interval, u, v, f=f, rtol=rtol, cache=cache)


# ---------------------------------------------------------------------------
# regularized calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regularizer:
    """Rational regularizer r(z) = (z-z0)^(-m) prod (z - l_j)^(nu_j),
    m = sum(nu_j) + nu_inf, vanishing at each singularity to its order."""

    z0: complex
    singularities: tuple = ()  # ((lam_j, nu_j), ...)
    nu_infinity: int = 0

    def __post_init__(self):
        lams = [l for l, _ in self.singularities]
        if len(set(lams)) != len(lams):
            raise ModelError("regularizer singularities must be distinct")
        if self.z0.imag == 0:
            raise ModelError("z0 must be non-real")

    @property
    def total_order(self):
        return sum(n for _, n in self.singularities) + self.nu_infinity

    def __call__(self, z):
        z = complex(z)
        out = (z - self.z0) ** (-self.total_order)
        for lam, nu in self.singularities:
            out *= (z - lam) ** nu
        return out

    def tilde(self, z):
        return self(z) / (complex(z) - self.z0)

    def validate(self, model, min_sigma=1e-6):
        if model.backend == "finite":
            evals = np.linalg.eigvals(model.h)
            if np.min(np.abs(evals - self.z0)) < 1e-8:
                raise ModelError("z0 collides with an eigenvalue of H")
            return True
        s = bs.BoundarySystem(model, z=self.z0).sigma_min()
        if s < min_sigma:
            raise ModelError(
                f"z0 not certified in the resolvent set: sigma_min = {s:.3e}"
            )
        return True


@dataclass(frozen=True)
class RegularizedFunction:
    """f = h * g with h holomorphic on a strip around I and g bounded.

    ``h_poles`` lists the poles of the rational factor h; admissibility on
    the strip {Re z in I, |Im z| <= strip} is certified by a positive pole
    distance (this is the rational restatement of the square-integrable
    derivative bound).
    """

    h: object
    g: object = None
    h_poles: tuple = ()
    strip: float = 0.5

    def check_admissible(self, interval):
        a, b = interval
        for p in self.h_poles:
            # distance from the pole to the closed strip
            re_clamp = min(max(p.real, a), b)
            im_clamp = min(max(p.imag, -self.strip), self.strip)
            d = abs(p - complex(re_clamp, im_clamp))
            if d <= 1e-12:
                raise ModelError(
                    f"pole {p} of the holomorphic factor meets the strip around {interval}"
                )
        return True

    def __call__(self, lam):
        val = self.h(lam)
        if self.g is not None:
            val = val * self.g(lam)
        return val


def regularized_calculus_form(model, interval, rf, u, v, rtol=1e-4, cache=None):
    """<u, (h g 1_I)(H) v> with a certified norm-bound report.

    The integrand h(l) [C R_H C W-form] must stay bounded on I even across
    regularized singularities; a detected blow-up raises
    :class:`IntegrandBlowupError` (insufficient order of h).
    """
    rf.check_admissible(interval)
    norm_u = grid_norm(model, u)
    norm_v = grid_norm(model, v)
    # blow-up bound: the regularized integrand should stay within a few
    # orders of magnitude of its median scale on the interval
    probe = np.linspace(max(interval[0], 1e-6), interval[1], 16)
    probe_vals = []
    cache = {} if cache is None else cache
    for lam in probe:
        tp = _correction_pairing(model, lam, "+", u, v, cache)
        probe_vals.append(abs(complex(rf(lam))) * abs(tp))
    blow = 1e6 * max(np.median(probe_vals), 1e-12) / max(norm_u * norm_v, 1e-300)
    val = spectral_form(
        model, interval, u, v, f=rf, rtol=rtol,
        blowup_scale=blow * norm_u * norm_v, cache=cache,
    )
    g_inf = 1.0
    if rf.g is not None:
        lams = np.linspace(interval[0], interval[1], 101)
        g_inf = float(np.max(np.abs([rf.g(l) for l in lams])))
    bound_constant = abs(val) / max(g_inf * norm_u * norm_v, 1e-300)
    return val, {"bound_constant": bound_constant, "g_sup": g_inf}


# ---------------------------------------------------------------------------
# products of spectral projections (direct smoothed route)
# ---------------------------------------------------------------------------


def _batched_forms(model, z, pairs):
    """F_j(z) = <u_j, R_H(z) v_j> for all test pairs at one complex z."""
    rhv, _ = bs.BoundarySystem(model, z=z).resolvent_apply(
        np.stack([v for _, v in pairs], axis=1))
    w = model.grid.weights
    out = np.empty(len(pairs), dtype=complex)
    for j, (u, _) in enumerate(pairs):
        out[j] = np.sum(w * np.conj(u) * rhv[:, j])
    return out


def _inner_nodes(interval, lam, eps, n_coarse=14):
    """Inner quadrature on ``interval``: coarse panels away from mu = lam
    plus panels refined geometrically toward lam down to the Lorentzian
    scale eps."""
    a, b = interval
    win = min(0.35 * (b - a), 1.0)
    lo, hi = max(a, lam - win), min(b, lam + win)
    nodes, weights = [], []
    if lo >= hi:  # lam far outside: one coarse rule suffices
        r = gauss_legendre(4 * n_coarse, a, b)
        return r.nodes, r.weights
    for s0, s1 in ((a, lo), (hi, b)):
        if s1 - s0 > 1e-12:
            r = gauss_legendre(n_coarse, s0, s1)
            nodes.append(r.nodes)
            weights.append(r.weights)
    edges = {lo, hi}
    for end, sgn in ((lo, -1.0), (hi, 1.0)):
        t = abs(lam - end)
        while t > 1.5 * eps:
            t /= 2.5
            cut = lam + sgn * t
            if a < cut < b:
                edges.add(cut)
    if a < lam < b:
        edges.add(lam)
    all_edges = sorted(e for e in edges if lo - 1e-14 <= e <= hi + 1e-14)
    for e0, e1 in zip(all_edges[:-1], all_edges[1:]):
        if e1 - e0 < 1e-14:
            continue
        r = gauss_legendre(8, e0, e1)
        nodes.append(r.nodes)
        weights.append(r.weights)
    return np.concatenate(nodes), np.concatenate(weights)


def stone_product_forms(model, interval1, interval2, pairs,
                        eps_list=(0.2, 0.1, 0.05, 0.025), n_outer=32,
                        n_sample=110, f1=None, f2=None):
    """<u, 1_{I1}(H) 1_{I2}(H) v> for several test pairs at once.

    Expands Delta R_H(l) Delta R_H(m) with the first resolvent identity,
    so only scalar resolvent forms F(z) = <u, R_H(z) v> enter (compact
    test vectors: no truncation anywhere).  On a singularity-free window
    F(. +/- i eps) is smooth uniformly in eps, so it is sampled once per
    (eps, sign) on a dense node set and interpolated; the only eps-scale
    structure, the Lorentzian denominators, is kept explicit.  The inner
    quadrature refines toward the diagonal m = l and the eps -> 0 limit is
    taken with an extrapolation basis containing the endpoint term
    eps*log(eps).
    """
    from scipy.interpolate import BarycentricInterpolator

    pairs = [(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
             for u, v in pairs]
    hull = (min(interval1[0], interval2[0]), max(interval1[1], interval2[1]))
    samp = gauss_legendre(n_sample, hull[0] - 0.05, hull[1] + 0.05)
    outer = gauss_legendre(n_outer, *interval1)
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    results = np.empty((eps_arr.size, len(pairs)), dtype=complex)
    for ie, eps in enumerate(eps_arr):
        fp = np.stack([_batched_forms(model, complex(x, eps), pairs)
                       for x in samp.nodes])          # (n_sample, P)
        fm = np.stack([_batched_forms(model, complex(x, -eps), pairs)
                       for x in samp.nodes])
        interp_p = BarycentricInterpolator(samp.nodes, fp)
        interp_m = BarycentricInterpolator(samp.nodes, fm)
        total = np.zeros(len(pairs), dtype=complex)
        for lam, wl in zip(outer.nodes, outer.weights):
            fl_p = interp_p(lam)
            fl_m = interp_m(lam)
            mu, wm = _inner_nodes(interval2, lam, eps)
            fm_p = interp_p(mu)                        # (n_mu, P)
            fm_m = interp_m(mu)
            d = (lam - mu)[:, None]
            t14 = ((fl_p[None, :] - fm_p) + (fl_m[None, :] - fm_m)) / d
            t2 = -(fl_p[None, :] - fm_m) / (d + 2j * eps)
            t3 = -(fl_m[None, :] - fm_p) / (d - 2j * eps)
            if f2 is not None:
                wm = wm * np.asarray([f2(x) for x in mu])
            if f1 is not None:
                wl = wl * f1(lam)
            total += wl * (wm[None, :] @ (t14 + t2 + t3))[0]
        results[ie] = total / (2j * math.pi) ** 2
    basis = np.stack(
        [np.ones_like(eps_arr), eps_arr * np.log(eps_arr), eps_arr, eps_arr**2],
        axis=1,
    )
    ncoef = min(basis.shape[1], eps_arr.size)
    coef, *_ = np.linalg.lstsq(basis[:, :ncoef], results, rcond=None)
    return [complex(c) for c in coef[0]]


def stone_product_form(model, interval1, interval2, u, v, **kw):
    """Single-pair convenience wrapper around ``stone_product_forms``."""
    return stone_product_forms(model, interval1, interval2, [(u, v)], **kw)[0]


def spectral_product_form(model, interval1, interval2, u, v, f1=None, f2=None, **kw):
    """<u, [f1 1_{I1}](H) [f2 1_{I2}](H) v> (weighted product form)."""
    return stone_product_forms(model, interval1, interval2, [(u, v)],
                               f1=f1, f2=f2, **kw)[0]


# ---------------------------------------------------------------------------
# Riesz and embedded projections
# ---------------------------------------------------------------------------


def distinct_eigenvalues(values, tol):
    """``values`` as complex numbers, each within ``tol`` of an earlier one
    dropped (first occurrences, in order)."""
    distinct = []
    for e in values:
        if not any(abs(e - d) < tol for d in distinct):
            distinct.append(complex(e))
    return distinct


@dataclass
class SpectralProjection:
    """A spectral projection with its certification residuals."""

    kind: str
    lam: complex
    matrix: np.ndarray | None = None
    rank: int | None = None
    idempotency: float | None = None
    commutation: float | None = None
    diagnostics: dict = field(default_factory=dict)
    action: object = None  # vector action u -> Pi u of a continuum projection

    def apply(self, u):
        if self.matrix is None:
            raise ModelError("this projection is form/action-valued only")
        return self.matrix @ u


def riesz_projection(model, lam, radius, n_nodes=64):
    """Riesz projection (1/2 pi i) contour-int (z - H)^(-1) dz around lam.

    Finite backend: dense matrix with idempotency/commutation/rank checks
    and an enclosure count (exactly one distinct eigenvalue inside).
    Continuum: winding-validated rank plus a vector action; the returned
    projection carries ``diagnostics['trace']`` from contour quadrature.
    """
    theta = 2.0 * math.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    zs = lam + radius * np.exp(1j * theta)
    dz = 1j * radius * np.exp(1j * theta) * (2.0 * math.pi / n_nodes)
    if model.backend == "finite":
        h = model.h
        n = h.shape[0]
        evals = np.linalg.eigvals(h)
        inside = np.abs(evals - lam) < radius
        distinct = distinct_eigenvalues(evals[inside], tol=1e-8)
        if len(distinct) != 1:
            raise ModelError(
                f"contour encloses {len(distinct)} distinct eigenvalues, need exactly 1"
            )
        pi = np.zeros((n, n), dtype=complex)
        for z, d in zip(zs, dz):
            pi += np.linalg.solve(z * np.eye(n) - h, np.eye(n)) * d
        pi /= 2j * math.pi
        idem = float(np.linalg.norm(pi @ pi - pi, 2))
        comm = float(np.linalg.norm(pi @ h - h @ pi, 2))
        rank = int(round(np.trace(pi).real))
        return SpectralProjection(
            "riesz", complex(lam), matrix=pi, rank=rank,
            idempotency=idem, commutation=comm,
            diagnostics={"trace": complex(np.trace(pi))},
        )
    # continuum: argument-principle rank and trace via tr[(Id+K)^-1 K']
    mult = 0.0 + 0.0j
    for z, d in zip(zs, dz):
        mult += bs._logdet_derivative(model, z) * d
    rank = int(round((mult / (2j * math.pi)).real))
    if rank < 1:
        raise ModelError("contour encloses no determinant zero (no eigenvalue)")

    def action(vec):
        out = np.zeros_like(np.asarray(vec, dtype=complex))
        for z, d in zip(zs, dz):
            rv, _, _ = bs.resolvent_H_apply(model, vec, z=z)
            out += -rv * d
        return out / (2j * math.pi)

    return SpectralProjection(
        "riesz", complex(lam), rank=rank,
        diagnostics={"trace": complex(mult / (2j * math.pi))}, action=action,
    )


def embedded_projection(model, lam, eigenbasis, gram_condition_max=1e8):
    """Projection onto Ker((H-lam)^m) from the J-bilinear form.

    ``eigenbasis`` columns span the generalized eigenspace; the projection
    is Pi u = sum <J phi_k, u> phi_k in a J-orthonormalized basis, which
    exists exactly when the symmetric bilinear Gram matrix phi_i^T phi_j
    is nondegenerate.  Degenerate J-forms are refused with the condition
    number (isotropic eigenvectors are the pathological case).
    """
    if model.backend != "finite":
        raise ModelError("embedded projections need the finite backend basis")
    phi = np.asarray(eigenbasis, dtype=complex)
    if phi.ndim == 1:
        phi = phi[:, None]
    gram = phi.T @ phi  # bilinear: <J phi_i, phi_j> = phi_i^T phi_j
    svals = np.linalg.svd(gram, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if not np.isfinite(cond) or cond > gram_condition_max:
        raise ModelError(
            f"degenerate J-form on the eigenspace (Gram condition {cond:.3e}); "
            "no commuting projection exists"
        )
    # complex-orthogonal (Takagi-style) normalization: phi_t^T phi_t = Id
    m = phi.shape[1]
    basis = phi.copy()
    for j in range(m):
        for i in range(j):
            basis[:, j] -= (basis[:, i].T @ basis[:, j]) * basis[:, i]
        q = basis[:, j].T @ basis[:, j]
        if abs(q) < 1e-14:
            raise ModelError("isotropic vector encountered during J-orthonormalization")
        basis[:, j] /= cmath.sqrt(complex(q))
    pi = basis @ basis.T
    idem = float(np.linalg.norm(pi @ pi - pi, 2))
    h = model.h
    comm = float(np.linalg.norm(pi @ h - h @ pi, 2))
    return SpectralProjection(
        "embedded", complex(lam), matrix=pi, rank=m,
        idempotency=idem, commutation=comm,
        diagnostics={"gram_condition": cond},
    )


# ---------------------------------------------------------------------------
# r(H) and the resolution of the identity
# ---------------------------------------------------------------------------


def _panel_d2_matrix(grid):
    """Block-diagonal second-derivative matrix of the panel interpolant."""
    n = grid.n
    x = grid.ref_nodes
    # differentiation matrix on reference nodes
    bary = grid.bary
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = bary[j] / bary[i] / (x[i] - x[j])
        d[i, i] = -np.sum(d[i, :])
    blocks = []
    for p in range(grid.npanels):
        half = 0.5 * (grid.edges[p + 1] - grid.edges[p])
        dp = d / half
        blocks.append(dp @ dp)
    return blocks


def apply_h(model, samples, d2_profile=None):
    """H v = -v'' + V v on the grid.

    With ``d2_profile`` (callable) the second derivative is analytic;
    otherwise the panel interpolant is differentiated (fine for functions
    smooth within each panel, which panel-aligned potential breakpoints
    guarantee).
    """
    if model.backend == "finite":
        return model.h @ np.asarray(samples, dtype=complex)
    g = model.grid
    v = np.asarray(samples, dtype=complex)
    if d2_profile is not None:
        d2 = np.asarray(d2_profile(g.nodes), dtype=complex)
    else:
        blocks = _panel_d2_matrix(g)
        d2 = np.zeros_like(v)
        for p in range(g.npanels):
            sl = g.panel_slice(p)
            d2[sl] = blocks[p] @ v[sl]
    pot = model.c_values * model.apply_w(model.c_values * v)
    return -d2 + pot


def regularizer_apply(model, reg, samples, d2_profile=None):
    """r(H) v = R_H(z0)^m prod (H - lam_j)^(nu_j) v."""
    reg.validate(model)
    v = np.asarray(samples, dtype=complex)
    if model.backend == "finite":
        n = model.size
        h = model.h
    out = v.copy()
    first = True
    for lam, nu in reg.singularities:
        for _ in range(nu):
            if model.backend == "finite":
                out = h @ out - lam * out
            else:
                out = apply_h(model, out, d2_profile=d2_profile if first else None) - lam * out
            first = False
    for _ in range(reg.total_order):
        if model.backend == "finite":
            out = np.linalg.solve(h - reg.z0 * np.eye(n), out)
        else:
            out, _, _ = bs.resolvent_H_apply(model, out, z=reg.z0)
    return out


def resolution_residual(model, reg, pairs, lam_max=100.0, rtol=1e-4,
                        eigenvalues=None, d2_profiles=None):
    """Residual of the spectral resolution formula for r(H).

    residual = | <u, r(H) v> - <u, r(H) Pi_disc v>
                - (1/2 pi i) int_0^Lmax r(l) <u, (R_H(l+i0) - R_H(l-i0)) v> dl |
               / (||u|| ||v||),

    reported with the tail estimate beyond Lmax (from the 1/lam decay of
    the weighted integrand).  A blow-up of the integrand (r missing a
    singularity of sufficient order) raises IntegrandBlowupError.
    """
    reg.validate(model)
    if eigenvalues is None:
        eigenvalues = bs.locate_eigenvalues(model)
    out = []
    sing_ks = sorted(math.sqrt(l) for l, _ in reg.singularities if l > 0)
    for idx, (u, v) in enumerate(pairs):
        d2 = None if d2_profiles is None else d2_profiles[idx]
        lhs = grid_inner(model, u, regularizer_apply(model, reg, v, d2_profile=d2))
        disc = 0.0 + 0.0j
        for entry in eigenvalues:
            zj = entry["z"]
            radius = min(0.25, 0.5 * abs(zj.imag) if zj.imag != 0 else 0.25)
            radius = max(radius, 1e-3)
            proj = riesz_projection(model, zj, radius)
            pv = proj.action(v)
            disc += complex(reg(zj)) * grid_inner(model, u, pv)

        def integrand(k):
            lam = k * k
            plus, _, _ = bs.resolvent_H_apply(model, v, lam=lam, side="+")
            minus, _, _ = bs.resolvent_H_apply(model, v, lam=lam, side="-")
            jump = grid_inner(model, u, plus - minus)
            return complex(reg(lam)) * jump / (2j * math.pi) * 2.0 * k

        norm_uv = grid_norm(model, u) * grid_norm(model, v)
        edges = [1e-4] + sing_ks + [math.sqrt(lam_max)]
        edges = sorted(set(e for e in edges if e <= math.sqrt(lam_max)))
        ess = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            ess += _adaptive(integrand, a, b, rtol=rtol,
                             blowup_scale=1e7 * norm_uv)
        k_hi = math.sqrt(lam_max)
        tail_scale = abs(integrand(k_hi)) + abs(integrand(0.97 * k_hi))
        tail_est = tail_scale * k_hi  # |r~| <= c/lam decay integrated
        resid = abs(lhs - disc - ess) / max(norm_uv, 1e-300)
        out.append({
            "pair": idx,
            "residual": float(resid),
            "lhs": lhs,
            "disc": disc,
            "essential": ess,
            "tail_estimate": float(tail_est),
        })
    return out


# ---------------------------------------------------------------------------
# Dunford contour check (finite backend)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Composite contour: eigenvalue circles, rectangles along a real band
    and an optional outer arc; circles/rectangles counterclockwise."""

    eps: float
    circles: tuple = ()      # ((center, radius), ...)
    rectangles: tuple = ()   # ((x0, x1), ...) with half-height eps
    nodes_per_piece: int = 64

    def pieces(self):
        out = []
        for center, radius in self.circles:
            t = 2.0 * math.pi * (np.arange(self.nodes_per_piece) + 0.5) / self.nodes_per_piece
            z = center + radius * np.exp(1j * t)
            dz = 1j * radius * np.exp(1j * t) * (2 * math.pi / self.nodes_per_piece)
            out.append((z, dz))
        for x0, x1 in self.rectangles:
            n = self.nodes_per_piece
            e = self.eps
            for (za, zb) in (
                (complex(x1, -e), complex(x1, e)),
                (complex(x1, e), complex(x0, e)),
                (complex(x0, e), complex(x0, -e)),
                (complex(x0, -e), complex(x1, -e)),
            ):
                t = (np.arange(n) + 0.5) / n
                z = za + (zb - za) * t
                dz = np.full(n, (zb - za) / n, dtype=complex)
                out.append((z, dz))
        return out


def contour_for_finite(model, eps=0.05, radius=0.2):
    distinct = distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-8)
    circles = tuple((e, radius) for e in distinct)
    return ContourSpec(eps=eps, circles=circles)


def dunford_contour_check(model, reg, contour=None):
    """Contour quadrature of r~(z) R_H(z) against the direct r~(H).

    r~(H) = - (1/2 pi i) int_Gamma r~(z) R_H(z) dz for a contour enclosing
    the whole spectrum; the direct evaluation uses solve-powers and works
    on Jordan blocks too.
    """
    if model.backend != "finite":
        raise ModelError("the Dunford check runs on the finite backend")
    h = model.h
    n = h.shape[0]
    contour = contour or contour_for_finite(model)
    evals = np.linalg.eigvals(h)
    total = np.zeros((n, n), dtype=complex)
    for z, dz in contour.pieces():
        for zj, dj in zip(z, dz):
            dist = np.min(np.abs(evals - zj))
            if dist < 10 * abs(dj):
                raise ModelError(
                    f"contour node {zj:.4f} is within 10 node spacings of an eigenvalue"
                )
            total += reg.tilde(zj) * np.linalg.solve(h - zj * np.eye(n), np.eye(n)) * dj
    quad = -total / (2j * math.pi)
    direct = np.eye(n, dtype=complex)
    for lam, nu in reg.singularities:
        for _ in range(nu):
            direct = (h - lam * np.eye(n)) @ direct
    for _ in range(reg.total_order + 1):  # r~ has one extra (z - z0)^(-1)
        direct = np.linalg.solve(h - reg.z0 * np.eye(n), direct)
    return float(np.linalg.norm(quad - direct, 2)), quad, direct
