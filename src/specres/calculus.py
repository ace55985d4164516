"""Spectral projections and the (regularized) functional calculus.

Forms on continuum backends are evaluated by a boundary-exact route using
the factorized representation

      1_I(H) = 1_I(H0) - (1/2 pi i) int_I [ R0(l+i0) C W (Id+K+)^(-1) C R0(l+i0)
                                          - R0(l-i0) C W (Id+K-)^(-1) C R0(l-i0) ] dl

whose free term is the explicit spectral measure of H0 and whose
correction term is localized on the support of W (so compactly supported
test vectors never see a grid truncation).  The independent direct route,
the smoothed Stone integral at finite eps through resolvent applications
at complex energies followed by extrapolation to eps = 0, is the check
that ``specres verify`` (suite ``stone``) and the tests run against it.

Products of two spectral projections reduce, via the first resolvent
identity R_H(z) R_H(z') = (R_H(z) - R_H(z'))/(z - z'), to scalar samples
of F(z) = <u, R_H(z) v>, which keeps compactly supported test vectors
free of any truncation error.

Every ``BoundarySystem`` runs at a stack of spectral points, one point
being a stack of one.  Those samples are independent points, so
``_batched_forms`` (the product forms, and the smoothed Stone check of
``specres verify``) runs them through ``birman_schwinger.over_stacks``:
one system and its mirror per stack of at most
``birman_schwinger.BATCH_POINTS`` values of z.  The cap bounds memory,
not time: every point of a stack keeps its partials and the factors of
its A = I + K_SS alive at once (0.18 MB a point with its mirror on a
well over 80 of 192 nodes, where A factorizes through its 5 panels and
two stacks run at once, one per thread).
The contour rank, trace and vector action of a continuum
``riesz_projection``, the singularity probe of the boundary-exact forms
(``bs.sigma_profile``) and the 24 Gauss nodes of a subinterval of the
adaptive forms (each point with its bits alone) run in such stacks too;
the Stone forms cache theirs, factors of A included, across test pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import birman_schwinger as bs
from .model import AdmissibilityError, ModelError, _barycentric_weights, _lagrange_basis
from .numerics import _leggauss, gauss_legendre

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


#: largest condition number of the J-bilinear Gram matrix phi^T phi of an
#: eigenspace basis for which J-orthonormalization is trusted
J_GRAM_CONDITION_MAX = 1e8


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


def free_apply(model, interval, v):
    """1_I(H0) v sampled on the grid."""
    a, b = interval
    ka, kb = math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))
    pts = model.grid.nodes
    if kb <= ka:
        return np.zeros(pts.shape, dtype=complex)
    rule = gauss_legendre(max(64, int(40 * (kb - ka))), ka, kb)
    tv = mode_transform(model, v, rule.nodes)
    if model.backend == "radial":
        basis = np.sin(np.outer(rule.nodes, pts))
        return (2.0 / math.pi) * ((rule.weights * tv) @ basis)
    plus = np.exp(1j * np.outer(rule.nodes, pts))
    minus = np.exp(-1j * np.outer(rule.nodes, pts))
    w = rule.weights
    return (1.0 / (2.0 * math.pi)) * ((w * tv[:, 0]) @ plus + (w * tv[:, 1]) @ minus)


# ---------------------------------------------------------------------------
# adaptive quadrature with blow-up detection
# ---------------------------------------------------------------------------


def _adaptive(values, a, b, rtol=1e-4, blowup_scale=None, _depth=0):
    """Recursive panel quadrature by 8- and 16-point Gauss rules, the 24
    nodes of a subinterval as one stack, values(nodes) -> (24, ...); raises
    IntegrandBlowupError when refinement keeps amplifying the integrand."""
    rules = gauss_legendre(8, a, b), gauss_legendre(16, a, b)
    f = values(np.concatenate([rule.nodes for rule in rules]))
    coarse, fine = rules[0].weights @ f[:8], rules[1].weights @ f[8:]
    scale = max(np.max(np.abs(f[8:])), 1e-300)
    if blowup_scale and scale > blowup_scale:
        raise IntegrandBlowupError(
            f"integrand magnitude {scale:.3e} exceeds blow-up bound "
            f"{blowup_scale:.3e} on [{a:.6g}, {b:.6g}]"
        )
    err = np.max(np.abs(fine - coarse))
    deepest = _depth >= 12
    if err <= rtol * max(1.0, float(np.max(np.abs(fine)))) or deepest:
        if deepest and err > 10 * rtol * max(1.0, float(np.max(np.abs(fine)))):
            raise IntegrandBlowupError(
                f"quadrature failed to converge on [{a:.6g}, {b:.6g}] "
                f"(residual {err:.3e}); integrand likely singular"
            )
        return fine
    mid = 0.5 * (a + b)
    left = _adaptive(values, a, mid, rtol, blowup_scale, _depth + 1)
    right = _adaptive(values, mid, b, rtol, blowup_scale, _depth + 1)
    return left + right


# ---------------------------------------------------------------------------
# boundary-exact forms
# ---------------------------------------------------------------------------


def _correction_pairing(model, lams, u, v, cache):
    """<C R0(l -/+ i0) u, W (Id + K(l, +/-))^(-1) C R0(l +/- i0) v>, the
    W-localized form of <u, R0 C W (Id - C R_H C W) C R0 v>, at every lam
    of a 1-D array: (K, 2), plus side first.  Each stack of ``bs.over_stacks``
    keeps its plus-side system and mirror in ``cache`` under (stack, side);
    all four R0 applications come from the plus side's partials, the
    mirror's as R0(l - i0) x = conj(R0(l + i0) conj x)."""
    c, w = model.c_values, model.grid.weights

    def pairings(stack):
        key = tuple(stack.tolist())
        if (key, "+") not in cache:
            plus = bs.BoundarySystem(model, lam=stack, side="+")
            cache[(key, "+")], cache[(key, "-")] = plus, plus.mirror()
        plus, minus = cache[(key, "+")], cache[(key, "-")]
        ru, rv = plus.action.apply(u), plus.action.apply(v)
        ru_minus, rv_minus = minus.action.apply(u), minus.action.apply(v)
        tp = np.sum(w * np.conj(c * ru_minus) * plus.w_solve(c * rv), axis=-1)
        tm = np.sum(w * np.conj(c * ru) * minus.w_solve(c * rv_minus), axis=-1)
        return np.stack([tp, tm], axis=-1)

    return bs.over_stacks(model, pairings, lams)


def spectral_form(model, interval, u, v, f=None, blowup_scale=None, cache=None):
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

    def integrand(ks):
        # each point's value in Python's complex arithmetic, as it is alone
        pairs = _correction_pairing(model, ks * ks, u, v, cache).tolist()
        return np.array([-fval(k * k) * (tp - tm) / (2j * math.pi) * 2.0 * k
                         for k, (tp, tm) in zip(ks, pairs)])

    ka, kb = math.sqrt(max(a, 0.0)), math.sqrt(b)
    corr = _adaptive(integrand, ka, kb, blowup_scale=blowup_scale)
    return free + complex(corr)


def _assert_singularity_free(model, interval, cache):
    """Refuse an interval on which sigma_min(Id + K) falls below
    ``bs.REGULAR_FLOOR``, at a probe of ``bs.sigma_profile`` or at an
    interior local minimum of a side's probes, refined over its two gaps to
    the scan's width ``bs.REFINE_WIDTH``; or which a scan would refuse
    (beyond the energy the grid resolves).  The verdict is kept in
    ``cache`` under ("singularity_free", interval).
    """
    key = ("singularity_free", tuple(interval))
    if key in cache:
        return
    a, b = interval
    lams = np.linspace(max(a, 1e-6), b, 24)

    def check(side, lam, value):
        if value < bs.REGULAR_FLOOR:
            raise AdmissibilityError(
                f"interval [{a}, {b}] is not singularity-free: "
                f"sigma_min(Id+K{side}) = {value:.3e} at lam = {lam:.6g}"
            )
        return value

    profile = bs.sigma_profile(model, lams)
    for side, v in profile.items():   # every probe before any refinement
        check(side, lams[np.argmin(v)], v.min())
    for side, v in profile.items():
        sigma = lambda x: check(side, x, bs.BoundarySystem(model, lam=x, side=side).sigma_min())
        for i in range(1, lams.size - 1):
            if v[i] <= min(v[i - 1], v[i + 1]):
                bs._golden_min(sigma, lams[i - 1], lams[i + 1], bs.REFINE_WIDTH)
    cache[key] = True


def stone_form(model, interval, u, v, cache=None):
    """<u, 1_I(H) v> for a closed singularity-free interval."""
    return functional_calculus_form(model, interval, None, u, v, cache)


def stone_apply(model, interval, v):
    """1_I(H) v sampled on the grid."""
    a, b = interval
    pts = model.grid.nodes
    out = free_apply(model, interval, v)
    if model.w_is_zero:
        return out

    def jump(lams):
        plus = bs.BoundarySystem(model, lam=lams, side="+")
        pieces = [sgn * system.action.evaluate(system.resolvent_apply(v)[1], pts)
                  for system, sgn in ((plus, 1.0), (plus.mirror(), -1.0))]
        return pieces[0] + pieces[1]

    def vec_integrand(ks):
        return -bs.over_stacks(model, jump, ks * ks) / (2j * math.pi) * 2.0 * ks[:, None]

    corr = _adaptive(vec_integrand, math.sqrt(max(a, 0.0)), math.sqrt(b))
    return out + corr


def functional_calculus_form(model, interval, f, u, v, cache=None):
    """<u, f(H) 1_I v> for bounded continuous f on I (f = None: 1_I), on a
    closed singularity-free interval; ``spectral_form`` takes any."""
    cache = {} if cache is None else cache
    if not model.w_is_zero:
        _assert_singularity_free(model, interval, cache)
    return spectral_form(model, interval, u, v, f=f, cache=cache)


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

    def validate(self, model):
        if model.backend == "finite":
            evals = np.linalg.eigvals(model.h)
            if np.min(np.abs(evals - self.z0)) < 1e-8:
                raise ModelError("z0 collides with an eigenvalue of H")
            return True
        s = bs.BoundarySystem(model, z=self.z0).sigma_min()
        if s < 1e-6:
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


def regularized_calculus_form(model, interval, rf, u, v, cache=None):
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
    cache = {} if cache is None else cache
    tps = _correction_pairing(model, probe, u, v, cache)[:, 0].tolist()
    probe_vals = [abs(complex(rf(lam))) * abs(tp) for lam, tp in zip(probe, tps)]
    blow = 1e6 * max(np.median(probe_vals), 1e-12) / max(norm_u * norm_v, 1e-300)
    val = spectral_form(
        model, interval, u, v, f=rf, blowup_scale=blow * norm_u * norm_v, cache=cache,
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


def _batched_forms(model, zs, pairs):
    """F_j(z) and F_j(conj z), F_j = <u_j, R_H(.) v_j>, for all test pairs
    at every z of the 1-D array ``zs``, from the system at z and its
    mirror: two (K, #pairs) arrays, evaluated in stacks of at most
    ``bs.BATCH_POINTS`` points."""
    vs = np.stack([v for _, v in pairs], axis=1)
    wu = model.grid.weights[:, None] * np.conj(np.stack([u for u, _ in pairs], axis=1))

    def forms(z):
        system = bs.BoundarySystem(model, z=z)
        return np.stack([np.sum(wu * s.resolvent_apply(vs)[0], axis=-2)
                         for s in (system, system.mirror())], axis=1)

    return np.moveaxis(bs.over_stacks(model, forms, zs), 1, 0)


def _inner_nodes(interval, lam, eps):
    """Inner quadrature on ``interval``: coarse panels away from mu = lam
    plus panels refined geometrically toward lam down to the Lorentzian
    scale eps.  The rules map the cached reference Gauss-Legendre rule
    as ``gauss_legendre`` does, without building a ``QuadratureRule``
    for each panel."""

    def rule(n, lo, hi):
        x, w = _leggauss(n)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return mid + half * x, half * w

    a, b = interval
    win = min(0.35 * (b - a), 1.0)
    lo, hi = max(a, lam - win), min(b, lam + win)
    parts = []
    if lo >= hi:  # lam far outside: one coarse rule suffices
        return rule(56, a, b)
    for s0, s1 in ((a, lo), (hi, b)):
        if s1 - s0 > 1e-12:
            parts.append(rule(14, s0, s1))
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
        parts.append(rule(8, e0, e1))
    nodes, weights = zip(*parts)
    return np.concatenate(nodes), np.concatenate(weights)


def stone_product_forms(model, interval1, interval2, pairs, f1=None, f2=None):
    """<u, 1_{I1}(H) 1_{I2}(H) v> for several test pairs at once.

    Expands Delta R_H(l) Delta R_H(m) with the first resolvent identity,
    so only scalar resolvent forms F(z) = <u, R_H(z) v> enter (compact
    test vectors: no truncation anywhere).  On a singularity-free window
    F(. +/- i eps) is smooth uniformly in eps, so it is sampled once per
    (eps, sign) on a dense node set and interpolated; the only eps-scale
    structure, the Lorentzian denominators, is kept explicit.  The inner
    quadrature refines toward the diagonal m = l and the eps -> 0 limit is
    taken with an extrapolation basis containing the endpoint term
    eps*log(eps).  The interpolation is one Lagrange basis per eps
    (``model._lagrange_basis``), shared by both signs and every pair, so a
    call repeats to the bit.
    """
    pairs = [(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))
             for u, v in pairs]
    hull = (min(interval1[0], interval2[0]), max(interval1[1], interval2[1]))
    samp = gauss_legendre(110, hull[0] - 0.05, hull[1] + 0.05)
    bary = _barycentric_weights(samp.nodes)
    outer = gauss_legendre(32, *interval1)
    wl = outer.weights
    if f1 is not None:
        wl = wl * np.asarray([f1(lam) for lam in outer.nodes])
    eps_arr = np.array([0.2, 0.1, 0.05, 0.025])
    results = np.empty((eps_arr.size, len(pairs)), dtype=complex)
    # the samples of every eps in one call: 110 = 5 x 22, so each eps fills
    # five whole stacks, and the stacks of all four share the threads
    samples = _batched_forms(model, (samp.nodes + 1j * eps_arr[:, None]).ravel(), pairs)
    samples = np.reshape(samples, (2, eps_arr.size, samp.nodes.size, len(pairs)))
    for ie, eps in enumerate(eps_arr):
        fp, fm = samples[:, ie]   # (110, P) each
        # the inner rules of all outer nodes, concatenated: one evaluation
        # of each interpolant, then one sum per outer node
        inner = [_inner_nodes(interval2, lam, eps) for lam in outer.nodes]
        sizes = [m.size for m, _ in inner]
        mu = np.concatenate([m for m, _ in inner])
        wm = np.concatenate([w for _, w in inner])
        if f2 is not None:
            wm = wm * np.asarray([f2(x) for x in mu])
        n = outer.nodes.size
        basis = _lagrange_basis(samp.nodes, bary, np.concatenate([outer.nodes, mu]))
        vp, vm = basis @ fp, basis @ fm
        fl_p, fl_m = np.repeat(vp[:n], sizes, axis=0), np.repeat(vm[:n], sizes, axis=0)
        fm_p, fm_m = vp[n:], vm[n:]                   # (n_mu, P)
        d = (np.repeat(outer.nodes, sizes) - mu)[:, None]
        t14 = ((fl_p - fm_p) + (fl_m - fm_m)) / d
        t2 = -(fl_p - fm_m) / (d + 2j * eps)
        t3 = -(fl_m - fm_p) / (d - 2j * eps)
        inner_sums = np.add.reduceat(wm[:, None] * (t14 + t2 + t3),
                                     np.cumsum([0] + sizes[:-1]), axis=0)
        results[ie] = (wl @ inner_sums) / (2j * math.pi) ** 2
    basis = np.stack(
        [np.ones_like(eps_arr), eps_arr * np.log(eps_arr), eps_arr, eps_arr**2],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(basis, results, rcond=None)
    return [complex(c) for c in coef[0]]


def spectral_product_form(model, interval1, interval2, u, v, f1=None, f2=None):
    """<u, [f1 1_{I1}](H) [f2 1_{I2}](H) v> (weighted product form)."""
    return stone_product_forms(model, interval1, interval2, [(u, v)], f1=f1, f2=f2)[0]


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


def riesz_projection(model, lam, radius):
    """Riesz projection (1/2 pi i) contour-int (z - H)^(-1) dz around lam.

    Finite backend: dense matrix with idempotency/commutation/rank checks
    and an enclosure count (exactly one distinct eigenvalue inside).
    Continuum: winding-validated rank plus a vector action; the returned
    projection carries ``diagnostics['trace']`` from contour quadrature.
    """
    n_nodes = 64
    zs, dz = bs._circle(lam, radius, n_nodes)
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
    # continuum: argument-principle rank and trace via tr[(Id+K)^-1 K'],
    # and the action from R_H on the same nodes, in stacks
    trace = bs._contour_trace(model, lam, radius, n_nodes)
    rank = int(round(trace.real))
    if rank < 1:
        raise ModelError("contour encloses no determinant zero (no eigenvalue)")

    def action(vec):
        rv = bs.over_stacks(model, lambda z: bs.BoundarySystem(model, z=z).resolvent_apply(vec)[0], zs)
        return -np.tensordot(dz, rv, axes=1) / (2j * math.pi)

    return SpectralProjection(
        "riesz", complex(lam), rank=rank,
        diagnostics={"trace": complex(trace)}, action=action,
    )


def embedded_projection(model, lam, eigenbasis):
    """Projection onto Ker((H-lam)^m) from the J-bilinear form.

    ``eigenbasis`` columns span the generalized eigenspace; the projection
    is Pi u = sum <J phi_k, u> phi_k in a J-orthonormalized basis, which
    exists exactly when the symmetric bilinear Gram matrix phi_i^T phi_j
    is nondegenerate.  Degenerate J-forms (Gram condition number above
    ``J_GRAM_CONDITION_MAX``) are refused with the condition number
    (isotropic eigenvectors are the pathological case).
    """
    if model.backend != "finite":
        raise ModelError("embedded projections need the finite backend basis")
    phi = np.asarray(eigenbasis, dtype=complex)
    if phi.ndim == 1:
        phi = phi[:, None]
    gram = phi.T @ phi  # bilinear: <J phi_i, phi_j> = phi_i^T phi_j
    svals = np.linalg.svd(gram, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if not np.isfinite(cond) or cond > J_GRAM_CONDITION_MAX:
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
    """r(H) v = R_H(z0)^m prod (H - lam_j)^(nu_j) v, the m applications of
    R_H(z0) from one system at z0 (solves with H - z0 on the finite
    backend)."""
    reg.validate(model)
    out = np.asarray(samples, dtype=complex).copy()
    first = True
    for lam, nu in reg.singularities:
        for _ in range(nu):
            out = apply_h(model, out, d2_profile=d2_profile if first else None) - lam * out
            first = False
    if model.backend == "finite":
        shifted = model.h - reg.z0 * np.eye(model.size)
        resolvent = lambda x: np.linalg.solve(shifted, x)
    else:
        system = bs.BoundarySystem(model, z=reg.z0)
        resolvent = lambda x: system.resolvent_apply(x)[0]
    for _ in range(reg.total_order):
        out = resolvent(out)
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
    # the Riesz projections depend on the eigenvalues alone: one for all pairs
    projections = []
    for entry in eigenvalues:
        zj = entry["z"]
        radius = min(0.25, 0.5 * abs(zj.imag) if zj.imag != 0 else 0.25)
        projections.append((zj, riesz_projection(model, zj, max(radius, 1e-3))))
    out = []
    sing_ks = sorted(math.sqrt(l) for l, _ in reg.singularities if l > 0)
    for idx, (u, v) in enumerate(pairs):
        d2 = None if d2_profiles is None else d2_profiles[idx]
        lhs = grid_inner(model, u, regularizer_apply(model, reg, v, d2_profile=d2))
        disc = 0.0 + 0.0j
        for zj, proj in projections:
            disc += complex(reg(zj)) * grid_inner(model, u, proj.action(v))

        def jump(lams):
            system = bs.BoundarySystem(model, lam=lams, side="+")
            plus, _ = system.resolvent_apply(v)
            minus, _ = system.mirror().resolvent_apply(v)
            return np.sum(model.grid.weights * np.conj(u) * (plus - minus), axis=-1)

        def integrand(ks):
            # each point's value in Python's complex arithmetic, as it is alone
            jumps = bs.over_stacks(model, jump, ks * ks).tolist()
            return np.array([complex(reg(k * k)) * j / (2j * math.pi) * 2.0 * k
                             for k, j in zip(ks, jumps)])

        norm_uv = grid_norm(model, u) * grid_norm(model, v)
        edges = [1e-4] + sing_ks + [math.sqrt(lam_max)]
        edges = sorted(set(e for e in edges if e <= math.sqrt(lam_max)))
        ess = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            ess += _adaptive(integrand, a, b, rtol=rtol,
                             blowup_scale=1e7 * norm_uv)
        k_hi = math.sqrt(lam_max)
        tail_scale = sum(map(abs, integrand(np.array([k_hi, 0.97 * k_hi])).tolist()))
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
        n, e = self.nodes_per_piece, self.eps
        out = [bs._circle(center, radius, n) for center, radius in self.circles]
        t = (np.arange(n) + 0.5) / n   # midpoint rule on each side
        for x0, x1 in self.rectangles:
            corners = [complex(x1, -e), complex(x1, e), complex(x0, e), complex(x0, -e)]
            for za, zb in zip(corners, corners[1:] + corners[:1]):
                out.append((za + (zb - za) * t, np.full(n, (zb - za) / n, dtype=complex)))
        return out


def contour_for_finite(model):
    distinct = distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-8)
    return ContourSpec(eps=0.05, circles=tuple((e, 0.2) for e in distinct))


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
