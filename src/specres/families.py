"""Ready-made model families for studies and verification runs.

The square-well builders tune the potential depth through the explicit
matching equations of the piecewise-constant problem (secant iteration on
cmath functions), entirely independent of the Nystrom discretization, so
they double as oracles for the detection machinery:

* outgoing resonance at energy lam:   kappa cot(kappa a) = +i sqrt(lam),
* bound state at energy lam < 0:      kappa cot(kappa a) = -sqrt(-lam),
* zero-energy (threshold) resonance:  kappa cot(kappa a) = 0,

with kappa = sqrt(lam - v0) the interior wavenumber.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import model as M
from .model import ModelError

__all__ = [
    "resonance_matching",
    "bound_state_matching",
    "tune_outgoing_resonance",
    "tune_bound_state",
    "threshold_well_depth",
    "tuned_resonant_well",
    "dissipative_well",
    "small_complex_well",
    "random_spectrum_model",
    "complex_symmetric_model",
    "jordan_block_model",
    "rank_one_embedded_model",
]


def resonance_matching(v0, lam, radius=1.0):
    """Zero iff the well has an outgoing resonance at energy lam.

    Written pole-free: kappa cos(kappa a) - i sqrt(lam) sin(kappa a)."""
    kappa = cmath.sqrt(lam - v0)
    return kappa * cmath.cos(kappa * radius) - 1j * cmath.sqrt(lam) * cmath.sin(kappa * radius)


def bound_state_matching(v0, lam, radius=1.0):
    """Zero iff the well binds a state at energy lam < 0 (decaying tail)."""
    kappa = cmath.sqrt(lam - v0)
    mu = cmath.sqrt(-lam)
    return kappa * cmath.cos(kappa * radius) + mu * cmath.sin(kappa * radius)


def _secant(func, x0, x1, tol=1e-14, max_iter=80):
    f0, f1 = func(x0), func(x1)
    for _ in range(max_iter):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1, f1 = x1, f1, x2, func(x2)
        if abs(f1) < tol:
            return x1
    if abs(f1) > 1e-10:
        raise ModelError(f"secant iteration stalled with |f| = {abs(f1):.3e}")
    return x1


def tune_outgoing_resonance(lam=1.0, radius=1.0, seed_box=((-30, 10), (-15, 15))):
    """Well depth v0 with an outgoing resonance exactly at energy lam.

    The pole-free matching function has a spurious zero at kappa = 0
    (v0 = lam), where the original kappa cot(kappa a) = i sqrt(lam) has
    none; that neighborhood is excluded from the seed search and the root
    is validated against the original equation.
    """
    best = None
    for re in np.linspace(*seed_box[0], 121):
        for im in np.linspace(*seed_box[1], 91):
            v = complex(re, im)
            if abs(v - lam) < 0.5:
                continue
            val = abs(resonance_matching(v, lam, radius))
            if best is None or val < best[0]:
                best = (val, v)
    seed = best[1]
    root = _secant(lambda v: resonance_matching(v, lam, radius),
                   seed, seed * 1.001 + 0.001)
    kappa = cmath.sqrt(lam - root)
    if abs(kappa) < 1e-3:
        raise ModelError("resonance tuning collapsed onto the spurious kappa = 0 root")
    original = kappa / cmath.tan(kappa * radius) - 1j * cmath.sqrt(lam)
    if abs(original) > 1e-9:
        raise ModelError(f"tuned root fails the matching equation: |res| = {abs(original):.3e}")
    return root


def tune_bound_state(lam=-2.0, radius=1.0):
    """Real well depth binding a state at energy lam < 0."""
    if lam >= 0:
        raise ModelError("bound states need lam < 0")
    best = None
    for v in np.linspace(lam - 60.0, lam - 0.5, 400):
        val = abs(bound_state_matching(v, lam, radius))
        if best is None or val < best[0]:
            best = (val, v)
    root = _secant(lambda v: bound_state_matching(v, lam, radius),
                   complex(best[1]), complex(best[1]) + 0.01)
    return root.real


def threshold_well_depth(radius=1.0):
    """Depth with a zero-energy resonance: kappa cot(kappa a) = 0."""
    return -((math.pi / 2.0) / radius) ** 2


def tuned_resonant_well(lam=1.0, radius=1.0, s=1.5, length=14.0, **kw):
    """Radial square-well model with an outgoing singularity at lam."""
    v0 = tune_outgoing_resonance(lam, radius)
    return M.radial_model(M.square_well(v0, radius), s=s, length=length, **kw), v0


def dissipative_well(g=2.0, radius=1.0, s=1.5, length=14.0, **kw):
    """V = -i g 1_(0,radius): purely absorbing well (W2 >= 0)."""
    return M.radial_model(M.square_well(-1j * g, radius), s=s, length=length, **kw)


def small_complex_well(v0=0.3 - 0.2j, radius=1.0, s=1.5, length=14.0, **kw):
    """Weak complex well: no eigenvalues, no singularities (scan-verified)."""
    return M.radial_model(M.square_well(v0, radius), s=s, length=length, **kw)


def random_spectrum_model(rng, size=8, n_minus=3, n_zero=2, gap=0.3,
                          conditioning=2.0):
    """Finite model with a prescribed eigenvalue sign pattern.

    Returns (model, imag_signs).  Eigenvalues: n_minus with Im < -gap,
    n_zero real, the rest with Im > +gap; the similarity transform has
    bounded conditioning so subspace extraction is well-posed.
    """
    n_plus = size - n_minus - n_zero
    lam = []
    for _ in range(n_minus):
        lam.append(complex(3 * rng.random(), -(gap + rng.random())))
    for _ in range(n_zero):
        lam.append(complex(3 * rng.random(), 0.0))
    for _ in range(n_plus):
        lam.append(complex(3 * rng.random(), gap + rng.random()))
    lam = np.array(lam)
    d = np.diag(lam)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    u, s_, vh = np.linalg.svd(a)
    s_scaled = np.linspace(1.0, conditioning, size)
    t = (u * s_scaled) @ vh
    h = t @ d @ np.linalg.inv(t)
    # package as H = H0 + C W C with Hermitian H0 and the rest in W
    h0 = (h + h.conj().T) / 2
    w = h - h0
    return M.finite_model(h0, np.ones(size), w), np.sign(lam.imag)


def complex_symmetric_model(rng, size=6, n_real=2, gap=0.4):
    """Complex-symmetric H (JH = H*J for J = conjugation) with eigenvalues
    split between both half-planes and the real axis."""
    n_off = size - n_real
    lam = [complex(2 * rng.random() + 0.5 * k, 0.0) for k in range(n_real)]
    for k in range(n_off):
        sgn = 1.0 if k % 2 else -1.0
        lam.append(complex(2 * rng.random() + 1.0 + 0.3 * k, sgn * (gap + rng.random())))
    d = np.diag(lam)
    # complex-orthogonal similarity keeps H symmetric: Q^T Q = Id
    a = rng.standard_normal((size, size)) * 0.35
    skew = a - a.T
    q = np.eye(size) + skew + skew @ skew / 2  # Cayley-like, orthogonalized below
    q, _ = np.linalg.qr(q)
    h = q @ d @ q.T  # real-orthogonal: complex-symmetric result
    h0 = (h + h.conj().T) / 2
    w = h - h0
    return M.finite_model(h0, np.ones(size), w)


def jordan_block_model(lam=1.0 - 1.0j, size=2):
    """A single Jordan block packaged as H = H0 + C W C."""
    h = lam * np.eye(size, dtype=complex) + np.diag(np.ones(size - 1), 1)
    h0 = (h + h.conj().T) / 2
    return M.finite_model(h0, np.ones(size), h - h0)


def rank_one_embedded_model(lam0=2.0, s=1.5, length=14.0, centers=(1.0, 3.0),
                            width=0.4, **kw):
    """Radial model with a rank-one W engineered to embed an eigenvalue.

    The form factor eta is a two-bump combination whose sine transform
    vanishes at k0 = sqrt(lam0); with coupling g = -1/<eta, c R0(lam0) c eta>
    the Birman-Schwinger operator is singular on both sides at lam0 and
    the resonant state Psi = -g R0(lam0) c eta <eta, c Psi> is square
    integrable (no outgoing tail: the amplitude is proportional to the
    vanishing transform).
    """
    pot = M.PotentialSpec(support=(0.0, max(centers) + 2 * width))
    base = M.radial_model(pot, s=s, length=length, **kw)
    g = base.grid
    k0 = math.sqrt(lam0)
    b1 = np.exp(-0.5 * ((g.nodes - centers[0]) / width) ** 2)
    b2 = np.exp(-0.5 * ((g.nodes - centers[1]) / width) ** 2)
    cvals = base.c_values
    s1 = float(np.sin(k0 * g.nodes) @ (g.weights * cvals * b1))
    s2 = float(np.sin(k0 * g.nodes) @ (g.weights * cvals * b2))
    eta = b1 - (s1 / s2) * b2  # sine transform of c*eta vanishes at k0
    c = base.c_values
    act = M.FreeResolventAction(base, M.boundary_wavenumber(lam0, "+"))
    m_val = complex(np.sum(g.weights * eta * c * act.apply(c * eta)))
    coupling = -1.0 / m_val
    w_sample = coupling * np.outer(eta, g.weights * eta)
    model = M.radial_model(pot, s=s, length=length, w_sample_matrix=w_sample, **kw)
    return model, coupling, eta
