"""Reference values the benchmark checks the program against.

Everything here is independent of the Nystrom discretization in
``specres``: closed-form matching conditions of the radial square well
solved with ``cmath`` Newton iterations, and residual arithmetic on the
numbers the program returned.

For the radial (s-wave, Dirichlet at r = 0) square well V = v0 on (0, a)
the Jost function, up to a nonvanishing factor, is

    f(k) = kappa cos(kappa a) - i k sin(kappa a),   kappa = sqrt(k^2 - v0)

(Jost & Pais, Phys. Rev. 82 (1951) 840).  It is odd in kappa, so its
zeros do not depend on the branch of the square root.  Apart from the
spurious zero kappa = 0, its zeros with Im k > 0 are the eigenvalues
z = k^2 of H, and a zero at real k > 0 is an outgoing spectral singularity
at lambda = k^2.  Newton runs on F = f / kappa, which has no spurious zero.
"""

from __future__ import annotations

import cmath
import math

#: relative agreement required between a located eigenvalue and its Jost zero
JOST_RTOL = 1e-8
#: criterion-2 tolerances: singularity location and resonant-state residual
LAMBDA_ATOL = 1e-6
STATE_RESIDUAL_TOL = 1e-4
#: criterion-5 tolerance on the Stone-algebra residuals
STONE_TOL = 2e-3


def jost(k, v0, radius=1.0):
    """Pole-free square-well Jost function f(k) = kappa cos(kappa a) - i k sin(kappa a)."""
    kappa = cmath.sqrt(k * k - v0)
    return kappa * cmath.cos(kappa * radius) - 1j * k * cmath.sin(kappa * radius)


def _reduced_jost(k, v0, radius):
    """F(k) = f(k) / kappa = cos(kappa a) - i k sin(kappa a)/kappa and dF/dk.

    F is entire in k and drops the spurious zero of f at kappa = 0, so
    Newton on F needs no care there; its zeros are the eigenvalues and
    spectral singularities of the well.
    """
    a = radius
    kappa = cmath.sqrt(k * k - v0)
    c = cmath.cos(kappa * a)
    if abs(kappa * a) < 1e-4:
        q = (kappa * a) ** 2
        s = a * (1.0 - q / 6.0 + q * q / 120.0)   # sin(kappa a) / kappa
        t = a**3 * (-1.0 / 3.0 + q / 30.0)         # (a cos(kappa a) - s) / kappa^2
    else:
        s = cmath.sin(kappa * a) / kappa
        t = (a * c - s) / (kappa * kappa)
    value = c - 1j * k * s
    deriv = -a * k * s - 1j * s - 1j * k * k * t
    return value, deriv


def newton_jost(k0, v0, radius=1.0, tol=1e-15, max_iter=60):
    """Zero of the Jost function near k0 by Newton's method, or None."""
    k = complex(k0)
    for _ in range(max_iter):
        value, deriv = _reduced_jost(k, v0, radius)
        if deriv == 0:
            return None
        step = value / deriv
        k -= step
        if not cmath.isfinite(k):
            return None
        if abs(step) <= tol * max(1.0, abs(k)):
            return k
    return None


def physical_k(z):
    """k = i sqrt(-z), the wavenumber on the physical sheet (Im k >= 0)."""
    return 1j * cmath.sqrt(-complex(z))


def jost_eigenvalue(z0, v0, radius=1.0):
    """The eigenvalue z = k^2 whose Jost zero Newton reaches from z0."""
    k = newton_jost(physical_k(z0), v0, radius)
    return None if k is None else k * k


def jost_eigenvalues(v0, re_range, im_range, radius=1.0, n_re=49, n_im=25):
    """All eigenvalues of the square well inside a rectangle of the z-plane.

    Newton is started on the Jost function from a grid of points of the
    rectangle; converged zeros on the physical sheet (Im k > 0) inside the
    rectangle are kept once.  Sorted like ``locate_eigenvalues`` sorts.
    """
    found = []
    for i in range(n_re):
        for j in range(n_im):
            z0 = complex(re_range[0] + (re_range[1] - re_range[0]) * i / (n_re - 1),
                         im_range[0] + (im_range[1] - im_range[0]) * j / (n_im - 1))
            k = newton_jost(physical_k(z0), v0, radius)
            if k is None or k.imag <= 1e-9:
                continue
            z = k * k
            if not (re_range[0] <= z.real <= re_range[1] and im_range[0] <= z.imag <= im_range[1]):
                continue
            if all(abs(z - w) > 1e-7 * max(1.0, abs(w)) for w in found):
                found.append(z)
    return sorted(found, key=lambda z: (z.real, z.imag))


def resonance_residual(v0, lam, radius=1.0):
    """|f(sqrt(lam))| / (|kappa| + sqrt(lam)): zero iff lam is an outgoing
    spectral singularity of the well (checks the tuned depth)."""
    k = math.sqrt(lam)
    kappa = cmath.sqrt(lam - v0)
    return abs(jost(k, v0, radius)) / (abs(kappa) + k)


def intersection_residual(prod, inter, norms):
    """Worst residual of the Stone algebra's intersection rule.

    prod[j] = <u, 1_I1 1_I2 v>, inter[j] = <u, 1_(I1 cap I2) v> and
    norms[j] = ||u|| ||v||; the residual is relative to norms.
    """
    return max(abs(a - b) / n for a, b, n in zip(prod, inter, norms))
