"""Concrete realizations of H = H0 + CWC.

Three backends:

* ``finite``  -- H0 a Hermitian matrix, C a positive diagonal, W a matrix.
  Serves projection algebra, evolution and decomposition checks; boundary
  values on the spectrum of H0 are refused (a finite Hermitian matrix has
  pure point spectrum, so no limiting absorption).
* ``line1d``  -- H0 = -d^2/dx^2 on the line, V a decaying potential,
  C multiplication by <x>^(-s).  Free kernel i e^{ik|x-y|} / (2k).
* ``radial``  -- H0 = -d^2/dr^2 on (0, inf) with a Dirichlet condition at
  r = 0 (s-wave reduction), free kernel sin(k r<) e^{ik r>} / k, with the
  finite threshold kernel min(r, r') at k = 0.

Both continuum backends are discretized on panel Gauss-Legendre grids with
panel edges aligned to the breakpoints of the potential.  The free-resolvent
kernels are "triangular separable", G(x, y) = pref * phi(min) * psi(max),
which lets us assemble application matrices that are exact on panelwise
polynomials: the kernel crease on the diagonal never degrades the
quadrature because cumulative integrals are split exactly at the
evaluation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericsError, gauss_legendre

__all__ = [
    "ModelError",
    "AdmissibilityError",
    "MetricWeight",
    "PotentialSpec",
    "FactorizedPerturbation",
    "PanelGrid",
    "OperatorModel",
    "GaussianBump",
    "finite_model",
    "line_model",
    "radial_model",
    "square_well",
    "wavenumber",
    "boundary_wavenumber",
    "free_resolvent_boundary_kernel",
    "build_weighted_free_resolvent",
    "factorize_potential",
    "lap_supremum_estimate",
    "kato_smoothness_check",
    "conjugation_check",
]


class ModelError(Exception):
    """Invalid model data or unsupported request."""


class AdmissibilityError(ModelError):
    """The requested spectral parameter is outside the admissible set."""


# ---------------------------------------------------------------------------
# weights, potentials, profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricWeight:
    """Multiplication weight c(x) > 0 defining C and the weighted norms.

    ``power`` weights are c(x) = <x>^(-s) with <x> = sqrt(1 + x^2); a
    ``custom`` weight carries its own callable (must stay positive and
    bounded).
    """

    kind: str = "power"
    s: float = 1.0
    func: object = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return (1.0 + x * x) ** (-0.5 * self.s)
        vals = np.asarray(self.func(x), dtype=float)
        if np.any(vals <= 0):
            raise ModelError("metric weight must be strictly positive")
        return vals


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V(x) with declared support/decay data.

    ``pieces`` is a list of (a, b, value) for a piecewise-constant
    potential; alternatively ``func`` is an arbitrary sampled rule.  The
    declared decay exponent sigma certifies sup |V(x)| <x>^sigma < inf
    (infinite for compactly supported V).
    """

    pieces: tuple = ()
    func: object = None
    support: tuple = (0.0, 0.0)
    sigma: float = math.inf

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.func is not None:
            return np.asarray(self.func(x), dtype=complex)
        vals = np.zeros(x.shape, dtype=complex)
        for a, b, v in self.pieces:
            vals = np.where((x >= a) & (x < b), v, vals)
        return vals

    @property
    def breakpoints(self):
        pts = set()
        for a, b, _ in self.pieces:
            pts.update((a, b))
        pts.update(self.support)
        return sorted(pts)


def square_well(v0, radius=1.0):
    """Piecewise-constant well V = v0 on (0, radius), 0 outside."""
    return PotentialSpec(pieces=((0.0, radius, complex(v0)),), support=(0.0, radius))


@dataclass(frozen=True)
class GaussianBump:
    """exp(-(x - center)^2 / (2 width^2)) with analytic derivatives.

    Effectively compactly supported once |x - center| > ~8 width; used as
    the standard smooth test profile.
    """

    center: float = 3.0
    width: float = 0.5
    amplitude: complex = 1.0
    modulation: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        base = self.amplitude * np.exp(-0.5 * ((x - self.center) / self.width) ** 2)
        if self.modulation:
            return base * np.exp(1j * self.modulation * x)
        return base + 0j

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - self.center) / self.width
        g = self.amplitude * np.exp(-0.5 * t * t)
        d1 = -t / self.width * g
        d2 = (t * t - 1.0) / self.width**2 * g
        if self.modulation:
            ph = np.exp(1j * self.modulation * x)
            return ph * (d2 + 2j * self.modulation * d1 - self.modulation**2 * g)
        return d2 + 0j


@dataclass(frozen=True)
class FactorizedPerturbation:
    """W with V = CWC, split W = W1 - i W2 into multiplication parts."""

    w_values: np.ndarray
    dissipative: bool

    @property
    def w2(self):
        return -self.w_values.imag


# ---------------------------------------------------------------------------
# panel grids
# ---------------------------------------------------------------------------


def _barycentric_weights(x):
    n = len(x)
    w = np.ones(n)
    for m in range(n):
        diff = x[m] - np.delete(x, m)
        w[m] = 1.0 / np.prod(diff)
    return w


class PanelGrid:
    """Composite Gauss-Legendre grid on [lo, hi] with per-panel data."""

    def __init__(self, edges, nodes_per_panel=16):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ModelError("panel edges must be strictly increasing")
        self.edges = edges
        self.n = int(nodes_per_panel)
        ref = gauss_legendre(self.n, -1.0, 1.0)
        self.ref_nodes = ref.nodes
        self.ref_weights = ref.weights
        self.bary = _barycentric_weights(self.ref_nodes)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * self.ref_nodes)
            weights.append(half * self.ref_weights)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.sqrtw = np.sqrt(self.weights)
        self.npanels = len(edges) - 1
        self.panel_index = np.repeat(np.arange(self.npanels), self.n)
        self._partial_tensors = None

    @property
    def size(self):
        return self.nodes.size

    @property
    def lo(self):
        return float(self.edges[0])

    @property
    def hi(self):
        return float(self.edges[-1])

    @property
    def max_gap(self):
        gaps = np.diff(self.nodes)
        lead = self.nodes[0] - self.lo
        trail = self.hi - self.nodes[-1]
        return float(max(gaps.max(initial=0.0), 2 * lead, 2 * trail))

    def panel_slice(self, p):
        return slice(p * self.n, (p + 1) * self.n)

    def panel_of(self, x):
        p = int(np.searchsorted(self.edges, x, side="right")) - 1
        return min(max(p, 0), self.npanels - 1)

    def to_reference(self, p, x):
        a, b = self.edges[p], self.edges[p + 1]
        return (2.0 * x - (a + b)) / (b - a)

    def lagrange_values(self, t):
        """Values of the reference Lagrange basis at reference points t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        diffs = t[:, None] - self.ref_nodes[None, :]
        out = np.zeros((t.size, self.n))
        exact = np.abs(diffs) < 1e-14
        rows_exact = exact.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.bary[None, :] / diffs
            out = terms / terms.sum(axis=1)[:, None]
        if rows_exact.any():
            out[rows_exact] = exact[rows_exact].astype(float)
        return out

    def interpolate(self, samples, x):
        """Panelwise polynomial interpolation of grid samples at points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        samples = np.asarray(samples, dtype=complex)
        for i, xi in enumerate(x):
            p = self.panel_of(xi)
            basis = self.lagrange_values(self.to_reference(p, xi))[0]
            out[i] = basis @ samples[self.panel_slice(p)]
        return out

    def partial_tensors(self):
        """k-independent data for exact partial integrals within panels.

        Returns (tl, wbl, tr, wbr): sub-quadrature points tl[p, i, s] on
        [a_p, x_i] and tensors wbl[p, i, s, m] combining sub-weights with
        Lagrange basis values, so that for any kernel factor phi,

            int_{a_p}^{x_i} phi(t) l_m(t) dt = sum_s phi(tl[p,i,s]) wbl[p,i,s,m],

        and symmetrically (tr, wbr) for [x_i, b_p].
        """
        if self._partial_tensors is not None:
            return self._partial_tensors
        n, P = self.n, self.npanels
        sub_x, sub_w = np.polynomial.legendre.leggauss(n)
        tl = np.zeros((P, n, n))
        wbl = np.zeros((P, n, n, n))
        tr = np.zeros((P, n, n))
        wbr = np.zeros((P, n, n, n))
        for p in range(P):
            a, b = self.edges[p], self.edges[p + 1]
            xs = self.nodes[self.panel_slice(p)]
            for i, xi in enumerate(xs):
                mid, half = 0.5 * (a + xi), 0.5 * (xi - a)
                pts = mid + half * sub_x
                tl[p, i] = pts
                wbl[p, i] = (half * sub_w)[:, None] * self.lagrange_values(
                    self.to_reference(p, pts))
                mid, half = 0.5 * (xi + b), 0.5 * (b - xi)
                pts = mid + half * sub_x
                tr[p, i] = pts
                wbr[p, i] = (half * sub_w)[:, None] * self.lagrange_values(
                    self.to_reference(p, pts))
        self._partial_tensors = (tl, wbl, tr, wbr)
        return self._partial_tensors


def _panel_edges(lo, hi, breakpoints, target_panels):
    """Panel edges on [lo, hi] containing every interior breakpoint."""
    pts = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
    pts = sorted(set(pts))
    total = hi - lo
    edges = [lo]
    for a, b in zip(pts[:-1], pts[1:]):
        m = max(1, round(target_panels * (b - a) / total))
        edges.extend(np.linspace(a, b, m + 1)[1:])
    return np.asarray(edges)


# ---------------------------------------------------------------------------
# the operator model
# ---------------------------------------------------------------------------


class OperatorModel:
    """A concrete H = H0 + CWC on one of the three backends.

    On the continuum backends W is multiplication by ``w_values`` unless a
    nonlocal W is given as ``w_sample_matrix``, an integral rule acting on
    grid samples; a nonlocal W is not certified dissipative.
    """

    def __init__(self, backend, *, h0=None, c_diag=None, w_matrix=None,
                 potential=None, weight=None, grid=None, w_sample_matrix=None):
        self.backend = backend
        if backend == "finite":
            h0 = np.asarray(h0, dtype=complex)
            if not np.allclose(h0, h0.conj().T, atol=1e-12):
                raise ModelError("finite backend needs Hermitian H0")
            self.h0 = h0
            self.c_diag = np.asarray(c_diag, dtype=float)
            if np.any(self.c_diag <= 0):
                raise ModelError("metric diagonal must be strictly positive")
            self.w_matrix = np.asarray(w_matrix, dtype=complex)
            self.size = h0.shape[0]
            w2 = -(self.w_matrix - self.w_matrix.conj().T) / 2j
            # w2 Hermitian by construction; dissipative iff w2 >= 0
            self.w2_min = float(np.linalg.eigvalsh(w2).min()) if self.size else 0.0
            self.dissipative = self.w2_min >= -1e-12
        elif backend in ("line1d", "radial"):
            self.potential = potential
            self.weight = weight
            self.grid = grid
            x = grid.nodes
            self.c_values = weight(x)
            self.v_values = potential(x)
            self.perturbation = factorize_potential(potential, weight, x)
            self.w_values = self.perturbation.w_values
            self.w_sample_matrix = (None if w_sample_matrix is None
                                    else np.asarray(w_sample_matrix, dtype=complex))
            self.dissipative = self.perturbation.dissipative and self.w_sample_matrix is None
            self.size = grid.size
        else:
            raise ModelError(f"unknown backend {backend!r}")

    # -- finite backend -----------------------------------------------------

    @property
    def h(self):
        if self.backend != "finite":
            raise ModelError("dense H is only formed on the finite backend")
        c = self.c_diag
        return self.h0 + c[:, None] * self.w_matrix * c[None, :]

    @property
    def v1_matrix(self):
        c = self.c_diag
        w1 = (self.w_matrix + self.w_matrix.conj().T) / 2
        return c[:, None] * w1 * c[None, :]

    @property
    def v2_matrix(self):
        c = self.c_diag
        w2 = -(self.w_matrix - self.w_matrix.conj().T) / 2j
        return c[:, None] * w2 * c[None, :]

    # -- continuum helpers ----------------------------------------------------

    def admissible(self, lam, side=None):
        """True when (lam, side) has a boundary kernel for this backend."""
        if self.backend == "finite":
            return False
        if self.backend == "line1d":
            return lam > 0
        return lam >= 0

    def require_boundary(self, lam, side):
        if self.backend == "finite":
            raise AdmissibilityError(
                "finite Hermitian H0 has pure point spectrum: no boundary values"
            )
        if side not in ("+", "-"):
            raise AdmissibilityError(f"side must be '+' or '-', got {side!r}")
        if self.backend == "line1d" and lam <= 0:
            raise AdmissibilityError(
                "1d line threshold: ||<x>^-s R0(lam +/- i0) <x>^-s|| diverges like "
                "lam^(-1/2) as lam -> 0+; use the radial backend for threshold work"
            )
        if self.backend == "radial" and lam < 0:
            raise AdmissibilityError(
                "lam < 0 lies in the resolvent set: use the off-axis kernel"
            )

    def max_scan_energy(self):
        """Largest energy the grid resolves (ten nodes per wavelength)."""
        gap = self.grid.max_gap
        return (2.0 * math.pi / (10.0 * gap)) ** 2

    def support_mask(self):
        """Mask of the exact support S of W: the nonzero rows and columns of
        W when it is a matrix (finite backend, or a nonlocal
        ``w_sample_matrix``), the nonzero ``w_values`` otherwise.  K = C R0 C W
        has no columns off S."""
        w = self.w_matrix if self.backend == "finite" else self.w_sample_matrix
        if w is not None:
            nonzero = w != 0
            return nonzero.any(axis=0) | nonzero.any(axis=1)
        return self.w_values != 0

    @property
    def w_is_zero(self):
        """True when W vanishes: H = H0."""
        return not self.support_mask().any()

    def apply_w(self, u):
        """W u on grid samples (a vector, or the columns of a matrix)."""
        if self.w_sample_matrix is not None:
            return self.w_sample_matrix @ u
        w = self.w_values if np.ndim(u) == 1 else self.w_values[:, None]
        return w * u

    def right_apply_w(self, m, support=None):
        """m W for a sample-to-sample matrix m.  With ``support``, indices
        containing the support of W, m holds only those columns and the
        result is m W restricted to them."""
        if self.w_sample_matrix is not None:
            w = self.w_sample_matrix
            return m @ (w if support is None else w[np.ix_(support, support)])
        w = self.w_values if support is None else self.w_values[support]
        return m * w[None, :]


def finite_model(h0, c_diag, w_matrix):
    return OperatorModel("finite", h0=h0, c_diag=c_diag, w_matrix=w_matrix)


def line_model(potential, s=1.0, half_length=12.0, panels=12, nodes_per_panel=16,
               weight=None):
    weight = weight or MetricWeight("power", s=s)
    edges = _panel_edges(-half_length, half_length, potential.breakpoints, panels)
    grid = PanelGrid(edges, nodes_per_panel)
    return OperatorModel("line1d", potential=potential, weight=weight, grid=grid)


def radial_model(potential, s=1.5, length=14.0, panels=12, nodes_per_panel=16,
                 weight=None, w_sample_matrix=None):
    weight = weight or MetricWeight("power", s=s)
    edges = _panel_edges(0.0, length, potential.breakpoints, panels)
    grid = PanelGrid(edges, nodes_per_panel)
    return OperatorModel("radial", potential=potential, weight=weight, grid=grid,
                         w_sample_matrix=w_sample_matrix)


# ---------------------------------------------------------------------------
# wavenumbers and kernels
# ---------------------------------------------------------------------------


def wavenumber(z):
    """k(z) = i sqrt(-z) on the physical sheet (Im k > 0 off [0, inf))."""
    z = complex(z)
    return 1j * np.sqrt(complex(-z))


def boundary_wavenumber(lam, side):
    """Boundary value of k as z -> lam +/- i0: k = +/- sqrt(lam)."""
    if side == "+":
        return complex(math.sqrt(lam))
    if side == "-":
        return complex(-math.sqrt(lam))
    raise AdmissibilityError(f"side must be '+' or '-', got {side!r}")


def free_resolvent_boundary_kernel(model, lam, side, x, y):
    """Boundary-value Green kernel G_{lam +/- i0}(x, y) of H0.

    line1d, side +:  i e^{i sqrt(lam) |x-y|} / (2 sqrt(lam)),   lam > 0
    radial, side +:  sin(sqrt(lam) r<) e^{i sqrt(lam) r>} / sqrt(lam), lam >= 0,
    with the lam -> 0 limit min(r, r').  Side '-' is the complex conjugate.
    """
    model.require_boundary(lam, side)
    k = boundary_wavenumber(lam, side)
    return _kernel_value(model.backend, k, x, y)


def _kernel_value(backend, k, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if backend == "line1d":
        return 1j * np.exp(1j * k * np.abs(x - y)) / (2.0 * k)
    if abs(k) == 0.0:
        return np.minimum(x, y) + 0j
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return np.sin(k * lo) * np.exp(1j * k * hi) / k


def _phi_psi(backend, k):
    """Separable factors: G = pref * phi(min) * psi(max)."""
    if backend == "line1d":
        return (lambda t: np.exp(-1j * k * t)), (lambda t: np.exp(1j * k * t)), 1j / (2 * k)
    if abs(k) == 0.0:
        return (lambda t: np.asarray(t, dtype=complex)), (lambda t: np.ones_like(np.asarray(t, dtype=complex))), 1.0
    return (lambda t: np.sin(k * t)), (lambda t: np.exp(1j * k * t)), 1.0 / k


# ---------------------------------------------------------------------------
# resolvent application: exact on panelwise polynomials
# ---------------------------------------------------------------------------


class FreeResolventAction:
    """R0(z) (or its boundary value) as an action on grid samples.

    For a separable kernel G = pref * phi(min) psi(max) the application

        f(x) = pref * [ psi(x) * int_{lo}^{x} phi g  +  phi(x) * int_x^{hi} psi g ]

    is assembled from full-panel Gauss sums plus partial integrals inside
    the panel containing x; the split at x is exact, so the diagonal crease
    of the kernel costs nothing.
    """

    def __init__(self, model, k):
        if model.backend == "finite":
            raise ModelError("free-resolvent actions exist on continuum backends only")
        self.model = model
        self.k = complex(k)
        self.grid = model.grid
        phi, psi, pref = _phi_psi(model.backend, self.k)
        self.phi, self.psi, self.pref = phi, psi, pref
        g = self.grid
        x = g.nodes
        self.phi_nodes = phi(x)
        self.psi_nodes = psi(x)
        self.phi_w = self.phi_nodes * g.weights   # full-panel phi moments
        self.psi_w = self.psi_nodes * g.weights
        self._matrix = None

    def matrix(self):
        """Dense sample-to-sample matrix of the action (includes weights)."""
        if self._matrix is None:
            idx = np.arange(self.grid.size)
            self._matrix = self.block(idx, idx)
        return self._matrix

    def block(self, rows, cols):
        """The block matrix()[rows, cols] for increasing index arrays rows
        and cols (sliced from the full matrix once that is assembled).

        For the rows in panel q, sources in panels left of q give
        psi(x_i) phi_w[j] and sources right of q give phi(x_i) psi_w[j];
        sources inside q use the partial integrals int_{a_q}^{x_i} phi l_m
        and int_{x_i}^{b_q} psi l_m, computed on the run of panels that
        rows and cols share.
        """
        if self._matrix is not None:
            return self._matrix[np.ix_(rows, cols)]
        g = self.grid
        row_panel, col_panel = g.panel_index[rows], g.panel_index[cols]
        shared = np.intersect1d(row_panel, col_panel)
        if shared.size:
            run = slice(shared[0], shared[-1] + 1)   # a view: the tensors are not copied
            tl, wbl, tr, wbr = g.partial_tensors()
            left = np.einsum("pis,pism->pim", self.phi(tl[run]), wbl[run])
            right = np.einsum("pis,pism->pim", self.psi(tr[run]), wbr[run])
        out = np.empty((rows.size, cols.size), dtype=complex)
        for q in np.unique(row_panel):
            r = slice(*np.searchsorted(row_panel, (q, q + 1)))
            c0, c1 = np.searchsorted(col_panel, (q, q + 1))   # cols in panel q
            i = rows[r]
            np.multiply.outer(self.psi_nodes[i], self.phi_w[cols[:c0]], out=out[r, :c0])
            np.multiply.outer(self.phi_nodes[i], self.psi_w[cols[c1:]], out=out[r, c1:])
            if c1 > c0:
                li, lj = np.ix_(i - q * g.n, cols[c0:c1] - q * g.n)
                out[r, c0:c1] = (self.psi_nodes[i, None] * left[q - run.start][li, lj]
                                 + self.phi_nodes[i, None] * right[q - run.start][li, lj])
        out *= self.pref
        return out

    def apply(self, samples):
        return self.matrix() @ np.asarray(samples, dtype=complex)

    # -- arbitrary points and exterior data ----------------------------------

    def evaluate(self, samples, points):
        """(R0 g)(x) at arbitrary points, exterior points included."""
        g = self.grid
        samples = np.asarray(samples, dtype=complex)
        points = np.atleast_1d(np.asarray(points, dtype=float))
        sub = gauss_legendre(g.n, -1.0, 1.0)
        phi_cum = np.concatenate(
            [[0.0], np.cumsum([self.phi_w[g.panel_slice(p)] @ samples[g.panel_slice(p)]
                               for p in range(g.npanels)])]
        )
        psi_total = self.psi_w @ samples
        psi_cum = np.concatenate(
            [[0.0], np.cumsum([self.psi_w[g.panel_slice(p)] @ samples[g.panel_slice(p)]
                               for p in range(g.npanels)])]
        )
        out = np.zeros(points.shape, dtype=complex)
        for j, x in enumerate(points):
            if x >= g.hi:
                out[j] = self.pref * self.psi(x) * phi_cum[-1]
                continue
            if x <= g.lo:
                out[j] = self.pref * self.phi(x) * psi_total
                continue
            p = g.panel_of(x)
            a, b = g.edges[p], g.edges[p + 1]
            seg = samples[g.panel_slice(p)]
            mid, half = 0.5 * (a + x), 0.5 * (x - a)
            pts = mid + half * sub.nodes
            basis = g.lagrange_values(g.to_reference(p, pts))
            phi_part = (half * sub.weights * self.phi(pts)) @ (basis @ seg)
            mid, half = 0.5 * (x + b), 0.5 * (b - x)
            pts = mid + half * sub.nodes
            basis = g.lagrange_values(g.to_reference(p, pts))
            psi_part = (half * sub.weights * self.psi(pts)) @ (basis @ seg)
            cum_left = phi_cum[p] + phi_part
            cum_right = (psi_total - psi_cum[p + 1]) + psi_part
            out[j] = self.pref * (self.psi(x) * cum_left + self.phi(x) * cum_right)
        return out

    def outgoing_amplitude(self, samples):
        """A with (R0 g)(x) = A * psi(x) beyond the grid (radial: A e^{ikx})."""
        samples = np.asarray(samples, dtype=complex)
        return self.pref * (self.phi_w @ samples)

    def incoming_amplitude(self, samples):
        """Amplitude of the phi branch below the grid (line backend)."""
        samples = np.asarray(samples, dtype=complex)
        return self.pref * (self.psi_w @ samples)

    def norm_squared(self, samples):
        """||R0 g||_{L^2}^2 including the analytic exterior tails (Im k > 0)."""
        f = self.apply(samples)
        interior = float(self.grid.weights @ np.abs(f) ** 2)
        imk = self.k.imag
        if imk <= 0:
            raise AdmissibilityError(
                "the L2 norm of a boundary value diverges; use Im k > 0"
            )
        hi = self.grid.hi
        a_out = self.outgoing_amplitude(samples)
        tail = abs(a_out) ** 2 * math.exp(-2 * imk * hi) / (2 * imk)
        if self.model.backend == "line1d":
            lo = self.grid.lo
            a_in = self.incoming_amplitude(samples)
            tail += abs(a_in) ** 2 * math.exp(2 * imk * lo) / (2 * imk)
        return interior + tail


def resolvent_action(model, z=None, lam=None, side=None):
    """FreeResolventAction at a complex point z or a boundary pair (lam, side)."""
    if z is not None:
        z = complex(z)
        if z.imag == 0 and z.real >= 0:
            raise AdmissibilityError(
                "real z in the essential spectrum needs an explicit side"
            )
        return FreeResolventAction(model, wavenumber(z))
    model.require_boundary(lam, side)
    return FreeResolventAction(model, boundary_wavenumber(lam, side))


# ---------------------------------------------------------------------------
# weighted matrices and hypothesis diagnostics
# ---------------------------------------------------------------------------


def weighted_matrix(model, action):
    """C R0 C on the grid in the sqrt(weight) (L2-isometric) representation."""
    c = model.c_values
    g = model.grid
    m = c[:, None] * action.matrix() * c[None, :]
    return (g.sqrtw[:, None] * m) / g.sqrtw[None, :]


def build_weighted_free_resolvent(model, z=None, lam=None, side=None):
    """Nystrom matrix of C R0(.) C, L2-normalized.

    ``z`` requests an off-axis / resolvent-set point; (lam, side) a
    boundary value, admissibility per backend.  On the finite backend only
    z outside spec(H0) is allowed.
    """
    if model.backend == "finite":
        if z is None:
            raise AdmissibilityError(
                "finite backend: boundary values on spec(H0) are unsupported"
            )
        z = complex(z)
        evals = np.linalg.eigvalsh(model.h0)
        if z.imag == 0 and np.min(np.abs(evals - z.real)) < 1e-9:
            raise AdmissibilityError("z collides with an eigenvalue of H0")
        n = model.size
        r0 = np.linalg.solve(model.h0 - z * np.eye(n), np.eye(n))
        return model.c_diag[:, None] * r0 * model.c_diag[None, :]
    return weighted_matrix(model, resolvent_action(model, z=z, lam=lam, side=side))


def factorize_potential(potential, weight, x=None):
    """W = V / c^2 as a multiplication rule, with the W1 - i W2 split.

    Requires the declared decay sigma >= 2 s so that W stays bounded;
    rejected otherwise, reporting the supremum trend of |W| along the
    sampled axis.
    """
    if x is None:
        x = np.linspace(0.0, 40.0, 2001)
    x = np.asarray(x, dtype=float)
    c = weight(x)
    v = potential(x)
    w = v / c**2
    if weight.kind == "power" and potential.sigma < 2 * weight.s - 1e-12:
        # unbounded W: exhibit the growing supremum on expanding windows
        probes = np.linspace(1.0, 200.0, 40)
        cp = weight(probes)
        vp_env = np.abs(probes) ** (-potential.sigma)
        trend = vp_env / cp**2
        raise ModelError(
            "W = V/c^2 unbounded: sigma = %.3g < 2 s = %.3g; |W| trend tail %s"
            % (potential.sigma, 2 * weight.s, np.array2string(trend[-4:], precision=2))
        )
    return FactorizedPerturbation(w, bool(np.min(-w.imag) >= -1e-12))


def lap_supremum_estimate(model, z_grid):
    """sup over a z-grid of ||C R0(z) C||, with a divergence flag.

    Entries of ``z_grid`` are complex numbers or (lam, side) pairs.  The
    divergence flag is raised when the running maximum grows monotonically
    into one end of the grid (the 1d threshold signature).
    """
    norms = []
    for entry in z_grid:
        if isinstance(entry, tuple):
            m = build_weighted_free_resolvent(model, lam=entry[0], side=entry[1])
        else:
            m = build_weighted_free_resolvent(model, z=entry)
        norms.append(float(np.linalg.norm(m, 2)))
    norms = np.asarray(norms)
    idx = int(np.argmax(norms))
    diverging = False
    window = 7
    if idx in (0, len(norms) - 1) and len(norms) >= window:
        # the running maximum sits at a grid edge: a power law in lam there
        # (good log-log fit with a significant exponent) signals a
        # divergence, while a finite cusp shows curvature instead
        sel = slice(0, window) if idx == 0 else slice(-window, None)
        entries = z_grid[sel]
        if all(isinstance(e, tuple) and e[0] > 0 for e in entries):
            lams = np.array([e[0] for e in entries])
            vals = norms[sel]
            slope, icpt = np.polyfit(np.log(lams), np.log(vals), 1)
            resid = np.log(vals) - (slope * np.log(lams) + icpt)
            rms = float(np.sqrt(np.mean(resid**2)))
            diverging = bool(abs(slope) >= 0.15 and rms <= 0.05)
    return float(norms[idx]), z_grid[idx], diverging, norms


def kato_smoothness_check(model, u_samples, k_max=8.0, n_k=240, c0_estimate=None):
    """Frequency-side relative smoothness of C with respect to H0.

    ratio = int (||C R0(l-i0)u||^2 + ||C R0(l+i0)u||^2) dl / (2 pi ||u||^2),
    integrated in the k = sqrt(l) variable.  The Kato bound guarantees
    ratio <= c0^2; c0 may be supplied (e.g. from ``lap_supremum_estimate``)
    or is estimated here from sup ||C Im R0 C||.
    """
    if model.backend == "finite":
        raise AdmissibilityError("Kato smoothness diagnostics need a continuum backend")
    u = np.asarray(u_samples, dtype=complex)
    g = model.grid
    norm_u2 = float(g.weights @ np.abs(u) ** 2)
    if norm_u2 == 0.0:
        return 0.0, c0_estimate if c0_estimate else 0.0
    rule = gauss_legendre(n_k, 1e-6, k_max)
    vals = np.empty(rule.nodes.size)
    for i, k in enumerate(rule.nodes):
        lam = k * k
        plus = FreeResolventAction(model, boundary_wavenumber(lam, "+"))
        f = plus.apply(u)
        wplus = float(g.weights @ (model.c_values**2 * np.abs(f) ** 2))
        minus = FreeResolventAction(model, boundary_wavenumber(lam, "-"))
        fm = minus.apply(u)
        wminus = float(g.weights @ (model.c_values**2 * np.abs(fm) ** 2))
        vals[i] = (wplus + wminus) * 2.0 * k  # dl = 2k dk
    total = float(rule.weights @ vals)
    # the lam < 0 (resolvent set) part of the integral over R: both sides
    # coincide there (real decaying kernel), lam = -m^2
    neg_rule = gauss_legendre(n_k // 2, 1e-6, k_max)
    neg_vals = np.empty(neg_rule.nodes.size)
    for i, m in enumerate(neg_rule.nodes):
        act = FreeResolventAction(model, wavenumber(-m * m))
        f = act.apply(u)
        neg_vals[i] = 2.0 * float(g.weights @ (model.c_values**2 * np.abs(f) ** 2)) * 2.0 * m
    total += float(neg_rule.weights @ neg_vals)
    ratio = total / (2.0 * math.pi * norm_u2)
    if c0_estimate is None:
        # Kato smoothness constant: c0^2 = 2 sup ||C Im R0(z) C||; the sup
        # of the harmonic extension is attained on the boundary, so scan
        # the boundary Im parts on a dense lam grid
        sup_im = 0.0
        for lam in np.concatenate([np.linspace(1e-4, 4.0, 48),
                                   np.linspace(4.0, k_max**2, 24)]):
            m = build_weighted_free_resolvent(model, lam=lam, side="+")
            sup_im = max(sup_im, float(np.linalg.norm((m - m.conj().T) / 2j, 2)))
        c0_estimate = math.sqrt(2.0 * sup_im)
    return ratio, float(c0_estimate)


def conjugation_check(model, rng=None):
    """Residuals of the conjugation identities on sampled vectors.

    Checks J^2 = Id, <Ju, Jv> = <v, u>, J H0 = H0 J, JC = CJ and JW = W* J.
    Failures are report entries, not exceptions.
    """
    rng = rng or np.random.default_rng(0)
    j = np.conj  # J, complex conjugation on coordinates
    report = {}
    if model.backend == "finite":
        n = model.size
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        report["j_squared"] = float(np.linalg.norm(j(j(u)) - u))
        report["pairing"] = abs(np.vdot(j(u), j(v)) - np.vdot(v, u))
        report["h0_commute"] = float(np.linalg.norm(j(model.h0 @ u) - model.h0 @ j(u)))
        report["c_commute"] = float(np.linalg.norm(j(model.c_diag * u) - model.c_diag * j(u)))
        w = model.w_matrix
        report["w_transpose"] = float(np.linalg.norm(j(w @ u) - w.conj().T @ j(u)))
        report["jh_equals_hstarj"] = float(
            np.linalg.norm(j(model.h @ u) - model.h.conj().T @ j(u))
        )
    else:
        n = model.size
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        report["j_squared"] = float(np.linalg.norm(j(j(u)) - u))
        w_q = model.grid.weights
        pair = np.sum(w_q * np.conj(j(u)) * j(v)) - np.sum(w_q * np.conj(v) * u)
        report["pairing"] = abs(pair)
        # H0 is real: conj(G_{l+i0}) = G_{l-i0} entry-wise
        lam = 2.0 if model.admissible(2.0) else 1.0
        gp = _kernel_value(model.backend, boundary_wavenumber(lam, "+"),
                           model.grid.nodes[:, None], model.grid.nodes[None, :])
        gm = _kernel_value(model.backend, boundary_wavenumber(lam, "-"),
                           model.grid.nodes[:, None], model.grid.nodes[None, :])
        report["h0_commute"] = float(np.max(np.abs(np.conj(gp) - gm)))
        report["c_commute"] = 0.0  # c real by construction
        wv = model.w_values
        report["w_transpose"] = float(
            np.max(np.abs(np.conj(wv * u) - np.conj(wv) * np.conj(u)))
        )
    report["passed"] = all(
        val <= 1e-12 for key, val in report.items() if isinstance(val, float)
    )
    return report
