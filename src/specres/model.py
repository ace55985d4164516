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
which makes R0 exact on panelwise polynomials: the kernel crease on the
diagonal never degrades the quadrature because cumulative integrals are
split exactly at the evaluation point.  ``FreeResolventAction`` applies R0
to vectors through prefix and suffix sums of panel moments plus in-panel
partial integrals, O(N n) per vector for N nodes and n nodes per panel,
without forming the N x N matrix; that matrix, or any block of it, is
assembled only when a caller asks for the entries.  An action runs at a
stack of wavenumbers, one wavenumber (the radial threshold k = 0 too)
being a stack of one: ``_as_stack`` and ``_as_given`` are the only
places that read the shape of a spectral argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .numerics import _leggauss, gauss_legendre

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
    """amplitude exp(-(x - center)^2 / (2 width^2)) exp(i modulation x).

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


def _lagrange_basis(nodes, bary, t):
    """Values of the Lagrange basis on ``nodes`` (barycentric weights
    ``bary``) at points t, (t.size, nodes.size)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    terms = np.subtract.outer(t, nodes)
    exact = np.abs(terms) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bary, terms, out=terms)
        terms /= terms.sum(axis=1)[:, None]
    rows_exact = exact.any(axis=1)
    if rows_exact.any():
        terms[rows_exact] = exact[rows_exact]
    return terms


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

    def panel_of(self, x):
        """Index of the panel holding x (a point or an array of points)."""
        return np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.npanels - 1)

    def to_reference(self, p, x):
        a, b = self.edges[p], self.edges[p + 1]
        return (2.0 * x - (a + b)) / (b - a)

    def lagrange_values(self, t):
        """Values of the reference Lagrange basis at reference points t."""
        return _lagrange_basis(self.ref_nodes, self.bary, t)

    def interpolate(self, samples, x):
        """Panelwise polynomial interpolation of grid samples at points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = self.panel_of(x)
        basis = self.lagrange_values(self.to_reference(p, x))
        panels = np.asarray(samples, dtype=complex).reshape(self.npanels, self.n)
        return np.einsum("xm,xm->x", basis, panels[p])

    def partial_tensors(self):
        """k-independent data for the in-panel partial integrals of a
        kernel factor phi, from its values at the 2n Gauss-Legendre points
        y[p, j] of each panel p.

        Returns (y, half, tl, tr): y (P, 2n), the panel half-widths half
        (P,), and the exact polynomial integrals on the reference panel
        tl[j, i, m] = int_{-1}^{xi_i} L_j l_m and tr[j, i, m] =
        int_{xi_i}^{1} L_j l_m, (2n, n, n), with L_j the Lagrange basis on
        the 2n points and l_m the one on the n nodes xi_i, so that on the
        interpolant of phi

            int_{a_p}^{x_i} phi(t) l_m(t) dt = half[p] sum_j phi(y[p,j]) tl[j,i,m],

        and symmetrically for [x_i, b_p].  L_j l_m has degree 3n - 2, so a
        2n-point Gauss rule on [-1, xi_i] (or [xi_i, 1]) integrates it
        exactly.  The interpolant of an entire phi errs like
        (|k| h_p / 4)^(2n) / (2n)!, and the partials cost 2n values of phi
        per panel, not n per node.  y and half are built on first use and
        kept; tl and tr depend on n alone and are built once per process
        (``_reference_partials``), 0.13 MB for n = 16."""
        if self._partial_tensors is None:
            fine, _ = _leggauss(2 * self.n)
            half = 0.5 * np.diff(self.edges)
            y = 0.5 * (self.edges[:-1] + self.edges[1:])[:, None] + half[:, None] * fine
            self._partial_tensors = (y, half) + _reference_partials(self.n)
        return self._partial_tensors


@cache
def _reference_partials(n):
    """The reference tensors (tl, tr) of ``PanelGrid.partial_tensors`` for
    n nodes per panel, built once per n and shared by every such grid."""
    xi = gauss_legendre(n, -1.0, 1.0).nodes
    bary_nodes = _barycentric_weights(xi)
    fine, fine_w = _leggauss(2 * n)
    bary = _barycentric_weights(fine)
    tensors = []
    for lo, hi in ((-1.0, xi), (xi, 1.0)):
        mid, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = (mid[:, None] + scale[:, None] * fine).ravel()             # (n 2n)
        l_fine = _lagrange_basis(fine, bary, pts).reshape(n, 2 * n, 2 * n)
        l_nodes = _lagrange_basis(xi, bary_nodes, pts).reshape(n, 2 * n, n)
        # C-contiguous, so _contract reshapes it without a copy
        tensors.append(np.ascontiguousarray(
            np.einsum("is,isj,ism->jim", scale[:, None] * fine_w, l_fine, l_nodes)))
    return tuple(tensors)


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
            perturbation = factorize_potential(potential, weight, x)
            self.w_values = perturbation.w_values
            self.w_sample_matrix = (None if w_sample_matrix is None
                                    else np.asarray(w_sample_matrix, dtype=complex))
            self.dissipative = perturbation.dissipative and self.w_sample_matrix is None
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

    def require_boundary(self, lam, side):
        """Refuse (lam, side) without boundary kernels; ``lam`` may be an
        array, refused when any of its points is."""
        if self.backend == "finite":
            raise AdmissibilityError(
                "finite Hermitian H0 has pure point spectrum: no boundary values"
            )
        if side not in ("+", "-"):
            raise AdmissibilityError(f"side must be '+' or '-', got {side!r}")
        lo = np.min(lam)
        if self.backend == "line1d" and lo <= 0:
            raise AdmissibilityError(
                "1d line threshold: ||<x>^-s R0(lam +/- i0) <x>^-s|| diverges like "
                "lam^(-1/2) as lam -> 0+; use the radial backend for threshold work"
            )
        if self.backend == "radial" and lo < 0:
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

    @cached_property
    def support_split(self):
        """(S, T): the indices of the support of W and of the other nodes,
        computed once per model (every boundary system reads them)."""
        mask = self.support_mask()
        return np.flatnonzero(mask), np.flatnonzero(~mask)

    @cached_property
    def rest_runs(self):
        """The rows of T as ``birman_schwinger._k_rest_factors`` writes
        them, computed once per model (continuum backends): the rows in a
        panel of S, and a list of (rows, left), one per run of T rows
        between the same two panels of S, ``left`` the mask of the nodes of
        S left of them (a prefix of S)."""
        support, rest = self.support_split
        panel = self.grid.panel_index
        shared = np.isin(panel[rest], panel[support])
        free = rest[~shared]
        # the number of S nodes left of a row's panel: equal between two S panels
        split = np.searchsorted(panel[support], panel[free])
        left = np.arange(support.size)
        return rest[shared], [(free[split == cut], left < cut) for cut in np.unique(split)]

    @cached_property
    def support_run(self):
        """The nodes of the panels from the first to the last holding nodes
        of S, as a slice, and the boolean mask of S on them, computed once
        per model (continuum backends, S not empty): the layout of
        ``birman_schwinger._PanelFactors``."""
        support, _ = self.support_split
        n = self.grid.n
        first, last = self.grid.panel_index[support[[0, -1]]]
        run = slice(first * n, (last + 1) * n)
        return run, self.support_mask()[run]

    @property
    def w_is_zero(self):
        """True when W vanishes: H = H0."""
        return self.support_split[0].size == 0

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


def _as_stack(points):
    """Spectral points (z, lam or k) as a 1-D complex array, one point as a
    stack of one, and whether one point was given: the only place the
    shape of a spectral argument is read."""
    return np.atleast_1d(np.asarray(points, dtype=complex)), np.ndim(points) == 0


def _as_given(values, one):
    """A (K, ...) result on a stack as its caller gets it: for an object
    built at one point, that point's value (a Python number where it is a
    scalar); the stack itself otherwise."""
    if not one:
        return values
    return values[0].item() if values.ndim == 1 else values[0]


def wavenumber(z):
    """k(z) = i sqrt(-z) on the physical sheet (Im k > 0 off [0, inf)),
    elementwise."""
    return 1j * np.sqrt(-np.asarray(z, dtype=complex))


def boundary_wavenumber(lam, side):
    """Boundary value of k as z -> lam +/- i0: k = +/- sqrt(lam),
    elementwise."""
    if side not in ("+", "-"):
        raise AdmissibilityError(f"side must be '+' or '-', got {side!r}")
    root = np.sqrt(np.asarray(lam, dtype=float))
    return (root if side == "+" else -root).astype(complex)


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
    """Separable factors G = pref * phi(min) * psi(max) at a 1-D array of
    wavenumbers: phi(t) and psi(t) have the shape k.shape + t.shape, pref
    the shape of k.  pref is divided one wavenumber at a time in Python's
    complex arithmetic, which rounds otherwise than NumPy's complex
    division, so a point of a stack has the bits it has alone.  At the
    radial threshold k = 0 the kernel is min(r, r'): phi(t) = t, pref = 1,
    and psi = e^0 = 1 exactly."""
    psi = lambda t: np.exp(np.multiply.outer(1j * k, t))
    if backend == "line1d":
        pref = np.array([1j / (2 * q) for q in k.tolist()])
        return (lambda t: np.exp(np.multiply.outer(-1j * k, t))), psi, pref
    pref = np.array([1.0 / q if q else 1.0 for q in k.tolist()], dtype=complex)

    def phi(t):
        values = np.sin(np.multiply.outer(k, t))
        values[k == 0] = t
        return values

    return phi, psi, pref


# ---------------------------------------------------------------------------
# resolvent application: exact on panelwise polynomials
# ---------------------------------------------------------------------------


def _contract(values, weights):
    """sum_j values[p, k, j] weights[j, i, m] for complex values (P, K, J)
    on P panels at K points and real weights (J, n, n), as one real GEMM,
    (P 2K, J) @ (J, n n), whose rows are the real and imaginary parts of
    every point on every panel: cheaper than a complex-by-real einsum.
    Returns the real and the imaginary part, (2, K, P, n, n), as a view of
    the product, which the caller writes into its complex memo: no complex
    temporary, whose allocation would fault in fresh pages on every call."""
    npan, k, j = values.shape
    rows = np.concatenate((values.real, values.imag), axis=1).reshape(-1, j)
    parts = (rows @ weights.reshape(j, -1)).reshape((npan, 2, k) + weights.shape[1:])
    return parts.transpose(1, 2, 0, 3, 4)


class FreeResolventAction:
    """R0(z) (or its boundary value) as an action on grid samples.

    For a separable kernel G = pref * phi(min) psi(max) the application

        f(x) = pref * [ psi(x) * int_{lo}^{x} phi g  +  phi(x) * int_x^{hi} psi g ]

    is assembled from full-panel Gauss sums plus partial integrals inside
    the panel containing x; the split at x is exact, so the diagonal crease
    of the kernel costs nothing.  ``apply`` and ``evaluate`` run on panel
    moments in O(N n) per vector and never form the N x N matrix; ``block``
    forms only the entries asked for, and ``matrix`` is the block over all
    nodes.  All three read one memo of in-panel partial integrals, which
    covers the run of panels first asked for, or every panel once a call
    reads outside that run (a mirror reads its source's).
    The kernel factors phi and psi at the nodes, and their moment weights,
    are evaluated on the nodes a call reads (``_at``): a block on the
    support of W reads |S| of them, and only ``apply``, ``evaluate``, the
    amplitudes and the rows of K off S (``birman_schwinger._k_rest_factors``)
    read, and keep, all N.

    The action runs at a stack of K independent spectral points sharing
    one pass of NumPy calls: ``k`` is a 1-D array of K wavenumbers, or one
    wavenumber, which becomes a stack of one.  Every array carries the
    leading point axis: ``ks`` is (K,), ``phi_nodes``, ``psi_nodes``,
    ``phi_w`` and ``psi_w`` are (K, N), ``pref`` (K,), the partials
    (K, run, n, n), and the partials of all K points are contracted in one
    GEMM-shaped matmul.  ``block`` returns (K, rows, cols); ``apply``
    takes samples (N,) or (N, m) shared by every point, or (K, N, m), one
    set of columns per point, and returns (K, N[, m]).  ``k``, ``apply``
    and ``evaluate`` give an action built at one wavenumber that point's
    value, a complex or an array without the point axis (``_as_given``).
    ``matrix``, the amplitudes and ``norm_squared`` serve one point and
    read the single point of the stack.  A stack holds the partials of
    every point on the panels its memo covers, 2 n^2 complex numbers a
    panel (8 KB for n = 16: 8 KB for a block on a support in one panel,
    98 KB once ``apply`` has read all 12 panels of the default grid),
    plus half as much again while one side is contracted (its real and
    imaginary parts), so callers cap its size
    (``birman_schwinger.BATCH_POINTS``).  They come from 2 x 2n values of
    phi and psi per point and panel (64 complex sin and exp for n = 16),
    at the interpolation points of ``PanelGrid.partial_tensors``, and from
    one tensor per side shared by every action with n nodes per panel.

    H0 is real, so the kernel at the mirror wavenumber -conj(k) (lam - i0
    for lam + i0, conj z for z) is the complex conjugate of this one;
    ``conjugate`` returns that action without a second kernel evaluation.
    """

    def __init__(self, model, k):
        if model.backend == "finite":
            raise ModelError("free-resolvent actions exist on continuum backends only")
        self.model = model
        self.ks, self.one = _as_stack(k)
        self.grid = model.grid
        self.phi, self.psi, self.pref = _phi_psi(model.backend, self.ks)
        self._nodes = None   # phi, psi, phi_w and psi_w on every node, once read there
        self._matrix = None
        self._left = self._right = None
        self._run = None   # the panels [start, stop) the partials cover
        self._source = None   # the action this one mirrors, if any

    @property
    def k(self):
        """The wavenumbers, as given: a complex for an action at one."""
        return _as_given(self.ks, self.one)

    def _at(self, nodes=slice(None)):
        """(phi, psi, phi_w, psi_w) at the grid nodes ``nodes``, an index
        array or a slice, (K, nodes) each: phi and psi, and the full-panel
        moment weights phi w and psi w.  On every node (the default) they
        are computed once and kept.  On fewer they are slices of the kept
        arrays where these exist, and otherwise computed on those nodes
        alone: phi and psi are elementwise, so an entry has the same bits
        either way, and a block on the support of W evaluates the kernel
        on |S| nodes, not N.  A mirror conjugates its source's."""
        every = isinstance(nodes, slice) and nodes == slice(None)
        if self._nodes is not None:
            return self._nodes if every else tuple(a[:, nodes] for a in self._nodes)
        if self._source is not None:
            values = tuple(np.conj(a) for a in self._source._at(nodes))
        else:
            g = self.grid
            phi, psi = self.phi(g.nodes[nodes]), self.psi(g.nodes[nodes])
            values = phi, psi, phi * g.weights[nodes], psi * g.weights[nodes]
        if every:
            self._nodes = values
        return values

    phi_nodes = property(lambda self: self._at()[0])
    psi_nodes = property(lambda self: self._at()[1])
    phi_w = property(lambda self: self._at()[2])   # full-panel phi moments
    psi_w = property(lambda self: self._at()[3])

    def conjugate(self):
        """The action at -conj(k), sharing this one's kernel evaluation.

        The mirror's phi, psi, pref and moment weights are the conjugates of
        these, the values at the nodes taken on first use (``_at``).  It
        keeps no partials of its own: its ``apply`` is conj(R0(k) conj x)
        and its blocks, and a matrix it assembles from them, are the
        conjugates of this action's, all bitwise those of conjugate
        partials, and ``birman_schwinger._PanelFactors`` conjugates this
        action's in-panel products.  A mirror thus costs at most its four
        conjugate (K, N) arrays, 12 KB a point on a 192-node grid, once
        something reads every node, and never evaluates phi or psi on the
        partial tensors.  The mirror holds this action, not the other way
        round, so the pair forms no reference cycle.  The mirror of a
        mirror is its source."""
        if self._source is not None:
            return self._source
        mirror = object.__new__(FreeResolventAction)
        mirror.model, mirror.grid, mirror.one = self.model, self.grid, self.one
        mirror.ks, mirror.pref = -np.conj(self.ks), np.conj(self.pref)
        phi, psi = self.phi, self.psi
        mirror.phi = lambda t: np.conj(phi(t))
        mirror.psi = lambda t: np.conj(psi(t))
        mirror._nodes = mirror._matrix = mirror._left = mirror._right = mirror._run = None
        mirror._source = self
        return mirror

    def _fill(self, a, b):
        """Allocate the partials memo on the panels [a, b) and fill it:
        contract phi and psi at the interpolation points against the
        partial tensors."""
        y, half, tl, tr = self.grid.partial_tensors()
        n = self.grid.n
        self._left = np.empty((self.ks.size, b - a, n, n), dtype=complex)
        self._right = np.empty_like(self._left)
        self._run = (a, b)
        for memo, f, t in ((self._left, self.phi, tl), (self._right, self.psi, tr)):
            values = f(y[a:b]).transpose(1, 0, 2) * half[a:b, None, None]
            memo.real, memo.imag = _contract(values, t)

    def _partials(self, start, stop):
        """The in-panel partial integrals left[k, p, i, m] = int_{a_p}^{x_i}
        phi l_m and right[k, p, i, m] = int_{x_i}^{b_p} psi l_m on the
        panels p of [start, stop), as (K, stop - start, n, n) views of the
        memo.  The memo holds the run of panels first asked for; a request
        outside it refills the memo on every panel, which then serves all."""
        if self._run is None:
            self._fill(start, stop)
        elif start < self._run[0] or stop > self._run[1]:
            self._fill(0, self.grid.npanels)
        at = slice(start - self._run[0], stop - self._run[0])
        return self._left[:, at], self._right[:, at]

    def matrix(self):
        """Dense sample-to-sample matrix of the action (includes weights),
        the block over all nodes, kept.  One point: the single point of the
        stack."""
        if self._matrix is None:
            idx = np.arange(self.grid.size)
            self._matrix = self.block(idx, idx)[0]
        return self._matrix

    def block(self, rows, cols):
        """matrix()[rows, cols] for increasing index arrays rows and cols,
        one block per point: (K, rows, cols).

        For the rows in panel q, sources in panels left of q give
        pref psi(x_i) phi_w[j] and sources right of q give
        pref phi(x_i) psi_w[j]: one outer product of the factors, and a
        second one written where the source panel lies right of the row
        panel.  Sources inside q read the partial integrals, needed only on
        the run of panels that rows and cols share, in one gather.  The pass
        never reads the memoized matrix, so each entry has the same bits
        whatever else has been assembled.  A mirror conjugates its source's.
        """
        if self._source is not None:
            return np.conj(self._source.block(rows, cols))
        g = self.grid
        pref = self.pref[:, None]
        phi_r, psi_r, *at_rows = self._at(rows)
        phi_c, psi_c = at_rows if cols is rows else self._at(cols)[2:]
        psi_r, phi_r = pref * psi_r, pref * phi_r
        row_panel, col_panel = g.panel_index[rows], g.panel_index[cols]
        out = psi_r[:, :, None] * phi_c[:, None, :]
        np.multiply(phi_r[:, :, None], psi_c[:, None, :], out=out,
                    where=col_panel[None, :] > row_panel[:, None])
        i, j = np.nonzero(col_panel[None, :] == row_panel[:, None])
        if i.size:
            q = row_panel[i]
            left, right = self._partials(q[0], q[-1] + 1)   # q is sorted
            # entry [q - q[0], rows[i] - q n, cols[j] - q n] of the partials
            at = rows[i] * g.n + cols[j] - q * g.n - q[0] * g.n * g.n
            left, right = (a.reshape(a.shape[0], -1).take(at, axis=1) for a in (left, right))
            out[:, i, j] = psi_r.take(i, axis=1) * left + phi_r.take(i, axis=1) * right
        return out

    def _moments(self, samples):
        """Samples as panels cols[..., p, j, m], with before[k, p], the phi
        moments of the panels left of panel p, and after[k, p], the psi
        moments of panel p and those right of it (p = 0..P: before[:, P]
        and after[:, 0] are the totals).  Samples of shape (K, N, m) pair
        with the K points; (N,) and (N, m) are shared by all of them.

        ``after`` is summed from the right, never taken as total - prefix:
        for Im k > 0 the psi moments decay along the grid, and the
        difference would cancel every digit of the small ones."""
        g = self.grid
        per_point = samples.shape[:1] if samples.ndim == 3 else ()
        cols = samples.reshape(per_point + (g.npanels, g.n, -1))
        panels = (-1, g.npanels, g.n)
        phi_m = np.einsum("...pj,...pjm->...pm", self.phi_w.reshape(panels), cols)
        psi_m = np.einsum("...pj,...pjm->...pm", self.psi_w.reshape(panels), cols)
        before = np.zeros(phi_m.shape[:-2] + (g.npanels + 1, cols.shape[-1]), dtype=complex)
        np.cumsum(phi_m, axis=-2, out=before[..., 1:, :])
        after = np.zeros_like(before)
        after[..., :-1, :] = np.cumsum(psi_m[..., ::-1, :], axis=-2)[..., ::-1, :]
        return cols, before, after

    def apply(self, samples):
        """R0 g on the grid for samples g (a vector, or the columns of a
        matrix; per point with shape (K, N, m)), (K, N[, m]): exactly
        ``matrix() @ samples`` up to rounding, in O(N n) per column and
        without forming the N x N matrix.  A mirror conjugates its
        source's, conj(R0(k) conj g)."""
        samples = np.asarray(samples, dtype=complex)
        if self._source is not None:
            return np.conj(self._source.apply(np.conj(samples)))
        g = self.grid
        cols, before, after = self._moments(samples)
        left, right = self._partials(0, g.npanels)
        shape = (-1, g.npanels, g.n, 1)
        out = self.psi_nodes.reshape(shape) * (before[..., :-1, None, :] + left @ cols)
        out += self.phi_nodes.reshape(shape) * (after[..., 1:, None, :] + right @ cols)
        out *= self.pref[:, None, None, None]
        per_point = samples.shape[1:] if samples.ndim == 3 else samples.shape
        return _as_given(out.reshape(self.ks.shape + per_point), self.one)

    # -- arbitrary points and exterior data ----------------------------------

    def evaluate(self, samples, points):
        """(R0 g)(x) at arbitrary points, exterior points included, for a
        vector g shared by every point, or one per point, (K, N): (K, points).

        Inside the grid the partial integrals over the panel of x run on
        the Lagrange interpolant of the samples there, by the 2n-point
        Gauss rule on [a_p, x] and [x, b_p]: exact on the product with the
        2n-point interpolant of phi or psi that ``apply`` integrates, so,
        taking phi and psi themselves (they differ from that interpolant
        by its truncation error only), ``evaluate`` is ``apply`` at the
        nodes.  The other panels enter through the prefix and suffix
        moments of ``apply``."""
        g = self.grid
        samples = np.asarray(samples, dtype=complex)
        points = np.atleast_1d(np.asarray(points, dtype=float))
        cols, before, after = (a[..., 0] for a in self._moments(samples[..., None]))
        out = np.empty(self.ks.shape + points.shape, dtype=complex)
        above, below = points >= g.hi, points <= g.lo
        out[:, above] = self.psi(points[above]) * before[:, -1:]
        out[:, below] = self.phi(points[below]) * after[:, :1]
        inside = ~(above | below)
        x = points[inside]
        p = g.panel_of(x)
        sub_x, sub_w = _leggauss(2 * g.n)

        def partial(f, lo, hi):
            # int_lo^hi f g dt by the 2n-point rule on the interpolant of g
            half = 0.5 * (hi - lo)[:, None]
            pts = 0.5 * (lo + hi)[:, None] + half * sub_x
            basis = g.lagrange_values(g.to_reference(p[:, None], pts).ravel())
            interp = np.einsum("xsm,...xm->...xs", basis.reshape(*pts.shape, g.n), cols[..., p, :])
            return np.sum(half * sub_w * f(pts) * interp, axis=-1)

        a, b = g.edges[p], g.edges[p + 1]
        out[:, inside] = (self.psi(x) * (before[:, p] + partial(self.phi, a, x))
                          + self.phi(x) * (after[:, p + 1] + partial(self.psi, x, b)))
        out *= self.pref[:, None]
        return _as_given(out, self.one)

    def outgoing_amplitude(self, samples):
        """A with (R0 g)(x) = A * psi(x) beyond the grid (radial: A e^{ikx})."""
        samples = np.asarray(samples, dtype=complex)
        return self.pref[0] * (self.phi_w[0] @ samples)

    def incoming_amplitude(self, samples):
        """Amplitude of the phi branch below the grid (line backend)."""
        samples = np.asarray(samples, dtype=complex)
        return self.pref[0] * (self.psi_w[0] @ samples)

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
    """FreeResolventAction at a complex point z or a boundary pair (lam, side);
    an array of z, or of lam with one side, gives a stack."""
    if z is not None:
        z = np.asarray(z, dtype=complex)
        if np.any((z.imag == 0) & (z.real >= 0)):
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
    sampled axis, and when c^2 underflows at a sample (W = V/0 there).
    """
    if x is None:
        x = np.linspace(0.0, 40.0, 2001)
    x = np.asarray(x, dtype=float)
    c = weight(x)
    c2 = c**2
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
    under = c2 < np.finfo(float).tiny
    if under.any():
        raise ModelError(f"c^2 underflows from x = {x[under][0]:.4g} for the {weight.kind} "
                         f"weight (s = {weight.s:g}): W = V/c^2 is not representable")
    w = potential(x) / c2
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


def kato_smoothness_check(model, u_samples):
    """Frequency-side relative smoothness of C with respect to H0.

    ratio = int (||C R0(l-i0)u||^2 + ||C R0(l+i0)u||^2) dl / (2 pi ||u||^2),
    integrated in the k = sqrt(l) variable.  The Kato bound guarantees
    ratio <= c0^2; (ratio, c0) is returned, c0 estimated from
    sup ||C Im R0 C||.
    """
    if model.backend == "finite":
        raise AdmissibilityError("Kato smoothness diagnostics need a continuum backend")
    k_max, n_k = 8.0, 240
    u = np.asarray(u_samples, dtype=complex)
    g = model.grid
    norm_u2 = float(g.weights @ np.abs(u) ** 2)
    if norm_u2 == 0.0:
        return 0.0, 0.0
    rule = gauss_legendre(n_k, 1e-6, k_max)
    vals = np.empty(rule.nodes.size)
    for i, k in enumerate(rule.nodes):
        lam = k * k
        plus = FreeResolventAction(model, boundary_wavenumber(lam, "+"))
        f = plus.apply(u)
        wplus = float(g.weights @ (model.c_values**2 * np.abs(f) ** 2))
        fm = plus.conjugate().apply(u)
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
    # Kato smoothness constant: c0^2 = 2 sup ||C Im R0(z) C||; the sup of
    # the harmonic extension is attained on the boundary, so scan the
    # boundary Im parts on a dense lam grid
    sup_im = 0.0
    for lam in np.concatenate([np.linspace(1e-4, 4.0, 48),
                               np.linspace(4.0, k_max**2, 24)]):
        m = build_weighted_free_resolvent(model, lam=lam, side="+")
        sup_im = max(sup_im, float(np.linalg.norm((m - m.conj().T) / 2j, 2)))
    return ratio, float(math.sqrt(2.0 * sup_im))


def conjugation_check(model):
    """Residuals of the conjugation identities on seeded sample vectors.

    Checks J^2 = Id, <Ju, Jv> = <v, u>, J H0 = H0 J, JC = CJ and JW = W* J.
    Failures are report entries, not exceptions.
    """
    rng = np.random.default_rng(0)
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
        # H0 is real: conj(G_{l+i0}) = G_{l-i0} entry-wise, here at l = 2
        gp = _kernel_value(model.backend, boundary_wavenumber(2.0, "+"),
                           model.grid.nodes[:, None], model.grid.nodes[None, :])
        gm = _kernel_value(model.backend, boundary_wavenumber(2.0, "-"),
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
