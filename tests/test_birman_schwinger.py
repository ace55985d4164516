import cmath
import functools
import math
import os
import threading
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specres import birman_schwinger as BS
from specres import calculus as C
from specres import families as F
from specres import model as M
from specres import subspaces as S
from specres.model import AdmissibilityError, ModelError
from specres.numerics import LimitSequence, extrapolate_to_zero


class TestBoundaryOperator:
    def test_free_model_trivial(self, free_radial):
        k = BS.bs_matrix(free_radial, lam=1.0, side="+")
        assert np.linalg.norm(k, 2) <= 1e-14
        assert BS.BoundarySystem(free_radial, lam=1.0, side="+").sigma_min() == pytest.approx(1.0)

    def test_entries_match_direct_quadrature(self, small_well):
        # independent oracle: adaptive quadrature of c G c W against the
        # panel interpolant of a test vector, split at the kernel crease
        lam = 1.0
        k = math.sqrt(lam)
        g = small_well.grid
        k_matrix = BS.bs_matrix(small_well, lam=lam, side="+")
        rng = np.random.default_rng(0)
        f = np.exp(-0.5 * ((g.nodes - 0.7) / 0.4) ** 2) * (1 + 0.3j)
        kf = (k_matrix @ (g.sqrtw * f)) / g.sqrtw

        def integrand_re(y, x):
            gval = M._kernel_value("radial", k, x, y)
            val = (small_well.weight(x) * gval * small_well.weight(y)
                   * small_well.potential(np.array([y]))[0]
                   / small_well.weight(y) ** 2)
            return (val * g.interpolate(f, [y])[0]).real

        def integrand_im(y, x):
            gval = M._kernel_value("radial", k, x, y)
            val = (small_well.weight(x) * gval * small_well.weight(y)
                   * small_well.potential(np.array([y]))[0]
                   / small_well.weight(y) ** 2)
            return (val * g.interpolate(f, [y])[0]).imag

        for i in rng.choice(g.size, 3, replace=False):
            x = g.nodes[i]
            pieces = sorted({0.0, min(x, 1.0), 1.0} | ({x} if x < 1.0 else set()))
            total = 0.0
            for a, b in zip(pieces[:-1], pieces[1:]):
                re, _ = scipy.integrate.quad(integrand_re, a, b, args=(x,), limit=100)
                im, _ = scipy.integrate.quad(integrand_im, a, b, args=(x,), limit=100)
                total += re + 1j * im
            assert kf[i] == pytest.approx(total, rel=1e-8, abs=1e-12)

    def test_side_swap_for_real_potential(self, real_well):
        for lam in (0.7, 2.0, 9.0):
            assert BS.sigma_min(real_well, lam, "+") == pytest.approx(
                BS.sigma_min(real_well, lam, "-"), rel=1e-12)


class TestWeightedResolventH:
    def test_free_model_zero(self, free_radial):
        x = BS.weighted_resolvent_H(free_radial, lam=2.0, side="+")
        assert np.linalg.norm(x, 2) <= 1e-14

    def test_product_identity(self, small_well):
        z = 2.0 + 0.1j
        x = BS.weighted_resolvent_H(small_well, z=z)
        k = BS.bs_matrix(small_well, z=z)
        eye = np.eye(k.shape[0])
        resid = np.linalg.norm((eye - x) @ (eye + k) - eye, 2)
        assert resid <= 1e-10

    def test_boundary_limit_equivalence(self, tuned_well):
        model, _ = tuned_well
        eps = np.geomspace(0.1, 0.1 / 2**6, 7)
        grid = [lam for lam in np.linspace(0.3, 25.0, 40)
                if BS.sigma_min(model, lam, "+") >= 0.1][:3]
        assert grid
        for lam in grid:
            boundary = BS.weighted_resolvent_H(model, lam=lam, side="+")
            vals = [BS.weighted_resolvent_H(model, z=lam + 1j * e) for e in eps]
            ext, err, div = extrapolate_to_zero(LimitSequence(eps, vals, order=4))
            rel = np.linalg.norm(ext - boundary, 2) / np.linalg.norm(boundary, 2)
            assert rel <= 1e-6
            assert not div

    def test_singular_point_flagged(self, tuned_well):
        model, _ = tuned_well
        with pytest.raises(BS.SingularBoundaryError):
            BS.weighted_resolvent_H(model, lam=1.0, side="+", min_sigma=1e-8)


class TestScan:
    def test_free_model_empty(self, free_radial):
        reports = BS.scan_singularities(free_radial, np.linspace(0.2, 9.0, 60))
        assert reports == []

    def test_tuned_well_localized(self, tuned_well):
        model, v0 = tuned_well
        reports = BS.scan_singularities(model, np.linspace(0.2, 3.0, 141))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.kind == "outgoing_singularity"
        assert abs(rep.lam - 1.0) <= 1e-6
        assert rep.sigma_min_minus > BS.REGULAR_FLOOR

    def test_locations_stable_under_node_doubling(self, tuned_well):
        _, v0 = tuned_well
        fine = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0, panels=24)
        reports = BS.scan_singularities(fine, np.linspace(0.2, 3.0, 141))
        assert len(reports) == 1
        assert abs(reports[0].lam - 1.0) <= 1e-6

    def test_threshold_validation(self, free_radial):
        with pytest.raises(ModelError):
            BS.scan_singularities(free_radial, np.linspace(0.2, 3.0, 10),
                                  detection_threshold=0.7)

    def test_range_beyond_grid_resolution(self, free_radial):
        limit = free_radial.max_scan_energy()
        with pytest.raises(AdmissibilityError):
            BS.scan_singularities(free_radial, np.linspace(1.0, 4 * limit, 10))

    def test_minima_at_the_ends_of_the_grid_are_refined(self):
        # the zero at 24.96 lies in the last gap of one grid and in the
        # first gap of the other, where the end point is the profile minimum
        model = M.radial_model(M.square_well(F.tune_outgoing_resonance(24.96)))
        for grid, end in ((np.linspace(24.5, 25.0, 6), -1), (np.linspace(24.955, 25.3, 6), 0)):
            profile = BS.sigma_profile(model, grid)
            assert np.argmin(profile["+"]) == end % grid.size
            assert profile["+"][end] < BS.REGULAR_FLOOR
            reports = BS.classify_minima(model, grid, profile)
            assert [r.kind for r in reports] == ["outgoing_singularity"]
            assert abs(reports[0].lam - 24.96) <= 1e-6

    def test_fredholm_consistency(self, tuned_well):
        # |det(Id+K)| and sigma_min vanish at the same refined location
        model, _ = tuned_well
        lam_sigma, _ = BS._golden_min(
            lambda l: BS.sigma_min(model, l, "+"), 0.9, 1.1, 1e-9)
        lam_det, _ = BS._golden_min(
            lambda l: BS.BoundarySystem(model, lam=l, side="+").log_det()[0], 0.9, 1.1, 1e-9)
        assert abs(lam_sigma - lam_det) <= 1e-6


class TestResonantState:
    def test_residual_and_tail(self, tuned_well):
        model, _ = tuned_well
        st = BS.resonant_state(model, 1.0, "+", detection_threshold=1e-3)
        assert st.residual <= 1e-4
        assert abs(st.tail_amplitude) > 1e-3 * st.psi_norm
        assert st.tail_fit_relerr <= 1e-4
        assert abs(st.tail_fit_amplitude - st.tail_amplitude) \
            <= 1e-4 * abs(st.tail_amplitude)

    def test_no_kernel_on_free_model(self, free_radial):
        with pytest.raises(ModelError):
            BS.resonant_state(free_radial, 2.0, "+")

    def test_resonance_classification(self, tuned_well):
        model, _ = tuned_well
        st = BS.resonant_state(model, 1.0, "+", detection_threshold=1e-3)
        assert BS.embedded_eigenvalue_test(st) == "resonance"

    def test_bound_state_classification(self):
        lam_b = -2.0
        v0 = F.tune_bound_state(lam_b)
        model = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0)
        st = BS.resonant_state(model, lam_b, "+", detection_threshold=1e-3)
        assert st.residual <= 1e-4
        assert BS.embedded_eigenvalue_test(st) == "eigenvalue"
        # exterior decays like e^{-sqrt(|lam|) r}
        pts = np.array([4.0, 6.0])
        vals = np.abs(st.psi_at(pts))
        assert vals[1] / vals[0] == pytest.approx(
            math.exp(-math.sqrt(-lam_b) * 2.0), rel=1e-6)

    def test_rank_one_embedded_eigenvalue(self):
        model, _, _ = F.rank_one_embedded_model(lam0=2.0)
        assert BS.sigma_min(model, 2.0, "+") <= 1e-10
        assert BS.sigma_min(model, 2.0, "-") <= 1e-10
        st = BS.resonant_state(model, 2.0, "+", detection_threshold=1e-6)
        assert BS.embedded_eigenvalue_test(st) == "eigenvalue"
        reports = BS.scan_singularities(model, np.linspace(1.5, 2.5, 81))
        assert len(reports) == 1
        assert reports[0].kind == "embedded_eigenvalue"


class TestAdjointAndOrders:
    def test_factorization_identity(self, small_well):
        rep = BS.adjoint_consistency(small_well, 2.0)
        assert rep["identity_residual"] <= 1e-10

    def test_zero_crossings_agree(self, tuned_well):
        model, _ = tuned_well
        rep_at = BS.adjoint_consistency(model, 1.0)
        assert rep_at["sigma_min_MW"] <= 1e-6
        assert rep_at["sigma_min_WM"] <= 1e-4
        rep_off = BS.adjoint_consistency(model, 2.0)
        assert rep_off["sigma_min_MW"] >= 1e-2
        assert rep_off["sigma_min_WM"] >= 1e-2

    def test_adjoint_same_location(self, tuned_well):
        # the incoming boundary operator of H* is the entrywise conjugate
        # of the outgoing one of H: same singularity location
        model, v0 = tuned_well
        f = lambda l: np.linalg.svd(
            np.eye(model.size)
            + np.conj(BS.bs_matrix(model, lam=l, side="+")), compute_uv=False)[-1]
        lam_star, val = BS._golden_min(f, 0.9, 1.1, 1e-9)
        assert val <= 1e-6
        assert abs(lam_star - 1.0) <= 1e-6

    def test_order_one_at_simple_singularity(self, tuned_well):
        model, _ = tuned_well
        eps = np.geomspace(1e-1, 1e-4, 10)
        nu, info = BS.order_estimate(model, 1.0, "+", eps)
        assert nu == 1
        assert not info["ambiguous"]

    def test_order_zero_at_regular_point(self, tuned_well):
        model, _ = tuned_well
        eps = np.geomspace(1e-1, 1e-4, 10)
        nu, _ = BS.order_estimate(model, 2.5, "+", eps)
        assert nu == 0

    def test_no_blowup_from_wrong_side(self):
        # an eigenvalue in the lower half-plane is invisible from above
        model = M.radial_model(M.square_well(-5.0 - 0.5j, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-3.0, 3.0))
        assert roots
        z0 = roots[0]["z"]
        eps = np.geomspace(1e-1, 1e-4, 10)
        nu, _ = BS.order_estimate(model, z0.real, "+", eps)
        assert nu == 0


class TestDissipative:
    def test_outgoing_scan_empty(self):
        for g in (0.5, 2.0, 5.0):
            model = F.dissipative_well(g)
            rep = BS.dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=120)
            assert rep["passed"]
            assert rep["outgoing_detected"] == []
            assert rep["outgoing_sigma_min"] >= 1e-2

    def test_finite_engineered_real_eigenvalue(self):
        # common kernel of V2 and eigenvector of H_V1: H keeps the real
        # eigenvalue and the audit certifies Ker(V2) membership
        h0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        w2 = np.diag([0.0, 1.0, 2.0])  # positive semidefinite, kills e1
        model = M.finite_model(h0, np.ones(3), -1j * w2)
        rep = BS.dissipative_audit(model)
        assert rep["passed"]
        lams = [e["lambda"] for e in rep["real_eigenvalues"]]
        assert any(abs(l - 1.0) < 1e-10 for l in lams)

    def test_strictly_positive_w2_no_real_eigenvalues(self, rng):
        h0 = rng.standard_normal((6, 6))
        h0 = (h0 + h0.T) / 2
        model = M.finite_model(h0.astype(complex), np.ones(6),
                               -1j * np.eye(6))
        rep = BS.dissipative_audit(model)
        assert all(im < -1e-10 for im in rep["eigenvalue_imag_parts"])

    @pytest.mark.parametrize("model", [
        M.radial_model(M.square_well(-1.0 - 2.0j, 0.5)),
        M.radial_model(M.square_well(-1.0 - 2.0j, 0.3)),
        M.line_model(M.square_well(-1.0 - 2.0j, 0.7)),
    ], ids=["radial_0.5", "radial_0.3", "line"])
    def test_self_adjoint_part_shares_the_grid_of_the_model(self, model):
        # H_{V1} is compared with H on one discretization: on a well of
        # radius 0.5 or 0.3 a grid rebuilt from the model's 13 panels has 14
        part = BS._self_adjoint_part(model)
        assert part.grid is model.grid and part.weight is model.weight
        assert part.backend == model.backend and part.dissipative
        assert np.array_equal(part.w_values, model.w_values.real)

    def test_non_dissipative_refused(self, small_well):
        well = M.radial_model(M.square_well(0.3 + 0.2j, 1.0), s=1.5, length=14.0)
        with pytest.raises(ModelError):
            BS.dissipative_audit(well)


class TestEpsilonBounds:
    def test_free_model_exponents(self, free_radial):
        eps = np.geomspace(1e-1, 1e-4, 10)
        rep = BS.epsilon_bounds_check(free_radial, 4.0, eps)
        assert rep.exponents["r0c"]["exponent"] == pytest.approx(0.5, abs=0.05)
        assert rep.exponents["rh"]["exponent"] <= 1.05
        assert rep.identity_relative_error <= 1e-10

    def test_resolvent_set_plateau(self, small_well):
        eps = np.geomspace(1e-1, 1e-3, 6)
        rep = BS.epsilon_bounds_check(small_well, -1.0, eps)
        assert abs(rep.exponents["r0c"]["exponent"]) <= 0.05
        assert abs(rep.exponents["rh"]["exponent"]) <= 0.05

    def test_needs_enough_samples(self, free_radial):
        with pytest.raises(ModelError):
            BS.epsilon_bounds_check(free_radial, 4.0, [1e-1, 1e-2])


class TestThreshold:
    def test_free_regular(self, free_radial):
        rep = BS.threshold_equivalence_check(free_radial)
        assert rep["class"] == "regular"
        assert rep["side_independent"]

    def test_tuned_zero_energy_resonance(self):
        v0 = F.threshold_well_depth()
        model = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0)
        rep = BS.threshold_equivalence_check(model)
        assert rep["sigma_min_plus"] <= 1e-4
        assert rep["difference"] <= 1e-10
        assert rep["class"] in ("both", "embedded_eigenvalue")

    def test_generic_depth_regular(self):
        model = M.radial_model(M.square_well(-2.0, 1.0), s=1.5, length=14.0)
        rep = BS.threshold_equivalence_check(model)
        assert rep["class"] == "regular"
        assert rep["sigma_min_plus"] > 1e-2

    def test_line_refused(self, line_free):
        with pytest.raises(AdmissibilityError):
            BS.threshold_equivalence_check(line_free)

    def test_weight_requirement(self):
        model = M.radial_model(M.square_well(-2.0, 1.0), s=0.8, length=14.0)
        with pytest.raises(ModelError):
            BS.threshold_equivalence_check(model)


class TestEigenvalues:
    def test_complex_well_matches_matching_equation(self):
        v0 = -5.0 - 0.5j
        model = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-3.0, 3.0))
        assert len(roots) >= 1
        # independent oracle: secant on the decaying-exterior matching
        def match(z):
            kappa = cmath.sqrt(z - v0)
            mu = cmath.sqrt(-z)
            return kappa * cmath.cos(kappa) + mu * cmath.sin(kappa)

        z = roots[0]["z"]
        z_oracle = F._secant(match, z + 0.05, z + 0.07j + 0.02)
        assert abs(z - z_oracle) <= 1e-8
        assert roots[0]["multiplicity"] == 1

    def test_real_well_bound_state(self):
        v0 = F.tune_bound_state(-2.0)
        model = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-2.0, 2.0))
        assert any(abs(r["z"] - (-2.0)) < 1e-7 for r in roots)

    def test_winding_counts_multiplicity(self):
        v0 = -5.0 - 0.5j
        model = M.radial_model(M.square_well(v0, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-3.0, 3.0))
        total = BS.eigenvalue_winding(model, roots[0]["z"], radius=0.5, n_nodes=64)
        assert total == sum(r["multiplicity"] for r in roots
                            if abs(r["z"] - roots[0]["z"]) < 0.5)


SMALL_GRID = {"panels": 6, "nodes_per_panel": 10}
GAUSSIAN_BUMP = M.PotentialSpec(
    func=M.GaussianBump(center=2.0, width=0.5, amplitude=-2.0 - 1.0j), support=(0.0, 14.0))
TWO_WELLS = M.PotentialSpec(pieces=((0.5, 1.5, -4.0 - 1.0j), (4.0, 5.0, -2.0 - 0.5j)),
                            support=(0.5, 5.0))


def nonlocal_cut_model():
    """A rank-two nonlocal W on the nodes below r = 1.5, half of the first
    panel [0, 3]: the other half of that panel is T sharing a panel with S."""
    pot = M.PotentialSpec(support=(0.0, 3.0))
    g = M.radial_model(pot, **SMALL_GRID).grid
    eta = np.where(g.nodes < 1.5, np.exp(-g.nodes), 0.0)
    w_sample = ((-2.0 - 0.5j) * np.outer(eta, g.weights * eta)
                + (1.0 + 0.3j) * np.outer(g.nodes * eta, g.weights * eta))
    return M.radial_model(pot, w_sample_matrix=w_sample, **SMALL_GRID)


# MIRROR_CASES numbers its test ids in this order: a new case goes last
SYLVESTER_CASES = {
    "finite": lambda: F.random_spectrum_model(np.random.default_rng(5))[0],
    "free": lambda: M.radial_model(M.PotentialSpec(), **SMALL_GRID),
    "gaussian_bump": lambda: M.radial_model(GAUSSIAN_BUMP, **SMALL_GRID),
    "line_well": lambda: M.line_model(M.square_well(-3.0 - 1.0j), **SMALL_GRID),
    "radial_well": lambda: M.radial_model(M.square_well(-25.0 - 4.0j), **SMALL_GRID),
    "rank_one": lambda: F.rank_one_embedded_model(**SMALL_GRID)[0],
    "wide_well": lambda: M.radial_model(M.square_well(-3.0 - 1.0j, 10.0), **SMALL_GRID),
    "covering_well": lambda: M.radial_model(M.square_well(-3.0 - 1.0j, 20.0), **SMALL_GRID),
    "two_wells": lambda: M.radial_model(TWO_WELLS, **SMALL_GRID),
    "nonlocal_cut": nonlocal_cut_model,
}

# rows of B' (K_TS = Q B') past |S| in the sigma_min SVD, by support shape:
# one per run of T left or right of all of S, two per gap between S panels,
# one per T node sharing a panel with S, at most |S| in all
SIGMA_MIN_EXTRA_ORDER = {
    "radial_well": 1,       # T right of S
    "line_well": 2,         # T on both sides
    "gaussian_bump": 0,     # T empty
    "wide_well": 1,
    "covering_well": 0,     # the well covers the grid: T empty
    "two_wells": 4,         # T left of, between and right of the two pieces
    "rank_one": 0,
    "nonlocal_cut": 5,      # 5 shared rows and one row right of them, cut to |S| = 5
    "finite": 0,            # S is every node
}


@functools.lru_cache(maxsize=None)
def sylvester_model(name):
    return SYLVESTER_CASES[name]()


def test_sylvester_cases_cover_every_support_shape():
    sizes = {name: np.count_nonzero(sylvester_model(name).support_mask())
             for name in SYLVESTER_CASES}
    for name in ("radial_well", "line_well"):
        assert 0 < sizes[name] < sylvester_model(name).size
    assert sizes["gaussian_bump"] == sylvester_model("gaussian_bump").size
    # fewer nodes off the support than on it: the QR of K_TS is wide
    assert 0 < sylvester_model("wide_well").size - sizes["wide_well"] < sizes["wide_well"]
    # the nonlocal W: zero w_values, support from the sample matrix
    assert sizes["rank_one"] > 0 and not sylvester_model("rank_one").w_values.any()
    assert sizes["free"] == 0
    assert sizes["finite"] > 0
    assert sizes["covering_well"] == sylvester_model("covering_well").size
    # two panels of S with a panel of T between them
    two = sylvester_model("two_wells")
    panels = np.unique(two.grid.panel_index[two.support_mask()])
    assert panels.size == 2 and panels[1] - panels[0] > 1
    # a nonlocal W whose support ends inside a panel
    cut = sylvester_model("nonlocal_cut")
    shared = np.isin(cut.grid.panel_index, cut.grid.panel_index[cut.support_mask()])
    assert 0 < sizes["nonlocal_cut"] < np.count_nonzero(shared)
    assert not cut.w_values.any()


# fixed draws and no example database: tier-1 runs the same points every time
sylvester_settings = settings(deadline=None, derandomize=True, database=None)

off_axis = st.builds(
    complex,
    st.floats(-5.0, 20.0),
    st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
)


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _full_k_dz(model, z):
    """K'(z) at full order: exact resolvent algebra (finite), central
    differences of the full kernel (continuum), with the step of
    ``bs_matrix_dz``."""
    if model.backend == "finite":
        n = model.size
        r0 = np.linalg.solve(model.h0 - z * np.eye(n), np.eye(n))
        c = model.c_diag
        return c[:, None] * (r0 @ r0) * c[None, :] @ model.w_matrix
    h = 1e-5 * max(1.0, abs(z))
    return (BS.bs_matrix(model, z=z + h) - BS.bs_matrix(model, z=z - h)) / (2.0 * h)


@pytest.mark.parametrize("name", sorted(SYLVESTER_CASES))
class TestSylvesterReduction:
    """Everything computed from A = I + K_SS agrees with full-order Id + K."""

    @settings(sylvester_settings, max_examples=12)
    @given(z=off_axis)
    def test_log_det_is_det_of_the_support_block(self, name, z):
        model = sylvester_model(name)
        k = BS.bs_matrix(model, z=z)
        sign, logabs = np.linalg.slogdet(np.eye(model.size) + k)
        value, phase = BS.BoundarySystem(model, z=z).log_det()
        assert abs(value - logabs) <= 1e-12 * max(1.0, abs(logabs))
        assert abs(phase - sign) <= 1e-12

    @settings(sylvester_settings, max_examples=8)
    @given(z=off_axis)
    def test_logdet_derivative_matches_full_order_trace(self, name, z):
        model = sylvester_model(name)
        inv = np.linalg.inv(np.eye(model.size) + BS.bs_matrix(model, z=z))
        full = np.trace(inv @ _full_k_dz(model, z))
        assert abs(BS._logdet_derivative(model, z) - full) <= 1e-9 * max(abs(full), 1e-12)

    @settings(sylvester_settings, max_examples=8)
    @given(z=off_axis)
    def test_solves_match_full_order_lu(self, name, z):
        model = sylvester_model(name)
        id_plus_k = np.eye(model.size) + BS.bs_matrix(model, z=z)
        lu = scipy.linalg.lu_factor(id_plus_k)
        system = BS.BoundarySystem(model, z=z)
        assert _rel(system.inverse(), scipy.linalg.lu_solve(lu, np.eye(model.size))) <= 1e-12
        if model.backend == "finite":
            return
        g = model.grid
        v = np.stack([M.GaussianBump(center=c, width=0.6)(g.nodes) for c in (0.8, 2.5)],
                     axis=1) + 0.3j
        w_full_solve = model.apply_w(
            scipy.linalg.lu_solve(lu, g.sqrtw[:, None] * v) / g.sqrtw[:, None])
        assert _rel(system.w_solve(v), w_full_solve) <= 1e-12
        assert _rel(system.w_solve(v[:, 0]), w_full_solve[:, 0]) <= 1e-12
        c = model.c_values[:, None]
        r0v = system.action.apply(v)
        source = c * model.apply_w(
            scipy.linalg.lu_solve(lu, g.sqrtw[:, None] * (c * r0v)) / g.sqrtw[:, None])
        rhv, src = system.resolvent_apply(v)
        assert _rel(src, source) <= 1e-12
        assert _rel(rhv, r0v - system.action.apply(source)) <= 1e-12

    @settings(sylvester_settings, max_examples=8)
    @given(z=off_axis)
    def test_sigma_min_matches_full_order(self, name, z):
        # the order-2|S| value from A and the QR of K_TS against the SVD of
        # the assembled Id + K, off the axis, on both sides of the boundary,
        # and on mirror systems
        model = sylvester_model(name)

        def full(**point):
            if "lam" in point:
                return BS.sigma_min(model, point["lam"], point["side"])
            id_plus_k = np.eye(model.size) + BS.bs_matrix(model, **point)
            return float(np.linalg.svd(id_plus_k, compute_uv=False)[-1])

        def check(system, **point):
            value, ref = system.sigma_min(), full(**point)
            assert abs(value - ref) <= max(1e-12 * ref, 1e-14)

        system = BS.BoundarySystem(model, z=z)
        check(system, z=z)
        check(system.mirror(), z=z.conjugate())
        if model.backend == "finite":
            return
        # lam = 0 is admissible on the radial backend, with k = 0 (phi = r, psi = 1)
        for lam in (abs(z), 0.0) if model.backend == "radial" else (abs(z),):
            for side, other in (("+", "-"), ("-", "+")):
                system = BS.BoundarySystem(model, lam=lam, side=side)
                check(system, lam=lam, side=side)
                check(system.mirror(), lam=lam, side=other)

    @settings(sylvester_settings, max_examples=4)
    @given(z=off_axis)
    def test_inverse_matches_full_order_on_both_sides(self, name, z):
        # -B A^(-1) from the factored K_TS against the inverse of the
        # assembled Id + K, off the axis, on both boundary sides (lam = 0
        # too on the radial backend) and through mirror()
        model = sylvester_model(name)

        def check(system, **point):
            ref = np.linalg.inv(np.eye(model.size) + BS.bs_matrix(model, **point))
            assert _rel(system.inverse(), ref) <= 1e-12

        system = BS.BoundarySystem(model, z=z)
        check(system, z=z)
        check(system.mirror(), z=z.conjugate())
        if model.backend == "finite":
            return
        for lam in (abs(z), 0.0) if model.backend == "radial" else (abs(z),):
            for side, other in (("+", "-"), ("-", "+")):
                system = BS.BoundarySystem(model, lam=lam, side=side)
                check(system, lam=lam, side=side)
                check(system.mirror(), lam=lam, side=other)


@pytest.mark.parametrize("name", sorted(SIGMA_MIN_EXTRA_ORDER))
@pytest.mark.parametrize("point", [{"z": 3.0 + 0.7j}, {"lam": 2.0, "side": "-"}])
def test_sigma_min_order_follows_the_support_shape(name, point, monkeypatch):
    # one SVD of order |S| + (rows of B'), on the system and its mirror
    model = sylvester_model(name)
    if "lam" in point and model.backend == "finite":
        point = {"z": 2.0 - 0.4j}
    support = np.count_nonzero(model.support_mask())
    orders = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        orders.append(a.shape[-2:])   # the order; one point is a stack of one
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    system = BS.BoundarySystem(model, **point)
    system.sigma_min()
    system.mirror().sigma_min()
    order = support + SIGMA_MIN_EXTRA_ORDER[name]
    assert orders == [(order, order)] * 2


class TestSupportReduction:
    def test_determinant_work_has_the_order_of_the_support(self, monkeypatch):
        model = M.radial_model(M.square_well(-25.0 - 4.0j))
        support = np.count_nonzero(model.support_mask())
        assert support < model.size
        orders = []

        def record(fn):
            def wrapped(a, *args, **kwargs):
                orders.append((fn.__name__, a.shape[-2:]))
                return fn(a, *args, **kwargs)
            return wrapped

        def full_assembly(act):
            raise AssertionError("full free-kernel assembly")

        monkeypatch.setattr(M.FreeResolventAction, "matrix", full_assembly)
        for name in ("slogdet", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, record(getattr(np.linalg, name)))
        BS.BoundarySystem(model, z=-0.4 - 2.2j).log_det()
        BS._logdet_derivative(model, -0.4 - 2.2j)
        # in-panel blocks of order n and one coupling system of order 2P, P
        # the panels of S (one run here), or A itself when S lies in one panel
        panels = np.unique(model.grid.panel_index[model.support_mask()]).size
        assert {name for name, _ in orders} >= {"slogdet", "solve"}
        assert all(shape[0] <= max(model.grid.n, 2 * panels) for _, shape in orders)

    def test_determinant_computes_partials_on_the_support_panels_only(self, monkeypatch):
        model = M.radial_model(M.square_well(-25.0 - 4.0j))
        support_panels = np.unique(model.grid.panel_index[model.support_mask()])
        assert support_panels.size < model.grid.npanels
        contracted = []
        contract = M._contract

        def counting_contract(values, weights):
            contracted.append(values.shape[0])   # panels in the run
            return contract(values, weights)

        monkeypatch.setattr(M, "_contract", counting_contract)
        BS.BoundarySystem(model, z=-0.4 - 2.2j).log_det()
        # the left and the right partials, each over the panels of S once
        assert contracted == [support_panels.size] * 2

    def test_eigenvalue_paths_evaluate_the_kernel_on_the_support_only(self, monkeypatch):
        # locate_eigenvalues, the winding number and the Newton derivative
        # read K on S alone (det A, K'_SS): no action evaluates phi or psi
        # on every node, and each memo holds the partials of the one panel
        # of S, not of all twelve
        model = M.radial_model(M.square_well(-25.0 - 4.0j))
        panel = np.unique(model.grid.panel_index[model.support_mask()])
        assert panel.size == 1 and model.grid.npanels > 1
        actions = []
        init = M.FreeResolventAction.__init__

        def recording_init(act, *args):
            init(act, *args)
            actions.append(act)

        monkeypatch.setattr(M.FreeResolventAction, "__init__", recording_init)
        roots = BS.locate_eigenvalues(model)
        assert roots
        assert BS.eigenvalue_winding(model, roots[0]["z"], 1e-3) == 1
        BS._logdet_derivative(model, np.array([1.0 + 1.0j, 2.0 - 0.5j]))
        assert actions
        for act in actions:
            assert act._nodes is None
            assert act._run == (panel[0], panel[0] + 1)
            assert act._left.shape[1] == act._right.shape[1] == 1

    def test_sigma_min_paths_run_at_the_order_of_the_support(self, tuned_well, monkeypatch):
        # no assembled free kernel, every SVD of order |S| + 1 (T lies right
        # of S, one row of B'; the scan's are stacked, (K, |S| + 1, |S| + 1))
        # and no block row off S in the scan, the point classification, the
        # golden refinement or the calculus probe; the
        # resonant state is stubbed here (see test_cli.py for a run without
        # the free-kernel assembly that builds it)
        model, _ = tuned_well
        mask = model.support_mask()
        support = np.count_nonzero(mask)
        assert 2 * support < model.size
        # T rows in the panels of S: none for this well, whose edge is a panel edge
        panel = model.grid.panel_index
        written = mask | np.isin(panel, panel[mask])
        assert np.array_equal(written, mask)
        orders, block_rows = [], []
        svd, block = np.linalg.svd, M.FreeResolventAction.block

        def recording_svd(a, *args, **kwargs):
            orders.append(a.shape)
            return svd(a, *args, **kwargs)

        def recording_block(act, rows, *args):
            block_rows.append(rows)
            return block(act, rows, *args)

        def full_assembly(act):
            raise AssertionError("full free-kernel assembly")

        states = []
        monkeypatch.setattr(M.FreeResolventAction, "matrix", full_assembly)
        monkeypatch.setattr(M.FreeResolventAction, "block", recording_block)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(BS, "resonant_state", lambda *args: states.append(args))
        grid = np.linspace(0.3, 3.0, 28)
        profile = BS.sigma_profile(model, grid)
        assert BS.classify_point(model, 2.0).kind == "regular"
        reports = BS.classify_minima(model, grid, profile)
        assert [r.kind for r in reports] == ["outgoing_singularity"]
        assert abs(reports[0].lam - 1.0) <= 1e-6
        assert len(states) == 1
        C._assert_singularity_free(model, (2.0, 6.0), {})
        assert orders and {shape[-2:] for shape in orders} == {(support + 1, support + 1)}
        assert block_rows and all(written[rows].all() for rows in block_rows)
        # the exact zero of the rank-one embedded eigenvalue (S is every node)
        embedded, _, _ = F.rank_one_embedded_model(lam0=2.0)
        reduced = [BS.BoundarySystem(embedded, lam=2.0, side=side).sigma_min()
                   for side in ("+", "-")]
        monkeypatch.undo()
        reference = [BS.sigma_min(embedded, 2.0, side) for side in ("+", "-")]
        assert max(reduced + reference) <= 1e-10


MIRROR_CASES = [(name, point) for name in SYLVESTER_CASES
                for point in ({"z": 3.0 + 0.7j}, {"z": -1.5 - 2.0j},
                              {"lam": 2.0, "side": "+"}, {"lam": 5.5, "side": "-"})
                if "z" in point or name != "finite"]


@pytest.mark.parametrize("name, point", MIRROR_CASES)
def test_mirror_system_matches_a_fresh_system(name, point):
    # the other side, or conj z, on the conjugate free action: its own K and LU
    model = sylvester_model(name)
    if "z" in point:
        other = {"z": np.conj(point["z"])}
    else:
        other = {"lam": point["lam"], "side": "-" if point["side"] == "+" else "+"}
    system = BS.BoundarySystem(model, **point)
    system.k   # the free kernel exists before the mirror is made
    mirror, fresh = system.mirror(), BS.BoundarySystem(model, **other)
    assert abs(mirror.sigma_min() - fresh.sigma_min()) <= 1e-12 * fresh.sigma_min()
    (value, phase), (ref_value, ref_phase) = mirror.log_det(), fresh.log_det()
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
    assert abs(phase - ref_phase) <= 1e-12
    if model.backend == "finite":
        return
    v = M.GaussianBump(center=1.2, width=0.6)(model.grid.nodes) + 0.3j
    assert _rel(mirror.w_solve(v), fresh.w_solve(v)) <= 1e-12
    assert np.array_equal(mirror.action.matrix(), np.conj(system.action.matrix()))


# the node factors are computed on a block's own nodes until something
# reads every node, then sliced from the kept arrays: a k = 0 stack too
LAZY_FACTOR_CASES = [case for case in MIRROR_CASES
                     if case[0] in ("radial_well", "line_well", "rank_one")] + [
    ("radial_well", {"lam": np.array([0.0, 2.0, 5.5]), "side": "+"})]


@pytest.mark.parametrize("name, point", LAZY_FACTOR_CASES)
def test_a_block_has_its_bits_before_and_after_every_node_is_read(name, point):
    # block and the generators of K between panels, on the action and on
    # its mirror, equal (==) before and after apply and evaluate keep phi,
    # psi and their moment weights on every node
    model = sylvester_model(name)
    n = model.size
    blocks = [(model.support_split[0],) * 2, (np.arange(0, n, 7), np.arange(3, n, 5))]
    act = M.resolvent_action(model, **point)
    mirror = act.conjugate()

    def read(x):
        return ([x.block(rows, cols) for rows, cols in blocks]
                + [part for rows, cols in blocks
                   for part in BS._panel_generators(model, x, rows, cols)])

    before = [read(x) for x in (act, mirror)]
    assert act._nodes is None and mirror._nodes is None
    v = np.random.default_rng(2).standard_normal(n) + 0.5j
    for x in (act, mirror):
        x.apply(v)
        x.evaluate(v, model.grid.nodes[::11])
    assert act._nodes is not None and mirror._nodes is not None
    for x, want in zip((act, mirror), before):
        for got, ref in zip(read(x), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", ["radial_well", "line_well", "two_wells"])
def test_a_memo_grown_from_a_block_matches_one_filled_at_once(name):
    # block(S, S) fills the partials of the panels of S alone; apply then
    # grows the memo to every panel: the same partials, applications and
    # blocks (==) as an action whose first use is apply
    model = sylvester_model(name)
    g = model.grid
    s = model.support_split[0]
    first, last = g.panel_index[s[[0, -1]]]
    assert last + 1 - first < g.npanels
    zs = np.array([3.0 + 0.7j, -1.5 - 2.0j])
    grown, whole = M.resolvent_action(model, z=zs), M.resolvent_action(model, z=zs)
    block = grown.block(s, s)
    assert grown._run == (first, last + 1)
    assert grown._left.shape == (zs.size, last + 1 - first, g.n, g.n)
    v = np.random.default_rng(4).standard_normal((g.size, 2)) + 0.5j
    assert np.array_equal(grown.apply(v), whole.apply(v))
    assert grown._run == whole._run == (0, g.npanels)
    for got, want in zip(grown._partials(0, g.npanels), whole._partials(0, g.npanels)):
        assert np.array_equal(got, want)
    assert np.array_equal(grown.block(s, s), block)
    assert np.array_equal(whole.block(s, s), block)


def test_finite_k_is_solved_once_per_system(monkeypatch):
    # sigma_min reads K_SS and K_TS, the inverse reads K_TS again: one
    # solve of the resolvent (H0 - z)^(-1) in all (the inverse also solves
    # A = I + K_SS, which has order N too: S is every node here)
    model = sylvester_model("finite")
    z = 2.0 - 0.4j
    h0_z = model.h0 - z * np.eye(model.size)
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append("resolvent" if np.array_equal(a[0], h0_z) else a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    system = BS.BoundarySystem(model, z=z)
    system.sigma_min()
    system.inverse()
    assert solves.count("resolvent") == 1


def _backward_error(a, x, y):
    """The largest normwise backward error ||a x - y|| / (||a|| ||x|| + ||y||)
    (Frobenius norms) of the solutions x of a x = y on a stack."""
    norm = functools.partial(np.linalg.norm, axis=(-2, -1))
    return np.max(norm(a @ x - y) / (norm(a) * norm(x) + norm(y)))


@pytest.mark.parametrize("name", ["radial_well", "line_well", "wide_well", "two_wells",
                                  "rank_one", "finite", "free"])
@pytest.mark.parametrize("points", [{"z": np.array([3.0 + 0.7j, -1.5 - 2.0j, 0.4 + 0.05j])},
                                    {"z": 0.4 + 0.05j}, {"lam": 1.1, "side": "+"}])
def test_a_solve_is_scipy_lu(name, points):
    # a multiplication W over several panels solves through the panel
    # factors of A, with the backward error of a dense LU; a support in one
    # panel, a nonlocal W ("rank_one"), the finite backend and |S| = 0
    # ("free") solve A densely (one stacked np.linalg.solve): bitwise
    # SciPy's lu_solve(lu_factor(A)), the independent reference, on the
    # whole stack, for per-point and for shared (broadcast) right-hand
    # sides, and at one point
    model = sylvester_model(name)
    if "lam" in points and model.backend == "finite":
        points = {"z": 2.0 - 0.4j}
    system = BS.BoundarySystem(model, **points)
    structured = system._panel_factors()[0] is not None
    assert structured == (name in ("wide_well", "two_wells"))
    a = system._a()
    s, k = a.shape[-1], a.shape[0]
    rhs = np.random.default_rng(3).standard_normal((k, s, 2)) + 0.5j
    shared = np.broadcast_to(np.eye(s), (k, s, s))
    lu = scipy.linalg.lu_factor(a, check_finite=False)
    for b in (rhs, shared):
        got = system.a_solve(b)
        assert got.shape == b.shape
        ref = scipy.linalg.lu_solve(lu, b, check_finite=False)
        if structured:
            assert _backward_error(a, got, b) <= 1e-13
            assert _rel(got, ref) <= 1e-13 * np.max(np.linalg.cond(a))
        else:
            assert np.array_equal(got, ref)
    if k == 1 and not structured:
        lu = scipy.linalg.lu_factor(a[0], check_finite=False)
        assert np.array_equal(system.a_solve(rhs)[0], scipy.linalg.lu_solve(lu, rhs[0]))


@pytest.mark.parametrize("name", ["radial_well", "line_well", "rank_one", "finite"])
def test_a_dense_solve_is_one_stacked_numpy_solve(name, monkeypatch):
    # a dense A keeps no factors: each solve is one np.linalg.solve of the
    # whole (K, |S|, |S|) stack, and nothing in scipy.linalg is called
    model = sylvester_model(name)
    system = BS.BoundarySystem(model, z=np.array([3.0 + 0.7j, -1.5 - 2.0j, 0.4 + 0.05j]))
    assert system._panel_factors()[0] is None
    s = system.k_support().shape[-1]   # on the finite backend, after its resolvent solve
    shapes = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg call")

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    for attr in scipy.linalg.__all__:
        if callable(getattr(scipy.linalg, attr)):
            monkeypatch.setattr(scipy.linalg, attr, refuse)
    rhs = np.random.default_rng(6).standard_normal((3, s, 2)) + 0.5j
    for _ in range(2):
        shapes.clear()
        system.a_solve(rhs)
        assert shapes == [(3, s, s)]


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_a_kept_panel_system_solves_as_a_fresh_one(columns):
    # a multi-panel system kept after its first solve, as the calculus
    # caches keep them, solves a later right-hand side in the block that
    # built its factors: the bits of a fresh system built with it
    model = wide_well()
    lam = np.linspace(0.5, 6.0, 12)
    s = np.count_nonzero(model.support_mask())
    rng = np.random.default_rng(columns)

    def rhs(m):
        return rng.standard_normal((lam.size, s, m)) + 1j * rng.standard_normal((lam.size, s, m))

    kept = BS.BoundarySystem(model, lam=lam, side="+")
    first = rhs(columns)
    x = kept.a_solve(first)
    assert kept._panel_factors()[0] is not None
    assert np.array_equal(kept.a_solve(first), x)
    for m in (1, 2, 3):
        later = rhs(m)
        fresh = BS.BoundarySystem(model, lam=lam, side="+")
        assert np.array_equal(kept.a_solve(later), fresh.a_solve(later))


def test_a_panel_system_first_used_by_log_det_solves_as_a_fresh_one():
    # factors built for log_det carry one zero column where a solve puts
    # its right-hand side: a later solve, and the determinant, have the
    # bits of a system built by its first solve
    model = wide_well()
    lam = np.linspace(0.5, 6.0, 12)
    s = np.count_nonzero(model.support_mask())
    rng = np.random.default_rng(7)
    kept = BS.BoundarySystem(model, lam=lam, side="+")
    log_det = kept.log_det()
    assert kept._panel_factors()[0] is not None
    for m in (1, 2, 3):
        rhs = rng.standard_normal((lam.size, s, m)) + 1j * rng.standard_normal((lam.size, s, m))
        fresh = BS.BoundarySystem(model, lam=lam, side="+")
        assert np.array_equal(kept.a_solve(rhs), fresh.a_solve(rhs))
        for got, want in zip(fresh.log_det(), log_det):
            assert np.array_equal(got, want)


# supports of a multiplication W over several panels, by shape: two
# pieces with empty panels between them, every panel, and supports ending
# inside a panel (no breakpoint there), on both continuum backends
PANEL_CASES = {
    **{name: SYLVESTER_CASES[name] for name in ("wide_well", "two_wells", "covering_well")},
    "cut_well": lambda: M.radial_model(M.PotentialSpec(
        func=lambda x: np.where(x < 4.5, -6.0 - 2.0j, 0.0), support=(0.0, 3.0)), **SMALL_GRID),
    "line_wide": lambda: M.line_model(M.PotentialSpec(
        pieces=((-9.0, 9.0, -2.0 - 1.0j),), support=(-9.0, 9.0)), **SMALL_GRID),
    "line_cut": lambda: M.line_model(M.PotentialSpec(
        func=lambda x: np.where(np.abs(x) < 5.0, -1.5 - 1.0j, 0.0), support=(-12.0, 12.0)),
        **SMALL_GRID),
}


def test_panel_cases_cover_every_support_shape():
    models = {name: build() for name, build in PANEL_CASES.items()}
    assert {model.backend for model in models.values()} == {"radial", "line1d"}
    panels = {name: np.unique(model.grid.panel_index[model.support_mask()])
              for name, model in models.items()}
    assert all(p.size > 1 for p in panels.values())
    assert np.diff(panels["two_wells"]).max() > 1   # empty panels between the pieces
    for name in ("cut_well", "line_cut"):           # part-filled panels
        model = models[name]
        assert np.count_nonzero(model.support_mask()) < panels[name].size * model.grid.n


def _draw_points(model, data):
    """Drawn points for ``BoundarySystem``: off-axis z = k^2 with Im k up to
    5, or lam on one side, the radial threshold lam = 0 among them; a stack
    of one to four, or one point alone."""
    if data.draw(st.booleans(), label="boundary"):
        lo = 0.0 if model.backend == "radial" else 1e-3
        top = model.max_scan_energy()
        lams = data.draw(st.lists(st.just(lo) | st.floats(lo, top), min_size=1, max_size=4))
        point = {"lam": np.array(lams), "side": data.draw(st.sampled_from("+-"))}
        key = "lam"
    else:
        ks = data.draw(st.lists(st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.05, 5.0)),
                                min_size=1, max_size=4))
        point, key = {"z": np.array(ks) ** 2}, "z"
    if point[key].size == 1 and data.draw(st.booleans(), label="alone"):
        point[key] = point[key][0]
    return point


@settings(sylvester_settings, max_examples=60)
@given(name=st.sampled_from(sorted(PANEL_CASES)), data=st.data())
def test_panel_factors_match_the_dense_reference(name, data):
    # a_solve on the panel factors has the backward error of a dense LU,
    # and log det from them is slogdet of the assembled A, on a stack or
    # its mirror
    model = PANEL_CASES[name]()
    system = BS.BoundarySystem(model, **_draw_points(model, data))
    if data.draw(st.booleans(), label="mirror"):
        system = system.mirror()
    assert system._panel_factors()[0] is not None
    a = system._a()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rhs = rng.standard_normal(a.shape[:2] + (2,)) + 1j * rng.standard_normal(a.shape[:2] + (2,))
    assert _backward_error(a, system.a_solve(rhs), rhs) <= 1e-13
    ref_sign, ref_logabs = np.linalg.slogdet(a)
    logabs, phase = (np.atleast_1d(x) for x in system.log_det())
    assert np.all(np.abs(logabs - ref_logabs) <= 1e-12 * np.maximum(1.0, np.abs(ref_logabs)))
    assert np.all(np.abs(phase - ref_sign) <= 1e-12)


def _record_guards(monkeypatch):
    """The (order, refused) of every matrix stack the guard of the panel
    factors checks, in order: in-panel blocks, then the coupling system."""
    guarded = []
    ill_conditioned = BS._ill_conditioned

    def record(x, inv_norm):
        guarded.append((x.shape[-1], ill_conditioned(x, inv_norm)))
        return guarded[-1][1]

    monkeypatch.setattr(BS, "_ill_conditioned", record)
    return guarded


def test_an_ill_conditioned_panel_block_solves_densely(monkeypatch):
    # D_q is K for W restricted to panel q, so I + D_q is singular at the
    # eigenvalues of that one-panel well even where A is regular: at an
    # eigenvalue z* of a deep well filling the panel [0, 1], the well that
    # continues over [1, 3] solves with the dense LU of A
    deep = ((0.0, 1.0, -100.0 - 4.0j),)
    one_panel = M.radial_model(M.PotentialSpec(pieces=deep, support=(0.0, 3.0)))
    full = M.radial_model(M.PotentialSpec(pieces=deep + ((1.0, 3.0, -2.0 - 1.0j),),
                                          support=(0.0, 3.0)))
    assert np.array_equal(one_panel.grid.edges, full.grid.edges)
    assert np.array_equal(np.unique(one_panel.grid.panel_index[one_panel.support_mask()]), [0])
    roots = BS.locate_eigenvalues(one_panel, re_range=(-100.0, 0.0), im_range=(-8.0, 2.0))
    assert roots
    rhs = np.random.default_rng(4).standard_normal((1, np.count_nonzero(full.support_mask()), 2))
    guarded = _record_guards(monkeypatch)
    for root in roots:
        system = BS.BoundarySystem(full, z=root["z"])
        assert system.sigma_min() > 1e-5   # A is regular at z*
        guarded.clear()
        assert system._panel_factors()[0] is None
        assert guarded == [(full.grid.n, True)]   # refused by its in-panel block
        a = system._a()
        lu = scipy.linalg.lu_factor(a[0], check_finite=False)
        assert np.array_equal(system.a_solve(rhs)[0], scipy.linalg.lu_solve(lu, rhs[0]))
        ref_sign, ref_logabs = np.linalg.slogdet(a[0])
        assert system.log_det() == (ref_logabs, ref_sign)
        # and without the guard the panel blocks would have served it badly
        with monkeypatch.context() as patch:
            patch.setattr(BS, "PANEL_CONDITION_MAX", math.inf)
            unguarded = BS.BoundarySystem(full, z=root["z"])
            assert _backward_error(a, unguarded.a_solve(rhs), rhs) > 1e-10


def test_a_singular_coupling_system_solves_densely(monkeypatch):
    # det A = prod_q det E_q det R: at an eigenvalue z* of a well over
    # several panels A is singular to rounding while its in-panel blocks
    # are regular, so R is singular, and its guard sends the stack to the
    # dense LU and slogdet instead of raising
    model = sylvester_model("wide_well")
    roots = BS.locate_eigenvalues(model)
    assert roots
    guarded = _record_guards(monkeypatch)
    panels = np.unique(model.grid.panel_index[model.support_mask()]).size
    rhs = np.random.default_rng(5).standard_normal((1, np.count_nonzero(model.support_mask()), 2))
    for root in roots:
        system = BS.BoundarySystem(model, z=root["z"])
        assert system.sigma_min() < 1e-12
        guarded.clear()
        assert system._panel_factors()[0] is None
        assert guarded == [(model.grid.n, False), (2 * panels, True)]
        a = system._a()
        lu = scipy.linalg.lu_factor(a[0], check_finite=False)
        assert np.array_equal(system.a_solve(rhs)[0], scipy.linalg.lu_solve(lu, rhs[0]))
        ref_sign, ref_logabs = np.linalg.slogdet(a[0])
        assert system.log_det() == (ref_logabs, ref_sign)


STACKS = [{"z": np.array([3.0 + 0.7j, -1.5 - 2.0j, 0.4 + 0.05j])},
          {"lam": np.array([0.3, 2.0, 5.5]), "side": "-"}]


@pytest.mark.parametrize("name", sorted(set(SYLVESTER_CASES) - {"finite"}))
@pytest.mark.parametrize("points", STACKS)
def test_a_stacked_system_is_its_points(name, points):
    # K_SS, R_H and its source at three points at once, and on the mirror
    # stack, against one system per point
    model = sylvester_model(name)
    key = "z" if "z" in points else "lam"
    stack = BS.BoundarySystem(model, **points)
    x = model.grid.nodes
    v = np.stack([M.GaussianBump(center=1.2, width=0.6)(x) + 0.3j, np.cos(x) + 0j], axis=1)
    got = [stack.k_support(), *stack.resolvent_apply(v), stack.mirror().k_support(),
           *stack.mirror().resolvent_apply(v)]
    for i, point in enumerate(points[key]):
        one = BS.BoundarySystem(model, **{**points, key: point})
        want = [one.k_support(), *one.resolvent_apply(v), one.mirror().k_support(),
                *one.mirror().resolvent_apply(v)]
        for a, b in zip(got, want):
            assert a[i].shape == b.shape
            if b.size and b.any():
                assert _rel(a[i], b) <= 1e-13


@pytest.mark.parametrize("name", ["radial_well", "line_well", "rank_one"])
def test_a_stack_applies_a_shared_vector_at_each_point(name):
    # one vector, or the columns of a matrix, shared by every point of the
    # stack: R_H v and its source per point, as at each point alone
    model = sylvester_model(name)
    zs = np.array([1.0 + 1.0j, 2.0 + 0.5j, 3.0 + 0.2j])
    x = model.grid.nodes
    v = M.GaussianBump(center=1.2, width=0.6)(x) + 0.3j * np.cos(x)
    for samples in (v, np.stack([v, np.sin(x) + 0j], axis=1)):
        got = BS.BoundarySystem(model, z=zs).resolvent_apply(samples)
        for i, z in enumerate(zs):
            want = BS.BoundarySystem(model, z=z).resolvent_apply(samples)
            for a, b in zip(got, want):
                assert a.shape == (zs.size,) + samples.shape
                assert _rel(a[i], b) <= 1e-14


STACK_Z =np.array([3.0 + 0.7j, -1.5 - 2.0j, 0.4 + 0.05j, 12.0 - 0.3j])
STACK_LAM = np.array([0.3, 1.1, 2.0, 2.6])   # below every continuum case's scan limit


def _sigma_agrees(got, want):
    return abs(got - want) <= max(1e-12 * want, 1e-15)


@pytest.mark.parametrize("name", sorted(set(SYLVESTER_CASES) - {"finite"}))
@pytest.mark.parametrize("points", [{"z": STACK_Z}, {"lam": STACK_LAM, "side": "+"},
                                    {"lam": STACK_LAM, "side": "-"}])
def test_stacked_reductions_are_their_points(name, points):
    # sigma_min, log det and the weighted resolvent norm of a stack and of
    # its mirror, one stacked SVD or slogdet each, against one system per
    # point and its mirror
    model = sylvester_model(name)
    key = "z" if "z" in points else "lam"
    stack = BS.BoundarySystem(model, **points)
    for mirrored, system in ((False, stack), (True, stack.mirror())):
        sigma, (logabs, phase), norm = (system.sigma_min(), system.log_det(),
                                        system.weighted_resolvent_norm())
        assert sigma.shape == logabs.shape == phase.shape == norm.shape == points[key].shape
        if not model.support_mask().any():   # W = 0: Id + K = Id
            assert np.array_equal(sigma, np.ones(sigma.shape))
            assert not logabs.any() and not norm.any()
        for i, point in enumerate(points[key]):
            one = BS.BoundarySystem(model, **{**points, key: point})
            one = one.mirror() if mirrored else one
            ref_logabs, ref_phase = one.log_det()
            assert _sigma_agrees(sigma[i], one.sigma_min())
            assert abs(logabs[i] - ref_logabs) <= 1e-14
            assert abs(phase[i] - ref_phase) <= 1e-14
            ref_norm = one.weighted_resolvent_norm()
            assert abs(norm[i] - ref_norm) <= 1e-12 * ref_norm


@pytest.mark.parametrize("name", sorted(set(SYLVESTER_CASES) - {"finite"}))
def test_stacked_logdet_derivative_is_its_points(name):
    # central differences of stacked K_SS blocks with a step per point and
    # one stacked solve; the difference quotient amplifies the rounding of
    # the blocks by 1/h, so the bound is looser than for the values
    model = sylvester_model(name)
    for zs in (STACK_Z, np.conj(STACK_Z)):
        got = BS._logdet_derivative(model, zs)
        assert got.shape == zs.shape
        for i, z in enumerate(zs):
            ref = BS._logdet_derivative(model, z)
            assert abs(got[i] - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("name", ["radial_well", "rank_one", "free"])
def test_a_radial_profile_from_the_threshold_is_its_points(name):
    # lam = 0 runs in the first stack, with the points after it
    model = sylvester_model(name)
    grid = np.linspace(0.0, model.max_scan_energy(), BS.BATCH_POINTS + 5)
    profile = BS.sigma_profile(model, grid)
    for side in ("+", "-"):
        for lam, got in zip(grid, profile[side]):
            assert _sigma_agrees(got, BS.BoundarySystem(model, lam=lam, side=side).sigma_min())
    # the threshold kernel min(r, r') is real: both sides agree at lam = 0
    assert profile["+"][0] == profile["-"][0]


@pytest.mark.parametrize("name", ["radial_well", "rank_one", "free"])
def test_a_stack_holding_the_threshold_is_its_points(name):
    # lam = 0 (the kernel min(r, r')) inside a stack: sigma_min on both
    # sides, log det and w_solve are those of the threshold point alone
    model = sylvester_model(name)
    lams = np.array([0.7, 0.0, 2.0])
    v = M.GaussianBump(center=1.2, width=0.6)(model.grid.nodes) + 0.3j
    for side in ("+", "-"):
        stack, one = (BS.BoundarySystem(model, lam=lam, side=side) for lam in (lams, 0.0))
        for got, want in ((stack.sigma_min()[1], one.sigma_min()),
                          (stack.mirror().sigma_min()[1], one.mirror().sigma_min())):
            assert _sigma_agrees(got, want)
        (logabs, phase), (ref_logabs, ref_phase) = stack.log_det(), one.log_det()
        assert abs(logabs[1] - ref_logabs) <= 1e-14 and abs(phase[1] - ref_phase) <= 1e-14
        solved, ref = stack.w_solve(np.stack([v] * lams.size)[..., None])[1, :, 0], one.w_solve(v)
        assert np.array_equal(solved, ref) if not ref.any() else _rel(solved, ref) <= 1e-13


def test_a_finite_stack_is_its_points():
    # the finite backend stacks its points too, from one stacked solve of
    # (H0 - z)^(-1): sigma_min, log det, the weighted resolvent norm, K_SS
    # and the log-det derivative of each point, and the mirror stack
    model = sylvester_model("finite")
    stack = BS.BoundarySystem(model, z=STACK_Z)
    (logabs, phase), mirror = stack.log_det(), stack.mirror()
    got = (stack.sigma_min(), stack.weighted_resolvent_norm(), stack.k_support(),
           BS._logdet_derivative(model, STACK_Z), mirror.sigma_min())
    assert [np.shape(g)[:1] for g in got] == [STACK_Z.shape] * len(got)
    for i, z in enumerate(STACK_Z):
        one = BS.BoundarySystem(model, z=z)
        ref_logabs, ref_phase = one.log_det()
        assert abs(logabs[i] - ref_logabs) <= 1e-14 and abs(phase[i] - ref_phase) <= 1e-14
        want = (one.sigma_min(), one.weighted_resolvent_norm(), one.k_support(),
                BS._logdet_derivative(model, z), one.mirror().sigma_min())
        for a, b in zip(got, want):
            assert _rel(a[i], b) <= 1e-13


@settings(sylvester_settings, max_examples=15)
@given(name=st.sampled_from(["line_well", "nonlocal_cut", "radial_well", "two_wells"]),
       zs=st.lists(off_axis, min_size=2, max_size=6, unique=True), data=st.data())
def test_a_point_does_not_depend_on_its_stack(name, zs, data):
    # a point's sigma_min and log|det| in a stack, in a drawn sub-stack in
    # a drawn order, and alone
    model = sylvester_model(name)
    zs = np.array(zs)
    keep = data.draw(st.lists(st.sampled_from(range(zs.size)), min_size=1, unique=True))
    stacks = [(BS.BoundarySystem(model, z=zs), range(zs.size)),
              (BS.BoundarySystem(model, z=zs[keep]), keep)]
    for system, points in stacks:
        sigma, (logabs, _) = system.sigma_min(), system.log_det()
        for position, j in enumerate(points):
            one = BS.BoundarySystem(model, z=zs[j])
            assert _sigma_agrees(sigma[position], one.sigma_min())
            assert abs(logabs[position] - one.log_det()[0]) <= 1e-14


def test_sweeps_build_one_free_action_per_stack(tuned_well, free_radial, monkeypatch):
    # the 300-point scan profile and the 336-point log|det| surface of
    # locate_eigenvalues (the free model: W = 0 gives no Newton seeds) build
    # one source action per stack; their mirrors evaluate nothing new
    built = []
    init = M.FreeResolventAction.__init__

    def counting_init(act, model, k):
        built.append(np.size(k))
        init(act, model, k)

    monkeypatch.setattr(M.FreeResolventAction, "__init__", counting_init)
    model, _ = tuned_well
    BS.sigma_profile(model, np.linspace(0.0, 25.0, 300))   # lam = 0 joins a stack
    assert len(built) <= math.ceil(300 / BS.BATCH_POINTS) == 14
    assert sum(built) == 300
    built.clear()
    assert BS.locate_eigenvalues(free_radial) == []
    assert len(built) <= math.ceil(336 / BS.BATCH_POINTS) == 16
    assert sum(built) == 336


@pytest.mark.parametrize("name", sorted(set(SYLVESTER_CASES) - {"finite", "free"}))
@pytest.mark.parametrize("point", [{"z": 3.0 + 0.7j}, {"lam": 2.0, "side": "-"}])
def test_k_rest_pieces_factor_the_k_ts_block(name, point):
    # the pieces of K_TS cover T once (S is not empty); shared-panel rows
    # are dense block rows, every other piece u @ f has one or two columns
    model = sylvester_model(name)
    system = BS.BoundarySystem(model, **point)
    k = system.k
    s, t = system.support, system.rest
    pieces = system._k_rest()
    covered = np.concatenate([t[:0]] + [rows for rows, _, _ in pieces])
    assert np.array_equal(np.sort(covered), t)
    panel = model.grid.panel_index
    for rows, u, f in pieces:
        if u is None:
            assert np.isin(panel[rows], panel[s]).all()
            value = f
        else:
            assert u.shape[-1] in (1, 2) and not np.isin(panel[rows], panel[s]).any()
            value = u @ f
        assert _rel(value, k[np.ix_(rows, s)]) <= 1e-14


@pytest.mark.parametrize("name", ["radial_well", "line_well", "gaussian_bump", "rank_one"])
@pytest.mark.parametrize("point", [{"z": 3.0 + 0.7j}, {"lam": 2.0, "side": "-"}])
def test_k_blocks_are_slices_of_the_full_k(name, point):
    # one pass of the scaled block (W in the column scale, or applied after
    # for the nonlocal W of rank_one) against the full K of _k_from_action
    model = sylvester_model(name)
    system = BS.BoundarySystem(model, **point)
    k = system.k
    s, t = system.support, system.rest
    assert _rel(system.k_support(), k[np.ix_(s, s)]) <= 1e-14
    if t.size:
        assert _rel(BS._k_block(model, system.action, t, s), k[np.ix_(t, s)]) <= 1e-14
    assert not k[:, t].any()


KERNEL_CASES = [(name, point) for name in sorted(SYLVESTER_CASES)
                for point in ({"z": 3.0 + 0.7j}, {"lam": 2.0, "side": "+"},
                              {"lam": 5.5, "side": "-"})
                if "z" in point or name != "finite"]


@pytest.mark.parametrize("name, point", KERNEL_CASES)
def test_kernel_vector_is_a_singular_vector_of_the_full_order_system(name, point):
    # (sigma, x) lifted from M against the assembled Id + K: a unit vector
    # that Id + K shrinks by sigma, with the sigma of the full-order SVD
    model = sylvester_model(name)
    sigma, x = BS.BoundarySystem(model, **point).kernel_vector()
    id_plus_k = np.eye(model.size) + BS.bs_matrix(model, **point)
    ref = (BS.sigma_min(model, point["lam"], point["side"]) if "lam" in point
           else float(np.linalg.svd(id_plus_k, compute_uv=False)[-1]))
    assert abs(sigma - ref) <= max(1e-12 * ref, 1e-14)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(id_plus_k @ x) - sigma) <= 1e-12
    # the phase rule: the entry of largest modulus is real and positive
    top = x[np.argmax(np.abs(x))]
    assert top.imag == 0.0 and top.real > 0.0


SINGULAR_POINTS = {
    "tuned_1": lambda: (F.tuned_resonant_well(lam=1.0)[0], 1.0),
    "tuned_2.084": lambda: (F.tuned_resonant_well(lam=2.084)[0], 2.084),
    "tuned_3": lambda: (F.tuned_resonant_well(lam=3.0)[0], 3.0),
    "rank_one": lambda: (F.rank_one_embedded_model(lam0=2.0)[0], 2.0),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_POINTS))
def test_kernel_vector_spans_the_full_order_kernel(name):
    model, lam = SINGULAR_POINTS[name]()
    sigma, x = BS.BoundarySystem(model, lam=lam, side="+").kernel_vector()
    assert sigma <= 1e-6
    _, _, vh = np.linalg.svd(np.eye(model.size) + BS.bs_matrix(model, lam=lam, side="+"))
    assert abs(np.vdot(np.conj(vh[-1]), x)) >= 1.0 - 1e-12


def test_resonant_state_phase_is_deterministic(tuned_well):
    model, _ = tuned_well
    first, second = (BS.resonant_state(model, 1.0, "+", detection_threshold=1e-3)
                     for _ in range(2))
    assert np.array_equal(first.psi_samples, second.psi_samples)
    assert np.array_equal(first.phi, second.phi)


@pytest.mark.parametrize("name", sorted(SYLVESTER_CASES))
@pytest.mark.parametrize("z", [3.0 + 0.7j, 1.0 + 1e-3j, -1.5 - 2.0j])
def test_weighted_resolvent_norm_matches_the_full_order_columns(name, z):
    # ||Id - (Id + K)^(-1)||_2 from A and B' against the N x |S| columns of
    # the assembled inverse that carry it
    model = sylvester_model(name)
    support = np.flatnonzero(model.support_mask())
    inv = np.linalg.inv(np.eye(model.size) + BS.bs_matrix(model, z=z))
    ref = np.linalg.norm((np.eye(model.size) - inv)[:, support], 2)
    value = BS.BoundarySystem(model, z=z).weighted_resolvent_norm()
    assert abs(value - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# the stacks of a multi-panel support on the worker thread
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def wide_well():
    """The ``calculus`` bench well: W over 80 of 192 nodes, 5 of 12 panels."""
    return M.radial_model(M.square_well(0.15 - 0.1j, 6.0))


class TestStackPool:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Two usable CPUs on any host, so the pool is made and used."""
        monkeypatch.setattr(BS, "_usable_cpus", lambda: 2)

    def pooled_threads(self, monkeypatch):
        """The names of the threads that run the stacks of pooled calls."""
        names = []
        pooled = BS._pooled

        def recording(values, stack):
            names.append(threading.current_thread().name)
            return pooled(values, stack)

        monkeypatch.setattr(BS, "_pooled", recording)
        return names

    def test_pooled_stacks_equal_the_serial_ones(self, monkeypatch):
        # the same bits on any thread: forms, jump terms, sigma_min
        # profiles and product-form samples, with the pool and capped at 1
        model = wide_well()
        x = model.grid.nodes
        u = M.GaussianBump(center=3.0, width=0.45)(x)
        v = M.GaussianBump(center=3.2, width=0.48, modulation=0.5)(x)
        w = M.GaussianBump(center=3.0, width=0.5)(x)
        zs = np.linspace(0.5, 7.0, 2 * BS.BATCH_POINTS + 5) + 0.05j

        def run():
            cert = S.ac_certificate(model, w=w)
            return [C.stone_form(model, (1.0, 4.0), u, v),
                    (cert.c_u, cert.witness_values, cert.terms),
                    BS.sigma_profile(model, np.linspace(0.5, 6.0, 2 * BS.BATCH_POINTS + 3)),
                    C._batched_forms(model, zs, [(u, v), (v, u)])]

        names = self.pooled_threads(monkeypatch)
        pooled = run()
        assert any(name.startswith("specres-stack") for name in names)
        names.clear()
        with BS.thread_cap(1):
            serial = run()
        assert names == []
        assert pooled[:2] == serial[:2]
        for side in "+-":
            assert np.array_equal(pooled[2][side], serial[2][side])
        assert all(np.array_equal(a, b) for a, b in zip(pooled[3], serial[3]))

    def test_the_pool_is_one_worker_beside_the_caller(self, monkeypatch):
        # two threads at most, the measured configuration, on any host
        monkeypatch.setattr(BS, "_usable_cpus", lambda: 8)
        assert BS._stack_pool()._max_workers == 1
        with BS.thread_cap(1):
            assert BS._stack_pool() is None
        monkeypatch.setattr(BS, "_usable_cpus", lambda: 1)
        assert BS._stack_pool() is None

    def test_the_first_failing_stack_raises_after_every_stack_ends(self):
        # stacks 1 and 3 fail on the worker, stack 3 well after stack 1 and
        # the stacks of the caller: stack 1's exception, once no stack is
        # running
        running, lock, caller = [0], threading.Lock(), threading.current_thread()

        def values(stack):
            index = int(stack[0]) // BS.BATCH_POINTS
            assert (threading.current_thread() is caller) == (index % 2 == 0)
            with lock:
                running[0] += 1
            try:
                time.sleep(0.3 if index == 3 else 0.05)
                if index in (1, 3):
                    raise ValueError(f"stack {index}")
                return stack
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(ValueError, match="stack 1"):
            BS.over_stacks(wide_well(), values, np.arange(5 * BS.BATCH_POINTS))
        assert running[0] == 0

    def test_a_nested_call_runs_serially(self):
        # over_stacks inside a pooled stack runs on that stack's thread
        def outer(stack):
            here, seen = threading.current_thread(), []

            def inner(points):
                seen.append(threading.current_thread())
                return points

            BS.over_stacks(wide_well(), inner, np.arange(3 * BS.BATCH_POINTS))
            assert set(seen) == {here}
            return stack

        result = []
        caller = threading.Thread(target=lambda: result.append(
            BS.over_stacks(wide_well(), outer, np.arange(4 * BS.BATCH_POINTS))), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert np.array_equal(result[0], np.arange(4 * BS.BATCH_POINTS))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self):
        # the child of a process whose pool exists has none of its threads
        model, points = wide_well(), np.arange(3 * BS.BATCH_POINTS)
        assert np.array_equal(BS.over_stacks(model, lambda s: s, points), points)
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(BS.over_stacks(model, lambda s: s, points), points)
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its pooled call")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_one_panel_support_never_submits(self, small_well, monkeypatch):
        def refuse():
            raise AssertionError("a one-panel support asked for the pool")

        monkeypatch.setattr(BS, "_stack_pool", refuse)
        names = self.pooled_threads(monkeypatch)
        BS.sigma_profile(small_well, np.linspace(0.5, 4.0, 3 * BS.BATCH_POINTS))
        BS.locate_eigenvalues(small_well)
        u, v = M.GaussianBump(center=3.0)(small_well.grid.nodes), small_well.c_values
        C._batched_forms(small_well, np.linspace(0.5, 4.0, 50) + 0.1j, [(u, v)])
        assert names == []
