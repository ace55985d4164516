import math

import numpy as np
import pytest

from specres import calculus as C
from specres import families as F
from specres import model as M
from specres import subspaces as S
from specres.model import ModelError
from specres.numerics import gauss_legendre


class TestEvolutionCurves:
    def test_diagonal_decay_rate(self):
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2),
                               np.diag([0.0, -0.5j]))
        curve = S.evolve_norm_curve(model, np.array([0.0, 1.0]),
                                    np.linspace(0.0, 12.0, 121))
        assert curve.classification == "exponential"
        assert curve.rate == pytest.approx(0.5, abs=1e-6)
        assert curve.fit_residual <= 0.05

    def test_jordan_block_polynomial_exponential(self):
        model = F.jordan_block_model(1.0 - 1.0j, size=2)
        # mix eigenvector and generalized eigenvector: (1 + c t) e^{-t}
        curve = S.evolve_norm_curve(model, np.array([0.2, 1.0]),
                                    np.linspace(0.0, 14.0, 141))
        assert curve.classification == "polynomial_exponential"
        assert curve.rate == pytest.approx(1.0, abs=0.05)
        # closed form for the 2x2 Jordan block: e^{-itJ} = e^{-it lam}(Id - it N)
        t = curve.times
        amp = np.abs(np.exp(-1j * (1.0 - 1.0j) * t))
        u = np.array([0.2, 1.0])
        exact = amp * np.sqrt(np.abs(u[0] - 1j * t * u[1]) ** 2 + abs(u[1]) ** 2)
        assert np.max(np.abs(curve.norms - exact)) <= 1e-8 * np.max(exact)

    def test_hermitian_bounded(self, rng):
        h0 = rng.standard_normal((5, 5))
        h0 = (h0 + h0.T) / 2
        model = M.finite_model(h0.astype(complex), np.ones(5), np.zeros((5, 5)))
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        curve = S.evolve_norm_curve(model, u, np.linspace(0.0, 20.0, 101))
        assert curve.classification == "bounded"
        assert np.max(np.abs(curve.norms - curve.norms[0])) <= 1e-9

    def test_growing_truncated(self):
        model = M.finite_model(np.diag([1.0]), np.ones(1), np.diag([5.0j]))
        curve = S.evolve_norm_curve(model, np.ones(1), np.linspace(0.0, 200.0, 201))
        assert curve.classification == "growing"
        assert curve.truncated

    def test_short_time_grid_refused(self):
        # three points fit no decay; a norm-preserving H read "growing" here
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2), np.zeros((2, 2)))
        with pytest.raises(ModelError, match="at least 4 time points"):
            S.evolve_norm_curve(model, np.ones(2), np.linspace(0.0, 10.0, 3))
        curve = S.evolve_norm_curve(model, np.ones(2), np.linspace(0.0, 10.0, 4))
        assert curve.classification == "bounded"


class TestAdsBasis:
    def test_diagonal_model(self):
        model = M.finite_model(np.diag([1.0, 2.0, 3.0]), np.ones(3),
                               np.diag([0.0, -0.5j, 0.7j]))
        plus = S.ads_basis(model, "+")
        minus = S.ads_basis(model, "-")
        assert plus.dim == 1 and minus.dim == 1
        assert abs(plus.vectors[1, 0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(minus.vectors[2, 0]) == pytest.approx(1.0, abs=1e-10)

    def test_seeded_random_models(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            model, signs = F.random_spectrum_model(rng, size=8)
            basis = S.ads_basis(model, "+")
            assert basis.dim == int(np.sum(signs < 0))
            assert float(np.max(basis.principal_angles)) <= 1e-6

    def test_decay_rates_match_imaginary_parts(self):
        # each generalized eigenvector with Im(lambda) < 0 decays at least
        # at rate |Im(lambda)|
        rng = np.random.default_rng(2)
        model, _ = F.random_spectrum_model(rng, size=8)
        lam, vecs = np.linalg.eig(model.h)
        checked = 0
        for j in range(lam.size):
            if lam[j].imag >= 0:
                continue
            u = vecs[:, j] / np.linalg.norm(vecs[:, j])
            curve = S.evolve_norm_curve(model, u, np.linspace(0.0, 6.0, 121))
            assert curve.classification == "exponential"
            assert curve.rate >= abs(lam[j].imag) - 1e-6
            checked += 1
        assert checked >= 1

    def test_real_spectrum_empty(self, rng):
        h0 = rng.standard_normal((5, 5))
        h0 = (h0 + h0.T) / 2
        model = M.finite_model(h0.astype(complex), np.ones(5), np.zeros((5, 5)))
        for sign in ("+", "-"):
            basis = S.ads_basis(model, sign)
            assert basis.dim == 0
            assert not basis.diagnostics["decaying_found"]

    def test_near_axis_ambiguity_flagged(self):
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2),
                               np.diag([0.0, -1e-9j]))
        with pytest.raises(ModelError, match="ambiguous"):
            S.ads_basis(model, "+")


class TestACCertificates:
    def test_finite_refuses_nonzero(self, rng):
        model, _ = F.random_spectrum_model(rng, size=6)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        with pytest.raises(S.CertificateRefused):
            S.ac_certificate(model, u=u)

    def test_zero_vector_trivial(self, rng):
        model, _ = F.random_spectrum_model(rng, size=6)
        cert = S.ac_certificate(model, u=np.zeros(6))
        assert cert.c_u == 0.0

    def test_free_gaussian_matches_oracle(self, free_radial):
        w_prof = M.GaussianBump(center=3.0, width=0.5)
        w = w_prof(free_radial.grid.nodes)
        witnesses = [M.GaussianBump(center=c, width=0.6)(free_radial.grid.nodes)
                     for c in (2.0, 3.5, 5.0)]
        cert = S.ac_certificate(free_radial, w=w, witnesses=witnesses)
        # free-evolution oracle: int |<e^{-itH0} Cw, v>|^2 dt
        #   = (4/pi) int |(Cw)~(k)|^2 |v~(k)|^2 dk / k
        g = free_radial.grid
        cw = free_radial.c_values * w
        rule = gauss_legendre(400, 1e-4, 9.0)
        tcw = C.mode_transform(free_radial, cw, rule.nodes)
        vals = []
        for v in witnesses:
            tv = C.mode_transform(free_radial, v, rule.nodes)
            num = (4.0 / math.pi) * float(
                rule.weights @ (np.abs(tcw) ** 2 * np.abs(tv) ** 2 / rule.nodes))
            vals.append(num / abs(C.grid_inner(free_radial, v, v)))
        oracle = max(vals)
        assert cert.c_u == pytest.approx(oracle, rel=0.10)

    def test_five_terms_reported(self, free_radial):
        w = M.GaussianBump(center=3.0, width=0.5)(free_radial.grid.nodes)
        cert = S.ac_certificate(free_radial, w=w)
        assert set(cert.terms) == {"free", "second_minus", "second_plus",
                                   "third_minus", "third_plus"}
        assert cert.terms["free"] > 0
        # V = 0: all interaction terms vanish
        for name in ("second_minus", "second_plus", "third_minus", "third_plus"):
            assert cert.terms[name] <= 1e-20

    def test_scale_quadratic(self, free_radial):
        w = M.GaussianBump(center=3.0, width=0.5)(free_radial.grid.nodes)
        witnesses = [M.GaussianBump(center=2.5, width=0.6)(free_radial.grid.nodes)]
        c1 = S.ac_certificate(free_radial, w=w, witnesses=witnesses).c_u
        c2 = S.ac_certificate(free_radial, w=2.0 * w, witnesses=witnesses).c_u
        assert c2 == pytest.approx(4.0 * c1, rel=1e-10)

    def test_witness_monotone(self, free_radial):
        w = M.GaussianBump(center=3.0, width=0.5)(free_radial.grid.nodes)
        base = [M.GaussianBump(center=2.5, width=0.6)(free_radial.grid.nodes)]
        more = base + [M.GaussianBump(center=4.0, width=0.5)(free_radial.grid.nodes)]
        c_small = S.ac_certificate(free_radial, w=w, witnesses=base).c_u
        c_big = S.ac_certificate(free_radial, w=w, witnesses=more).c_u
        assert c_big >= c_small - 1e-15

    def test_missing_dense_class_datum(self, free_radial):
        with pytest.raises(ModelError, match="dense"):
            S.ac_certificate(free_radial)

    def test_small_well_interaction_terms(self, small_well):
        w = M.GaussianBump(center=3.0, width=0.5)(small_well.grid.nodes)
        cert = S.ac_certificate(small_well, w=w)
        assert cert.c_u > 0
        assert cert.terms["third_plus"] > 0

    def test_witness_pairing_matches_the_node_by_node_loop(self, small_well):
        # the certificate stacks its nodes and pairs each witness with every
        # jump term in one product; the reference computes the terms one
        # node at a time and pairs them one term at a time
        g = small_well.grid
        w = M.GaussianBump(center=3.0, width=0.5)(g.nodes)
        witnesses = [M.GaussianBump(center=c, width=0.6)(g.nodes) for c in (2.0, 3.5)]
        cert = S.ac_certificate(small_well, w=w, witnesses=witnesses)
        rule = gauss_legendre(cert.diagnostics["n_k"], 1e-3,
                              math.sqrt(cert.diagnostics["lam_max"]))
        cw = small_well.c_values * w
        names = ["free", "second_minus", "second_plus", "third_minus", "third_plus"]
        rows = [S._jump_terms(small_well, np.array([k * k]), cw)[0] for k in rule.nodes]
        # the certificate's stacked terms are the node-by-node terms
        stacked = S._jump_terms(small_well, rule.nodes**2, cw)
        assert stacked.shape == (rule.nodes.size, len(names), g.size)
        for got, row in zip(stacked, rows):
            assert np.max(np.abs(got - row)) <= 1e-13 * np.max(np.abs(row))
        values, terms = [], dict.fromkeys(names, 0.0)
        for v in witnesses:
            nv2 = abs(C.grid_inner(small_well, v, v))
            total, per_term = 0.0, dict.fromkeys(names, 0.0)
            for k, wk, row in zip(rule.nodes, rule.weights, rows):
                pairs = [C.grid_inner(small_well, t, v) for t in row]
                wgt = wk * 2.0 * k / (2.0 * math.pi)
                total += wgt * abs(sum(pairs)) ** 2
                for name, p in zip(names, pairs):
                    per_term[name] += wgt * abs(p) ** 2
            values.append(total / nv2)
            for name in names:
                terms[name] = max(terms[name], per_term[name] / nv2)
        assert cert.witness_values == pytest.approx(values, rel=1e-12)
        for name in names:
            assert cert.terms[name] == pytest.approx(terms[name], rel=1e-12)


class TestACEquality:
    def test_diag_model_all_refused(self):
        model = M.finite_model(np.diag([1.0, 2.0, 3.0]), np.ones(3),
                               np.diag([0.0, -0.3j, 0.4j]))
        rep = S.ac_equality_check(model)
        assert rep["all_refused"]

    def test_isotropic_eigenvector_flagged(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        n = np.outer(v, v)
        h = 2.0 * np.eye(2) + n
        h0 = (h + h.conj().T) / 2
        model = M.finite_model(h0, np.ones(2), h - h0)
        rep = S.ac_equality_check(model)
        assert rep["pathological_eigenvectors"]
        entry = rep["pathological_eigenvectors"][0]
        assert entry["bilinear_self_pairing"] <= 1e-6
        assert entry["orthogonal_to_adjoint_eigvec"] <= 1e-6

    def test_hermitian_collapse(self, rng):
        # self-adjoint case: H_p(H*) = H_p(H), no pathologies
        h0 = rng.standard_normal((4, 4))
        h0 = (h0 + h0.T) / 2
        model = M.finite_model(h0.astype(complex), np.ones(4), np.zeros((4, 4)))
        rep = S.ac_equality_check(model)
        assert rep["all_refused"]
        assert rep["pathological_eigenvectors"] == []


class TestJDecomposition:
    @pytest.mark.parametrize("size,n_real", [(6, 2), (8, 2), (10, 4)])
    def test_seeded_complex_symmetric(self, size, n_real):
        rng = np.random.default_rng(size)
        model = F.complex_symmetric_model(rng, size=size, n_real=n_real)
        rep = S.j_decomposition_report(model)
        assert rep["complete"]
        assert rep["j_orthogonal"]
        assert rep["completeness_sigma_min"] >= 1e-8
        assert rep["max_cross_bilinear"] <= 1e-8
        dims = rep["dimensions"]
        assert dims["bound"] == n_real
        assert dims["ads_plus"] + dims["ads_minus"] + dims["bound"] == size

    def test_hermitian_collapse(self, rng):
        h0 = rng.standard_normal((5, 5))
        h0 = (h0 + h0.T) / 2
        model = M.finite_model(h0.astype(complex), np.ones(5), np.zeros((5, 5)))
        rep = S.j_decomposition_report(model)
        assert rep["dimensions"] == {"ads_plus": 0, "ads_minus": 0, "bound": 5}
        assert rep["complete"]

    def test_real_jordan_block_in_bound_component(self):
        # complex-symmetric realization of a Jordan block at a real
        # eigenvalue: N = [[1, i], [i, -1]]/2 is symmetric and nilpotent;
        # the J-form on the full generalized eigenspace is nondegenerate
        n = 0.5 * np.array([[1.0, 1.0j], [1.0j, -1.0]])
        h = 2.0 * np.eye(2) + n
        h0 = (h + h.conj().T) / 2
        model = M.finite_model(h0, np.ones(2), h - h0)
        assert np.linalg.norm(model.h - model.h.T) <= 1e-14
        rep = S.j_decomposition_report(model)
        assert rep["dimensions"]["bound"] == 2
        assert rep["complete"]

    def test_non_symmetric_refused(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h0 = np.zeros((4, 4))
        model = M.finite_model(h0, np.ones(4), a)
        with pytest.raises(ModelError, match="symmetric"):
            S.j_decomposition_report(model)
