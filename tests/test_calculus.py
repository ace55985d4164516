import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specres import birman_schwinger as BS
from specres import calculus as C
from specres import families as F
from specres import model as M
from specres import subspaces as S
from specres.model import AdmissibilityError, ModelError
from specres.numerics import LimitSequence, extrapolate_to_zero, gauss_legendre


# profiles vanish at r = 0 to machine precision: Dirichlet-domain
# membership matters wherever (H - lam) and R_H(z0) are interchanged
U_PROFILE = M.GaussianBump(center=3.0, width=0.45)
V_PROFILE = M.GaussianBump(center=3.2, width=0.48, modulation=0.5)


def pair_for(model):
    """Sample the standard test profiles on this model's own grid."""
    return U_PROFILE(model.grid.nodes), V_PROFILE(model.grid.nodes)


# a radial well, a line well, a nonlocal W and W = 0
FORM_MODELS = {
    "small_well": None,   # the conftest.py fixture
    "line_well": lambda: M.line_model(M.square_well(-3.0 - 1.0j)),
    "rank_one": lambda: F.rank_one_embedded_model()[0],
    "free": lambda: M.radial_model(M.PotentialSpec()),
}


@functools.lru_cache(maxsize=None)
def form_model(name):
    return FORM_MODELS[name]()


# the stacked correction pairing: W over 5 panels (A factorized through
# them), inside one panel (dense A), the line backend and a nonlocal W
PAIRING_MODELS = {
    "wide_well": lambda: M.radial_model(M.square_well(0.15 - 0.1j, 6.0)),
    "one_panel_well": F.small_complex_well,
    "line_well": FORM_MODELS["line_well"],
    "rank_one": FORM_MODELS["rank_one"],
}


@functools.lru_cache(maxsize=None)
def pairing_model(name):
    return PAIRING_MODELS[name]()


def one_point_pairing(model, lam, side, u, v):
    """<C R0(l -/+ i0) u, W (Id + K(l, +/-))^(-1) C R0(l +/- i0) v> from
    fresh systems at the one point lam, each side's R0 its own action's."""
    plus = BS.BoundarySystem(model, lam=lam, side="+")
    systems = {"+": plus, "-": plus.mirror()}
    system, other = systems[side], systems["-" if side == "+" else "+"]
    c = model.c_values
    left = c * other.action.apply(u)
    wsol = system.w_solve(c * system.action.apply(v))
    return complex(np.sum(model.grid.weights * np.conj(left) * wsol))


# fixed draws and no example database: tier-1 runs the same points every time
form_settings = settings(deadline=None, derandomize=True, database=None, max_examples=15)


@pytest.fixture(scope="module")
def test_pair(free_radial):
    return pair_for(free_radial)


def smoothed_form(model, interval, u, v, f=None, n_lam=48, order=3):
    """Direct smoothed Stone integral, extrapolated: the cross-check path."""
    eps = np.geomspace(0.1, 0.1 / 2**4, 5)
    rule = gauss_legendre(n_lam, *interval)
    fw = np.ones(rule.nodes.size, dtype=complex)
    if f is not None:
        fw = np.asarray([f(l) for l in rule.nodes], dtype=complex)
    vals = []
    for e in eps:
        row = []
        for lam in rule.nodes:
            plus, _ = BS.BoundarySystem(model, z=lam + 1j * e).resolvent_apply(v)
            minus, _ = BS.BoundarySystem(model, z=lam - 1j * e).resolvent_apply(v)
            row.append(C.grid_inner(model, u, plus - minus))
        vals.append((rule.weights * fw) @ np.asarray(row) / (2j * np.pi))
    ext, _, _ = extrapolate_to_zero(LimitSequence(eps, vals, order=order))
    return ext


class TestFreeForms:
    def test_parseval(self, free_radial, test_pair):
        u, v = test_pair
        full = C.free_form(free_radial, (0.0, 150.0), u, v, n_k=520)
        assert abs(full - C.grid_inner(free_radial, u, v)) <= 1e-8

    def test_line_parseval(self, line_free):
        x = line_free.grid.nodes
        u = np.exp(-0.5 * (x - 1.0) ** 2) * np.exp(0.4j * x)
        v = np.exp(-0.5 * (x + 0.5) ** 2)
        full = C.free_form(line_free, (0.0, 80.0), u, v, n_k=400)
        assert abs(full - C.grid_inner(line_free, u, v)) <= 1e-8

    def test_empty_interval(self, free_radial, test_pair):
        u, v = test_pair
        assert C.stone_form(free_radial, (2.0, 2.0), u, v) == 0.0

    def test_stone_on_free_model_is_spectral_measure(self, free_radial, test_pair):
        u, v = test_pair
        val = C.stone_form(free_radial, (1.0, 4.0), u, v)
        oracle = C.free_form(free_radial, (1.0, 4.0), u, v)
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_free_apply_consistent(self, free_radial, test_pair):
        u, v = test_pair
        w = C.stone_apply(free_radial, (1.0, 4.0), v)
        assert abs(C.grid_inner(free_radial, u, w)
                   - C.stone_form(free_radial, (1.0, 4.0), u, v)) <= 1e-10


class TestStoneForms:
    def test_matches_smoothed_direct(self, small_well):
        u, v = pair_for(small_well)
        interval = (1.0, 4.0)
        form = C.stone_form(small_well, interval, u, v)
        direct = smoothed_form(small_well, interval, u, v)
        assert abs(form - direct) <= 2e-3 * max(abs(form), 1.0)

    def test_interval_with_singularity_refused(self, tuned_well):
        model, _ = tuned_well
        u, v = pair_for(model)
        with pytest.raises(AdmissibilityError):
            C.stone_form(model, (0.5, 1.5), u, v)

    def test_nonlocal_w_singularity_refused(self):
        # zero potential, rank-one W with an embedded eigenvalue at lam0 = 2
        model, _, _ = F.rank_one_embedded_model(lam0=2.0)
        u, _ = pair_for(model)
        with pytest.raises(AdmissibilityError):
            C.stone_form(model, (1.0, 3.3), u, u)
        with pytest.raises(AdmissibilityError):
            C.functional_calculus_form(model, (1.0, 3.3), lambda lam: 1.0, u, u)

    def test_singularity_between_probes_refused(self):
        # on (1, 3) the probes next to lam0 = 2 read sigma_min = 0.016 > REGULAR_FLOOR
        model, _, _ = F.rank_one_embedded_model(lam0=2.0)
        u, _ = pair_for(model)
        with pytest.raises(AdmissibilityError):
            C.stone_form(model, (1.0, 3.0), u, u)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="the singularity probe refines interior minima only, so a zero "
                              "in an end gap passes; ROADMAP item 3 (the zeros of det A(k)) "
                              "would count it")
    def test_a_zero_in_an_end_gap_is_refused(self):
        # rank_one_embedded_model has a zero at lam0 = 2, inside the first
        # probe gap of (1.96, 4.0); (1.95, 4.0) puts a probe near it and is refused
        with pytest.raises(AdmissibilityError):
            C._assert_singularity_free(F.rank_one_embedded_model()[0], (1.96, 4.0), {})

    def test_interval_beyond_the_resolved_energy_refused(self, small_well):
        # the singularity probe refuses what a scan of the interval refuses
        u, v = pair_for(small_well)
        top = small_well.max_scan_energy()
        with pytest.raises(AdmissibilityError, match="grid resolution"):
            C.stone_form(small_well, (1.0, 1.5 * top), u, v)

    def test_stone_apply_pairs_to_the_stone_form(self, small_well):
        u, v = pair_for(small_well)
        applied = C.grid_inner(small_well, u, C.stone_apply(small_well, (1.0, 4.0), v))
        form = C.stone_form(small_well, (1.0, 4.0), u, v)
        assert abs(applied - form) <= 1e-10 * abs(form)

    def test_idempotency_small_well(self, small_well):
        u, v = pair_for(small_well)
        interval = (1.0, 4.0)
        single = C.stone_form(small_well, interval, u, v)
        double = C.spectral_product_form(small_well, interval, interval, u, v)
        assert abs(double - single) <= 2e-3

    def test_product_is_intersection(self, small_well):
        u, v = pair_for(small_well)
        prod = C.spectral_product_form(small_well, (1.0, 4.0), (2.0, 6.0), u, v)
        inter = C.stone_form(small_well, (2.0, 4.0), u, v)
        assert abs(prod - inter) <= 2e-3

    def test_disjoint_product_vanishes(self, small_well):
        u, v = pair_for(small_well)
        prod = C.spectral_product_form(small_well, (1.0, 2.0), (3.0, 5.0), u, v)
        assert abs(prod) <= 2e-3

    @pytest.mark.parametrize("name", sorted(FORM_MODELS))
    def test_batched_forms_match_separate_resolvent_applications(self, name, small_well):
        # the mirror pair of `specres verify` (suite stone) against one
        # resolvent application at z and one at conj z, for a stack of one
        # z and for a stack of three
        model = small_well if name == "small_well" else form_model(name)
        u, v = pair_for(model)
        zs = np.array([2.3 + 0.1j, 1.0 + 0.00625j, -0.5 + 2.0j])
        for z in (*zs[:, None], zs):
            fp, fm = C._batched_forms(model, z, [(u, v), (v, u)])
            for j, (a, b) in enumerate([(u, v), (v, u)]):
                for got, points in ((fp[..., j], z), (fm[..., j], np.conj(z))):
                    ref = [C.grid_inner(model, a,
                                        BS.BoundarySystem(model, z=p).resolvent_apply(b)[0])
                           for p in np.atleast_1d(points)]
                    assert np.shape(got) == np.shape(points)
                    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @form_settings
    @given(zs=st.lists(st.builds(complex, st.floats(0.5, 7.0), st.floats(0.02, 0.25)),
                       min_size=2, max_size=2 * BS.BATCH_POINTS + 3),
           cut=st.integers(1, 2 * BS.BATCH_POINTS))
    def test_forms_do_not_depend_on_the_batch(self, small_well, zs, cut):
        # a point's forms are the same alone, in any stack and at any
        # position of one
        u, v = pair_for(small_well)
        zs = np.array(zs)
        cut = min(cut, zs.size - 1)
        whole = C._batched_forms(small_well, zs, [(u, v)])
        parts = [C._batched_forms(small_well, zs[:cut], [(u, v)]),
                 C._batched_forms(small_well, zs[cut:][::-1], [(u, v)])]
        alone = C._batched_forms(small_well, zs[-1:], [(u, v)])
        for side in range(2):
            split = np.concatenate([parts[0][side], parts[1][side][::-1]])
            assert np.all(np.abs(whole[side] - split) <= 1e-14 * np.abs(split))
            assert np.all(np.abs(whole[side][-1] - alone[side]) <= 1e-14 * np.abs(alone[side]))

    def test_product_forms_stack_their_spectral_points(self, small_well, monkeypatch):
        # 4 eps x 110 sample points, in stacks of at most BATCH_POINTS: one
        # free action per stack (its mirror is not built, it is conjugated)
        built = []
        init = M.FreeResolventAction.__init__

        def counting_init(act, model, k):
            built.append(np.size(k))
            init(act, model, k)

        monkeypatch.setattr(M.FreeResolventAction, "__init__", counting_init)
        u, v = pair_for(small_well)
        C.stone_product_forms(small_well, (1.0, 4.0), (2.0, 6.0), [(u, v)])
        assert len(built) <= 4 * math.ceil(110 / BS.BATCH_POINTS)
        assert sum(built) == 4 * 110 and max(built) <= BS.BATCH_POINTS


class TestStackedPairing:
    @pytest.mark.parametrize("name", sorted(PAIRING_MODELS))
    @form_settings
    @given(lams=st.lists(st.floats(0.3, 9.0), min_size=1, max_size=BS.BATCH_POINTS + 5))
    def test_a_stack_pairs_as_its_points_do_alone(self, name, lams):
        # both sides of every point of the stack, bit for bit, across the
        # cut into stacks of at most BATCH_POINTS
        model = pairing_model(name)
        u, v = pair_for(model)
        lams = np.array(lams)
        got = C._correction_pairing(model, lams, u, v, {})
        assert got.shape == (lams.size, 2)
        for i, lam in enumerate(lams):
            for j, side in enumerate("+-"):
                assert got[i, j] == one_point_pairing(model, lam, side, u, v)


class TestFunctionalCalculus:
    def test_constant_reduces_to_stone(self, small_well):
        u, v = pair_for(small_well)
        interval = (1.0, 4.0)
        a = C.functional_calculus_form(small_well, interval, lambda l: 1.0, u, v)
        b = C.stone_form(small_well, interval, u, v)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_identity_function_free_oracle(self, free_radial, test_pair):
        # f(l) = l on V = 0: <u, H0 1_I v> via the k-space measure
        u, v = test_pair
        interval = (1.0, 4.0)
        val = C.functional_calculus_form(free_radial, interval, lambda l: l, u, v)
        rule = gauss_legendre(200, 1.0, 2.0)
        tu = C.mode_transform(free_radial, u, rule.nodes)
        tv = C.mode_transform(free_radial, v, rule.nodes)
        oracle = (2.0 / math.pi) * (rule.weights @ (np.conj(tu) * tv * rule.nodes**2))
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_exponential_group_property(self, small_well, test_pair):
        # e^{i t l} weights: t = 1 applied twice against t = 2 once, at
        # form level through the product machinery
        u, v = test_pair
        interval = (1.0, 4.0)
        f1 = lambda l: np.exp(1j * l)
        f2 = lambda l: np.exp(2j * l)
        twice = C.spectral_product_form(small_well, interval, interval, u, v,
                                        f1=f1, f2=f1)
        once = C.functional_calculus_form(small_well, interval, f2, u, v)
        assert abs(twice - once) <= 2e-3


class TestRegularizedCalculus:
    def test_trivial_h_on_regular_window(self, small_well):
        u, v = pair_for(small_well)
        interval = (1.0, 4.0)
        rf = C.RegularizedFunction(h=lambda l: 1.0, h_poles=())
        val, info = C.regularized_calculus_form(small_well, interval, rf, u, v)
        plain = C.stone_form(small_well, interval, u, v)
        assert abs(val - plain) <= 1e-10 * max(1.0, abs(plain))

    def test_regularizer_tames_singularity(self, tuned_well):
        model, _ = tuned_well
        u, v = pair_for(model)
        z0 = complex(1.0, 3.0)
        rf = C.RegularizedFunction(h=lambda l: (l - 1.0) / (l - z0), h_poles=(z0,))
        val, info = C.regularized_calculus_form(model, (0.5, 1.5), rf, u, v)
        assert np.isfinite(abs(val))
        assert info["bound_constant"] < 1e3

    def test_missing_order_blows_up(self, tuned_well):
        model, _ = tuned_well
        u, v = pair_for(model)
        rf = C.RegularizedFunction(h=lambda l: 1.0, h_poles=())
        with pytest.raises(C.IntegrandBlowupError):
            C.regularized_calculus_form(model, (0.5, 1.5), rf, u, v)

    def test_pole_in_strip_refused(self):
        rf = C.RegularizedFunction(h=lambda l: 1.0 / (l - 2.0), h_poles=(2.0 + 0.0j,))
        with pytest.raises(ModelError):
            rf.check_admissible((1.0, 4.0))

    def test_norm_bound_stable_over_unimodular_family(self, small_well):
        u, v = pair_for(small_well)
        interval = (1.0, 4.0)
        rf0 = C.RegularizedFunction(h=lambda l: 1.0, h_poles=())
        consts = []
        cache = {}
        for theta in (0.0, 0.35, 0.8, 1.4):
            rf = C.RegularizedFunction(h=lambda l: 1.0, h_poles=(),
                                       g=lambda l, th=theta: np.exp(1j * th * l))
            _, info = C.regularized_calculus_form(small_well, interval, rf, u, v,
                                                  cache=cache)
            consts.append(info["bound_constant"])
        # certified bound constant c: the attained ratios stay within the
        # sampled family's spread budget
        assert (max(consts) - min(consts)) / max(consts) <= 0.10 or \
            max(consts) <= 1.0  # small absolute constants trivially satisfy it


class TestRegularizerApply:
    def test_trivial(self, small_well):
        _, v = pair_for(small_well)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        out = C.regularizer_apply(small_well, reg, v)
        assert np.allclose(out, v)

    @pytest.mark.parametrize("singularities, nu_infinity", [
        (((1.3, 1),), 0),
        (((1.3, 2),), 0),
        (((1.3, 1),), 1),
        (((1.3, 1), (-0.4, 1)), 0),
    ], ids=["simple", "double", "nu_infinity", "two_zeros"])
    def test_finite_eigendecomposition_oracle(self, rng, singularities, nu_infinity):
        h0 = rng.standard_normal((6, 6))
        h0 = (h0 + h0.T) / 2
        w = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        model = M.finite_model(h0.astype(complex), np.ones(6), w)
        reg = C.Regularizer(complex(0.5, 2.0), singularities, nu_infinity)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = C.regularizer_apply(model, reg, v)
        lam, vecs = np.linalg.eig(model.h)
        coef = np.linalg.solve(vecs, v)
        oracle = vecs @ (np.array([reg(l) for l in lam]) * coef)
        assert np.linalg.norm(out - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_annihilates_generalized_eigenvector(self):
        # Jordan block at a real eigenvalue: nu >= m_lambda makes r(H)
        # vanish on the whole generalized eigenspace
        model = F.jordan_block_model(2.0 + 0.0j, size=2)
        reg = C.Regularizer(complex(1.0, 2.0), ((2.0, 2),), 0)
        for vec in (np.array([1.0, 0.0]), np.array([0.3, 1.0])):
            out = C.regularizer_apply(model, reg, vec.astype(complex))
            assert np.linalg.norm(out) <= 1e-8

    def test_applications_commute(self, small_well):
        # on D(H) (V_PROFILE vanishes at r = 0 to 2e-10) r(H) v = R_H(z0) (H - lam) v,
        # with H v = -v'' + V v from the closed-form v'' of the profile
        prof, model = V_PROFILE, small_well
        x = model.grid.nodes
        t = (x - prof.center) / prof.width
        g = prof.amplitude * np.exp(-0.5 * t * t)
        mu = prof.modulation
        d2 = np.exp(1j * mu * x) * ((t * t - 1.0) / prof.width**2 * g
                                    - 2j * mu * t / prof.width * g - mu**2 * g)
        v = prof(x)
        assert abs(v[0]) <= 1e-9
        reg = C.Regularizer(complex(1.0, 3.0), ((2.0, 1),), 0)
        a = C.regularizer_apply(model, reg, v)
        hv = -d2 + model.c_values * model.apply_w(model.c_values * v)
        b, _ = BS.BoundarySystem(model, z=reg.z0).resolvent_apply(hv - 2.0 * v)
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-8

    def test_z0_validated(self, small_well):
        with pytest.raises(ModelError):
            C.Regularizer(complex(1.0, 0.0), (), 0)


class TestResolution:
    def test_free_model_stone_completeness(self, free_radial, test_pair):
        u, v = test_pair
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        rows = C.resolution_residual(free_radial, reg, [(u, v)], eigenvalues=[])
        assert rows[0]["residual"] <= 1e-3

    def test_small_well_full_pipeline(self, small_well):
        u, v = pair_for(small_well)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        rows = C.resolution_residual(small_well, reg, [(u, v)])
        assert rows[0]["residual"] <= 2e-3

    def test_singular_model_with_regularizer(self, tuned_well):
        model, _ = tuned_well
        u, v = pair_for(model)
        reports = BS.scan_singularities(model, np.linspace(0.3, 3.0, 101))
        lam_star = reports[0].lam
        reg = C.Regularizer(complex(1.0, 3.0), ((lam_star, 1),), 0)
        rows = C.resolution_residual(model, reg, [(u, v)])
        assert rows[0]["residual"] <= 5e-3

    @pytest.mark.parametrize("nu", [1, 2])
    def test_zero_at_a_regular_point_off_the_domain_of_h(self, small_well, nu):
        # the vectors of `specres verify resolution`: v(0) != 0 puts v off
        # D(H), where r(H) v still holds through R_H(z0) alone
        u = M.GaussianBump(center=3.0, width=0.6)(small_well.grid.nodes)
        v = M.GaussianBump(center=2.5, width=0.8)(small_well.grid.nodes)
        assert abs(v[0]) >= 1e-3
        reg = C.Regularizer(complex(1.0, 3.0), ((1.0, nu),), 0)
        rows = C.resolution_residual(small_well, reg, [(u, v)])
        assert rows[0]["residual"] <= 1e-8

    def test_default_search_finds_the_bound_state_left_of_the_default_box(self, tuned_well):
        # Re V = -21.26 on the tuned well; its bound state -14.72 + 1.90i lies
        # left of Re z = -10, where the default locate_eigenvalues box ends
        model, _ = tuned_well
        u, v = pair_for(model)
        reg = C.Regularizer(complex(1.0, 3.0), ((1.0, 1),), 0)
        rows = C.resolution_residual(model, reg, [(u, v)])
        assert rows[0]["residual"] <= 1e-8

    def test_finite_model_is_refused(self):
        model = F.jordan_block_model(2.0 + 0.0j, size=2)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        with pytest.raises(ModelError, match="continuum"):
            C.resolution_residual(model, reg, [(np.ones(2), np.ones(2))])

    def test_singular_model_unregularized_blows_up(self, tuned_well):
        model, _ = tuned_well
        u, v = pair_for(model)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        with pytest.raises(C.IntegrandBlowupError):
            C.resolution_residual(model, reg, [(u, v)], eigenvalues=[])

    def test_residual_decreases_under_refinement(self, small_well):
        u, v = pair_for(small_well)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        coarse = C.resolution_residual(small_well, reg, [(u, v)], rtol=3e-3,
                                       lam_max=60.0)[0]["residual"]
        fine = C.resolution_residual(small_well, reg, [(u, v)], rtol=1e-4,
                                     lam_max=100.0)[0]["residual"]
        assert fine <= coarse * 1.5 + 1e-6


class TestRieszProjection:
    def test_diagonal(self):
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2), np.zeros((2, 2)))
        proj = C.riesz_projection(model, 1.0, 0.3)
        assert np.allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert proj.rank == 1

    def test_jordan_block_full_projection(self):
        model = F.jordan_block_model(1.0 - 1.0j, size=2)
        proj = C.riesz_projection(model, 1.0 - 1.0j, 0.4)
        assert np.allclose(proj.matrix, np.eye(2), atol=1e-10)
        assert proj.rank == 2

    def test_enclosure_violation(self):
        model = M.finite_model(np.diag([1.0, 1.5]), np.ones(2), np.zeros((2, 2)))
        with pytest.raises(ModelError):
            C.riesz_projection(model, 1.25, 0.4)

    def test_continuum_complex_well_trace(self):
        model = M.radial_model(M.square_well(-5.0 - 0.5j, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-3.0, 3.0))
        z = roots[0]["z"]
        proj = C.riesz_projection(model, z, 0.15)
        assert abs(proj.diagnostics["trace"] - 1.0) <= 1e-6
        assert proj.rank == 1

    def test_continuum_projection_idempotent_on_vectors(self):
        model = M.radial_model(M.square_well(-5.0 - 0.5j, 1.0), s=1.5, length=14.0)
        roots = BS.locate_eigenvalues(model, re_range=(-6.0, 2.0), im_range=(-3.0, 3.0))
        z = roots[0]["z"]
        proj = C.riesz_projection(model, z, 0.15)
        v = M.GaussianBump(center=1.5, width=0.6)(model.grid.nodes)
        pv = proj.action(v)
        ppv = proj.action(pv)
        rel = np.linalg.norm(ppv - pv) / np.linalg.norm(pv)
        assert rel <= 1e-3


class TestEmbeddedProjection:
    def test_simple_real_eigenvalue(self, rng):
        model = F.complex_symmetric_model(rng, size=5, n_real=1)
        lam = min(np.linalg.eigvals(model.h), key=lambda z: abs(z.imag))
        _, vecs = np.linalg.eig(model.h)
        idx = int(np.argmin(np.abs(np.linalg.eigvals(model.h) - lam)))
        phi = vecs[:, idx]
        proj = C.embedded_projection(model, lam, phi)
        assert proj.rank == 1
        assert proj.idempotency <= 1e-10
        assert proj.commutation <= 1e-8

    def test_isotropic_vector_refused(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        n = np.outer(v, v)  # symmetric nilpotent: isotropic eigenvector
        h = 2.0 * np.eye(2) + n
        h0 = (h + h.conj().T) / 2
        model = M.finite_model(h0, np.ones(2), h - h0)
        with pytest.raises(ModelError, match="degenerate|isotropic"):
            C.embedded_projection(model, 2.0, v)

    def test_distinct_eigenvalues_orthogonal(self, rng):
        model = F.complex_symmetric_model(rng, size=6, n_real=2)
        lam, vecs = np.linalg.eig(model.h)
        real_idx = [i for i in range(6) if abs(lam[i].imag) < 1e-9]
        assert len(real_idx) == 2
        p1 = C.embedded_projection(model, lam[real_idx[0]], vecs[:, real_idx[0]])
        p2 = C.embedded_projection(model, lam[real_idx[1]], vecs[:, real_idx[1]])
        assert np.linalg.norm(p1.matrix @ p2.matrix, 2) <= 1e-10

    def test_adjoint_correspondence(self, rng):
        model = F.complex_symmetric_model(rng, size=5, n_real=1)
        lam, vecs = np.linalg.eig(model.h)
        idx = int(np.argmin(np.abs(lam.imag)))
        proj = C.embedded_projection(model, lam[idx], vecs[:, idx])
        # Pi(H)* = Pi(H*) with the conjugate eigenbasis
        hstar_vecs = np.conj(vecs[:, idx])
        pi_star_direct = np.outer(hstar_vecs, hstar_vecs)
        pi_star_direct /= np.trace(pi_star_direct)  # J-normalized rank one
        assert np.linalg.norm(proj.matrix.conj().T - pi_star_direct, 2) <= 1e-8


class TestDunford:
    def test_cauchy_resolvent(self):
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2),
                               np.diag([0.0, -1.0j]))
        z0 = complex(0.0, 4.0)
        reg = C.Regularizer(z0, (), 0)
        resid, quad, direct = C.dunford_contour_check(model, reg)
        h = model.h
        oracle = np.linalg.solve(h - z0 * np.eye(2), np.eye(2))
        assert np.linalg.norm(quad - oracle, 2) <= 1e-8
        assert resid <= 1e-8

    def test_random_model_degree_two(self, rng):
        h0 = rng.standard_normal((6, 6))
        h0 = (h0 + h0.T) / 2
        w = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        model = M.finite_model(h0.astype(complex), np.ones(6), w)
        reg = C.Regularizer(complex(0.3, 3.0), ((1.0, 1),), 0)
        resid, _, _ = C.dunford_contour_check(model, reg)
        assert resid <= 1e-8

    def test_jordan_model(self):
        model = F.jordan_block_model(1.0 - 1.0j, size=3)
        reg = C.Regularizer(complex(-1.0, 2.0), ((0.5, 1),), 0)
        resid, _, _ = C.dunford_contour_check(model, reg)
        assert resid <= 1e-8

    def test_contour_too_close(self):
        # a rectangle side skimming an eigenvalue at distance far below the
        # node spacing must be refused
        model = M.finite_model(np.diag([1.0, 2.0]), np.ones(2), np.zeros((2, 2)))
        reg = C.Regularizer(complex(0.0, 4.0), (), 0)
        contour = C.ContourSpec(eps=1e-5, rectangles=((0.5, 2.5),))
        with pytest.raises(ModelError, match="node spacing"):
            C.dunford_contour_check(model, reg, contour)


class TestResolventL2Budget:
    def test_uniform_in_eps(self, small_well):
        # eps * int_I ||R_H(l + i eps) u||^2 dl stays bounded as eps -> 0
        u, _ = pair_for(small_well)
        interval = (1.0, 4.0)
        rule = gauss_legendre(40, *interval)
        budgets = []
        for eps in np.geomspace(1e-1, 1e-4, 7):
            total = 0.0
            for lam, w in zip(rule.nodes, rule.weights):
                z = lam + 1j * eps
                act = M.FreeResolventAction(small_well, M.wavenumber(z))
                k = BS.bs_matrix(small_well, z=z)
                g = small_well.grid
                sol = np.linalg.solve(np.eye(k.shape[0]) + k,
                                      g.sqrtw * (small_well.c_values * act.apply(u)))
                src = small_well.c_values * small_well.apply_w(sol / g.sqrtw)
                total += w * act.norm_squared(u - src)
            budgets.append(eps * total)
        slope = np.polyfit(np.log(np.geomspace(1e-1, 1e-4, 7)), np.log(budgets), 1)[0]
        assert slope >= -0.05  # no growth as eps -> 0
        assert max(budgets) <= 10.0 * min(budgets)


class TestAssemblyCounts:
    def test_boundary_systems_share_their_kernel_assembly(self, small_well, monkeypatch):
        # no full free-kernel assembly for an R_H application (R0 is applied
        # through panel moments, Id + K through its support blocks), and
        # none for a Stone form whose boundary systems are already cached
        assemblies = []
        original = M.FreeResolventAction.matrix

        def counting_matrix(act):
            if act._matrix is None:
                assemblies.append(act.k)
            return original(act)

        monkeypatch.setattr(M.FreeResolventAction, "matrix", counting_matrix)
        u, v = pair_for(small_well)
        BS.BoundarySystem(small_well, lam=2.0, side="+").resolvent_apply(v)
        assert len(assemblies) == 0

        cache = {}
        first = C.spectral_form(small_well, (1.0, 2.0), u, v, cache=cache)
        assemblies.clear()
        second = C.spectral_form(small_well, (1.0, 2.0), u, v, cache=cache)
        assert assemblies == []
        assert second == first

    def test_sigma_profile_assembles_one_kernel_per_point(self, small_well, monkeypatch):
        # sigma_min runs on the support blocks, never on the assembled free
        # kernel: one contraction of the in-panel partials per stack of
        # points, each point's once, which the minus side reads conjugated
        # from the plus side's action
        assemblies, contractions = [], []
        original_matrix, original_fill = M.FreeResolventAction.matrix, M.FreeResolventAction._fill

        def counting_matrix(act):
            if act._matrix is None:
                assemblies.append(act.k)
            return original_matrix(act)

        def counting_fill(act, a, b):
            if act._source is None:
                contractions.append(act.k)
            return original_fill(act, a, b)

        monkeypatch.setattr(M.FreeResolventAction, "matrix", counting_matrix)
        monkeypatch.setattr(M.FreeResolventAction, "_fill", counting_fill)
        grid = np.linspace(0.5, 4.0, BS.BATCH_POINTS + 8)
        profile = BS.sigma_profile(small_well, grid)
        assert assemblies == []
        # one stacked contraction per stack, and the plus side's wavenumber
        # sqrt(lam) of every point in exactly one of them
        assert len(contractions) == len(BS.point_batches(grid)) == 2
        assert np.array_equal(np.concatenate(contractions),
                              [complex(math.sqrt(lam)) for lam in grid])
        for side in ("+", "-"):
            assert np.allclose(profile[side], [BS.sigma_min(small_well, lam, side)
                                               for lam in grid], rtol=1e-12, atol=0.0)

    def test_solves_on_a_multiplication_w_run_through_the_panels(self, monkeypatch):
        # the product-form, jump-term and Stone-pairing paths factorize
        # A = I + K_SS through its panels: no dense solve or slogdet of A
        # (order |S|), no block of the free kernel on S x S, and no
        # factorization of order above max(n, 2P), P the panels holding S
        # (4 of 6 here, |S| = 40)
        model = M.radial_model(M.square_well(0.15 - 0.1j, 6.0), panels=6, nodes_per_panel=10)
        support = np.flatnonzero(model.support_mask())
        panels = np.unique(model.grid.panel_index[support]).size
        assert panels > 1 and support.size > max(model.grid.n, 2 * panels)
        orders = []

        def record(fn):
            def wrapped(a, *args, **kwargs):
                if fn.__name__ in ("solve", "slogdet") and a.shape[-1] == support.size:
                    raise AssertionError(f"dense {fn.__name__} of A")
                orders.append(a.shape[-1])
                return fn(a, *args, **kwargs)
            return wrapped

        def checked_block(act, rows, cols):
            assert not (np.array_equal(rows, support) and np.array_equal(cols, support))
            return block(act, rows, cols)

        block = M.FreeResolventAction.block
        monkeypatch.setattr(M.FreeResolventAction, "block", checked_block)
        for name in ("inv", "solve", "slogdet"):
            monkeypatch.setattr(np.linalg, name, record(getattr(np.linalg, name)))
        u, v = pair_for(model)
        C.stone_product_forms(model, (1.0, 2.0), (1.5, 3.0), [(u, v)])
        S._jump_terms(model, np.array([0.5, 2.0, 4.0]), model.c_values * v)
        C._correction_pairing(model, np.array([1.2, 2.5]), u, v, {})
        assert orders and max(orders) <= max(model.grid.n, 2 * panels)

    @pytest.mark.parametrize("name", ["wide_well", "one_panel_well"])
    def test_stone_forms_build_their_systems_by_stacks(self, name, monkeypatch):
        # a Stone form on a fresh cache builds no system at one point, and a
        # second pair on the same interval and cache builds none at all
        built = []
        init = BS.BoundarySystem.__init__

        def counting_init(system, model, z=None, lam=None, side=None):
            built.append(np.ndim(lam if z is None else z))
            init(system, model, z=z, lam=lam, side=side)

        monkeypatch.setattr(BS.BoundarySystem, "__init__", counting_init)
        model = pairing_model(name)
        u, v = pair_for(model)
        cache = {}
        C.stone_form(model, (1.0, 4.0), u, v, cache=cache)
        assert built and 0 not in built
        built.clear()
        C.stone_form(model, (1.0, 4.0), v, u, cache=cache)
        assert built == []

    def test_a_mirror_fills_no_partials_and_allocates_no_memo(self, monkeypatch):
        # a mirror's R0 applications, blocks and in-panel products of A are
        # the conjugates of its source's: it never fills partials, and its
        # memo is never allocated
        model = pairing_model("wide_well")
        filled, mirrors = [], []
        fill, conjugate = M.FreeResolventAction._fill, M.FreeResolventAction.conjugate

        def recording_fill(act, a, b):
            if act._source is not None:
                filled.extend(range(a, b))
            return fill(act, a, b)

        def recording_conjugate(act):
            mirror = conjugate(act)
            mirrors.append(mirror)
            return mirror

        monkeypatch.setattr(M.FreeResolventAction, "_fill", recording_fill)
        monkeypatch.setattr(M.FreeResolventAction, "conjugate", recording_conjugate)
        u, v = pair_for(model)
        C.stone_form(model, (1.0, 4.0), u, v)
        S._jump_terms(model, np.array([0.5, 2.0, 4.0]), model.c_values * v)
        C._batched_forms(model, np.array([2.3 + 0.1j, 1.0 + 0.00625j]), [(u, v)])
        assert mirrors and filled == []
        for mirror in mirrors:
            assert mirror._source is not None and mirror._run is None
            assert mirror._left is None and mirror._right is None

    @pytest.mark.parametrize("width", [1.0, 2.0], ids=["one_panel", "three_panels"])
    def test_each_resolution_pair_has_the_row_it_has_alone(self, width):
        # the Riesz projection is built once for all pairs, and the
        # boundary systems afresh for each: a pair's row keeps its bits
        # next to another pair, on the dense and on the panel path
        model = M.radial_model(M.square_well(-5.0 - 0.5j, width))
        assert BS._spans_panels(model) == (width > 1.0)
        eigenvalues = BS.locate_eigenvalues(model)
        assert len(eigenvalues) == 1
        reg = C.Regularizer(z0=-1.0 + 1.0j, nu_infinity=1)
        u, v = pair_for(model)
        rows = [C.resolution_residual(model, reg, pairs, lam_max=30.0, eigenvalues=eigenvalues)
                for pairs in ([(u, v)], [(v, u)], [(u, v), (v, u)])]
        for alone, row in zip(rows[0] + rows[1], rows[2]):
            alone.pop("pair"), row.pop("pair")
            assert row == alone

    def test_singularity_probe_reuses_the_cache(self, small_well, monkeypatch):
        u, v = pair_for(small_well)
        cache = {}
        first = C.stone_form(small_well, (1.0, 2.0), u, v, cache=cache)
        assert all(isinstance(val, (bool, BS.BoundarySystem)) for val in cache.values())
        work = []
        original = M.FreeResolventAction.matrix

        def counting_matrix(act):
            if act._matrix is None:
                work.append("assemble")
            return original(act)

        def counting_svd(*args, **kwargs):
            work.append("svd")
            return svd(*args, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(M.FreeResolventAction, "matrix", counting_matrix)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        second = C.stone_form(small_well, (1.0, 2.0), u, v, cache=cache)
        assert work == []
        assert second == first
