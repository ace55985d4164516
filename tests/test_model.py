import functools
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specres import model as M
from specres.model import AdmissibilityError, ModelError


class TestKernels:
    def test_line_diagonal_value(self, line_free):
        val = M.free_resolvent_boundary_kernel(line_free, 1.0, "+", 0.3, 0.3)
        assert val == pytest.approx(0.5j)

    def test_line_kernel_is_green_function(self, line_free):
        # (-d^2/dx^2 - lam) applied to a kernel column vanishes off the
        # diagonal and the derivative jump across it is -1
        lam, y = 1.0, 0.4
        k = math.sqrt(lam)
        h = 1e-4
        for x in (-2.0, 1.5, 3.7):
            sten = np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]) / h**2
            xs = x + h * np.arange(-2, 3)
            col = M.free_resolvent_boundary_kernel(line_free, lam, "+", xs, y)
            assert abs(-(sten @ col) - lam * col[2]) < 1e-6
        dplus = (M.free_resolvent_boundary_kernel(line_free, lam, "+", y + h, y)
                 - M.free_resolvent_boundary_kernel(line_free, lam, "+", y, y)) / h
        dminus = (M.free_resolvent_boundary_kernel(line_free, lam, "+", y, y)
                  - M.free_resolvent_boundary_kernel(line_free, lam, "+", y - h, y)) / h
        assert abs((dplus - dminus) - (-1.0)) < 1e-3

    def test_radial_threshold_kernel(self, free_radial):
        assert M.free_resolvent_boundary_kernel(free_radial, 0.0, "+", 0.3, 0.7) \
            == pytest.approx(0.3)

    def test_side_conjugation(self, line_free):
        plus = M.free_resolvent_boundary_kernel(line_free, 2.0, "+", 0.0, 1.0)
        minus = M.free_resolvent_boundary_kernel(line_free, 2.0, "-", 0.0, 1.0)
        assert minus == pytest.approx(np.conj(plus))

    def test_kernel_symmetry(self, free_radial):
        a = M.free_resolvent_boundary_kernel(free_radial, 2.5, "+", 1.1, 2.3)
        b = M.free_resolvent_boundary_kernel(free_radial, 2.5, "+", 2.3, 1.1)
        assert a == b

    def test_line_threshold_refused(self, line_free):
        with pytest.raises(AdmissibilityError):
            M.free_resolvent_boundary_kernel(line_free, 0.0, "+", 0.0, 1.0)
        with pytest.raises(AdmissibilityError):
            M.free_resolvent_boundary_kernel(line_free, -1.0, "+", 0.0, 1.0)

    def test_radial_negative_refused(self, free_radial):
        with pytest.raises(AdmissibilityError):
            M.free_resolvent_boundary_kernel(free_radial, -1.0, "+", 0.3, 0.7)


class TestWeightedResolvent:
    def test_node_doubling_stability(self):
        pot = M.square_well(-2.0, 1.0)
        coarse = M.radial_model(pot, s=1.0, length=14.0)
        fine = M.radial_model(pot, s=1.0, length=14.0, panels=24)
        n_coarse = np.linalg.norm(M.build_weighted_free_resolvent(coarse, lam=4.0, side="+"), 2)
        n_fine = np.linalg.norm(M.build_weighted_free_resolvent(fine, lam=4.0, side="+"), 2)
        assert abs(n_coarse - n_fine) <= 1e-6 * n_fine

    def test_threshold_norm_finite(self, free_radial):
        m = M.build_weighted_free_resolvent(free_radial, lam=0.0, side="+")
        assert np.isfinite(np.linalg.norm(m, 2))

    def test_resolvent_set_hermitian_positive(self, free_radial):
        # Hermitian/positive up to the crease's non-polynomial remainder
        m = M.build_weighted_free_resolvent(free_radial, z=-1.0)
        scale = np.linalg.norm(m, 2)
        assert np.linalg.norm(m - m.conj().T, 2) <= 1e-6 * scale
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        assert evals.min() > -1e-8 * scale

    def test_finite_backend_boundary_refused(self, rng):
        h0 = np.diag([1.0, 2.0, 3.0])
        mod = M.finite_model(h0, np.ones(3), np.zeros((3, 3)))
        with pytest.raises(AdmissibilityError):
            M.build_weighted_free_resolvent(mod, lam=2.0, side="+")
        m = M.build_weighted_free_resolvent(mod, z=-1.0)
        assert np.allclose(np.diag(m), 1.0 / (np.diag(h0) + 1.0))


class TestResolventAction:
    def test_matches_ode(self, small_well):
        g = M.GaussianBump(center=3.0, width=0.5)
        z = 2.0 + 0.3j
        act = M.FreeResolventAction(small_well, M.wavenumber(z))
        samples = g(small_well.grid.nodes)
        h = 1e-3
        sten = np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]) / h**2
        for x in (0.8, 2.2, 5.0):
            vals = act.evaluate(samples, x + h * np.arange(-2, 3))
            resid = -(sten @ vals) - z * vals[2] - g(x)
            assert abs(resid) < 1e-7

    def test_dirichlet_condition(self, free_radial):
        g = M.GaussianBump(center=3.0, width=0.5)
        act = M.FreeResolventAction(free_radial, M.wavenumber(-2.0))
        assert abs(act.evaluate(g(free_radial.grid.nodes), [0.0])[0]) < 1e-14

    def test_norm_identity_machine_precision(self, free_radial):
        g = M.GaussianBump(center=3.0, width=0.5)
        u = g(free_radial.grid.nodes)
        cu = free_radial.c_values * u
        for eps in (1e-1, 1e-2, 1e-3):
            act = M.FreeResolventAction(free_radial, M.wavenumber(4.0 + 1j * eps))
            lhs = act.norm_squared(cu)
            f = act.apply(cu)
            rhs = float((free_radial.grid.weights @ (np.conj(u) * free_radial.c_values * f)).imag) / eps
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


ACTION_MODELS = {
    "radial": lambda: M.radial_model(M.square_well(-2.0 - 0.5j)),
    "line1d": lambda: M.line_model(M.square_well(-2.0 - 0.5j)),
}


@functools.lru_cache(maxsize=None)
def action_model(name):
    return ACTION_MODELS[name]()


# real, negative real, complex and imaginary wavenumbers, Im k up to 5
wavenumbers = st.one_of(
    st.floats(0.05, 6.0),
    st.floats(-6.0, -0.05),
    st.builds(complex, st.floats(-6.0, 6.0), st.floats(0.01, 5.0)),
    st.floats(0.01, 5.0).map(lambda t: 1j * t),
    st.just(0.0),
).map(complex)

# fixed draws and no example database: tier-1 runs the same points every time
action_settings = settings(deadline=None, derandomize=True, database=None, max_examples=40)


def _samples(model, seed, columns):
    rng = np.random.default_rng(seed)
    shape = (model.size,) if columns == 0 else (model.size, columns)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _normwise(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(ACTION_MODELS))
class TestPanelMomentApply:
    """``apply`` and ``evaluate`` run on panel moments, never on matrix()."""

    @action_settings
    @given(k=wavenumbers, seed=st.integers(0, 2**32 - 1), columns=st.integers(0, 3))
    def test_apply_matches_the_assembled_matrix(self, name, k, seed, columns):
        model = action_model(name)
        assume(k != 0 or model.backend == "radial")   # the line kernel has no k = 0
        f = _samples(model, seed, columns)
        out = M.FreeResolventAction(model, k).apply(f)
        assert out.shape == f.shape
        assert _normwise(out, M.FreeResolventAction(model, k).matrix() @ f) <= 1e-12

    @action_settings
    @given(k=wavenumbers, seed=st.integers(0, 2**32 - 1))
    def test_evaluate_at_the_nodes_is_apply(self, name, k, seed):
        # samples that are not compactly supported: a suffix moment taken as
        # total - prefix loses every digit once Im k >> 0
        model = action_model(name)
        assume(k != 0 or model.backend == "radial")
        act = M.FreeResolventAction(model, k)
        f = _samples(model, seed, 0)
        assert _normwise(act.evaluate(f, model.grid.nodes), act.apply(f)) <= 1e-12

    @pytest.mark.parametrize("k", [1.7, -0.4 + 2.0j])
    def test_blocks_are_bitwise_slices_of_the_matrix(self, name, k):
        model = action_model(name)
        full = M.FreeResolventAction(model, k).matrix()
        act = M.FreeResolventAction(model, k)
        idx = np.arange(model.size)
        support, rest = idx[20:70], np.setdiff1d(idx, idx[20:70])
        f = _samples(model, 0, 2)
        # partials filled piecewise: a run, the run's complement, then all
        for rows, cols in ((support, support), (rest, support), (idx[150:], idx[:40])):
            assert np.array_equal(act.block(rows, cols)[0], full[np.ix_(rows, cols)])
        act.apply(f)
        assert np.array_equal(act.matrix(), full)

    def test_a_stack_is_its_points(self, name):
        # one action at K wavenumbers: the blocks and R0 of shared and of
        # per-point columns are those of one action per point, mirror too
        model = action_model(name)
        ks = np.array([1.7, -0.4 + 2.0j, 0.3 + 0.01j, -2.5])
        stack = M.FreeResolventAction(model, ks)
        idx = np.arange(model.size)
        rows, cols = idx[30:], idx[10:90]
        shared = _samples(model, 0, 2)
        own = np.stack([_samples(model, seed, 2) for seed in range(1, ks.size + 1)])
        mirror = stack.conjugate()
        outputs = (stack.block(rows, cols), stack.apply(shared), stack.apply(own),
                   mirror.apply(own), mirror.block(rows, cols))
        assert stack.phi_nodes.shape == (ks.size, model.size)
        assert [out.shape[0] for out in outputs] == [ks.size] * len(outputs)
        for i, k in enumerate(ks):
            one = M.FreeResolventAction(model, k)
            for got, want in zip((out[i] for out in outputs),
                                 (one.block(rows, cols), one.apply(shared), one.apply(own[i]),
                                  one.conjugate().apply(own[i]), one.conjugate().block(rows, cols))):
                assert _normwise(got, want) <= 1e-14

    def test_a_stack_evaluates_each_point_on_its_own_samples(self, name):
        # samples (K, N), one vector per point, give each point's value off
        # the grid as one action at that point alone gives it, bit for bit
        model = action_model(name)
        ks = np.array([1.7, -0.4 + 2.0j, 0.3 + 0.01j, -2.5])
        own = np.stack([_samples(model, seed, 0) for seed in range(ks.size)])
        points = [model.grid.lo - 1.0, -0.3, 0.5, 3.0, 7.7, model.grid.hi + 1.0]
        out = M.FreeResolventAction(model, ks).evaluate(own, points)
        assert out.shape == (ks.size, len(points))
        for i, k in enumerate(ks):
            assert np.array_equal(out[i], M.FreeResolventAction(model, k).evaluate(own[i], points))

    def test_apply_forms_no_matrix(self, name, monkeypatch):
        def full_assembly(act):
            raise AssertionError("N x N free-kernel assembly")

        monkeypatch.setattr(M.FreeResolventAction, "matrix", full_assembly)
        model = action_model(name)
        act = M.FreeResolventAction(model, 1.3 + 0.2j)
        act.apply(_samples(model, 1, 0))
        act.apply(_samples(model, 2, 3))
        act.evaluate(_samples(model, 3, 0), [-20.0, 0.5, 3.0, 20.0])


def test_a_stack_holds_the_threshold_wavenumber():
    # the radial k = 0 kernel min(r, r') runs inside a stack: phi(t) = t,
    # psi = 1 and pref = 1 there, and the blocks, R0 and its mirror are
    # those of the threshold action alone
    model = action_model("radial")
    stack = M.FreeResolventAction(model, np.array([1.0, 0.0, -0.4 + 2.0j]))
    one = M.FreeResolventAction(model, 0.0)
    x = model.grid.nodes
    assert np.array_equal(stack.phi_nodes[1], x) and np.array_equal(stack.psi_nodes[1], x ** 0)
    assert stack.pref[1] == one.pref[0] == 1.0 and one.k == 0
    idx = np.arange(model.size)
    rows, cols = idx[30:], idx[10:90]
    f = _samples(model, 0, 2)
    for got, want in ((stack.block(rows, cols)[1], one.block(rows, cols)[0]),
                      (stack.apply(f)[1], one.apply(f)),
                      (stack.conjugate().apply(f)[1], one.conjugate().apply(f))):
        assert _normwise(got, want) <= 1e-14


def _outputs(act, samples, rows, cols, points):
    """Every kind of output of an action, in a fixed order."""
    return (act.apply(samples), act.block(rows, cols), act.matrix(),
            act.evaluate(samples[:, 0], points))


def _reference_partials(model, act):
    """int_{a_p}^{x_i} phi l_m and int_{x_i}^{b_p} psi l_m, (P, n, n) each,
    by a 4n-point Gauss rule of phi l_m (psi l_m) on each interval,
    converged at these wavenumbers."""
    g = model.grid
    sub_x, sub_w = np.polynomial.legendre.leggauss(4 * g.n)
    a, b = g.edges[g.panel_index], g.edges[g.panel_index + 1]
    out = []
    for lo, hi, f in ((a, g.nodes, act.phi), (g.nodes, b, act.psi)):
        half = 0.5 * (hi - lo)[:, None]
        t = 0.5 * (lo + hi)[:, None] + half * sub_x
        basis = g.lagrange_values(g.to_reference(g.panel_index[:, None], t).ravel())
        values = np.einsum("xs,xsm->xm", half * sub_w * f(t)[0],
                           basis.reshape(t.shape + (g.n,)))
        out.append(values.reshape(g.npanels, g.n, g.n))
    return out


@pytest.mark.parametrize("name", sorted(ACTION_MODELS))
def test_partials_match_a_converged_reference(name):
    # the radial threshold, real k up to the grid's scan limit on both
    # sides, and complex k: each panel's partials within 1e-13 of its scale
    model = action_model(name)
    top = math.sqrt(model.max_scan_energy())
    ks = [1.0, top, -top, 3.0 - 1.5j, 3.2j] + ([0.0] if model.backend == "radial" else [])
    for k in ks:
        act = M.FreeResolventAction(model, k)
        for got, want in zip(act._partials(0, model.grid.npanels), _reference_partials(model, act)):
            err = np.abs(got[0] - want).max(axis=(1, 2))
            assert np.all(err <= 1e-13 * np.abs(want).max(axis=(1, 2))), (k, err)


def test_partial_tensors_integrate_the_interpolation_basis():
    # tl + tr is the integral of L_j l_m (degree 3n - 2) over the reference
    # panel, which the Gauss rule on the 2n points gives exactly: w_j l_m(y_j)
    g = action_model("radial").grid
    y, half, tl, tr = g.partial_tensors()
    fine, fine_weights = np.polynomial.legendre.leggauss(2 * g.n)
    assert tl.shape == tr.shape == (2 * g.n, g.n, g.n)
    assert np.array_equal(half, 0.5 * np.diff(g.edges))
    assert np.allclose(g.to_reference(np.arange(g.npanels)[:, None], y), fine, rtol=0, atol=1e-14)
    full = fine_weights[:, None] * g.lagrange_values(fine)               # [j, m]
    assert np.allclose(tl + tr, full[:, None, :], rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(ACTION_MODELS))
def test_contiguous_partial_tensors_leave_the_partials_unchanged(name):
    # the tensors are C-contiguous, and contracting against a strided copy
    # (the layout np.einsum writes) gives the partials bit for bit
    model = action_model(name)
    g = model.grid
    y, half, tl, tr = g.partial_tensors()
    assert tl.flags.c_contiguous and tr.flags.c_contiguous
    act = M.FreeResolventAction(model, np.array([1.0, 3.0 - 1.5j, 3.2j]))
    for got, f, t in zip(act._partials(0, g.npanels), (act.phi, act.psi), (tl, tr)):
        strided = t.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        assert not strided.flags.c_contiguous and np.array_equal(strided, t)
        values = f(y).transpose(1, 0, 2) * half[:, None, None]
        real, imag = M._contract(values, strided)
        assert np.array_equal(got.real, real) and np.array_equal(got.imag, imag)


@pytest.mark.parametrize("name", sorted(ACTION_MODELS))
class TestMirrorAction:
    """``conjugate`` is the action at -conj(k), from its source's kernel evaluation."""

    @action_settings
    @given(k=wavenumbers, seed=st.integers(0, 2**32 - 1),
           filled=st.sampled_from(["before", "after", "by_mirror"]))
    def test_conjugate_is_the_action_at_the_mirror_wavenumber(self, name, k, seed, filled):
        model = action_model(name)
        assume(k != 0 or model.backend == "radial")
        f = _samples(model, seed, 2)
        idx = np.arange(model.size)
        rows, cols = idx[20:70], idx[60:150]
        points = [model.grid.lo - 1.0, 0.5, 3.0, model.grid.hi + 1.0]
        source = M.FreeResolventAction(model, k)
        if filled == "before":   # partials and matrix exist when the mirror is made
            source.apply(f)
            source.matrix()
        mirror = source.conjugate()
        if filled == "after":    # the source fills its memo once the mirror exists
            source.block(rows, cols)
            source.matrix()
        fresh = M.FreeResolventAction(model, -np.conj(k))
        assert mirror.k == fresh.k and mirror.conjugate() is source
        for got, want in zip(_outputs(mirror, f, rows, cols, points),
                             _outputs(fresh, f, rows, cols, points)):
            assert got.shape == want.shape
            assert _normwise(got, want) <= 1e-14
        # what the mirror asked of its source (by_mirror: everything) leaves it exact
        unmirrored = M.FreeResolventAction(model, k)
        for got, want in zip(_outputs(source, f, rows, cols, points),
                             _outputs(unmirrored, f, rows, cols, points)):
            assert _normwise(got, want) <= 1e-14

    @pytest.mark.parametrize("ks", [1.7, [1.7, -0.4 + 2.0j, 0.3 + 0.01j]])
    def test_the_mirror_applies_the_conjugate_of_its_source(self, name, ks):
        # R0(-conj k) x = conj(R0(k) conj x) bit for bit, for a vector, columns
        # and columns per point: a caller holding the source takes the
        # mirror's applications from it
        model = action_model(name)
        source = M.FreeResolventAction(model, np.array(ks))
        mirror = source.conjugate()
        per_point = np.stack([_samples(model, seed, 2) for seed in range(source.ks.size)])
        for x in (_samples(model, 1, 0), _samples(model, 2, 3), per_point):
            assert np.array_equal(mirror.apply(x), np.conj(source.apply(np.conj(x))))

    def test_the_pair_evaluates_the_kernel_once(self, name, monkeypatch):
        contracted = []
        contract = M._contract

        def counting_contract(values, weights):
            contracted.append(values.shape[0])
            return contract(values, weights)

        monkeypatch.setattr(M, "_contract", counting_contract)
        model = action_model(name)
        source = M.FreeResolventAction(model, 1.3 + 0.2j)
        mirror = source.conjugate()
        mirror.apply(_samples(model, 1, 0))
        source.apply(_samples(model, 2, 0))
        full = source.matrix()
        # the left and right partials over every panel, computed by the source
        assert contracted == [model.grid.npanels] * 2
        assert np.array_equal(mirror.matrix(), np.conj(full))
        assert np.array_equal(mirror.block(np.arange(9), np.arange(5, 40))[0],
                              np.conj(full[:9, 5:40]))


class TestFactorization:
    def test_power_weight_cancellation(self):
        pot = M.PotentialSpec(func=lambda x: (1.0 + x**2) ** -1.0 + 0j,
                              support=(0.0, math.inf), sigma=2.0)
        weight = M.MetricWeight("power", s=1.0)
        x = np.linspace(0, 10, 101)
        fact = M.factorize_potential(pot, weight, x)
        assert np.allclose(fact.w_values, 1.0)
        assert not fact.dissipative or np.allclose(fact.w2, 0.0)

    def test_dissipative_indicator(self):
        pot = M.square_well(-2.0j, 1.0)
        weight = M.MetricWeight("power", s=1.0)
        x = np.linspace(0.01, 3, 301)
        fact = M.factorize_potential(pot, weight, x)
        inside = x < 1.0
        assert np.allclose(fact.w_values[inside], -2.0j * (1 + x[inside] ** 2))
        assert fact.dissipative
        assert np.min(fact.w2) >= -1e-12

    def test_unbounded_w_rejected(self):
        pot = M.PotentialSpec(func=lambda x: (1.0 + x**2) ** -0.5 + 0j,
                              support=(0.0, math.inf), sigma=1.0)
        with pytest.raises(ModelError, match="unbounded"):
            M.factorize_potential(pot, M.MetricWeight("power", s=1.0))

    def test_roundtrip(self, small_well):
        x = small_well.grid.nodes
        v = small_well.potential(x)
        recon = small_well.c_values * small_well.w_values * small_well.c_values
        assert np.max(np.abs(recon - v)) <= 1e-12


class TestHypothesisDiagnostics:
    def test_lap_radial_finite(self, free_radial):
        grid = [(lam, "+") for lam in np.linspace(1e-3, 25.0, 24)]
        grid += [4.0 + 1j * eps for eps in (1e-1, 1e-2)]
        sup, _, diverging, _ = M.lap_supremum_estimate(free_radial, grid)
        assert np.isfinite(sup)
        assert not diverging

    def test_lap_line_threshold_divergence(self, line_free):
        grid = [(lam, "+") for lam in np.geomspace(1e-3, 4.0, 24)]
        sup, at, diverging, norms = M.lap_supremum_estimate(line_free, grid)
        assert diverging
        assert at == grid[0]
        # growth ~ lam^(-1/2)
        ratio = norms[0] / norms[4]
        expected = (grid[4][0] / grid[0][0]) ** 0.5
        assert ratio == pytest.approx(expected, rel=0.2)

    def test_lap_independent_of_w(self):
        # same support (hence same grid), different W: C R0 C unchanged
        one = M.radial_model(M.square_well(3.0, 1.0), s=1.5, length=14.0)
        two = M.radial_model(M.square_well(-2.0j, 1.0), s=1.5, length=14.0)
        a = M.build_weighted_free_resolvent(one, lam=4.0, side="+")
        b = M.build_weighted_free_resolvent(two, lam=4.0, side="+")
        assert np.allclose(a, b)

    def test_kato_zero_vector(self, free_radial):
        ratio, _ = M.kato_smoothness_check(free_radial, np.zeros(free_radial.size))
        assert ratio == 0.0

    def test_kato_ratio_bounded(self, free_radial):
        u = M.GaussianBump(center=3.0, width=0.7)(free_radial.grid.nodes)
        ratio, c0 = M.kato_smoothness_check(free_radial, u)
        assert 0 < ratio <= c0**2

    def test_kato_scale_invariant(self, free_radial):
        u = M.GaussianBump(center=3.0, width=0.7)(free_radial.grid.nodes)
        r1, _ = M.kato_smoothness_check(free_radial, u)
        r2, _ = M.kato_smoothness_check(free_radial, 2.0 * u)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_kato_matches_time_side(self, free_radial):
        # Plancherel: int ||C e^{-itH0} u||^2 dt has the closed spectral
        # form (2/pi) int |u~(k)|^2 M_c(k, k) dk/k with
        # M_c(k, k) = int c(r)^2 sin^2(kr) dr -- an independent oracle
        from specres.calculus import mode_transform
        from specres.numerics import gauss_legendre

        u = M.GaussianBump(center=3.0, width=0.7)(free_radial.grid.nodes)
        g = free_radial.grid
        ratio, _ = M.kato_smoothness_check(free_radial, u)
        rule = gauss_legendre(240, 1e-6, 8.0)
        tu = mode_transform(free_radial, u, rule.nodes)
        mc = np.array([
            float(g.weights @ (free_radial.c_values**2 * np.sin(k * g.nodes) ** 2))
            for k in rule.nodes
        ])
        oracle = (4.0 / math.pi) * float(
            rule.weights @ (np.abs(tu) ** 2 * mc / rule.nodes))
        norm_u2 = float(g.weights @ np.abs(u) ** 2)
        assert ratio == pytest.approx(oracle / norm_u2, rel=0.02)


class TestConjugation:
    def test_multiplication_passes(self, small_well):
        rep = M.conjugation_check(small_well)
        assert rep["passed"]

    def test_complex_symmetric_finite(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = (a + a.T) / 2
        h0 = rng.standard_normal((4, 4))
        h0 = (h0 + h0.T) / 2
        mod = M.finite_model(h0.astype(complex), np.ones(4), w)
        rep = M.conjugation_check(mod)
        assert rep["jh_equals_hstarj"] <= 1e-12

    def test_generic_finite_fails(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h0 = rng.standard_normal((4, 4))
        h0 = (h0 + h0.T) / 2
        mod = M.finite_model(h0.astype(complex), np.ones(4), a)
        rep = M.conjugation_check(mod)
        assert rep["jh_equals_hstarj"] > 1e-6
        assert not rep["passed"]


class TestGrids:
    def test_weights_sum(self, free_radial):
        g = free_radial.grid
        assert g.weights.sum() == pytest.approx(g.hi - g.lo, rel=1e-14)

    def test_breakpoint_alignment(self, small_well):
        assert any(abs(e - 1.0) < 1e-12 for e in small_well.grid.edges)

    def test_max_scan_energy_covers_acceptance_range(self, small_well):
        assert small_well.max_scan_energy() > 25.0

    def test_interpolation_spectral(self, free_radial):
        g = free_radial.grid
        f = M.GaussianBump(center=3.0, width=0.8)
        pts = np.linspace(0.5, 10.0, 77)
        err = np.max(np.abs(g.interpolate(f(g.nodes), pts) - f(pts)))
        assert err < 1e-10
