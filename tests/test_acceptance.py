"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with -s (or see the captured
output) for the summary.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from specres import birman_schwinger as BS
from specres import calculus as C
from specres import families as F
from specres import model as M
from specres import numerics as N
from specres import subspaces as S
from specres.numerics import LimitSequence, extrapolate_to_zero, gauss_legendre

U_PROFILE = M.GaussianBump(center=3.0, width=0.45)
V_PROFILE = M.GaussianBump(center=3.2, width=0.48, modulation=0.5)


def report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def tuned(tuned_well):
    return tuned_well


def test_criterion_01_boundary_limit_equivalence(tuned):
    """eps-extrapolated C R_H(l+i eps) C W vs the boundary operator, 20 l's."""
    t0 = time.time()
    model, _ = tuned
    grid = [lam for lam in np.linspace(0.3, 25.0, 120)
            if BS.sigma_min(model, lam, "+") >= 0.1][:20]
    assert len(grid) == 20
    eps = np.geomspace(0.1, 0.1 / 2**6, 7)
    worst = 0.0
    for lam in grid:
        boundary = BS.weighted_resolvent_H(model, lam=lam, side="+")
        vals = [BS.weighted_resolvent_H(model, z=lam + 1j * e) for e in eps]
        ext, _, _ = extrapolate_to_zero(LimitSequence(eps, vals, order=4))
        worst = max(worst, np.linalg.norm(ext - boundary, 2)
                    / np.linalg.norm(boundary, 2))
    report("criterion 1 (boundary-limit equivalence)",
           worst <= 1e-6, f"worst relative error {worst:.3e} <= 1e-6, "
           f"{time.time() - t0:.1f}s")


def test_criterion_02_singularity_vs_transcendental_oracle(tuned):
    """scan localizes lam* = 1 within 1e-6; resonant state certified."""
    t0 = time.time()
    model, v0 = tuned
    reports = BS.scan_singularities(model, np.linspace(0.3, 3.0, 141))
    ok = len(reports) == 1
    lam_err = abs(reports[0].lam - 1.0) if ok else math.inf
    state = BS.resonant_state(model, reports[0].lam, "+",
                              detection_threshold=1e-3)
    amp_ratio = abs(state.tail_amplitude) / state.psi_norm
    passed = ok and lam_err <= 1e-6 and state.residual <= 1e-4 and amp_ratio > 1e-3
    report("criterion 2 (singularity detection vs oracle)", passed,
           f"lam error {lam_err:.2e} <= 1e-6, residual {state.residual:.2e} <= 1e-4, "
           f"outgoing amplitude ratio {amp_ratio:.3f} > 0, {time.time() - t0:.1f}s")


def test_criterion_03_dissipative_exclusion():
    """V = -i g 1_(0,1), g in {0.5, 2, 5}: empty outgoing scan, sigma floor."""
    t0 = time.time()
    worst_sigma = math.inf
    total_found = 0
    for g in (0.5, 2.0, 5.0):
        model = F.dissipative_well(g)
        rep = BS.dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=300)
        total_found += len(rep["outgoing_detected"])
        worst_sigma = min(worst_sigma, rep["outgoing_sigma_min"])
    passed = total_found == 0 and worst_sigma >= 1e-2
    report("criterion 3 (dissipative exclusion)", passed,
           f"no outgoing singularities, min sigma_min+ {worst_sigma:.3e} >= 1e-2, "
           f"{time.time() - t0:.1f}s")


def test_criterion_04_epsilon_power_bounds():
    """||R0 C|| ~ eps^-1/2, grid ||R_H|| exponent <= 1.05, exact identity."""
    t0 = time.time()
    model = F.small_complex_well()
    eps = np.geomspace(1e-1, 1e-4, 10)
    rep = BS.epsilon_bounds_check(model, 4.0, eps)
    e0 = rep.exponents["r0c"]["exponent"]
    e1 = rep.exponents["rh"]["exponent"]
    passed = abs(e0 - 0.5) <= 0.05 and e1 <= 1.05 \
        and rep.identity_relative_error <= 1e-10
    report("criterion 4 (eps power bounds)", passed,
           f"R0C exponent {e0:.4f} = 0.5 +/- 0.05, R_H exponent {e1:.3f} <= 1.05, "
           f"identity error {rep.identity_relative_error:.2e} <= 1e-10, "
           f"{time.time() - t0:.1f}s")


def test_criterion_05_stone_projection_algebra():
    """Idempotency and 1_{I1} 1_{I2} = 1_{I1 cap I2} on 10 seeded pairs."""
    t0 = time.time()
    model = F.small_complex_well()
    rng = np.random.default_rng(1234)
    x = model.grid.nodes
    pairs = []
    for _ in range(10):
        cu, cv = 2.0 + 2.5 * rng.random(2)
        wu, wv = 0.4 + 0.3 * rng.random(2)
        mu, mv = rng.standard_normal(2)
        pairs.append((np.exp(-0.5 * ((x - cu) / wu) ** 2) * np.exp(1j * mu * x),
                      np.exp(-0.5 * ((x - cv) / wv) ** 2) * np.exp(1j * mv * x)))
    i1, i2 = (1.0, 4.0), (2.0, 6.0)
    inter = (2.0, 4.0)
    idem_vals = C.stone_product_forms(model, i1, i1, pairs)
    prod_vals = C.stone_product_forms(model, i1, i2, pairs)
    cache = {}
    worst_idem = worst_prod = 0.0
    for j, (u, v) in enumerate(pairs):
        single = C.stone_form(model, i1, u, v, cache=cache)
        target = C.stone_form(model, inter, u, v, cache=cache)
        nu = math.sqrt(abs(C.grid_inner(model, u, u)))
        nv = math.sqrt(abs(C.grid_inner(model, v, v)))
        worst_idem = max(worst_idem, abs(idem_vals[j] - single) / (nu * nv))
        worst_prod = max(worst_prod, abs(prod_vals[j] - target) / (nu * nv))
    passed = worst_idem <= 2e-3 and worst_prod <= 2e-3
    report("criterion 5 (Stone projection algebra)", passed,
           f"idempotency {worst_idem:.2e} <= 2e-3, intersection {worst_prod:.2e} "
           f"<= 2e-3 on 10 seeded pairs, {time.time() - t0:.1f}s")


def test_criterion_06_resolution_of_identity(tuned):
    """Resolution formula: free and small-well with r = 1; singular model
    regularized; unregularized singular model must blow up."""
    t0 = time.time()
    free = M.radial_model(M.PotentialSpec(), s=1.5, length=14.0)
    small = F.small_complex_well()
    singular, _ = tuned
    results = {}
    for name, model, tol in (("free", free, 2e-3), ("small-well", small, 2e-3)):
        u = U_PROFILE(model.grid.nodes)
        v = V_PROFILE(model.grid.nodes)
        reg = C.Regularizer(complex(1.0, 3.0), (), 0)
        eigs = [] if name == "free" else None
        rows = C.resolution_residual(model, reg, [(u, v)], eigenvalues=eigs)
        results[name] = rows[0]["residual"]
    scan = BS.scan_singularities(singular, np.linspace(0.3, 3.0, 101))
    lam_star = scan[0].lam
    u = U_PROFILE(singular.grid.nodes)
    v = V_PROFILE(singular.grid.nodes)
    reg_ok = C.Regularizer(complex(1.0, 3.0), ((lam_star, 1),), 0)
    rows = C.resolution_residual(singular, reg_ok, [(u, v)])
    results["singular-regularized"] = rows[0]["residual"]
    blew_up = False
    try:
        C.resolution_residual(singular, C.Regularizer(complex(1.0, 3.0), (), 0),
                              [(u, v)], eigenvalues=[])
    except C.IntegrandBlowupError:
        blew_up = True
    passed = (results["free"] <= 2e-3 and results["small-well"] <= 2e-3
              and results["singular-regularized"] <= 5e-3 and blew_up)
    report("criterion 6 (resolution of the identity)", passed,
           f"free {results['free']:.2e} <= 2e-3, small-well "
           f"{results['small-well']:.2e} <= 2e-3, regularized singular "
           f"{results['singular-regularized']:.2e} <= 5e-3, r=1 blow-up detected: "
           f"{blew_up}, {time.time() - t0:.1f}s")


def test_criterion_07_ads_theorem_finite():
    """20 seeded random 8x8 models: principal angles <= 1e-6."""
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        model, signs = F.random_spectrum_model(rng, size=8)
        basis = S.ads_basis(model, "+")
        ok_dim = basis.dim == int(np.sum(signs < 0))
        angle = float(np.max(basis.principal_angles)) if basis.dim else 0.0
        if not ok_dim:
            worst = math.inf
        worst = max(worst, angle)
    report("criterion 7 (ADS theorem, finite analogue)", worst <= 1e-6,
           f"worst principal angle {worst:.2e} <= 1e-6 over 20 seeded models, "
           f"{time.time() - t0:.1f}s")


def test_criterion_08_j_orthogonal_decomposition():
    """Seeded complex-symmetric models: completeness and J-orthogonality."""
    t0 = time.time()
    worst_sigma, worst_cross = math.inf, 0.0
    for size, n_real, seed in ((6, 2, 1), (8, 2, 2), (10, 4, 3)):
        rng = np.random.default_rng(seed)
        model = F.complex_symmetric_model(rng, size=size, n_real=n_real)
        rep = S.j_decomposition_report(model)
        worst_sigma = min(worst_sigma, rep["completeness_sigma_min"])
        worst_cross = max(worst_cross, rep["max_cross_bilinear"])
    passed = worst_sigma >= 1e-8 and worst_cross <= 1e-8
    report("criterion 8 (J-orthogonal decomposition)", passed,
           f"stacked-basis sigma_min {worst_sigma:.2e} >= 1e-8, cross pairing "
           f"{worst_cross:.2e} <= 1e-8, {time.time() - t0:.1f}s")


def test_criterion_09_ac_certificates():
    """Free continuum certificate matches the explicit evolution oracle
    within 10%; finite point-spectrum models refuse every u != 0."""
    t0 = time.time()
    free = M.radial_model(M.PotentialSpec(), s=1.5, length=14.0)
    w = M.GaussianBump(center=3.0, width=0.5)(free.grid.nodes)
    witnesses = [M.GaussianBump(center=c, width=wd)(free.grid.nodes)
                 for c, wd in ((2.0, 0.6), (3.5, 0.5), (5.0, 0.7))]
    cert = S.ac_certificate(free, w=w, witnesses=witnesses)
    rule = gauss_legendre(400, 1e-4, 9.0)
    cw = free.c_values * w
    tcw = C.mode_transform(free, cw, rule.nodes)
    oracle_vals = []
    for v in witnesses:
        tv = C.mode_transform(free, v, rule.nodes)
        num = (4.0 / math.pi) * float(
            rule.weights @ (np.abs(tcw) ** 2 * np.abs(tv) ** 2 / rule.nodes))
        oracle_vals.append(num / abs(C.grid_inner(free, v, v)))
    oracle = max(oracle_vals)
    rel = abs(cert.c_u - oracle) / oracle

    refused = 0
    trials = 5
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        model, _ = F.random_spectrum_model(rng, size=6)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        try:
            S.ac_certificate(model, u=u)
        except S.CertificateRefused:
            refused += 1
    passed = rel <= 0.10 and refused == trials
    report("criterion 9 (AC certificates)", passed,
           f"free c_u {cert.c_u:.4e} vs oracle {oracle:.4e} ({100 * rel:.2f}% <= 10%), "
           f"finite refusals {refused}/{trials}, {time.time() - t0:.1f}s")


def test_criterion_10_numerics_substrate():
    """100 seeded instances of every residual oracle in the substrate."""
    t0 = time.time()
    rng = np.random.default_rng(4321)
    failures = []
    for trial in range(100):
        n = 4 + int(rng.integers(0, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = N.eig(a)
        norm_a = np.linalg.norm(a, 2)
        for lam, vec in zip(res.eigenvalues, res.right_eigenvectors.T):
            if np.linalg.norm(a @ vec - lam * vec) > 1e-10 * norm_a * np.linalg.norm(vec):
                failures.append((trial, "eig"))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        well = a + 3 * n * np.eye(n)
        x = N.solve_linear(well, b)
        if np.linalg.norm(well @ x - b) > 1e-10 * np.linalg.norm(well, 2) * np.linalg.norm(x) \
                + 1e-13 * np.linalg.norm(b):
            failures.append((trial, "solve"))
        smin = N.smallest_singular_value(a)
        oracle = math.sqrt(max(np.linalg.eigvalsh(a.conj().T @ a).min(), 0.0))
        if abs(smin - oracle) > 1e-9 * max(1.0, oracle):
            failures.append((trial, "svd"))
        det = N.determinant(a)
        prod = np.prod(res.eigenvalues) if not res.defective else det
        if abs(det - prod) > 1e-8 * max(abs(prod), 1e-30):
            failures.append((trial, "det"))
        deg = int(rng.integers(1, 8))
        rule = N.gauss_legendre(deg + 1, -1.0, 2.0)
        coeffs = rng.standard_normal(deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        if abs(rule.integrate(poly(rule.nodes)) - exact) > 1e-11 * max(1.0, abs(exact)):
            failures.append((trial, "quadrature"))
        t = float(rng.uniform(-2, 2))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        one = N.matrix_exponential_apply(a, t, u)
        half = N.matrix_exponential_apply(a, t / 2, N.matrix_exponential_apply(a, t / 2, u))
        if np.linalg.norm(one - half) > 1e-9 * max(np.linalg.norm(one), 1e-30):
            failures.append((trial, "expm"))
    report("criterion 10 (numerics substrate)", not failures,
           f"100 seeded instances, failures: {failures[:5] or 'none'}, "
           f"{time.time() - t0:.1f}s")
