"""Self-tests of the benchmark's own arithmetic and oracles.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from tracing import distinct_ratio, layer_metrics, self_times  # noqa: E402


def span(name, layer, start, end, parent, key=None):
    return [name, layer, start, end, parent, 0, key]


def test_self_times_of_nested_spans():
    spans = [
        span("cli.main", "cli", 0.0, 10.0, -1),
        span("birman_schwinger.sigma_min", "birman_schwinger", 1.0, 4.0, 0),
        span("linalg.svd", "linalg", 2.0, 3.0, 1, (192, False)),
        span("birman_schwinger.sigma_min", "birman_schwinger", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("calculus.stone_form", "calculus", 0.0, 10.0, -1),
        span("model.apply", "model", 1.0, 5.0, 0),
        span("model.apply", "model", 3.0, 6.0, 0),
        span("model.apply", "model", 9.0, 12.0, 0),   # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_distinct_ratio():
    assert distinct_ratio([("m", 1.0, "+"), ("m", 1.0, "+"), ("m", 1.0, "-"),
                           ("m", 2.0, "+")]) == pytest.approx(0.75)
    assert distinct_ratio([]) == 0.0


def test_layer_metrics_attribute_calls_to_the_calling_layer():
    spans = [
        span("cli.main", "cli", 0.0, 10.0, -1),
        span("birman_schwinger.sigma_min", "birman_schwinger", 1.0, 2.0, 0, ("m", 1.0, "+")),
        span("calculus.stone_form", "calculus", 3.0, 9.0, 0),
        span("birman_schwinger.sigma_min", "birman_schwinger", 4.0, 5.0, 2, ("m", 1.0, "+")),
        span("model.assemble", "model", 6.0, 7.0, 2, ("m", 2.0)),
    ]
    m = layer_metrics(spans, traced_wall_s=10.0, untraced_wall_s=9.5)
    assert m["cli.sigma_min.calls"][0] == 1
    assert m["calculus.sigma_min.calls"][0] == 1
    assert m["birman_schwinger.sigma_min.distinct_ratio"][0] == pytest.approx(0.5)
    assert m["calculus.assemble_per_form"][0] == pytest.approx(1.0)
    assert m["cli.self_s"][0] == pytest.approx(10.0 - 1.0 - 6.0)
    assert m["calculus.self_s"][0] == pytest.approx(6.0 - 2.0)
    assert m["trace.overhead_s"][0] == pytest.approx(0.5)
    assert m["trace.coverage"][0] == pytest.approx(1.0)


def test_tracer_records_the_layers_of_one_sigma_min_and_restores_them():
    import numpy as np
    from specres import birman_schwinger as bs
    from specres import model as M

    well = M.radial_model(M.square_well(-2.0 - 1.0j), panels=4, nodes_per_panel=8)
    originals = (bs.sigma_min, M.FreeResolventAction.matrix, np.linalg.svd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bs.sigma_min(well, 1.5, "+")
    finally:
        tracer.uninstall()
    assert (bs.sigma_min, M.FreeResolventAction.matrix, np.linalg.svd) == originals
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names[0] == "birman_schwinger.sigma_min"
    for name in ("birman_schwinger.bs_matrix", "model.assemble", "linalg.svd"):
        assert name in names
    svd = tracer.spans[names.index("linalg.svd")]
    assert tracer.spans[svd[tracing.PARENT]][tracing.NAME] == "birman_schwinger.sigma_min"
    assert svd[tracing.KEY] == (well.size, False)


def test_jost_newton_reproduces_the_complex_well_eigenvalue():
    expected = -6.2926118946522 - 1.7342997242601j
    z = oracles.jost_eigenvalue(-6.0 - 1.5j, -12.0 - 2.0j)
    assert abs(z - expected) <= 1e-12 * abs(expected)
    window = oracles.jost_eigenvalues(-12.0 - 2.0j, (-10.0, 30.0), (-6.0, 6.0))
    assert len(window) == 1 and abs(window[0] - expected) <= 1e-12 * abs(expected)


def test_jost_function_vanishes_at_the_tuned_resonance():
    from specres import families

    v0 = families.tune_outgoing_resonance(1.0)
    assert oracles.resonance_residual(v0, 1.0) < 1e-12
    assert oracles.resonance_residual(v0, 1.01) > 1e-4


def test_intersection_residual_is_relative_to_the_pair_norms():
    prod, inter = [1.0 + 1e-3j, 0.5], [1.0, 0.5 + 2e-3]
    assert oracles.intersection_residual(prod, inter, [2.0, 2.0]) == pytest.approx(1e-3)
