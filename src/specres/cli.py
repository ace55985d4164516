"""Batch front end: config ingestion, command dispatch, result persistence.

Invocation::

    specres <command> --config <path> [--out <dir>] [--format json|csv] [--threads N]

Commands: scan | resonant-state | project | evolve | verify | export.

The config file is INI-style with the sections [model], [scan],
[regularizer], [verify] and [run]; ``specres.cli.FIELDS`` is the schema
and names every field with its type and bounds.  Identical config + seed
produces byte-identical JSON output apart from the wall-clock field.
Exit codes: 0 success, 1 a verify suite ran and one of its checks failed,
2 schema violation (malformed INI, unknown section or field, malformed or
out-of-bounds value; the message names <section>.<key>), 3 inadmissible
range, 4 unwritable destination.

``--threads N`` (default: every CPU; below 1 is a schema violation) caps
the threads a command runs on, the calling thread included: the stacks of
spectral points of ``birman_schwinger.over_stacks`` share at most
min(N, 2), and the BLAS threads are limited to N through
``threadpoolctl`` when it is installed, else left to the BLAS
environment variables (e.g. OPENBLAS_NUM_THREADS).  Reports do not depend on N.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from . import __version__
from . import birman_schwinger as bs
from . import calculus as calc
from . import model as M
from . import subspaces as sub
from .model import AdmissibilityError, ModelError
from .numerics import LimitSequence, extrapolate_to_zero, gauss_legendre

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RANGE = 3
EXIT_WRITE = 4


class SchemaError(Exception):
    """Config fails the documented schema; message carries the field path."""


@dataclass
class RunReport:
    command: str
    config: dict
    results: object
    wall_clock_s: float
    version: str
    diagnostics: dict = field(default_factory=dict)


def _checked(parse, holds, rule):
    """``parse`` followed by the bound ``holds(value)``, described as ``rule``."""
    def checked(text):
        val = parse(text)
        if not holds(val):
            raise ValueError(f"must be {rule}")
        return val
    return checked


def _one_of(*options):
    return _checked(str, options.__contains__, "|".join(options))


def _boolean(text):
    return _one_of("true", "false")(text.lower()) == "true"


def _integer(text):
    """An integer, also written as an integral float such as 12.0 or 1e3."""
    try:
        return int(text)
    except ValueError:
        return int(_checked(float, float.is_integer, "an integer")(text))


def _entries(form, *parts, sep=";"):
    """A ``sep``-separated list of entries ``p1:p2:...`` parsed by ``parts``;
    an entry of one part is its bare value."""
    def parse(text):
        out = []
        for chunk in filter(None, (c.strip() for c in text.split(sep))):
            try:
                vals = tuple(p(t) for p, t in zip(parts, chunk.split(":"), strict=True))
            except ValueError:
                raise ValueError(f"expected entries {form}, got {chunk!r}") from None
            out.append(vals if len(vals) > 1 else vals[0])
        return tuple(out)
    return parse


_real = _checked(float, math.isfinite, "finite")
# written with i or j, e.g. -2-0.2i or (1+3j)
_complex = _checked(lambda text: complex(text.replace(" ", "").replace("i", "j")),
                    cmath.isfinite, "finite")
_positive_real = _checked(_real, lambda v: v > 0, "positive")
_positive_int = _checked(_integer, lambda v: v > 0, "positive")
_count = _checked(_integer, lambda v: v >= 0, "non-negative")


def _grid_count(most):
    """A positive integer at most ``most``.  A model allocates N x N kernels
    and, on the continuum, P n^3 partial-integral tensors, so the grid is
    bounded: 64 panels of at most 64 nodes, or a finite model of size 4096."""
    return _checked(_positive_int, lambda v: v <= most, f"at most {most}")


#: The config schema, section -> field -> parser.  A parser takes the raw
#: text and returns the typed value or raises ValueError with the reason.
#: Geometry fields that a config leaves out keep the defaults of the model
#: constructors; other defaults sit at their one use below.
FIELDS = {
    "model": {
        "backend": _one_of("radial", "line1d", "finite"),
        "potential": _one_of("none", "square_well", "piecewise"),
        "v0": _complex,
        "well_radius": _positive_real,
        "pieces": _checked(_entries("a:b:v", _real, _real, _complex),
                           lambda ps: ps and all(a < b for a, b, _ in ps),
                           "non-empty, each entry with a < b"),
        "weight_s": _positive_real,
        "length": _positive_real,
        "half_length": _positive_real,
        "panels": _grid_count(64),
        "nodes_per_panel": _grid_count(64),
        "dissipative": _one_of("auto", "true", "false"),
        "kind": _one_of("seeded_random", "complex_symmetric", "diag"),
        "size": _grid_count(4096),
        "diag": _checked(_entries("z1, z2, ...", _complex, sep=","), len, "non-empty"),
    },
    "scan": {
        "lambda_min": _real,
        "lambda_max": _real,
        "num_points": _positive_int,
        "detection_threshold": _checked(_real, lambda v: 0 < v < 0.5, "in (0, 0.5)"),
        "estimate_orders": _boolean,
        "lambda_star": _real,
        "side": _one_of("+", "-"),
        "t_max": _positive_real,
    },
    "regularizer": {
        "z0": _complex,
        "singularities": _entries("lam:nu", _real, _count),
        "nu_infinity": _count,
        "eigenvalue": _complex,
    },
    # the suites are registered below, with their code
    "verify": {"suite": lambda text: _one_of(*VERIFY_SUITES)(text), "seed": _count},
    "run": {"seed": _count},
}


def load_config(path):
    """(values, text) of a config file: section -> field -> parsed value,
    and section -> field -> raw text, for every section of ``FIELDS``."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read the config file: {exc}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed config file: {exc}") from None
    values = {name: {} for name in FIELDS}
    for name in parser.sections():
        if name not in FIELDS:
            paths = [f"{name}.{key}" for key in parser[name]] or [name]
            raise SchemaError(f"{paths[0]}: unknown section [{name}]; "
                              f"sections are {', '.join(FIELDS)}")
        for key, raw in parser[name].items():
            if key not in FIELDS[name]:
                raise SchemaError(f"{name}.{key}: unknown field")
            try:
                values[name][key] = FIELDS[name][key](raw)
            except ValueError as exc:
                raise SchemaError(f"{name}.{key} = {raw!r}: {exc}") from None
    if "backend" not in values["model"]:
        raise SchemaError("model.backend: required field missing")
    return values, {name: dict(parser[name]) if parser.has_section(name) else {}
                    for name in FIELDS}


def _seed(cfg):
    return cfg["run"].get("seed", cfg["verify"].get("seed", 1234))


def _given(section, **keys):
    """Keyword arguments ``arg=section[key]`` for the keys that are set."""
    return {arg: section[key] for arg, key in keys.items() if key in section}


def _finite_model(m, seed):
    """The finite model of a [model] section; seeded kinds draw from ``seed``."""
    kind = m.get("kind", "seeded_random")
    if kind == "diag":
        diag = m.get("diag", (1.0, 2.0))
        h0 = np.diag([d.real for d in diag]).astype(complex)
        w = np.diag([complex(0, d.imag) for d in diag])
        return M.finite_model(h0, np.ones(len(diag)), w)
    n = m.get("size", 8)
    rng = np.random.default_rng(seed)
    if kind == "seeded_random":
        h0 = rng.standard_normal((n, n))
        h0 = (h0 + h0.T) / 2
        c = 0.5 + rng.random(n)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return M.finite_model(h0.astype(complex), c, 0.3 * w)
    # complex_symmetric: a is drawn before h0
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = (a + a.T) / 2
    h0 = rng.standard_normal((n, n))
    h0 = (h0 + h0.T) / 2
    return M.finite_model(h0.astype(complex), np.ones(n), 0.4 * w)


def build_model(cfg):
    m = cfg["model"]
    if m["backend"] == "finite":
        return _finite_model(m, _seed(cfg))
    kind = m.get("potential", "none")
    if kind == "square_well":
        pot = M.square_well(m.get("v0", 0j), **_given(m, radius="well_radius"))
    elif kind == "piecewise":
        if "pieces" not in m:
            raise SchemaError("model.pieces: required by potential = piecewise")
        pieces = m["pieces"]
        pot = M.PotentialSpec(pieces=pieces, support=(min(p[0] for p in pieces),
                                                      max(p[1] for p in pieces)))
    else:
        pot = M.PotentialSpec()
    grid = _given(m, s="weight_s", panels="panels", nodes_per_panel="nodes_per_panel")
    if m["backend"] == "radial":
        model = M.radial_model(pot, **grid, **_given(m, length="length"))
    else:
        model = M.line_model(pot, **grid, **_given(m, half_length="half_length"))
    if m.get("dissipative") == "true" and not model.dissipative:
        raise SchemaError(
            "model.dissipative: declared dissipative but W2 has a negative part"
        )
    return model


def build_regularizer(cfg, model):
    r = cfg["regularizer"]
    if not r:
        return None
    reg = calc.Regularizer(r.get("z0", 1 + 3j), r.get("singularities", ()),
                           r.get("nu_infinity", 0))
    reg.validate(model)
    return reg


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.complexfloating,)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def write_json(report, path):
    payload = _jsonify(report)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def write_scan_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "sigma_min_plus", "sigma_min_minus", "class", "nu"])
        for r in records:
            writer.writerow([repr(r["lambda"]), repr(r["sigma_min_plus"]),
                             repr(r["sigma_min_minus"]), r["class"],
                             "" if r.get("nu") is None else r["nu"]])
    return path


def write_curve_csv(times, norms, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "norm"])
        for t, n in zip(times, norms):
            writer.writerow([repr(float(t)), repr(float(n))])
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_scan(cfg):
    model = build_model(cfg)
    s = cfg["scan"]
    lam_min, lam_max = s.get("lambda_min", 1e-3), s.get("lambda_max", 25.0)
    if not (0 <= lam_min < lam_max):
        raise AdmissibilityError(f"scan range [{lam_min}, {lam_max}] is empty or negative")
    n = s.get("num_points", 300)
    thr = s.get("detection_threshold", bs.DETECTION_THRESHOLD)
    grid = np.linspace(lam_min, lam_max, n)
    profile = bs.sigma_profile(model, grid)
    reports = bs.classify_minima(
        model, grid, profile, detection_threshold=thr,
        estimate_orders=s.get("estimate_orders", False),
    )
    step = max(1, n // 64)
    sigma_grid = [
        {"lambda": float(l), "sigma_min_plus": float(sp), "sigma_min_minus": float(sm)}
        for l, sp, sm in zip(grid[::step], profile["+"][::step], profile["-"][::step])
    ]
    return {
        "detected": [r.as_record() for r in reports],
        "candidates_refined": len(bs.candidate_minima(grid, profile)),
        "sigma_samples": sigma_grid,
        "grid": {"min": lam_min, "max": lam_max, "points": n, "threshold": thr,
                 "merge_width": bs.MERGE_WIDTH, "max_scan_energy": model.max_scan_energy()},
    }


def cmd_resonant_state(cfg):
    model = build_model(cfg)
    s = cfg["scan"]
    thr = s.get("detection_threshold", bs.DETECTION_THRESHOLD)
    if "lambda_star" in s:
        lam_star, side = s["lambda_star"], s.get("side", "+")
    else:
        result = cmd_scan(cfg)
        if not result["detected"]:
            raise AdmissibilityError("no spectral singularity detected in the scan range")
        rec = result["detected"][0]
        lam_star, side = rec["lambda"], "+" if "out" in rec["class"] or rec["class"] == "both" else "-"
    state = bs.resonant_state(model, lam_star, side, detection_threshold=max(thr, 1e-3))
    return {
        "lambda": state.lam,
        "side": state.side,
        "residual": state.residual,
        "tail_amplitude": complex(state.tail_amplitude),
        "tail_fit_relative_error": state.tail_fit_relerr,
        "kernel_residual": state.kernel_residual,
        "classification": bs.embedded_eigenvalue_test(state),
        "psi_samples": [complex(x) for x in state.psi_samples],
        "grid_nodes": [float(x) for x in model.grid.nodes],
    }


def _isolating_radius(lam, distinct):
    """The contour radius of a finite Riesz projection at lam."""
    others = [abs(lam - d) for d in distinct if d != lam]
    return max(min(others) / 3, 1e-3) if others else 0.3


def cmd_project(cfg):
    model = build_model(cfg)
    if model.backend == "finite":
        distinct = calc.distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-8)
        out = []
        for lam in distinct:
            proj = calc.riesz_projection(model, lam, _isolating_radius(lam, distinct))
            out.append({
                "lambda": lam, "rank": proj.rank,
                "idempotency": proj.idempotency, "commutation": proj.commutation,
            })
        return {"projections": out}
    lam = cfg["regularizer"].get("eigenvalue")
    if lam is None:
        roots = bs.locate_eigenvalues(model)
        if not roots:
            raise AdmissibilityError("no discrete eigenvalue found to project onto")
        lam = roots[0]["z"]
    proj = calc.riesz_projection(model, lam, 0.1)
    return {"projections": [{"lambda": complex(lam), "rank": proj.rank,
                             "trace": proj.diagnostics["trace"]}]}


def cmd_evolve(cfg):
    model = build_model(cfg)
    if model.backend != "finite":
        raise AdmissibilityError("evolution curves run on the finite backend")
    rng = np.random.default_rng(_seed(cfg))
    n = model.size
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = cfg["scan"]
    times = np.linspace(0.0, s.get("t_max", 20.0), s.get("num_points", 201))
    curve = sub.evolve_norm_curve(model, u, times)
    return {
        "classification": curve.classification,
        "rate": curve.rate,
        "fit_residual": curve.fit_residual,
        "truncated": curve.truncated,
        "times": [float(t) for t in curve.times],
        "norms": [float(x) for x in curve.norms],
    }


def _verify_projections(cfg, model, rng):
    if model.backend != "finite":
        model = _finite_model({"size": 6}, _seed(cfg))
    distinct = calc.distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-6)
    checks = []
    projs = []
    for lam in distinct[:4]:
        p = calc.riesz_projection(model, lam, _isolating_radius(lam, distinct))
        projs.append(p)
        checks.append({"name": f"idempotency@{lam:.3f}", "value": p.idempotency,
                       "tol": 1e-8, "passed": p.idempotency <= 1e-8})
        checks.append({"name": f"commutation@{lam:.3f}", "value": p.commutation,
                       "tol": 1e-8, "passed": p.commutation <= 1e-8})
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            val = float(np.linalg.norm(projs[i].matrix @ projs[j].matrix, 2))
            checks.append({"name": f"orthogonality@{i},{j}", "value": val,
                           "tol": 1e-8, "passed": val <= 1e-8})
    return checks


def _verify_stone(cfg, model, rng):
    if model.backend == "finite":
        model = M.radial_model(M.square_well(0.3 - 0.2j))
    g = model.grid
    u = M.GaussianBump(center=3.0, width=0.6)(g.nodes)
    v = M.GaussianBump(center=2.5, width=0.8)(g.nodes)
    interval = (1.0, 4.0)
    form = calc.stone_form(model, interval, u, v)
    rule = gauss_legendre(48, *interval)
    eps = np.geomspace(0.1, 0.1 / 2**4, 5)
    # F(lam +/- i e), F = <u, R_H v>, at every node and every e in one sweep;
    # each e's sum stays a 1-D dot: a matmul over all e would round it otherwise
    plus, minus = calc._batched_forms(model, (rule.nodes + 1j * eps[:, None]).ravel(), [(u, v)])
    jumps = (plus - minus)[:, 0].reshape(eps.size, -1)
    direct = [rule.weights @ d / (2j * np.pi) for d in jumps]
    ext, err, _ = extrapolate_to_zero(LimitSequence(eps, direct, order=3))
    rel = abs(ext - form) / max(abs(form), 1e-300)
    return [{"name": "stone_boundary_vs_smoothed", "value": float(rel),
             "tol": 2e-3, "passed": rel <= 2e-3, "error_estimate": float(err)}]


def _verify_resolution(cfg, model, rng):
    if model.backend == "finite":
        model = M.radial_model(M.PotentialSpec())
    reg = build_regularizer(cfg, model) or calc.Regularizer(complex(1.0, 3.0), (), 0)
    u = M.GaussianBump(center=3.0, width=0.6)(model.grid.nodes)
    v = M.GaussianBump(center=2.5, width=0.8)(model.grid.nodes)
    try:
        rows = calc.resolution_residual(model, reg, [(u, v)])
    except calc.IntegrandBlowupError as exc:
        return [{"name": "resolution_residual", "value": None,
                 "tol": 2e-3, "passed": False, "diagnostic": str(exc)}]
    val = rows[0]["residual"]
    return [{"name": "resolution_residual", "value": val, "tol": 2e-3,
             "passed": val <= 2e-3, "tail_estimate": rows[0]["tail_estimate"]}]


def _verify_ads(cfg, model, rng):
    from .families import random_spectrum_model

    checks = []
    for trial in range(3):
        mdl, im_signs = random_spectrum_model(rng, size=8)
        basis = sub.ads_basis(mdl, "+")
        worst = float(np.max(basis.principal_angles)) if basis.dim else 0.0
        expected = int(np.sum(im_signs < 0))
        checks.append({
            "name": f"ads_plus_angles_trial{trial}", "value": worst, "tol": 1e-6,
            "passed": worst <= 1e-6 and basis.dim == expected,
        })
    return checks


def _verify_ac(cfg, model, rng):
    fin = model if model.backend == "finite" else _finite_model({"size": 6}, _seed(cfg))
    u = rng.standard_normal(fin.size) + 1j * rng.standard_normal(fin.size)
    try:
        sub.ac_certificate(fin, u=u)
        refused = False
    except sub.CertificateRefused:
        refused = True
    return [{"name": "finite_certificate_refused", "value": refused,
             "tol": True, "passed": refused}]


def _verify_dissipative(cfg, model, rng):
    if model.backend == "finite" or not model.dissipative:
        model = M.radial_model(M.square_well(-2j))
    rep = bs.dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=150)
    return [{"name": "no_outgoing_singularities", "value": rep["outgoing_sigma_min"],
             "tol": 1e-2, "passed": rep["passed"] and rep["outgoing_sigma_min"] >= 1e-2}]


def _verify_bounds(cfg, model, rng):
    if model.backend == "finite":
        model = M.radial_model(M.PotentialSpec())
    eps = np.geomspace(1e-1, 1e-4, 10)
    rep = bs.epsilon_bounds_check(model, 4.0, eps)
    e0 = rep.exponents["r0c"]["exponent"]
    e1 = rep.exponents["rh"]["exponent"]
    return [
        {"name": "r0c_exponent", "value": e0, "tol": 0.05,
         "passed": abs(e0 - 0.5) <= 0.05},
        {"name": "rh_exponent", "value": e1, "tol": 1.05, "passed": e1 <= 1.05},
        {"name": "norm_identity", "value": rep.identity_relative_error, "tol": 1e-10,
         "passed": rep.identity_relative_error <= 1e-10},
    ]


VERIFY_SUITES = {
    "projections": _verify_projections,
    "stone": _verify_stone,
    "resolution": _verify_resolution,
    "ads": _verify_ads,
    "ac": _verify_ac,
    "dissipative": _verify_dissipative,
    "bounds": _verify_bounds,
}


def cmd_verify(cfg):
    suite = cfg["verify"].get("suite")
    if suite is None:
        raise SchemaError(f"verify.suite: required, one of {'|'.join(VERIFY_SUITES)}")
    rng = np.random.default_rng(_seed(cfg))
    model = build_model(cfg)
    checks = VERIFY_SUITES[suite](cfg, model, rng)
    return {"suite": suite, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def cmd_export(report_path, fmt, out_dir):
    try:
        with open(report_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read the report file: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed report file: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("results", {}), dict):
        raise SchemaError("malformed report file: not a report object")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "export")
    if fmt == "json":
        return {"written": [write_json(payload, base + ".json")]}
    written = []
    results = payload.get("results", {})
    if "detected" in results:
        path = base + "_scan.csv"
        write_scan_csv(results["detected"], path)
        written.append(path)
    if "times" in results:
        path = base + "_curve.csv"
        write_curve_csv(results["times"], results["norms"], path)
        written.append(path)
    if not written:
        raise SchemaError("report contains no exportable curves or scans")
    return {"written": written}


COMMANDS = {
    "scan": cmd_scan,
    "resonant-state": cmd_resonant_state,
    "project": cmd_project,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="specres", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS) + ["export"])
    parser.add_argument("--config", required=False)
    parser.add_argument("--out", default=".")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--report", default=None, help="input report for export")
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        if args.threads < 1:
            raise SchemaError(f"--threads must be at least 1, got {args.threads}")
        try:
            from threadpoolctl import threadpool_limits

            threadpool_limits(limits=args.threads)
        except Exception:
            pass
        if args.command == "export":
            if not args.report:
                raise SchemaError("export needs --report <json path>")
            results = cmd_export(args.report, args.format, args.out)
            cfg_dict = {}
        else:
            if not args.config:
                raise SchemaError("missing --config <path>")
            cfg, cfg_dict = load_config(args.config)
            with bs.thread_cap(args.threads):
                results = COMMANDS[args.command](cfg)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except AdmissibilityError as exc:
        print(f"inadmissible request: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_RANGE

    report = RunReport(
        command=args.command,
        config=cfg_dict,
        results=results,
        wall_clock_s=time.time() - t0,
        version=__version__,
    )
    try:
        os.makedirs(args.out, exist_ok=True)
        out_json = os.path.join(args.out, f"{args.command.replace('-', '_')}_report.json")
        write_json(report, out_json)
        written = [out_json]
        if args.format == "csv" and args.command == "scan":
            written.append(write_scan_csv(
                results["detected"], os.path.join(args.out, "scan.csv")))
        if args.format == "csv" and args.command == "evolve":
            written.append(write_curve_csv(
                results["times"], results["norms"], os.path.join(args.out, "evolve.csv")))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE
    for path in written:
        print(path)
    if args.command == "verify" and not results.get("passed", False):
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
