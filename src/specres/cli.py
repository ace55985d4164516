"""Batch front end: config ingestion, command dispatch, result persistence.

Invocation::

    specres <command> --config <path> [--out <dir>] [--format json|csv] [--threads N]

Commands: scan | resonant-state | project | evolve | verify | export.

The config file is INI-style with sections [model], [scan], [tolerances],
[regularizer], [verify] (see the README for the full schema).  Identical
config + seed produces byte-identical JSON output apart from the
wall-clock field.  Exit codes: 0 success, 1 a verify suite ran and one of
its checks failed, 2 schema violation or unknown suite, 3 inadmissible
range, 4 unwritable destination.

``--threads N`` (or the SPECRES_THREADS environment variable) sizes the
Python thread pool of the ``scan`` command only.  BLAS threads are limited
through ``threadpoolctl`` when it is installed and are otherwise left to
the BLAS environment variables (e.g. OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
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

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RANGE = 3
EXIT_WRITE = 4


class SchemaError(Exception):
    """Config fails the documented schema; message carries the field path."""


@dataclass
class RunConfig:
    model: dict
    scan: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    regularizer: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    @property
    def seed(self):
        return int(self.run.get("seed", self.verify.get("seed", 1234)))


@dataclass
class RunReport:
    command: str
    config: dict
    results: object
    wall_clock_s: float
    version: str
    diagnostics: dict = field(default_factory=dict)


def _parse_complex(text, path):
    try:
        return complex(str(text).replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise SchemaError(f"{path}: expected a complex number, got {text!r}") from exc


def _parse_float(section, key, path, default=None, positive=False):
    if key not in section:
        if default is None:
            raise SchemaError(f"{path}.{key}: required field missing")
        return default
    try:
        val = float(section[key])
    except ValueError as exc:
        raise SchemaError(f"{path}.{key}: expected a real number") from exc
    if positive and val <= 0:
        raise SchemaError(f"{path}.{key}: must be positive, got {val}")
    return val


def load_config(path):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise SchemaError(f"config file {path!r} not found or unreadable")
    if "model" not in parser:
        raise SchemaError("model: section missing")
    cfg = RunConfig(
        model=dict(parser["model"]),
        scan=dict(parser["scan"]) if "scan" in parser else {},
        tolerances=dict(parser["tolerances"]) if "tolerances" in parser else {},
        regularizer=dict(parser["regularizer"]) if "regularizer" in parser else {},
        verify=dict(parser["verify"]) if "verify" in parser else {},
        run=dict(parser["run"]) if "run" in parser else {},
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    m = cfg.model
    backend = m.get("backend")
    if backend not in ("radial", "line1d", "finite"):
        raise SchemaError(f"model.backend: must be radial|line1d|finite, got {backend!r}")
    if backend in ("radial", "line1d"):
        s = _parse_float(m, "weight_s", "model", default=1.5 if backend == "radial" else 1.0)
        if s <= 0:
            raise SchemaError(f"model.weight_s: must be positive, got {s}")
        pot = m.get("potential", "none")
        if pot not in ("none", "square_well", "piecewise"):
            raise SchemaError(f"model.potential: unknown kind {pot!r}")
        if pot == "square_well":
            _parse_complex(m.get("v0", "0"), "model.v0")
            _parse_float(m, "well_radius", "model", default=1.0, positive=True)
        _parse_float(m, "panels", "model", default=12.0, positive=True)
        _parse_float(m, "nodes_per_panel", "model", default=16.0, positive=True)
        if m.get("dissipative", "auto") not in ("auto", "true", "false"):
            raise SchemaError("model.dissipative: must be auto|true|false")
    else:
        _parse_float(m, "size", "model", default=8.0, positive=True)
    for section, name in ((cfg.run, "run"), (cfg.verify, "verify")):
        if "seed" in section:
            try:
                int(section["seed"])
            except ValueError as exc:
                raise SchemaError(
                    f"{name}.seed: expected an integer, got {section['seed']!r}") from exc
    for key in ("detection_threshold",):
        if key in cfg.scan:
            thr = _parse_float(cfg.scan, key, "scan", positive=True)
            if not (0 < thr < 0.5):
                raise SchemaError(f"scan.{key}: must lie in (0, 0.5)")
    for key in cfg.tolerances:
        _parse_float(cfg.tolerances, key, "tolerances", positive=True)


def build_model(cfg):
    m = cfg.model
    backend = m["backend"]
    if backend == "finite":
        n = int(float(m.get("size", 8)))
        kind = m.get("kind", "seeded_random")
        rng = np.random.default_rng(cfg.seed)
        if kind == "diag":
            diag = [_parse_complex(t, "model.diag")
                    for t in m.get("diag", "1, 2").split(",")]
            n = len(diag)
            h0 = np.diag([d.real for d in diag]).astype(complex)
            w = np.diag([complex(0, d.imag) for d in diag])
            return M.finite_model(h0, np.ones(n), w)
        if kind == "seeded_random":
            h0 = rng.standard_normal((n, n))
            h0 = (h0 + h0.T) / 2
            c = 0.5 + rng.random(n)
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return M.finite_model(h0.astype(complex), c, 0.3 * w)
        if kind == "complex_symmetric":
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = (a + a.T) / 2
            h0 = rng.standard_normal((n, n))
            h0 = (h0 + h0.T) / 2
            return M.finite_model(h0.astype(complex), np.ones(n), 0.4 * w)
        raise SchemaError(f"model.kind: unknown finite kind {kind!r}")
    pot_kind = m.get("potential", "none")
    if pot_kind == "none":
        pot = M.PotentialSpec()
    elif pot_kind == "square_well":
        pot = M.square_well(_parse_complex(m.get("v0", "0"), "model.v0"),
                            float(m.get("well_radius", 1.0)))
    else:
        pieces = []
        for chunk in m.get("pieces", "").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                a, b, v = chunk.split(":")
                pieces.append((float(a), float(b), _parse_complex(v, "model.pieces")))
            except ValueError as exc:
                raise SchemaError(
                    f"model.pieces: expected entries a:b:v, got {chunk!r}") from exc
        if not pieces:
            raise SchemaError("model.pieces: piecewise potential needs entries a:b:v")
        support = (min(p[0] for p in pieces), max(p[1] for p in pieces))
        pot = M.PotentialSpec(pieces=tuple(pieces), support=support)
    kwargs = dict(
        s=float(m.get("weight_s", 1.5 if backend == "radial" else 1.0)),
        panels=int(float(m.get("panels", 12))),
        nodes_per_panel=int(float(m.get("nodes_per_panel", 16))),
    )
    if backend == "radial":
        model = M.radial_model(pot, length=float(m.get("length", 14.0)), **kwargs)
    else:
        model = M.line_model(pot, half_length=float(m.get("half_length", 12.0)), **kwargs)
    declared = m.get("dissipative", "auto")
    if declared == "true" and not model.dissipative:
        raise SchemaError(
            "model.dissipative: declared dissipative but W2 has a negative part"
        )
    return model


def build_regularizer(cfg, model):
    r = cfg.regularizer
    if not r:
        return None
    z0 = _parse_complex(r.get("z0", "1+3j"), "regularizer.z0")
    sing = []
    for chunk in r.get("singularities", "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lam, nu = chunk.split(":")
        sing.append((float(lam), int(nu)))
    reg = calc.Regularizer(z0, tuple(sing), int(r.get("nu_infinity", 0)))
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


def cmd_scan(cfg, threads):
    model = build_model(cfg)
    s = cfg.scan
    lam_min = _parse_float(s, "lambda_min", "scan", default=1e-3)
    lam_max = _parse_float(s, "lambda_max", "scan", default=25.0)
    if not (0 <= lam_min < lam_max):
        raise AdmissibilityError(f"scan range [{lam_min}, {lam_max}] is empty or negative")
    n = int(_parse_float(s, "num_points", "scan", default=300.0, positive=True))
    thr = float(s.get("detection_threshold", bs.DETECTION_THRESHOLD))
    grid = np.linspace(lam_min, lam_max, n)
    profile = bs.sigma_profile(model, grid, threads=threads)
    reports = bs.classify_minima(
        model, grid, profile, detection_threshold=thr,
        estimate_orders=s.get("estimate_orders", "false").lower() == "true",
    )
    step = max(1, n // 64)
    sigma_grid = [
        {"lambda": float(l), "sigma_min_plus": float(sp), "sigma_min_minus": float(sm)}
        for l, sp, sm in zip(grid[::step], profile["+"][::step], profile["-"][::step])
    ]
    return {
        "detected": [r.as_record() for r in reports],
        "sigma_samples": sigma_grid,
        "grid": {"min": lam_min, "max": lam_max, "points": n, "threshold": thr},
    }


def cmd_resonant_state(cfg, threads):
    model = build_model(cfg)
    s = cfg.scan
    thr = float(s.get("detection_threshold", bs.DETECTION_THRESHOLD))
    if "lambda_star" in s:
        lam_star = _parse_float(s, "lambda_star", "scan")
        side = s.get("side", "+")
    else:
        result = cmd_scan(cfg, threads)
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


def cmd_project(cfg, threads):
    model = build_model(cfg)
    if model.backend == "finite":
        distinct = calc.distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-8)
        out = []
        for lam in distinct:
            radius = max(min(abs(lam - d) for d in distinct if d != lam) / 3, 1e-3) \
                if len(distinct) > 1 else 0.3
            proj = calc.riesz_projection(model, lam, radius)
            out.append({
                "lambda": lam, "rank": proj.rank,
                "idempotency": proj.idempotency, "commutation": proj.commutation,
            })
        return {"projections": out}
    reg = cfg.regularizer
    lam = _parse_complex(reg.get("eigenvalue", "-2-0.2j"), "regularizer.eigenvalue") \
        if reg else None
    if lam is None:
        roots = bs.locate_eigenvalues(model)
        if not roots:
            raise AdmissibilityError("no discrete eigenvalue found to project onto")
        lam = roots[0]["z"]
    proj = calc.riesz_projection(model, lam, 0.1)
    return {"projections": [{"lambda": complex(lam), "rank": proj.rank,
                             "trace": proj.diagnostics["trace"]}]}


def cmd_evolve(cfg, threads):
    model = build_model(cfg)
    if model.backend != "finite":
        raise AdmissibilityError("evolution curves run on the finite backend")
    rng = np.random.default_rng(cfg.seed)
    n = model.size
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = cfg.scan
    t_max = _parse_float(s, "t_max", "scan", default=20.0)
    n_t = int(_parse_float(s, "num_points", "scan", default=201.0, positive=True))
    curve = sub.evolve_norm_curve(model, u, np.linspace(0.0, t_max, n_t))
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
        model = build_model(RunConfig(model={"backend": "finite", "size": "6"},
                                      run={"seed": str(cfg.seed)}))
    distinct = calc.distinct_eigenvalues(np.linalg.eigvals(model.h), tol=1e-6)
    checks = []
    projs = []
    for lam in distinct[:4]:
        others = [abs(lam - d) for d in distinct if d != lam]
        radius = max(min(others) / 3, 1e-3) if others else 0.3
        p = calc.riesz_projection(model, lam, radius)
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
        model = build_model(RunConfig(model={
            "backend": "radial", "potential": "square_well", "v0": "0.3-0.2j",
            "weight_s": "1.5", "length": "14.0"}))
    g = model.grid
    u = M.GaussianBump(center=3.0, width=0.6)(g.nodes)
    v = M.GaussianBump(center=2.5, width=0.8)(g.nodes)
    interval = (1.0, 4.0)
    form = calc.stone_form(model, interval, u, v)
    from .numerics import LimitSequence, extrapolate_to_zero

    eps = np.geomspace(0.1, 0.1 / 2**4, 5)
    direct = []
    for e in eps:
        rule_vals = []
        from .numerics import gauss_legendre

        rule = gauss_legendre(48, *interval)
        for lam in rule.nodes:
            plus, _, _ = bs.resolvent_H_apply(model, v, z=lam + 1j * e)
            minus, _, _ = bs.resolvent_H_apply(model, v, z=lam - 1j * e)
            rule_vals.append(calc.grid_inner(model, u, plus - minus))
        direct.append(rule.weights @ np.asarray(rule_vals) / (2j * np.pi))
    ext, err, _ = extrapolate_to_zero(LimitSequence(eps, direct, order=3))
    rel = abs(ext - form) / max(abs(form), 1e-300)
    return [{"name": "stone_boundary_vs_smoothed", "value": float(rel),
             "tol": 2e-3, "passed": rel <= 2e-3}]


def _verify_resolution(cfg, model, rng):
    if model.backend == "finite":
        model = build_model(RunConfig(model={"backend": "radial", "potential": "none",
                                             "weight_s": "1.5", "length": "14.0"}))
    reg = build_regularizer(cfg, model) or calc.Regularizer(
        complex(1.0, 3.0), (), 0)
    prof_u = M.GaussianBump(center=3.0, width=0.6)
    prof_v = M.GaussianBump(center=2.5, width=0.8)
    u = prof_u(model.grid.nodes)
    v = prof_v(model.grid.nodes)
    try:
        rows = calc.resolution_residual(
            model, reg, [(u, v)], d2_profiles=[prof_v.second_derivative])
    except calc.IntegrandBlowupError as exc:
        return [{"name": "resolution_residual", "value": None,
                 "tol": 2e-3, "passed": False, "diagnostic": str(exc)}]
    val = rows[0]["residual"]
    return [{"name": "resolution_residual", "value": val, "tol": 2e-3,
             "passed": val <= 2e-3}]


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
    if model.backend != "finite":
        fin = build_model(RunConfig(model={"backend": "finite", "size": "6"},
                                    run={"seed": str(cfg.seed)}))
    else:
        fin = model
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
        model = build_model(RunConfig(model={
            "backend": "radial", "potential": "square_well", "v0": "-2j",
            "weight_s": "1.5", "length": "14.0"}))
    rep = bs.dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=150)
    return [{"name": "no_outgoing_singularities", "value": rep["outgoing_sigma_min"],
             "tol": 1e-2, "passed": rep["passed"] and rep["outgoing_sigma_min"] >= 1e-2}]


def _verify_bounds(cfg, model, rng):
    if model.backend == "finite":
        model = build_model(RunConfig(model={"backend": "radial", "potential": "none",
                                             "weight_s": "1.5", "length": "14.0"}))
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


def cmd_verify(cfg, threads):
    suite = cfg.verify.get("suite")
    if suite not in VERIFY_SUITES:
        raise SchemaError(
            f"verify.suite: unknown suite {suite!r}; choose from {sorted(VERIFY_SUITES)}"
        )
    rng = np.random.default_rng(cfg.seed)
    model = build_model(cfg)
    checks = VERIFY_SUITES[suite](cfg, model, rng)
    return {"suite": suite, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def cmd_export(cfg, threads, report_path=None, fmt="json", out_dir="."):
    with open(report_path) as fh:
        payload = json.load(fh)
    base = os.path.join(out_dir, "export")
    if fmt == "json":
        path = base + ".json"
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return {"written": [path]}
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
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--report", default=None, help="input report for export")
    args = parser.parse_args(argv)

    threads = args.threads
    env_threads = os.environ.get("SPECRES_THREADS")
    if env_threads:
        threads = int(env_threads)
    if threads is None:
        threads = os.cpu_count() or 1
    try:
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=max(1, threads))
    except Exception:
        pass

    t0 = time.time()
    try:
        if args.command == "export":
            if not args.report:
                raise SchemaError("export needs --report <json path>")
            results = cmd_export(None, threads, report_path=args.report,
                                 fmt=args.format, out_dir=args.out)
            cfg_dict = {}
        else:
            if not args.config:
                raise SchemaError("missing --config <path>")
            cfg = load_config(args.config)
            results = COMMANDS[args.command](cfg, threads)
            cfg_dict = {k: getattr(cfg, k) for k in
                        ("model", "scan", "tolerances", "regularizer", "verify", "run")}
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
