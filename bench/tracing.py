"""Outside-in span tracing of the ``specres`` layers.

The tracer wraps, from outside the program, the public functions of each
``specres`` module, the free-kernel assembly and application methods of
``FreeResolventAction``, the formation of K (``_k_from_action``) and the
dense factorizations at the numpy.linalg / scipy.linalg boundary.  While
installed, every call into a wrapped function records one span: name,
layer, start, end, parent span and operation id, plus a small key used
for counting distinct work.  Spans live in memory; metrics are computed
after the traced pass.  ``uninstall`` restores every original, so an
untraced pass runs the program unmodified.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy.linalg
import scipy.linalg

#: specres modules whose public functions are wrapped, one layer each
LAYER_MODULES = ("cli", "birman_schwinger", "model", "calculus", "subspaces",
                 "numerics", "families")

# span record fields
NAME, LAYER, START, END, PARENT, OP, KEY = range(7)


def _complex_flops(kind, n, nrhs=0, vectors=False):
    """Real floating-point operations of a dense complex factorization of
    order n, from textbook LAPACK counts (complex arithmetic = 4x real)."""
    if kind == "svd":
        real = 21.0 * n**3 if vectors else 8.0 / 3.0 * n**3
    else:  # LU, with triangular solves for nrhs right-hand sides
        real = 2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs
    return 4.0 * real


class Tracer:
    """Records spans around calls into the wrapped layers."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._local = threading.local()
        self._patches = []
        self._keep = {}   # objects whose id() is a key stay alive while tracing

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, layer, key, fn, args, kwargs):
        stack = self._stack()
        rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, key]
        index = len(self.spans)
        self.spans.append(rec)
        stack.append(index)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    def _model_key(self, model):
        self._keep[id(model)] = model
        return id(model)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, layer, key_of=None):
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs) if key_of else None
            return self._call(name, layer, key, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer boundary; ``uninstall`` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"specres.{name}") for name in LAYER_MODULES}
        bs, model = mods["birman_schwinger"], mods["model"]
        wrapped = {}   # original function -> wrapper

        def sigma_key(args, kwargs):
            bound = dict(zip(("model", "lam", "side"), args), **kwargs)
            return (self._model_key(bound["model"]), float(bound["lam"]), bound["side"])

        def pairs_key(args, kwargs):
            pairs = args[3] if len(args) > 3 else kwargs["pairs"]
            return len(pairs)

        # K is formed by _k_from_action, reached through bs_matrix or
        # z_operator; one span per K formed, under the public name
        special = {
            (bs, "sigma_min"): ("birman_schwinger.sigma_min", sigma_key),
            (bs, "_k_from_action"): ("birman_schwinger.bs_matrix", None),
            (mods["calculus"], "stone_product_forms"): ("calculus.stone_product_forms", pairs_key),
        }
        unwrapped = {(bs, "bs_matrix"), (bs, "z_operator")}
        for layer, mod in mods.items():
            for n, fn in list(vars(mod).items()):
                public = not n.startswith("_") or (mod, n) in special
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or not public or (mod, n) in unwrapped):
                    continue
                span_name, key_of = special.get((mod, n), (f"{layer}.{n}", None))
                wrapped[fn] = self._wrap(fn, span_name, layer, key_of)
        # rebind every module-level reference, including `from .x import f`
        for mod in mods.values():
            for n, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, n, wrapped[obj])

        act_cls = model.FreeResolventAction
        orig_matrix = act_cls.matrix

        def matrix(act):
            if act._matrix is not None:   # memoized: no assembly happens
                return orig_matrix(act)
            key = (self._model_key(act.model), act.k)
            return self._call("model.assemble", "model", key, orig_matrix, (act,), {})

        self._patch(act_cls, "matrix", matrix)
        for meth in ("apply", "evaluate"):
            self._patch(act_cls, meth, self._wrap(getattr(act_cls, meth), "model.apply", "model"))

        def order(args, kwargs):
            return min(args[0].shape[-2:])

        def solve_key(args, kwargs):
            a, b = args[0], args[1]
            return (a.shape[-1], 1 if b.ndim == 1 else b.shape[-1])

        def svd_key(args, kwargs):
            vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            return (min(args[0].shape[-2:]), bool(vectors))

        self._patch(numpy.linalg, "svd", self._wrap(numpy.linalg.svd, "linalg.svd", "linalg", svd_key))
        self._patch(numpy.linalg, "solve", self._wrap(numpy.linalg.solve, "linalg.lu", "linalg", solve_key))
        self._patch(numpy.linalg, "slogdet", self._wrap(numpy.linalg.slogdet, "linalg.slogdet", "linalg", order))

        def factor_key(args, kwargs):
            return (min(args[0].shape), 0)

        self._patch(scipy.linalg, "lu_factor",
                    self._wrap(scipy.linalg.lu_factor, "linalg.lu", "linalg", factor_key))
        orig_norm = numpy.linalg.norm

        def norm(x, ord=None, *args, **kwargs):
            # the matrix 2-norm is a singular value decomposition
            if ord in (2, -2) and getattr(x, "ndim", 0) == 2:
                return self._call("linalg.svd", "linalg", (min(x.shape), False),
                                    orig_norm, (x, ord) + args, kwargs)
            return orig_norm(x, ord, *args, **kwargs)

        self._patch(numpy.linalg, "norm", norm)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ---------------------------------------------------------------

    def metrics(self, traced_wall_s, untraced_wall_s):
        """Per-layer metrics of the recorded spans (see bench/README.md)."""
        return layer_metrics(self.spans, traced_wall_s, untraced_wall_s)


def self_times(spans):
    """Per span: its duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children.get(i, ())):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def distinct_ratio(keys):
    """Distinct keys over calls; 0 when there were no calls."""
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(spans, traced_wall_s, untraced_wall_s):
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)

    def count(name):
        return len(by_name[name])

    def self_of(*names):
        return sum(selfs[i] for n in names for i in by_name[n])

    def layer_self(layer):
        return sum(s for rec, s in zip(spans, selfs) if rec[LAYER] == layer)

    def n_mean(name):
        idx = by_name[name]
        return sum(spans[i][KEY][0] for i in idx) / len(idx) if idx else 0.0

    def called_from(name, layer):
        return sum(1 for i in by_name[name]
                   if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][LAYER] == layer)

    # assemblies inside the Stone-form operations, per form computed
    form_names = ("calculus.stone_form", "calculus.stone_product_forms")
    in_form = {}

    def under_form(i):
        chain = []
        while i >= 0 and i not in in_form:
            if spans[i][NAME] in form_names:
                in_form[i] = True
                break
            chain.append(i)
            i = spans[i][PARENT]
        result = in_form.get(i, False) if i >= 0 else False
        for j in chain:
            in_form[j] = result
        return result

    forms = count("calculus.stone_form") + sum(
        spans[i][KEY] for i in by_name["calculus.stone_product_forms"])
    form_assemblies = sum(1 for i in by_name["model.assemble"] if under_form(i))

    flops = 0.0
    for i in by_name["linalg.svd"]:
        n, vectors = spans[i][KEY]
        flops += _complex_flops("svd", n, vectors=vectors)
    for i in by_name["linalg.lu"]:
        n, nrhs = spans[i][KEY]
        flops += _complex_flops("lu", n, nrhs)
    for i in by_name["linalg.slogdet"]:
        flops += _complex_flops("lu", spans[i][KEY])

    return {
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.sigma_min.calls": (called_from("birman_schwinger.sigma_min", "cli"), "count"),
        "birman_schwinger.self_s": (layer_self("birman_schwinger"), "s"),
        "birman_schwinger.sigma_min.calls": (count("birman_schwinger.sigma_min"), "count"),
        "birman_schwinger.sigma_min.distinct_ratio": (
            distinct_ratio(spans[i][KEY] for i in by_name["birman_schwinger.sigma_min"]), "1"),
        "birman_schwinger.bs_matrix.calls": (count("birman_schwinger.bs_matrix"), "count"),
        "birman_schwinger.bs_matrix.self_s": (self_of("birman_schwinger.bs_matrix"), "s"),
        "birman_schwinger.log_det.calls": (count("birman_schwinger.log_det"), "count"),
        "birman_schwinger.bs_matrix_dz.calls": (count("birman_schwinger.bs_matrix_dz"), "count"),
        "model.assemble.calls": (count("model.assemble"), "count"),
        "model.assemble.distinct_ratio": (
            distinct_ratio(spans[i][KEY] for i in by_name["model.assemble"]), "1"),
        "model.assemble.self_s": (self_of("model.assemble"), "s"),
        "model.apply.calls": (count("model.apply"), "count"),
        "model.apply.self_s": (self_of("model.apply"), "s"),
        "linalg.svd.calls": (count("linalg.svd"), "count"),
        "linalg.svd.self_s": (self_of("linalg.svd"), "s"),
        "linalg.svd.n_mean": (n_mean("linalg.svd"), "1"),
        "linalg.lu.calls": (count("linalg.lu"), "count"),
        "linalg.lu.self_s": (self_of("linalg.lu"), "s"),
        "linalg.lu.n_mean": (n_mean("linalg.lu"), "1"),
        "linalg.slogdet.calls": (count("linalg.slogdet"), "count"),
        "linalg.slogdet.self_s": (self_of("linalg.slogdet"), "s"),
        "linalg.gflop_computed": (flops / 1e9, "Gflop"),
        "calculus.self_s": (layer_self("calculus"), "s"),
        "calculus.sigma_min.calls": (called_from("birman_schwinger.sigma_min", "calculus"), "count"),
        "calculus.assemble_per_form": (form_assemblies / forms if forms else 0.0, "1"),
        "subspaces.self_s": (layer_self("subspaces"), "s"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
        "trace.coverage": (sum(selfs) / traced_wall_s if traced_wall_s > 0 else 0.0, "1"),
    }
