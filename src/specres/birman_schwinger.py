"""Boundary-value operators K(lam, side) = C R0(lam +/- i0) C W and the
classification of spectral points.

A point lam of the essential spectrum is an outgoing/incoming regular
spectral point exactly when Id + K(lam, +/-) is invertible; the weighted
resolvent of H then satisfies

    C R_H(lam +/- i0) C W = Id - (Id + K)^(-1),

which follows from (Id - C R_H C W)(Id + C R0 C W) = Id.  Zeros of
Id + K along the real axis are spectral singularities; their kernel
vectors reconstruct resonant states Psi = -R0(lam +/- i0) C W phi that
solve the stationary equation with outgoing/incoming tails.

:class:`BoundarySystem` is the one place where Id + K is formed and
factorized, at a stack of spectral points: complex z, or boundary pairs
(lam, side) with one side.  One point is a stack of one, so every point
runs the same code on every backend; sigma_min, solves, R_H applications
and log det all come from it.  The sweeps over many independent points
run in stacks of at most ``BATCH_POINTS`` (``over_stacks``): the
``sigma_profile`` of a scan, threshold lam = 0 included, and of the
singularity probe of the ``calculus`` forms, their quadrature nodes, the
eps samples of ``order_estimate``, the log|det| surface of
``locate_eigenvalues`` and the contour of ``eigenvalue_winding`` (one
circle rule, ``_circle``, shared with the rank, trace and vector action
of ``calculus.riesz_projection``).  On a support spanning several
panels those stacks share two threads, the calling one and a worker,
with the bits they have serially.  Golden-section refinement, Newton
steps, kernel vectors and inverses ask for one point at a time.

K = C R0 C W has no columns off the support S of W.  Ordering the nodes
as (S, T), Id + K = [[A, 0], [B, I]] with A = I + K_SS and B = K_TS, so
det(Id + K) = det A (the Sylvester / Weinstein-Aronszajn identity) and
(Id + K)^(-1) = [[A^(-1), 0], [-B A^(-1), I]].  Determinants, their
z-derivatives, solves, R_H applications and inverses are computed from
A, which has order |S| (16 of 192 nodes for a unit square well on the
default radial grid), and from B.

B is never written densely on the continuum backends.  The free kernel is
separable, G = pref phi(min) psi(max), so the row of K at a node of T in
a panel without nodes of S is psi(x) a + phi(x) b (times its row scale),
with a and b fixed vectors shared by every row between the same two
panels of S: B has rank at most two per gap of the support, one left or
right of all of S (a semiseparable kernel, see Gohberg, Goldberg and
Krupnik, *Traces and Determinants of Linear Operators*, 2000).  With the
QR of each factor pair, and the T rows sharing a panel with S kept
dense, B = Q B' where Q has orthonormal columns and B' has one row per
outer run of T, two per gap and one per shared row, cut to |S| rows by
one more QR when there are more.  The row of an outer run is ||u|| f,
and ||u|| has a closed form, since |psi(x)|^2 = exp(-2 Im k x): B' reads
the kernel on S, on the shared rows and on the gaps, never on an outer
run.  Id + K is then unitarily equivalent to
M = [[A, 0], [B', I]] direct-summed with the identity on range(Q)^perp,
and M(0, y) = (0, y) bounds sigma_min(M) by 1 whenever T is not empty, so

    sigma_min(Id + K) = sigma_min(M)   when T is not empty,
                        sigma_min(A)   when T is empty (M = A),
                        1              when S is empty (W = 0).

M has order |S| + 1 for a radial well with T right of it (17 for the
unit well above, 81 for a well over 80 of 192 nodes), |S| + 2 on the
line, and at most 2|S| always.  This is exact, so
``DETECTION_THRESHOLD`` and ``REGULAR_FLOOR`` keep their meaning.  The
kernel vector of a resonant state lifts from the singular vector of M.

The same structure factorizes A for a multiplication W whose support
spans several panels: inside a panel A is a dense n x n block, and
between two panels every entry is a rank-one product, so solves and
det A come from the n x n blocks and one system of order 2P in the
prefix and suffix moments of the solution, P the panels from the first
to the last holding S (``_PanelFactors``; 5 blocks of 16 and order 10
for the well over 80 nodes, in place of one solve of order 80).  The
dense A is still written for the SVD of M, and solved on other supports.

The module-level ``sigma_min`` stays at full order N: it is the
assembled reference the tests compare against, and the layer that
``bench/test_bench.py::test_tracer_records_the_layers_of_one_sigma_min_and_restores_them``
traces.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .model import (
    AdmissibilityError,
    ModelError,
    OperatorModel,
    _as_given,
    _as_stack,
    resolvent_action,
    weighted_matrix,
)

__all__ = [
    "BoundarySystem",
    "SpectralPointReport",
    "ResonantState",
    "BoundsReport",
    "bs_matrix",
    "sigma_min",
    "weighted_resolvent_H",
    "sigma_profile",
    "candidate_minima",
    "classify_minima",
    "scan_singularities",
    "classify_point",
    "resonant_state",
    "embedded_eigenvalue_test",
    "adjoint_consistency",
    "dissipative_audit",
    "order_estimate",
    "epsilon_bounds_check",
    "threshold_equivalence_check",
    "locate_eigenvalues",
]

#: default sigma_min threshold below which a refined minimum is reported
DETECTION_THRESHOLD = 1e-4

#: sigma_min floor certifying a regular point (quadrature-noise margin)
REGULAR_FLOOR = 1e-2

#: width of the golden-section bracket to which a candidate minimum is refined
REFINE_WIDTH = 1e-8

#: refined minima closer than this are one singularity, reported once
MERGE_WIDTH = 10 * REFINE_WIDTH

#: largest ||X||_1 ||X^(-1)||_1 of an in-panel block X = E_q = I + D_q
#: (the second norm estimated, ``_probe``) or of the coupling system
#: X = R, with which ``BoundarySystem`` factorizes A through its panels;
#: a stack with a worse or singular one factorizes A densely.  D_q is K
#: for W restricted to panel q, so E_q is singular at the eigenvalues of
#: that one-panel well even where A is regular; R is as singular as A.
PANEL_CONDITION_MAX = 1e8

#: most spectral points in one stack (a ``BoundarySystem`` at an array of
#: points).  Memory sets it, not speed: every point of a stack keeps its
#: in-panel partials and the factors of A, and its mirror's factors of A,
#: alive at once, while stacks of 11 to 22 points already run as fast as
#: longer ones.  On a well over 80 of 192 nodes (5 of 12 panels) a
#: product-form point and its mirror hold 0.17 MB after a two-column R_H
#: application (0.22 MB at the peak; tracemalloc), 0.1 MB of it the
#: partials of the plus side on the 12 panels that ``apply`` reads (a
#: mirror keeps none); so does a node of an adaptive rule (24, two stacks
#: of 12), and the Stone forms' cache keeps them all (16.5 MB for a
#: ``calculus`` pass).  A point whose system only takes det A holds
#: 0.07 MB on that well and 0.012 MB on a support in one panel, whose
#: partials cover that panel alone.
BATCH_POINTS = 22

_thread_cap = None              # the cap of ``thread_cap``; None: no cap
_pool = None                    # the worker of ``over_stacks``, made on first use
_pool_lock = threading.Lock()
_in_stack = threading.local()   # .active: this thread runs a stack of a pooled call


def point_batches(points):
    """An array of spectral points cut into consecutive stacks of at most
    ``BATCH_POINTS`` points and near-equal size."""
    points = np.asarray(points)
    return np.array_split(points, -(-points.size // BATCH_POINTS))


@contextlib.contextmanager
def thread_cap(threads):
    """Inside the block ``over_stacks`` runs on at most ``threads``
    threads, the calling one included (``specres --threads``)."""
    global _thread_cap
    saved, _thread_cap = _thread_cap, threads
    try:
        yield
    finally:
        _thread_cap = saved


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stack_pool():
    """The one worker thread of ``over_stacks``, beside the caller, where
    two CPUs are usable and ``thread_cap`` allows two threads; None
    otherwise.  Two threads is the measured configuration (2 CPUs, 1 BLAS
    thread): more would keep more stacks alive at once and contend for the
    GIL, and they are unmeasured.  Made on first use."""
    global _pool
    if min(_usable_cpus(), 2 if _thread_cap is None else _thread_cap) < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="specres-stack")
        return _pool


def _forget_pool():
    """In a forked child: the parent's pool thread does not exist there, so
    the child makes its own pool on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(values, stack):
    """values(stack) in a stack of a pooled call: ``over_stacks`` calls
    made inside it run serially."""
    _in_stack.active = True
    try:
        return values(stack)
    finally:
        _in_stack.active = False


def _spans_panels(model):
    """Whether ``BoundarySystem`` factorizes A through its panels: a
    multiplication W on a continuum backend whose support spans more than
    one panel."""
    return (model.backend != "finite" and model.w_sample_matrix is None
            and model.support_split[0].size > 0
            and model.support_run[1].size > model.grid.n)


def over_stacks(model, values, points):
    """``values(stack)``, a (K, ...) array for a stack of K points, at
    every point of a non-empty 1-D array, evaluated on its
    ``point_batches`` and concatenated in their order.

    When A factorizes through the panels of the model (``_spans_panels``),
    the stacks are shared with the worker thread of ``_stack_pool``: the
    calling thread evaluates the even stacks, the first included, and the
    worker the odd ones; NumPy releases the GIL in its kernels, so they
    overlap.  A stack gives the same bits on any thread.
    On a one-panel support (dense A: the ``scan`` and ``eigen`` wells)
    the stacks are too short to pay for a second thread, and they run in
    this thread one after another, as do the stacks of a call made inside
    a stack of a pooled one.  Pooled, two stacks and their systems are
    alive at once: on the well over 80 of 192 nodes the product forms of
    a ``calculus`` pass peak at 12 MB above their start and the ac jump
    terms at 10.5 MB, against 7.2 and 7.0 MB serially (tracemalloc).

    A failing stack raises once every stack submitted to the pool has
    finished or been cancelled (those after the failure are): the
    exception of the first failing stack, as the serial loop would."""
    stacks = point_batches(points)
    pool = (_stack_pool() if len(stacks) > 1 and _spans_panels(model)
            and not getattr(_in_stack, "active", False) else None)
    if pool is None:
        return np.concatenate([values(stack) for stack in stacks])
    futures = {i: pool.submit(_pooled, values, stack)
               for i, stack in enumerate(stacks) if i % 2}
    results, failed, error = [None] * len(stacks), len(stacks), None
    for i in range(0, len(stacks), 2):
        try:
            results[i] = _pooled(values, stacks[i])
        except BaseException as exc:   # the caller's first failing stack
            failed, error = i, exc
            break
    for i, future in futures.items():
        if i > failed:
            future.cancel()
    wait(futures.values())
    for i, future in futures.items():   # in stack order
        if i < failed:
            results[i] = future.result()   # raises the stack's exception
    if error is not None:
        raise error
    return np.concatenate(results)


class SingularBoundaryError(ModelError):
    """Id + K is numerically singular: lam sits at (or next to) a
    spectral singularity or an eigenvalue; the caller classifies."""


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------


def _scale_k(model, block, rows, cols):
    """K[rows, cols] = sqrt(w) C R0 C W / sqrt(w) from the block of the
    free kernel on (rows, cols), one per point (K, rows, cols) or the
    matrix of one, with cols all nodes or a set holding the support of W:
    one multiply by the outer product of the
    row scale c sqrt(w) and the column scale c W / sqrt(w) for a
    multiplication W; a nonlocal W is applied to the blocks scaled by c,
    and sqrt(w) divided out after."""
    g = model.grid
    c = model.c_values
    row_scale = c[rows] * g.sqrtw[rows]
    if model.w_sample_matrix is None:
        return block * (row_scale[:, None] * (c[cols] * model.w_values[cols] / g.sqrtw[cols]))
    k = model.right_apply_w(block * (row_scale[:, None] * c[cols]), cols)
    k /= g.sqrtw[cols]
    return k


def _k_from_action(model, act):
    """K on the whole grid, from the assembled free kernel (one point)."""
    idx = np.arange(model.size)
    return _scale_k(model, act.matrix(), idx, idx)


def _k_block(model, act, rows, support):
    """K[rows, S] (S the support of W) from one pass of ``act.block``:
    (K, rows, |S|)."""
    return _scale_k(model, act.block(rows, support), rows, support)


def _generators(model, act, rows, phi, psi):
    """[u, v] = [psi, phi] at ``rows`` times the row scale pref c sqrt(w)
    of K, (K, rows, 2), from phi and psi at those rows."""
    scale = act.pref[:, None] * model.c_values[rows] * model.grid.sqrtw[rows]
    return np.stack((psi, phi), axis=-1) * scale[..., None]


def _moment_rows(model, phi_w, psi_w, cols):
    """[a; b] = [phi w; psi w] at ``cols`` times c, (K, 2, cols): the moment
    rows of K before the rest of the column scale, ``_w_columns``."""
    return np.stack((phi_w, psi_w), axis=1) * model.c_values[cols]


def _panel_generators(model, act, rows, cols):
    """The factors of K between panels, at every point of the action.

    By the separable kernel G = pref phi(min) psi(max), K[i, j] = u_i a_j
    for a node j in a panel left of the panel of node i, and v_i b_j for j
    in a panel right of it.  Returns [u, v], psi and phi at ``rows`` times
    the row scale pref c sqrt(w) of K, (K, rows, 2), and [a; b], the phi
    and psi moments at ``cols`` times c, (K, 2, cols): a and b before the
    rest of the column scale, ``_w_columns``, which a nonlocal W needs
    applied after any masking of the columns."""
    phi, psi, *at_rows = act._at(rows)
    phi_w, psi_w = at_rows if cols is rows else act._at(cols)[2:]
    return _generators(model, act, rows, phi, psi), _moment_rows(model, phi_w, psi_w, cols)


def _w_columns(model, f, cols):
    """f W / sqrt(w), f with one column per node of ``cols`` (indices
    holding the support of W; any indices for a multiplication W): the
    column scale of K after c."""
    return model.right_apply_w(f, cols) / model.grid.sqrtw[cols]


def _k_rest_factors(model, act):
    """K[T, S], T the nodes off the support S of W, as pieces (rows, cols,
    f) at every point of the action, written without the dense block, and
    evaluating the kernel only on S and on the rows of T that share a
    panel with S: K[rows, S] = u @ f with u the generator columns ``cols``
    (a slice of [u, v], ``_generators``) at the rows, or K[rows, S] = f
    when cols is None.  f is (K, c, |S|), c the columns of u, and a dense
    f is (K, rows, |S|).

    The row of K at a node x of T in a panel without nodes of S is
    u(x) a + v(x) b on the S nodes left and right of its panel
    (``_panel_generators``).  Rows between the same two panels of S share
    a and b: their piece has both columns and f = [a; b]; a run left or
    right of all of S has one column, v or u, and one row of f.  T rows in
    a panel of S are one dense piece from ``_k_block``.  The row sets are
    the model's ``rest_runs``.  ``_rest_generators`` evaluates u on a
    piece's rows and ``_rest_norm`` the norm of a one-column u in closed
    form.
    """
    support, _ = model.support_split
    if not support.size:
        return []
    shared, runs = model.rest_runs
    pieces = []
    if shared.size:
        pieces.append((shared, None, _k_block(model, act, shared, support)))
    ab = _moment_rows(model, *act._at(support)[2:], support)
    for rows, left in runs:   # left: the S nodes left of the rows, a prefix of S
        f = []
        if left[0]:
            f.append(np.where(left, ab[:, 0], 0.0))
        if not left[-1]:
            f.append(np.where(left, 0.0, ab[:, 1]))
        cols = slice(0 if left[0] else 1, 1 if left[-1] else 2)
        pieces.append((rows, cols, _w_columns(model, np.stack(f, axis=-2), support)))
    return pieces


def _rest_generators(model, act, rows, cols):
    """The generator columns ``cols`` of a piece of ``_k_rest_factors`` on
    its rows, (K, rows, c): phi and psi evaluated on those rows alone."""
    return _generators(model, act, rows, *act._at(rows)[:2])[..., cols]


def _rest_norm(model, act, rows, col):
    """The 2-norm of the one generator column ``col`` of a piece of
    ``_k_rest_factors`` on its rows, at every point of the action, (K,),
    in closed form without evaluating the kernel:

        ||u||^2 = |pref|^2 sum_rows c^2 w |g(x)|^2

    with g = psi (col 0), |psi(x)|^2 = exp(-2 Im k x) (psi = e^(ikx) on
    both backends), or g = phi (col 1), |phi(x)|^2 = exp(2 Im k x) on the
    line (phi = e^(-ikx)) and sin^2(Re k x) + sinh^2(Im k x) on the radial
    backend (phi = sin kx), x^2 at k = 0 (phi = x).  A mirror has the
    same norms.  The sum is one dot product per point (``np.vecdot``): a
    point has the same bits in any stack."""
    x = model.grid.nodes[rows]
    ks = act.ks
    im = np.multiply.outer(ks.imag, x)
    if col == 0:
        sq = np.exp(-2.0 * im)
    elif model.backend == "line1d":
        sq = np.exp(2.0 * im)
    else:
        sq = np.sin(np.multiply.outer(ks.real, x)) ** 2 + np.sinh(im) ** 2
        sq[ks == 0] = x * x
    weights = model.c_values[rows] ** 2 * model.grid.weights[rows]
    return np.abs(act.pref) * np.sqrt(np.vecdot(sq, weights))


def _probe(n):
    """A fixed right-hand side of n unimodular entries, with golden-ratio
    phases: x = X^(-1) probe gives ||X^(-1)||_1 >= ||x||_1 / n, within a
    modest factor unless the probe is by accident nearly orthogonal to the
    left singular vector of the smallest singular value (the one-step
    condition estimate of Hager's method)."""
    return np.exp(2j * np.pi * 0.6180339887498949 * np.arange(n))


def _norm_1(a):
    """The 1-norm (largest column sum) of each matrix of a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ill_conditioned(x, inv_norm):
    """Whether some matrix X of the stack x has ||X||_1 ||X^(-1)||_1 above
    ``PANEL_CONDITION_MAX``, given ||X^(-1)||_1 or an estimate of it."""
    return not (_norm_1(x) * inv_norm).max() <= PANEL_CONDITION_MAX


def _in_panel_products(act, uv, panels):
    """u_q left_q + v_q right_q on the panels of ``panels``, (K, P, n, n):
    D_q before its column scale, from the generators uv (K, P, n, 2) and
    the in-panel partials of the action.  A mirror keeps no partials: its
    products are the conjugates of its source's, conj(conj(u) left +
    conj(v) right), bitwise those of the conjugate partials.  The second
    product is added panel by panel, without a full-size temporary."""
    source = act._source or act
    if source is not act:
        uv = np.conj(uv)
    left, right = source._partials(panels.start, panels.stop)
    e = uv[..., :1] * left
    for q in range(panels.stop - panels.start):
        e[:, q] += uv[:, q, :, 1:] * right[:, q]
    return np.conj(e, out=e) if source is not act else e


@dataclass(eq=False)
class _PanelFactors:
    """A = I + K_SS factorized through its panels at every point of a
    stack, for a multiplication W on a continuum backend.

    Take the P panels of the grid from the first to the last that holds
    nodes of S, each with all n of its nodes: the nodes outside S, and the
    panels between pieces of S, get the rows and columns of the identity,
    which changes neither solves nor det A.  Between panels every entry of
    K is a rank-one product (``_panel_generators``), so

        A = E + (semiseparable coupling),   E = blockdiag(E_q),

    with E_q = I + D_q and D_q the block of K inside panel q, written from
    the in-panel partials of the free action.  With the prefix moments
    alpha_q = sum_{p<q} a_p . x_p and the suffix moments
    beta_q = sum_{p>q} b_p . x_p, A x = y reads

        x_q = E_q^(-1) (y_q - u_q alpha_q - v_q beta_q),

    and the 2P moments solve one system R = I + H E^(-1) F of order 2P,
    A = E + F H with F = [u v] by panel and H the moment maps; so
    det A = prod_q det E_q det R.  R is formed as S R S^(-1), S scaling
    alpha_q by max |u_q| and beta_q by max |v_q|: at large Im k the
    generators grow and decay like exp(+/- Im k x), and the scaled
    entries, sigma_q / sigma_p a_p . E_p^(-1) u_p and alike, stay of
    order one.

    Kept, per point: E_q, E_q^(-1) [u_q v_q], the moment rows [a_q; b_q]
    and R^(-1).  NumPy keeps no stacked LU, and a solve with a few columns
    costs half an explicit inverse of the (K, P, n, n) blocks, so each
    solve runs one stacked ``np.linalg.solve`` on them; the one that
    builds the factors carries its right-hand side beside [u v], since
    most systems are solved once, or one zero column where it has none
    (``log_det``), and a later ``solve`` puts its right-hand side in the
    same columns: a kept system solves to the bits of a fresh one.
    ``build`` gives None where some E_q or R is singular or has
    ||X||_1 ||X^(-1)||_1 above ``PANEL_CONDITION_MAX``, ||E_q^(-1)||_1
    estimated from one more column of that solve (``_probe``).
    """

    e: np.ndarray         # (K, P, n, n): E_q
    gen: np.ndarray       # (K, P, n, 2): E_q^(-1) [u_q v_q], scaled
    moments: np.ndarray   # (K, P, 2, n): [a_q; b_q]
    mix: np.ndarray       # (K, 2, P, P): the scaled prefix and suffix sums
    r_inv: np.ndarray     # (K, 2P, 2P): R^(-1)
    inside: np.ndarray    # (P n,): the nodes of S among those of the panels

    @classmethod
    def build(cls, model, act, rhs=None):
        """(factors, A^(-1) rhs) at every point of the action, rhs
        (K, |S|, m) indexed by S or None (then the solution is None); the
        factors are None, and so is the solution, where the guard sends A
        to the dense solve."""
        run, inside = model.support_run
        n = model.grid.n
        panels = slice(run.start // n, run.stop // n)
        k, npan = act.ks.size, panels.stop - panels.start
        shape = (k, npan, n)
        uv, moments = _panel_generators(model, act, run, run)
        uv = (uv * inside[:, None]).reshape(shape + (2,))
        # W vanishes off S: so do the columns of the moments and of D_q
        moments = _w_columns(model, moments, run).reshape(k, 2, npan, n).transpose(0, 2, 1, 3)
        e = _in_panel_products(act, uv, panels)
        e *= _w_columns(model, model.c_values[run], run).reshape(npan, 1, n)
        e.reshape(k, npan, -1)[..., :: n + 1] += 1.0
        scale = np.abs(uv).max(axis=-2)   # (K, P, 2): max |u_q|, max |v_q|
        scale[scale == 0.0] = 1.0         # the panels between pieces of S
        # one solve for [u v] / scale, the probe and the right-hand side,
        # or one zero column in its place: the moments of a block of three
        # columns round otherwise than those of a wider one (alike from 4
        # to 11 columns), and factors built for log_det would then solve
        # to other bits than a fresh system
        m = 1 if rhs is None else rhs.shape[-1]
        cols = np.zeros(shape + (3 + m,), dtype=complex)
        np.divide(uv, scale[..., None, :], out=cols[..., :2])
        cols[..., 2] = _probe(n)
        if rhs is not None:
            cols.reshape(k, npan * n, -1)[:, inside, 3:] = rhs
        try:
            x = np.linalg.solve(e, cols)
            t = moments @ x   # (K, P, 2, 3 + m): the moments of every column
            # mix[side, q, p]: the scaled prefix (side 0, p < q) and suffix
            # (side 1, p > q) sums, and R[(side, q), (c, p)] =
            # I + mix[side, q, p] moments_p[side] . gen_p[c]
            lower = np.tri(npan, k=-1, dtype=bool)
            mix = np.array((lower, lower.T)) * scale.transpose(0, 2, 1)[..., None]
            r = (mix[:, :, :, None, :] * t[..., :2].transpose(0, 2, 3, 1)[:, :, None]
                 ).reshape(k, 2 * npan, -1)
            r.reshape(k, -1)[:, :: 2 * npan + 1] += 1.0
            r_inv = np.linalg.inv(r)
        except np.linalg.LinAlgError:
            return None, None
        if (_ill_conditioned(e, np.abs(x[..., 2]).sum(axis=-1) / n)
                or _ill_conditioned(r, _norm_1(r_inv))):
            return None, None
        factors = cls(e, x[..., :2], moments, mix, r_inv, inside)
        return factors, None if rhs is None else factors._couple(x[..., 3:], t[..., 3:])

    def _couple(self, y, t):
        """A^(-1) rhs, (K, |S|, m), from y = E^(-1) rhs on the panels,
        (K, P, n, m), and its moments t = [a_q; b_q] y_q, (K, P, 2, m):
        the correction that R gives the scaled prefix and suffix sums of
        t."""
        k, npan, n, m = y.shape
        coef = self.r_inv @ (self.mix @ t.transpose(0, 2, 1, 3)).reshape(k, 2 * npan, m)
        y = y - self.gen @ coef.reshape(k, 2, npan, m).transpose(0, 2, 1, 3)
        return y.reshape(k, npan * n, m)[:, self.inside]

    def solve(self, rhs):
        """A^(-1) rhs at every point, rhs (K, |S|, m) indexed by S, in the
        columns 3.. of a block solved as ``build`` solves it (the products
        round a column by its place in the block): the bits of a fresh
        system built with rhs."""
        k, npan, n, _ = self.gen.shape
        y = np.zeros((k, npan, n, 3 + rhs.shape[-1]), dtype=complex)
        y.reshape(k, npan * n, -1)[:, self.inside, 3:] = rhs
        y = np.linalg.solve(self.e, y)
        return self._couple(y[..., 3:], (self.moments @ y)[..., 3:])

    def log_det(self):
        """(log |det A|, its phase) at every point, det R = 1 / det R^(-1)."""
        (sign_e, log_e), (sign_r, log_r) = np.linalg.slogdet(self.e), np.linalg.slogdet(self.r_inv)
        return log_e.sum(axis=-1) - log_r, np.prod(sign_e, axis=-1) * np.conj(sign_r)


class BoundarySystem:
    """Id + K at a stack of K spectral points: an array of z, or of lam
    with one side.  One z, or one lam, is a stack of one.

    K has no columns off the support S of W (``OperatorModel.support_mask``),
    so with T the other nodes, in the order (S, T),

        Id + K = [[A, 0], [B, I]],   A = I + K_SS,   B = K_TS.

    Everything but K itself is computed from the blocks A and B, most of
    it from A, through its panel factors (``_panel_factors``) or densely:

    * ``log_det``: det(Id + K) = det A (the Sylvester / Weinstein-Aronszajn
      identity);
    * ``w_solve``: W (Id + K)^(-1) sees only x_S = A^(-1) y_S of the
      solution (x_T = y_T - B x_S is never needed), hence A alone; so
      does ``resolvent_apply``;
    * ``inverse``: [[A^(-1), 0], [-B A^(-1), I]];
    * ``sigma_min``, ``kernel_vector`` and ``weighted_resolvent_norm``:
      with B = Q B', Q with orthonormal columns and B' short
      (``_reduced``), Id + K is unitarily equivalent to
      M = [[A, 0], [B', I]] plus the identity on range(Q)^perp.  M has
      order |S| + 1 for a radial well with T right of it, |S| + 2 on the
      line, at most 2|S| always, and is A when T is empty.

    A is factorized in one of two ways, chosen from the model:

    * through its panels (``_PanelFactors``) for a multiplication W on a
      continuum backend whose support spans more than one panel: in-panel
      blocks of order n and one coupling system of order 2P, P the panels
      from the first to the last holding S, from the in-panel partials of
      the free action and the rank-one coupling between panels
      (``_panel_generators``).  A stack with an in-panel block or a
      coupling system that is singular or past ``PANEL_CONDITION_MAX``
      falls back to the dense A.  ``a_solve``,
      ``w_solve``, ``resolvent_apply``, ``log_det``, ``inverse``,
      ``weighted_resolvent_norm`` and the Newton steps of
      ``locate_eigenvalues`` (``_logdet_derivative``) read these factors;
    * densely, by one stacked ``np.linalg.solve`` or slogdet of A per
      operation, everywhere else: the finite backend, a nonlocal W, and a
      support inside one panel, where A is its own single in-panel block.

    K_SS is the block of the free kernel on S, written in one pass by
    ``action.block`` and kept, times the weights of K; it is written only
    where the dense A is read: the SVD of M (``sigma_min``,
    ``kernel_vector``, ``weighted_resolvent_norm``), ``k_support``,
    ``bs_matrix_dz`` and the dense solves.  K_TS is written by
    ``block`` only on the T rows that share a panel with S; every other
    run of T is a factor pair u @ f (``_k_rest_factors``), f the moments
    of the kernel on S.  A run left or right of all of S has one column
    u and enters M as ||u|| f, ||u|| in closed form (``_rest_norm``); a
    run between two pieces of S enters as the triangular factor of its
    two columns times f.  u is evaluated on the rows of its run alone,
    and only for that QR and for the lifts of ``kernel_vector`` and
    ``inverse`` (``_rest_times``): ``sigma_min`` and
    ``weighted_resolvent_norm`` evaluate the kernel on S, the shared rows
    and the gaps between pieces of S, and keep no (K, N) array.
    ``action.apply``
    applies R0 through panel moments, and no method assembles the N x N
    free kernel but ``k``.  When S is empty (W = 0) det = 1,
    sigma_min = 1, the inverse is the identity and W (Id + K)^(-1) = 0.
    On the finite backend K is formed densely, from one stacked solve of
    (H0 - z)^(-1), K_SS and K_TS (one dense piece) are sliced from it, and
    the sample-level methods (``w_solve``, ``resolvent_apply``) do not
    exist.

    Every array carries the point axis: the free action is one stacked
    ``FreeResolventAction``, ``_k_ss`` is (K, |S|, |S|), the pieces of
    K_TS and M are (K, ...), the panel factors are (K, P, n, n) blocks,
    solved by one stacked ``np.linalg.solve`` per solve, and the inverse
    of a (K, 2P, 2P) coupling system; they are kept, and the ``calculus``
    cache reuses them across pairs, per stack of quadrature nodes.  A
    dense A keeps only its block of the free kernel and is formed and
    solved anew by each operation, as slogdet forms it.  ``sigma_min``,
    ``log_det`` and ``weighted_resolvent_norm`` come from one stacked SVD
    or slogdet; ``w_solve`` and ``resolvent_apply`` take samples as columns,
    (K, N, m), or (N[, m]) shared by every point for ``resolvent_apply``.
    These and ``k_support`` give a system built at one point that point's
    float, complex or array (``_as_given``), with the bits it has in any
    stack wherever the BLAS matrix product rounds each row of a stacked
    contraction as it rounds a lone one.  ``k``, ``kernel_vector`` and
    ``inverse`` serve one point and read the single point of the stack.
    Callers split long runs of points into stacks of at most
    ``BATCH_POINTS`` (``over_stacks``).

    ``mirror`` is the system at the mirror point, (lam, -/+) for (lam, +/-)
    and conj z for z.  H0 is real, so its free action is
    ``action.conjugate()``, which shares this system's evaluation of the
    free kernel and keeps no partials: its R0 applications and blocks are
    the conjugates of this system's.  Its K_SS is the conjugate of this
    system's free-kernel block on S times the weights of K (no second
    ``block``), its in-panel blocks E_q the conjugates of this system's
    in-panel products times the weights, and the factors of its K_TS the
    conjugate psi, phi and moments of that action.  A and its factors are
    its own, because W is complex: a mirror point on the well over 80 of
    192 nodes holds 0.03 MB after a two-column R_H application (tracemalloc).
    """

    def __init__(self, model, z=None, lam=None, side=None):
        self.model = model
        self.support, self.rest = model.support_split
        self._g_ss = self._r0_k = None
        self._panels = None   # _PanelFactors; False where A is factorized densely
        self._source = None   # the system this one mirrors, if any
        if model.backend == "finite":
            if z is None:
                raise AdmissibilityError(
                    "finite backend supports K(z) off the spectrum of H0 only"
                )
            self.action = None
            self.z, self.one = _as_stack(z)
            self.npoints = self.z.size
        else:
            self.action = resolvent_action(model, z=z, lam=lam, side=side)
            self.one, self.npoints = self.action.one, self.action.ks.size

    def _finite(self):
        """(H0 - z)^(-1) and K at every point (finite backend), from one
        stacked solve, kept."""
        if self._r0_k is None:
            m = self.model
            eye = np.eye(m.size)
            r0 = np.linalg.solve(m.h0 - self.z[:, None, None] * eye, eye)
            self._r0_k = r0, m.c_diag[:, None] * r0 * m.c_diag[None, :] @ m.w_matrix
        return self._r0_k

    @property
    def k(self):
        """K = [C R0(.) C] W on the grid, in the L2-isometric representation.
        One point; formed once on the finite backend."""
        if self.action is not None:
            return _k_from_action(self.model, self.action)
        return self._finite()[1][0]

    def _support_block(self):
        """The block of the free kernel on S, kept by a source system; a
        mirror takes the conjugate of its source's."""
        if self._source is not None:
            return np.conj(self._source._support_block())
        if self._g_ss is None:
            s = self.support
            self._g_ss = self.action.block(s, s)
        return self._g_ss

    def _k_ss(self):
        """K_SS, (K, |S|, |S|), scaled on each call from the kept block of
        the free kernel, so a cached system holds one |S| x |S| block per
        point besides the factors of A."""
        s = self.support
        if self.action is None:
            return self._finite()[1][:, s[:, None], s]
        return _scale_k(self.model, self._support_block(), s, s)

    def k_support(self):
        """K_SS, the block of K on the support S of W."""
        return _as_given(self._k_ss(), self.one)

    def _k_rest(self):
        """K_TS as the pieces (rows, cols, f) of ``_k_rest_factors``, or one
        dense piece sliced from K on the finite backend."""
        if self.action is None:
            return [(self.rest, None, self._finite()[1][:, self.rest[:, None], self.support])]
        return _k_rest_factors(self.model, self.action)

    def _rest_times(self, piece, x):
        """K_TS[rows] x at the one point of the system for a piece (rows,
        cols, f) of ``_k_rest``, as u (f x) with u evaluated on the rows of
        the piece alone, or f x for a dense piece."""
        rows, cols, f = piece
        y = f[0] @ x
        return y if cols is None else _rest_generators(self.model, self.action, rows, cols)[0] @ y

    def mirror(self):
        """The system at the mirror point on the conjugate free action."""
        if self.action is None:
            return BoundarySystem(self.model, z=_as_given(np.conj(self.z), self.one))
        other = copy.copy(self)
        other._g_ss = other._panels = None
        other._source = self
        other.action = self.action.conjugate()
        return other

    def _a(self):
        a = self._k_ss()   # a fresh array: Id is added in place
        i = np.arange(self.support.size)
        a[:, i, i] += 1.0
        return a

    def _panel_factors(self, rhs=None):
        """The ``_PanelFactors`` of A, kept, or None where A is solved
        densely: on the finite backend, for a nonlocal W, for a support in
        at most one panel (A is then its one in-panel block, or empty) and
        where the guard of ``_PanelFactors.build`` refuses the stack.  With
        ``rhs``, also A^(-1) rhs from the build when this call builds the
        factors, else None."""
        x = None
        if self._panels is None:
            panels, x = (_PanelFactors.build(self.model, self.action, rhs)
                         if _spans_panels(self.model) else (None, None))
            self._panels = panels or False
        return self._panels or None, x

    def _reduced(self):
        """M = [[A, 0], [B', I]], (K, |S| + p, |S| + p), and the pieces
        (rows, cols, f) of K_TS = Q B' (``_k_rest``): B' stacks each
        piece's f times the triangular factor of its u, which for a
        one-column u is its norm, taken in closed form (``_rest_norm``)
        without evaluating u (B'* B' = B* B either way), cut to |S| rows
        by one more QR when longer.  Only the two-column pieces between
        pieces of S evaluate their u, on their own rows."""
        pieces = self._k_rest()
        s = self.support.size
        b = [f if cols is None
             else _rest_norm(self.model, self.action, rows, cols.start)[:, None, None] * f
             if cols.stop - cols.start == 1
             else np.linalg.qr(_rest_generators(self.model, self.action, rows, cols), mode="r") @ f
             for rows, cols, f in pieces]
        b = np.concatenate(b, axis=1) if b else np.zeros((self.npoints, 0, s))
        if b.shape[1] > s:
            b = np.linalg.qr(b, mode="r")
        p = b.shape[1]
        m = np.zeros((self.npoints, s + p, s + p), dtype=complex)
        m[:, :s, :s] = self._a()
        m[:, s:, :s] = b
        m[:, s:, s:] = np.eye(p)
        return m, pieces

    def sigma_min(self):
        """Smallest singular value of Id + K, that of M, which its unit
        block bounds by 1, from one stacked SVD."""
        if not self.support.size:
            return _as_given(np.ones(self.npoints), self.one)
        return _as_given(np.linalg.svd(self._reduced()[0], compute_uv=False)[:, -1], self.one)

    def kernel_vector(self):
        """(sigma_min, x), x a unit right singular vector of Id + K for it
        whose entry of largest modulus is real and positive.  One point.

        On the rows of T, (Id + K)* (Id + K) x = sigma^2 x reads
        x_T = -B x_S / (1 - sigma^2) (for sigma < 1); on the rows of S it
        reads as for M, since B'* B' = B* B.  So x_S is the S part of M's
        singular vector, x_T its lift through the pieces of B, and
        ||x|| = 1."""
        x = np.zeros(self.model.size, dtype=complex)
        if not self.support.size:   # Id + K = Id
            x[0] = 1.0
            return 1.0, x
        m, pieces = self._reduced()
        _, sv, vh = np.linalg.svd(m[0])
        x_s = x[self.support] = np.conj(vh[-1, :self.support.size])
        for piece in pieces:
            x[piece[0]] = -self._rest_times(piece, x_s) / (1.0 - sv[-1] ** 2)
        j = np.argmax(np.abs(x))
        x *= abs(x[j]) / x[j]
        x[j] = x[j].real   # not left to the rounding of the product
        return float(sv[-1]), x

    def log_det(self):
        """log |det(Id + K)| and the phase, as det A: from the panel factors,
        or from one stacked slogdet of A."""
        panels, _ = self._panel_factors()
        if panels is not None:
            logabs, sign = panels.log_det()
        else:
            sign, logabs = np.linalg.slogdet(self._a())
        return _as_given(logabs, self.one), _as_given(sign, self.one)

    def a_solve(self, rhs):
        """A^(-1) rhs at every point, rhs (K, |S|, m) indexed by the support
        S: by the panel factors, or by one stacked ``np.linalg.solve`` on A,
        which keeps no factors."""
        panels, x = self._panel_factors(rhs)
        if x is not None:
            return x
        return np.linalg.solve(self._a(), rhs) if panels is None else panels.solve(rhs)

    def inverse(self):
        """(Id + K)^(-1) in the representation of K, with -B A^(-1) =
        -u (f A^(-1)) on each piece (rows, cols, f) of B, u evaluated on
        the rows of the piece (``_rest_times``).  One point."""
        s = self.support
        a_inv = self.a_solve(np.eye(s.size)[None])[0]
        inv = np.eye(self.model.size, dtype=complex)
        inv[np.ix_(s, s)] = a_inv
        for piece in self._k_rest():
            inv[np.ix_(piece[0], s)] = -self._rest_times(piece, a_inv)
        return inv

    def weighted_resolvent_norm(self):
        """||C R_H C W||_2 = ||Id - (Id + K)^(-1)||_2, the norm of its S
        columns [[I - A^(-1)], [B A^(-1)]], or of [[I - A^(-1)], [B' A^(-1)]]
        since B = Q B', from one stacked SVD."""
        s = self.support.size
        if not s:   # (Id + K)^(-1) = Id
            return _as_given(np.zeros(self.npoints), self.one)
        m, _ = self._reduced()
        eye = np.eye(s)
        a_inv = self.a_solve(np.broadcast_to(eye, (self.npoints, s, s)))
        cols = np.concatenate([eye - a_inv, m[:, s:, :s] @ a_inv], axis=1)
        return _as_given(np.linalg.svd(cols, compute_uv=False)[:, 0], self.one)

    def w_solve(self, samples):
        """W (Id + K)^(-1) on grid samples (K, N, m), or (N[, m]) for a
        system at one point.  W only sees the S part x_S = A^(-1) y_S of
        the solution, so only A is factorized.  K acts in the L2-isometric
        representation, so the samples are scaled by sqrt(weights) on the
        way in and back on the way out.
        """
        sw = self.model.grid.sqrtw[:, None]
        y = sw * np.asarray(samples, dtype=complex).reshape(self.npoints, sw.size, -1)
        x = np.zeros(y.shape, dtype=complex)
        x[:, self.support] = self.a_solve(y[:, self.support])
        return self.model.apply_w(x / sw).reshape(np.shape(samples))

    def resolvent_apply(self, samples):
        """R_H v by the factorized second resolvent identity,

            R_H v = R0 v - R0 C W (Id + K)^(-1) C R0 v.

        Returns (R_H v, source) with source = C W (Id + K)^(-1) C R0 v, the
        compactly supported source of the scattered part.  ``samples`` is a
        vector or a matrix of column vectors, shared by every point, or
        (K, N, m); the results are (K, N[, m]).  A vector runs as one
        column, so R0 C W (Id + K)^(-1) C R0 v reads one source per point.
        """
        v = np.asarray(samples, dtype=complex)
        column = v.ndim == 1
        c = self.model.c_values[:, None]
        r0v = self.action.apply(v[:, None] if column else v)
        source = c * self.w_solve(c * r0v)
        out = r0v - self.action.apply(source)
        return (out[..., 0], source[..., 0]) if column else (out, source)


def bs_matrix(model, z=None, lam=None, side=None):
    """K = [C R0(.) C] W on the grid, in the L2-isometric representation."""
    return BoundarySystem(model, z=z, lam=lam, side=side).k


def bs_matrix_dz(model, z):
    """d/dz of K_SS(z), the block of K(z) on the support of W, at one z or
    at every point of an array of them: (K, |S|, |S|), K = 1 for one z
    (exact resolvent algebra on the finite backend, central differences of
    the crease-exact block assembly on continuum grids, with a step h per
    point).  K'(z) has the zero columns of K, so
    tr[(Id + K)^(-1) K'] = tr[A^(-1) K'_SS]."""
    if model.backend == "finite":
        system = BoundarySystem(model, z=z)
        r0, _ = system._finite()
        c, s = model.c_diag, system.support
        return (c[:, None] * (r0 @ r0) * c[None, :] @ model.w_matrix)[:, s[:, None], s]
    # hypot, not np.abs: the bits abs() gives one point
    h = 1e-5 * np.maximum(1.0, np.hypot(np.real(z), np.imag(z)))
    plus = BoundarySystem(model, z=z + h)._k_ss()
    return (plus - BoundarySystem(model, z=z - h)._k_ss()) / (2.0 * h)[..., None, None]


def sigma_min(model, lam, side):
    """Smallest singular value of the assembled N x N Id + K(lam, side).

    The full-order reference for ``BoundarySystem.sigma_min``, which gives
    the same value at order |S| + 1 for a radial well with T right of it,
    |S| + 2 on the line, |S| when T is empty and at most 2|S| always;
    production paths use that one.
    """
    k = BoundarySystem(model, lam=lam, side=side).k
    return float(np.linalg.svd(np.eye(model.size) + k, compute_uv=False)[-1])


def weighted_resolvent_H(model, z=None, lam=None, side=None, min_sigma=1e-10):
    """C R_H(.) C W = Id - (Id + K)^(-1) on the grid.

    The product identity (Id - C R_H C W)(Id + C R0 C W) = Id is an exact
    consequence of the second resolvent identity and holds here to
    rounding; callers can re-verify cheaply.  When sigma_min(Id + K) falls
    below ``min_sigma`` the point is flagged as singular instead of
    inverting noise.
    """
    system = BoundarySystem(model, z=z, lam=lam, side=side)
    s = system.sigma_min()
    if s < min_sigma:
        raise SingularBoundaryError(
            f"sigma_min(Id+K) = {s:.3e}: spectral singularity or eigenvalue nearby"
        )
    return np.eye(model.size) - system.inverse()


# ---------------------------------------------------------------------------
# scanning and classification
# ---------------------------------------------------------------------------


@dataclass
class ResonantState:
    """Kernel vector of Id + K and the reconstructed resonant state.

    ``phi`` is normalized on the grid; Psi = -R0(lam +/- i0) C W phi solves
    (-d^2/dx^2 + V - lam) Psi = 0 with a pure outgoing/incoming exterior
    tail whose amplitude is carried exactly by ``tail_amplitude``.
    ``residual``, the relative residual of that equation, is computed when
    first read (a scan reports none), and ``psi_at`` evaluates Psi, each
    from the free action rebuilt at (lam, side): the state keeps no action.
    """

    lam: float
    side: str
    phi: np.ndarray
    psi_samples: np.ndarray
    tail_amplitude: complex
    tail_fit_amplitude: complex
    tail_fit_relerr: float
    kernel_residual: float
    model: OperatorModel = field(repr=False, default=None)

    def _action_source(self):
        """The free action at (lam, side) and the source C W phi of Psi."""
        act = _state_system(self.model, self.lam, self.side).action
        return act, self.model.c_values * self.model.apply_w(self.phi)

    def psi_at(self, points):
        act, source = self._action_source()
        return -act.evaluate(source, points)

    @functools.cached_property
    def residual(self):
        """||(-Psi'' + V Psi - lam Psi)|| / ||Psi|| on interior points
        (``_stationary_residual``), computed on first read and kept."""
        act, source = self._action_source()
        return _stationary_residual(self.model, self.lam, act, source, self.psi_samples)

    @property
    def psi_norm(self):
        g = self.model.grid
        return math.sqrt(float(g.weights @ np.abs(self.psi_samples) ** 2))


@dataclass
class SpectralPointReport:
    """Classification of one real spectral point."""

    lam: float
    kind: str  # regular | outgoing_singularity | incoming_singularity | both | embedded_eigenvalue
    sigma_min_plus: float
    sigma_min_minus: float
    nu: int | None = None
    state: ResonantState | None = None
    quality: dict | None = field(default=None, init=False)   # the fit of order_estimate
    # the golden-section refinement of a scan: (evaluations, final bracket width)
    refinement: tuple | None = field(default=None, init=False)

    def as_record(self):
        record = {
            "lambda": self.lam,
            "sigma_min_plus": self.sigma_min_plus,
            "sigma_min_minus": self.sigma_min_minus,
            "class": self.kind,
            "nu": self.nu,
        }
        if self.quality is not None:
            record["nu_slope"] = self.quality["slope"]
            record["nu_ambiguous"] = self.quality["ambiguous"]
        if self.refinement is not None:
            record["refine_evaluations"], record["refine_width"] = self.refinement
        return record


def _golden_min(f, a, b, tol):
    """Golden-section search for a minimum of f on [a, b] down to a bracket
    of width at most tol: (x, f(x), the evaluations of f, the final bracket
    width), x the midpoint of the final bracket."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    evaluations = 3   # c, d and the midpoint
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        evaluations += 1
    x = (a + b) / 2.0
    return x, f(x), evaluations, b - a


def _sigma_pair(model, lam):
    """sigma_min(Id + K(lam, +)) and sigma_min(Id + K(lam, -)), the minus
    side on the mirror of the plus side's free kernel; two (K,) arrays for
    a stack of lam."""
    plus = BoundarySystem(model, lam=lam, side="+")
    return plus.sigma_min(), plus.mirror().sigma_min()


def classify_point(model, lam, detection_threshold=DETECTION_THRESHOLD):
    """SpectralPointReport at a single admissible lam (no refinement)."""
    sp, sm = _sigma_pair(model, lam)
    out = sp < detection_threshold
    inc = sm < detection_threshold
    if out and inc:
        kind = "both"
    elif out:
        kind = "outgoing_singularity"
    elif inc:
        kind = "incoming_singularity"
    else:
        kind = "regular"
    return SpectralPointReport(float(lam), kind, sp, sm)


def sigma_profile(model, lam_grid):
    """sigma_min(Id + K(lam, +/-)) at every point of a scan grid, by side.

    The grid must start on the admissible boundary and end within the
    energy the model grid resolves.  The points run in stacks of at most
    ``BATCH_POINTS``: one stacked plus-side system and its mirror per
    stack, so both sides of a point share one free kernel.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    for lam in (lam_grid[0], lam_grid[-1]):
        model.require_boundary(lam, "+")
    limit = model.max_scan_energy()
    if lam_grid[-1] > limit:
        raise AdmissibilityError(
            f"scan range exceeds grid resolution: lam_max {lam_grid[-1]:.3g} > {limit:.3g}"
        )
    profile = over_stacks(model, lambda lam: np.stack(_sigma_pair(model, lam), axis=-1),
                          lam_grid)
    return {"+": profile[:, 0], "-": profile[:, 1]}


def scan_singularities(model, lam_grid, detection_threshold=DETECTION_THRESHOLD):
    """Scan sigma_min(Id + K(lam, +/-)) and classify refined minima.

    Local minima of either side falling below ``REGULAR_FLOOR`` are
    refined by golden-section search to a bracket of width
    ``REFINE_WIDTH``, over their two neighbouring gaps (over the one gap
    of a minimum at an end of the grid); refined minima below
    ``detection_threshold`` are reported.  Refined minima closer than
    ``MERGE_WIDTH`` (1e-7) are one singularity: two distinct singularities
    closer than that are reported once.  A point singular on both sides is
    tested for square integrability of its resonant state and promoted to
    ``embedded_eigenvalue`` when the outgoing tail amplitude vanishes.
    ``classify_minima`` classifies a ``sigma_profile`` the caller computed
    (to report it, say), and estimates orders on request.
    """
    return classify_minima(model, lam_grid, sigma_profile(model, lam_grid),
                           detection_threshold)


def candidate_minima(lam_grid, profile):
    """(side, a, b) for every local minimum of a ``sigma_profile`` result
    below ``REGULAR_FLOOR``, [a, b] the bracket ``classify_minima`` refines
    it over: its two neighbouring gaps, or the one gap of a minimum at an
    end of the grid."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    candidates = []
    for side in ("+", "-"):
        v = profile[side]
        for i in range(len(v)):
            lo, hi = max(i - 1, 0), min(i + 1, len(v) - 1)
            if lo < hi and v[i] <= v[lo] and v[i] <= v[hi] and v[i] < REGULAR_FLOOR:
                candidates.append((side, lam_grid[lo], lam_grid[hi]))
    return candidates


def classify_minima(model, lam_grid, profile, detection_threshold=DETECTION_THRESHOLD,
                    estimate_orders=False):
    """The reports of ``scan_singularities`` from a ``sigma_profile`` result;
    refined minima closer than ``MERGE_WIDTH`` (1e-7) merge into one."""
    if not (0 < detection_threshold < 0.5):
        raise ModelError("detection threshold must lie in (0, 0.5)")
    reports = []
    seen = []
    for side, a, b in candidate_minima(lam_grid, profile):
        lam_star, val, evaluations, width = _golden_min(
            lambda l: BoundarySystem(model, lam=l, side=side).sigma_min(), a, b, REFINE_WIDTH)
        if val >= detection_threshold:
            continue
        if any(abs(lam_star - s) < MERGE_WIDTH for s in seen):
            continue
        seen.append(lam_star)
        rep = classify_point(model, lam_star, detection_threshold)
        rep.refinement = (evaluations, width)
        if rep.kind == "both":
            try:
                st = resonant_state(model, lam_star, "+", detection_threshold)
                rep.state = st
                if embedded_eigenvalue_test(st) == "eigenvalue":
                    rep.kind = "embedded_eigenvalue"
            except ModelError:
                pass
        elif rep.kind != "regular":
            try:
                rep.state = resonant_state(model, lam_star, side, detection_threshold)
            except ModelError:
                pass
        if estimate_orders and rep.kind != "regular":
            eps = np.geomspace(1e-1, 1e-4, 10)
            rep.nu, rep.quality = order_estimate(model, lam_star, side, eps)
        reports.append(rep)
    reports.sort(key=lambda r: r.lam)
    return reports


# ---------------------------------------------------------------------------
# resonant states
# ---------------------------------------------------------------------------


def _state_system(model, lam, side):
    """Boundary system at lam: boundary value on the essential spectrum,
    decaying resolvent-set kernel for lam < 0 (bound-state energies)."""
    if lam < 0:
        return BoundarySystem(model, z=complex(lam))
    return BoundarySystem(model, lam=lam, side=side)


def resonant_state(model, lam_star, side, detection_threshold=DETECTION_THRESHOLD):
    """Kernel vector of Id + K at a detected singularity and its state.

    phi is the right singular vector of the smallest singular value
    (``BoundarySystem.kernel_vector``, with its phase rule); the state is
    reconstructed as Psi(x) = -int G_{lam +/- i0}(x, y) c(y) (W phi)(y) dy and certified by
    the relative residual of the stationary equation on interior points,
    which the state computes when it is read (``ResonantState.residual``).
    Negative lam addresses discrete (bound-state) energies, where the
    kernel is the real decaying resolvent-set kernel.
    """
    system = _state_system(model, lam_star, side)
    kernel_residual, x = system.kernel_vector()
    if kernel_residual > detection_threshold:
        raise ModelError(
            f"sigma_min(Id+K) = {kernel_residual:.3e} above detection threshold: "
            "no kernel vector to extract"
        )
    phi = x / model.grid.sqrtw  # the sample representation: unit norm on the grid

    act = system.action
    source = model.c_values * model.apply_w(phi)
    psi = -act.apply(source)
    tail_amp = -act.outgoing_amplitude(source)
    fit_amp, fit_err = _tail_fit(model, act, source)

    return ResonantState(
        lam=float(lam_star), side=side, phi=phi, psi_samples=psi,
        tail_amplitude=tail_amp,
        tail_fit_amplitude=fit_amp, tail_fit_relerr=fit_err,
        kernel_residual=kernel_residual, model=model,
    )


def _stationary_residual(model, lam, act, source, psi):
    """||(-Psi'' + V Psi - lam Psi)|| / ||Psi|| on interior sample points.

    Psi = -R0 source is evaluated exactly off the grid; V Psi = C W C Psi
    is sampled on the grid and interpolated, for either form of W.
    """
    g = model.grid

    breakpoints = model.potential.breakpoints
    h = 1e-3
    lo, hi = g.lo + 5 * h, g.hi - 5 * h
    pts = np.linspace(lo, hi, 101)
    ok = np.ones(pts.shape, bool)
    for b in breakpoints:
        ok &= np.abs(pts - b) > 3 * h
    pts = pts[ok]

    sten = np.array([-1.0 / 12, 4.0 / 3, -5.0 / 2, 4.0 / 3, -1.0 / 12]) / h**2
    # Psi at every point, one stencil offset at a time
    vals = np.array([-act.evaluate(source, pts + off) for off in h * np.arange(-2, 3)])
    d2 = sten @ vals
    vpsi = g.interpolate(model.c_values * model.apply_w(model.c_values * psi), pts)
    res = np.abs(-d2 + vpsi - lam * vals[2])
    mag = np.abs(vals[2])
    scale = math.sqrt(float(np.mean(mag**2)))
    return float(math.sqrt(np.mean(res**2)) / max(scale, 1e-300))


def _tail_fit(model, act, source):
    """Least-squares fit of the exterior tail amplitude (the DERIVED check).

    Fits Psi(x) = -(R0 source)(x) ~ A e^{i k x}, k the wavenumber of the
    action, on exterior sample points beyond the support of W (both
    exterior branches on the line backend).
    """
    g = model.grid
    k = act.k
    hi_support = max(abs(b) for b in model.potential.breakpoints) if model.potential.breakpoints else 0.0
    lo = max(hi_support + 0.5, g.hi - 0.45 * (g.hi - hi_support))
    pts = np.linspace(lo, g.hi + 3.0, 40)
    vals = -act.evaluate(source, pts)
    basis = np.exp(1j * k * pts)   # exactly 1 at the threshold k = 0
    denom = np.vdot(basis, basis)
    if abs(denom) < 1e-300:
        raise ModelError("tail fit failed: grid too short for an exterior window")
    a = complex(np.vdot(basis, vals) / denom)
    resid = np.linalg.norm(vals - a * basis)
    scale = np.linalg.norm(vals)
    rel = float(resid / scale) if scale > 0 else 0.0
    return a, rel


def embedded_eigenvalue_test(state):
    """'eigenvalue' when the outgoing tail amplitude vanishes (state in L2),
    'resonance' otherwise."""
    scale = state.psi_norm
    if not np.isfinite(scale) or scale == 0:
        raise ModelError("degenerate resonant state")
    if state.lam < 0:
        return "eigenvalue"  # resolvent-set kernel: the tail decays by construction
    vanishes = abs(state.tail_amplitude) <= 1e-6 * scale
    if state.tail_fit_relerr > 0.5 and not vanishes:
        raise ModelError(
            f"tail fit failed (relative misfit {state.tail_fit_relerr:.2f}); "
            "grid too short to classify"
        )
    return "eigenvalue" if vanishes else "resonance"


# ---------------------------------------------------------------------------
# adjoint, dissipative and threshold structure
# ---------------------------------------------------------------------------


def adjoint_consistency(model, lam):
    """Factorization identity and H vs H* zero-location agreement.

    Checks Id = (Id - W (Id + M W)^(-1) M)(Id + W M) with M = C R0 C, and
    that sigma_min(Id + M W) and sigma_min(Id + W M) vanish together.
    """
    g = model.grid
    m = weighted_matrix(model, resolvent_action(model, lam=lam, side="+"))
    w = (g.sqrtw[:, None] * model.apply_w(np.eye(model.size))) / g.sqrtw[None, :]
    eye = np.eye(m.shape[0])
    mw = m @ w
    wm = w @ m
    inv = np.linalg.solve(eye + mw, m)
    identity_residual = float(np.linalg.norm((eye - w @ inv) @ (eye + wm) - eye, 2))
    s_mw = float(np.linalg.svd(eye + mw, compute_uv=False)[-1])
    s_wm = float(np.linalg.svd(eye + wm, compute_uv=False)[-1])
    # H* boundary operator at (lam, -) is the entrywise conjugate system
    k_star = np.conj(m) @ np.conj(w)
    s_star = float(np.linalg.svd(eye + k_star, compute_uv=False)[-1])
    return {
        "lambda": float(lam),
        "identity_residual": identity_residual,
        "sigma_min_MW": s_mw,
        "sigma_min_WM": s_wm,
        "sigma_min_adjoint": s_star,
    }


def dissipative_audit(model, lam_range=(1e-3, 25.0), n_grid=300):
    """Dissipative structure checks (requires W2 >= 0).

    Continuum: (a) the outgoing scan of H is empty whenever the outgoing
    scan of its self-adjoint part H_{V1} is empty; (b) any incoming
    singular state found reports ||W2 phi|| / ||phi|| (the vanishing of
    which is expected for outgoing candidates only).  Finite backend:
    every real eigenvector of H lies in Ker(V2) and is an eigenvector of
    H_{V1}.
    """
    if not model.dissipative:
        raise ModelError("dissipative audit requested on a non-dissipative model")
    report = {}
    if model.backend == "finite":
        lam, vecs = np.linalg.eig(model.h)
        v2 = model.v2_matrix
        hv1 = model.h0 + model.v1_matrix
        entries = []
        for j in range(lam.size):
            if abs(lam[j].imag) < 1e-9:
                u = vecs[:, j] / np.linalg.norm(vecs[:, j])
                entries.append({
                    "lambda": complex(lam[j]),
                    "v2_residual": float(np.linalg.norm(v2 @ u)),
                    "hv1_residual": float(np.linalg.norm(hv1 @ u - lam[j].real * u)),
                })
        report["real_eigenvalues"] = entries
        report["eigenvalue_imag_parts"] = [float(x) for x in np.sort(lam.imag)]
        report["passed"] = all(
            e["v2_residual"] <= 1e-10 and e["hv1_residual"] <= 1e-8 for e in entries
        )
        return report

    grid_lam = np.linspace(lam_range[0], lam_range[1], n_grid)
    profile = sigma_profile(model, grid_lam)
    report["outgoing_sigma_min"] = float(profile["+"].min())
    out_scan = classify_minima(model, grid_lam, profile)
    outgoing = [r for r in out_scan
                if r.kind in ("outgoing_singularity", "both", "embedded_eigenvalue")]
    report["outgoing_detected"] = [r.as_record() for r in outgoing]

    sa_model = _self_adjoint_part(model)
    sa_scan = scan_singularities(sa_model, grid_lam)
    sa_out = [r for r in sa_scan
              if r.kind in ("outgoing_singularity", "both", "embedded_eigenvalue")]
    report["self_adjoint_outgoing_detected"] = [r.as_record() for r in sa_out]

    incoming = [r for r in out_scan if r.kind in ("incoming_singularity", "both")]
    if incoming and model.w_sample_matrix is not None:
        raise ModelError("W2 ratios are implemented for multiplication W only")
    w2_ratios = []
    for r in incoming:
        st = r.state or resonant_state(model, r.lam, "-")
        w2_vec = (-model.w_values.imag) * st.phi
        g = model.grid
        num = math.sqrt(float(g.weights @ np.abs(w2_vec) ** 2))
        den = math.sqrt(float(g.weights @ np.abs(st.phi) ** 2))
        w2_ratios.append({"lambda": r.lam, "w2_ratio": num / den})
    report["incoming_w2_ratios"] = w2_ratios
    report["passed"] = (len(sa_out) > 0) or (len(outgoing) == 0)
    return report


def _self_adjoint_part(model):
    """The model with W replaced by its Hermitian part W1, the real part of
    the potential, on the model's own grid and weight: H_{V1} is compared
    with H on one discretization."""
    from . import model as M

    pot = model.potential
    real_pot = M.PotentialSpec(
        pieces=tuple((a, b, complex(v.real)) for a, b, v in pot.pieces),
        func=(None if pot.func is None else (lambda x, f=pot.func: np.real(f(x)) + 0j)),
        support=pot.support, sigma=pot.sigma,
    )
    return M.OperatorModel(model.backend, potential=real_pot, weight=model.weight,
                           grid=model.grid)


def order_estimate(model, lam_star, side, eps_samples):
    """Order nu of a singularity from the blow-up of ||C R_H C W||.

    Fits log || Id - (Id + K(lam* + i s eps))^(-1) || against -log eps;
    nu is the nearest integer, flagged ambiguous beyond 0.2.
    """
    eps_samples = np.asarray(eps_samples, dtype=float)
    if eps_samples.max() / eps_samples.min() < 10.0**2.9:
        raise ModelError("order estimate needs eps samples spanning >= 3 decades")
    sgn = 1.0 if side == "+" else -1.0
    norms = over_stacks(model, lambda z: BoundarySystem(model, z=z).weighted_resolvent_norm(),
                        lam_star + 1j * sgn * eps_samples)
    logs = np.log(norms)
    slope, intercept = np.polyfit(-np.log(eps_samples), logs, 1)
    resid = float(np.std(logs - (-np.log(eps_samples) * slope + intercept)))
    nu = int(round(slope))
    ambiguous = bool(abs(slope - nu) > 0.2)
    if norms.max() < 10.0 * norms.min():
        nu, ambiguous = 0, False  # plateau: regular point
    return nu, {"slope": float(slope), "fit_residual": resid, "ambiguous": ambiguous}


@dataclass
class BoundsReport:
    c0: float
    eps0: float
    exponents: dict
    identity_relative_error: float


def epsilon_bounds_check(model, lam, eps_samples):
    """Power-law bounds of the resolvent near the boundary.

    Fits the eps-exponents of ||R0(lam + i eps) C|| (expected 1/2 on the
    essential spectrum, 0 in the resolvent set) and of the grid norm of
    R_H(lam +/- i eps) (expected <= 1), and verifies the exact norm
    identity ||R0(lam + i eps) C u||^2 = Im <u, C R0(lam + i eps) C u>/eps
    with both sides computed along independent paths (tail-corrected
    L2 norm vs weighted pairing) for a fixed Gaussian u.
    """
    from .model import GaussianBump

    eps_samples = np.asarray(sorted(eps_samples, reverse=True), dtype=float)
    if eps_samples.size < 4:
        raise ModelError("need at least 4 eps samples")
    g = model.grid
    mid = 0.5 * (g.lo + g.hi)
    u = GaussianBump(center=mid if model.backend == "line1d" else 3.0, width=0.5)(g.nodes)

    r0c_norms, rh_norms = [], []
    id_err = 0.0
    for eps in eps_samples:
        system = BoundarySystem(model, z=lam + 1j * eps)
        act = system.action
        m = weighted_matrix(model, act)
        im_part = (m - m.conj().T) / 2j
        # ||R0(z) C||^2 = ||C R0(z*) R0(z) C|| = ||C Im R0(z) C|| / eps
        r0c_norms.append(math.sqrt(np.linalg.norm(im_part, 2) / eps))
        # grid-restricted R_H norm, R_H applied to every grid sample basis vector
        rh, _ = system.resolvent_apply(np.eye(model.size))
        rh_norms.append(np.linalg.norm((g.sqrtw[:, None] * rh) / g.sqrtw[None, :], 2))
        # exact identity, two computation paths
        cu = model.c_values * u
        lhs = act.norm_squared(cu)
        f = act.apply(cu)
        rhs = float((g.weights @ (np.conj(u) * model.c_values * f)).imag) / eps
        id_err = max(id_err, abs(lhs - rhs) / abs(lhs))

    loge = np.log(eps_samples)
    exps = {}
    for name, vals in (("r0c", r0c_norms), ("rh", rh_norms)):
        slope, intercept = np.polyfit(-loge, np.log(vals), 1)
        pred = -loge * slope + intercept
        ci = 2.0 * float(np.std(np.log(vals) - pred)) / math.sqrt(len(vals))
        exps[name] = {"exponent": float(slope), "ci": ci}
    c0 = float(np.exp(np.log(r0c_norms) + 0.5 * loge).max())
    return BoundsReport(
        c0=c0, eps0=float(eps_samples[0]), exponents=exps,
        identity_relative_error=float(id_err),
    )


def threshold_equivalence_check(model):
    """At the radial threshold lam = 0 the two sides coincide.

    The zero-energy kernel min(r, r') is real, so K+(0) = K-(0) exactly and
    the classification at 0 is side-independent.  Refused on the line
    backend (no finite threshold kernel in 1d).
    """
    if model.backend != "radial":
        raise AdmissibilityError(
            "threshold diagnostics need the radial backend (1d threshold diverges)"
        )
    if model.weight.kind == "power" and model.weight.s <= 1.0:
        raise ModelError("threshold work needs weight exponent s > 1 (sigma > 2)")
    rep = classify_point(model, 0.0)
    sp, sm = rep.sigma_min_plus, rep.sigma_min_minus
    return {
        "sigma_min_plus": sp,
        "sigma_min_minus": sm,
        "difference": abs(sp - sm),
        "class": rep.kind,
        "side_independent": abs(sp - sm) <= 1e-10,
    }


# ---------------------------------------------------------------------------
# complex eigenvalues (discrete spectrum) via det(Id + K(z)) = 0
# ---------------------------------------------------------------------------


def _logdet_derivative(model, z):
    """d/dz log det(Id + K(z)) = tr[(Id + K)^(-1) K'(z)] = tr[A^(-1) K'_SS(z)]
    at one z, or at every point of an array of them."""
    system = BoundarySystem(model, z=z)
    d = np.trace(system.a_solve(bs_matrix_dz(model, z)), axis1=1, axis2=2)
    return _as_given(d, system.one)


def locate_eigenvalues(model, re_range=(-10.0, 30.0), im_range=(-6.0, 6.0),
                       n_re=24, n_im=13):
    """Eigenvalues of H off the essential spectrum, det(Id + K(z)) = 0.

    Seeds come from local minima of log|det| on a coarse rectangular grid
    (both half-planes, plus rows hugging the negative real axis where
    bound states live); Newton iterates z <- z - 1/tr[(Id+K)^(-1) K'].
    Roots are validated by the argument principle on small circles
    (winding = multiplicity).
    """
    res = np.linspace(re_range[0], re_range[1], n_re)
    band = np.linspace(im_range[0], im_range[1], n_im)
    ims = np.array(sorted(set(float(b) for b in band if abs(b) > 0.02) | {-0.05, 0.05}))
    surface = over_stacks(model, lambda z: BoundarySystem(model, z=z).log_det()[0],
                          (res[None, :] + 1j * ims[:, None]).ravel()).reshape(ims.size, n_re)
    seeds = []
    for i in range(ims.size):
        for j in range(n_re):
            window = surface[max(0, i - 1): i + 2, max(0, j - 1): j + 2]
            if surface[i, j] == window.min() and surface[i, j] < np.median(surface) - 1.0:
                seeds.append(res[j] + 1j * ims[i])
    roots = []
    for z in seeds:
        zn = z
        ok = False
        for _ in range(40):
            d = _logdet_derivative(model, zn)
            if d == 0:
                break
            step = -1.0 / d
            zn = zn + step
            if abs(step) < 1e-11 * max(1.0, abs(zn)):
                ok = True
                break
        if not ok or not (re_range[0] - 1 < zn.real < re_range[1] + 1):
            continue
        if abs(zn.imag) < 1e-9:
            if zn.real >= -1e-9:
                continue  # on the essential spectrum: the scan's job
            zn = complex(zn.real)  # negative real bound state
        if any(abs(zn - r["z"]) < 1e-7 for r in roots):
            continue
        mult = eigenvalue_winding(model, zn, radius=1e-3)
        if mult >= 1:
            roots.append({"z": complex(zn), "multiplicity": mult})
    roots.sort(key=lambda r: (r["z"].real, r["z"].imag))
    return roots


def _circle(center, radius, n):
    """The n-point midpoint rule (z, dz) on |z - center| = radius, counterclockwise."""
    e = np.exp(1j * (2.0 * math.pi * (np.arange(n) + 0.5) / n))
    return center + radius * e, 1j * radius * e * (2.0 * math.pi / n)


def _contour_trace(model, center, radius, n):
    """(1 / 2 pi i) int tr[(Id + K)^(-1) K'(z)] dz on ``_circle``, its nodes
    in stacks: the zeros of det(Id + K) inside, with multiplicity."""
    zs, dz = _circle(center, radius, n)
    traces = over_stacks(model, lambda z: _logdet_derivative(model, z), zs)
    return np.sum(traces * dz) / (2j * math.pi)


def eigenvalue_winding(model, center, radius, n_nodes=32):
    """Argument-principle count of det(Id + K(z)) zeros inside a circle."""
    return int(round(_contour_trace(model, center, radius, n_nodes).real))
