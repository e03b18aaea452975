"""Isometry search for mixed-unitary decompositions.

A channel with Choi rank r and complementary channel Psi is mixed unitary
with at most N terms iff some isometry V (N x r) makes V Psi(X) V* have
vanishing diagonal for every traceless X.  The search minimizes

    f(V) = sum_k sum_j |(V B_k V*)(j, j)|^2

over the Stiefel manifold {V : V* V = I_r}, where B_1..B_{s-1} is an
orthonormal basis of the image of the traceless subspace under Psi, read
off the profile's SVD, by Riemannian gradient descent (Wirtinger
gradient, tangent projection, QR retraction) from Haar-random starts;
the diagonals of all V B_k V* are one product of the rows vec(v_j v_j*)
with the flattened basis.  The first trial step after each accepted step
is the alternating Barzilai-Borwein step (Barzilai & Borwein, IMA J.
Numer. Anal. 8 (1988) 141; on the Stiefel manifold, Wen & Yin, Math.
Program. 142 (2013) 397), and a monotone Armijo test with backtracking
guards it, so f never increases.  A restart gives up once
f - tau |grad f|^2 rounds to f: no smaller step can show a decrease.

The restarts of one search run in lockstep along a leading batch axis:
every round makes one Armijo trial for each live restart with stacked
products and one batched QR, while each restart keeps its own step,
counters and stopping rule, so its iterates are exactly those of a
restart run on its own.  Because f never increases, once restart i is
below the objective tolerance every restart above i is dropped, and the
log ends at the first success as if the restarts ran one after another.

``found`` always carries a verified decomposition.  A failed search is
never a certificate: ``not_found`` only reports that all restarts
plateaued above the objective tolerance.
"""
from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (MixedUnitaryDecomposition, RankBoundsReport, _first_not_close,
                       rank_bounds, verify_decomposition)
from .channels import KrausChannel, channel_profile
from .exceptions import NumericalError, ValidationError
from .linalg import _phased_q, dagger, haar_isometry, unitarity_defect
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "SearchConfig", "SearchResult", "RestartRecord", "MurankReport",
    "traceless_image_basis", "search_isometry",
    "decomposition_from_isometry", "murank_search",
]

# First trial step of a restart (and the fallback when a Barzilai-Borwein
# ratio is not finite and positive), Armijo shrink factor, objective a
# success must reach.
STEP_INIT = 0.1
ARMIJO_BETA = 0.5
OBJECTIVE_TOL = 1e-16
STALL_PATIENCE = 30
STALL_REL = 1e-9
POLISH_TOL = 1e-28
GRAD_FLOOR = 1e-30
MAX_BACKTRACKS = 40
UNITARITY_SLACK = 1e-6
DECOMP_RESIDUAL = 1e-8
_TRACELESS_FLOOR = 1e-8  # image-basis |Tr| allowed beside eps_eq: rounding, dropped directions
# Stop reasons, in the order they are tested (see RestartRecord).
STOP_REASONS = ("target", "stall", "max_iters", "grad", "armijo", "budget")
# Restarts per lockstep block.  It bounds the batch arrays' memory; results
# do not depend on it.
_BLOCK = 256


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the Stiefel search.

    Restart i draws its Haar start from ``default_rng(seed + i)``.  The
    restarts run as one lockstep batch (in blocks of at most ``_BLOCK``),
    and each restart's iterates match those of the same restart run
    alone, so the result does not depend on how restarts are grouped.
    ``restarts`` and ``max_iters`` must be positive integers, ``seed`` a
    non-negative one (bool is refused), and ``time_budget`` (seconds,
    checked before every round) a non-negative real number or None.
    """

    restarts: int = 50
    max_iters: int = 2000
    seed: int = 0
    time_budget: Optional[float] = None

    def __post_init__(self):
        counts = (self.restarts, self.max_iters, self.seed)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in counts):
            raise ValidationError(f"restarts, max_iters and seed must be integers, got {counts}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValidationError("restarts and max_iters must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        # written so that NaN fails too: ``now > nan`` would never expire
        budget = self.time_budget
        if budget is not None and (isinstance(budget, bool) or not isinstance(budget, numbers.Real)
                                   or not budget >= 0):
            raise ValidationError(f"time_budget must be a non-negative number, got {budget!r}")


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended.

    ``stop`` is one of ``STOP_REASONS``: the polish target was reached,
    the objective stalled (30 iterations under 1e-9 relative decrease),
    ``max_iters`` ran out, the Riemannian gradient vanished (squared norm
    <= 1e-30), the Armijo backtracking gave up (after 40 rejected trials,
    or once a rejected trial's f - tau g2 rounds to f), or the time budget
    cut it off.  When several hold at once the first in ``STOP_REASONS``
    is reported.
    """

    index: int
    seed: int
    iterations: int          # accepted steps
    evaluations: int         # objective evaluations, the start included
    stop: str
    objective: float


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one isometry search at a fixed candidate size N.

    ``restart_trace`` has one record per restart run, in index order,
    ending at the first success; ``restart_log`` holds the final
    objectives of the records before the first one cut by the budget.
    """

    status: str                      # found | not_found | budget_exhausted
    n_terms: int
    objective: float
    isometry: Optional[np.ndarray]
    decomposition: Optional[MixedUnitaryDecomposition]
    restart_log: tuple
    restart_trace: tuple


@dataclass(frozen=True)
class MurankReport:
    """Outcome of the N-scan: smallest N at which the search succeeded."""

    n_found: Optional[int]
    decomposition: Optional[MixedUnitaryDecomposition]
    bounds: RankBoundsReport
    results: tuple  # per-N SearchResult, in scan order


def traceless_image_basis(phi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {Psi(X) : Tr X = 0}, Psi the complementary
    channel of ``phi`` (a channel or its profile), as an (s - 1, r, r) array.

    From the profile's SVD R = U S Vh of the rows conj(vec(A_k* A_j)),
    vec Psi(X) = conj(R) vec(X^T) = conj(U_s) z with z_i = sigma_i Tr(B_i X)
    for the operator-system basis B_i.  The identity lies in their span, so
    X is traceless iff z is orthogonal to d_i = Tr(B_i) / sigma_i: the image
    is conj(U_s) times columns 1..s-1 of the QR of [d, I_s].  An element's
    |Tr| above max(eps_eq, ``_TRACELESS_FLOOR``) raises NumericalError.
    """
    profile = channel_profile(phi, tol)
    system, r, s = profile.system, profile.r, profile.s
    d = np.trace(np.array(system.basis), axis1=1, axis2=2) / system.singular[:s]
    q = np.linalg.qr(np.column_stack([d, np.eye(s)]))[0][:, 1:]
    basis = (q.T @ system.left[:, :s].T.conj()).reshape(s - 1, r, r)
    worst = np.abs(np.trace(basis, axis1=1, axis2=2)).max(initial=0.0)
    if worst > max(tol.eps_eq, _TRACELESS_FLOOR):
        raise NumericalError(f"image basis not traceless: |Tr| = {worst:.3e}")
    return basis


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _objective(v: np.ndarray, bf: np.ndarray):
    """f and d[..., j, k] = (V B_k V*)(j, j) = vec(v_j v_j*) . vec(B_k) for V
    of shape (..., N, r) with rows v_j; ``bf`` is the basis as (m, r*r)."""
    w = (v[..., :, None] * v.conj()[..., None, :]).reshape(*v.shape[:-1], -1)
    d = w @ bf.T
    return np.sum(np.abs(d) ** 2, axis=(-2, -1)), d


def _euclidean_gradient(v, bf, d):
    """g_j = 2 v_j^T (C_j + C_j*) with C_j = unvec(conj(d_j) @ bf), any basis."""
    c = (d.conj() @ bf).reshape(*v.shape, v.shape[-1])
    return 2 * np.einsum("...ja,...jaq->...jq", v, c + _h(c))


def _descent_direction(v, bf, d):
    """Riemannian gradient at each V (tangent projection) and its squared norm."""
    g = _euclidean_gradient(v, bf, d)
    a = _h(v) @ g
    delta = g - v @ (a + _h(a)) / 2
    return delta, np.sum(np.abs(delta) ** 2, axis=(-2, -1))


def _bb_step(s: np.ndarray, y: np.ndarray, iters: np.ndarray) -> np.ndarray:
    """Alternating Barzilai-Borwein steps for a stack of accepted moves.

    ``s`` and ``y`` are the ambient differences of the iterates and of the
    Riemannian gradients; after an odd number of accepted steps the step is
    <s, s> / |Re<s, y>|, after an even number |Re<s, y>| / <y, y>.  A ratio
    that is not finite and positive falls back to ``STEP_INIT``.
    """
    ss = np.sum(np.abs(s) ** 2, axis=(-2, -1))
    yy = np.sum(np.abs(y) ** 2, axis=(-2, -1))
    sy = np.abs(np.sum((s.conj() * y).real, axis=(-2, -1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(iters % 2 == 1, ss / sy, sy / yy)
    return np.where(np.isfinite(step) & (step > 0), step, STEP_INIT)


def _run_block(basis: np.ndarray, n_terms: int, cfg: SearchConfig,
               indices: range, expired):
    """Run restarts ``indices`` in lockstep along a leading batch axis.

    Each round makes one Armijo trial for every live restart, with its own
    step tau: the trial point retract(V - tau Delta) and its objective.  A
    restart that passes the Armijo test moves to the trial point, gets its
    descent direction there and takes :func:`_bb_step` of the move as its
    next tau; one that fails shrinks its tau by ``ARMIJO_BETA`` and stops
    (``armijo``) once f - tau g2 rounds to f: no smaller step can show a
    decrease when even the first-order one is below f's rounding.  The
    state arrays are compacted only when a restart stops or is dropped.
    Once restart i is below ``OBJECTIVE_TOL`` (f never increases) the live
    restarts above i are dropped: the log ends at the first success.

    Returns the records and final isometries of restarts ``indices[0]``
    up to the first success (or all of them), and whether the time budget
    ran out.
    """
    b, r = len(indices), basis.shape[1]
    bf = basis.reshape(len(basis), r * r)
    v = np.array([haar_isometry(n_terms, r, cfg.seed + i) for i in indices])
    # successful restarts keep polishing well below the acceptance
    # threshold so the induced unitaries come out at machine precision
    target = min(OBJECTIVE_TOL, POLISH_TOL)
    f, d = _objective(v, bf)
    delta, g2 = _descent_direction(v, bf, d)
    pos = np.arange(b)                       # block position of each live restart
    tau = np.full(b, STEP_INIT)
    stall, iters, backtracks = (np.zeros(b, dtype=int) for _ in range(3))
    out_v, records = np.empty_like(v), [None] * b
    first_ok = b                             # lowest position with f <= OBJECTIVE_TOL
    exhausted = False
    for rounds in itertools.count():
        # a rejected trial leaves f, g2, stall and iters as they were, so
        # one test serves the start and every round; in STOP_REASONS order
        tests = (f <= target, stall >= STALL_PATIENCE, iters >= cfg.max_iters,
                 g2 <= GRAD_FLOOR,
                 (backtracks >= MAX_BACKTRACKS) | (backtracks > 0) & (f - tau * g2 == f))
        done = tests[0] | tests[1] | tests[2] | tests[3] | tests[4]
        ok = f <= OBJECTIVE_TOL
        if ok.any():
            first_ok = min(first_ok, int(pos[ok.argmax()]))
        live = ~done & (pos <= first_ok)
        if live.any() and expired():
            exhausted = True
            done |= live
            live[:] = False
        for k in np.flatnonzero(done):
            p, i = pos[k], indices[pos[k]]
            out_v[p] = v[k]
            stop = next((name for name, hit in zip(STOP_REASONS, tests) if hit[k]), "budget")
            records[p] = RestartRecord(index=i, seed=cfg.seed + i, iterations=int(iters[k]),
                                       evaluations=rounds + 1, stop=stop, objective=float(f[k]))
        if not live.any():
            break
        if not live.all():
            pos, v, f, delta, g2, tau, stall, iters, backtracks = (
                x[live] for x in (pos, v, f, delta, g2, tau, stall, iters, backtracks))
        trial = _phased_q(v - tau[:, None, None] * delta)  # QR retraction
        fn, dn = _objective(trial, bf)
        acc = fn <= f - 1e-4 * tau * g2
        tau[~acc] *= ARMIJO_BETA
        backtracks = np.where(acc, 0, backtracks + 1)
        if not acc.any():
            continue
        stalled = f - fn <= STALL_REL * np.maximum(f, 1e-300)
        stall = np.where(acc, np.where(stalled, stall + 1, 0), stall)
        iters += acc
        f = np.where(acc, fn, f)
        moved = trial[acc]
        delta_new, g2[acc] = _descent_direction(moved, bf, dn[acc])
        tau[acc] = _bb_step(moved - v[acc], delta_new - delta[acc], iters[acc])
        v[acc], delta[acc] = moved, delta_new
    records = records[:first_ok + 1]
    return records, list(out_v[:len(records)]), exhausted


def search_isometry(phi, n_terms: int, cfg: SearchConfig = SearchConfig(),
                    tol: Tolerance = DEFAULT_TOL) -> SearchResult:
    """Search for an N x r isometry zeroing all conjugated diagonals of the
    traceless image of ``phi`` (a channel or its profile).

    ``n_terms`` must be an integer (bool is refused) of at least the Choi
    rank r.  ``status="found"`` requires the best objective to reach
    ``OBJECTIVE_TOL`` and the decomposition read from the best isometry
    (unitarity within ``UNITARITY_SLACK`` = 1e-6) to pass verification
    (Choi residual within ``DECOMP_RESIDUAL`` = 1e-8); it is returned with
    the isometry.  Restarts run in index-ordered lockstep blocks of at most
    ``_BLOCK``; the next block starts only while nothing has succeeded.
    The restart log holds each finished restart's final objective up to
    the first success; when the time budget runs out (checked before every
    round) it holds the longest index-ordered prefix of finished restarts.
    """
    if isinstance(n_terms, bool) or not isinstance(n_terms, numbers.Integral):
        raise ValidationError(f"candidate size N must be an integer, got {n_terms!r}")
    profile = channel_profile(phi, tol)
    if n_terms < profile.r:
        raise ValidationError(f"candidate size N={n_terms} is below the rank r={profile.r}")
    basis = traceless_image_basis(profile, tol)
    deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget

    def expired():
        return deadline is not None and time.monotonic() > deadline

    trace, finals, exhausted = [], [], False
    for first in range(0, cfg.restarts, _BLOCK):
        if expired():
            exhausted = True
            break
        records, vs, exhausted = _run_block(
            basis, n_terms, cfg, range(first, min(first + _BLOCK, cfg.restarts)), expired)
        trace += records
        finals += vs
        if exhausted or records[-1].objective <= OBJECTIVE_TOL:
            break
    n_done = next((k for k, rec in enumerate(trace) if rec.stop == "budget"), len(trace))
    log = [rec.objective for rec in trace[:n_done]]
    best_f, best_v = min(zip(log, finals), key=lambda fv: fv[0], default=(np.inf, None))

    status = "found" if best_f <= OBJECTIVE_TOL else (
        "budget_exhausted" if exhausted else "not_found")
    decomposition = None
    if status == "found":
        try:
            decomposition = decomposition_from_isometry(profile.minimal, best_v, Tolerance(
                eps_rank=tol.eps_rank, eps_eq=max(tol.eps_eq, UNITARITY_SLACK)))
        except NumericalError:
            pass
        if decomposition is None or verify_decomposition(
                profile.minimal, decomposition, tol).choi_residual > DECOMP_RESIDUAL:
            status, decomposition = "not_found", None
    return SearchResult(status=status, n_terms=n_terms, objective=float(best_f),
                        isometry=best_v if status == "found" else None,
                        decomposition=decomposition, restart_log=tuple(log),
                        restart_trace=tuple(trace))


def decomposition_from_isometry(phi_minimal: KrausChannel, v: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL) -> MixedUnitaryDecomposition:
    """Mixed-unitary decomposition read from an N x r isometry V that
    remixes the minimal Kraus list A_1..A_r (a longer list fails the column
    count) into C_j = sum_k V(j, k) A_k, with weights p_j = ||C_j||^2 / n.

    Terms with p_j <= ``eps_eq`` are dropped; every other C_j / sqrt(p_j)
    must have unitarity defect ||U*U - I|| within ``tol.is_close`` at n = 1,
    i.e. at most ``eps_eq`` (unscaled: 1e-9 at the default ``tol``; the
    search passes 1e-6), or :class:`NumericalError` names j.  The weights are
    renormalized.  The closed-form rank-r, low-dimension and search
    decompositions all come from here.
    """
    v = np.asarray(v, dtype=complex)
    r, n = len(phi_minimal.kraus), phi_minimal.dim_in
    if v.ndim != 2 or v.shape[1] != r:
        raise ValidationError(f"isometry must have {r} columns, got {v.shape}")
    if not tol.is_close(np.linalg.norm(dagger(v) @ v - np.eye(r)), r):
        raise ValidationError("matrix is not an isometry within tolerance")
    cs = np.tensordot(v, phi_minimal.stacked(), axes=(1, 0))
    # weights term by term and summed left to right: a batched norm or np.sum
    # rounds differently, and saved decompositions are kept bit for bit
    p = np.array([np.linalg.norm(c) ** 2 / n for c in cs])
    kept = np.flatnonzero(p > tol.eps_eq)
    p = p[kept]
    us = cs[kept] / np.sqrt(p)[:, None, None]
    defects = unitarity_defect(us)
    i = _first_not_close(defects, 1, tol)
    if i is not None:
        raise NumericalError(
            f"remixed operator {kept[i]} is not unitary: defect {defects[i]:.3e}")
    return MixedUnitaryDecomposition(p / sum(p.tolist()), us, tol)


def murank_search(phi: KrausChannel, cfg: SearchConfig = SearchConfig(),
                  tol: Tolerance = DEFAULT_TOL) -> MurankReport:
    """Scan candidate sizes N for the smallest successful search.

    Starts at the Choi rank (or at the theorem-certified exact value when
    available) and walks up to the rank bound.  Failures at smaller N are
    recorded as diagnostics; they are soft evidence only and never certify
    a lower bound.  The bounds and the search basis come from one profile.
    """
    profile = channel_profile(phi, tol)
    bounds = rank_bounds(profile, tol)
    start = bounds.exact if bounds.exact is not None else bounds.lower
    results = []
    for n_candidate in range(start, bounds.upper + 1):
        res = search_isometry(profile, n_candidate, cfg, tol)
        results.append(res)
        if res.status == "found":
            return MurankReport(n_found=n_candidate, decomposition=res.decomposition,
                                bounds=bounds, results=tuple(results))
    return MurankReport(n_found=None, decomposition=None, bounds=bounds,
                        results=tuple(results))
