"""Isometry search for mixed-unitary decompositions.

A channel with Choi rank r and complementary channel Psi is mixed unitary
with at most N terms iff some isometry V (N x r) makes V Psi(X) V* have
vanishing diagonal for every traceless X.  The search minimizes

    f(V) = sum_k sum_j (V H_k V*)(j, j)^2

over the Stiefel manifold {V : V* V = I_r}, where H_1..H_{s-1} is an
orthonormal basis of Hermitian matrices of the image of the traceless
subspace under Psi, by Riemannian gradient descent (Wirtinger gradient,
tangent projection, QR retraction) from Haar-random starts.  Psi is
completely positive, so Psi(X)* = Psi(X*): the image is closed under
adjoints and has such a basis, read off the profile's SVD with one small
real SVD more.  On it every diagonal entry d_jk = v_j^T H_k conj(v_j) is
real, so the diagonals are one real product of the rows conj(v_j) v_j^T
(as floats) with the basis as float rows, and the Euclidean gradient
4 v_j^T C_j, with the Hermitian C_j = sum_k d_jk H_k, is one more real
product and a batched matvec.  Every product is made per matrix of the
stack, never over the flattened rows of several restarts, whose BLAS
blocking (and so rounding) depends on the row count.

The first trial step after each accepted step is the alternating
Barzilai-Borwein step (Barzilai & Borwein, IMA J. Numer. Anal. 8 (1988)
141; on the Stiefel manifold, Wen & Yin, Math. Program. 142 (2013) 397),
and a monotone Armijo test with backtracking guards it, so f never
increases.  A restart gives up once
f - tau |grad f|^2 rounds to f: no smaller step can show a decrease.

The restarts of one search run in lockstep along a leading batch axis:
every round makes one Armijo trial for each live restart with stacked
products and one batched QR, while each restart keeps its own step,
counters and stopping rule, so its iterates are exactly those of a
restart run on its own.  A block draws its Haar starts as one stack
factored by one batched QR, equal bit for bit to the starts drawn one by
one.  Each round has one update path: every live restart gets its next
direction and step at its trial point, and each row keeps either the
moved or the backtracked state.
Because f never increases, once restart i is below the objective
tolerance every restart above i is dropped, and the log ends at the
first success as if the restarts ran one after another.

A round costs a fixed part plus a part per live restart.  The fixed part
is the round's hundred or so small numpy calls: one evaluation of each
trial point, sharing conj(V) between the diagonals and V* G; the three
Barzilai-Borwein dots from one float view each of s and y; the stop
tests on the round's starting state (``_stop_tests``, the only code that
holds the stop rules); and in-place selects.  The part per restart is
LAPACK's QR (about 1.3 us) and five per-matrix products (about 1.2 us).
On a 2-core Xeon host with one BLAS thread, a round at the scan's sizes
(gap(3,1) at N = 4..6, the C4 Schur channel at N = 3, 4) took about 69 us
with one live restart and about 137 us with 25.

``found`` means ``verify_decomposition(phi, d, tol).ok`` under the
caller's ``tol`` for the decomposition d read from the best isometry, with
``phi`` the channel as given, or its minimal list only when a profile is
passed (:func:`muchan.analysis._verified`).  A failed search is never a
certificate: ``not_found`` only reports that no restart found one.
"""
from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .analysis import (MixedUnitaryDecomposition, RankBoundsReport, _hermitian_basis,
                       _unital_square_profile, _verified, decomposition_from_isometry,
                       rank_bounds)
from .channels import ChannelProfile, KrausChannel, channel_profile
from .exceptions import NumericalError, ValidationError
from .linalg import _haar_stack, _phased_q
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "SearchConfig", "SearchResult", "RestartRecord", "MurankReport",
    "traceless_image_basis", "search_isometry", "murank_search",
]

# First trial step of a restart (and the fallback when a Barzilai-Borwein
# ratio is not finite and positive), Armijo shrink factor and sufficient
# decrease (a trial at step tau passes when f_new <= f - ARMIJO_C1 tau g2),
# objective a success must reach.
STEP_INIT = 0.1
ARMIJO_BETA = 0.5
ARMIJO_C1 = 1e-4
OBJECTIVE_TOL = 1e-16
STALL_PATIENCE = 30
STALL_REL = 1e-9
POLISH_TOL = 1e-28
GRAD_FLOOR = 1e-30
MAX_BACKTRACKS = 40
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
    """Orthonormal basis of Hermitian matrices spanning {Psi(X) : Tr X = 0},
    Psi the complementary channel of ``phi`` (a channel or its profile), as
    an (s - 1, r, r) array.

    From the profile's SVD R = U S Vh of the rows conj(vec(A_k* A_j)),
    vec Psi(X) = conj(R) vec(X^T) = conj(U_s) z with z_i = sigma_i Tr(B_i X)
    for the operator-system basis B_i.  The identity lies in their span, so
    X is traceless iff z is orthogonal to d_i = Tr(B_i) / sigma_i: the image
    is spanned by conj(U_s) times columns 1..s-1 of the QR of [d, I_s].
    Psi is completely positive, so Psi(X)* = Psi(X*) and the image is closed
    under adjoints: the Hermitian parts of that orthonormal basis span its
    Hermitian elements, a real space of dimension s - 1, and one small real
    SVD of the parts (``analysis._hermitian_basis``) gives an orthonormal
    basis of it, which spans the image over the complex numbers.  On that
    basis every conjugated diagonal the search reads is real.  An element's
    |Tr|, or the s-th singular value of the parts (the distance of the span
    from adjoint closure), above max(eps_eq, ``_TRACELESS_FLOOR``) raises
    NumericalError.
    """
    profile = channel_profile(phi, tol)
    system, r, s = profile.system, profile.r, profile.s
    d = np.trace(np.array(system.basis), axis1=1, axis2=2) / system.singular[:s]
    q = np.linalg.qr(np.column_stack([d, np.eye(s)]))[0][:, 1:]
    basis, sv = _hermitian_basis((q.T @ system.left[:, :s].T.conj()).reshape(s - 1, r, r),
                                 s - 1)
    bound = max(tol.eps_eq, _TRACELESS_FLOOR)
    worst = np.abs(np.trace(basis, axis1=1, axis2=2)).max(initial=0.0)
    if worst > bound:
        raise NumericalError(f"image basis not traceless: |Tr| = {worst:.3e}")
    if sv[s - 1:].max(initial=0.0) > bound:
        raise NumericalError(f"image not closed under adjoints: {sv[s - 1]:.3e}")
    return basis


def _float_rows(basis: np.ndarray) -> np.ndarray:
    """The basis H_1..H_m as real rows (m, 2 r^2): vec(H_k) with real and
    imaginary parts interleaved, the layout of a complex array's float view."""
    m, r = len(basis), basis.shape[-1]
    return np.ascontiguousarray(basis, dtype=complex).reshape(m, r * r).view(float)


def _evaluate(v: np.ndarray, hf: np.ndarray):
    """f, the diagonals d, the Riemannian gradient Delta and its squared
    norm g2 at each V of shape (..., N, r) with rows v_j; ``hf`` is a
    Hermitian basis as :func:`_float_rows`.

    d[..., j, k] = (V H_k V*)(j, j) = v_j^T H_k conj(v_j) is real: the float
    dot of conj(v_j) v_j^T with H_k, Re sum_ab v_ja H_k(a, b) conj(v_jb).
    Delta is the tangent projection G - V (V* G + G* V) / 2 of the Euclidean
    gradient G, and one conj(V) serves d and V* G.  Each matrix of the stack
    makes its own products, so a restart's values do not depend on the batch
    it runs in (one flat product over all rows does)."""
    vc = v.conj()
    w = (vc[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], -1).view(float)
    d = w @ hf.T
    g = _euclidean_gradient(v, hf, d)
    a = np.swapaxes(vc, -1, -2) @ g
    delta = g - v @ (a + np.swapaxes(a.conj(), -1, -2)) / 2
    rows = v.shape[:-2] + (-1,)             # f and g2: one float dot per matrix
    dd, dl = d.reshape(rows), delta.reshape(rows).view(float)
    return np.vecdot(dd, dd), d, delta, np.vecdot(dl, dl)


def _euclidean_gradient(v, hf, d):
    """g_j = 4 v_j^T C_j with C_j = sum_k d_jk H_k, from one product of d
    with the float rows and one batched matvec; C_j is Hermitian for a
    Hermitian basis, so this is 2 v_j^T (C_j + C_j*)."""
    c = (d @ hf).view(complex).reshape(*v.shape, v.shape[-1])
    return 4 * (v[..., None, :] @ c)[..., 0, :]


def _bb_step(s: np.ndarray, y: np.ndarray, iters: np.ndarray) -> np.ndarray:
    """Alternating Barzilai-Borwein steps for a stack of accepted moves.

    ``s`` and ``y`` are the ambient differences of the iterates and of the
    Riemannian gradients; after an odd number of accepted steps the step is
    <s, s> / |Re<s, y>|, after an even number |Re<s, y>| / <y, y>.  A ratio
    that is not finite and positive falls back to ``STEP_INIT``.  The three
    dots are taken from one float view each of s and y.
    """
    shape = s.shape[:-2] + (-1,)
    s, y = s.reshape(shape).view(float), y.reshape(shape).view(float)
    ss, sy, yy = np.vecdot(s, s), np.abs(np.vecdot(s, y)), np.vecdot(y, y)
    # both ratios for every row: x / 0, 0 / 0 and overflow fall back below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = np.where(iters & 1, ss / sy, sy / yy)
    return np.where((step > 0) & np.isfinite(step), step, STEP_INIT)


def _stop_tests(f, g2, tau, stall, iters, backtracks, max_iters, target):
    """The stop tests of ``STOP_REASONS`` but ``budget``, in that order, on
    each restart's state."""
    return (f <= target, stall >= STALL_PATIENCE, iters >= max_iters, g2 <= GRAD_FLOOR,
            (backtracks >= MAX_BACKTRACKS) | (backtracks > 0) & (f - tau * g2 == f))


def _run_block(basis: np.ndarray, n_terms: int, cfg: SearchConfig,
               indices: range, expired):
    """Run restarts ``indices`` in lockstep along a leading batch axis.

    Each round makes one Armijo trial for every live restart, with its own
    step tau: the trial point retract(V - tau Delta) and its objective.  A
    restart that passes the Armijo test moves to the trial point, gets its
    descent direction there and takes :func:`_bb_step` of the move as its
    next tau; one that fails shrinks its tau by ``ARMIJO_BETA`` and stops
    (``armijo``) once f - tau g2 rounds to f: no smaller step can show a
    decrease when even the first-order one is below f's rounding.  Once
    restart i is below ``OBJECTIVE_TOL`` (f never increases) the live
    restarts above i are dropped: the log ends at the first success.

    The starts come from one ``_haar_stack`` call, so restart i starts at
    ``haar_isometry(N, r, seed + i)`` bit for bit.  Every round evaluates
    each trial point once (:func:`_evaluate`) and takes the BB step of
    every row, rejected or not; the Armijo mask picks each row's new state
    in place, so a round has one update path.  Each round opens with one
    call of :func:`_stop_tests`, the only code that holds the stop rules, on
    the current state: it decides which restarts stop and names each one's
    reason.  The state arrays are compacted only in rounds where a restart
    stops or is dropped.

    Returns the records and final isometries of restarts ``indices[0]``
    up to the first success (or all of them), and whether the time budget
    ran out.
    """
    b, r = len(indices), basis.shape[1]
    hf = _float_rows(basis)
    v = _haar_stack(n_terms, r, [cfg.seed + i for i in indices])
    # successful restarts keep polishing well below the acceptance
    # threshold so the induced unitaries come out at machine precision
    target = min(OBJECTIVE_TOL, POLISH_TOL)
    f, _, delta, g2 = _evaluate(v, hf)
    pos = np.arange(b)                       # block position of each live restart
    tau = np.full(b, STEP_INIT)
    stall, iters, backtracks = (np.zeros(b, dtype=int) for _ in range(3))
    out_v, records = np.empty_like(v), [None] * b
    first_ok = b                             # lowest position with f <= OBJECTIVE_TOL
    exhausted = False
    for rounds in itertools.count():
        tests = _stop_tests(f, g2, tau, stall, iters, backtracks, cfg.max_iters, target)
        done = np.logical_or.reduce(tests)
        ok = f <= OBJECTIVE_TOL
        if np.count_nonzero(ok):
            first_ok = min(first_ok, int(pos[ok.argmax()]))
            done |= pos > first_ok           # dropped, and never recorded
        n_done = np.count_nonzero(done)
        if n_done < len(pos) and expired():
            exhausted, n_done = True, len(pos)
            done[:] = True
        if n_done:
            for k in np.flatnonzero(done):
                p, i = pos[k], indices[pos[k]]
                if p > first_ok:
                    continue
                out_v[p] = v[k]
                stop = next((name for name, hit in zip(STOP_REASONS, tests) if hit[k]),
                            "budget")
                records[p] = RestartRecord(index=i, seed=cfg.seed + i,
                                           iterations=int(iters[k]), evaluations=rounds + 1,
                                           stop=stop, objective=float(f[k]))
            if n_done == len(pos):
                break
            keep = np.flatnonzero(~done)
            pos, v, f, delta, g2, tau, stall, iters, backtracks = (
                x.take(keep, axis=0) for x in (pos, v, f, delta, g2, tau, stall, iters,
                                               backtracks))
        trial = _phased_q(v - tau[:, None, None] * delta)  # QR retraction
        fn, _, delta_n, g2n = _evaluate(trial, hf)
        acc = fn <= f - ARMIJO_C1 * tau * g2
        iters += acc
        step = _bb_step(trial - v, delta_n - delta, iters)
        # relative to f, which is > target > 0 on live rows
        np.copyto(stall, (stall + 1) * (f - fn <= STALL_REL * f), where=acc)
        backtracks += 1
        np.copyto(backtracks, 0, where=acc)
        tau *= ARMIJO_BETA
        np.copyto(tau, step, where=acc)
        np.copyto(f, fn, where=acc)
        np.copyto(g2, g2n, where=acc)
        moved = acc[:, None, None]
        np.copyto(v, trial, where=moved)
        np.copyto(delta, delta_n, where=moved)
    records = records[:first_ok + 1]
    return records, list(out_v[:len(records)]), exhausted


class _Scan(NamedTuple):
    """:func:`murank_search`'s input to :func:`search_isometry` at each size."""
    profile: ChannelProfile
    basis: np.ndarray
    target: object  # the channel or profile as given


def search_isometry(phi, n_terms: int, cfg: SearchConfig = SearchConfig(),
                    tol: Tolerance = DEFAULT_TOL) -> SearchResult:
    """Search for an N x r isometry zeroing all conjugated diagonals of the
    traceless image of ``phi`` (a channel or its profile).

    A channel that is not square and unital has no mixed-unitary
    decomposition and is refused with :class:`ValidationError`, as
    :func:`murank_search` refuses it.  ``n_terms`` must be an integer (bool
    is refused) of at least the Choi rank r.  ``status="found"`` requires
    the best objective to reach ``OBJECTIVE_TOL`` and the decomposition d
    read from the best isometry to verify under ``tol`` against ``phi`` as
    given (a profile: its minimal list); it is returned with the
    isometry.  Restarts run in index-ordered lockstep blocks of at most
    ``_BLOCK``; the next block starts only while nothing has succeeded.
    The restart log holds each finished restart's final objective up to
    the first success; when the time budget runs out (checked before every
    round) it holds the longest index-ordered prefix of finished restarts.
    """
    if isinstance(n_terms, bool) or not isinstance(n_terms, numbers.Integral):
        raise ValidationError(f"candidate size N must be an integer, got {n_terms!r}")
    if isinstance(phi, _Scan):  # checked and given its basis once per scan
        profile, basis, target = phi
    else:
        profile, target = _unital_square_profile(phi, tol, "search_isometry"), phi
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
            d = decomposition_from_isometry(profile.minimal, best_v, tol)
            decomposition = _verified(target, d, tol, "search decomposition")
        except NumericalError:
            status = "not_found"
    return SearchResult(status=status, n_terms=n_terms, objective=float(best_f),
                        isometry=best_v if status == "found" else None,
                        decomposition=decomposition, restart_log=tuple(log),
                        restart_trace=tuple(trace))


def murank_search(phi: KrausChannel | ChannelProfile, cfg: SearchConfig = SearchConfig(),
                  tol: Tolerance = DEFAULT_TOL) -> MurankReport:
    """Scan candidate sizes N for the smallest successful search.

    ``phi`` is a channel or its profile (:func:`muchan.channels.channel_profile`).
    Starts at the lower bound (the Choi rank, which is also the
    theorem-certified exact value whenever there is one) and walks up to
    the rank bound, with one :func:`search_isometry` call per size.
    Failures at smaller N are recorded as diagnostics; they are soft
    evidence only and never certify a lower bound.  The channel is profiled
    and checked (in :func:`rank_bounds`) once, and one search basis serves
    every size.  ``cfg.time_budget`` applies to each candidate size on its
    own, so a scan may run for up to the number of sizes times the budget.
    """
    profile = channel_profile(phi, tol)
    bounds = rank_bounds(profile, tol)
    scan = _Scan(profile, traceless_image_basis(profile, tol), phi)
    results = []
    for n_candidate in range(bounds.lower, bounds.upper + 1):
        results.append(search_isometry(scan, n_candidate, cfg, tol))
        if results[-1].status == "found":
            return MurankReport(n_found=n_candidate, decomposition=results[-1].decomposition,
                                bounds=bounds, results=tuple(results))
    return MurankReport(n_found=None, decomposition=None, bounds=bounds,
                        results=tuple(results))
