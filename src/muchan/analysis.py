"""Mixed-unitary rank analysis: decompositions and their one reader
(:func:`decomposition_from_isometry`, which every decomposition computed
from a channel goes through), verification (:func:`_verified` for every
returned decomposition), rank bounds, uniqueness
certificates, the direct-sum gap construction, decomposition equivalence,
and Schur-equivalence testing.  Every entry point that reads r and s takes
a channel or its :class:`~muchan.channels.ChannelProfile`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import (ChannelProfile, KrausChannel, channel_profile,
                       direct_sum, identity_channel, minimize_kraus)
from .exceptions import NumericalError, ValidationError
from .linalg import as_matrix_stack, dagger, frob_inner, unitarity_defect
from .tolerances import DEFAULT_TOL, Tolerance

# Memory budget of one chunk of verify_decomposition's signed product.
_CHUNK_BYTES = 256 * 1024
_HERMITIAN_PART_FLOOR = 1e-12  # parts (M +- M*)/2 of norm at most this are dropped
# Relation-vector entries at most this are SVD rounding, read as 0: exact structure
# (a list of scaled unitaries) gives an exact remixing matrix.
_RELATION_FLOOR = 1e-12
# Weights may sum to 1 within max(eps_eq, this per term): the rounding of a
# sum of that many floats.
_WEIGHT_SUM_SLACK = 1e-15
_GROUP_WEIGHT_SLACK = 1e-12  # regrouped weights match within max(eps_eq, this)
_SCHUR_WITNESS_FLOOR = 1e-7  # witness residual allowed beside 100 eps_eq n

__all__ = [
    "MixedUnitaryDecomposition", "VerificationResult", "RankBoundsReport",
    "GapRankCertificate", "SchurEquivalence",
    "decomposition_from_isometry", "verify_decomposition", "rank_bounds",
    "uniqueness_certificate", "certified_gap_rank", "decompositions_equivalent",
    "schur_equivalence_check",
]


class MixedUnitaryDecomposition:
    """A convex combination of unitary conjugations: probabilities p_k and
    unitaries U_k representing X -> sum_k p_k U_k X U_k*.

    The constructor copies the unitaries into one read-only (N, n, n) stack,
    which :meth:`stacked` returns (``unitaries`` is the tuple of its
    matrices).  Terms with |weight| at or below ``eps_eq`` are dropped; the
    rest must pass :func:`_weight_error` and :func:`_unitarity_error` under
    ``tol``, which is kept.
    """

    __slots__ = ("dim", "probs", "unitaries", "tol", "_stack")

    def __init__(self, probs, unitaries, tol: Tolerance = DEFAULT_TOL):
        p = np.asarray(probs, dtype=float)
        us = as_matrix_stack(unitaries, "unitary")
        if p.ndim != 1 or len(us) != p.size or p.size == 0:
            raise ValidationError("probs and unitaries must be matching nonempty lists")
        _fill(self, p, us, tol)
        error = _unitarity_error(self._stack, tol)
        if error is not None:
            raise ValidationError(error)

    def __setattr__(self, *_):
        raise AttributeError("MixedUnitaryDecomposition is immutable")

    @property
    def n_terms(self) -> int:
        return len(self.probs)

    def stacked(self) -> np.ndarray:
        """The unitaries as one read-only (N, n, n) array, the same on every call."""
        return self._stack

    def to_channel(self) -> KrausChannel:
        return KrausChannel([np.sqrt(p) * u for p, u in zip(self.probs, self.unitaries)])

    def invariants_ok(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """The rules under ``tol``, decided again only if it is not ``self.tol``."""
        return tol == self.tol or not (_weight_error(self.probs, tol)
                                       or _unitarity_error(self._stack, tol))

    def __repr__(self) -> str:
        return f"MixedUnitaryDecomposition(dim={self.dim}, terms={self.n_terms})"


def _fill(d: MixedUnitaryDecomposition, p: np.ndarray, us, tol: Tolerance):
    """Set the fields of ``d`` to the terms with |weight| above ``eps_eq``
    of weights p and a stack of unitaries, after every rule but unitarity."""
    if isinstance(us, list) or us.shape[1] != us.shape[2]:
        raise ValidationError("all unitaries must be square of one dimension")
    if not np.isfinite(p).all():  # before the drop, which a NaN would pass
        raise ValidationError("weights must be finite")
    keep = np.abs(p) > tol.eps_eq
    if not np.any(keep):
        raise ValidationError("all weights vanish")
    p, us = p[keep], us[keep]
    error = _weight_error(p, tol)
    if error is not None:
        raise ValidationError(error)
    p.setflags(write=False)
    us.setflags(write=False)
    object.__setattr__(d, "dim", us.shape[1])
    object.__setattr__(d, "probs", p)
    object.__setattr__(d, "unitaries", tuple(us))
    object.__setattr__(d, "tol", tol)
    object.__setattr__(d, "_stack", us)


def _weight_error(p: np.ndarray, tol: Tolerance) -> Optional[str]:
    """What breaks the weight rules (each >= -eps_eq, summing to 1), or None."""
    if np.any(p < -tol.eps_eq):
        return "weights must be nonnegative"
    if abs(p.sum() - 1.0) > max(tol.eps_eq, p.size * _WEIGHT_SUM_SLACK):
        return f"weights sum to {p.sum():.12f}, not 1"
    return None


def _unitarity_error(us: np.ndarray, tol: Tolerance) -> Optional[str]:
    """The first term of a stack that is not unitary by ``tol.is_close``, or None."""
    defects = unitarity_defect(us)
    i = _first_not_close(defects, us.shape[1], tol)
    return None if i is None else f"term {i} is not unitary: defect {defects[i]:.3e}"


def _first_not_close(defects: np.ndarray, n: int, tol: Tolerance) -> Optional[int]:
    """Index of the first defect that fails ``tol.is_close`` at n, or None.
    The rule is monotone in the defect, so one test of the largest decides."""
    if not defects.size or tol.is_close(defects.max(), n):
        return None
    return next(i for i, d in enumerate(defects) if not tol.is_close(d, n))


def decomposition_from_isometry(phi_minimal: KrausChannel, v: np.ndarray,
                                tol: Tolerance = DEFAULT_TOL) -> MixedUnitaryDecomposition:
    """Mixed-unitary decomposition read from an N x r isometry V that
    remixes the minimal Kraus list A_1..A_r (a longer list fails the column
    count) into C_j = sum_k V(j, k) A_k, with weights p_j = ||C_j||^2 / n.

    Terms with p_j <= ``eps_eq`` are dropped; every other C_j / sqrt(p_j)
    must have unitarity defect ||U*U - I|| within ``tol.is_close`` at n = 1,
    i.e. at most ``eps_eq`` (unscaled: 1e-9 at the default ``tol``; the
    search passes its caller's), or :class:`NumericalError` names j.  The weights are
    renormalized.  That bound implies the constructor's (``tol.is_close`` at
    n), so the decomposition is built with the constructor's other rules and
    no second unitarity check.  The closed-form rank-r, low-dimension and
    search decompositions all come from here.
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
    d = object.__new__(MixedUnitaryDecomposition)
    _fill(d, p / sum(p.tolist()), us, tol)
    return d


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    choi_residual: float


@dataclass(frozen=True)
class RankBoundsReport:
    """Choi rank, operator-system dimension, and mixed-unitary rank bounds.

    ``exact`` is set only when a theorem pins the mixed-unitary rank
    (never from search outcomes), and ``exact_reason`` names it:
    ``"s<=3"``, ``"s=r^2-r+1"``, or None when no theorem applies.
    ``upper`` is floored at ``lower``; the bounds carry meaning for
    mixed-unitary channels, where N >= r always.
    """

    r: int
    s: int
    lower: int
    upper: int
    exact: Optional[int]
    extremal: bool
    schur_equivalent: bool
    unique_decomposition_certified: bool
    exact_reason: Optional[str]

    def as_dict(self) -> dict:
        return {
            "r": self.r, "s": self.s, "lower": self.lower, "upper": self.upper,
            "exact": self.exact, "exact_reason": self.exact_reason,
            "extremal": self.extremal,
            "schur_equivalent": self.schur_equivalent,
            "uniqueness_certified": self.unique_decomposition_certified,
        }


@dataclass(frozen=True)
class GapRankCertificate:
    choi_rank: int
    mu_rank: int
    decomposition: "MixedUnitaryDecomposition"
    base_decomposition: "MixedUnitaryDecomposition"


@dataclass(frozen=True)
class SchurEquivalence:
    """Outcome of :func:`schur_equivalence_check`.

    ``max_commutator`` is the one-element probe max_i ||B_i T - T B_i||
    for the seeded unit element T of the operator system, not the largest
    pairwise commutator ||B_i B_j - B_j B_i|| (it is at most sqrt(s - 1)
    times that); ``equivalent`` requires it to be at most ``eps_eq``.
    """

    equivalent: bool
    witnesses: Optional[tuple]
    max_commutator: float


def verify_decomposition(phi: KrausChannel, d: MixedUnitaryDecomposition,
                         tol: Tolerance = DEFAULT_TOL) -> VerificationResult:
    """Check that ``d`` reproduces the Choi matrix of ``phi``.

    ``choi_residual`` is the relative Frobenius distance
    ``||J(phi) - sum_k p_k vec(U_k)vec(U_k)*|| / ||J(phi)||``; the result
    is ok when it is at most ``eps_eq`` and ``d`` satisfies its own
    invariants under ``tol`` (:meth:`MixedUnitaryDecomposition.invariants_ok`:
    weights and unitarity are decided again only when ``tol`` is not the one
    ``d`` was validated under).  The difference
    is the signed product ``H^T diag(1, .., 1, -p_1, .., -p_N) conj(H)`` of
    the rows H = [vec A_i; vec U_k], so equal terms cancel exactly, formed
    in row chunks of ``_CHUNK_BYTES`` over the columns where H is nonzero
    (exact ``!= 0``: the rest of the product is exactly 0); ||J(phi)|| is
    the Frobenius norm of the Kraus rows' Gram matrix.  No Choi matrix is
    built.
    """
    if d.dim != phi.dim_in or phi.dim_in != phi.dim_out:
        raise ValidationError(
            f"dimension mismatch: channel {phi.dim_in}->{phi.dim_out}, "
            f"decomposition dim {d.dim}")
    ka = phi.stacked().reshape(len(phi.kraus), -1)
    h = np.concatenate([ka, d.stacked().reshape(d.n_terms, -1)])
    h = h[:, h.any(axis=0)]
    w = np.concatenate([np.ones(len(ka)), -d.probs])
    rhs = w[:, None] * h.conj()
    step = max(1, _CHUNK_BYTES // (16 * h.shape[1]))
    sq = sum(np.linalg.norm(h[:, i:i + step].T @ rhs) ** 2
             for i in range(0, h.shape[1], step))
    resid = float(np.sqrt(sq) / np.linalg.norm(ka.conj() @ ka.T))
    ok = resid <= tol.eps_eq and d.invariants_ok(tol)
    return VerificationResult(ok=ok, choi_residual=resid)


def _given(phi):
    """What a result for ``phi`` is checked against: ``phi``, or its minimal list."""
    return phi.minimal if isinstance(phi, ChannelProfile) else phi


def _verified(phi, d: MixedUnitaryDecomposition, tol: Tolerance, what: str):
    """``d``, computed for ``phi``, if it verifies under ``tol`` against
    ``_given(phi)``, else NumericalError naming ``what``.  Near the rank
    cutoff a decomposition of the minimal list can miss the channel."""
    check = verify_decomposition(_given(phi), d, tol)
    if not check.ok:
        raise NumericalError(f"{what} failed verification: residual {check.choi_residual:.3e}")
    return d


def _unital_square_profile(phi, tol: Tolerance, what: str) -> ChannelProfile:
    """The profile of ``phi``, refused unless its minimal list is square and unital."""
    profile = channel_profile(phi, tol)
    phi = profile.minimal
    if phi.dim_in != phi.dim_out:
        raise ValidationError(f"{what} requires a square channel, got "
                              f"{phi.dim_in}->{phi.dim_out}")
    if not phi.is_unital(tol):
        raise ValidationError(f"{what} requires a unital channel "
                              "(mixed-unitary channels are unital)")
    return profile


class _Bounds(NamedTuple):
    upper: int
    exact: Optional[int]
    exact_reason: Optional[str]
    unique: bool  # s = r^2 - r + 1: mixed-unitary rank r, unique decomposition
    extremal: bool  # s = r^2


def _bounds(r: int, s: int) -> _Bounds:
    """Rank bounds from the Choi rank r and the operator-system dimension
    s: the one place where exactness, uniqueness and extremality are decided.

    ``exact = r`` when s <= 3 (``"s<=3"``; for r = 2 this is the r <= 2
    non-extremal case) or when s = r^2 - r + 1 (``"s=r^2-r+1"``), the one
    s > 3 at which the un-floored upper bound equals r; never for extremal
    channels (s = r^2, whose un-floored bound falls below r).
    """
    raw_upper = min(r * r - s + 1, r * r - r + 1)
    if r == 3:
        raw_upper = min(raw_upper, 6)
    unique = s == r * r - r + 1
    if s <= 3:
        reason = "s<=3"
    elif unique:
        reason = "s=r^2-r+1"
    else:
        reason = None
    return _Bounds(upper=max(raw_upper, r), exact=None if reason is None else r,
                   exact_reason=reason, unique=unique, extremal=s == r * r)


def rank_bounds(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> RankBoundsReport:
    """Mixed-unitary rank bounds for a unital square channel.

    upper = min(r^2 - s + 1, r^2 - r + 1), additionally clamped to 6 when
    r = 3; ``exact = r`` when s <= 3 or s = r^2 - r + 1 (see
    :class:`RankBoundsReport`).  (r, s) are read from the channel profile
    and decide the bounds, and :func:`schur_equivalent` gives
    ``schur_equivalent``.
    """
    profile = _unital_square_profile(phi, tol, "rank_bounds")
    r, s = profile.r, profile.s
    b = _bounds(r, s)
    return RankBoundsReport(
        r=r, s=s, lower=r, upper=b.upper, exact=b.exact,
        extremal=b.extremal,
        schur_equivalent=schur_equivalent(profile, tol),
        unique_decomposition_certified=b.unique,
        exact_reason=b.exact_reason,
    )


def uniqueness_certificate(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff s = r^2 - r + 1, certifying mixed-unitary rank r and a
    unique mixed-unitary decomposition.  One-directional: False means
    "not certified", not "not unique".
    """
    profile = _unital_square_profile(phi, tol, "uniqueness_certificate")
    return _bounds(profile.r, profile.s).unique


def _rank_r_decomposition(profile: ChannelProfile,
                          tol: Tolerance) -> MixedUnitaryDecomposition:
    """The unique r-term decomposition of a profile with s = r^2 - r + 1.

    {Q : sum_jk Q[k, j] A_k* A_j in C I}, the complement of the traceless
    image of the complementary channel, has dimension r; for a mixed-unitary
    channel the projectors V* E_jj V of the remixing matrix V span it
    (sqrt(p_j) U_j = sum_k V(j, k) A_k).  Its vec(Q^T) are spanned by vec(I_r)
    and the profile's left singular vectors past s (U is square: s <= n^2
    gives r <= n).  E, the eigenvectors of one seeded Hermitian combination
    of the family (:func:`_joint_eigenbasis`, one ``eigh``), gives V = E*;
    rows phased (largest entry real positive) and sorted by that entry's
    column, so a minimal list of scaled unitaries comes back as itself.  A
    family that one ``eigh`` does not diagonalize gives remixed operators
    that fail the reader's unitarity check (or, later, verification), which
    raises :class:`NumericalError`.
    """
    r = profile.r
    q = np.concatenate([profile.system.left[:, profile.s:].T, np.eye(r).reshape(1, -1)])
    q[np.abs(q) <= _RELATION_FLOOR] = 0
    family = _hermitian_parts(q.reshape(-1, r, r).transpose(0, 2, 1))
    v = dagger(_joint_eigenbasis(family))
    k = np.argmax(np.abs(v), axis=1)
    top = v[np.arange(r), k]
    v = (v * (top.conj() / np.abs(top))[:, None])[np.argsort(k, kind="stable")]
    return decomposition_from_isometry(profile.minimal, v, tol)


def certified_gap_rank(phi: KrausChannel, m: int,
                       tol: Tolerance = DEFAULT_TOL) -> GapRankCertificate:
    """Certified ranks of ``phi (+) identity on M_m``.

    Requires the uniqueness certificate (s = r^2 - r + 1 with r >= 2) so
    the direct sum provably has Choi rank r + 1 and mixed-unitary rank 2r.
    The r-term decomposition comes in closed form from the profile
    (:func:`_rank_r_decomposition`, no search).  The returned 2r-term one
    pairs each U_k with +1 and -1 blocks at weight p_k / 2, filled into one
    stack whose unitarity is the reader's decision on the U_k; the direct
    sum's Choi rank is the size of its minimal Kraus list.  Both are
    verified (:func:`_verified`), against ``phi`` as given and against its
    direct sum with the identity: the gap check's phi block bounds the base
    residual only up to a factor sqrt(1 + m^2 / ||J_phi||^2), and the base
    one is returned as a certificate too.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValidationError(f"block dimension m must be a positive integer, got {m!r}")
    profile = _unital_square_profile(phi, tol, "certified_gap_rank")
    r = profile.r
    if r < 2:
        raise ValidationError(
            "refusal: hypothesis r >= 2 fails (the +/- block construction "
            "degenerates for a unitary channel)")
    if not _bounds(r, profile.s).unique:
        raise ValidationError(
            "refusal: hypothesis s = r^2 - r + 1 (unique mixed-unitary "
            "decomposition) fails")
    base = _verified(phi, _rank_r_decomposition(profile, tol), tol, "rank-r decomposition")
    # U_k (+) I and U_k (+) -I, filled in as a stack: each is unitary within
    # the reader's decision on U_k, which is not made again
    us, n, eye = base.stacked(), base.dim, np.eye(m, dtype=complex)
    stack = np.zeros((2 * len(us), n + m, n + m), dtype=complex)
    stack[:, :n, :n] = np.repeat(us, 2, axis=0)
    stack[0::2, n:, n:], stack[1::2, n:, n:] = eye, -eye
    d2 = object.__new__(MixedUnitaryDecomposition)
    _fill(d2, np.repeat(base.probs / 2, 2), stack, tol)
    summed = direct_sum(_given(phi), identity_channel(m), tol)
    _verified(summed, d2, tol, "gap decomposition")
    choi_rank = len(minimize_kraus(summed, tol))
    if choi_rank != r + 1:
        raise NumericalError(
            f"direct sum has Choi rank {choi_rank}, expected {r + 1}")
    return GapRankCertificate(choi_rank=choi_rank, mu_rank=2 * r,
                              decomposition=d2, base_decomposition=base)


def decompositions_equivalent(d1: MixedUnitaryDecomposition,
                              d2: MixedUnitaryDecomposition,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether d2 is a regrouping of d1 up to per-term global phases.

    d2's terms are partitioned by greedy best overlap: V_j belongs to the
    group of the U_k maximizing |Tr(U_k* V_j)| (ties to the lower index),
    and must match it to |Tr| = n within n*eps_eq; each group's weights
    must sum to the matching p_k within max(eps_eq, ``_GROUP_WEIGHT_SLACK``).
    """
    if d1.dim != d2.dim:
        raise ValidationError("decompositions have different dimensions")
    n = d1.dim
    group_weight = np.zeros(d1.n_terms)
    for j, v in enumerate(d2.unitaries):
        overlaps = np.array([abs(frob_inner(u, v)) for u in d1.unitaries])
        k = int(np.argmax(overlaps))
        if overlaps[k] < n * (1.0 - tol.eps_eq):
            return False
        group_weight[k] += d2.probs[j]
    return bool(np.all(np.abs(group_weight - d1.probs) <= max(tol.eps_eq, _GROUP_WEIGHT_SLACK)))


def _joint_eigenbasis(mats) -> np.ndarray:
    """Eigenvectors of one seeded Hermitian combination of the family.

    For a commuting Hermitian family, a combination with standard-normal
    coefficients (generator seeded with 0) separates distinct joint
    eigenvalues with probability 1, so its eigenbasis diagonalizes every
    member; a repeated joint eigenvalue is repeated in every member.  No
    check is made here: each caller verifies what it builds from the basis.
    """
    c = np.random.default_rng(0).standard_normal(len(mats))
    t = sum(ci * m for ci, m in zip(c, mats))
    return np.linalg.eigh((t + dagger(t)) / 2)[1]


def _hermitian_parts(mats) -> list:
    """(M + M*)/2 and (M - M*)/2i of each M above the floor: same complex span."""
    m, mh = np.asarray(mats), np.conj(np.swapaxes(mats, 1, 2))
    parts = np.stack([(m + mh) / 2, (m - mh) / 2j], axis=1).reshape(-1, *m.shape[1:])
    return list(parts[np.linalg.norm(parts, axis=(1, 2)) > _HERMITIAN_PART_FLOOR])


def _hermitian_basis(mats, k: int):
    """The k leading orthonormal Hermitian directions spanned by the Hermitian
    parts of ``mats`` (m, n, n), as (k, n, n), and all singular values of the
    parts: one real SVD of the parts as rows [Re vec; Im vec], whose leading
    right singular vectors are real combinations of Hermitian rows."""
    n = np.shape(mats)[-1]
    parts = np.reshape(_hermitian_parts(mats), (-1, n * n))
    _, sv, vh = np.linalg.svd(np.concatenate([parts.real, parts.imag], axis=1),
                              full_matrices=False)
    return (vh[:k, :n * n] + 1j * vh[:k, n * n:]).reshape(k, n, n), sv


def _max_commutator(basis) -> float:
    """Largest Frobenius norm of B_i T - T B_i over ``basis``, for the one
    element T = sum_i c_i B_i / ||c|| with c standard normal from a
    generator seeded with 0.

    T -> ([B_i, T])_i is linear on the span, so if it vanishes at a
    Gaussian-random T it vanishes on the whole span with probability 1.
    Each value is at most sqrt(s - 1) times the largest pairwise
    commutator ||B_i B_j - B_j B_i||, since sum_{j != i} |c_j| <=
    sqrt(s - 1) ||c||.
    """
    b = np.asarray(basis, dtype=complex)
    c = np.random.default_rng(0).standard_normal(len(b))
    t = np.tensordot(c / np.linalg.norm(c), b, axes=1)
    return float(np.linalg.norm(b @ t - t @ b, axis=(1, 2)).max())


def _diagonal_images(phi: KrausChannel, v: np.ndarray) -> np.ndarray:
    """Phi(V E_kk V*) for k = 0..n-1 as an (n, n, n) stack, from rank-one
    terms: Phi(v_k v_k*) = sum_j (A_j v_k)(A_j v_k)* with v_k column k of V.
    One stacked product A_j V and one batched product make all n images in
    O(r n^3), the cost of one dense ``apply``."""
    w = (phi.stacked() @ v).transpose(2, 1, 0)
    return w @ np.conj(w.transpose(0, 2, 1))


def schur_equivalent(phi, tol: Tolerance = DEFAULT_TOL) -> bool:
    """The verdict of :func:`schur_equivalence_check`, without witnesses,
    with s > n decided first: a commuting family closed under adjoints is
    diagonal in one basis, so it spans at most n dimensions, and s > n gives
    False with no commutator probe.  :func:`rank_bounds` and CLI ``analyze``
    take ``schur_equivalent`` from here."""
    profile = channel_profile(phi, tol)
    n = profile.minimal.dim_in
    if profile.s > n and profile.minimal.dim_out == n:
        return False
    return schur_equivalence_check(profile, tol, witnesses=False).equivalent


def schur_equivalence_check(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL,
                            *, witnesses: bool = True) -> SchurEquivalence:
    """Decide whether the channel is unitarily equivalent to a Schur map.

    Equivalent iff the operator system is a commuting family, tested
    against one element of it: ``max_commutator`` is the largest Frobenius
    norm of B_i T - T B_i over an orthonormal basis B, where T is the unit
    combination of the basis with standard-normal coefficients from a
    generator seeded with 0 (one stacked product, O(s n^3)).  When
    requested (and the test passes), unitaries (U, V) with
    ``U Phi(V D V*) U* = D`` for every diagonal D are constructed: V is the
    eigenbasis of one Hermitian combination of the family, with
    standard-normal coefficients from a generator seeded with 0 (one
    ``eigh``, :func:`_joint_eigenbasis`), and U* is the eigenbasis of
    sum_k k Phi(V E_kk V*) = U* diag(0, .., n-1) U (a second ``eigh``, whose
    ascending order is k's; the images come from rank-one terms,
    :func:`_diagonal_images`).  A witness that misses its residual bound,
    max(100 eps_eq n, ``_SCHUR_WITNESS_FLOOR``), raises
    :class:`NumericalError` rather than being silently accepted; this is
    also what catches a V that does not diagonalize the family.
    """
    profile = channel_profile(phi, tol)
    phi, basis = profile.minimal, profile.system.basis
    if phi.dim_in != phi.dim_out:
        raise ValidationError("schur_equivalence_check requires a square channel")
    n = phi.dim_in
    max_comm = _max_commutator(basis)
    if max_comm > tol.eps_eq:
        return SchurEquivalence(equivalent=False, witnesses=None,
                                max_commutator=max_comm)
    if not witnesses:
        return SchurEquivalence(equivalent=True, witnesses=None,
                                max_commutator=max_comm)
    v = _joint_eigenbasis(_hermitian_parts(basis))
    images = _diagonal_images(phi, v)
    u = dagger(np.linalg.eigh(np.tensordot(np.arange(n), images, 1))[1])
    resid = 0.0
    for k, image in enumerate(images):  # one n x n product at a time: O(n^2) memory
        dev = u @ image @ dagger(u)
        dev[k, k] -= 1  # U Phi(V E_kk V*) U* - E_kk
        resid = max(resid, float(np.linalg.norm(dev)))
    if resid > max(100 * tol.eps_eq * n, _SCHUR_WITNESS_FLOOR):
        raise NumericalError(
            f"Schur-equivalence witnesses missed tolerance: residual {resid:.3e} "
            "despite a passing commutation test")
    return SchurEquivalence(equivalent=True, witnesses=(u, v),
                            max_commutator=max_comm)
