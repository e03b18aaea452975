"""Mixed-unitary rank analysis: decompositions and their one reader
(:func:`decomposition_from_isometry`, which every decomposition computed
from a channel goes through), verification, rank bounds, uniqueness
certificates, the direct-sum gap construction, decomposition equivalence,
and Schur-equivalence testing.  Every entry point that reads r and s takes
a channel or its :class:`~muchan.channels.ChannelProfile`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import (ChannelProfile, KrausChannel, apply, channel_profile,
                       direct_sum, identity_channel, minimize_kraus)
from .exceptions import NumericalError, ValidationError
from .linalg import as_matrix, dagger, dirsum, frob_inner, unitarity_defect
from .tolerances import DEFAULT_TOL, Tolerance

# Memory budget of one chunk of products (_max_commutator, verify_decomposition).
_CHUNK_BYTES = 256 * 1024
# Simultaneous diagonalization (Schur witnesses, _rank_r_decomposition):
_CLUSTER_GAP = 1e-8  # eigenvalues closer than this * max(1, |w|) form one cluster
_DIAGONAL_FLOOR = 1e-13  # a cluster off-diagonal (Frobenius) below this is not refined
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

    Terms with |weight| at or below ``eps_eq`` are dropped on construction;
    the rest must pass :func:`_invariant_error` (no weight below -eps_eq).
    """

    __slots__ = ("dim", "probs", "unitaries")

    def __init__(self, probs, unitaries, tol: Tolerance = DEFAULT_TOL):
        p = np.asarray(probs, dtype=float)
        us = tuple(as_matrix(u, "unitary") for u in unitaries)
        if p.ndim != 1 or len(us) != p.size or p.size == 0:
            raise ValidationError("probs and unitaries must be matching nonempty lists")
        n = us[0].shape[0]
        if any(u.shape != (n, n) for u in us):
            raise ValidationError("all unitaries must be square of one dimension")
        keep = np.abs(p) > tol.eps_eq
        if not np.any(keep):
            raise ValidationError("all weights vanish")
        p, us = p[keep], tuple(u for u, k in zip(us, keep) if k)
        error = _invariant_error(p, us, tol)
        if error is not None:
            raise ValidationError(error)
        p.setflags(write=False)
        for u in us:
            u.setflags(write=False)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "unitaries", us)

    def __setattr__(self, *_):
        raise AttributeError("MixedUnitaryDecomposition is immutable")

    @property
    def n_terms(self) -> int:
        return len(self.probs)

    def to_channel(self) -> KrausChannel:
        return KrausChannel([np.sqrt(p) * u for p, u in zip(self.probs, self.unitaries)])

    def invariants_ok(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """The rules again, under a ``tol`` perhaps tighter than at construction."""
        return _invariant_error(self.probs, self.unitaries, tol) is None

    def __repr__(self) -> str:
        return f"MixedUnitaryDecomposition(dim={self.dim}, terms={self.n_terms})"


def _invariant_error(p: np.ndarray, us, tol: Tolerance) -> Optional[str]:
    """What breaks the rules (weights >= -eps_eq summing to 1, unitary
    terms by ``tol.is_close``), or None."""
    if np.any(p < -tol.eps_eq):
        return "weights must be nonnegative"
    if abs(p.sum() - 1.0) > max(tol.eps_eq, p.size * _WEIGHT_SUM_SLACK):
        return f"weights sum to {p.sum():.12f}, not 1"
    defects = unitarity_defect(np.array(us))
    i = _first_not_close(defects, us[0].shape[0], tol)
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
    equivalent: bool
    witnesses: Optional[tuple]
    max_commutator: float


def verify_decomposition(phi: KrausChannel, d: MixedUnitaryDecomposition,
                         tol: Tolerance = DEFAULT_TOL) -> VerificationResult:
    """Check that ``d`` reproduces the Choi matrix of ``phi``.

    ``choi_residual`` is the relative Frobenius distance
    ``||J(phi) - sum_k p_k vec(U_k)vec(U_k)*|| / ||J(phi)||``; the result
    is ok when it is at most ``eps_eq`` and ``d`` satisfies its own
    invariants (weights and unitarity re-checked here).  The difference
    is the signed product ``H^T diag(1, .., 1, -p_1, .., -p_N) conj(H)`` of
    the rows H = [vec A_i; vec U_k], so equal terms cancel exactly, formed
    in row chunks of ``_CHUNK_BYTES``; ||J(phi)|| is the Frobenius norm of
    the Kraus rows' Gram matrix.  No Choi matrix is built.
    """
    if d.dim != phi.dim_in or phi.dim_in != phi.dim_out:
        raise ValidationError(
            f"dimension mismatch: channel {phi.dim_in}->{phi.dim_out}, "
            f"decomposition dim {d.dim}")
    ka = phi.stacked().reshape(len(phi.kraus), -1)
    h = np.concatenate([ka, np.reshape(d.unitaries, (d.n_terms, -1))])
    w = np.concatenate([np.ones(len(ka)), -d.probs])
    rhs = w[:, None] * h.conj()
    step = max(1, _CHUNK_BYTES // (16 * h.shape[1]))
    sq = sum(np.linalg.norm(h[:, i:i + step].T @ rhs) ** 2
             for i in range(0, h.shape[1], step))
    resid = float(np.sqrt(sq) / np.linalg.norm(ka.conj() @ ka.T))
    ok = resid <= tol.eps_eq and d.invariants_ok(tol)
    return VerificationResult(ok=ok, choi_residual=resid)


def _require_unital_square(phi: KrausChannel, tol: Tolerance, what: str):
    if phi.dim_in != phi.dim_out:
        raise ValidationError(f"{what} requires a square channel, got "
                              f"{phi.dim_in}->{phi.dim_out}")
    if not phi.is_unital(tol):
        raise ValidationError(f"{what} requires a unital channel "
                              "(mixed-unitary channels are unital)")


class _Bounds(NamedTuple):
    upper: int
    exact: Optional[int]
    exact_reason: Optional[str]


def _bounds(r: int, s: int) -> _Bounds:
    """Rank bounds from the Choi rank r and the operator-system dimension
    s: the one place where exactness is decided.

    ``exact = r`` when s <= 3 (``"s<=3"``; for r = 2 this is the r <= 2
    non-extremal case) or when the un-floored upper bound equals r, which
    happens only at s = r^2 - r + 1 (``"s=r^2-r+1"``), never for extremal
    channels (s = r^2, whose un-floored bound falls below r).
    """
    raw_upper = min(r * r - s + 1, r * r - r + 1)
    if r == 3:
        raw_upper = min(raw_upper, 6)
    if s <= 3:
        reason = "s<=3"
    elif raw_upper == r:
        reason = "s=r^2-r+1"
    else:
        reason = None
    return _Bounds(upper=max(raw_upper, r), exact=None if reason is None else r,
                   exact_reason=reason)


def rank_bounds(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> RankBoundsReport:
    """Mixed-unitary rank bounds for a unital square channel.

    upper = min(r^2 - s + 1, r^2 - r + 1), additionally clamped to 6 when
    r = 3; ``exact = r`` when s <= 3 or s = r^2 - r + 1 (see
    :class:`RankBoundsReport`).  (r, s) are read from the channel profile
    and decide the bounds, and the commutator test of its operator system
    gives ``schur_equivalent``.
    """
    profile = channel_profile(phi, tol)
    _require_unital_square(profile.minimal, tol, "rank_bounds")
    r, s = profile.r, profile.s
    b = _bounds(r, s)
    return RankBoundsReport(
        r=r, s=s, lower=r, upper=b.upper, exact=b.exact,
        extremal=(s == r * r),
        schur_equivalent=schur_equivalence_check(profile, tol,
                                                 witnesses=False).equivalent,
        unique_decomposition_certified=(s == r * r - r + 1),
        exact_reason=b.exact_reason,
    )


def uniqueness_certificate(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff s = r^2 - r + 1, certifying mixed-unitary rank r and a
    unique mixed-unitary decomposition.  One-directional: False means
    "not certified", not "not unique".
    """
    profile = channel_profile(phi, tol)
    _require_unital_square(profile.minimal, tol, "uniqueness_certificate")
    r = profile.r
    return profile.s == r * r - r + 1


def _rank_r_decomposition(profile: ChannelProfile,
                          tol: Tolerance) -> MixedUnitaryDecomposition:
    """The unique r-term decomposition of a profile with s = r^2 - r + 1.

    {Q : sum_jk Q[k, j] A_k* A_j in C I}, the complement of the traceless
    image of the complementary channel, has dimension r; for a mixed-unitary
    channel the projectors V* E_jj V of the remixing matrix V span it
    (sqrt(p_j) U_j = sum_k V(j, k) A_k).  Its vec(Q^T) are spanned by vec(I_r)
    and the profile's left singular vectors past s (U is square: s <= n^2
    gives r <= n).  Diagonalizing the family by E gives V = E*; rows phased
    (largest entry real positive) and sorted by that entry's column, so a
    minimal list of scaled unitaries comes back as itself.
    """
    r = profile.r
    q = np.concatenate([profile.system.left[:, profile.s:].T, np.eye(r).reshape(1, -1)])
    q[np.abs(q) <= _RELATION_FLOOR] = 0
    family = _hermitian_parts(q.reshape(-1, r, r).transpose(0, 2, 1))
    v = dagger(_simultaneously_diagonalize(family, np.random.default_rng(0)))
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
    pairs each U_k with +1 and -1 blocks at weight p_k / 2 and is verified
    before being returned; the direct sum's Choi rank is the size of its
    minimal Kraus list.
    """
    if m < 1:
        raise ValidationError("block dimension m must be a positive integer")
    profile = channel_profile(phi, tol)
    _require_unital_square(profile.minimal, tol, "certified_gap_rank")
    r, s = profile.r, profile.s
    if r < 2:
        raise ValidationError(
            "refusal: hypothesis r >= 2 fails (the +/- block construction "
            "degenerates for a unitary channel)")
    if s != r * r - r + 1:
        raise ValidationError(
            "refusal: hypothesis s = r^2 - r + 1 (unique mixed-unitary "
            "decomposition) fails")
    base = _rank_r_decomposition(profile, tol)
    check = verify_decomposition(profile.minimal, base, tol)
    if not check.ok:
        raise NumericalError(
            f"rank-r decomposition failed verification: residual {check.choi_residual:.3e}")
    eye = np.eye(m, dtype=complex)
    d2 = MixedUnitaryDecomposition(np.repeat(base.probs / 2, 2), [
        dirsum(u, b) for u in base.unitaries for b in (eye, -eye)], tol)
    summed = direct_sum(profile.minimal, identity_channel(m), tol)
    check2 = verify_decomposition(summed, d2, tol)
    if not check2.ok:
        raise NumericalError(
            f"gap decomposition failed verification: residual {check2.choi_residual:.3e}")
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


def _cluster_indices(w: np.ndarray) -> list:
    """Index runs of ascending ``w`` split where a step is at least the gap."""
    gap = _CLUSTER_GAP * max(1.0, float(np.abs(w).max()))
    ends = [0, *(np.flatnonzero(np.diff(w) >= gap) + 1).tolist(), w.size]
    return [list(range(a, b)) for a, b in zip(ends, ends[1:])]


def _simultaneously_diagonalize(mats, rng, depth=0) -> np.ndarray:
    """Unitary V with V* M V diagonal for every M in a commuting Hermitian
    family; degenerate blocks are refined recursively."""
    n = mats[0].shape[0]
    if n == 1:
        return np.eye(1, dtype=complex)
    if depth > 32:
        raise NumericalError("simultaneous diagonalization did not separate")
    c = rng.standard_normal(len(mats))
    t = sum(ci * m for ci, m in zip(c, mats))
    t = (t + dagger(t)) / 2
    w, v = np.linalg.eigh(t)
    for cluster in _cluster_indices(w):
        if len(cluster) > 1:
            cols = v[:, cluster]  # a copy: refining the block writes into v
            sub = [dagger(cols) @ m @ cols for m in mats]
            if max(np.linalg.norm(s - np.diag(np.diag(s))) for s in sub) < _DIAGONAL_FLOOR:
                continue
            v[:, cluster] = cols @ _simultaneously_diagonalize(sub, rng, depth + 1)
    return v


def _hermitian_parts(mats) -> list:
    """(M + M*)/2 and (M - M*)/2i of each M above the floor: same complex span."""
    m, mh = np.asarray(mats), np.conj(np.swapaxes(mats, 1, 2))
    parts = np.stack([(m + mh) / 2, (m - mh) / 2j], axis=1).reshape(-1, *m.shape[1:])
    return list(parts[np.linalg.norm(parts, axis=(1, 2)) > _HERMITIAN_PART_FLOOR])


def _max_commutator(basis) -> float:
    """Largest Frobenius norm of B_i B_j - B_j B_i over pairs of ``basis``.

    The basis is stacked once, as rows (B_0; B_1; ...) and as columns
    (B_0 B_1 ...).  A chunk of rows i in [i0, i1) meets every column
    j >= i0 (pairs with j < i0 were met by an earlier chunk), and each of
    the products B_i B_j and B_j B_i is one matrix product of those
    slices.  Chunks are sized so that one product takes about
    ``_CHUNK_BYTES`` (at least one row), which bounds memory at
    any s.
    """
    b = np.asarray(basis, dtype=complex)
    s, n, _ = b.shape
    rows = b.reshape(s * n, n)
    cols = b.transpose(1, 0, 2).reshape(n, s * n)
    best = 0.0
    i0 = 0
    while i0 < s:
        m = s - i0
        i1 = i0 + min(m, max(1, _CHUNK_BYTES // (16 * n * n * m)))
        c = i1 - i0
        ij = (rows[i0 * n:i1 * n] @ cols[:, i0 * n:]).reshape(c, n, m, n)
        ji = (rows[i0 * n:] @ cols[:, i0 * n:i1 * n]).reshape(m, n, c, n)
        d = (ij - ji.transpose(2, 1, 0, 3)).view(float)
        sq = np.einsum("iajb,iajb->ij", d, d)
        best = max(best, float(np.sqrt(sq.max())))
        i0 = i1
    return best


def schur_equivalence_check(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL,
                            *, witnesses: bool = True) -> SchurEquivalence:
    """Decide whether the channel is unitarily equivalent to a Schur map.

    Equivalent iff the operator system is a commuting family, tested on an
    orthonormal basis: ``max_commutator`` is the largest Frobenius norm of
    B_i B_j - B_j B_i over basis pairs, from batched matrix products over
    row chunks of the stacked basis (about 256 KB of products per chunk at
    any s).  When requested (and the test passes), unitaries (U, V) with
    ``U Phi(V D V*) U* = D`` for every diagonal D are constructed by
    simultaneous diagonalization of the family (random combinations drawn
    from a generator seeded with 0) followed by alignment of the rank-one
    images Phi(V E_kk V*); a witness that misses its residual bound,
    max(100 eps_eq n, ``_SCHUR_WITNESS_FLOOR``), raises
    :class:`NumericalError` rather than being silently accepted.
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
    v = _simultaneously_diagonalize(_hermitian_parts(basis), np.random.default_rng(0))
    units = [np.diag(e) for e in np.eye(n, dtype=complex)]
    images = [apply(phi, v @ d @ dagger(v)) for d in units]
    ws = []
    for image in images:
        w = np.linalg.eigh(image)[1][:, -1]
        i0 = int(np.argmax(np.abs(w)))
        ws.append(np.conj(w * (np.conj(w[i0]) / abs(w[i0]))))
    uu, _, vvh = np.linalg.svd(np.array(ws))
    u = uu @ vvh
    resid = max(float(np.linalg.norm(u @ image @ dagger(u) - d))
                for image, d in zip(images, units))
    if resid > max(100 * tol.eps_eq * n, _SCHUR_WITNESS_FLOOR):
        raise NumericalError(
            f"Schur-equivalence witnesses missed tolerance: residual {resid:.3e} "
            "despite a passing commutation test")
    return SchurEquivalence(equivalent=True, witnesses=(u, v),
                            max_commutator=max_comm)
