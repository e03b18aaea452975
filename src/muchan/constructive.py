"""Constructive decomposition algorithms.

* ``zero_diagonal_unitary``: for traceless Z, a unitary U with U Z U*
  having (numerically) vanishing diagonal (Fillmore, Amer. Math. Monthly
  76 (1969) 167), by one sweep of closed-form 2x2 plane rotations.  Each
  rotation moves a diagonal entry to a running mean of the diagonal,
  which always lies between the two diagonal entries being mixed; the
  diagonal of a traceless matrix averages to 0.
* ``decompose_low_dim``: channels whose operator system has dimension at
  most 3 are mixed unitary with rank equal to their Choi rank; the proof
  is run as an algorithm on the channel profile alone: the complementary
  channel is applied from the minimal Kraus list, the decomposition is
  read by :func:`~muchan.analysis.decomposition_from_isometry`, and it is
  returned only if it verifies against the channel as given.
* ``toroidal_decompose_small``: convex decompositions of 2x2 and 3x3
  correlation matrices into unimodular rank-one factors.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .analysis import (MixedUnitaryDecomposition, _fill, _hermitian_basis,
                       _unital_square_profile, _verified, decomposition_from_isometry)
from .channels import KrausChannel, _conjugation_sum, schur_channel
from .exceptions import NumericalError, ValidationError
from .linalg import as_matrix
from .tolerances import DEFAULT_TOL, Tolerance

# Toroidal weights may sum to 1 within max(eps_eq, this), and each vector
# entry's modulus may miss 1 by max(eps_eq, the floor).
_TOROIDAL_WEIGHT_SLACK = 1e-12
_UNIMODULAR_FLOOR = 1e-8
# zero_diagonal_unitary, after scaling the largest part of Z into [1/2, 1):
# |Tr Z| is refused above max(eps_eq ||Z||, the floor), and a rotated
# diagonal entry above the bound times ||Z|| raises NumericalError.
_ZERO_DIAG_TRACE_FLOOR = 1e-12
_ZERO_DIAG_RESIDUAL = 1e-8
# A term of a Schur-channel decomposition whose off-diagonal part (Frobenius)
# exceeds max(eps_eq, this) is not a diagonal unitary.
_OFF_DIAGONAL_FLOOR = 1e-8
# Entries at most this times the largest are skipped when phase-fixing a unitary.
_PHASE_ENTRY_CUTOFF = 1e-9

__all__ = [
    "ToroidalDecomposition", "zero_diagonal_unitary", "decompose_low_dim",
    "toroidal_decompose_small", "toroidal_from_decomposition",
]

class ToroidalDecomposition:
    """Convex decomposition C = sum_k p_k u_k u_k* with unimodular vectors,
    kept as read-only copies of the caller's weights and vectors."""

    __slots__ = ("dim", "probs", "vectors")

    def __init__(self, probs, vectors, tol: Tolerance = DEFAULT_TOL):
        p = np.array(probs, dtype=float)
        vs = tuple(np.array(v, dtype=complex).reshape(-1) for v in vectors)
        if p.ndim != 1 or p.size != len(vs) or p.size == 0:
            raise ValidationError("probs and vectors must be matching nonempty lists")
        n = vs[0].size
        if n == 0 or any(v.size != n for v in vs):
            raise ValidationError("all vectors must share one nonzero length")
        if not (np.isfinite(p).all() and all(np.isfinite(v).all() for v in vs)):
            raise ValidationError("weights and vector entries must be finite")
        slack = max(tol.eps_eq, _TOROIDAL_WEIGHT_SLACK)
        if np.any(p < -tol.eps_eq) or abs(p.sum() - 1.0) > slack:
            raise ValidationError("weights must be a probability vector")
        for i, v in enumerate(vs):
            dev = float(np.max(np.abs(np.abs(v) - 1.0)))
            if dev > max(tol.eps_eq, _UNIMODULAR_FLOOR):
                raise ValidationError(
                    f"vector {i} is not unimodular: max deviation {dev:.3e}")
        p.setflags(write=False)
        for v in vs:
            v.setflags(write=False)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "vectors", vs)

    def __setattr__(self, *_):
        raise AttributeError("ToroidalDecomposition is immutable")

    @property
    def n_terms(self) -> int:
        return len(self.probs)

    def matrix(self) -> np.ndarray:
        """The correlation matrix sum_k p_k u_k u_k* this decomposes."""
        vs = np.array(self.vectors)
        return np.einsum("k,ki,kj->ij", self.probs, vs, vs.conj())

    def __repr__(self) -> str:
        return f"ToroidalDecomposition(dim={self.dim}, terms={self.n_terms})"


def _solve_bracketed_2x2(z0: complex, a: complex, b: complex, z1: complex):
    """Unit x = (cos t, e^{i phi} sin t) with x* M x = 0 for the 2x2 matrix
    M = [[z0, a], [b, z1]], assuming z0 != 0 and z1 = -mu z0 with mu > 0.

    When M / psi is Hermitian (b = conj(a) psi^2, as for every block of a
    Hermitian matrix) every phase solves it: both atan2 arguments vanish in
    exact arithmetic, so the phase is the one their rounding residues pick.
    """
    r0 = abs(z0)
    mu = abs(z1) / r0
    psi = z0 / r0
    ap, bp = a / psi, b / psi
    phase = cmath.exp(1j * math.atan2(-(ap.imag + bp.imag), ap.real - bp.real))
    g0 = (phase * ap + bp / phase).real / r0
    if g0 < 0:  # phase and -phase both make g0 real; g0 >= 0 avoids cancellation
        phase, g0 = -phase, -g0
    t = math.atan((g0 + math.sqrt(g0 * g0 + 4 * mu)) / (2 * mu))
    return math.cos(t), phase * math.sin(t)


def zero_diagonal_unitary(z, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary U such that U Z U* has vanishing diagonal, for traceless Z.

    One sweep of 2x2 plane rotations on M = W* Z W, starting from W = I.
    For i = 0..n-2 and k = i+1..n-1 the rotation in plane (i, k) moves
    M[i,i] to the mean of the diagonal entries i..k of the trailing block
    as it stood before row i; that mean lies between M[i,i] (the mean of
    entries i..k-1) and M[k,k], so a closed-form 2x2 solve gives the
    rotation.  After row i, M[i,i] is the trailing block's mean, 0, and
    the block below stays traceless.  U = W*; it is the identity when the
    diagonal already vanishes.
    The sweep runs in Python: it holds the rows of M and W as lists of
    Python complex numbers and makes no numpy call per rotation.  For each
    i, one list holds M's rows i..n-1 and then W's rows, and rotation
    (i, k) updates only what later rotations read: columns i and k of the
    first n - i + k + 1 rows of that list (M's rows i..n-1 and W's rows
    0..k, outside which W's columns i and k are still zero), then rows i
    and k of M over columns i..n-1.  That is O(n^3) Python arithmetic:
    faster than numpy for small n, slower for n in the tens.  numpy does
    the O(n^2) work around the sweep, a few calls in all: Z is scaled by
    the power of two that brings its largest real or imaginary part into
    [1/2, 1) (exact, U unchanged, and no norm underflows or overflows, so
    the trace test and the residual guard are relative at every scale),
    ||Z|| is one dot product of its float parts, and the guard reads
    diag(W* Z W) from one product.  |Tr Z| is summed from the row lists.
    """
    z = as_matrix(z, "matrix")
    n = z.shape[0]
    if z.shape != (n, n):
        raise ValidationError("zero_diagonal_unitary requires a square matrix")
    parts = np.ascontiguousarray(z).view(float)
    e = math.frexp(np.abs(parts).max())[1]
    scaled = np.ldexp(parts, -e)
    z, flat = scaled.view(complex), scaled.reshape(-1)
    nrm = math.sqrt(np.vecdot(flat, flat))
    # M's rows and W's rows as lists of Python complex numbers: a rotation
    # is a few dozen scalar multiply-adds, cheaper than any numpy call
    m = z.tolist()
    trace = abs(sum(row[i] for i, row in enumerate(m)))
    if trace > max(tol.eps_eq * nrm, _ZERO_DIAG_TRACE_FLOOR):
        raise ValidationError(
            f"matrix is not traceless: |Tr| = {math.ldexp(trace, e):.3e}")
    w = [[0j] * n for _ in range(n)]
    for i, row in enumerate(w):
        row[i] = 1 + 0j
    for i in range(n - 1):
        mi = m[i]
        # M's rows i..n-1, then W's; rotation (i, k) reads the first n - i + k + 1
        rows = m[i:] + w
        for k in range(i + 1, n):
            mk = m[k]
            step = (mk[k] - mi[i]) / (k - i + 1)
            if step == 0:
                continue
            x0, x1 = _solve_bracketed_2x2(-step, mi[k], mk[i], (k - i) * step)
            x1c = x1.conjugate()
            # M <- M G and W <- W G with G = [[x0, -x1c], [x1, x0]] on columns
            # i, k; later rotations read M only at rows and columns >= i, and
            # W's columns i and k are still zero below row k
            for row in rows[:n - i + k + 1]:
                a, b = row[i], row[k]
                row[i] = a * x0 + b * x1
                row[k] = b * x0 - a * x1c
            # M <- G* M on rows i, k
            for c in range(i, n):
                a, b = mi[c], mk[c]
                mi[c] = x0 * a + x1c * b
                mk[c] = x0 * b - x1 * a
    w = np.array(w)
    # diag(W* Z W) from one product; vecdot conjugates its first argument
    resid = max(map(abs, np.vecdot(w, z @ w, axis=0).tolist()))
    if resid > _ZERO_DIAG_RESIDUAL * nrm:
        raise NumericalError(
            "zero-diagonal construction missed tolerance: residual "
            f"{resid / nrm:.3e} relative to the Frobenius norm")
    return w.conj().T


def decompose_low_dim(phi: KrausChannel,
                      tol: Tolerance = DEFAULT_TOL) -> MixedUnitaryDecomposition:
    """Mixed-unitary decomposition with N = Choi rank, for s <= 3.

    Steps, all from the channel profile: take the s - 1 traceless Hermitian
    directions H, K that span the operator system with the identity (K = 0
    when s <= 2, H = K = 0 when s = 1); apply the complementary channel
    Psi(X) = sum_i B_i X B_i* to them, with B_i[j, :] = A_j[i, :] read
    from the minimal list A_1..A_r (the B_i have Gram matrix Phi(I)^T = I,
    so they are minimal as they stand); rotate Psi(H) + i Psi(K) to vanishing
    diagonal by a unitary U; read the decomposition with U as the remixing
    isometry (:func:`~muchan.analysis.decomposition_from_isometry`), which
    must keep all r terms or :class:`NumericalError` is raised; make each
    unitary's first nonzero entry real positive; verify the result under
    ``tol`` against ``phi`` as given, or its minimal list only when ``phi``
    is a profile (:func:`~muchan.analysis._verified`), or raise
    :class:`NumericalError`.
    """
    profile = _unital_square_profile(phi, tol, "decompose_low_dim")
    minimal = profile.minimal
    r = profile.r
    if profile.s > 3:
        raise ValidationError(
            f"refusal: operator system has dimension {profile.s} > 3")
    b, n = np.asarray(profile.system.basis), minimal.dim_in
    traceless = b - (np.trace(b, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    dirs = _hermitian_basis(traceless, profile.s - 1)[0]
    psi_kraus = minimal.stacked().transpose(1, 0, 2)
    zmat = np.zeros((r, r), dtype=complex)
    for coeff, h in zip((1, 1j), dirs):
        zmat = zmat + coeff * _conjugation_sum(psi_kraus, h)
    d = decomposition_from_isometry(minimal, zero_diagonal_unitary(zmat, tol), tol)
    if d.n_terms < r:
        raise NumericalError(
            f"low-dimension construction kept {d.n_terms} of {r} terms (weight <= eps_eq)")
    # a unit phase moves each term's unitarity defect only by rounding, so
    # the reader's decision (defect <= eps_eq) stands and is not made again
    fixed = object.__new__(MixedUnitaryDecomposition)
    _fill(fixed, d.probs, np.array([_phase_fix_first_entry(u) for u in d.unitaries]), tol)
    return _verified(phi, fixed, tol, "low-dimension decomposition")


def _phase_fix_first_entry(u: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry (row-major) real positive."""
    flat = u.reshape(-1)
    cutoff = _PHASE_ENTRY_CUTOFF * float(np.max(np.abs(flat)))
    idx = int(np.argmax(np.abs(flat) > cutoff))
    return u * (np.conj(flat[idx]) / abs(flat[idx]))


def toroidal_from_decomposition(d: MixedUnitaryDecomposition,
                                tol: Tolerance = DEFAULT_TOL) -> ToroidalDecomposition:
    """Convert a diagonal-unitary decomposition of a Schur channel into the
    corresponding toroidal decomposition (vectors = diagonals)."""
    vectors = []
    for u in d.unitaries:
        off = np.linalg.norm(u - np.diag(np.diag(u)))
        if off > max(tol.eps_eq, _OFF_DIAGONAL_FLOOR):
            raise ValidationError(
                "decomposition terms are not diagonal; not a Schur-channel decomposition")
        vectors.append(np.diag(u))
    return ToroidalDecomposition(d.probs, vectors, tol)


def toroidal_decompose_small(c, tol: Tolerance = DEFAULT_TOL) -> ToroidalDecomposition:
    """Toroidal decomposition of a 2x2 or 3x3 correlation matrix with
    N = rank(C) terms.  Larger matrices are refused (use the isometry
    search on the Schur channel instead)."""
    c = as_matrix(c, "correlation matrix")
    if c.shape[0] > 3:
        raise ValidationError(
            "refusal: constructive toroidal decompositions cover dim <= 3 only; "
            "run the isometry search on the Schur channel for larger matrices")
    phi = schur_channel(c, tol)
    d = decompose_low_dim(phi, tol)
    return toroidal_from_decomposition(d, tol)
