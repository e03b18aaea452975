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
  channel is applied from the minimal Kraus list, and the decomposition
  is read by :func:`~muchan.analysis.decomposition_from_isometry`.
* ``toroidal_decompose_small``: convex decompositions of 2x2 and 3x3
  correlation matrices into unimodular rank-one factors.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .analysis import (MixedUnitaryDecomposition, _hermitian_parts, _require_unital_square,
                       decomposition_from_isometry)
from .channels import KrausChannel, _conjugation_sum, channel_profile, schur_channel
from .exceptions import NumericalError, ValidationError
from .linalg import as_matrix, dagger
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
    """Convex decomposition C = sum_k p_k u_k u_k* with unimodular vectors."""

    __slots__ = ("dim", "probs", "vectors")

    def __init__(self, probs, vectors, tol: Tolerance = DEFAULT_TOL):
        p = np.asarray(probs, dtype=float)
        vs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in vectors)
        if p.ndim != 1 or p.size != len(vs) or p.size == 0:
            raise ValidationError("probs and vectors must be matching nonempty lists")
        n = vs[0].size
        if any(v.size != n for v in vs):
            raise ValidationError("all vectors must share one length")
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
    M = [[z0, a], [b, z1]], assuming z0 != 0 and z1 = -mu z0 with mu > 0."""
    mu = abs(z1) / abs(z0)
    psi = z0 / abs(z0)
    ap, bp = a / psi, b / psi
    phase = cmath.exp(1j * math.atan2(-(ap.imag + bp.imag), ap.real - bp.real))
    g0 = (phase * ap + bp / phase).real / abs(z0)
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
    Z is first scaled by the power of two that brings its largest real or
    imaginary part into [1/2, 1): the scaling is exact, leaves U
    unchanged, and keeps norms from underflowing or overflowing, so the
    trace test and the residual guard are relative at every scale.
    """
    z = as_matrix(z, "matrix")
    n = z.shape[0]
    if z.shape != (n, n):
        raise ValidationError("zero_diagonal_unitary requires a square matrix")
    parts = np.ascontiguousarray(z).view(float)
    e = int(np.frexp(np.max(np.abs(parts)))[1])
    z = np.ldexp(parts, -e).view(complex)
    nrm = float(np.linalg.norm(z))
    if abs(np.trace(z)) > max(tol.eps_eq * nrm, _ZERO_DIAG_TRACE_FLOOR):
        raise ValidationError(
            f"matrix is not traceless: |Tr| = {np.ldexp(abs(np.trace(z)), e):.3e}")
    # rows 0..n-1 hold M, rows n..2n-1 hold W: a column rotation acts on both
    mw = np.vstack([z, np.eye(n, dtype=complex)])
    for i in range(n - 1):
        for k in range(i + 1, n):
            step = complex(mw[k, k] - mw[i, i]) / (k - i + 1)
            if step == 0:
                continue
            x0, x1 = _solve_bracketed_2x2(-step, complex(mw[i, k]), complex(mw[k, i]),
                                          (k - i) * step)
            g = np.array([[x0, -x1.conjugate()], [x1, x0]])
            p = slice(i, k + 1, k - i)  # indices i and k, as a view
            mw[:, p] = mw[:, p] @ g
            mw[p] = g.conj().T @ mw[p]
    u = dagger(mw[n:])
    resid = float(np.max(np.abs(np.diag(u @ z @ dagger(u)))))
    if resid > _ZERO_DIAG_RESIDUAL * nrm:
        raise NumericalError(
            "zero-diagonal construction missed tolerance: residual "
            f"{resid / nrm:.3e} relative to the Frobenius norm")
    return u


def _traceless_hermitian_directions(basis, k: int) -> np.ndarray:
    """The k leading orthonormal traceless Hermitian directions of an
    operator-system basis (k = s - 1 spans them with the identity), as a
    (k, n, n) array: the Hermitian parts of the basis with its trace
    removed, embedded isometrically as real rows [Re vec; Im vec], whose
    principal right singular vectors stay Hermitian."""
    b = np.asarray(basis)
    n = b.shape[-1]
    c = b - (np.trace(b, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    parts = np.reshape(_hermitian_parts(c), (-1, n * n))
    vh = np.linalg.svd(np.concatenate([parts.real, parts.imag], axis=1),
                       full_matrices=False)[2]
    return (vh[:k, :n * n] + 1j * vh[:k, n * n:]).reshape(k, n, n)


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
    unitary's first nonzero entry real positive.
    """
    profile = channel_profile(phi, tol)
    phi = profile.minimal
    _require_unital_square(phi, tol, "decompose_low_dim")
    r = profile.r
    if profile.s > 3:
        raise ValidationError(
            f"refusal: operator system has dimension {profile.s} > 3")
    dirs = _traceless_hermitian_directions(profile.system.basis, profile.s - 1)
    psi_kraus = phi.stacked().transpose(1, 0, 2)
    zmat = np.zeros((r, r), dtype=complex)
    for coeff, h in zip((1, 1j), dirs):
        zmat = zmat + coeff * _conjugation_sum(psi_kraus, h)
    d = decomposition_from_isometry(phi, zero_diagonal_unitary(zmat, tol), tol)
    if d.n_terms < r:
        raise NumericalError(
            f"low-dimension construction kept {d.n_terms} of {r} terms (weight <= eps_eq)")
    return MixedUnitaryDecomposition(
        d.probs, [_phase_fix_first_entry(u) for u in d.unitaries], tol)


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
