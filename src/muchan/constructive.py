"""Constructive decomposition algorithms.

* ``zero_diagonal_unitary``: for traceless Z, a unitary U with U Z U*
  having (numerically) vanishing diagonal, by deflation.  Each step needs
  a unit v with v* Z v = 0; it comes from the diagonal alone (the
  diagonal of a traceless matrix averages to 0), by a chain of
  closed-form 2x2 rotations whose targets, the running means of the
  diagonal, always lie between the two diagonal entries being mixed.
* ``decompose_low_dim``: channels whose operator system has dimension at
  most 3 are mixed unitary with rank equal to their Choi rank; the proof
  is run as an algorithm.
* ``toroidal_decompose_small``: convex decompositions of 2x2 and 3x3
  correlation matrices into unimodular rank-one factors.
"""
from __future__ import annotations

import numpy as np

from .analysis import MixedUnitaryDecomposition, _require_unital_square
from .channels import KrausChannel, channel_profile, complementary, schur_channel
from .exceptions import NumericalError, ValidationError
from .linalg import as_matrix, dagger, vec, unvec
from .search import decomposition_from_isometry
from .tolerances import DEFAULT_TOL, Tolerance

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
        if np.any(p < -tol.eps_eq) or abs(p.sum() - 1.0) > max(tol.eps_eq, 1e-12):
            raise ValidationError("weights must be a probability vector")
        for i, v in enumerate(vs):
            dev = float(np.max(np.abs(np.abs(v) - 1.0)))
            if dev > max(tol.eps_eq, 1e-8):
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


def _solve_bracketed_2x2(m: np.ndarray) -> np.ndarray:
    """Unit v = (cos t, e^{i phi} sin t) with v* M v = 0, assuming 0 lies on
    the segment between the diagonal entries of the 2x2 matrix M."""
    z0, z1 = m[0, 0], m[1, 1]
    scale = max(abs(z0), abs(z1), np.abs(m).max(), 1e-300)
    if abs(z0) <= 1e-14 * scale:
        return np.array([1.0, 0.0], dtype=complex)
    if abs(z1) <= 1e-14 * scale:
        return np.array([0.0, 1.0], dtype=complex)
    mu = abs(z1) / abs(z0)
    psi = z0 / abs(z0)
    ap, bp = m[0, 1] / psi, m[1, 0] / psi
    num = -(ap.imag + bp.imag)
    den = ap.real - bp.real
    phi = 0.0 if (abs(num) < 1e-300 and abs(den) < 1e-300) else float(np.arctan2(num, den))
    w = np.exp(1j * phi) * ap + np.exp(-1j * phi) * bp
    g0 = w.real / abs(z0)
    t = float(np.arctan((g0 + np.sqrt(g0 * g0 + 4 * mu)) / (2 * mu)))
    return np.array([np.cos(t), np.exp(1j * phi) * np.sin(t)], dtype=complex)


def _opposite_through_zero(z0: complex, z1: complex, rel: float) -> bool:
    p = z0 * np.conj(z1)
    scale = abs(z0) * abs(z1)
    return scale > 0 and p.real < 0 and abs(p.imag) <= rel * scale


def _null_rayleigh_vector(z: np.ndarray) -> np.ndarray:
    """A unit vector v with v* Z v = 0 for traceless Z.

    Fast paths: a vanishing diagonal entry, then a coordinate pair whose
    diagonal entries bracket 0.  Otherwise a running-mean chain: start at
    w = e_0 with w* Z w = d_0 and, for k = 1..n-1, compress Z onto the
    orthonormal pair (w, e_k).  That 2x2 compression has diagonal
    (mean(d_0..d_{k-1}), d_k), and mean(d_0..d_k) lies on the segment
    between them, so a closed-form 2x2 step moves w to a unit vector in
    span(w, e_k) with w* Z w = mean(d_0..d_k).  After n-1 steps the value
    is Tr(Z)/n = 0.  Only the diagonal of Z decides the targets.
    """
    n = z.shape[0]
    nrm = float(np.linalg.norm(z))
    d = np.diag(z)
    for i in range(n):
        if abs(d[i]) <= 1e-14 * nrm:
            e = np.zeros(n, dtype=complex)
            e[i] = 1
            return e
    for i in range(n):
        for j in range(i + 1, n):
            if _opposite_through_zero(d[i], d[j], 1e-12):
                x = _solve_bracketed_2x2(z[np.ix_([i, j], [i, j])])
                v = np.zeros(n, dtype=complex)
                v[i], v[j] = x
                return v
    w = np.zeros(n, dtype=complex)
    w[0] = 1
    mean = d[0]
    for k in range(1, n):
        # the diagonal of B - mean(d_0..d_k) I is (-step, k * step)
        step = (d[k] - mean) / (k + 1)
        b = np.array([[-step, np.conj(w) @ z[:, k]], [z[k] @ w, k * step]])
        x = _solve_bracketed_2x2(b)
        w = x[0] * w
        w[k] = x[1]
        mean += step
    return w


def _first_column_unitary(v: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given unit vector."""
    n = v.size
    m = np.eye(n, dtype=complex)
    m[:, 0] = v
    q, _ = np.linalg.qr(m)
    q[:, 0] *= np.conj(q[:, 0]) @ v
    return q


def zero_diagonal_unitary(z, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary U such that U Z U* has vanishing diagonal, for traceless Z.

    Deflation: find a unit vector v with v* Z v = 0, rotate it to the
    first coordinate, and recurse on the trailing block (still traceless).
    The identity is returned whenever the diagonal already vanishes.
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
    if abs(np.trace(z)) > max(tol.eps_eq * nrm, 1e-12):
        raise ValidationError(
            f"matrix is not traceless: |Tr| = {np.ldexp(abs(np.trace(z)), e):.3e}")
    u = _zero_diag_recurse(z)
    resid = float(np.max(np.abs(np.diag(u @ z @ dagger(u)))))
    if resid > 1e-8 * nrm:
        raise NumericalError(
            "zero-diagonal construction missed tolerance: residual "
            f"{resid / nrm:.3e} relative to the Frobenius norm")
    return u


def _zero_diag_recurse(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    if n == 1:
        return np.eye(1, dtype=complex)
    nrm = float(np.linalg.norm(z))
    if nrm == 0 or np.max(np.abs(np.diag(z))) <= 1e-16 * nrm:
        return np.eye(n, dtype=complex)
    v = _null_rayleigh_vector(z)
    q = _first_column_unitary(v)
    z1 = dagger(q) @ z @ q
    sub = _zero_diag_recurse(z1[1:, 1:])
    u = np.eye(n, dtype=complex)
    u[1:, 1:] = sub
    return u @ dagger(q)


def _traceless_hermitian_directions(basis, n: int, k: int):
    """The k leading orthonormal traceless Hermitian directions of an
    operator-system basis (k = s - 1 spans them with the identity), via an
    isometric real embedding so the principal directions stay Hermitian."""
    if k == 0:
        return []
    eye = np.eye(n, dtype=complex)
    cands = []
    for b in basis:
        c = b - (np.trace(b) / n) * eye
        for h in ((c + dagger(c)) / 2, (c - dagger(c)) / 2j):
            if np.linalg.norm(h) > 1e-13:
                cands.append(h)
    x = np.array([np.concatenate([vec(h).real, vec(h).imag]) for h in cands])
    vh = np.linalg.svd(x, full_matrices=False)[2]
    return [unvec(w[:n * n] + 1j * w[n * n:], n, n) for w in vh[:k]]


def decompose_low_dim(phi: KrausChannel,
                      tol: Tolerance = DEFAULT_TOL) -> MixedUnitaryDecomposition:
    """Mixed-unitary decomposition with N = Choi rank, for s <= 3.

    Steps: build the complementary channel Psi of the profile's minimal list;
    take the s - 1 traceless Hermitian directions H, K that span the
    operator system with the identity (K = 0 when s <= 2, H = K = 0 when
    s = 1); rotate Psi(H) + i Psi(K) to vanishing diagonal by a unitary U;
    read the decomposition with U as the remixing isometry
    (:func:`~muchan.search.decomposition_from_isometry`), which must keep
    all r terms or :class:`NumericalError` is raised; make each unitary's
    first nonzero entry real positive.
    """
    profile = channel_profile(phi, tol)
    phi = profile.minimal
    _require_unital_square(phi, tol, "decompose_low_dim")
    n, r = phi.dim_in, profile.r
    if profile.s > 3:
        raise ValidationError(
            f"refusal: operator system has dimension {profile.s} > 3")
    psi = complementary(profile, tol)
    dirs = _traceless_hermitian_directions(profile.system.basis, n, profile.s - 1)
    zmat = np.zeros((r, r), dtype=complex)
    for coeff, h in zip((1, 1j), dirs):
        zmat = zmat + coeff * psi(h)
    d = decomposition_from_isometry(phi, zero_diagonal_unitary(zmat, tol), tol)
    if d.n_terms < r:
        raise NumericalError(
            f"low-dimension construction kept {d.n_terms} of {r} terms (weight <= eps_eq)")
    return MixedUnitaryDecomposition(
        d.probs, [_phase_fix_first_entry(u) for u in d.unitaries], tol)


def _phase_fix_first_entry(u: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry (row-major) real positive."""
    flat = u.reshape(-1)
    cutoff = 1e-9 * float(np.max(np.abs(flat)))
    idx = int(np.argmax(np.abs(flat) > cutoff))
    return u * (np.conj(flat[idx]) / abs(flat[idx]))


def toroidal_from_decomposition(d: MixedUnitaryDecomposition,
                                tol: Tolerance = DEFAULT_TOL) -> ToroidalDecomposition:
    """Convert a diagonal-unitary decomposition of a Schur channel into the
    corresponding toroidal decomposition (vectors = diagonals)."""
    vectors = []
    for u in d.unitaries:
        off = np.linalg.norm(u - np.diag(np.diag(u)))
        if off > max(tol.eps_eq, 1e-8):
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
