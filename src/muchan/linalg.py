"""Dense complex matrix kernel.

Conventions fixed here and inherited by every other module:

* Matrices are numpy ``complex128`` arrays, row-major.
* ``vec`` stacks rows (``vec(A)[(j)*cols + k] = A[j, k]``), so
  ``vec(A X B^T) = kron(A, B) @ vec(X)``.  Never mix with column stacking.
* Numerical rank is :meth:`Tolerance.rank` of the singular values (above
  ``eps_rank`` times the largest), for Hermitian inputs too (uniform
  behavior near defective matrices); the Choi rank applies the same rule
  to the eigenvalues of one ``eigh``, of the Kraus rows' Gram matrix (J
  itself for Choi input).
* Random isometries are Haar distributed and reproducible: the RNG is
  numpy's ``default_rng`` (PCG64) and the QR phase ambiguity is fixed by
  making the triangular factor's diagonal real positive.
"""
from __future__ import annotations

import numbers

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import NumericalError, ValidationError
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "as_matrix", "as_matrix_stack", "vec", "unvec", "dagger", "frob_inner",
    "numerical_rank", "haar_isometry", "haar_unitary", "kron", "schur_product",
    "dirsum", "unitarity_defect",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_matrix_stack(mats, name: str = "matrix"):
    """A new read-only (k, m, n) complex128 stack of the matrices in
    ``mats``, each valid for :func:`as_matrix` (the first invalid one raises
    its error), converted in one pass when they allow it; the list of
    :func:`as_matrix` results when there are none or they differ in shape."""
    mats = mats if isinstance(mats, np.ndarray) else list(mats)
    try:
        s = np.array(mats, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        s = np.empty(0)
    if s.ndim != 3 or not s.size or not np.isfinite(s).all():
        ops = [as_matrix(a, name) for a in mats]
        if not ops or any(a.shape != ops[0].shape for a in ops):
            return ops
        s = np.array(ops)
    s.setflags(write=False)
    return s


def vec(a) -> np.ndarray:
    """Row-stacking vectorization: entry (j, k) lands at index j*cols + k."""
    return np.asarray(a, dtype=complex).reshape(-1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    v = np.asarray(v, dtype=complex)
    if v.size != rows * cols:
        raise ValidationError(f"cannot unvec length-{v.size} vector to {rows}x{cols}")
    return v.reshape(rows, cols)


def dagger(a) -> np.ndarray:
    return np.asarray(a).conj().T


def frob_inner(a, b) -> complex:
    """Frobenius inner product Tr(a* b), conjugate-linear in ``a``."""
    return complex(np.sum(np.conj(a) * b))


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """``tol.rank`` of the singular values: the number above ``eps_rank``
    times the largest, 0 for the zero matrix.  Raises
    :class:`NumericalError` if the SVD does not converge.
    """
    m = as_matrix(m)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    return tol.rank(s)


def haar_isometry(n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """Haar-random isometry V with ``V* V = I``, deterministic per seed.

    A standard complex Gaussian matrix is orthonormalized by QR; the
    diagonal phases of the triangular factor are absorbed into the
    columns, which makes the distribution Haar and the output unique.
    The sizes must be integers with n_rows >= n_cols >= 1 and the seed a
    non-negative integer (bool is refused, numpy integers are taken).
    The search draws a whole block of starts with the same private
    ``_haar_stack``, so its restart i starts at
    ``haar_isometry(N, r, seed + i)`` bit for bit.
    """
    args = (n_rows, n_cols, seed)
    if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in args):
        raise ValidationError(f"n_rows, n_cols and seed must be integers, got {args}")
    if not n_rows >= n_cols >= 1:
        raise ValidationError(f"need n_rows >= n_cols >= 1, got {n_rows} x {n_cols}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return _haar_stack(n_rows, n_cols, (seed,))[0]


def _haar_stack(n_rows: int, n_cols: int, seeds) -> np.ndarray:
    """Haar isometries for ``seeds`` as one (len(seeds), n_rows, n_cols)
    stack, arguments unchecked.  Seed s gives the real and imaginary parts
    in one ``standard_normal((2, n_rows, n_cols))`` call of
    ``default_rng(s)``; one batched QR factors every matrix of the stack
    on its own, so entry k does not depend on the other seeds."""
    g = np.array([np.random.default_rng(s).standard_normal((2, n_rows, n_cols))
                  for s in seeds])
    return _phased_q((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))


def _phased_q(a: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of each matrix in ``a`` (shape (..., m, k),
    m >= k), with the phases of R's diagonal absorbed into Q's columns; a
    zero diagonal entry leaves its column as it is.

    Calls the batched LAPACK gufuncs behind ``np.linalg.qr`` directly, under
    its error guard: geqrf factors a copy of ``a`` in place and ungqr forms
    Q from it.  R is never formed: its diagonal is read from the factored
    copy, so Q and the phases equal those of ``np.linalg.qr`` bit for bit.
    """
    a = np.array(a, dtype=complex)
    with np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="D->D")
        q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    ph = a.diagonal(0, -2, -1)
    mag = abs(ph)
    q *= np.divide(ph, mag, out=np.ones_like(ph), where=mag > 0)[..., None, :]
    return q


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def haar_unitary(n: int, seed: int) -> np.ndarray:
    return haar_isometry(n, n, seed)


def kron(a, b) -> np.ndarray:
    """Tensor product matching the row-vec convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def schur_product(a, b) -> np.ndarray:
    """Entrywise product; shapes must agree."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch in schur product: {a.shape} vs {b.shape}")
    return a * b


def dirsum(a, b) -> np.ndarray:
    """Block-diagonal direct sum of two matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def unitarity_defect(u):
    """Frobenius norm of U*U - I: a float for one matrix, an array of the
    leading shape for a stack (..., m, n), from one batched product."""
    u = np.asarray(u)
    g = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    d = np.linalg.norm(g, axis=(-2, -1))
    return float(d) if d.ndim == 0 else d

