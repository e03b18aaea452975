"""Channel representations: Kraus and Choi forms, channel profiles,
complementary channels, operator systems, direct sums, Schur channels.

Choi index convention
---------------------
The Choi matrix of a channel taking n x n inputs to m x m outputs is the
(m n) x (m n) matrix

    J = sum_{j,k} Phi(E_jk) (x) E_jk        (output factor first),

equivalently ``J = sum_k vec(A_k) vec(A_k)*`` under the row-vec
convention.  Worked 2 x 2 example to pin the ordering: for the identity
channel on M_2, ``vec(I_2) = (1, 0, 0, 1)`` and

    J = outer(vec(I_2), vec(I_2)) =
        [[1, 0, 0, 1],
         [0, 0, 0, 0],
         [0, 0, 0, 0],
         [1, 0, 0, 1]],

whose row index is (output, input) = (j, a) at position j*n + a.  The
partial trace of J over the *output* factor is the n x n identity for
every trace-preserving channel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .linalg import as_matrix, dagger, dirsum, numerical_rank, unitarity_defect, unvec, vec
from .tolerances import DEFAULT_TOL, Tolerance

# The identity's distance from the kept operator-system span is refused above
# max(eps_eq, this).  Directions dropped at eps_rank carry a part of the
# identity of about their relative singular value, which the floor leaves room for.
_IDENTITY_SPAN_FLOOR = 1e-7

__all__ = [
    "KrausChannel", "ChoiMatrix", "OperatorSystemBasis", "ChannelProfile",
    "choi_of", "minimal_kraus", "apply", "complementary", "operator_system",
    "channel_profile", "direct_sum", "schur_channel", "identity_channel",
    "dephasing_channel",
]


class KrausChannel:
    """A completely positive trace-preserving map given by Kraus matrices.

    ``kraus`` is a nonempty list of m x n matrices A_k with
    ``sum_k A_k* A_k = I_n``, checked on construction by
    :meth:`Tolerance.is_close`.  Instances are immutable.
    """

    __slots__ = ("kraus", "dim_in", "dim_out")

    def __init__(self, kraus, tol: Tolerance = DEFAULT_TOL):
        ops = tuple(as_matrix(a, "Kraus operator") for a in kraus)
        if not ops:
            raise ValidationError("Kraus list must be nonempty")
        m, n = ops[0].shape
        if any(a.shape != (m, n) for a in ops):
            raise ValidationError("all Kraus operators must share one shape")
        defect = _stack_defect(np.array(ops))
        if not tol.is_close(defect, n):
            raise ValidationError(
                f"Kraus list is not trace-preserving: ||sum A*A - I|| = {defect:.3e}")
        for a in ops:
            a.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", n)
        object.__setattr__(self, "dim_out", m)

    def __setattr__(self, *_):
        raise AttributeError("KrausChannel is immutable")

    def __len__(self) -> int:
        return len(self.kraus)

    def __repr__(self) -> str:
        return (f"KrausChannel({self.dim_in}->{self.dim_out}, "
                f"{len(self.kraus)} Kraus operators)")

    def __call__(self, x) -> np.ndarray:
        return apply(self, x)

    def is_unital(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether Phi(I) = I (requires square dimensions)."""
        if self.dim_in != self.dim_out:
            return False
        return tol.is_close(_stack_defect(self.stacked().conj().transpose(0, 2, 1)),
                            self.dim_out)

    def stacked(self) -> np.ndarray:
        """Kraus operators as one (r, m, n) array."""
        return np.array(self.kraus)


def _stack_defect(ops: np.ndarray) -> float:
    """||sum_k A_k* A_k - I|| for a stack (r, m, n): the unitarity defect of
    the A_k stacked vertically, one product.  Of a Kraus list, the
    trace-preservation defect; of its adjoints, the unital defect."""
    return unitarity_defect(ops.reshape(-1, ops.shape[-1]))


class ChoiMatrix:
    """Choi representation of a channel, output (x) input index order.

    Validated to be Hermitian and PSD within tolerance, with the partial
    trace over the output factor equal to the identity.
    """

    __slots__ = ("matrix", "dim_in", "dim_out")

    def __init__(self, matrix, dim_in: int, dim_out: int,
                 tol: Tolerance = DEFAULT_TOL):
        m = as_matrix(matrix, "Choi matrix")
        if m.shape != (dim_in * dim_out, dim_in * dim_out):
            raise ValidationError(
                f"Choi matrix must be {dim_in * dim_out} square, got {m.shape}")
        if not tol.is_hermitian(m):
            raise ValidationError("Choi matrix is not Hermitian within tolerance")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if not tol.is_psd(w):
            raise ValidationError(
                f"Choi matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
        pt = partial_trace_output(m, dim_out, dim_in)
        if not tol.is_close(np.linalg.norm(pt - np.eye(dim_in)), dim_in):
            raise ValidationError(
                "partial trace over the output factor is not the identity")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)

    def __setattr__(self, *_):
        raise AttributeError("ChoiMatrix is immutable")

    def rank(self, tol: Tolerance = DEFAULT_TOL) -> int:
        return numerical_rank(self.matrix, tol)

    def __repr__(self) -> str:
        return f"ChoiMatrix({self.dim_in}->{self.dim_out})"


@dataclass(frozen=True, eq=False)
class OperatorSystemBasis:
    """Orthonormal basis of the operator system span{A_k* A_j} of a minimal
    Kraus list A_1..A_r, from one SVD R = U S Vh of the r^2 x n^2 rows
    conj(vec(A_k* A_j)), row (j, k) at j r + k; ``basis`` unvecs the first
    s rows of conj(Vh) and ``singular`` is S.  ``left`` is U, r^2 x
    min(r^2, n^2); when r <= n it is square, and its columns q past s span
    the relations sum_jk q[j r + k] A_k* A_j = 0."""

    dim: int
    basis: tuple
    s: int
    left: np.ndarray
    singular: np.ndarray


def partial_trace_output(j: np.ndarray, dim_out: int, dim_in: int) -> np.ndarray:
    """Trace the (leading) output factor out of a Choi matrix."""
    return np.einsum("jajb->ab", j.reshape(dim_out, dim_in, dim_out, dim_in))


def choi_of(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> ChoiMatrix:
    """Choi matrix ``sum_k vec(A_k) vec(A_k)*`` of a Kraus channel."""
    vecs = np.array([vec(a) for a in phi.kraus])
    j = np.einsum("ki,kj->ij", vecs, vecs.conj())
    return ChoiMatrix(j, phi.dim_in, phi.dim_out, tol)


def _kraus_from_spectrum(w, cols, dim_out: int, dim_in: int, tol: Tolerance, scale=None):
    """Keep the ``tol.rank(w)`` columns of one ``eigh`` (w, cols) of largest
    w, by descending w, each phase-fixed (largest-magnitude entry real
    positive), times ``scale[i]`` when given, and unvec'd."""
    r = tol.rank(w)
    ops = []
    for i in np.argsort(w)[::-1][:r]:
        col = cols[:, i]
        k = int(np.argmax(np.abs(col)))
        col = col * (np.conj(col[k]) / abs(col[k]))
        op = unvec(col, dim_out, dim_in)
        ops.append(op if scale is None else scale[i] * op)
    return ops


def minimal_kraus(j: ChoiMatrix, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Minimal Kraus representation of a Choi matrix: the operators
    ``unvec(sqrt(l) v)`` of its ``eigh``, counted, ordered and phase-fixed
    by :func:`_kraus_from_spectrum` (|l| are the singular values of J, so
    the count is ``numerical_rank(J)``, J being validated PSD); pairwise
    Frobenius orthogonal."""
    w, v = np.linalg.eigh(j.matrix)
    scale = np.sqrt(np.maximum(w, 0.0))
    return KrausChannel(_kraus_from_spectrum(w, v, j.dim_out, j.dim_in, tol, scale), tol)


def apply(phi: KrausChannel, x) -> np.ndarray:
    """Evaluate ``Phi(X) = sum_k A_k X A_k*``."""
    x = as_matrix(x, "input")
    if x.shape != (phi.dim_in, phi.dim_in):
        raise ValidationError(
            f"input must be {phi.dim_in}x{phi.dim_in}, got {x.shape}")
    return _conjugation_sum(phi.kraus, x)


def _conjugation_sum(ops, x: np.ndarray) -> np.ndarray:
    """sum_k A_k X A_k* over a nonempty sequence of m x n operators, term by
    term from zero, so every caller rounds alike."""
    out = np.zeros((len(ops[0]), len(ops[0])), dtype=complex)
    for a in ops:
        out += a @ x @ dagger(a)
    return out


def minimize_kraus(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Return ``phi`` itself if its Kraus list is minimal, else re-derive,
    from one ``eigh`` of the Gram matrix G = conj(H) H^T of the vec rows H:
    G has the nonzero Choi eigenvalues, and for G v = l v, ``H^T v`` is a
    Choi eigenvector of norm sqrt(l), the vec of a minimal Kraus operator."""
    h = phi.stacked().reshape(len(phi.kraus), -1)
    w, v = np.linalg.eigh(h.conj() @ h.T)
    ops = _kraus_from_spectrum(w, h.T @ v, phi.dim_out, phi.dim_in, tol)
    return phi if len(ops) == len(phi.kraus) else KrausChannel(ops, tol)


def complementary(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Complementary channel of a minimal Kraus representation.

    For a channel with minimal Kraus list A_1..A_r this is the n -> r
    channel with entries ``Psi(X)[j, k] = Tr(A_k* A_j X)``.  A non-minimal
    input is minimized first.  Mixing the Kraus list by an isometry V
    conjugates the output: the list B_k = sum_j V(k,j) A_j has
    complementary V Psi(.) V*.
    Psi's Kraus operators are B_i[j, :] = A_j[i, :], with Gram matrix
    Phi(I)^T, so a unital channel's list is kept as it is.
    """
    phi = channel_profile(phi, tol).minimal
    return minimize_kraus(KrausChannel(phi.stacked().transpose(1, 0, 2), tol), tol)


def operator_system(phi: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> OperatorSystemBasis:
    """Orthonormal basis of span{A_k* A_j} for a minimal Kraus list.

    The dimension s equals the rank of the r^2 x n^2 matrix whose rows
    are vec(A_k* A_j)*, and satisfies r <= s <= r^2.  The basis spans an
    operator system: it contains the identity direction and is closed
    under adjoints.  A non-minimal input is minimized first.
    """
    return channel_profile(phi, tol).system


def _operator_system(phi: KrausChannel, tol: Tolerance) -> OperatorSystemBasis:
    """:func:`operator_system` of a Kraus list already known to be minimal."""
    r, n = len(phi.kraus), phi.dim_in
    a = phi.stacked()
    # [j, k] = A_k* A_j, all r^2 products in one batched matmul
    rows = (a.conj().transpose(0, 2, 1)[None] @ a[:, None]).conj().reshape(r * r, n * n)
    try:
        u, sv, vh = np.linalg.svd(rows, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"operator system SVD failed: {exc}") from exc
    keep = tol.rank(sv)
    if not keep:
        raise ValidationError("operator system is empty; invalid channel")
    b = vh[:keep].conj()  # vec of the basis, one row each
    # identity must lie in the span (trace preservation)
    eye = vec(np.eye(n)) / np.sqrt(n)
    if np.linalg.norm((b.conj() @ eye) @ b - eye) > max(tol.eps_eq, _IDENTITY_SPAN_FLOOR):
        raise ValidationError("identity not contained in the operator system span")
    basis = tuple(b.reshape(keep, n, n))
    return OperatorSystemBasis(dim=n, basis=basis, s=keep, left=u, singular=sv)


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """A minimal Kraus list, its operator system and the tolerance both
    were decided under, which give the Choi rank r and the dimension s.
    Made by :func:`channel_profile`; :func:`complementary` and every entry
    point that reads r and s take it in place of a channel."""

    minimal: KrausChannel
    system: OperatorSystemBasis
    tol: Tolerance

    @property
    def r(self) -> int:
        return len(self.minimal.kraus)

    @property
    def s(self) -> int:
        return self.system.s


def channel_profile(phi, tol: Tolerance = DEFAULT_TOL) -> ChannelProfile:
    """Minimize the Kraus list once and build its operator system.  A
    profile made under the same ``tol`` is returned unchanged; under
    another ``tol`` its rank decisions do not hold, so that raises
    :class:`ValidationError`."""
    if isinstance(phi, ChannelProfile):
        if phi.tol != tol:
            raise ValidationError(f"profile was made under {phi.tol}, not {tol}")
        return phi
    phi_min = minimize_kraus(phi, tol)
    return ChannelProfile(phi_min, _operator_system(phi_min, tol), tol)


def direct_sum(phi: KrausChannel, psi: KrausChannel,
               tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Direct sum channel on M_{n+m}, block constructed.

    Kraus list is {A_i (+) 0} plus {0 (+) B_j}; off-diagonal blocks of the
    input are annihilated.  Choi ranks add, and the list is minimal when
    both inputs are.
    """
    if phi.dim_in != phi.dim_out or psi.dim_in != psi.dim_out:
        raise ValidationError("direct_sum requires square channels")
    n, m = phi.dim_in, psi.dim_in
    ops = [dirsum(a, np.zeros((m, m))) for a in phi.kraus]
    ops += [dirsum(np.zeros((n, n)), b) for b in psi.kraus]
    return KrausChannel(ops, tol)


def schur_channel(c, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Schur multiplication channel X -> C (.) X of a correlation matrix.

    ``c`` must be PSD with unit diagonal.  The Kraus operators are the
    diagonal matrices diag(sqrt(l_k) v_k) from the eigendecomposition of
    C, so the Choi rank equals rank(C).
    """
    c = as_matrix(c, "correlation matrix")
    n = c.shape[0]
    if c.shape != (n, n):
        raise ValidationError("correlation matrix must be square")
    if np.max(np.abs(np.diag(c) - 1)) > tol.eps_eq:
        raise ValidationError("correlation matrix must have unit diagonal")
    if not tol.is_hermitian(c):
        raise ValidationError("correlation matrix must be Hermitian")
    w, v = np.linalg.eigh((c + dagger(c)) / 2)
    if not tol.is_psd(w):
        raise ValidationError(
            f"correlation matrix is not PSD: eigenvalue {w[0]:.3e}")
    # being PSD, no negative eigenvalue is counted: keep the top tol.rank(w)
    ops = [np.diag(np.sqrt(w[i]) * v[:, i]) for i in range(n - tol.rank(w), n)]
    return KrausChannel(ops, tol)


def identity_channel(n: int) -> KrausChannel:
    return KrausChannel([np.eye(n, dtype=complex)])


def dephasing_channel(n: int) -> KrausChannel:
    """Completely dephasing channel: keeps the diagonal, kills the rest."""
    ops = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1
        ops.append(e)
    return KrausChannel(ops)
