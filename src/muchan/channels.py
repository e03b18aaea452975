"""Channel representations: Kraus channels, Choi matrices converted to and
from them under one Choi-rank rule, channel profiles, complementary
channels, operator systems, direct sums, Schur channels.

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

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .linalg import (as_matrix, as_matrix_stack, dagger, unitarity_defect,
                     unvec, vec)
from .tolerances import DEFAULT_TOL, Tolerance

# The identity's distance from the kept operator-system span is refused above
# max(eps_eq, this).  Directions dropped at eps_rank carry a part of the
# identity of about their relative singular value, which the floor leaves room for.
_IDENTITY_SPAN_FLOOR = 1e-7

__all__ = [
    "KrausChannel", "OperatorSystemBasis", "ChannelProfile", "choi_of",
    "kraus_from_choi", "apply", "complementary", "operator_system",
    "channel_profile", "direct_sum", "schur_channel", "identity_channel",
    "dephasing_channel",
]


class KrausChannel:
    """A completely positive trace-preserving map given by Kraus matrices.

    The constructor copies a nonempty list of m x n matrices A_k with
    ``sum_k A_k* A_k = I_n`` into one read-only (r, m, n) stack, which it
    validates (the sum checked by :meth:`Tolerance.is_close`) and
    :meth:`stacked` returns; ``kraus`` is the tuple of the stack's matrices.
    Instances are immutable and share no array with the caller.
    """

    __slots__ = ("kraus", "dim_in", "dim_out", "_stack")

    def __init__(self, kraus, tol: Tolerance = DEFAULT_TOL):
        ops = as_matrix_stack(kraus, "Kraus operator")
        if not len(ops):
            raise ValidationError("Kraus list must be nonempty")
        if isinstance(ops, list):
            raise ValidationError("all Kraus operators must share one shape")
        _, m, n = ops.shape
        defect = _stack_defect(ops)
        if not tol.is_close(defect, n):
            raise ValidationError(
                f"Kraus list is not trace-preserving: ||sum A*A - I|| = {defect:.3e}")
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "dim_in", n)
        object.__setattr__(self, "dim_out", m)
        object.__setattr__(self, "_stack", ops)

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
        """The Kraus operators as the channel's own read-only (r, m, n)
        array, the same object on every call."""
        return self._stack


def _stack_defect(ops: np.ndarray) -> float:
    """||sum_k A_k* A_k - I|| for a stack (r, m, n): the unitarity defect of
    the A_k stacked vertically, one product.  Of a Kraus list, the
    trace-preservation defect; of its adjoints, the unital defect."""
    return unitarity_defect(ops.reshape(-1, ops.shape[-1]))


@dataclass(frozen=True, eq=False)
class OperatorSystemBasis:
    """Orthonormal basis of the operator system span{A_k* A_j} of a minimal
    Kraus list A_1..A_r, from an SVD R = U S Vh of the r^2 x n^2 rows
    conj(vec(A_k* A_j)), row (j, k) at j r + k, factored block by block
    over R's exact zeros (:func:`_block_svd`); ``basis`` unvecs the first
    s rows of conj(Vh) and ``singular`` is S, descending.  ``left`` is U,
    r^2 x min(r^2, n^2); when r <= n it is square, and its columns q past s
    span the relations sum_jk q[j r + k] A_k* A_j = 0.  ``block_shapes``
    counts the work: the sorted (rows, columns) of each block factored."""

    dim: int
    basis: tuple
    s: int
    left: np.ndarray
    singular: np.ndarray
    block_shapes: tuple


def choi_of(phi: KrausChannel) -> np.ndarray:
    """Choi matrix ``sum_k vec(A_k) vec(A_k)*`` of a Kraus channel, as a new
    read-only array."""
    vecs = phi.stacked().reshape(len(phi.kraus), -1)
    j = np.einsum("ki,kj->ij", vecs, vecs.conj())
    j.setflags(write=False)
    return j


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


def kraus_from_choi(j, dim_in: int, dim_out: int,
                    tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Minimal Kraus channel of a Choi matrix J, refused unless finite,
    (m n) square, Hermitian and PSD within ``tol`` and with partial trace
    I_n over the output factor.  One ``eigh`` of J's Hermitian part decides
    PSD and gives the operators ``unvec(sqrt(l) v)``, kept by the rule of
    :func:`minimize_kraus` (:func:`_kraus_from_spectrum`): pairwise
    Frobenius orthogonal, ``numerical_rank(J)`` of them."""
    m = as_matrix(j, "Choi matrix")
    if m.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValidationError(
            f"Choi matrix must be {dim_in * dim_out} square, got {m.shape}")
    if not tol.is_hermitian(m):
        raise ValidationError("Choi matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    if not tol.is_psd(w):
        raise ValidationError(
            f"Choi matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    pt = np.einsum("jajb->ab", m.reshape(dim_out, dim_in, dim_out, dim_in))
    if not tol.is_close(np.linalg.norm(pt - np.eye(dim_in)), dim_in):
        raise ValidationError(
            "partial trace over the output factor is not the identity")
    scale = np.sqrt(np.maximum(w, 0.0))
    return KrausChannel(_kraus_from_spectrum(w, v, dim_out, dim_in, tol, scale), tol)


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
    Choi eigenvector of norm sqrt(l), the vec of a minimal Kraus operator.
    ``tol.rank`` of G's spectrum is counted first, so a minimal list builds
    no operator."""
    h = phi.stacked().reshape(len(phi.kraus), -1)
    w, v = np.linalg.eigh(h.conj() @ h.T)
    if tol.rank(w) == len(phi.kraus):
        return phi
    return KrausChannel(_kraus_from_spectrum(w, h.T @ v, phi.dim_out, phi.dim_in, tol), tol)


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
    """:func:`operator_system` of a Kraus list already known to be minimal:
    s and the basis from one SVD of the product rows, taken block by block
    over their exact zeros (:func:`_block_svd`)."""
    r, n = len(phi.kraus), phi.dim_in
    a = phi.stacked()
    # [j, k] = A_k* A_j, all r^2 products in one batched matmul
    rows = (a.conj().transpose(0, 2, 1)[None] @ a[:, None]).conj().reshape(r * r, n * n)
    try:
        u, sv, vh, shapes = _block_svd(rows)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"operator system SVD failed: {exc}") from exc
    keep = tol.rank(sv)
    if not keep:
        raise ValidationError("operator system is empty; invalid channel")
    b = vh[:keep].conj()  # vec of the basis, one row each
    # identity must lie in the span (trace preservation)
    eye = vec(np.eye(n)) / np.sqrt(n)
    if np.linalg.norm((b.conj() @ eye) @ b - eye) > max(tol.eps_eq, _IDENTITY_SPAN_FLOOR):
        raise ValidationError("identity not contained in the operator system span")
    basis = tuple(b.reshape(keep, n, n))
    return OperatorSystemBasis(dim=n, basis=basis, s=keep, left=u, singular=sv,
                               block_shapes=shapes)


def _block_svd(rows: np.ndarray):
    """SVD of ``rows`` (R x C) from its exact-zero block structure: the
    blocks are the connected components of the graph rows <-> columns with
    an edge at each nonzero entry, so this factors the very same matrix.
    Returns (U, S, Vh, shapes) as ``svd(rows, full_matrices=False)`` would,
    except that a right vector of a zero S may be zero; ``shapes`` is the
    sorted (rows, columns) of each block.  The blocks of each shape are
    factored by one batched ``svd``, full U only where a block has more
    rows than columns (its left null space), and an all-zero row gives
    S = 0 and a unit left vector.  S is descending, ties in a fixed order:
    blocks by shape, then by least column index; zero rows last.  Dense
    rows are one block and give the bytes of that one ``svd`` call."""
    n_rows, n_cols = rows.shape
    nz = rows != 0
    # each row and column takes the least column index of its block (a
    # zero row or column takes n_cols): alternate minima to a fixed point
    least = np.minimum.reduce
    row = least(np.where(nz, np.arange(n_cols, dtype=np.int32), n_cols), axis=1)
    while True:
        col = least(np.where(nz, row[:, None], n_cols), axis=0)
        new = least(np.where(nz, col, n_cols), axis=1)
        if (new == row).all():
            break
        row = new
    # slots: rows sorted by block shape, then by label, zero rows last
    r_cnt = np.bincount(row, minlength=n_cols + 1)
    c_cnt = np.bincount(col, minlength=n_cols + 1)
    shape_key = r_cnt * (n_cols + 1) + c_cnt
    shape_key[n_cols] = (n_rows + 1) * (n_cols + 1)
    r_order = np.lexsort((row, shape_key[row]))
    c_order = np.lexsort((col, shape_key[col]))
    labels = np.flatnonzero(r_cnt[:n_cols])
    shapes = sorted(zip(r_cnt[labels].tolist(), c_cnt[labels].tolist()))
    s_all = np.zeros(n_rows)
    groups, r0, c0 = [], 0, 0
    for (br, bc), g in Counter(shapes).items():
        slot = np.arange(r0, r0 + g * br).reshape(g, br)
        ri, ci = r_order[slot], c_order[c0:c0 + g * bc].reshape(g, bc)
        u, sv, vh = np.linalg.svd(rows[ri[:, :, None], ci[:, None, :]], full_matrices=br > bc)
        s_all[slot[:, :sv.shape[1]]] = sv
        groups.append((slot, ri, ci, u, vh))
        r0, c0 = r0 + g * br, c0 + g * bc
    m = min(n_rows, n_cols)
    order = np.argsort(-s_all, kind="stable")
    # output column of each slot; past the first m, a scratch line
    pos = np.empty(n_rows, dtype=np.intp)
    pos[order] = np.minimum(np.arange(n_rows), m)
    left_t = np.zeros((m + 1, n_rows), dtype=complex)
    right = np.zeros((m + 1, n_cols), dtype=complex)
    for slot, ri, ci, u, vh in groups:
        left_t[pos[slot][:, :, None], ri[:, None, :]] = u.transpose(0, 2, 1)
        right[pos[slot[:, :vh.shape[1]]][:, :, None], ci[:, None, :]] = vh
    left_t[pos[r0:], r_order[r0:]] = 1
    return left_t[:m].T, s_all[order[:m]], right[:m], tuple(shapes)


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """A minimal Kraus list, its operator system and the tolerance both
    were decided under, which give the Choi rank r and the dimension s.
    Made by :func:`channel_profile`; :func:`complementary` and every entry
    point that reads r and s take it in place of a channel.  A
    decomposition computed for a profile is verified against ``minimal``;
    one computed for a channel, against that channel as given."""

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
    n, m, k = phi.dim_in, psi.dim_in, len(phi)
    ops = np.zeros((k + len(psi), n + m, n + m), dtype=complex)
    ops[:k, :n, :n], ops[k:, n:, n:] = phi.stacked(), psi.stacked()
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
