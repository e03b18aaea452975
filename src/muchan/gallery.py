"""Closed-form constructions and fixtures.

Discrete Weyl channels and their direct-sum gap channels, the explicit
correlation-matrix examples, mutually unbiased bases and the correlation
matrices they induce, the Hermitian matrix basis, one-factorizations of
complete graphs, Werner-Holevo channels with all four mixed-unitary
decompositions, and seeded random fixture generators.  Every root of
unity is exp(2 pi i (e mod m) / m) for an integer exponent e of the
construction, from one helper, so equal residues give equal bits.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import MixedUnitaryDecomposition
from .channels import KrausChannel, direct_sum, identity_channel
from .constructive import ToroidalDecomposition
from .exceptions import ValidationError
from .linalg import dagger, haar_unitary

# mub_family: every |<u, v>| across two bases is 1/sqrt(d) within this.
_UNBIASED_BOUND = 1e-10

__all__ = [
    "MubFamily", "OneFactorization", "HermitianBasis", "WernerHolevoPair",
    "MubCorrelation", "weyl_generators", "weyl_channel", "gap_channel",
    "corr_B3", "corr_C4", "toroidal_CtensorI2", "mub_family", "mub_correlation",
    "hermitian_basis", "one_factorization", "wh_channels",
    "wh_antisym_decomposition", "wh_sym_even_decomposition",
    "wh_sym_odd_decomposition", "wh_sym3_decomposition",
    "random_channel", "random_correlation", "random_unital_rank2",
]


def _is_prime(p: int) -> bool:
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------- Weyl

def _roots(m: int, e) -> np.ndarray:
    """exp(2 pi i (e mod m) / m) for an integer array e: the one place a root
    of unity is computed, so equal residues give equal bits."""
    return np.exp(2j * np.pi * (np.asarray(e) % m) / m)


def _weyl(p: int, a, b) -> np.ndarray:
    """The stack of Weyl words U^{a_i} V^{b_i}, which map e_x to
    w^{b_i x} e_{x + a_i} with w = exp(2 pi i / p)."""
    a, b = np.asarray(a)[:, None], np.asarray(b)[:, None]
    x = np.arange(p)
    w = np.zeros((a.size, p, p), dtype=complex)
    w[np.arange(a.size)[:, None], (x + a) % p, x] = _roots(p, b * x)
    return w


def weyl_generators(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic shift U (e_a -> e_{a+1 mod p}) and modulation V = diag(z^a)."""
    return tuple(_weyl(p, [1, 0], [0, 1]))


def weyl_channel(p: int) -> KrausChannel:
    """Uniform mixture of the p unitaries W_a = U^a V^{a^2}, odd prime p.

    Choi rank and mixed-unitary rank are both p, the operator system has
    dimension p^2 - p + 1, and the decomposition is unique.
    """
    if not _is_prime(p) or p % 2 == 0:
        raise ValidationError(f"p must be an odd prime, got {p}")
    x = np.arange(p)
    return KrausChannel(_weyl(p, x, x * x) / np.sqrt(p))


def gap_channel(p: int, m: int) -> KrausChannel:
    """weyl_channel(p) (+) identity on M_m: Choi rank p+1, mixed-unitary
    rank 2p."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValidationError(f"m must be a positive integer, got {m!r}")
    return direct_sum(weyl_channel(p), identity_channel(m))


# ------------------------------------------------- correlation fixtures

def corr_B3() -> np.ndarray:
    """3x3 rank-2 correlation matrix with off-diagonal entries 1/sqrt(2);
    none of them unimodular, so its toroidal decomposition is unique."""
    s = 1 / np.sqrt(2)
    return np.array([[1, s, s], [s, 1, 0], [s, 0, 1]], dtype=complex)


def corr_C4() -> np.ndarray:
    """corr_B3 (+) [1]: rank 3 but toroidal rank 4."""
    c = np.eye(4, dtype=complex)
    c[:3, :3] = corr_B3()
    return c


# Exponent matrix (over 24th roots of unity) for the six unimodular vectors
# decomposing corr_C4 (x) I_2; columns ordered with the 2-dim factor varying
# fastest to match the kron convention used throughout.
_CTENSOR_EXPONENTS = np.array([
    [0, 3, -3, 0, 0, 3, -3, 0],
    [0, -3, 3, 12, 12, 9, -9, 0],
    [8, 11, 5, -8, 0, 3, -3, -8],
    [0, 3, -3, -8, 8, 11, 5, -8],
    [0, -3, 3, -4, 4, 1, 7, 8],
    [4, 1, 7, 8, 0, -3, 3, -4],
])


def toroidal_CtensorI2() -> ToroidalDecomposition:
    """Six uniform unimodular vectors reconstructing corr_C4() (x) I_2.

    Witnesses that toroidal rank is not multiplicative: the factors have
    toroidal ranks 4 and 2, the product has toroidal rank 6.
    """
    # stored rows index pairs (i, c) with c fastest; kron(C, I_2) indexes
    # (c, i) with i fastest
    us = _roots(24, _CTENSOR_EXPONENTS).reshape(6, 2, 4).transpose(0, 2, 1)
    return ToroidalDecomposition([1 / 6] * 6, us.reshape(6, 8))


# ----------------------------------------------------------------- MUB

@dataclass(frozen=True)
class MubFamily:
    """d+1 mutually unbiased orthonormal bases of C^d (columns = vectors)."""

    d: int
    bases: tuple


@dataclass(frozen=True)
class MubCorrelation:
    matrix: np.ndarray
    decomposition: ToroidalDecomposition


def mub_family(d: int) -> MubFamily:
    """The standard basis plus d phase bases, mutually unbiased, prime d.

    For odd primes the extra bases have quadratic phases
    u_{k,j}(a) = z^{k a^2 + j a}/sqrt(d); d = 2 uses the three qubit
    Pauli eigenbases.  Unbiasedness is validated, not assumed.
    """
    if not _is_prime(d):
        raise ValidationError(f"refusal: d must be prime, got {d}")
    bases = [np.eye(d, dtype=complex)]
    if d == 2:
        s = 1 / np.sqrt(2)
        bases.append(np.array([[s, s], [s, -s]], dtype=complex))
        bases.append(np.array([[s, s], [1j * s, -1j * s]], dtype=complex))
    else:
        k, a, j = np.ogrid[:d, :d, :d]
        bases.extend(_roots(d, k * a * a + j * a) / np.sqrt(d))
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            ov = np.abs(dagger(bases[i]) @ bases[j])
            if np.max(np.abs(ov - 1 / np.sqrt(d))) > _UNBIASED_BOUND:
                raise ValidationError(f"bases {i},{j} are not mutually unbiased")
    return MubFamily(d=d, bases=tuple(bases))


def mub_correlation(d: int) -> MubCorrelation:
    """Rank-d correlation matrix on C^{d^2} built from d MUBs, with its
    d-term toroidal decomposition from the (d+1)-th basis.

    The matrix C = A A* has unit diagonal, rank d, and
    rank(conj(C) entrywise* C) = d^2 - d + 1, so the Schur channel of C
    has a unique mixed-unitary decomposition.  Its d x d within-basis
    blocks are stored as exactly I_d, free of the product's rounding.
    """
    fam = mub_family(d)
    # row k d + j is the conjugate of vector j of basis k
    a = np.array(fam.bases[:d]).transpose(0, 2, 1).conj().reshape(d * d, d)
    c = a @ dagger(a)
    k = np.arange(d)
    # reshape is a view of c; block (k, k) holds basis k's overlaps, delta_jj'
    c.reshape(d, d, d, d)[k, :, k, :] = np.eye(d)
    dec = ToroidalDecomposition([1 / d] * d, (np.sqrt(d) * a @ fam.bases[d]).T)
    return MubCorrelation(matrix=c, decomposition=dec)


# ------------------------------------------- Hermitian basis, matchings

class HermitianBasis:
    """Orthonormal Hermitian basis H[j, k] of M_n (0-based indices).

    H[j, j] = E_jj; H[j, k] = (E_jk + E_kj)/sqrt(2) for j < k (symmetric);
    H[j, k] = (i E_jk - i E_kj)/sqrt(2) for j > k (skew-symmetric).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("n must be positive")
        self.n = n
        mats = {}
        s = 1 / np.sqrt(2)
        for j in range(n):
            for k in range(n):
                m = np.zeros((n, n), dtype=complex)
                if j == k:
                    m[j, j] = 1
                elif j < k:
                    m[j, k] = s
                    m[k, j] = s
                else:
                    m[j, k] = 1j * s
                    m[k, j] = -1j * s
                m.setflags(write=False)
                mats[(j, k)] = m
        self._mats = mats

    def __getitem__(self, jk) -> np.ndarray:
        return self._mats[jk]

    def symmetric(self) -> list:
        """The n(n+1)/2 symmetric elements H[j, k], j <= k."""
        return [self[(j, k)] for j in range(self.n) for k in range(j, self.n)]

    def skew(self) -> list:
        """The n(n-1)/2 skew-symmetric elements H[j, k], j > k."""
        return [self[(j, k)] for j in range(self.n) for k in range(j)]


def hermitian_basis(n: int) -> HermitianBasis:
    return HermitianBasis(n)


@dataclass(frozen=True)
class OneFactorization:
    """Partition of the complete graph K_n (even n) into n-1 perfect
    matchings, each a tuple of vertex pairs."""

    n: int
    matchings: tuple

    def validate(self):
        seen = set()
        for m in self.matchings:
            verts = [v for pair in m for v in pair]
            if sorted(verts) != list(range(self.n)):
                raise ValidationError("matching does not cover every vertex once")
            for pair in m:
                e = tuple(sorted(pair))
                if e in seen:
                    raise ValidationError(f"duplicate edge {e}")
                seen.add(e)
        if len(seen) != self.n * (self.n - 1) // 2:
            raise ValidationError("matchings do not cover all edges")


def one_factorization(n: int) -> OneFactorization:
    """Circle method: vertex n-1 fixed, the others rotated.

    Pairs within each matching are listed lexicographically; any labeling
    works for the decompositions built on top (each pair occupies its own
    rows and columns), this one is just reproducible.
    """
    if n % 2 != 0 or n < 2:
        raise ValidationError(f"one-factorization requires even n, got {n}")
    m = n - 1
    matchings = []
    for l in range(m):
        pairs = [tuple(sorted((n - 1, l)))]
        for i in range(1, n // 2):
            pairs.append(tuple(sorted(((l + i) % m, (l - i) % m))))
        matchings.append(tuple(sorted(pairs)))
    fac = OneFactorization(n=n, matchings=tuple(matchings))
    fac.validate()
    return fac


# -------------------------------------------------------- Werner-Holevo

@dataclass(frozen=True)
class WernerHolevoPair:
    phi0: KrausChannel   # X -> (Tr(X) I + X^T) / (n+1), symmetric
    phi1: KrausChannel   # X -> (Tr(X) I - X^T) / (n-1), anti-symmetric


def wh_channels(n: int) -> WernerHolevoPair:
    """Werner-Holevo channels from the Hermitian basis.

    Kraus lists are sqrt(2/(n+1)) H[j,k] over j <= k for the symmetric
    channel and sqrt(2/(n-1)) H[j,k] over j > k for the anti-symmetric
    one; the Choi matrices are 2/(n+-1) times the symmetric and
    anti-symmetric projectors, with ranks n(n+1)/2 and n(n-1)/2.
    """
    if n < 2:
        raise ValidationError("refusal: Werner-Holevo channels need n >= 2 "
                              "(the anti-symmetric normalization divides by n-1)")
    basis = hermitian_basis(n)
    phi0 = KrausChannel([np.sqrt(2 / (n + 1)) * h for h in basis.symmetric()])
    phi1 = KrausChannel([np.sqrt(2 / (n - 1)) * h for h in basis.skew()])
    return WernerHolevoPair(phi0=phi0, phi1=phi1)


def _matching_unitaries(fac: OneFactorization, element) -> list:
    """sqrt(2) sum_b zeta^{2ab} element(pair_b) over the pairs pair_b of each
    matching of ``fac``, for a = 1..n/2, with zeta = exp(2 pi i / n)."""
    b = np.arange(1, fac.n // 2 + 1)
    phases = _roots(fac.n, 2 * np.outer(b, b))
    us = []
    for pairs in fac.matchings:
        us.extend(np.sqrt(2) * np.tensordot(phases, [element(pair) for pair in pairs], axes=1))
    return us


def wh_antisym_decomposition(n: int) -> MixedUnitaryDecomposition:
    """Minimal decomposition of the anti-symmetric channel, even n.

    n(n-1)/2 skew-symmetric, pairwise-orthogonal unitaries at uniform
    weight, built from a one-factorization of K_n with phase ramps over
    each matching.  Odd n is refused: the channel is not mixed unitary.
    """
    if n % 2 != 0:
        raise ValidationError("refusal: the anti-symmetric Werner-Holevo "
                              "channel is not mixed unitary for odd n")
    basis = hermitian_basis(n)
    us = _matching_unitaries(one_factorization(n), lambda pair: basis[pair[::-1]])  # skew
    count = n * (n - 1) // 2
    return MixedUnitaryDecomposition([1 / count] * count, us)


def wh_sym_even_decomposition(n: int) -> MixedUnitaryDecomposition:
    """Minimal decomposition of the symmetric channel, even n.

    n(n-1)/2 matching-based unitaries plus the n diagonal Fourier-phase
    unitaries V_j = sum_k zeta^{jk} E_kk, all symmetric and pairwise
    orthogonal, at uniform weight 2/(n(n+1)).
    """
    if n % 2 != 0:
        raise ValidationError("refusal: even n only; use the odd construction")
    basis = hermitian_basis(n)
    us = _matching_unitaries(one_factorization(n), basis.__getitem__)  # symmetric
    k = np.arange(1, n + 1)
    us += [np.diag(v) for v in _roots(n, np.outer(k, k))]
    count = n * (n + 1) // 2
    return MixedUnitaryDecomposition([1 / count] * count, us)


def wh_sym_odd_decomposition(n: int) -> MixedUnitaryDecomposition:
    """Decomposition of the symmetric channel with n(n+3)/2 terms, odd n.

    Works over the complete graph on n+1 vertices where the extra vertex's
    edges stand for half-weight diagonal matrices: n(n+1)/2 matching
    unitaries at weight 2/(n+1)^2 plus n diagonal Fourier-phase unitaries
    at weight 1/(n(n+1)).  The weights sum to one exactly as rationals.
    """
    if n % 2 != 1 or n < 3:
        raise ValidationError("refusal: odd n >= 3 only; use the even construction")
    basis = hermitian_basis(n)

    def element(pair):  # vertex 0 stands for half-weight diagonal matrices
        lo, hi = pair[0] - 1, pair[1] - 1
        return basis[(hi, hi)] / np.sqrt(2) if lo < 0 else basis[(lo, hi)]

    us = _matching_unitaries(one_factorization(n + 1), element)
    ps = [2 / (n + 1) ** 2] * len(us)
    k = np.arange(1, n + 1)
    us += [np.diag(v) for v in _roots(n, np.outer(k, k))]
    ps += [1 / (n * (n + 1))] * n
    return MixedUnitaryDecomposition(ps, us)


def wh_sym3_decomposition() -> MixedUnitaryDecomposition:
    """The six symmetric, pairwise-orthogonal unitaries decomposing the
    n = 3 symmetric channel at uniform weight 1/6 (its minimal rank)."""
    alpha = 3 / 8 + 1j * np.sqrt(15) / 8
    u1, u2 = map(np.diag, _roots(3, [[0, 1, 2], [0, 2, 1]]))

    def core(s12, s13, s23):
        m = np.full((3, 3), 0j)
        np.fill_diagonal(m, 0.5)
        m[0, 1] = m[1, 0] = s12 * alpha
        m[0, 2] = m[2, 0] = s13 * alpha
        m[1, 2] = m[2, 1] = s23 * alpha
        return m

    us = [u1, u2, core(-1, -1, -1), core(+1, -1, +1),
          core(+1, +1, -1), core(-1, +1, +1)]
    return MixedUnitaryDecomposition([1 / 6] * 6, us)


# ------------------------------------------------------ random fixtures

def random_channel(dim_in: int, dim_out: int, rank: int, seed: int) -> KrausChannel:
    """Random channel with the given Kraus rank (Gaussian operators,
    right-normalized to trace preservation)."""
    if rank * dim_out < dim_in:
        raise ValidationError(
            "trace preservation needs rank * dim_out >= dim_in")
    if rank > dim_in * dim_out:
        raise ValidationError("rank cannot exceed dim_in * dim_out")
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((rank, dim_out, dim_in)) + \
        1j * rng.standard_normal((rank, dim_out, dim_in))
    s = sum(dagger(a) @ a for a in ops)
    w, v = np.linalg.eigh(s)
    corr = v @ np.diag(w ** -0.5) @ dagger(v)
    return KrausChannel([a @ corr for a in ops])


def random_correlation(dim: int, rank: int, seed: int) -> np.ndarray:
    """Random rank-``rank`` correlation matrix (unit-row Gaussian factors),
    for ``rank`` in 1..dim."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in 1..dim, got rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ dagger(g)


def random_unital_rank2(dim: int, seed: int) -> KrausChannel:
    """Random unital trace-preserving channel with Choi rank at most 2:
    Kraus {U D_0 V, U D_1 V} with Haar U, V and diagonal D_0, D_1 whose
    squared moduli sum to one entrywise."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, int(rng.integers(2 ** 63)))
    v = haar_unitary(dim, int(rng.integers(2 ** 63)))
    theta = rng.uniform(0, 2 * np.pi, dim)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, dim)))
    d0 = np.cos(theta) * phases[0]
    d1 = np.sin(theta) * phases[1]
    return KrausChannel([u @ np.diag(d0) @ v, u @ np.diag(d1) @ v])
