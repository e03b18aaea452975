import numpy as np
import pytest

from muchan import (KrausChannel, NumericalError, ToroidalDecomposition, ValidationError,
                    dagger, decompose_low_dim, decompositions_equivalent,
                    haar_unitary, identity_channel, numerical_rank, schur_channel,
                    toroidal_decompose_small, toroidal_from_decomposition,
                    verify_decomposition, zero_diagonal_unitary)
import muchan.constructive
from muchan import io
from muchan.analysis import MixedUnitaryDecomposition
from muchan.constructive import _phase_fix_first_entry, _solve_bracketed_2x2
from muchan.gallery import corr_B3, random_correlation, random_unital_rank2
from seeded import seeded


def _random_traceless(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z - np.trace(z) / n * np.eye(n)


def _diag_residual(u, z):
    return float(np.max(np.abs(np.diag(u @ z @ dagger(u)))))


def _assert_zero_diag(u, z):
    # measured on z / max|z|: at extreme scales the Frobenius norm of z
    # itself underflows to 0 (or overflows), which no residual can meet.
    # The parts are divided as floats: complex division by a subnormal
    # max|z| forms its overflowing reciprocal
    n = z.shape[0]
    scale = np.abs(z).max() or 1.0
    zn = z.real / scale + 1j * (z.imag / scale)
    assert np.linalg.norm(dagger(u) @ u - np.eye(n)) <= 1e-10
    assert _diag_residual(u, zn) <= 1e-8 * np.linalg.norm(zn)


# ----------------------------------------------------- zero_diagonal_unitary

def test_zero_diag_sign_matrix():
    z = np.diag([1.0, -1.0]).astype(complex)
    u = zero_diagonal_unitary(z)
    assert np.linalg.norm(dagger(u) @ u - np.eye(2)) <= 1e-12
    assert _diag_residual(u, z) <= 1e-12
    # the symmetric 2x2 case admits the Hadamard-type rotation; any valid
    # unitary is accepted, so only the residual is pinned


def test_zero_diag_accepts_already_vanishing():
    for n in (2, 5, 8):
        z = _random_traceless(n, n)
        z -= np.diag(np.diag(z))
        u = zero_diagonal_unitary(z)
        assert np.array_equal(u, np.eye(n))  # every rotation step is exactly 0


def test_zero_diag_zero_step_mid_sweep():
    # M[0,0] = M[1,1] makes the (0, 1) step exactly 0; the sweep goes on
    rng = np.random.default_rng(4)
    off = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = np.diag([1.0, 1.0, -2.0]) + off - np.diag(np.diag(off))
    _assert_zero_diag(zero_diagonal_unitary(z), z)


@pytest.mark.parametrize("d", [1e-6, 1e-10])
@pytest.mark.parametrize("a", [1.0, -1.0])
def test_zero_diag_small_diagonal_large_coupling(d, a):
    # the 2x2 solve's root must not cancel when the coupling dwarfs the
    # diagonal; the cancelling form of the root leaves 5e-12 (d = 1e-6)
    # and 7e-11 (d = 1e-10) relative at a = -1
    z = np.array([[d, a], [a, -d]], dtype=complex)
    assert _diag_residual(zero_diagonal_unitary(z), z) <= 1e-14 * np.linalg.norm(z)


def test_zero_diag_one_by_one():
    assert np.array_equal(zero_diagonal_unitary(np.zeros((1, 1))), np.eye(1))


def test_zero_diag_rejects_non_square():
    with pytest.raises(ValidationError):
        zero_diagonal_unitary(np.zeros((2, 3)))


def test_zero_diag_random_6x6():
    for seed in range(50):
        z = _random_traceless(6, seed)
        u = zero_diagonal_unitary(z)
        assert _diag_residual(u, z) <= 1e-8 * np.linalg.norm(z)
        assert np.linalg.norm(dagger(u) @ u - np.eye(6)) <= 1e-10


def test_zero_diag_normal_matrix_without_bracketing_pair():
    # cube-roots-of-unity diagonal: no pair of diagonal entries straddles
    # zero, so no single rotation reaches 0; the running means get there
    z = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    u = zero_diagonal_unitary(z)
    assert _diag_residual(u, z) <= 1e-10


def _jordan(n):
    return np.eye(n, k=1, dtype=complex)


def _haar_conjugate(z, seed):
    u = haar_unitary(z.shape[0], seed)
    return u @ z @ dagger(u)


def _collinear_normal(n, seed):
    # e^{i theta} U diag(lam) U* with real traceless lam: every diagonal
    # entry lies on one line through 0
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n)
    lam -= lam.mean()
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * _haar_conjugate(np.diag(lam), seed)


def _roots_of_unity_plus_upper(scale):
    # non-normal, with large off-diagonal entries over a roots-of-unity diagonal
    rng = np.random.default_rng(3)
    upper = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)
    return np.diag(np.exp(2j * np.pi * np.arange(3) / 3)) + scale * upper


def _near_vanishing_entry(rel, seed):
    # diagonal entry 0 set to rel * ||Z||, entry 1 absorbs the trace
    z = _random_traceless(5, seed)
    new = rel * np.linalg.norm(z) * np.exp(0.7j)
    z[1, 1] += z[0, 0] - new
    z[0, 0] = new
    return z


ADVERSARIAL = {
    **{f"jordan{n}": _jordan(n) for n in (3, 5, 8)},
    **{f"haar_jordan{n}": _haar_conjugate(_jordan(n), n) for n in (3, 5, 8)},
    **{f"collinear_normal{n}": _collinear_normal(n, n) for n in (3, 5, 8)},
    **{f"roots_plus_upper{s:g}": _roots_of_unity_plus_upper(s) for s in (10.0, 1e4)},
    **{f"near_zero_entry{r:g}": _near_vanishing_entry(r, 7) for r in (5e-15, 1.5e-14, 2e-14)},
    **{f"gauss{n}_seed{k}": _random_traceless(n, k) for n in (20, 40) for k in range(3)},
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_zero_diag_adversarial(name):
    z = ADVERSARIAL[name]
    _assert_zero_diag(zero_diagonal_unitary(z), z)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_zero_diag_extreme_scale(scale):
    # Frobenius norms of such matrices underflow to 0 or overflow to inf
    z = _random_traceless(4, 11)
    zs = z * scale
    u = zero_diagonal_unitary(zs)
    _assert_zero_diag(u, z)
    assert _diag_residual(u, zs) <= 1e-8 * scale * np.linalg.norm(z)


def _traceless(rng):
    """A traceless n x n matrix, n in 2..8: a fill value with a random share
    of its entries redrawn, minus the trace.  Each real or imaginary part is
    0 with a probability of 0, 1 or U(0, 1) per matrix, else a random sign
    times 10**x, x uniform on [low, 6] with low = 6 - 330 u^2 per matrix (u
    uniform on [0, 1]): all zero, one scale, or subnormal next to 1e6."""
    n = int(rng.integers(2, 9))
    low, p_zero = 6 - 330 * rng.uniform() ** 2, rng.choice([0.0, 1.0, rng.uniform()])

    def parts(shape):
        wild = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, 6, shape)
        return np.where(rng.random(shape) < p_zero, 0.0, wild)

    z = np.full((n, n), parts(2) @ [1, 1j])
    redrawn = rng.random((n, n)) < rng.uniform()
    z[redrawn] = (parts((n, n, 2)) @ [1, 1j])[redrawn]
    return [z - np.trace(z) / n * np.eye(n)]


# diagonal 5.2e-200 and off-diagonal 3.4e-184: trace at rounding level, and
# ||z|| underflows to 0
_TINY_FLAT = np.full((3, 3), 3.353326603563327e-184, dtype=complex)
np.fill_diagonal(_TINY_FLAT, 5.225680706521042e-200)
# zero diagonal, every other part -2.2e-309 (subnormal): 1 / max|z| overflows
_SUBNORMAL_FILL = np.full((6, 6), -2.225073858507203e-309 * (1 + 1j))
np.fill_diagonal(_SUBNORMAL_FILL, 0)


@pytest.mark.parametrize("z", seeded(_traceless, 100) + [
    pytest.param(_TINY_FLAT, id="tiny_flat"), pytest.param(_SUBNORMAL_FILL, id="subnormal_fill")])
def test_zero_diag_property(z):
    _assert_zero_diag(zero_diagonal_unitary(z), z)


def test_zero_diag_rejects_nonzero_trace():
    with pytest.raises(ValidationError):
        zero_diagonal_unitary(np.eye(2))
    # the trace test is relative to the entries at every scale
    with pytest.raises(ValidationError):
        zero_diagonal_unitary(1e-300 * np.eye(2))


def test_zero_diag_zero_matrix():
    u = zero_diagonal_unitary(np.zeros((3, 3)))
    assert np.linalg.norm(u - np.eye(3)) == 0.0


def _numpy_sweep(z):
    """Oracle: the rotation sweep on numpy views of one (2n x n) array
    [M; W], with the order, steps and 2x2 solves of zero_diagonal_unitary
    but every rotation applied to whole columns and rows."""
    n = z.shape[0]
    mw = np.vstack([z, np.eye(n, dtype=complex)])
    for i in range(n - 1):
        for k in range(i + 1, n):
            step = complex(mw[k, k] - mw[i, i]) / (k - i + 1)
            if step == 0:
                continue
            x0, x1 = _solve_bracketed_2x2(-step, complex(mw[i, k]), complex(mw[k, i]),
                                          (k - i) * step)
            g = np.array([[x0, -x1.conjugate()], [x1, x0]])
            p = slice(i, k + 1, k - i)
            mw[:, p] = mw[:, p] @ g
            mw[p] = g.conj().T @ mw[p]
    return dagger(mw[n:])


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_zero_diag_matches_numpy_sweep(kind, n):
    # entries of order 1: the power-of-two scaling leaves U unchanged, so the
    # oracle runs on z as it is
    for seed in range(3):
        z = _random_traceless(n, seed)
        if kind == "real":
            z = z.real.astype(complex)  # non-symmetric, still traceless
        u = zero_diagonal_unitary(z)
        assert np.abs(u - _numpy_sweep(z)).max() <= 1e-9
        _assert_zero_diag(u, z)


def _list_sweep(z):
    """Oracle: zero_diagonal_unitary's sweep as first written on Python
    rows, with W from ``np.eye`` and a new list M[i:] + W[:k + 1] for every
    rotation, on Z scaled as zero_diagonal_unitary scales it."""
    parts = np.ascontiguousarray(z).view(float)
    e = int(np.frexp(np.max(np.abs(parts)))[1])
    m = np.ldexp(parts, -e).view(complex).tolist()
    n = len(m)
    w = np.eye(n, dtype=complex).tolist()
    for i in range(n - 1):
        mi = m[i]
        for k in range(i + 1, n):
            mk = m[k]
            step = (mk[k] - mi[i]) / (k - i + 1)
            if step == 0:
                continue
            x0, x1 = _solve_bracketed_2x2(-step, mi[k], mk[i], (k - i) * step)
            x1c = x1.conjugate()
            for row in m[i:] + w[:k + 1]:
                a, b = row[i], row[k]
                row[i] = a * x0 + b * x1
                row[k] = b * x0 - a * x1c
            for c in range(i, n):
                a, b = mi[c], mk[c]
                mi[c] = x0 * a + x1c * b
                mk[c] = x0 * b - x1 * a
    return dagger(np.array(w))


def _sweep_case(kind, n, seed):
    z = _random_traceless(n, seed)
    if kind == "real":
        return z.real.astype(complex)
    if kind == "hermitian":
        return z + dagger(z)
    if kind == "jordan":
        return _jordan(n)
    if kind == "nilpotent":  # strictly upper triangular, then Haar-conjugated
        return _haar_conjugate(np.triu(z, 1), seed)
    return z


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["gauss", "real", "hermitian", "jordan", "nilpotent"])
def test_zero_diag_bitwise_equals_list_sweep(kind, n):
    for seed in range(4):
        z = _sweep_case(kind, n, seed)
        u, want = zero_diagonal_unitary(z), _list_sweep(z)
        assert np.array_equal(u, want) and u.strides == want.strides


@pytest.mark.parametrize("z", [
    pytest.param(_random_traceless(n, 11) * scale, id=f"n{n}_scale{scale:g}")
    for n in (2, 5, 8) for scale in (1e-300, 1e-170, 1e160, 1e300)] + [
    pytest.param(_TINY_FLAT, id="tiny_flat"), pytest.param(_SUBNORMAL_FILL, id="subnormal_fill")])
def test_zero_diag_bitwise_equals_list_sweep_extreme_scale(z):
    assert np.array_equal(zero_diagonal_unitary(z), _list_sweep(z))


@pytest.mark.parametrize("n", range(2, 9))
def test_zero_diag_hermitian_valid(n):
    # no oracle here: for Hermitian z each 2x2 block is Hermitian, every
    # phase solves it, and atan2 of two rounding residues picks one, so U is
    # valid but chosen by rounding and differs from the numpy sweep's
    for seed in range(3):
        a = _random_traceless(n, seed)
        z = a + dagger(a)
        _assert_zero_diag(zero_diagonal_unitary(z), z)


# --------------------------------------------------------- decompose_low_dim

def test_low_dim_matches_paper_toroidal_pair():
    phi = schur_channel(corr_B3())
    d = decompose_low_dim(phi)
    assert d.n_terms == 2
    res = verify_decomposition(phi, d)
    assert res.ok and res.choi_residual <= 1e-8
    u = np.array([1, (1 + 1j) / np.sqrt(2), (1 - 1j) / np.sqrt(2)])
    v = np.array([1, (1 - 1j) / np.sqrt(2), (1 + 1j) / np.sqrt(2)])
    reference = MixedUnitaryDecomposition([0.5, 0.5], [np.diag(u), np.diag(v)])
    assert decompositions_equivalent(reference, d)


def test_low_dim_unitary_channel_single_term():
    d = decompose_low_dim(identity_channel(3))
    assert d.n_terms == 1
    assert verify_decomposition(identity_channel(3), d).ok


def test_low_dim_random_rank3_correlations():
    for seed in range(25):
        c = random_correlation(3, 3, seed=seed)
        phi = schur_channel(c)
        d = decompose_low_dim(phi)
        assert d.n_terms == 3
        assert verify_decomposition(phi, d).ok


def _near_cutoff_pair(seed):
    """{U diag(cos t) V, U diag(sin t) V} on M_3, Haar U and V, t of order
    1e-5: a unital rank-2 channel whose second operator sits near the Choi
    rank cutoff."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 1e-4, 3) if seed % 2 else 10 ** rng.uniform(-6, -4, 3)
    u, v = haar_unitary(3, seed), haar_unitary(3, seed + 1000000)
    return KrausChannel([u @ np.diag(np.cos(t)) @ v, u @ np.diag(np.sin(t)) @ v])


def _near_cutoff_outcome(seed):
    """"ok" for a decomposition that verifies against the channel, the
    error's type for a refusal, "unverified" for a decomposition that does
    not verify."""
    phi = _near_cutoff_pair(seed)
    try:
        d = decompose_low_dim(phi)
    except (ValidationError, NumericalError) as exc:
        return type(exc).__name__
    return "ok" if verify_decomposition(phi, d).ok else "unverified"


# seeds 17, 19 and 36 read decompositions that reproduce the minimal list but
# miss the channel as given by more than eps_eq, which must be refused
@pytest.mark.parametrize("seed", range(40))
def test_low_dim_near_cutoff_verifies_or_refuses(seed):
    assert _near_cutoff_outcome(seed) in {"ok", "ValidationError", "NumericalError"}


def test_low_dim_near_cutoff_family_holds_each_outcome():
    # the family above reaches both a verified return and a refusal
    outcomes = {_near_cutoff_outcome(seed) for seed in range(40)}
    assert {"ok", "NumericalError"} <= outcomes


def test_low_dim_refuses_large_operator_system():
    from muchan.gallery import weyl_channel
    with pytest.raises(ValidationError):
        decompose_low_dim(weyl_channel(3))


def test_low_dim_refuses_non_square_or_non_unital():
    from muchan.gallery import random_channel
    with pytest.raises(ValidationError, match="square"):
        decompose_low_dim(random_channel(2, 3, 2, seed=6))
    with pytest.raises(ValidationError, match="unital"):
        decompose_low_dim(random_channel(3, 3, 2, seed=5))


def test_low_dim_reproducible_across_kraus_presentations():
    # same channel handed over with a remixed Kraus list must give an
    # equivalent decomposition (uniqueness realized as reproducibility)
    from muchan import KrausChannel, haar_unitary
    c = random_correlation(3, 2, seed=77)
    phi = schur_channel(c)
    d1 = decompose_low_dim(phi)
    q = haar_unitary(2, seed=5)
    remixed = KrausChannel([sum(q[k, j] * phi.kraus[j] for j in range(2))
                            for k in range(2)])
    d2 = decompose_low_dim(remixed)
    assert decompositions_equivalent(d1, d2)


def test_low_dim_phase_fix_matches_constructor_path(monkeypatch):
    # the phase-fixed terms are filled in without deciding unitarity again;
    # the result is bit for bit the public constructor's on the same terms
    read, reader = [], muchan.constructive.decomposition_from_isometry

    def recording(*args):
        read.append(reader(*args))
        return read[-1]

    monkeypatch.setattr(muchan.constructive, "decomposition_from_isometry", recording)
    channels = [schur_channel(corr_B3()), identity_channel(3), random_unital_rank2(3, seed=1)]
    channels += [schur_channel(random_correlation(3, 3, seed=s)) for s in range(4)]
    for phi in channels:
        d = decompose_low_dim(phi)
        built = MixedUnitaryDecomposition(
            read[-1].probs, [_phase_fix_first_entry(u) for u in read[-1].unitaries])
        assert io.dumps(d) == io.dumps(built)
        assert d.tol == built.tol and not d.stacked().flags.writeable


# ------------------------------------------------------ toroidal decomposition

def test_toroidal_identity_2x2():
    t = toroidal_decompose_small(np.eye(2))
    assert t.n_terms == 2
    assert np.linalg.norm(t.matrix() - np.eye(2)) <= 1e-8
    for v in t.vectors:
        assert np.max(np.abs(np.abs(v) - 1)) <= 1e-8


def test_toroidal_b3_matches_paper_vectors():
    t = toroidal_decompose_small(corr_B3())
    assert t.n_terms == 2
    assert np.linalg.norm(t.matrix() - corr_B3()) <= 1e-8
    u = np.array([1, (1 + 1j) / np.sqrt(2), (1 - 1j) / np.sqrt(2)])
    v = np.array([1, (1 - 1j) / np.sqrt(2), (1 + 1j) / np.sqrt(2)])
    # up to phase and permutation: each produced vector aligns with u or v
    for w in t.vectors:
        overlaps = [abs(np.vdot(u, w)) / 3, abs(np.vdot(v, w)) / 3]
        assert max(overlaps) >= 1 - 1e-8


def test_toroidal_random_rank2_has_s3():
    hits = 0
    for seed in range(25):
        c = random_correlation(3, 2, seed=seed + 500)
        offdiag = [c[i, j] for i in range(3) for j in range(3) if i != j]
        if any(abs(abs(x) - 1) <= 1e-6 for x in offdiag):
            continue  # lemma hypothesis: no unimodular off-diagonal entries
        hits += 1
        t = toroidal_decompose_small(c)
        assert t.n_terms == 2
        assert np.linalg.norm(t.matrix() - c) <= 1e-8
        assert numerical_rank(np.conj(c) * c) == 3
    assert hits >= 20


def test_toroidal_refuses_dim4():
    from muchan.gallery import corr_C4
    with pytest.raises(ValidationError):
        toroidal_decompose_small(corr_C4())


def test_toroidal_from_decomposition_requires_diagonal():
    d = MixedUnitaryDecomposition([1.0], [np.array([[0, 1], [1, 0]], dtype=complex)])
    with pytest.raises(ValidationError):
        toroidal_from_decomposition(d)


def test_toroidal_type_validates_unimodularity():
    with pytest.raises(ValidationError):
        ToroidalDecomposition([1.0], [np.array([1.0, 0.5])])


@pytest.mark.parametrize("probs, vectors", [
    ([np.nan], [[1, 1]]), ([1.0], [[1, np.nan]]), ([0.5, np.nan], [[1, 1], [1, -1]]),
    ([1.0], [[np.inf, 1]]), ([1.0], [[1, complex(1, np.nan)]]),
])
def test_toroidal_type_refuses_non_finite_values(probs, vectors):
    with pytest.raises(ValidationError, match="weights and vector entries must be finite"):
        ToroidalDecomposition(probs, vectors)


@pytest.mark.parametrize("vectors", [[[]], [[], []]])
def test_toroidal_type_refuses_empty_vectors(vectors):
    with pytest.raises(ValidationError, match="nonzero length"):
        ToroidalDecomposition([1.0 / len(vectors)] * len(vectors), vectors)


@pytest.mark.parametrize("probs, vectors", [
    ([0.5, 0.5], [[1, 1]]), ([], []), ([[0.5, 0.5]], [[1, 1], [1, -1]]),
], ids=["two_weights_one_vector", "empty", "weights_2d"])
def test_toroidal_type_refuses_mismatched_lists(probs, vectors):
    with pytest.raises(ValidationError, match="matching nonempty lists"):
        ToroidalDecomposition(probs, vectors)
