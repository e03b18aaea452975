import numpy as np
import pytest

from muchan import (Tolerance, ValidationError, dagger, dirsum, frob_inner,
                    haar_isometry, kron, numerical_rank, schur_product, unvec,
                    vec)
from muchan.gallery import corr_C4
from muchan.linalg import as_matrix


def _eij(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


def test_vec_elementary_matrix():
    assert np.array_equal(vec(_eij(2, 0, 1)), [0, 1, 0, 0])


def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])


def test_vec_inner_product_matches_entrywise_sum():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    # independent oracle: direct entrywise sum
    expected = sum(abs(a[j, k]) ** 2 for j in range(3) for k in range(2))
    got = frob_inner(unvec(vec(a), 3, 2), a).real
    assert got == pytest.approx(expected, rel=1e-13)
    got2 = np.vdot(vec(a), vec(a)).real
    assert got2 == pytest.approx(expected, rel=1e-13)


def test_vec_norm_identity_many():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        assert np.linalg.norm(vec(a)) ** 2 == pytest.approx(
            np.linalg.norm(a) ** 2, rel=1e-13)


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(4)) == 4


def test_numerical_rank_rank_one_outer():
    v = vec(np.eye(2))
    assert numerical_rank(np.outer(v, v.conj())) == 1


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_c4_fixture():
    assert numerical_rank(corr_C4()) == 3


def test_numerical_rank_unitary_conjugation_invariant():
    from muchan import haar_unitary
    rng = np.random.default_rng(3)
    for seed in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        psd = g @ dagger(g)
        r0 = numerical_rank(psd)
        u = haar_unitary(n, seed)
        assert numerical_rank(u @ psd @ dagger(u)) == r0
        perm = np.eye(n)[rng.permutation(n)]
        assert numerical_rank(perm @ psd @ perm.T) == r0


def test_haar_isometry_is_isometry():
    v = haar_isometry(3, 3, seed=7)
    assert np.linalg.norm(dagger(v) @ v - np.eye(3)) <= 1e-12


def test_haar_isometry_deterministic():
    a = haar_isometry(5, 2, seed=1)
    b = haar_isometry(5, 2, seed=1)
    assert np.array_equal(a, b)


def test_haar_isometry_rejects_wide():
    with pytest.raises(ValidationError):
        haar_isometry(2, 3, seed=0)


@pytest.mark.parametrize("args", [
    (3, 2, True), (3, 2, -1), (3, 2, 1.5), (3, 0, 1), (0, 0, 1), (-1, -2, 0),
    (True, True, 0), (3.0, 2, 0), (3, 2.0, 0), (3, 2, "1"), (3, 2, None),
    (3, 2, np.True_), (3, 2, np.int64(-4))])
def test_haar_isometry_refuses_bad_sizes_and_seeds(args):
    with pytest.raises(ValidationError):
        haar_isometry(*args)


@pytest.mark.parametrize("args", [(2, True), (2, -1), (0, 1), (2, 0.5)])
def test_haar_unitary_refuses_bad_sizes_and_seeds(args):
    from muchan import haar_unitary
    with pytest.raises(ValidationError):
        haar_unitary(*args)


def test_haar_isometry_takes_numpy_integers():
    # tests draw seeds with rng.integers
    v = haar_isometry(np.int64(4), np.int32(2), np.uint64(9))
    assert np.array_equal(v, haar_isometry(4, 2, 9))
    assert haar_isometry(1, 1, 0).shape == (1, 1)   # the smallest size allowed


def test_phased_q_positive_diagonal_and_zero_column():
    # R's diagonal phases go into Q, so Q* A has a real positive diagonal;
    # a zero column gives R a zero diagonal entry, whose phase is 1
    from muchan.linalg import _phased_q
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5, 3)) + 1j * rng.standard_normal((3, 5, 3))
    a[1, :, 1] = 0
    q = _phased_q(a)
    diag = np.diagonal(np.swapaxes(q.conj(), -1, -2) @ a, axis1=-2, axis2=-1)
    assert np.all(np.abs(diag.imag) <= 1e-12) and np.all(diag.real >= -1e-12)
    assert np.all(diag.real[[0, 2]] > 0) and abs(diag[1, 1]) <= 1e-12
    q_raw = np.linalg.qr(a[1])[0]
    assert np.array_equal(q[1][:, 1], q_raw[:, 1])


def _public_phased_q(a):
    # the reference: numpy's public QR with R formed, and the same phase rule
    q, r = np.linalg.qr(a)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(ph)
    ph = np.divide(ph, mag, out=np.ones_like(ph), where=mag > 0)
    return q * ph[..., None, :]


@pytest.mark.parametrize("shape", [(b, m, k) for b in (1, 25)
                                   for m, k in ((4, 4), (6, 4), (5, 1), (15, 15))] + [(6, 4)])
def test_phased_q_matches_public_qr_bit_for_bit(shape):
    # _phased_q calls numpy's private batched QR gufuncs (geqrf, ungqr): a
    # numpy release that renames or changes them fails here.  A zero column
    # gives R a zero diagonal entry, whose phase is 1
    from muchan.linalg import _phased_q
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for zero_column in (False, True):
        if zero_column:
            a[..., -1] = 0
        given = a.copy()
        assert np.array_equal(_phased_q(a), _public_phased_q(a))
        assert np.array_equal(a, given)   # factored in a copy


def test_phased_q_nan_stack_returns_nan():
    from muchan.linalg import _phased_q
    a = np.full((3, 4, 2), np.nan, dtype=complex)
    q = _phased_q(a)
    assert q.shape == a.shape and np.isnan(q).all()
    assert np.array_equal(q, _public_phased_q(a), equal_nan=True)


def test_haar_isometry_shapes_to_64():
    for n_rows, n_cols in [(2, 2), (8, 3), (17, 17), (64, 64), (64, 10)]:
        v = haar_isometry(n_rows, n_cols, seed=n_rows + n_cols)
        assert np.linalg.norm(dagger(v) @ v - np.eye(n_cols)) <= 1e-12


def test_haar_first_entry_moment():
    # Monte-Carlo oracle: E|V_11|^2 = 1/2 for Haar 2x2 unitaries
    acc = 0.0
    trials = 10_000
    for seed in range(trials):
        acc += abs(haar_isometry(2, 2, seed)[0, 0]) ** 2
    assert acc / trials == pytest.approx(0.5, abs=0.02)


def test_schur_identity_allones():
    assert np.array_equal(schur_product(np.eye(2), np.ones((2, 2))), np.eye(2))


def test_schur_shape_mismatch():
    with pytest.raises(ValidationError):
        schur_product(np.eye(2), np.eye(3))


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_matches_vec_convention():
    # oracle: evaluate vec(A X B^T) directly
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, x = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        lhs = kron(a, b) @ vec(x)
        rhs = vec(a @ x @ b.T)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: unvec(np.ones(5), 2, 2), "cannot unvec length-5 vector to 2x2"),
    (lambda: as_matrix(np.ones(3)), "matrix must be a 2-D matrix, got shape (3,)")],
    ids=["unvec_size", "as_matrix_1d"])
def test_shape_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_dirsum_blocks():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5]], dtype=complex)
    d = dirsum(a, b)
    assert d.shape == (3, 3)
    assert np.array_equal(d[:2, :2], a)
    assert d[2, 2] == 5
    assert np.all(d[2, :2] == 0) and np.all(d[:2, 2] == 0)


def test_tolerance_validation():
    with pytest.raises(ValidationError):
        Tolerance(eps_rank=0.0)
    with pytest.raises(ValidationError):
        Tolerance(eps_rank=2.0)
    with pytest.raises(ValidationError):
        Tolerance(eps_eq=-1e-9)
    with pytest.raises(ValidationError, match="eps_eq must be strictly positive and finite"):
        Tolerance(eps_eq=float("inf"))


def test_tolerance_has_no_search_objective_field():
    # the search accepts on the module constant search.OBJECTIVE_TOL
    with pytest.raises(TypeError):
        Tolerance(eps_obj=1e-16)
