import numpy as np
import pytest

import muchan.analysis
import muchan.channels
import muchan.constructive
from muchan import (DEFAULT_TOL, KrausChannel, NumericalError, Tolerance, ValidationError,
                    apply, choi_of, channel_profile, complementary, dagger,
                    dephasing_channel, direct_sum, frob_inner, haar_isometry, haar_unitary,
                    identity_channel, kraus_from_choi, minimize_kraus, numerical_rank,
                    operator_system, schur_channel, vec)
from muchan.channels import _block_svd, _kraus_from_spectrum
from muchan.gallery import (corr_B3, corr_C4, gap_channel, mub_correlation, random_channel,
                            random_correlation, weyl_channel, wh_channels)
from muchan.linalg import as_matrix
from seeded import seeded


def _eij(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


# ------------------------------------------------------------ KrausChannel

def test_kraus_channel_rejects_non_tp():
    with pytest.raises(ValidationError):
        KrausChannel([np.eye(2) * 2])


def test_kraus_channel_rejects_mixed_shapes():
    with pytest.raises(ValidationError):
        KrausChannel([np.eye(2), np.eye(3)])


def test_kraus_channel_rejects_empty_list():
    with pytest.raises(ValidationError, match="^Kraus list must be nonempty$"):
        KrausChannel([])


@pytest.mark.parametrize("make", [
    lambda: KrausChannel([np.eye(2)]),
    lambda: muchan.analysis.MixedUnitaryDecomposition([1.0], [np.eye(2)]),
    lambda: muchan.constructive.ToroidalDecomposition([1.0], [[1.0, 1.0]])],
    ids=["kraus", "decomposition", "toroidal"])
def test_constructed_objects_refuse_setattr(make):
    thing = make()
    with pytest.raises(AttributeError, match=f"^{type(thing).__name__} is immutable$"):
        thing.dim = 3


def test_kraus_channel_rejects_nonfinite():
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        KrausChannel([bad])


def _own_kraus():
    a = np.eye(2, dtype=complex)
    return [a], lambda: KrausChannel([a]), lambda phi: np.ravel(phi.kraus)


def _own_decomposition():
    p, u = np.array([1.0]), np.eye(2, dtype=complex)
    return ([p, u], lambda: muchan.analysis.MixedUnitaryDecomposition(p, [u]),
            lambda d: np.concatenate([d.probs, np.ravel(d.unitaries)]))


def _own_toroidal():
    p, v = np.array([1.0]), np.ones(2, dtype=complex)
    return ([p, v], lambda: muchan.constructive.ToroidalDecomposition(p, [v]),
            lambda t: np.concatenate([t.probs, *t.vectors]))


def _own_choi():
    m = np.eye(4, dtype=complex) / 2
    return [m], lambda: kraus_from_choi(m, 2, 2), lambda phi: np.ravel(phi.kraus)


@pytest.mark.parametrize("make", [_own_kraus, _own_decomposition, _own_toroidal, _own_choi],
                         ids=["kraus", "decomposition", "toroidal", "choi"])
def test_constructors_own_their_arrays(make):
    # the caller's arrays stay writable, and writing to them afterwards
    # leaves the validated object as it was
    arrays, build, contents = make()
    obj = build()
    before = contents(obj).copy()
    for a in arrays:
        assert a.flags.writeable
        a[...] = -7
    assert contents(obj).tobytes() == before.tobytes()


@pytest.mark.parametrize("make", [lambda: weyl_channel(3),
                                  lambda: muchan.analysis.MixedUnitaryDecomposition(
                                      [0.5, 0.5], [np.eye(2), np.diag([1, -1])])],
                         ids=["kraus", "decomposition"])
def test_stacked_is_one_read_only_array(make):
    obj = make()
    stack = obj.stacked()
    assert stack is obj.stacked()
    assert not stack.flags.writeable and stack.dtype == complex and stack.ndim == 3
    terms = obj.kraus if isinstance(obj, KrausChannel) else obj.unitaries
    assert all(t.base is stack and not t.flags.writeable for t in terms)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2


# ----------------------------------------------------------------- choi_of

def test_choi_identity_channel():
    j = choi_of(identity_channel(2))
    v = vec(np.eye(2))
    assert np.linalg.norm(j - np.outer(v, v.conj())) <= 1e-14
    assert numerical_rank(j) == 1
    assert not j.flags.writeable


def test_choi_weyl3_rank():
    assert numerical_rank(choi_of(weyl_channel(3))) == 3


def test_choi_trace_and_psd_random():
    # trace oracle: Tr(J) = sum ||A_k||^2 = Tr(I_n) = n
    phi = random_channel(3, 3, 2, seed=5)
    j = choi_of(phi)
    assert np.trace(j).real == pytest.approx(3.0, rel=1e-12)
    assert np.min(np.linalg.eigvalsh(j)) >= -1e-12


def test_choi_independent_of_kraus_representation():
    from muchan import haar_isometry
    phi = random_channel(3, 4, 2, seed=8)
    v = haar_isometry(5, 2, seed=3)
    padded = KrausChannel([sum(v[k, j] * phi.kraus[j] for j in range(2))
                           for k in range(5)])
    assert np.linalg.norm(choi_of(phi) - choi_of(padded)) <= 1e-12


def test_choi_partial_trace_is_identity():
    phi = random_channel(3, 5, 4, seed=21)
    j = choi_of(phi)
    pt = np.einsum("jajb->ab", j.reshape(5, 3, 5, 3))  # trace out the output factor
    assert np.linalg.norm(pt - np.eye(3)) <= 1e-12


def test_choi_validation_rejects_non_psd():
    m = -np.eye(4, dtype=complex)
    with pytest.raises(ValidationError):
        kraus_from_choi(m, 2, 2)


# ---------------------------------------------------------- kraus_from_choi

def test_minimal_kraus_dephasing():
    j = choi_of(dephasing_channel(2))
    mk = kraus_from_choi(j, 2, 2)
    assert len(mk.kraus) == 2
    # spans {E_11, E_22}: every operator is diagonal
    for a in mk.kraus:
        assert np.linalg.norm(a - np.diag(np.diag(a))) <= 1e-12


def test_minimal_kraus_weyl3_orthogonal():
    mk = kraus_from_choi(choi_of(weyl_channel(3)), 3, 3)
    assert len(mk.kraus) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(frob_inner(mk.kraus[i], mk.kraus[j])) <= 1e-10


def test_minimal_kraus_removes_dependent_operator():
    rng = np.random.default_rng(12)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for _ in range(4)]
    ops.append((ops[0] + ops[1]) / np.sqrt(2))
    s = sum(dagger(a) @ a for a in ops)
    w, v = np.linalg.eigh(s)
    corr = v @ np.diag(w ** -0.5) @ dagger(v)
    phi = KrausChannel([a @ corr for a in ops])
    # rank oracle on the stacked vec matrix
    stacked = np.array([vec(a) for a in phi.kraus])
    assert numerical_rank(stacked) == 4
    mk = kraus_from_choi(choi_of(phi), 3, 3)
    assert len(mk.kraus) == 4
    assert np.linalg.norm(choi_of(mk) - choi_of(phi)) <= 1e-10


def test_minimal_kraus_roundtrip_many():
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        rmin = -(-n // m)  # ceil(n / m), needed for trace preservation
        r = int(rng.integers(rmin, max(rmin, min(n * m, 4)) + 1))
        phi = random_channel(n, m, r, seed=seed + 10_000)
        j = choi_of(phi)
        mk = kraus_from_choi(j, n, m)
        assert np.linalg.norm(choi_of(mk) - j) <= 1e-9 * max(1, np.linalg.norm(j))


@pytest.mark.parametrize("e, rank", [(1e-8, 2), (1.2e-9, 2), (0.8e-9, 1),
                                     (1e-12, 1), (1e-16, 1)])
def test_minimality_decided_as_choi_rank(e, rank):
    # a weak second Kraus operator: the list is minimal exactly when the
    # Choi matrix has rank 2, whose eigenvalue ratio is e / (1 - e)
    from muchan import rank_bounds
    z = np.diag([1.0, -1.0]).astype(complex)
    phi = KrausChannel([np.sqrt(1 - e) * np.eye(2), np.sqrt(e) * z])
    assert len(minimize_kraus(phi).kraus) == rank
    assert numerical_rank(choi_of(phi)) == rank
    assert rank_bounds(phi).r == rank


@pytest.mark.parametrize("e", [1e-8, 1.2e-9, 1e-9, 0.8e-9, 1e-12, 1e-16])
def test_minimal_kraus_rank_is_numerical_rank(e):
    # kraus_from_choi counts the eigenvalue moduli of its own eigh against
    # the cutoff; that is numerical_rank's singular-value rule.  eps_eq is
    # loosened only so that the list truncated at e = 1e-9, whose dropped
    # weight sits at the trace-preservation threshold, is accepted.
    tol = Tolerance(eps_rank=1e-9, eps_eq=1e-8)
    z = np.diag([1.0, -1.0]).astype(complex)
    j = choi_of(KrausChannel([np.sqrt(1 - e) * np.eye(2), np.sqrt(e) * z]))
    assert len(kraus_from_choi(j, 2, 2, tol)) == numerical_rank(j, tol)


def _old_minimal_kraus(matrix, dim_in, dim_out, tol=DEFAULT_TOL):
    """The reference: the former ChoiMatrix checks (eigvalsh for PSD) and
    minimal_kraus (a second eigh, of J itself), verbatim."""
    m = as_matrix(np.array(matrix, dtype=complex), "Choi matrix")
    if m.shape != (dim_in * dim_out, dim_in * dim_out):
        raise ValidationError(
            f"Choi matrix must be {dim_in * dim_out} square, got {m.shape}")
    if not tol.is_hermitian(m):
        raise ValidationError("Choi matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    if not tol.is_psd(w):
        raise ValidationError(
            f"Choi matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    pt = np.einsum("jajb->ab", m.reshape(dim_out, dim_in, dim_out, dim_in))
    if not tol.is_close(np.linalg.norm(pt - np.eye(dim_in)), dim_in):
        raise ValidationError(
            "partial trace over the output factor is not the identity")
    w, v = np.linalg.eigh(m)
    scale = np.sqrt(np.maximum(w, 0.0))
    return KrausChannel(_kraus_from_spectrum(w, v, dim_out, dim_in, tol, scale), tol)


def _oracle_channels():
    yield from (weyl_channel(p) for p in (3, 5, 7))
    yield gap_channel(3, 1)
    for n in (2, 3, 4):
        yield wh_channels(n).phi0
        yield wh_channels(n).phi1
    yield from (schur_channel(c) for c in (corr_B3(), corr_C4()))
    yield dephasing_channel(2)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = (int(x) for x in rng.integers(1, 7, size=2))
        rmin = -(-n // m)  # ceil(n / m), needed for trace preservation
        r = int(rng.integers(rmin, min(n * m, 6) + 1))
        yield random_channel(n, m, r, seed=seed + 10_000)


def test_kraus_from_choi_matches_old_minimal_kraus():
    # one eigh of J's Hermitian part gives the old PSD decision and the old
    # operators: choi_of's J is exactly Hermitian, so that eigh reads the
    # same lower triangle as the old eigh of J
    count = 0
    for phi in _oracle_channels():
        j = choi_of(phi)
        got = kraus_from_choi(j, phi.dim_in, phi.dim_out)
        want = _old_minimal_kraus(j, phi.dim_in, phi.dim_out)
        assert got.stacked().tobytes() == want.stacked().tobytes()
        assert len(got) == len(minimize_kraus(phi)) == numerical_rank(j)
        count += 1
    assert count == 13 + 200


@pytest.mark.parametrize("matrix, dims", [
    (np.eye(3) / 2, (2, 2)),                               # wrong shape
    (np.where(np.eye(4) > 0, np.nan, 0.0), (2, 2)),        # not finite
    (np.eye(4) / 2 + np.triu(np.ones((4, 4)), 1), (2, 2)),  # not Hermitian
    (-np.eye(4, dtype=complex), (2, 2)),                   # not PSD
    (np.eye(4), (2, 2)),                                   # partial trace 2 I
    (choi_of(random_channel(2, 3, 2, seed=0)), (3, 2)),    # factors swapped
], ids=["shape", "nan", "hermitian", "psd", "trace", "factor-order"])
def test_kraus_from_choi_refuses_as_before(matrix, dims):
    with pytest.raises(ValidationError) as old:
        _old_minimal_kraus(matrix, *dims)
    with pytest.raises(ValidationError) as new:
        kraus_from_choi(matrix, *dims)
    assert str(new.value) == str(old.value)


# ------------------------------------------------------------------- apply

def test_apply_dephasing_kills_off_diagonal():
    out = apply(dephasing_channel(2), np.ones((2, 2)))
    assert np.linalg.norm(out - np.eye(2)) <= 1e-14


def test_apply_antisymmetric_wh_on_e11():
    from muchan.gallery import wh_channels
    phi1 = wh_channels(2).phi1
    # oracle: (Tr(X) I - X^T)/(n-1) evaluated directly
    x = _eij(2, 0, 0)
    expected = (np.trace(x) * np.eye(2) - x.T) / 1
    assert np.linalg.norm(apply(phi1, x) - expected) <= 1e-12
    assert np.linalg.norm(apply(phi1, x) - _eij(2, 1, 1)) <= 1e-12


def test_apply_unital_fixes_identity():
    phi = weyl_channel(5)
    assert phi.is_unital()
    assert np.linalg.norm(apply(phi, np.eye(5)) - np.eye(5)) <= 1e-12


def test_apply_preserves_trace():
    rng = np.random.default_rng(2)
    phi = random_channel(4, 3, 5, seed=77)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.trace(apply(phi, x)) == pytest.approx(np.trace(x), rel=1e-12)


def test_apply_shape_mismatch():
    with pytest.raises(ValidationError):
        apply(identity_channel(2), np.eye(3))


# ----------------------------------------------------------- complementary

def test_complementary_unitary_channel_is_trace():
    psi = complementary(identity_channel(3))
    assert (psi.dim_in, psi.dim_out) == (3, 1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(apply(psi, x)[0, 0] - np.trace(x)) <= 1e-12


def test_complementary_dephasing_extracts_diagonal():
    psi = complementary(dephasing_channel(2))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    out = apply(psi, x)
    # oracle: direct evaluation Tr(E_kk E_jj X) entrywise
    expected = np.diag(np.diag(x))
    # complementary output is unique only up to conjugation by a unitary;
    # for the dephasing channel the minimal Kraus list is diagonal so the
    # output is diagonal with the same entries in some order
    assert np.linalg.norm(out - np.diag(np.diag(out))) <= 1e-12
    assert sorted(np.diag(out), key=lambda z: z.real) == pytest.approx(
        sorted(np.diag(expected), key=lambda z: z.real), abs=1e-12)


def test_complementary_weyl3_entries():
    phi = weyl_channel(3)
    psi = complementary(phi)
    assert (psi.dim_in, psi.dim_out) == (3, 3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # the supplied Kraus list is already minimal, so the entry formula
    # holds verbatim: Psi(X)[j,k] = (1/3) Tr(W_k^* W_j X)
    w = [a * np.sqrt(3) for a in phi.kraus]
    expected = np.array([[np.trace(dagger(w[k]) @ w[j] @ x) / 3
                          for k in range(3)] for j in range(3)])
    assert np.linalg.norm(apply(psi, x) - expected) <= 1e-10


def test_complementary_is_cptp():
    for seed in range(10):
        phi = random_channel(3, 4, 3, seed=seed)
        psi = complementary(phi)
        assert psi.dim_out == 3
        j = choi_of(psi)
        assert np.min(np.linalg.eigvalsh(j)) >= -1e-10


def test_complementary_freedom_isometry_alignment():
    # two complementaries of the same channel differ by a unitary rotation,
    # recovered by solving the intertwiner equations and projecting to the
    # unitary (Procrustes polar) factor
    from muchan import haar_unitary, kron as mkron
    for seed in range(20):
        n = 3
        phi = minimize_kraus(random_channel(n, n, 2 + seed % 3, seed=seed + 50))
        r = len(phi.kraus)
        q = haar_unitary(r, seed + 999)
        remixed = KrausChannel([sum(q[k, j] * phi.kraus[j] for j in range(r))
                                for k in range(r)])
        psi_a = complementary(phi)
        psi_b = complementary(minimize_kraus(remixed))
        basis = [_eij(n, a, b) for a in range(n) for b in range(n)]
        rows = np.zeros((r * r * len(basis), r * r), dtype=complex)
        for i, x in enumerate(basis):
            k_i, l_i = apply(psi_b, x), apply(psi_a, x)
            rows[i * r * r:(i + 1) * r * r, :] = (
                mkron(k_i, np.eye(r)) - mkron(np.eye(r), l_i.T))
        _, s, vh = np.linalg.svd(rows)
        v0 = vh[-1].conj().reshape(r, r)
        uu, _, vvh = np.linalg.svd(v0)
        w = uu @ vvh
        resid = max(np.linalg.norm(apply(psi_b, x) - w @ apply(psi_a, x) @ dagger(w))
                    for x in basis)
        assert resid <= 1e-8


def _remix_case(rng):
    # n, m, k in 1..4 (k is clamped below), extra in 0..2, a 32-bit seed
    return (*(int(x) for x in rng.integers(1, 5, size=3)), int(rng.integers(3)),
            int(rng.integers(2 ** 32)))


@pytest.mark.parametrize("n, m, k, extra, seed", seeded(_remix_case, 60))
def test_complementary_covariant_under_isometric_remixing(n, m, k, extra, seed):
    # B_j = sum_i V(j, i) A_i for a Haar isometry V (N x r, N = r + extra)
    # has complementary V Psi(.) V*.  ``complementary`` minimizes a longer
    # list first, to W A for an r x r unitary W, and then gives W Psi(.) W*.
    k = min(max(k, -(-n // m)), n * m)
    a = minimize_kraus(random_channel(n, m, k, seed=seed))
    r = len(a)
    v = haar_isometry(r + extra, r, seed)
    b = KrausChannel(list(np.tensordot(v, a.stacked(), axes=(1, 0))))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    psi_x, scale = apply(complementary(a), x), np.linalg.norm(x)
    # the complementary of the list b as it stands: C_i[j, :] = B_j[i, :]
    as_listed = KrausChannel(b.stacked().transpose(1, 0, 2))
    assert np.linalg.norm(apply(as_listed, x) - v @ psi_x @ dagger(v)) <= 1e-10 * scale
    if extra == 0:
        assert minimize_kraus(b) is b  # already minimal, kept as given: W = V
        w = v
    else:
        w = minimize_kraus(b).stacked().reshape(r, -1) @ np.linalg.pinv(
            a.stacked().reshape(r, -1))
        assert np.linalg.norm(dagger(w) @ w - np.eye(r)) <= 1e-9
    got = apply(complementary(b), x)
    assert np.linalg.norm(got - w @ psi_x @ dagger(w)) <= 1e-10 * scale


# --------------------------------------------------------- operator_system

def test_operator_system_identity_channel():
    assert operator_system(identity_channel(4)).s == 1


def test_operator_system_weyl3():
    sys = operator_system(weyl_channel(3))
    assert sys.s == 7
    # orthonormality of the basis
    for i, a in enumerate(sys.basis):
        for j, b in enumerate(sys.basis):
            assert abs(frob_inner(a, b) - (i == j)) <= 1e-10


def test_operator_system_generic_rank2_schur():
    c = random_correlation(3, 2, seed=31)
    assert operator_system(schur_channel(c)).s == 3


def test_operator_system_matches_composed_choi_rank():
    # oracle: s = rank(J(Phi* Phi)); the composed map has Kraus {A_k* A_j}
    for seed in range(30):
        phi = minimize_kraus(random_channel(3, 3, 2 + seed % 2, seed=seed + 200))
        composed = [dagger(ak) @ aj for ak in phi.kraus for aj in phi.kraus]
        j = sum(np.outer(vec(c), vec(c).conj()) for c in composed)
        assert operator_system(phi).s == numerical_rank(j)


def test_operator_system_bounds_r_and_r_squared():
    for seed in range(20):
        phi = minimize_kraus(random_channel(4, 4, 3, seed=seed + 400))
        r = len(phi.kraus)
        s = operator_system(phi).s
        assert r <= s <= r * r


def test_operator_system_schur_channels_diagonal():
    for seed in range(25):
        n = 3 + seed % 3
        c = random_correlation(n, 1 + seed % n, seed=seed)
        sys = operator_system(schur_channel(c))
        for b in sys.basis:
            assert np.max(np.abs(b - np.diag(np.diag(b)))) <= 1e-9


def test_operator_system_schur_equals_rank_of_conjugate_product():
    # s = rank(conj(C) (.) C) for Schur channels, exact integers
    for seed in range(500):
        n = 2 + seed % 5
        rank = 1 + seed % n
        c = random_correlation(n, rank, seed=seed + 3000)
        s = operator_system(schur_channel(c)).s
        assert s == numerical_rank(np.conj(c) * c)


# ------------------------------------------- block SVD of the operator system

def _conjugated(phi, u):
    return KrausChannel([u @ a @ dagger(u) for a in phi.kraus])


_SYSTEM_FIXTURES = {
    **{f"weyl:{p}": (lambda p=p: weyl_channel(p)) for p in (3, 5, 7, 11)},
    **{f"gap:{p}:1": (lambda p=p: gap_channel(p, 1)) for p in (3, 5, 7, 11)},
    **{f"wh{k}:{n}": (lambda k=k, n=n: getattr(wh_channels(n), f"phi{k}"))
       for k in (0, 1) for n in range(2, 7)},
    **{f"mubcorr:{d}": (lambda d=d: schur_channel(mub_correlation(d).matrix))
       for d in (2, 3, 5, 7)},
    "corrC4": lambda: schur_channel(corr_C4()),
    # 9 rows on the 3 diagonal columns: one block taller than wide
    "corr3x3rank3": lambda: schur_channel(random_correlation(3, 3, seed=5)),
    "random": lambda: random_channel(3, 3, 3, seed=11),
    "haar-weyl:5": lambda: _conjugated(weyl_channel(5), haar_unitary(5, seed=3)),
    # r = 4 > n = 3: 16 dense rows on 9 columns, one block taller than wide
    "random-tall": lambda: random_channel(3, 3, 4, seed=7),
}
_DENSE_FIXTURES = ("random", "haar-weyl:5", "random-tall")


def _system_rows(phi):
    a = minimize_kraus(phi).stacked()
    r, n = a.shape[0], a.shape[2]
    return (a.conj().transpose(0, 2, 1)[None] @ a[:, None]).conj().reshape(r * r, n * n)


def _dense_svd(rows):
    return (*np.linalg.svd(rows, full_matrices=False), (rows.shape,))


@pytest.mark.parametrize("name", _SYSTEM_FIXTURES)
def test_block_svd_matches_dense_svd(name):
    rows = _system_rows(_SYSTEM_FIXTURES[name]())
    u, sv, vh, shapes = _block_svd(rows)
    u0, sv0, _ = np.linalg.svd(rows, full_matrices=False)
    assert u.shape == u0.shape and sv.shape == sv0.shape
    assert np.all(np.diff(sv) <= 0)
    assert np.abs(sv - sv0).max() <= 1e-14 * sv0[0]
    assert np.abs(dagger(u) @ u - np.eye(u.shape[1])).max() <= 1e-14
    assert np.abs((u * sv) @ vh[:len(sv)] - rows).max() <= 1e-14 * sv0[0]
    # same bytes from a second call
    again = _block_svd(rows)
    assert all(x.tobytes() == y.tobytes() for x, y in zip((u, sv, vh), again[:3]))
    assert again[3] == shapes
    if name in _DENSE_FIXTURES:
        assert shapes == (rows.shape,)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip((u, sv, vh), np.linalg.svd(rows, full_matrices=False)))


@pytest.mark.parametrize("name", _SYSTEM_FIXTURES)
def test_block_svd_relations_and_ranks(name, monkeypatch):
    phi = _SYSTEM_FIXTURES[name]()
    p = channel_profile(phi)
    r, n, s = p.r, p.minimal.dim_in, p.s
    if r <= n:
        # left[:, s:] holds sum_jk q[j r + k] A_k* A_j = 0
        relations = p.system.left[:, s:].T @ _system_rows(phi).conj()
        assert np.abs(relations).max(initial=0.0) <= 1e-14
        assert p.system.left.shape == (r * r, r * r)
    monkeypatch.setattr(muchan.channels, "_block_svd", _dense_svd)
    dense = channel_profile(phi)
    assert (dense.r, dense.s) == (r, s)
    mine, ref = muchan.analysis._bounds(r, s), muchan.analysis._bounds(dense.r, dense.s)
    assert (mine.exact, mine.exact_reason) == (ref.exact, ref.exact_reason)


def test_block_svd_block_shapes():
    # weyl(p): p blocks of p x p, one per shift; gap(p, 1) adds the 1 x 1
    # identity corner and 2p zero rows; a Schur channel uses n of the n^2
    # columns; dense rows are one block
    assert channel_profile(weyl_channel(5)).system.block_shapes == ((5, 5),) * 5
    assert channel_profile(gap_channel(5, 1)).system.block_shapes == ((1, 1),) + ((5, 5),) * 5
    c3 = schur_channel(random_correlation(3, 3, seed=5))
    assert channel_profile(c3).system.block_shapes == ((9, 3),)
    assert channel_profile(random_channel(3, 3, 2, seed=1)).system.block_shapes == ((4, 9),)


@pytest.mark.parametrize("seed", range(40))
def test_block_svd_random_sparsity(seed):
    # random exact-zero patterns, wide and tall, with zero rows and columns,
    # and chains that link blocks only through several hops
    rng = np.random.default_rng(seed)
    n_rows, n_cols = rng.integers(1, 13, size=2)
    rows = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
    if seed % 4 == 3:  # a staircase: one block, linked through every hop
        rows *= np.eye(n_rows, n_cols) + np.eye(n_rows, n_cols, k=-1)
    else:
        rows *= rng.random((n_rows, n_cols)) < (0.1 + 0.2 * (seed % 3))
    if seed % 5 == 0:  # rank-deficient block
        rows[-1] = rows[0]
    u, sv, vh, shapes = _block_svd(rows)
    u0, sv0, _ = np.linalg.svd(rows, full_matrices=False)
    scale = max(sv0[0], 1.0)
    assert u.shape == u0.shape and sv.shape == sv0.shape
    assert np.abs(sv - sv0).max() <= 1e-14 * scale
    assert np.abs(dagger(u) @ u - np.eye(u.shape[1])).max() <= 1e-14
    assert np.abs((u * sv) @ vh[:len(sv)] - rows).max() <= 1e-14 * scale
    assert sum(br for br, _ in shapes) + np.count_nonzero(~rows.any(axis=1)) == n_rows
    assert sum(bc for _, bc in shapes) + np.count_nonzero(~rows.any(axis=0)) == n_cols


# -------------------------------------------------------------- direct_sum

def test_direct_sum_of_trivial_channels_is_dephasing():
    one = identity_channel(1)
    d = direct_sum(one, one)
    # oracle: evaluating on E_12 must zero the off-diagonal block
    assert np.linalg.norm(apply(d, _eij(2, 0, 1))) <= 1e-14
    assert np.linalg.norm(choi_of(d) - choi_of(dephasing_channel(2))) <= 1e-12


def test_direct_sum_has_no_minimal_option():
    with pytest.raises(TypeError):
        direct_sum(weyl_channel(3), identity_channel(1), minimal=True)


def test_direct_sum_choi_rank_additive():
    d = direct_sum(weyl_channel(3), identity_channel(1))
    assert numerical_rank(choi_of(d)) == 4
    # certified_gap_rank reads it as the size of the minimal Kraus list
    assert len(minimize_kraus(d)) == 4


def test_direct_sum_block_action():
    phi = weyl_channel(3)
    psi = dephasing_channel(2)
    d = direct_sum(phi, psi)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    z = np.zeros((5, 5), dtype=complex)
    z[:3, :3], z[3:, 3:] = x, y
    out = apply(d, z)
    assert np.linalg.norm(out[:3, :3] - apply(phi, x)) <= 1e-12
    assert np.linalg.norm(out[3:, 3:] - apply(psi, y)) <= 1e-12
    assert np.linalg.norm(out[:3, 3:]) <= 1e-14


def test_direct_sum_requires_square():
    with pytest.raises(ValidationError):
        direct_sum(random_channel(2, 3, 1, seed=0), identity_channel(2))


# ------------------------------------------------------------ schur_channel

def test_operator_system_svd_failure_is_numerical(monkeypatch):
    def fail(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError,
                       match="^operator system SVD failed: SVD did not converge$"):
        channel_profile(weyl_channel(3))


def test_schur_allones_is_identity_channel():
    phi = schur_channel(np.ones((3, 3)))
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(apply(phi, x) - x) <= 1e-12


def test_schur_identity_matrix_is_dephasing():
    phi = schur_channel(np.eye(3))
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(apply(phi, x) - np.diag(np.diag(x))) <= 1e-12


def test_schur_c4_choi_rank():
    assert numerical_rank(choi_of(schur_channel(corr_C4()))) == 3


def test_schur_action_is_entrywise_product():
    c = random_correlation(4, 3, seed=44)
    phi = schur_channel(c)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.linalg.norm(apply(phi, x) - c * x) <= 1e-10


def test_schur_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        schur_channel(np.diag([1.0, 2.0]))        # non-unit diagonal
    with pytest.raises(ValidationError):
        schur_channel(np.array([[1, 2], [2, 1]], dtype=complex))  # not PSD
    with pytest.raises(ValidationError, match="must be square"):
        schur_channel(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="must be Hermitian"):
        schur_channel(np.array([[1, 0.5], [0, 1]], dtype=complex))
