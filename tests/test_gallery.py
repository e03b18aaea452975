import numpy as np
import pytest

import muchan.constructive
import muchan.gallery
import muchan.search
from muchan import (KrausChannel, ValidationError, certified_gap_rank, channel_profile,
                    choi_of, dagger, direct_sum, frob_inner, identity_channel, kron,
                    numerical_rank, operator_system, schur_channel, verify_decomposition)
from muchan.gallery import (corr_B3, corr_C4, gap_channel, hermitian_basis,
                            mub_correlation, mub_family, one_factorization,
                            toroidal_CtensorI2, weyl_channel, weyl_generators,
                            wh_antisym_decomposition, wh_channels,
                            wh_sym3_decomposition, wh_sym_even_decomposition,
                            wh_sym_odd_decomposition)

ZETA3 = np.exp(2j * np.pi / 3)


def _eij(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1
    return m


# ------------------------------------------------------------------ Weyl

def test_weyl3_kraus_transcription():
    w1 = np.array([[0, 0, ZETA3 ** 2], [1, 0, 0], [0, ZETA3, 0]])
    w2 = np.array([[0, ZETA3, 0], [0, 0, ZETA3 ** 2], [1, 0, 0]])
    phi = weyl_channel(3)
    got = [a * np.sqrt(3) for a in phi.kraus]
    assert np.linalg.norm(got[0] - np.eye(3)) <= 1e-12
    assert np.linalg.norm(got[1] - w1) <= 1e-12
    assert np.linalg.norm(got[2] - w2) <= 1e-12


def test_weyl_operator_system_dimensions():
    assert operator_system(weyl_channel(3)).s == 7
    assert operator_system(weyl_channel(5)).s == 21


def test_weyl_rejects_bad_p():
    for bad in (1, 2, 4, 6, 9, 3.0, "3"):
        with pytest.raises(ValidationError):
            weyl_channel(bad)


def test_weyl_displacement_orthogonality():
    # <U^a V^b, U^c V^d> = p delta: an orthogonal basis of M_p
    for p in (3, 5, 7):
        u, v = weyl_generators(p)
        words = {}
        for a in range(p):
            for b in range(p):
                words[(a, b)] = np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, b)
        keys = list(words)
        for i, k1 in enumerate(keys):
            for k2 in keys[i:]:
                ip = frob_inner(words[k1], words[k2])
                if k1 == k2:
                    assert abs(ip - p) <= 1e-9
                else:
                    assert abs(ip) <= 1e-9


def test_weyl_operator_system_separation():
    # words (U^b V^{b^2})^*(U^a V^{a^2}) are orthogonal unless (a,b)=(c,d)
    # or (a,c)=(b,d), checked exhaustively
    for p in (3, 5):
        u, v = weyl_generators(p)
        w = [np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, (a * a) % p)
             for a in range(p)]
        prods = {(a, b): dagger(w[b]) @ w[a] for a in range(p) for b in range(p)}
        for (a, b), m1 in prods.items():
            for (c, d), m2 in prods.items():
                ip = abs(frob_inner(m1, m2))
                if (a, b) == (c, d) or (a, c) == (b, d):
                    assert ip >= p - 1e-9
                else:
                    assert ip <= 1e-9


def test_gap_channel_choi_rank():
    assert numerical_rank(choi_of(gap_channel(3, 1))) == 4
    assert numerical_rank(choi_of(gap_channel(5, 1))) == 6


@pytest.mark.parametrize("m", [0, -1, 1.5, True, "2"])
def test_gap_channel_refuses_a_block_size_that_is_not_a_positive_integer(m):
    with pytest.raises(ValidationError, match="m must be a positive integer, got"):
        gap_channel(3, m)


def test_gap_channel_takes_a_numpy_integer_block_size():
    phi = gap_channel(3, np.int64(2))
    assert (phi.dim_in, len(phi)) == (5, 4)


# ---------------------------------------------------------- correlations

def test_corr_b3_is_rank2_correlation():
    b = corr_B3()
    assert numerical_rank(b) == 2
    assert np.max(np.abs(np.diag(b) - 1)) == 0
    # off-diagonal entries avoid the unit circle
    assert all(abs(abs(b[i, j]) - 1) > 0.1 for i in range(3) for j in range(3) if i != j)


def test_corr_b3_derived_from_paper_vectors():
    u = np.array([1, (1 + 1j) / np.sqrt(2), (1 - 1j) / np.sqrt(2)])
    v = np.array([1, (1 - 1j) / np.sqrt(2), (1 + 1j) / np.sqrt(2)])
    rebuilt = (np.outer(u, u.conj()) + np.outer(v, v.conj())) / 2
    assert np.linalg.norm(rebuilt - corr_B3()) <= 1e-12


def test_corr_c4_ranks():
    c = corr_C4()
    assert numerical_rank(c) == 3
    assert numerical_rank(kron(c, np.eye(2))) == 6
    assert np.linalg.norm(c[:3, :3] - corr_B3()) == 0


def test_ctensor2_reconstruction():
    t = toroidal_CtensorI2()
    assert t.n_terms == 6
    target = kron(corr_C4(), np.eye(2))
    assert np.linalg.norm(t.matrix() - target) <= 1e-10
    for v in t.vectors:
        assert np.max(np.abs(np.abs(v) - 1)) <= 1e-12


# ------------------------------------------------------------------- MUB

@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_overlaps(d):
    fam = mub_family(d)
    assert len(fam.bases) == d + 1
    for i in range(d + 1):
        b = fam.bases[i]
        assert np.linalg.norm(dagger(b) @ b - np.eye(d)) <= 1e-10
        for j in range(i + 1, d + 1):
            ov = np.abs(dagger(b) @ fam.bases[j])
            assert np.max(np.abs(ov - 1 / np.sqrt(d))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_correlation_properties(d):
    mc = mub_correlation(d)
    c = mc.matrix
    assert c.shape == (d * d, d * d)
    assert np.max(np.abs(np.diag(c) - 1)) <= 1e-12
    assert numerical_rank(c) == d
    assert numerical_rank(np.conj(c) * c) == d * d - d + 1
    assert np.linalg.norm(mc.decomposition.matrix() - c) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_mub_correlation_within_basis_blocks_are_exact(d):
    # the overlaps of one basis are delta_jj' by construction, not A A*'s residues
    c = mub_correlation(d).matrix
    blocks = c.reshape(d, d, d, d)
    for k in range(d):
        assert np.array_equal(blocks[k, :, k, :], np.eye(d))
    profile = channel_profile(schur_channel(c))
    assert (profile.r, profile.s) == (d, d * d - d + 1)


def test_mub_rejects_composite():
    with pytest.raises(ValidationError):
        mub_family(4)
    with pytest.raises(ValidationError):
        mub_correlation(6)
    with pytest.raises(ValidationError):
        mub_correlation(3.0)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_mub_gap_certificate(d, count_calls):
    # the paper's headline ranks (d + 1, 2d), on C^(d^2), in closed form
    calls = [count_calls(muchan.search, "search_isometry"),
             count_calls(muchan.constructive, "decompose_low_dim")]
    phi = schur_channel(mub_correlation(d).matrix)
    cert = certified_gap_rank(phi, 1)
    assert (cert.choi_rank, cert.mu_rank) == (d + 1, 2 * d)
    assert cert.decomposition.n_terms == 2 * d
    res = verify_decomposition(direct_sum(phi, identity_channel(1)), cert.decomposition)
    assert res.ok and res.choi_residual <= 1e-10
    assert calls == [[], []]


# ------------------------------------------------- Hermitian basis, matchings

def test_hermitian_basis_m2_entry():
    h = hermitian_basis(2)
    expected = (_eij(2, 0, 1) + _eij(2, 1, 0)) / np.sqrt(2)
    assert np.linalg.norm(h[(0, 1)] - expected) <= 1e-15


def test_hermitian_basis_orthonormal_n5():
    h = hermitian_basis(5)
    mats = [h[(j, k)] for j in range(5) for k in range(5)]
    # direct inner-product table
    for i, a in enumerate(mats):
        assert np.linalg.norm(a - dagger(a)) <= 1e-15
        for j, b in enumerate(mats):
            assert abs(frob_inner(a, b) - (i == j)) <= 1e-12


def test_one_factorization_k4():
    fac = one_factorization(4)
    assert len(fac.matchings) == 3
    edges = {e for m in fac.matchings for e in m}
    assert edges == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_one_factorization_rejects_odd():
    with pytest.raises(ValidationError):
        one_factorization(5)


def test_one_factorization_valid_up_to_10():
    for n in (2, 4, 6, 8, 10):
        one_factorization(n).validate()


# ---------------------------------------------------------- Werner-Holevo

def _swap(n):
    s = np.zeros((n * n, n * n))
    for j in range(n):
        for k in range(n):
            s[j * n + k, k * n + j] = 1
    return s


def test_wh_action_formulas():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        pair = wh_channels(n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.linalg.norm(
            pair.phi0(x) - (np.trace(x) * np.eye(n) + x.T) / (n + 1)) <= 1e-12
        assert np.linalg.norm(
            pair.phi1(x) - (np.trace(x) * np.eye(n) - x.T) / (n - 1)) <= 1e-12


def test_wh_choi_are_projectors():
    # oracle: symmetric/anti-symmetric projectors from the swap matrix
    for n in (2, 3, 4):
        pair = wh_channels(n)
        s = _swap(n)
        p0 = (np.eye(n * n) + s) / 2
        p1 = (np.eye(n * n) - s) / 2
        assert np.linalg.norm(choi_of(pair.phi0) - 2 / (n + 1) * p0) <= 1e-10
        assert np.linalg.norm(choi_of(pair.phi1) - 2 / (n - 1) * p1) <= 1e-10


def test_wh_choi_ranks():
    assert numerical_rank(choi_of(wh_channels(2).phi1)) == 1
    assert numerical_rank(choi_of(wh_channels(3).phi0)) == 6
    assert numerical_rank(choi_of(wh_channels(4).phi0)) == 10
    assert numerical_rank(choi_of(wh_channels(4).phi1)) == 6


def test_wh2_antisym_is_single_unitary():
    d = wh_antisym_decomposition(2)
    assert d.n_terms == 1
    # conjugation by the skew unitary built from the single off-diagonal
    # Hermitian basis element
    h21 = hermitian_basis(2)[(1, 0)]
    assert abs(abs(frob_inner(d.unitaries[0], np.sqrt(2) * h21)) - 2) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_wh_antisym_even(n):
    d = wh_antisym_decomposition(n)
    assert d.n_terms == n * (n - 1) // 2
    for u in d.unitaries:
        assert np.linalg.norm(u + u.T) <= 1e-10  # skew-symmetric
    res = verify_decomposition(wh_channels(n).phi1, d)
    assert res.ok and res.choi_residual <= 1e-10


def test_wh_antisym_rejects_odd():
    with pytest.raises(ValidationError):
        wh_antisym_decomposition(3)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_wh_sym_even(n):
    d = wh_sym_even_decomposition(n)
    assert d.n_terms == n * (n + 1) // 2
    for u in d.unitaries:
        assert np.linalg.norm(u - u.T) <= 1e-10  # symmetric
    us = d.unitaries
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            assert abs(frob_inner(us[i], us[j])) <= 1e-9
    res = verify_decomposition(wh_channels(n).phi0, d)
    assert res.ok and res.choi_residual <= 1e-10


@pytest.mark.parametrize("n", [3, 5, 7])
def test_wh_sym_odd(n):
    d = wh_sym_odd_decomposition(n)
    assert d.n_terms == n * (n + 3) // 2
    res = verify_decomposition(wh_channels(n).phi0, d)
    assert res.ok and res.choi_residual <= 1e-10


def test_wh_sym_odd_weights_rational_identity():
    # weight bookkeeping: n(n+1)/2 terms at 2/(n+1)^2 plus n at 1/(n(n+1))
    from fractions import Fraction
    for n in (3, 5, 7):
        total = (Fraction(n * (n + 1), 2) * Fraction(2, (n + 1) ** 2)
                 + n * Fraction(1, n * (n + 1)))
        assert total == 1


def test_wh_sym3_explicit():
    d = wh_sym3_decomposition()
    assert d.n_terms == 6
    u1 = d.unitaries[0]
    assert np.linalg.norm(u1 - np.diag([1, ZETA3, ZETA3 ** 2])) <= 1e-12
    alpha = 3 / 8 + 1j * np.sqrt(15) / 8
    # row normalization forced by the entries: 1/4 + 2|alpha|^2 = 1
    assert 0.25 + 2 * abs(alpha) ** 2 == pytest.approx(1.0, abs=1e-15)
    u3, u4 = d.unitaries[2], d.unitaries[3]
    assert abs(frob_inner(u3, u4)) <= 1e-12
    for u in d.unitaries:
        assert np.linalg.norm(u - u.T) <= 1e-12
    res = verify_decomposition(wh_channels(3).phi0, d)
    assert res.ok and res.choi_residual <= 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: wh_sym_even_decomposition(5), "refusal: even n only; use the odd construction"),
    (lambda: wh_sym_odd_decomposition(4), "refusal: odd n >= 3 only; use the even construction"),
    (lambda: muchan.gallery.random_channel(4, 1, 2, seed=0),
     "trace preservation needs rank * dim_out >= dim_in"),
    (lambda: muchan.gallery.random_channel(2, 2, 5, seed=0), "rank cannot exceed dim_in * dim_out"),
    (lambda: hermitian_basis(0), "n must be positive"),
    (lambda: muchan.gallery.random_correlation(3, 0, seed=0),
     "rank must lie in 1..dim, got rank=0, dim=3"),
    (lambda: muchan.gallery.random_correlation(3, -1, seed=0),
     "rank must lie in 1..dim, got rank=-1, dim=3"),
    (lambda: muchan.gallery.random_correlation(3, 5, seed=0),
     "rank must lie in 1..dim, got rank=5, dim=3"),
    (lambda: muchan.gallery.random_correlation(0, 1, seed=0),
     "rank must lie in 1..dim, got rank=1, dim=0")],
    ids=["wh_even_5", "wh_odd_4", "random_not_tp", "random_rank", "hermitian_basis_0",
         "correlation_rank_0", "correlation_rank_negative", "correlation_rank_above_dim",
         "correlation_dim_0"])
def test_gallery_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_wh_rejects_n1():
    with pytest.raises(ValidationError):
        wh_channels(1)


# ----------------------------------------------- bound consistency (gallery)

def test_known_decompositions_respect_bounds():
    from muchan import rank_bounds
    cases = []
    for p in (3, 5):
        phi = weyl_channel(p)
        cases.append((phi, p))
    for n in (2, 4):
        cases.append((wh_channels(n).phi0, n * (n + 1) // 2))
        cases.append((wh_channels(n).phi1, n * (n - 1) // 2))
    cases.append((wh_channels(3).phi0, 6))
    for phi, n_known in cases:
        b = rank_bounds(phi)
        assert b.lower <= n_known <= b.upper


# ------------------------------------------------------ roots of unity
# The constructions before every root came from one integer-exponent helper,
# kept as oracles: matrix powers and zeta powers of exp(2 pi i / m).

def _old_weyl_channel(p):
    z = np.exp(2j * np.pi / p)
    u = np.zeros((p, p), dtype=complex)
    for a in range(p):
        u[(a + 1) % p, a] = 1
    v = np.diag(z ** np.arange(p))
    return [np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, (a * a) % p) / np.sqrt(p)
            for a in range(p)]


def _old_mub_bases(d):
    z = np.exp(2j * np.pi / d)
    a = np.arange(d)
    bases = [np.eye(d, dtype=complex)]
    for k in range(d):
        b = np.empty((d, d), dtype=complex)
        for j in range(d):
            b[:, j] = z ** ((k * a * a + j * a) % d) / np.sqrt(d)
        bases.append(b)
    return bases


def _old_mub_correlation(d):
    bases = _old_mub_bases(d)
    a = np.zeros((d * d, d), dtype=complex)
    for k in range(d):
        for j in range(d):
            a[k * d + j, :] = bases[k][:, j].conj()
    return a @ dagger(a)


def _old_ctensor2():
    us = np.exp(2j * np.pi * muchan.gallery._CTENSOR_EXPONENTS / 24)
    perm = np.empty(8, dtype=int)
    for i in range(2):
        for c in range(4):
            perm[c * 2 + i] = i * 4 + c
    return [u[perm] for u in us]


def _old_matching_unitaries(fac, element):
    zeta = np.exp(2j * np.pi / fac.n)
    half = fac.n // 2
    us = []
    for pairs in fac.matchings:
        fs = [element(pair) for pair in pairs]
        for a in range(1, half + 1):
            us.append(np.sqrt(2) * sum(zeta ** (2 * a * bb) * fs[bb - 1]
                                       for bb in range(1, half + 1)))
    return us


def _old_fourier_diagonals(n, basis):
    zeta = np.exp(2j * np.pi / n)
    return [sum(zeta ** (j * k) * basis[(k - 1, k - 1)] for k in range(1, n + 1))
            for j in range(1, n + 1)]


def _old_wh(name, n):
    basis = hermitian_basis(n)
    if name == "wh1anti":
        return _old_matching_unitaries(one_factorization(n), lambda pair: basis[pair[::-1]])
    if name == "wh0even":
        return (_old_matching_unitaries(one_factorization(n), basis.__getitem__)
                + _old_fourier_diagonals(n, basis))

    def element(pair):
        lo, hi = pair[0] - 1, pair[1] - 1
        return basis[(hi, hi)] / np.sqrt(2) if lo < 0 else basis[(lo, hi)]
    return (_old_matching_unitaries(one_factorization(n + 1), element)
            + _old_fourier_diagonals(n, basis))


def _old_wh_sym3():
    zeta = np.exp(2j * np.pi / 3)
    return [np.diag([1, zeta, zeta ** 2]), np.diag([1, zeta ** 2, zeta])]


_WH = {"wh1anti": wh_antisym_decomposition, "wh0even": wh_sym_even_decomposition,
       "wh0odd": wh_sym_odd_decomposition}


def _root_table(m, k):
    """exp(2 pi i (k mod m) / m), computed as the reference formula reads."""
    return np.exp(2j * np.pi * (k % m) / m)


def _same_fixture(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-14
    assert np.array_equal(new == 0, old == 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_weyl_entries_are_the_correctly_computed_roots(p):
    a, x = np.ogrid[:p, :p]
    want = np.zeros((p, p, p), dtype=complex)
    want[a, (x + a) % p, x] = _root_table(p, a * a * x) / np.sqrt(p)
    assert np.array_equal(weyl_channel(p).stacked(), want)
    u, v = weyl_generators(p)
    assert np.array_equal(np.diag(v), _root_table(p, np.arange(p)))
    assert np.array_equal(u, np.roll(np.eye(p), 1, axis=0))


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_mub_entries_are_the_correctly_computed_roots(d):
    k, a, j = np.ogrid[:d, :d, :d]
    want = _root_table(d, k * a * a + j * a) / np.sqrt(d)
    assert np.array_equal(np.array(mub_family(d).bases[1:]), want)


@pytest.mark.parametrize("name, n", [("wh0even", 2), ("wh0even", 4), ("wh0even", 8),
                                     ("wh0odd", 3), ("wh0odd", 5), ("wh0odd", 7)])
def test_wh_fourier_diagonals_are_the_correctly_computed_roots(name, n):
    k = np.arange(1, n + 1)
    diagonals = _WH[name](n).stacked()[-n:]
    assert np.array_equal(np.array([np.diag(u) for u in diagonals]),
                          _root_table(n, np.outer(k, k)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_weyl_matches_the_matrix_power_construction(p):
    _same_fixture(weyl_channel(p).stacked(), _old_weyl_channel(p))


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_mub_matches_the_zeta_power_construction(d):
    _same_fixture(np.array(mub_family(d).bases), _old_mub_bases(d))
    # the old construction's zeros are rounding residues: values only
    assert np.max(np.abs(mub_correlation(d).matrix - _old_mub_correlation(d))) <= 1e-14


def test_ctensor2_matches_the_angle_construction():
    _same_fixture(np.array(toroidal_CtensorI2().vectors), _old_ctensor2())


@pytest.mark.parametrize("name, n", [("wh1anti", 2), ("wh1anti", 4), ("wh1anti", 6),
                                     ("wh1anti", 8), ("wh0even", 2), ("wh0even", 4),
                                     ("wh0even", 6), ("wh0even", 8), ("wh0odd", 3),
                                     ("wh0odd", 5), ("wh0odd", 7)])
def test_wh_matches_the_zeta_power_construction(name, n):
    _same_fixture(_WH[name](n).stacked(), _old_wh(name, n))


def test_wh_sym3_diagonals_are_roots_and_match_the_zeta_power_construction():
    diagonals = wh_sym3_decomposition().stacked()[:2]
    assert np.array_equal(np.array([np.diag(u) for u in diagonals]),
                          _root_table(3, np.array([[0, 1, 2], [0, 2, 1]])))
    _same_fixture(diagonals, _old_wh_sym3())


@pytest.mark.parametrize("seed", range(60))
def test_weyl_words_have_the_exact_ranks_of_their_point_set(seed):
    # r = |D| and s = |D - D| for any D in Z_n^2 and positive weights: distinct
    # Weyl words are orthogonal and W(g)* W(h) is a phase times W(h - g)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    size = int(rng.integers(1, min(12, n * n) + 1))
    a, b = np.divmod(rng.choice(n * n, size, replace=False), n)
    w = rng.uniform(0.5, 2.0, size)
    w /= w.sum()
    phi = KrausChannel(np.sqrt(w)[:, None, None] * muchan.gallery._weyl(n, a, b))
    diffs = {((a[i] - a[j]) % n, (b[i] - b[j]) % n) for i in range(size) for j in range(size)}
    profile = channel_profile(phi)
    assert (profile.r, profile.s) == (size, len(diffs))
