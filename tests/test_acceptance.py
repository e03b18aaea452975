"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (prints are emitted only after all assertions in a
criterion hold).
"""
import numpy as np

from muchan import (SearchConfig, certified_gap_rank, choi_of, complementary,
                    dagger, decompositions_equivalent, direct_sum,
                    identity_channel, kron, minimize_kraus, murank_search,
                    numerical_rank, operator_system, rank_bounds,
                    schur_channel, schur_equivalence_check, search_isometry,
                    toroidal_decompose_small,
                    verify_decomposition, zero_diagonal_unitary)
from muchan.analysis import MixedUnitaryDecomposition
from muchan.gallery import (corr_B3, corr_C4, gap_channel, mub_correlation,
                            mub_family, random_channel, random_correlation,
                            random_unital_rank2, toroidal_CtensorI2,
                            weyl_channel, wh_antisym_decomposition,
                            wh_channels, wh_sym3_decomposition,
                            wh_sym_even_decomposition, wh_sym_odd_decomposition)

ZETA3 = np.exp(2j * np.pi / 3)


def _paper_w_matrices():
    return [np.eye(3, dtype=complex),
            np.array([[0, 0, ZETA3 ** 2], [1, 0, 0], [0, ZETA3, 0]]),
            np.array([[0, ZETA3, 0], [0, 0, ZETA3 ** 2], [1, 0, 0]])]


def _paper_gap_list(w):
    us, ps = [], []
    for wa in w:
        for sign in (1, -1):
            a = np.zeros((4, 4), dtype=complex)
            a[:3, :3] = wa
            a[3, 3] = sign
            us.append(a)
            ps.append(1 / 6)
    return MixedUnitaryDecomposition(ps, us)


def test_criterion_1_weyl_fixture():
    for p in (3, 5, 7):
        phi = weyl_channel(p)
        assert numerical_rank(choi_of(phi)) == p
        assert operator_system(phi).s == p * p - p + 1
    w = _paper_w_matrices()
    got = [np.sqrt(3) * a for a in weyl_channel(3).kraus]
    for a, b in zip(got, w):
        assert np.max(np.abs(a - b)) <= 1e-12
    print("ACCEPTANCE 1 PASS: weyl r=p, s=p^2-p+1 for p in {3,5,7}; "
          "p=3 Kraus matches the explicit W matrices to 1e-12")


def test_criterion_2_gap_channel_separation():
    assert numerical_rank(choi_of(gap_channel(3, 1))) == 4
    cert3 = certified_gap_rank(weyl_channel(3), 1)
    assert (cert3.choi_rank, cert3.mu_rank) == (4, 6)
    summed3 = direct_sum(weyl_channel(3), identity_channel(1))
    res3 = verify_decomposition(summed3, cert3.decomposition)
    assert res3.ok and res3.choi_residual <= 1e-10
    assert decompositions_equivalent(_paper_gap_list(_paper_w_matrices()),
                                     cert3.decomposition)
    assert numerical_rank(choi_of(gap_channel(5, 1))) == 6
    cert5 = certified_gap_rank(weyl_channel(5), 1)
    assert (cert5.choi_rank, cert5.mu_rank) == (6, 10)
    summed5 = direct_sum(weyl_channel(5), identity_channel(1))
    res5 = verify_decomposition(summed5, cert5.decomposition)
    assert res5.ok and res5.choi_residual <= 1e-10
    print("ACCEPTANCE 2 PASS: certified gap ranks (4,6) and (6,10); "
          "decompositions verified <=1e-10 and equivalent to the explicit 6-term list")


def test_criterion_3_search_reproduces_separation():
    rep = murank_search(gap_channel(3, 1), SearchConfig(restarts=200, seed=0))
    assert rep.n_found == 6
    by_n = {r.n_terms: r for r in rep.results}
    assert by_n[4].status == "not_found" and len(by_n[4].restart_log) == 200
    assert by_n[5].status == "not_found" and len(by_n[5].restart_log) == 200
    assert by_n[6].status == "found"
    assert verify_decomposition(minimize_kraus(gap_channel(3, 1)),
                                rep.decomposition).choi_residual <= 1e-8
    print("ACCEPTANCE 3 PASS: murank scan of gap(3,1) with 200 restarts, "
          "seed 0: not_found at N=4,5 (soft evidence), found at N=6")


def test_criterion_4_correlation_fixtures():
    c4 = corr_C4()
    assert numerical_rank(c4) == 3
    phi = schur_channel(c4)
    res = search_isometry(phi, 4, SearchConfig(restarts=40, seed=0))
    assert res.status == "found"
    check = verify_decomposition(minimize_kraus(phi), res.decomposition)
    assert check.choi_residual <= 1e-8
    big = kron(c4, np.eye(2))
    assert numerical_rank(big) == 6
    t = toroidal_CtensorI2()
    assert np.linalg.norm(t.matrix() - big) <= 1e-10
    print("ACCEPTANCE 4 PASS: rank(C)=3 with toroidal search success at N=4; "
          "rank(C (x) I_2)=6 reconstructed by the 6-vector decomposition "
          "(non-multiplicativity: 4 x 2 -> 6)")


def test_criterion_5_mub_fixtures():
    for d in (2, 3, 5):
        fam = mub_family(d)
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                ov = np.abs(dagger(fam.bases[i]) @ fam.bases[j])
                assert np.max(np.abs(ov - 1 / np.sqrt(d))) <= 1e-10
        mc = mub_correlation(d)
        assert np.linalg.norm(mc.decomposition.matrix() - mc.matrix) <= 1e-10
        assert numerical_rank(np.conj(mc.matrix) * mc.matrix) == d * d - d + 1
    print("ACCEPTANCE 5 PASS: MUB overlaps 1/sqrt(d) to 1e-10 and "
          "rank(conj(C).C) = d^2-d+1 for d in {2,3,5}")


def test_criterion_6_werner_holevo_even():
    for n in (2, 4, 6, 8):
        pair = wh_channels(n)
        d1 = wh_antisym_decomposition(n)
        assert d1.n_terms == n * (n - 1) // 2
        for u in d1.unitaries:
            assert np.linalg.norm(u + u.T) <= 1e-10
        for i in range(d1.n_terms):
            for j in range(i + 1, d1.n_terms):
                assert abs(np.trace(dagger(d1.unitaries[i]) @ d1.unitaries[j])) <= 1e-9
        r1 = verify_decomposition(pair.phi1, d1)
        assert r1.ok and r1.choi_residual <= 1e-10
        d0 = wh_sym_even_decomposition(n)
        assert d0.n_terms == n * (n + 1) // 2
        for u in d0.unitaries:
            assert np.linalg.norm(u - u.T) <= 1e-10
        for i in range(d0.n_terms):
            for j in range(i + 1, d0.n_terms):
                assert abs(np.trace(dagger(d0.unitaries[i]) @ d0.unitaries[j])) <= 1e-9
        r0 = verify_decomposition(pair.phi0, d0)
        assert r0.ok and r0.choi_residual <= 1e-10
    print("ACCEPTANCE 6 PASS: even n in {2,4,6,8}: skew/symmetric orthogonal "
          "unitary decompositions at minimal term counts, residuals <=1e-10")


def test_criterion_7_werner_holevo_odd():
    for n in (3, 5, 7):
        d = wh_sym_odd_decomposition(n)
        assert d.n_terms == n * (n + 3) // 2
        res = verify_decomposition(wh_channels(n).phi0, d)
        assert res.ok and res.choi_residual <= 1e-10
    d6 = wh_sym3_decomposition()
    assert d6.n_terms == 6
    for u in d6.unitaries:
        assert np.linalg.norm(u - u.T) <= 1e-12
        assert np.linalg.norm(dagger(u) @ u - np.eye(3)) <= 1e-12
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(np.trace(dagger(d6.unitaries[i]) @ d6.unitaries[j])) <= 1e-10
    res = verify_decomposition(wh_channels(3).phi0, d6)
    assert res.ok and res.choi_residual <= 1e-10
    print("ACCEPTANCE 7 PASS: odd n in {3,5,7} at n(n+3)/2 terms, and the "
          "six symmetric orthogonal unitaries reconstruct the n=3 channel <=1e-10")


def test_criterion_8_constructive_low_dimension():
    checked_unique = 0
    for rank in (2, 3):
        for trial in range(200):
            c = random_correlation(3, rank, seed=rank * 10_000 + trial)
            t = toroidal_decompose_small(c)
            assert t.n_terms == rank
            assert np.linalg.norm(t.matrix() - c) <= 1e-8
            for v in t.vectors:
                assert np.max(np.abs(np.abs(v) - 1)) <= 1e-8
            if rank == 2:
                off = [c[i, j] for i in range(3) for j in range(3) if i != j]
                if all(abs(abs(x) - 1) > 1e-6 for x in off):
                    assert numerical_rank(np.conj(c) * c) == 3
                    checked_unique += 1
    assert checked_unique >= 150
    print(f"ACCEPTANCE 8 PASS: 400 random 3x3 correlations decomposed at "
          f"N=rank(C), residual <=1e-8, unimodular <=1e-8; "
          f"rank(conj(C).C)=3 on {checked_unique} lemma-eligible rank-2 cases")


def test_criterion_9_zero_diagonal_robustness():
    count = 0
    for n in range(2, 9):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z -= np.trace(z) / n * np.eye(n)
            u = zero_diagonal_unitary(z)
            assert np.linalg.norm(dagger(u) @ u - np.eye(n)) <= 1e-10
            assert np.max(np.abs(np.diag(u @ z @ dagger(u)))) <= 1e-8 * np.linalg.norm(z)
            count += 1
    assert count == 7000
    print("ACCEPTANCE 9 PASS: 1000 random traceless matrices per n in {2..8}: "
          "unitarity <=1e-10, diagonal residual <=1e-8 relative")


def test_criterion_10_schur_equivalence():
    for seed in range(200):
        phi = random_unital_rank2(3 + seed % 3, seed=seed)
        res = schur_equivalence_check(phi)
        assert res.equivalent and res.witnesses is not None
        u, v = res.witnesses
        n = phi.dim_in
        for k in range(n):
            d = np.zeros((n, n), dtype=complex)
            d[k, k] = 1
            out = u @ phi(v @ d @ dagger(v)) @ dagger(u)
            assert np.linalg.norm(out - d) <= 1e-7
    fixtures = [corr_B3(), corr_C4(), mub_correlation(2).matrix,
                np.eye(3, dtype=complex), np.ones((3, 3), dtype=complex)]
    for c in fixtures:
        assert schur_equivalence_check(schur_channel(c)).equivalent
    assert not schur_equivalence_check(weyl_channel(3)).equivalent
    print("ACCEPTANCE 10 PASS: 200 random unital rank-2 channels and all "
          "Schur fixtures equivalent with verified witnesses; weyl(3) is not")


def test_criterion_11_property_suite():
    # bound consistency over every fixture with a known decomposition
    known = [(weyl_channel(3), 3), (weyl_channel(5), 5),
             (gap_channel(3, 1), 6),
             (schur_channel(corr_B3()), 2), (schur_channel(corr_C4()), 4),
             (wh_channels(2).phi0, 3), (wh_channels(2).phi1, 1),
             (wh_channels(4).phi0, 10), (wh_channels(4).phi1, 6),
             (wh_channels(3).phi0, 6)]
    for phi, n_known in known:
        b = rank_bounds(phi)
        assert b.lower <= n_known <= min(b.r ** 2 - b.s + 1, b.r ** 2 - b.r + 1)

    # complementary-channel isometry freedom via intertwiner + polar
    from muchan import KrausChannel, haar_unitary, apply
    for seed in range(20):
        n = 3
        phi = minimize_kraus(random_channel(n, n, 2 + seed % 3, seed=seed + 50))
        r = len(phi.kraus)
        q = haar_unitary(r, seed + 999)
        psi_a = complementary(phi)
        psi_b = complementary(minimize_kraus(KrausChannel(
            [sum(q[k, j] * phi.kraus[j] for j in range(r)) for k in range(r)])))
        basis = []
        for a in range(n):
            for b2 in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[a, b2] = 1
                basis.append(e)
        rows = np.zeros((r * r * len(basis), r * r), dtype=complex)
        for i, x in enumerate(basis):
            rows[i * r * r:(i + 1) * r * r, :] = (
                np.kron(apply(psi_b, x), np.eye(r))
                - np.kron(np.eye(r), apply(psi_a, x).T))
        _, _, vh = np.linalg.svd(rows)
        v0 = vh[-1].conj().reshape(r, r)
        uu, _, vvh = np.linalg.svd(v0)
        w = uu @ vvh
        resid = max(np.linalg.norm(apply(psi_b, x) - w @ apply(psi_a, x) @ dagger(w))
                    for x in basis)
        assert resid <= 1e-8

    # Wirtinger gradient vs central finite differences, 100 instances, on
    # random adjoint-closed spans: the kernel takes an orthonormal Hermitian
    # basis, here m random traceless Hermitian matrices orthonormalized as
    # real vectors
    from muchan.search import _euclidean_gradient, _evaluate, _float_rows
    from muchan import haar_isometry
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(100):
        r = int(rng.integers(2, 5))
        n_terms = int(rng.integers(r, 9))
        m = min(int(rng.integers(1, 5)), r * r - 1)
        h = rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r))
        h += h.conj().transpose(0, 2, 1)
        h -= np.trace(h, axis1=1, axis2=2)[:, None, None] * np.eye(r) / r
        q = np.linalg.qr(h.reshape(m, r * r).view(float).T)[0]
        basis = np.ascontiguousarray(q.T).view(complex).reshape(m, r, r)
        v = haar_isometry(n_terms, r, seed=trial + 777)
        bf = _float_rows(basis)
        f, d, *_ = _evaluate(v, bf)
        g = _euclidean_gradient(v, bf, d)
        j, k = int(rng.integers(n_terms)), int(rng.integers(r))
        for direction in (1.0, 1j):
            e = np.zeros_like(v)
            e[j, k] = direction
            fp = _evaluate(v + 1e-6 * e, bf)[0]
            fm = _evaluate(v - 1e-6 * e, bf)[0]
            fd = (fp - fm) / 2e-6
            an = float(np.real(np.conj(g[j, k]) * direction))
            if abs(fd) > 1e-10:
                worst = max(worst, abs(fd - an) / abs(fd))
    assert worst <= 1e-5
    print("ACCEPTANCE 11 PASS: bound consistency on all known decompositions; "
          "complementary freedom aligned <=1e-8; gradient vs finite "
          f"differences relative error {worst:.2e} <= 1e-5")
