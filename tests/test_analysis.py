import numpy as np
import pytest

import muchan.analysis
import muchan.channels
import muchan.constructive
import muchan.linalg
import muchan.search
from muchan import (DEFAULT_TOL, KrausChannel, MixedUnitaryDecomposition, apply,
                    NumericalError, Tolerance, ValidationError, certified_gap_rank,
                    channel_profile, dagger,
                    decompositions_equivalent, dephasing_channel, direct_sum,
                    haar_unitary, identity_channel, minimize_kraus,
                    operator_system, rank_bounds,
                    schur_channel, schur_equivalence_check,
                    uniqueness_certificate, verify_decomposition)
from muchan.analysis import VerificationResult
from muchan.gallery import (corr_B3, corr_C4, gap_channel, mub_correlation,
                            random_channel, random_correlation,
                            random_unital_rank2, weyl_channel,
                            wh_channels, wh_sym3_decomposition)


def _paper_gap_decomposition():
    """The six 4x4 block unitaries decomposing weyl(3) (+) identity at 1/6."""
    z = np.exp(2j * np.pi / 3)
    w = [np.eye(3, dtype=complex),
         np.array([[0, 0, z ** 2], [1, 0, 0], [0, z, 0]]),
         np.array([[0, z, 0], [0, 0, z ** 2], [1, 0, 0]])]
    us = []
    for wa in w:
        for sign in (1, -1):
            a = np.zeros((4, 4), dtype=complex)
            a[:3, :3] = wa
            a[3, 3] = sign
            us.append(a)
    return MixedUnitaryDecomposition([1 / 6] * 6, us)


# --------------------------------------------------- MixedUnitaryDecomposition

def test_decomposition_validates_probs_and_unitaries():
    with pytest.raises(ValidationError):
        MixedUnitaryDecomposition([0.5, 0.6], [np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2), np.eye(2) * 0.9])


def test_decomposition_drops_zero_weight_terms():
    d = MixedUnitaryDecomposition([1.0, 1e-12], [np.eye(2), np.diag([1, -1])])
    assert d.n_terms == 1
    d = MixedUnitaryDecomposition([1.0, -1e-12], [np.eye(2), np.diag([1, -1])])
    assert d.n_terms == 1


def test_decomposition_refuses_negative_weight():
    # a weight below -eps_eq is refused, not dropped with the near-zero ones
    with pytest.raises(ValidationError, match="nonnegative"):
        MixedUnitaryDecomposition([1.0, -1e-3], [np.eye(2), np.diag([1, -1])])


@pytest.mark.parametrize("probs", [[1.0, np.nan], [np.nan, 1.0], [1.0, np.inf],
                                   [np.inf, -np.inf]])
def test_decomposition_refuses_non_finite_weights(probs):
    # a NaN passes neither |p| > eps_eq nor the weight rules: refused before the drop
    with pytest.raises(ValidationError, match="weights must be finite"):
        MixedUnitaryDecomposition(probs, [np.eye(2), np.diag([1, -1])])


# -------------------------------------------------------- verify_decomposition

def test_verify_paper_gap_list():
    summed = direct_sum(weyl_channel(3), identity_channel(1))
    res = verify_decomposition(summed, _paper_gap_decomposition())
    assert res.ok and res.choi_residual <= 1e-12


def test_verify_identity_trivial():
    d = MixedUnitaryDecomposition([1.0], [np.eye(3)])
    res = verify_decomposition(identity_channel(3), d)
    assert res.ok and res.choi_residual == 0.0


def test_verify_counts_columns_where_only_the_decomposition_is_nonzero():
    # vec X = (0, 1, 1, 0) and vec I = (1, 0, 0, 1) share no column, so the
    # difference J - vec X vec X* has 8 unit entries: sqrt(8) / ||J|| = sqrt(2)
    d = MixedUnitaryDecomposition([1.0], [np.array([[0, 1], [1, 0]])])
    res = verify_decomposition(identity_channel(2), d)
    assert not res.ok and res.choi_residual == np.sqrt(2)


def test_verify_rejects_contraction():
    # built under a loose tolerance, the 0.99 I term fails the default one:
    # verify re-checks the decomposition's invariants under its own tol
    d = MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2), 0.99 * np.eye(2)],
                                  Tolerance(eps_eq=0.05))
    assert not d.invariants_ok()
    res = verify_decomposition(dephasing_channel(2), d)
    assert not res.ok


def test_verify_rechecks_invariants_under_another_tol():
    # a term of unitarity defect 3e-7 passes eps_eq = 1e-6 but not the
    # default 1e-9 (x sqrt 2); the Choi residual is rounding either way
    loose = Tolerance(eps_eq=1e-6)
    u = np.diag([1 + 1.5e-7, 1.0])
    assert abs(muchan.linalg.unitarity_defect(u) - 3e-7) <= 1e-12
    d = MixedUnitaryDecomposition([0.5, 0.5], [u, np.diag([1, -1])], loose)
    phi = KrausChannel(np.sqrt(0.5) * d.stacked(), loose)
    assert d.tol == loose and d.invariants_ok(loose)
    assert verify_decomposition(phi, d, loose).ok
    assert not d.invariants_ok()
    res = verify_decomposition(phi, d)
    assert not res.ok and res.choi_residual <= 1e-15


def test_verify_dimension_mismatch():
    d = MixedUnitaryDecomposition([1.0], [np.eye(3)])
    with pytest.raises(ValidationError):
        verify_decomposition(identity_channel(2), d)


def _weyl11_gap():
    cert = certified_gap_rank(weyl_channel(11), 1)
    return direct_sum(weyl_channel(11), identity_channel(1)), cert.decomposition


def _mub5_base():
    phi = schur_channel(mub_correlation(5).matrix)
    return phi, certified_gap_rank(phi, 1).base_decomposition


def _weyl13_base():
    return weyl_channel(13), certified_gap_rank(weyl_channel(13), 1).base_decomposition


# chunk counts at the default budget, over the columns where H is nonzero
_CHUNK_FIXTURES = {
    "wh_sym3": lambda: (wh_channels(3).phi0, wh_sym3_decomposition()),  # 9 columns: 1 chunk
    "weyl11_gap": _weyl11_gap,  # 122 of 144 columns: 1 chunk
    "weyl13_base": _weyl13_base,  # 169 columns: 2 chunks
    "mub5_base": _mub5_base,  # a Schur channel's 25 of 625 columns: 1 chunk
}


@pytest.mark.parametrize("name", sorted(_CHUNK_FIXTURES))
def test_verify_chunking_agrees(name, monkeypatch):
    # one column per chunk, the default budget and one chunk: each verifies,
    # and the residuals differ only by summation order
    phi, d = _CHUNK_FIXTURES[name]()
    resids = []
    for chunk_bytes in (1, muchan.analysis._CHUNK_BYTES, 1 << 30):
        monkeypatch.setattr(muchan.analysis, "_CHUNK_BYTES", chunk_bytes)
        res = verify_decomposition(phi, d)
        assert res.ok
        resids.append(res.choi_residual)
    assert max(resids) - min(resids) <= 1e-15


# -------------------------------------------------------------------- bounds

def test_rank_bounds_weyl3():
    b = rank_bounds(weyl_channel(3))
    assert (b.r, b.s) == (3, 7)
    assert b.upper == min(9 - 7 + 1, 9 - 3 + 1) == 3
    assert b.exact == 3
    assert b.unique_decomposition_certified


def test_rank_bounds_weyl23_large_s():
    b = rank_bounds(weyl_channel(23))
    assert (b.r, b.s, b.exact) == (23, 507, 23)
    assert not b.schur_equivalent


def test_rank_bounds_dephasing():
    for n in (2, 3):
        b = rank_bounds(dephasing_channel(n))
        assert (b.r, b.s) == (n, n)
        assert b.exact == n
    b4 = rank_bounds(dephasing_channel(4))
    assert (b4.r, b4.s) == (4, 4)
    assert b4.exact is None
    assert b4.upper == 4 * 4 - 4 + 1


def test_rank_bounds_rank2_nonextremal():
    # dim 3 keeps the operator system inside the diagonals: s <= 3, so the
    # rank-2 corollary applies and pins the rank
    for seed in range(5):
        phi = random_unital_rank2(3, seed=seed)
        b = rank_bounds(phi)
        assert b.r == 2
        assert not b.extremal
        assert b.exact == 2


def test_rank_bounds_rank2_extremal_not_certified():
    # in dim >= 4 the generic rank-2 unital channel is extremal (s = 4);
    # extremal non-unitary channels are not mixed unitary, so no exactness
    # certificate may be issued
    for seed in range(5):
        phi = random_unital_rank2(4, seed=seed)
        b = rank_bounds(phi)
        assert b.r == 2 and b.s == 4
        assert b.extremal
        assert b.exact is None
        assert not b.unique_decomposition_certified


def test_rank_bounds_r3_clamp():
    # a Choi-rank-3 Schur channel: upper bound must not exceed 6
    from muchan.gallery import corr_C4
    b = rank_bounds(schur_channel(corr_C4()))
    assert b.r == 3 and b.upper <= 6


@pytest.mark.parametrize("phi, exact, reason", [
    (dephasing_channel(3), 3, "s<=3"),
    (random_unital_rank2(3, seed=0), 2, "s<=3"),
    (weyl_channel(3), 3, "s=r^2-r+1"),
    (gap_channel(3, 1), None, None),
], ids=["dephasing3", "rank2", "weyl3", "gap3"])
def test_rank_bounds_exact_reason(phi, exact, reason):
    b = rank_bounds(phi)
    assert (b.exact, b.exact_reason) == (exact, reason)
    assert b.as_dict()["exact_reason"] == reason


def test_rank_bounds_refuses_non_unital():
    phi = random_channel(3, 3, 2, seed=1)
    if not phi.is_unital():
        with pytest.raises(ValidationError):
            rank_bounds(phi)


# -------------------------------------------------------- uniqueness and gaps

def test_uniqueness_certificate_cases():
    assert uniqueness_certificate(weyl_channel(3))
    assert uniqueness_certificate(identity_channel(3))
    # s oracle for the dephasing channel: rank(conj(I) (.) I) = 4 != 13
    assert operator_system(dephasing_channel(4)).s == 4
    assert not uniqueness_certificate(dephasing_channel(4))


def test_certified_gap_rank_weyl3():
    cert = certified_gap_rank(weyl_channel(3), 1)
    assert (cert.choi_rank, cert.mu_rank) == (4, 6)
    summed = direct_sum(weyl_channel(3), identity_channel(1))
    res = verify_decomposition(summed, cert.decomposition)
    assert res.ok and res.choi_residual <= 1e-10
    assert decompositions_equivalent(_paper_gap_decomposition(), cert.decomposition)


def test_certified_gap_rank_refuses_unitary():
    with pytest.raises(ValidationError):
        certified_gap_rank(identity_channel(1), 1)
    with pytest.raises(ValidationError):
        certified_gap_rank(identity_channel(3), 2)


def _fail_verification(monkeypatch, which):
    """Make call ``which`` (1-based) of analysis.verify_decomposition report
    not ok with its true residual."""
    real, calls = muchan.analysis.verify_decomposition, []

    def verify(*args):
        calls.append(args)
        res = real(*args)
        return VerificationResult(False, res.choi_residual) if len(calls) == which else res
    monkeypatch.setattr(muchan.analysis, "verify_decomposition", verify)


@pytest.mark.parametrize("guard, message", [
    ("base", r"rank-r decomposition failed verification: residual \d\.\d{3}e-\d+"),
    ("gap", r"gap decomposition failed verification: residual \d\.\d{3}e-\d+"),
    ("choi", "direct sum has Choi rank 5, expected 4"),
])
def test_certified_gap_rank_numerical_guards(guard, message, monkeypatch):
    # no input reaches these guards: each check is made to fail in turn
    if guard == "choi":
        monkeypatch.setattr(muchan.analysis, "minimize_kraus",
                            lambda phi, tol: list(phi.kraus) + [phi.kraus[0]])
    else:
        _fail_verification(monkeypatch, 1 if guard == "base" else 2)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        certified_gap_rank(weyl_channel(3), 1)


def test_certified_gap_rank_refuses_without_certificate():
    with pytest.raises(ValidationError):
        certified_gap_rank(dephasing_channel(4), 1)


@pytest.mark.parametrize("m", [0, -1, 1.5, True, "2"])
def test_certified_gap_rank_refuses_a_block_size_that_is_not_a_positive_integer(m):
    with pytest.raises(ValidationError, match="m must be a positive integer, got"):
        certified_gap_rank(weyl_channel(3), m)


def test_certified_gap_rank_takes_a_numpy_integer_block_size():
    cert = certified_gap_rank(weyl_channel(3), np.int64(2))
    assert (cert.choi_rank, cert.mu_rank) == (4, 6)


def test_certified_gap_rank_mub2():
    phi = schur_channel(mub_correlation(2).matrix)
    cert = certified_gap_rank(phi, 1)
    assert (cert.choi_rank, cert.mu_rank) == (3, 4)
    summed = direct_sum(minimize_kraus(phi), identity_channel(1))
    assert verify_decomposition(summed, cert.decomposition).ok


def _no_search_or_low_dim(count_calls):
    return [count_calls(muchan.search, "search_isometry"),
            count_calls(muchan.constructive, "decompose_low_dim")]


def _critical_mixture(n, r, seed):
    """r Haar unitaries at random weights, their scaled list remixed by a
    Haar r x r unitary (so the minimal list is not the unitaries), or None
    when the draw misses s = r^2 - r + 1."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, r)
    d = MixedUnitaryDecomposition(p / p.sum(), [haar_unitary(n, seed * 10 + k)
                                                for k in range(r)])
    scaled = np.array([np.sqrt(q) * u for q, u in zip(d.probs, d.unitaries)])
    phi = KrausChannel(list(np.tensordot(haar_unitary(r, seed), scaled, axes=(1, 0))))
    return (phi, d) if channel_profile(phi).s == r * r - r + 1 else None


@pytest.mark.parametrize("n, r", [(n, r) for n in range(3, 7) for r in range(2, n + 1)])
def test_certified_gap_rank_random_critical_mixture(n, r, count_calls):
    calls = _no_search_or_low_dim(count_calls)
    drawn = [c for c in (_critical_mixture(n, r, 100 * n + r + i) for i in range(3)) if c]
    assert drawn  # s = r^2 - r + 1 is generic for r <= n
    for phi, d in drawn:
        cert = certified_gap_rank(phi, 1)
        assert (cert.choi_rank, cert.mu_rank) == (r + 1, 2 * r)
        base = cert.base_decomposition
        assert decompositions_equivalent(d, base) and decompositions_equivalent(base, d)
    assert calls == [[], []]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_certified_gap_rank_weyl_never_searches(p, count_calls):
    calls = _no_search_or_low_dim(count_calls)
    cert = certified_gap_rank(weyl_channel(p), 1)
    assert (cert.choi_rank, cert.mu_rank) == (p + 1, 2 * p)
    assert calls == [[], []]


# --------------------------------------------------- decomposition equivalence

def test_equivalence_under_phases():
    d = _paper_gap_decomposition()
    rng = np.random.default_rng(5)
    phased = MixedUnitaryDecomposition(
        d.probs, [np.exp(1j * t) * u for t, u in
                  zip(rng.uniform(0, 2 * np.pi, d.n_terms), d.unitaries)])
    assert decompositions_equivalent(d, phased)
    assert decompositions_equivalent(phased, d)


def test_equivalence_under_splitting():
    d = MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2), np.diag([1, -1])])
    split = MixedUnitaryDecomposition(
        [0.25, 0.25, 0.5],
        [np.eye(2), -np.eye(2), np.diag([1, -1])])
    assert decompositions_equivalent(d, split)


def test_equivalence_distinguishes_dephasing_decompositions():
    d1 = MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2), np.diag([1, -1])])
    d2 = MixedUnitaryDecomposition([0.5, 0.5],
                                   [np.diag([1, 1j]), np.diag([1, -1j])])
    # overlap oracle: |Tr(U* V)| = |1 +- i| = sqrt(2) < 2 for every pair
    for u in d1.unitaries:
        for v in d2.unitaries:
            assert abs(np.trace(dagger(u) @ v)) < 2 - 1e-6
    assert not decompositions_equivalent(d1, d2)
    # both decompose the same channel
    assert verify_decomposition(dephasing_channel(2), d1).ok
    assert verify_decomposition(dephasing_channel(2), d2).ok


def test_uniqueness_implies_equivalence_on_weyl():
    phi = weyl_channel(3)
    w = [a * np.sqrt(3) for a in phi.kraus]
    d1 = MixedUnitaryDecomposition([1 / 3] * 3, w)
    rng = np.random.default_rng(8)
    d2 = MixedUnitaryDecomposition(
        [1 / 3] * 3, [np.exp(1j * t) * u for t, u in
                      zip(rng.uniform(0, 2 * np.pi, 3), w)])
    assert verify_decomposition(phi, d1).ok and verify_decomposition(phi, d2).ok
    assert uniqueness_certificate(phi)
    assert decompositions_equivalent(d1, d2)


# -------------------------------------------------------- schur equivalence

def test_schur_equivalence_on_schur_channel():
    res = schur_equivalence_check(schur_channel(corr_B3()))
    assert res.equivalent and res.witnesses is not None
    u, v = res.witnesses
    phi = schur_channel(corr_B3())
    for k in range(3):
        d = np.zeros((3, 3), dtype=complex)
        d[k, k] = 1
        out = u @ phi(v @ d @ dagger(v)) @ dagger(u)
        assert np.linalg.norm(out - d) <= 1e-8


def test_schur_equivalence_random_unital_rank2():
    for seed in range(10):
        phi = random_unital_rank2(3 + seed % 3, seed=seed)
        res = schur_equivalence_check(phi)
        assert res.equivalent
        u, v = res.witnesses
        n = phi.dim_in
        # witnesses turn the channel into one fixing every diagonal matrix
        rng = np.random.default_rng(seed)
        d = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        out = u @ phi(v @ d @ dagger(v)) @ dagger(u)
        assert np.linalg.norm(out - d) <= 1e-7


@pytest.mark.parametrize("make", [lambda: schur_channel(corr_B3()),
                                  lambda: schur_channel(mub_correlation(3).matrix),
                                  lambda: random_unital_rank2(4, seed=2),
                                  lambda: random_channel(3, 3, 2, seed=5)],
                         ids=["B3", "mub3", "unital-rank2", "random"])
def test_diagonal_images_match_apply(make):
    # Phi(V E_kk V*) from the rank-one terms against the dense apply, for a
    # Haar V; no Schur structure is needed
    phi = make()
    n = phi.dim_in
    v = haar_unitary(n, seed=n)
    images = muchan.analysis._diagonal_images(phi, v)
    assert images.shape == (n, n, n)
    for k in range(n):
        want = apply(phi, np.outer(v[:, k], v[:, k].conj()))
        assert np.linalg.norm(images[k] - want) <= 1e-12 * np.linalg.norm(want)


def test_schur_equivalence_has_no_seed_option():
    # the joint eigenbasis draws from a generator seeded with 0
    with pytest.raises(TypeError):
        schur_equivalence_check(schur_channel(corr_B3()), seed=1)


@pytest.mark.parametrize("call, message", [
    (lambda: MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2)]),
     "probs and unitaries must be matching nonempty lists"),
    (lambda: MixedUnitaryDecomposition([0.0], [np.eye(2)]), "all weights vanish"),
    (lambda: muchan.analysis.decomposition_from_isometry(
        minimize_kraus(weyl_channel(3)), np.eye(3)[:, :2]),
     "isometry must have 3 columns, got (3, 2)"),
    (lambda: decompositions_equivalent(MixedUnitaryDecomposition([1.0], [np.eye(2)]),
                                       MixedUnitaryDecomposition([1.0], [np.eye(3)])),
     "decompositions have different dimensions"),
    (lambda: schur_equivalence_check(random_channel(2, 3, 2, seed=0)),
     "schur_equivalence_check requires a square channel"),
], ids=["probs_and_unitaries_differ", "all_weights_zero", "isometry_columns",
        "equivalent_across_dims", "schur_check_2_to_3"])
def test_analysis_refusals(call, message):
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_schur_equivalence_rejects_weyl():
    res = schur_equivalence_check(weyl_channel(3))
    assert not res.equivalent
    # commutator oracle: the operator-system basis contains genuinely
    # non-commuting elements
    assert res.max_commutator > 0.1


def test_schur_equivalence_invariant_under_conjugation():
    from muchan import KrausChannel, haar_unitary
    fixtures = [weyl_channel(3), schur_channel(corr_B3())]
    expected = [False, True]
    count = 0
    for phi, expect in zip(fixtures, expected):
        n = phi.dim_in
        for seed in range(500):
            u = haar_unitary(n, seed)
            v = haar_unitary(n, seed + 10_000)
            conj = KrausChannel([u @ a @ v for a in phi.kraus])
            res = schur_equivalence_check(conj, witnesses=False)
            assert res.equivalent == expect
            count += 1
    assert count == 1000


def test_appendix_commutation_identities_rank2():
    # all six commutators of {A_0*A_0, A_0*A_1, A_1*A_0, A_1*A_1} vanish
    # for unital rank-2 channels
    for seed in range(20):
        phi = random_unital_rank2(4, seed=seed + 100)
        a0, a1 = phi.kraus
        prods = [dagger(a0) @ a0, dagger(a0) @ a1, dagger(a1) @ a0, dagger(a1) @ a1]
        for i in range(4):
            for j in range(i + 1, 4):
                comm = prods[i] @ prods[j] - prods[j] @ prods[i]
                assert np.linalg.norm(comm) <= 1e-9


def _conjugated(phi, seed):
    w = haar_unitary(phi.dim_in, seed)
    return KrausChannel([w @ a @ dagger(w) for a in phi.kraus])


def _schur_equal_rows():
    # rows 0 and 3 of the factor agree, so every Kraus diagonal, and every
    # element of the operator system, has equal entries 0 and 3
    g = np.random.default_rng(2).standard_normal((3, 2)) + 0j
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g = np.vstack([g, g[:1]])
    return schur_channel(g @ dagger(g))


_REPEATED_JOINT = {
    "identity4": lambda: identity_channel(4),
    "dephasing4": lambda: _conjugated(dephasing_channel(4), 3),
    "schur_equal_rows": lambda: _conjugated(_schur_equal_rows(), 4),
}


@pytest.mark.parametrize("name", sorted(_REPEATED_JOINT))
def test_joint_eigenbasis_diagonalizes_commuting_family(name):
    # one eigh of one seeded combination diagonalizes every member, also
    # where joint eigenvalues repeat (identity: all; equal rows: two)
    phi = _REPEATED_JOINT[name]()
    family = muchan.analysis._hermitian_parts(channel_profile(phi).system.basis)
    v = muchan.analysis._joint_eigenbasis(family)
    assert np.linalg.norm(dagger(v) @ v - np.eye(phi.dim_in)) <= 1e-12
    for m in family:
        mv = dagger(v) @ m @ v
        assert np.linalg.norm(mv - np.diag(np.diag(mv))) <= 1e-12
    assert schur_equivalence_check(phi).witnesses is not None


@pytest.mark.parametrize("call", [
    lambda: certified_gap_rank(weyl_channel(3), 1),
    lambda: schur_equivalence_check(schur_channel(corr_B3())),
], ids=["certified_gap_rank", "schur_equivalence_check"])
def test_callers_refuse_a_basis_that_does_not_diagonalize(call, monkeypatch):
    # the helper checks nothing: a basis that leaves the family off-diagonal
    # fails the unitarity check of the remixed operators (certificate) or
    # the witness residual bound (Schur), each a NumericalError
    monkeypatch.setattr(muchan.analysis, "_joint_eigenbasis",
                        lambda mats: haar_unitary(len(mats[0]), 0))
    with pytest.raises(NumericalError, match="not unitary|witnesses missed"):
        call()


# ------------------------------------------- one-element commutator probe

def _pairwise_max_commutator(basis):
    """The all-pairs loop the one-element probe replaced: the reference."""
    max_comm = 0.0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            c = np.linalg.norm(basis[i] @ basis[j] - basis[j] @ basis[i])
            max_comm = max(max_comm, float(c))
    return max_comm


def _assert_probe_bound(probe, pairwise, s):
    # ||[B_i, T]|| <= sum_{j != i} |c_j| / ||c|| ||[B_i, B_j]||
    # <= sqrt(s - 1) max_ij ||[B_i, B_j]||, plus rounding
    assert 0.0 <= probe <= np.sqrt(s - 1) * pairwise + 1e-15


_ORACLE_CHANNELS = {
    "weyl3": lambda: weyl_channel(3),
    "weyl5": lambda: weyl_channel(5),
    "weyl7": lambda: weyl_channel(7),
    "gap3": lambda: gap_channel(3, 1),
    "dephasing4": lambda: dephasing_channel(4),
    "schurC4": lambda: schur_channel(corr_C4()),
    "rank2_dim3": lambda: random_unital_rank2(3, seed=0),
    "rank2_dim4": lambda: random_unital_rank2(4, seed=1),
    "rank2_dim5": lambda: random_unital_rank2(5, seed=2),
    "unitary": lambda: identity_channel(3),
    "s2": lambda: dephasing_channel(2),
}


# _CHUNK_BYTES sizes only verify_decomposition's product: the axis checks
# that the Schur probe passes the same checks under any budget.
@pytest.mark.parametrize("chunk_bytes", [None, 1, 1 << 30],
                         ids=["default", "one_row", "one_chunk"])
@pytest.mark.parametrize("name", sorted(_ORACLE_CHANNELS))
def test_batched_commutator_matches_pairwise_oracle(name, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(muchan.analysis, "_CHUNK_BYTES", chunk_bytes)
    phi = _ORACLE_CHANNELS[name]()
    basis = operator_system(minimize_kraus(phi)).basis
    want = _pairwise_max_commutator(basis)
    res = schur_equivalence_check(phi, witnesses=False)
    assert res.equivalent == (want <= 1e-9)
    _assert_probe_bound(res.max_commutator, want, len(basis))
    if name in ("unitary", "s2", "dephasing4"):
        assert res.max_commutator == 0.0
    if name == "unitary":
        assert len(basis) == 1
    if name == "s2":
        assert len(basis) == 2


def test_batched_commutator_on_noncommuting_pair():
    # an orthonormal basis with s = 2 that does not commute: ||[X, Z]|| / 2
    # = sqrt(2), and T = (c_0 X + c_1 Z) / (sqrt(2) ||c||) gives the probe
    # sqrt(2) max_i |c_i| / ||c||
    x = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
    z = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)
    got = muchan.analysis._max_commutator((x, z))
    c = np.random.default_rng(0).standard_normal(2)
    assert got > 0.0
    assert abs(got - np.sqrt(2) * np.abs(c).max() / np.linalg.norm(c)) <= 1e-15
    _assert_probe_bound(got, _pairwise_max_commutator((x, z)), 2)


def _tilted_family(seed, delta):
    """Three unitaries exp(i(D_k + delta H)) at random weights in dim 8:
    diagonal D_k, one off-diagonal unit-norm Hermitian H.  s = 7 for every
    delta, and the pairwise commutators of the basis grow linearly in delta."""
    rng = np.random.default_rng(seed)
    n = 8
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = h + dagger(h)
    h -= np.diag(np.diag(h))
    h /= np.linalg.norm(h)
    kraus = []
    for p, d in zip(rng.dirichlet(np.ones(3)), rng.uniform(-np.pi, np.pi, (3, n))):
        w, v = np.linalg.eigh(np.diag(d) + delta * h)
        kraus.append(np.sqrt(p) * (v * np.exp(1j * w)) @ dagger(v))
    return KrausChannel(kraus)


@pytest.mark.parametrize("level", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("seed", range(5))
def test_probe_near_threshold(seed, level):
    # delta is set so that the pairwise oracle reads level * eps_eq.  At
    # 0.1x and 10x the probe decides as the oracle.  At 1x the oracle sits
    # on its own threshold and decides by rounding; the probe reads
    # 0.83-0.95 x eps_eq on these families and calls them commuting.
    eps = DEFAULT_TOL.eps_eq
    delta0 = 1e-6
    basis = channel_profile(_tilted_family(seed, delta0)).system.basis
    slope = _pairwise_max_commutator(basis) / delta0
    profile = channel_profile(_tilted_family(seed, level * eps / slope))
    basis = profile.system.basis
    want = _pairwise_max_commutator(basis)
    assert profile.s == 7
    assert abs(want / (level * eps) - 1.0) <= 1e-2
    res = schur_equivalence_check(profile, witnesses=False)
    _assert_probe_bound(res.max_commutator, want, profile.s)
    assert res.equivalent == (level <= 1.0)
    if level != 1.0:
        assert res.equivalent == (want <= eps)


# ------------------------------------------------ one computation per call

def test_certified_gap_rank_builds_operator_system_once(count_calls):
    systems = count_calls(muchan.channels, "_operator_system")
    commutators = count_calls(muchan.analysis, "_max_commutator")
    cert = certified_gap_rank(weyl_channel(3), 1)
    assert (cert.choi_rank, cert.mu_rank) == (4, 6)
    assert len(systems) == 1
    assert commutators == []


def test_rank_bounds_builds_each_once(count_calls):
    # weyl(3) has s = 7 > n = 3, which decides "not Schur-equivalent" with no
    # commutator probe; schur(C4) (s = 3 <= n = 4) takes one probe
    systems = count_calls(muchan.channels, "_operator_system")
    commutators = count_calls(muchan.analysis, "_max_commutator")
    b = rank_bounds(weyl_channel(3))
    assert not b.schur_equivalent
    assert len(systems) == 1
    assert commutators == []
    b = rank_bounds(schur_channel(corr_C4()))
    assert b.schur_equivalent
    assert len(systems) == 2
    assert len(commutators) == 1


def _conjugated(phi, seed):
    """U A_k V for Haar U, V: unitarily equivalent to ``phi``."""
    u, v = haar_unitary(phi.dim_in, seed), haar_unitary(phi.dim_in, seed + 1)
    return KrausChannel([u @ a @ v for a in phi.kraus])


def _mixed_haar(n, r, seed):
    """Equal mixture of r Haar unitaries on M_n."""
    return KrausChannel([haar_unitary(n, seed + k) / np.sqrt(r) for k in range(r)])


SCHUR_FLAG_CASES = {
    **{f"schur{n}_rank{k}_seed{seed}": _conjugated(
        schur_channel(random_correlation(n, k, seed=seed)), seed)
       for n, k in ((3, 2), (3, 3), (4, 3), (5, 4)) for seed in range(3)},
    "schur_C4": schur_channel(corr_C4()),
    **{f"mixed_haar8_rank3_seed{seed}": _mixed_haar(8, 3, seed) for seed in range(3)},
    **{f"random4_rank2_seed{seed}": random_channel(4, 4, 2, seed=seed) for seed in range(3)},
    "weyl3": weyl_channel(3),
    "gap3_1": gap_channel(3, 1),
    "mixed_haar3_rank3": _mixed_haar(3, 3, 0),
}


@pytest.mark.parametrize("name", sorted(SCHUR_FLAG_CASES))
def test_schur_flag_matches_probe(name):
    # the dimension rule (s > n: not Schur-equivalent) agrees with the
    # commutator probe: on Schur channels, on channels that are not Schur
    # but have s <= n (the probe decides those), and where s > n decides
    profile = channel_profile(SCHUR_FLAG_CASES[name])
    flag = muchan.analysis.schur_equivalent(profile)
    probe = schur_equivalence_check(profile, witnesses=False).equivalent
    assert flag == probe == name.startswith("schur")
    if name.startswith(("schur", "mixed_haar8", "random4")):
        assert profile.s <= profile.minimal.dim_in
    else:
        assert profile.s > profile.minimal.dim_in
