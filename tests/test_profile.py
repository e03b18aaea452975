"""ChannelProfile: one minimal Kraus list and one operator system per
channel and tolerance, taken by every entry point that reads r and s."""
import numpy as np
import pytest

import muchan
import muchan.analysis
import muchan.channels
from muchan import (ChannelProfile, KrausChannel, SearchConfig, Tolerance,
                    ValidationError, certified_gap_rank, channel_profile,
                    choi_of, complementary, decompose_low_dim, murank_search,
                    operator_system, rank_bounds, schur_equivalence_check,
                    toroidal_decompose_small, uniqueness_certificate)
from muchan.gallery import corr_B3, gap_channel, random_unital_rank2, weyl_channel


def _doubled_weyl3():
    """weyl(3) with every Kraus operator listed twice at half weight."""
    return KrausChannel([a / np.sqrt(2) for a in weyl_channel(3).kraus] * 2)


def test_profile_reads_r_and_s():
    p = channel_profile(weyl_channel(3))
    assert isinstance(p, ChannelProfile)
    assert (p.r, p.s) == (3, 7)
    assert p.tol == muchan.DEFAULT_TOL


def test_profile_minimizes_once(count_calls):
    c = _counters(count_calls)
    phi = _doubled_weyl3()
    p = channel_profile(phi)
    assert _counts(c) == {"minimize": 1, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 0}
    assert len(phi) == 6 and len(p.minimal) == p.r == 3 == choi_of(phi).rank()
    assert p.s == 7


def test_profile_passes_through_under_same_tol():
    p = channel_profile(weyl_channel(3))
    assert channel_profile(p) is p
    assert channel_profile(p, Tolerance()) is p  # equal, not identical, tol


def test_profile_refuses_other_tol():
    p = channel_profile(weyl_channel(3))
    other = Tolerance(eps_rank=1e-8)
    with pytest.raises(ValidationError):
        channel_profile(p, other)
    for entry in (rank_bounds, uniqueness_certificate, schur_equivalence_check,
                  decompose_low_dim):
        with pytest.raises(ValidationError):
            entry(p, other)


def test_profile_is_immutable():
    p = channel_profile(weyl_channel(3))
    with pytest.raises(AttributeError):
        p.tol = Tolerance(eps_rank=1e-8)


def test_public_builders_match_profile():
    # a non-minimal list: the public functions minimize first, as the
    # profile does, and build from the same minimal list
    phi = _doubled_weyl3()
    p = channel_profile(phi)
    sys_ = operator_system(phi)
    assert sys_.s == p.s
    assert all(np.array_equal(a, b) for a, b in zip(sys_.basis, p.system.basis))
    psi, psi_p = complementary(phi), complementary(p)
    assert len(psi) == len(psi_p)
    assert all(np.array_equal(a, b) for a, b in zip(psi.kraus, psi_p.kraus))


@pytest.mark.parametrize("make", [lambda: weyl_channel(3), lambda: gap_channel(3, 1),
                                  lambda: random_unital_rank2(3, seed=0), _doubled_weyl3],
                         ids=["weyl3", "gap3_1", "rank2", "doubled_weyl3"])
def test_entry_points_accept_profile(make):
    phi = make()
    p = channel_profile(phi)
    assert rank_bounds(p) == rank_bounds(phi)
    assert uniqueness_certificate(p) == uniqueness_certificate(phi)
    a, b = schur_equivalence_check(p), schur_equivalence_check(phi)
    assert (a.equivalent, a.max_commutator) == (b.equivalent, b.max_commutator)


def test_certified_gap_rank_accepts_profile():
    phi = random_unital_rank2(3, seed=2)
    a, b = certified_gap_rank(channel_profile(phi), 1), certified_gap_rank(phi, 1)
    assert (a.choi_rank, a.mu_rank) == (b.choi_rank, b.mu_rank) == (3, 4)
    assert np.array_equal(a.decomposition.probs, b.decomposition.probs)
    assert all(np.array_equal(u, v) for u, v in
               zip(a.decomposition.unitaries, b.decomposition.unitaries))


# ------------------------------------------------------ per-call counts
# Every Kraus-input path decides r with minimize_kraus (one Gram eigh) and
# never builds a Choi matrix: choi_of and minimal_kraus are for Choi input.
# No decomposition path builds a complementary channel: the search reads its
# traceless image off the profile's SVD, and the low-dimension path applies
# Psi from the minimal list.  Every decomposition computed from a channel is
# read by decomposition_from_isometry.

def _counters(count_calls):
    return {"minimize": count_calls(muchan.channels, "minimize_kraus"),
            "system": count_calls(muchan.channels, "_operator_system"),
            "complementary": count_calls(muchan.channels, "complementary"),
            "choi": count_calls(muchan.channels, "choi_of"),
            "choi_kraus": count_calls(muchan.channels, "minimal_kraus"),
            "reader": count_calls(muchan.analysis, "decomposition_from_isometry")}


def _counts(counters):
    return {k: len(v) for k, v in counters.items()}


def _counting_svd(monkeypatch):
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    return svds


def test_murank_search_counts(count_calls, monkeypatch):
    # one profile: one minimize_kraus and one SVD (the operator system's),
    # which also gives the search basis; the reader takes the minimal list
    c = _counters(count_calls)
    svds = _counting_svd(monkeypatch)
    rep = murank_search(gap_channel(3, 1), SearchConfig(restarts=2))
    assert _counts(c) == {"minimize": 1, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}
    assert len(svds) == 1
    assert [res.n_terms for res in rep.results] == [4, 5, 6]  # one profile, three sizes


def test_decompose_low_dim_counts(count_calls, monkeypatch):
    # one profile (one minimize_kraus, the operator-system SVD) and the SVD
    # of the traceless Hermitian directions
    c = _counters(count_calls)
    svds = _counting_svd(monkeypatch)
    decompose_low_dim(random_unital_rank2(3, seed=1))
    assert _counts(c) == {"minimize": 1, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}
    assert len(svds) == 2


def test_certified_gap_rank_counts_low_dim(count_calls):
    # profile and the direct sum's Choi rank; one reader call for the
    # closed-form rank-r decomposition, no complementary channel
    c = _counters(count_calls)
    certified_gap_rank(random_unital_rank2(3, seed=2), 1)
    assert _counts(c) == {"minimize": 2, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}


def test_certified_gap_rank_counts_weyl(count_calls):
    c = _counters(count_calls)
    certified_gap_rank(weyl_channel(5), 1)
    assert _counts(c) == {"minimize": 2, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}


def test_toroidal_decompose_small_counts(count_calls, monkeypatch):
    c = _counters(count_calls)
    svds = _counting_svd(monkeypatch)
    toroidal_decompose_small(corr_B3())
    assert _counts(c) == {"minimize": 1, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}
    assert len(svds) == 2
