"""ChannelProfile: one minimal Kraus list and one operator system per
channel and tolerance, taken by every entry point that reads r and s."""
import numpy as np
import pytest

import muchan
import muchan.analysis
import muchan.channels
import muchan.io
import muchan.linalg
from muchan import (ChannelProfile, KrausChannel, SearchConfig, Tolerance,
                    ValidationError, certified_gap_rank, channel_profile,
                    choi_of, complementary, decompose_low_dim, murank_search,
                    numerical_rank, operator_system, rank_bounds, schur_equivalence_check,
                    toroidal_decompose_small, uniqueness_certificate,
                    verify_decomposition)
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
    assert len(phi) == 6 and len(p.minimal) == p.r == 3 == numerical_rank(choi_of(phi))
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
# never converts to or from a Choi matrix: choi_of and kraus_from_choi are
# for Choi-matrix input and output, and kraus_from_choi's eigh follows the
# same rule (_kraus_from_spectrum).
# No decomposition path builds a complementary channel: the search reads its
# traceless image off the profile's SVD, and the low-dimension path applies
# Psi from the minimal list.  Every decomposition computed from a channel is
# read by decomposition_from_isometry.

def _counters(count_calls):
    return {"minimize": count_calls(muchan.channels, "minimize_kraus"),
            "system": count_calls(muchan.channels, "_operator_system"),
            "complementary": count_calls(muchan.channels, "complementary"),
            "choi": count_calls(muchan.channels, "choi_of"),
            "choi_kraus": count_calls(muchan.channels, "kraus_from_choi"),
            "reader": count_calls(muchan.analysis, "decomposition_from_isometry")}


def _counts(counters):
    return {k: len(v) for k, v in counters.items()}


def _counting_svd(monkeypatch):
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    return svds


def test_murank_search_counts(count_calls, monkeypatch):
    # one profile: one minimize_kraus and the operator system's SVD, which
    # also gives the search basis; the reader takes the minimal list.  That
    # SVD is one batched call per block shape of the product rows: gap(3,1)
    # has three 3x3 Weyl blocks and the 1x1 identity corner, so two calls.
    # The search basis adds one small SVD of the image basis's Hermitian
    # parts, which makes it Hermitian; it is built once for the profile and
    # serves every candidate size.  Unitality is decided once, in rank_bounds,
    # not again for each size
    c = _counters(count_calls)
    svds = _counting_svd(monkeypatch)
    is_unital, unital = KrausChannel.is_unital, []
    monkeypatch.setattr(KrausChannel, "is_unital",
                        lambda self, *a: unital.append(1) or is_unital(self, *a))
    rep = murank_search(gap_channel(3, 1), SearchConfig(restarts=2))
    assert _counts(c) == {"minimize": 1, "system": 1, "complementary": 0,
                          "choi": 0, "choi_kraus": 0, "reader": 1}
    assert len(svds) == 2 + 1
    assert len(unital) == 1
    shapes = channel_profile(gap_channel(3, 1)).system.block_shapes
    assert shapes == ((1, 1), (3, 3), (3, 3), (3, 3))
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


# Unitarity is decided once per term and tolerance: the reader's bound
# (defect <= eps_eq) implies the constructor's, and a verification under the
# tolerance a decomposition was validated under does not decide it again.

def test_certified_gap_rank_unitarity_checks(count_calls):
    # is_unital, the reader (base terms), and the trace-preservation checks
    # of direct_sum and identity_channel; U (+) +-I is unitary within the
    # reader's decision on U, so the gap terms are not decided again
    phi = weyl_channel(11)
    defects = count_calls(muchan.linalg, "unitarity_defect")
    certified_gap_rank(phi, 1)
    assert len(defects) == 4


def test_toroidal_decompose_small_unitarity_checks(count_calls):
    # the Schur channel's constructor, is_unital and the reader; the
    # phase-fixed terms of decompose_low_dim are not decided again
    defects = count_calls(muchan.linalg, "unitarity_defect")
    toroidal_decompose_small(corr_B3())
    assert len(defects) == 3


def test_load_and_verify_unitarity_checks(count_calls, tmp_path):
    phi = weyl_channel(11)
    summed = muchan.channels.direct_sum(phi, muchan.channels.identity_channel(1))
    path = str(tmp_path / "d.json")
    muchan.io.save(certified_gap_rank(phi, 1).decomposition, path)
    defects = count_calls(muchan.linalg, "unitarity_defect")
    d = muchan.io.load_decomposition(path)
    assert verify_decomposition(summed, d).ok
    assert len(defects) == 1  # the constructor's; verify under the same tol adds none
    assert verify_decomposition(summed, d, Tolerance(eps_eq=2e-9)).ok
    assert len(defects) == 2  # another tol decides the invariants again


def test_minimize_kraus_builds_nothing_for_a_minimal_list(count_calls):
    phi = weyl_channel(7)
    built = count_calls(muchan.channels, "_kraus_from_spectrum")
    assert muchan.channels.minimize_kraus(phi) is phi
    assert built == []
    assert len(muchan.channels.minimize_kraus(_doubled_weyl3())) == 3
    assert len(built) == 1
