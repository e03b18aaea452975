"""decomposition_from_isometry is the one reader of decompositions: the
closed-form rank-r, low-dimension and search paths all go through it.  The
low-dimension path runs on the profile alone, bit for bit as it ran on a
complementary channel."""
import numpy as np
import pytest

import muchan.analysis
import muchan.constructive
import muchan.search
from muchan import (KrausChannel, MixedUnitaryDecomposition, MuchanError,
                    NumericalError, ToroidalDecomposition, Tolerance, apply,
                    channel_profile, complementary, decompose_low_dim,
                    decomposition_from_isometry, decompositions_equivalent,
                    identity_channel, minimize_kraus, schur_channel,
                    toroidal_decompose_small, toroidal_from_decomposition,
                    verify_decomposition, zero_diagonal_unitary)
from muchan.analysis import _rank_r_decomposition
from muchan.constructive import _phase_fix_first_entry
from muchan.gallery import corr_B3, random_correlation, random_unital_rank2, weyl_channel
from muchan.linalg import dagger, haar_unitary, unitarity_defect, unvec, vec
from muchan.tolerances import DEFAULT_TOL
from seeded import seeded


# ------------------------------------------------- oracles: the old readers

def _proportional_unitary_decomposition(phi, tol):
    """The former V = I reader of certified_gap_rank: the minimal list
    itself, if every operator is a multiple of a unitary; else None."""
    n = phi.dim_in
    probs, us = [], []
    for a in phi.kraus:
        p = float(np.linalg.norm(a) ** 2 / n)
        if p <= tol.eps_eq:
            return None
        u = a / np.sqrt(p)
        if unitarity_defect(u) > tol.eps_eq * max(1.0, np.sqrt(n)):
            return None
        probs.append(p)
        us.append(u)
    if abs(sum(probs) - 1.0) > max(tol.eps_eq, len(probs) * 1e-15):
        return None
    return MixedUnitaryDecomposition(probs, us, tol)


def _old_low_dim_loop(phi, u, tol):
    """The low-dimension path's former reader of the zero-diagonal unitary."""
    n, r = phi.dim_in, len(phi.kraus)
    remixed = [sum(u[k, j] * phi.kraus[j] for j in range(r)) for k in range(r)]
    probs, us = [], []
    for k, b in enumerate(remixed):
        p = float(np.linalg.norm(b) ** 2 / n)
        uk = b / np.sqrt(p)
        defect = np.linalg.norm(dagger(uk) @ uk - np.eye(n))
        if defect > 1e-8 * max(1.0, np.sqrt(n)):
            raise NumericalError(
                f"remixed Kraus operator {k} is not unitary: defect {defect:.3e}")
        probs.append(p)
        us.append(_phase_fix_first_entry(uk))
    return MixedUnitaryDecomposition(probs, us, tol)


@pytest.fixture
def zero_diag_unitaries(monkeypatch):
    """The unitaries decompose_low_dim gets from zero_diagonal_unitary."""
    seen = []
    inner = muchan.constructive.zero_diagonal_unitary

    def recording(z, tol=DEFAULT_TOL):
        seen.append(inner(z, tol))
        return seen[-1]

    monkeypatch.setattr(muchan.constructive, "zero_diagonal_unitary", recording)
    return seen


def _assert_close(d, ref):
    assert d.n_terms == ref.n_terms
    assert np.max(np.abs(d.probs - ref.probs)) <= 1e-14
    assert np.max(np.abs(np.array(d.unitaries) - np.array(ref.unitaries))) <= 1e-14


_CHANNELS = ([(f"weyl{p}", "rank_r", lambda p=p: weyl_channel(p)) for p in (3, 5, 7, 11)]
             + [(f"rank2_{s}", "rank_r", lambda s=s: random_unital_rank2(3, s))
                for s in range(5)]
             + [(f"corr{s}", "low_dim",
                 lambda s=s: schur_channel(random_correlation(3, 2 + s % 2, s)))
                for s in range(25)])


@pytest.mark.parametrize("path, make", [(p, m) for _, p, m in _CHANNELS],
                         ids=[i for i, _, _ in _CHANNELS])
def test_reader_matches_old_readers(path, make, zero_diag_unitaries):
    profile = channel_profile(make())
    if path == "low_dim":
        # s <= 3: decompose_low_dim reads its zero-diagonal unitary bit for
        # bit as the old loop did
        d = decompose_low_dim(profile)
        assert len(zero_diag_unitaries) == 1
        _assert_close(d, _old_low_dim_loop(profile.minimal, zero_diag_unitaries[0],
                                           DEFAULT_TOL))
        return
    # s = r^2 - r + 1: the closed form gives the old paths' decomposition
    # (weyl: the V = I reader, rank 2: the low-dimension construction)
    d = _rank_r_decomposition(profile, DEFAULT_TOL)
    assert zero_diag_unitaries == []
    check = verify_decomposition(profile.minimal, d)
    assert d.n_terms == profile.r and check.ok and check.choi_residual <= 1e-14
    ref = _proportional_unitary_decomposition(profile.minimal, DEFAULT_TOL)
    if ref is not None:  # a list of scaled unitaries comes back as itself
        _assert_close(d, ref)
    else:
        ref = decompose_low_dim(profile)
    assert decompositions_equivalent(d, ref) and decompositions_equivalent(ref, d)


def test_reader_lives_in_analysis_and_keeps_its_old_names():
    reader = muchan.analysis.decomposition_from_isometry
    assert reader.__module__ == "muchan.analysis"
    assert muchan.decomposition_from_isometry is reader
    assert muchan.search.decomposition_from_isometry is reader


# ------------------------------------------- round trip from a decomposition

def _round_trip_case(rng):
    # n in 1..3, 1..n^2 weights in [0.05, 1], a 32-bit seed
    n = int(rng.integers(1, 4))
    weights = rng.uniform(0.05, 1.0, rng.integers(1, n * n + 1)).tolist()
    return n, weights, int(rng.integers(2 ** 32))


# committed: a repeated weight and a weight at the range's end, kept from the
# inputs the test drew before it was seeded
@pytest.mark.parametrize("n, weights, seed", seeded(_round_trip_case, 60) + [
    pytest.param(2, [0.4233564121575875, 0.35732949113344364, 0.5, 0.5], 398, id="repeated"),
    pytest.param(2, [0.5427863278330446, 1.0, 0.33706397994458803], 237358, id="at_end")])
def test_reader_round_trip(n, weights, seed):
    # weights and Haar unitaries -> their minimal Kraus list A -> the V with
    # sqrt(p_k) U_k = sum_i V(k, i) A_i -> the same decomposition back
    probs = np.array(weights) / sum(weights)
    us = [haar_unitary(n, seed + k) for k in range(len(probs))]
    d_in = MixedUnitaryDecomposition(probs, us)
    a = minimize_kraus(d_in.to_channel())
    rows_a = a.stacked().reshape(len(a.kraus), -1)
    rows_u = np.array([np.sqrt(p) * u.reshape(-1) for p, u in zip(probs, us)])
    v = rows_u @ np.linalg.pinv(rows_a)
    d = decomposition_from_isometry(a, v)
    assert decompositions_equivalent(d_in, d)
    assert d.n_terms == d_in.n_terms
    assert np.max(np.abs(d.probs - probs)) <= 1e-12


# ------------------------------------------------ strict default, search slack

def test_reader_strict_by_default_slack_on_request():
    # an isometry 1e-7 away from I remixes weyl(3)'s unitaries into
    # operators whose defect (~1e-7) lies between the two bounds
    phi = weyl_channel(3)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w, q = np.linalg.eigh((g + dagger(g)) / 2)
    v = q @ np.diag(np.exp(1e-7j * w / np.abs(w).max())) @ dagger(q)
    assert np.linalg.norm(dagger(v) @ v - np.eye(3)) <= 1e-9  # passes as an isometry
    with pytest.raises(NumericalError, match="remixed operator"):
        decomposition_from_isometry(phi, v)
    d = decomposition_from_isometry(phi, v, Tolerance(eps_eq=1e-6))
    assert d.n_terms == 3
    cs = np.tensordot(v, phi.stacked(), axes=(1, 0))
    defect = max(unitarity_defect(c * np.sqrt(3) / np.linalg.norm(c)) for c in cs)
    assert 1e-9 < defect < 1e-6


# ------------------------------------------------------------- fragile band

def test_low_dim_refuses_weight_at_eps_eq():
    # [sqrt(1-e) I, sqrt(e) Z] at e = eps_eq: r = 2, but the second weight
    # is dropped, so the construction refuses instead of returning 1 term
    e = 1e-9
    z = np.diag([1.0, -1.0])
    phi = KrausChannel([np.sqrt(1 - e) * np.eye(2), np.sqrt(e) * z])
    assert channel_profile(phi).r == 2
    with pytest.raises(NumericalError, match="kept 1 of 2 terms"):
        decompose_low_dim(phi)


@pytest.mark.parametrize("e", [5e-10, 9e-10, 1e-9, 1.1e-9, 2e-9, 1e-8])
def test_low_dim_never_returns_fewer_than_r_terms(e):
    z = np.diag([1.0, -1.0])
    phi = KrausChannel([np.sqrt(1 - e) * np.eye(2), np.sqrt(e) * z])
    try:
        d = decompose_low_dim(phi)
    except NumericalError:
        return
    assert d.n_terms == channel_profile(phi).r



# ---------------------------------- oracle: the complementary-channel build

def _old_low_dim(phi, tol=DEFAULT_TOL):
    """decompose_low_dim as built on a complementary channel: Psi by
    ``complementary`` (a second minimize_kraus), the traceless Hermitian
    directions one basis element at a time through vec/unvec, and Psi(H),
    Psi(K) by ``apply``; the result verified against the channel as given.
    For s <= 3 only."""
    profile = channel_profile(phi, tol)
    given = profile.minimal if phi is profile else phi
    phi, n, r = profile.minimal, profile.minimal.dim_in, profile.r
    psi = complementary(profile, tol)
    dirs = []
    if profile.s > 1:
        cands = []
        for b in profile.system.basis:
            c = b - (np.trace(b) / n) * np.eye(n, dtype=complex)
            for h in ((c + dagger(c)) / 2, (c - dagger(c)) / 2j):
                if np.linalg.norm(h) > 1e-13:
                    cands.append(h)
        x = np.array([np.concatenate([vec(h).real, vec(h).imag]) for h in cands])
        vh = np.linalg.svd(x, full_matrices=False)[2]
        dirs = [unvec(w[:n * n] + 1j * w[n * n:], n, n) for w in vh[:profile.s - 1]]
    zmat = np.zeros((r, r), dtype=complex)
    for coeff, h in zip((1, 1j), dirs):
        zmat = zmat + coeff * apply(psi, h)
    d = decomposition_from_isometry(phi, zero_diagonal_unitary(zmat, tol), tol)
    if d.n_terms < r:
        raise NumericalError(
            f"low-dimension construction kept {d.n_terms} of {r} terms (weight <= eps_eq)")
    d = MixedUnitaryDecomposition(
        d.probs, [_phase_fix_first_entry(u) for u in d.unitaries], tol)
    check = verify_decomposition(given, d, tol)
    if not check.ok:
        raise NumericalError(
            f"low-dimension decomposition failed verification: residual {check.choi_residual:.3e}")
    return d


def _outcome(make):
    """("ok", probs, terms) as bytes, or the error's type and message."""
    try:
        d = make()
    except MuchanError as exc:
        return type(exc).__name__, str(exc)
    terms = d.vectors if isinstance(d, ToroidalDecomposition) else d.unitaries
    return "ok", d.probs.tobytes(), np.array(terms).tobytes()


# the correlation matrices of _CHANNELS' low-dimension entries
_CORRELATIONS = [random_correlation(3, 2 + s % 2, s) for s in range(25)]
_E_BAND = np.geomspace(1e-11, 1e-7, 45)  # [sqrt(1-e) I, sqrt(e) Z] around eps_eq
_LOW_DIM = ([(f"corr{s}", lambda s=s: schur_channel(_CORRELATIONS[s])) for s in range(25)]
            + [(f"rank2_n{n}_{s}", lambda n=n, s=s: random_unital_rank2(n, s))
               for n in (2, 3) for s in range(5)]
            + [("corrB3", lambda: schur_channel(corr_B3())),
               ("identity3", lambda: identity_channel(3))]
            + [(f"eband{i}", lambda e=e: KrausChannel([np.sqrt(1 - e) * np.eye(2),
                                                       np.sqrt(e) * np.diag([1.0, -1.0])]))
               for i, e in enumerate(_E_BAND)])


@pytest.mark.parametrize("make", [m for _, m in _LOW_DIM], ids=[i for i, _ in _LOW_DIM])
def test_low_dim_bitwise_equals_complementary_build(make):
    # the profile-only build gives the same weights and unitaries bit for
    # bit, or the same refusal
    phi = make()
    assert _outcome(lambda: decompose_low_dim(phi)) == _outcome(lambda: _old_low_dim(phi))


@pytest.mark.parametrize("c", _CORRELATIONS + [corr_B3()]
                         + [random_correlation(2, 2, s) for s in range(5)])
def test_toroidal_small_bitwise_equals_complementary_build(c):
    want = _outcome(lambda: toroidal_from_decomposition(_old_low_dim(schur_channel(c))))
    assert _outcome(lambda: toroidal_decompose_small(c)) == want


def test_e_band_holds_a_refusal():
    # both outcomes occur in the band, so the oracle compares refusals too
    kinds = {_outcome(lambda: decompose_low_dim(make()))[0]
             for name, make in _LOW_DIM if name.startswith("eband")}
    assert kinds == {"ok", "NumericalError"}
