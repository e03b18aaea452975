"""Property tests of the Kraus-list paths against the Choi-matrix code they
replace.  The reference functions below are copies of the old paths: the
Choi eigendecomposition for minimization, the Choi residual for
verification, the basis-matrix loop for the traceless image and the
per-operator sums of the trace-preservation, unital and unitarity checks."""
import numpy as np
import pytest

from muchan import (DEFAULT_TOL, KrausChannel, MixedUnitaryDecomposition, NumericalError,
                    ValidationError, certified_gap_rank, channel_profile, choi_of,
                    complementary, dagger, decomposition_from_isometry, haar_isometry,
                    haar_unitary, kraus_from_choi, minimize_kraus, schur_channel,
                    traceless_image_basis, verify_decomposition, vec)
from muchan.channels import _stack_defect
from muchan.gallery import (corr_B3, corr_C4, gap_channel, random_channel,
                            random_unital_rank2, weyl_channel, wh_antisym_decomposition,
                            wh_channels, wh_sym3_decomposition, wh_sym_even_decomposition,
                            wh_sym_odd_decomposition)
from muchan.linalg import unitarity_defect
from seeded import seeded


def _old_residual(phi, d):
    j = choi_of(phi)
    vecs = np.array([vec(u) for u in d.unitaries])
    jd = np.einsum("k,ki,kj->ij", d.probs, vecs, vecs.conj())
    return float(np.linalg.norm(j - jd) / np.linalg.norm(j))


def _old_traceless_image_basis(psi, eps_rank=1e-9):
    n, r = psi.dim_in, psi.dim_out
    mats = []
    for j in range(n):
        for k in range(n):
            if j != k:
                e = np.zeros((n, n), dtype=complex)
                e[j, k] = 1
                mats.append(e)
    for l in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        e[l, l], e[l + 1, l + 1] = 1, -1
        mats.append(e / np.sqrt(2))
    if not mats:
        return np.zeros((0, r, r), dtype=complex)
    rows = np.array([vec(psi(x)) for x in mats])
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    # the one addition to the old loop: an image at roundoff level is zero
    # (the old loop kept the roundoff and raised NumericalError)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    if sv[0] <= eps_rank * np.linalg.norm([psi(x) for x in units]):
        return np.zeros((0, r, r), dtype=complex)
    keep = int(np.count_nonzero(sv > eps_rank * sv[0]))
    return vh[:keep].reshape(keep, r, r)


def _projector(basis):
    v = basis.reshape(len(basis), basis.shape[1] ** 2)
    return v.T @ v.conj()


def _seed(rng):
    return int(rng.integers(2 ** 32))


def _channel_spec(rng):
    """(n, m, k, seed) of a random channel n -> m with Kraus rank k, n and m
    in 1..4, k from the least that trace preservation allows up to 4."""
    n, m = (int(x) for x in rng.integers(1, 5, size=2))
    k = int(rng.integers(-(-n // m), min(n * m, 4) + 1))
    return n, m, k, _seed(rng)


def _channel(spec):
    n, m, k, seed = spec
    return random_channel(n, m, k, seed=seed)


# ------------------------------------------------------------ minimize_kraus

def _minimize_case(rng):
    # a channel, 0..3 extra operators and 0..2 zero operators
    return _channel_spec(rng), int(rng.integers(4)), int(rng.integers(3)), _seed(rng)


# Committed cases here and below: (n, m, k) shapes that the seeded cases
# miss, kept from the inputs these tests drew before they were seeded.
@pytest.mark.parametrize("spec, extra, zeros, seed", seeded(_minimize_case, 60) + [
    pytest.param((1, 4, 1, 4170), 0, 0, 4170, id="n1m4k1"),
    pytest.param((1, 4, 4, 720), 2, 1, 116, id="n1m4k4"),
    pytest.param((2, 2, 1, 16868), 0, 0, 2028, id="n2m2k1"),
    pytest.param((2, 2, 2, 46), 2, 2, 2 ** 32, id="n2m2k2"),
    pytest.param((2, 4, 1, 327), 2, 2, 2719, id="n2m4k1"),
    pytest.param((4, 2, 4, 224), 3, 1, 4631520, id="n4m2k4"),
    pytest.param((4, 4, 1, 384), 3, 2, 0, id="n4m4k1")])
def test_minimize_kraus_matches_choi_path(spec, extra, zeros, seed):
    phi = _channel(spec)
    # remix the list by a Haar isometry onto more operators, then pad zeros
    k = len(phi)
    v = haar_isometry(k + extra, k, seed)
    ops = list(np.tensordot(v, phi.stacked(), axes=(1, 0)))
    ops += [np.zeros_like(ops[0])] * zeros
    listed = KrausChannel(ops)
    got = minimize_kraus(listed)
    want = kraus_from_choi(choi_of(listed), listed.dim_in, listed.dim_out)
    assert len(got) == len(want) == k
    assert np.linalg.norm(choi_of(got) - choi_of(want)) <= 1e-12


# ------------------------------------------------------- verify_decomposition

def _decomposition(spec):
    """``terms`` Haar unitaries on C^n with Dirichlet weights, from ``seed``."""
    n, terms, seed = spec
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(terms))
    us = [haar_unitary(n, _seed(rng)) for _ in range(terms)]
    return MixedUnitaryDecomposition(probs, us)


_SHIFTS = [0.0, 1e-9, 1e-3, 0.5]


def _verify_case(rng):
    # n and the number of terms in 1..4, one of the weight shifts
    n, terms = (int(x) for x in rng.integers(1, 5, size=2))
    return (n, terms, _seed(rng)), _SHIFTS[rng.integers(len(_SHIFTS))], _seed(rng)


@pytest.mark.parametrize("spec, shift, seed", seeded(_verify_case, 60))
def test_verify_residual_matches_choi_path(spec, shift, seed):
    d = _decomposition(spec)
    # the channel of d, its weights moved by up to ``shift`` (renormalized)
    rng = np.random.default_rng(seed)
    p = d.probs * (1 + shift * rng.uniform(-1, 1, d.n_terms))
    phi = MixedUnitaryDecomposition(p / p.sum(), d.unitaries).to_channel()
    resid = verify_decomposition(phi, d).choi_residual
    assert abs(resid - _old_residual(phi, d)) <= 1e-15

    phases = np.exp(2j * np.pi * rng.uniform(size=d.n_terms))
    rephased = MixedUnitaryDecomposition(
        d.probs, [c * u for c, u in zip(phases, d.unitaries)])
    assert abs(verify_decomposition(phi, rephased).choi_residual - resid) <= 1e-15

    i = int(rng.integers(d.n_terms))
    probs = list(d.probs)
    probs[i] /= 2
    split = MixedUnitaryDecomposition(probs + [probs[i]], list(d.unitaries) + [d.unitaries[i]])
    assert split.n_terms == d.n_terms + 1
    assert abs(verify_decomposition(phi, split).choi_residual - resid) <= 1e-15


# ----------------------------------------------------- traceless_image_basis

@pytest.mark.parametrize("spec", seeded(lambda rng: [_channel_spec(rng)], 60) + [
    pytest.param((1, 4, 1, 0), id="n1m4k1"), pytest.param((2, 2, 1, 0), id="n2m2k1"),
    pytest.param((2, 2, 2, 2), id="n2m2k2"), pytest.param((2, 2, 3, 17343), id="n2m2k3"),
    pytest.param((3, 3, 3, 269), id="n3m3k3"), pytest.param((3, 4, 3, 3), id="n3m4k3"),
    pytest.param((4, 4, 1, 1), id="n4m4k1")])
def test_traceless_image_basis_matches_loop(spec):
    phi = _channel(spec)
    # the closed form from phi's profile against the loop over the
    # complementary channel; random channels are not unital, n = 1 gives
    # the empty basis
    got = traceless_image_basis(phi)
    want = _old_traceless_image_basis(complementary(phi))
    assert got.shape == want.shape
    assert len(got) == channel_profile(phi).s - 1
    if phi.dim_in == 1:
        assert len(got) == 0
    assert np.linalg.norm(_projector(got) - _projector(want)) <= 1e-12


# ------------------------------------- stacked TP, unital and unitarity checks

def _old_tp_defect(ops):
    return float(np.linalg.norm(sum(dagger(a) @ a for a in ops) - np.eye(ops[0].shape[1])))


def _old_unital_defect(ops):
    return float(np.linalg.norm(sum(a @ dagger(a) for a in ops) - np.eye(ops[0].shape[0])))


def _old_unitarity_defect(u):
    return float(np.linalg.norm(dagger(u) @ u - np.eye(u.shape[1])))


_GALLERY_CHANNELS = {
    **{f"weyl{p}": (lambda p=p: weyl_channel(p)) for p in (3, 5, 7, 11)},
    **{f"gap{p}": (lambda p=p: gap_channel(p, 1)) for p in (3, 5)},
    **{f"unital_rank2_{s}": (lambda s=s: random_unital_rank2(3, s)) for s in range(3)},
    **{f"wh0_{n}": (lambda n=n: wh_channels(n).phi0) for n in (3, 4, 5)},
    **{f"wh1_{n}": (lambda n=n: wh_channels(n).phi1) for n in (3, 4, 5)},
    "schur_C4": lambda: schur_channel(corr_C4()),
    "schur_B3": lambda: schur_channel(corr_B3()),
    "random_3to2": lambda: random_channel(3, 2, 4, seed=0),
    "random_3to3": lambda: random_channel(3, 3, 2, seed=1),  # not unital
}


@pytest.mark.parametrize("name", sorted(_GALLERY_CHANNELS))
def test_stacked_channel_checks_match_operator_sums(name):
    phi = _GALLERY_CHANNELS[name]()
    a = phi.stacked()
    assert abs(_stack_defect(a) - _old_tp_defect(phi.kraus)) <= 1e-15
    unital = _old_unital_defect(phi.kraus)
    assert abs(_stack_defect(a.conj().transpose(0, 2, 1)) - unital) <= 1e-15
    square = phi.dim_in == phi.dim_out
    assert phi.is_unital() == (square and DEFAULT_TOL.is_close(unital, phi.dim_out))
    scaled = [1.001 * x for x in phi.kraus]
    with pytest.raises(ValidationError) as refused:
        KrausChannel(scaled)
    assert str(refused.value) == ("Kraus list is not trace-preserving: "
                                  f"||sum A*A - I|| = {_old_tp_defect(scaled):.3e}")


_GALLERY_DECOMPOSITIONS = {
    "wh_sym3": lambda: wh_sym3_decomposition(),
    "wh_sym_even4": lambda: wh_sym_even_decomposition(4),
    "wh_sym_odd5": lambda: wh_sym_odd_decomposition(5),
    "wh_antisym4": lambda: wh_antisym_decomposition(4),
    **{f"gap_weyl{p}": (lambda p=p: certified_gap_rank(weyl_channel(p), 1).decomposition)
       for p in (3, 5, 7)},
}


@pytest.mark.parametrize("name", sorted(_GALLERY_DECOMPOSITIONS))
def test_stacked_unitarity_matches_per_term_defects(name):
    d = _GALLERY_DECOMPOSITIONS[name]()
    old = [_old_unitarity_defect(u) for u in d.unitaries]
    assert np.max(np.abs(unitarity_defect(np.array(d.unitaries)) - old)) <= 1e-15
    for i in (0, d.n_terms // 2, d.n_terms - 1):
        us = list(d.unitaries)
        us[i] = 1.001 * us[i]
        with pytest.raises(ValidationError) as refused:
            MixedUnitaryDecomposition(d.probs, us)
        assert str(refused.value) == (
            f"term {i} is not unitary: defect {_old_unitarity_defect(us[i]):.3e}")


def _old_reader_refusal(phi, v, tol=DEFAULT_TOL):
    """The message of the former per-term unitarity loop of
    decomposition_from_isometry, or None."""
    for j, c in enumerate(np.tensordot(v, phi.stacked(), axes=(1, 0))):
        p = float(np.linalg.norm(c) ** 2 / phi.dim_in)
        if p <= tol.eps_eq:
            continue
        defect = _old_unitarity_defect(c / np.sqrt(p))
        if not tol.is_close(defect, 1):
            return f"remixed operator {j} is not unitary: defect {defect:.3e}"
    return None


@pytest.mark.parametrize("seed", range(4))
def test_reader_names_the_remixed_operator_as_before(seed):
    # rows: A_0 kept as it is, a zero row (weight 0, dropped), then two rows
    # mixing A_1 and A_2 by a Haar 2 x 2 unitary: the first mixed row
    # (index 2 of the remix) is the first that is not unitary
    phi = weyl_channel(3)
    v = np.zeros((4, 3), dtype=complex)
    v[0, 0] = 1
    v[2:, 1:] = haar_unitary(2, seed)
    want = _old_reader_refusal(phi, v)
    assert want is not None and want.startswith("remixed operator 2 ")
    with pytest.raises(NumericalError) as refused:
        decomposition_from_isometry(phi, v)
    assert str(refused.value) == want
    assert _old_reader_refusal(phi, np.eye(3)) is None
    assert decomposition_from_isometry(phi, np.eye(3)).n_terms == 3
