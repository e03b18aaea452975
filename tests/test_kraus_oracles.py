"""Property tests of the Kraus-list paths against the Choi-matrix code they
replace.  The reference functions below are copies of the old paths: the
Choi eigendecomposition for minimization, the Choi residual for
verification and the basis-matrix loop for the traceless image."""
import numpy as np
from hypothesis import given, settings, strategies as st

from muchan import (KrausChannel, MixedUnitaryDecomposition, choi_of, complementary,
                    haar_isometry, haar_unitary, minimal_kraus, minimize_kraus,
                    traceless_image_basis, verify_decomposition, vec)
from muchan.gallery import random_channel

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def _old_residual(phi, d):
    j = choi_of(phi).matrix
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


@st.composite
def _channels(draw):
    """A random channel, n -> m with Kraus rank k, seeded."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(-(-n // m), min(n * m, 4)))
    return random_channel(n, m, k, seed=draw(st.integers(0, 2 ** 32)))


# ------------------------------------------------------------ minimize_kraus

@_SETTINGS
@given(_channels(), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2 ** 32))
def test_minimize_kraus_matches_choi_path(phi, extra, zeros, seed):
    # remix the list by a Haar isometry onto more operators, then pad zeros
    k = len(phi)
    v = haar_isometry(k + extra, k, seed)
    ops = list(np.tensordot(v, phi.stacked(), axes=(1, 0)))
    ops += [np.zeros_like(ops[0])] * zeros
    listed = KrausChannel(ops)
    got, want = minimize_kraus(listed), minimal_kraus(choi_of(listed))
    assert len(got) == len(want) == k
    assert np.linalg.norm(choi_of(got).matrix - choi_of(want).matrix) <= 1e-12


# ------------------------------------------------------- verify_decomposition

@st.composite
def _decompositions(draw):
    n = draw(st.integers(1, 4))
    terms = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    probs = rng.dirichlet(np.ones(terms))
    us = [haar_unitary(n, int(rng.integers(2 ** 32))) for _ in range(terms)]
    return MixedUnitaryDecomposition(probs, us)


@_SETTINGS
@given(_decompositions(), st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
       st.integers(0, 2 ** 32))
def test_verify_residual_matches_choi_path(d, shift, seed):
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

@_SETTINGS
@given(_channels(), st.booleans())
def test_traceless_image_basis_matches_loop(phi, through_complementary):
    # random channels are not unital; n = 1 gives the empty basis
    psi = complementary(phi) if through_complementary else phi
    got, want = traceless_image_basis(psi), _old_traceless_image_basis(psi)
    assert got.shape == want.shape
    if psi.dim_in == 1:
        assert len(got) == 0
    assert np.linalg.norm(_projector(got) - _projector(want)) <= 1e-12
