"""The four numerical rules of :class:`muchan.Tolerance`: their boundaries,
that every rank decision equals ``tol.rank`` of its own spectrum, and a
source guard that keeps each rule in one place."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import muchan
import muchan.analysis
import muchan.channels
import muchan.constructive
import muchan.gallery
import muchan.search
import muchan.tolerances
from muchan import (DEFAULT_TOL, ChannelProfile, KrausChannel, MixedUnitaryDecomposition,
                    NumericalError, ToroidalDecomposition, Tolerance, ValidationError,
                    channel_profile, dagger, decomposition_from_isometry,
                    decompositions_equivalent, dephasing_channel, haar_unitary,
                    minimize_kraus, numerical_rank, schur_channel, schur_equivalence_check,
                    toroidal_from_decomposition, traceless_image_basis, vec,
                    zero_diagonal_unitary)
from muchan.gallery import gap_channel, weyl_channel

SRC = Path(muchan.__file__).parent

# ------------------------------------------------------------- boundaries
# eps = 0.25 keeps every product below exact in binary floating point.


def test_rank_does_not_count_a_value_at_the_cutoff():
    tol = Tolerance(eps_rank=0.25)
    assert tol.rank([4.0, 1.0]) == 1
    assert tol.rank([4.0, np.nextafter(1.0, 2.0)]) == 2
    assert tol.rank([-4.0, 2.0, -1.0]) == 2  # magnitudes are counted


def test_rank_of_nothing_is_zero():
    assert DEFAULT_TOL.rank([0.0, 0.0, 0.0]) == 0
    assert DEFAULT_TOL.rank(np.zeros(0)) == 0


def test_is_psd_boundary():
    tol = Tolerance(eps_rank=0.25)
    assert tol.is_psd([-1.0, 2.0, 4.0])
    assert not tol.is_psd([np.nextafter(-1.0, -2.0), 2.0, 4.0])
    assert tol.is_psd([0.0, 0.0])
    assert not tol.is_psd([-1e-200, 0.0])  # the largest is floored at 1e-300


@pytest.mark.parametrize("n, scale", [(1, 1.0), (4, 2.0)])
def test_is_close_boundary(n, scale):
    tol = Tolerance(eps_eq=0.25)
    assert tol.is_close(0.25 * scale, n)
    assert not tol.is_close(np.nextafter(0.25 * scale, 1.0), n)


def test_is_hermitian_is_relative_above_unit_norm():
    m = np.array([[0.0, 0.1], [0.0, 0.0]])  # ||m - m*|| = 0.1 sqrt(2), ||m|| = 0.1
    assert Tolerance(eps_eq=0.15).is_hermitian(m)
    assert not Tolerance(eps_eq=0.14).is_hermitian(m)
    assert Tolerance(eps_eq=1.5).is_hermitian(1000 * m)
    assert not Tolerance(eps_eq=1.4).is_hermitian(1000 * m)
    assert DEFAULT_TOL.is_hermitian(np.array([[2.0, 1j], [-1j, 0.0]]))


# ------------------------------------- simultaneous-diagonalization constants

def test_cluster_gap_boundary():
    gap = muchan.analysis._CLUSTER_GAP
    runs = muchan.analysis._cluster_indices
    assert [len(c) for c in runs(np.array([0.0, gap]))] == [1, 1]
    assert [len(c) for c in runs(np.array([0.0, np.nextafter(gap, 0.0)]))] == [2]
    wide = gap * 4.0  # relative to the largest |w| above 1
    assert [len(c) for c in runs(np.array([-4.0, 0.0, wide]))] == [1, 1, 1]
    assert [len(c) for c in runs(np.array([-4.0, 0.0, np.nextafter(wide, 0.0)]))] == [1, 2]


def test_hermitian_part_floor_boundary():
    floor = muchan.analysis._HERMITIAN_PART_FLOOR
    parts = muchan.analysis._hermitian_parts
    above = np.nextafter(floor, 1.0)
    assert parts([np.diag([floor, 0.0])]) == []
    assert len(parts([np.diag([above, 0.0])])) == 1
    assert parts([1j * np.diag([floor, 0.0])]) == []
    (h,) = parts([1j * np.diag([above, 0.0])])  # the anti-Hermitian part, as a Hermitian
    assert np.array_equal(h, np.diag([above, 0.0]))


@pytest.mark.parametrize("scale, separates", [(0.7, True), (1.0, False)])
def test_diagonal_floor_boundary(scale, separates):
    # yX, yZ: a random combination has eigenvalues +-y|c|, one cluster, in
    # whose eigenbasis the larger of the two off-diagonal norms lies in
    # [y, y sqrt 2].  Below the floor the cluster is taken as a repeated
    # joint eigenvalue; at it, refining a family that does not commute fails.
    y = scale * muchan.analysis._DIAGONAL_FLOOR
    family = [y * np.array([[0, 1], [1, 0]]), y * np.array([[1, 0], [0, -1]])]
    rng = np.random.default_rng(0)
    if separates:
        v = muchan.analysis._simultaneously_diagonalize(family, rng)
        assert np.allclose(dagger(v) @ v, np.eye(2))
    else:
        with pytest.raises(NumericalError, match="did not separate"):
            muchan.analysis._simultaneously_diagonalize(family, rng)


@pytest.mark.parametrize("above", [False, True])
def test_relation_floor_boundary(above):
    # weyl(3)'s relations are the traceless diagonal Q, so the entry for
    # (j, k) = (0, 1) is 0 up to rounding.  Put it at the floor and it reads
    # as 0, giving back the Weyl unitaries exactly; just above it stays and
    # moves the remixing matrix off the permutation.
    p = channel_profile(weyl_channel(3))
    left = np.array(p.system.left)
    floor = muchan.analysis._RELATION_FLOOR
    left[1, p.s:] = np.nextafter(floor, 1.0) if above else floor
    system = dataclasses.replace(p.system, left=left)
    d = muchan.analysis._rank_r_decomposition(
        ChannelProfile(p.minimal, system, p.tol), p.tol)
    exact = decomposition_from_isometry(p.minimal, np.eye(3), p.tol).unitaries
    assert all(np.array_equal(u, a) for u, a in zip(d.unitaries, exact)) != above
    assert max(np.abs(u - a).max() for u, a in zip(d.unitaries, exact)) <= 1e-11


# ------------------------------------------------ validation floors and slack

@pytest.mark.parametrize("scale, contained", [(0.7, True), (0.99, True), (1.01, False),
                                              (1.5, False)])
def test_identity_span_floor_boundary(scale, contained):
    # diag(cos t), diag(sin t) at t = (0, x, 1): the operator system is the
    # diagonal matrices, with Gram matrix cos^2(t_a - t_b) in the diagonal
    # coordinates.  eps_rank = 1e-3 drops its smallest direction (relative
    # size about x / 2), which carries a part of the identity linear in x;
    # eps_eq = 1e-12 leaves the floor to decide.
    floor = muchan.channels._IDENTITY_SPAN_FLOOR

    def distance(x):  # the identity's part on the dropped eigenvector
        t = np.array([0.0, x, 1.0])
        w, v = np.linalg.eigh(np.cos(t[:, None] - t[None, :]) ** 2)
        return abs(v[:, 0].sum()) / np.sqrt(3)

    x = scale * floor / distance(1e-6) * 1e-6
    assert distance(x) == pytest.approx(scale * floor, rel=1e-6)
    t = np.array([0.0, x, 1.0])
    tol = Tolerance(eps_rank=1e-3, eps_eq=1e-12)
    phi = KrausChannel([np.diag(np.cos(t)), np.diag(np.sin(t))], tol)
    if contained:
        assert muchan.channels._operator_system(phi, tol).s == 2
    else:
        with pytest.raises(ValidationError, match="identity not contained"):
            muchan.channels._operator_system(phi, tol)


@pytest.mark.parametrize("terms", [2, 4])
def test_weight_sum_slack_boundary(terms):
    # weights 1/terms, the last raised by k units of 2^-52, sum to exactly
    # 1 + k 2^-52; at eps_eq = 1e-16 the slack of terms * 1e-15 decides.
    # The unitaries are exact (defect 0).
    slack = muchan.analysis._WEIGHT_SUM_SLACK
    us = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]),
          np.array([[0, 1], [-1, 0]])][:terms]
    k = int(terms * slack / 2.0 ** -52)

    def probs(k):
        p = np.full(terms, 1.0 / terms)
        p[-1] += k * 2.0 ** -52
        return p

    assert abs(probs(k).sum() - 1.0) <= terms * slack < abs(probs(k + 1).sum() - 1.0)
    tol = Tolerance(eps_eq=1e-16)
    assert MixedUnitaryDecomposition(probs(k), us, tol).n_terms == terms
    with pytest.raises(ValidationError, match="weights sum to"):
        MixedUnitaryDecomposition(probs(k + 1), us, tol)


@pytest.mark.parametrize("scale, traceless", [(0.9, True), (1.1, False)])
def test_traceless_floor_is_the_bound_applied(scale, traceless):
    # Moving the profile's left singular vectors by eps at row (0, 0), a
    # diagonal entry, adds eps * sum_i q[i, l] to the trace of image element
    # l; eps is set so the largest |Tr| is scale * the floor, which decides
    # at the default eps_eq = 1e-9.
    floor = muchan.search._TRACELESS_FLOOR
    p = channel_profile(gap_channel(3, 1))

    def moved(eps):
        left = np.array(p.system.left)
        left[0] += eps
        return ChannelProfile(p.minimal, dataclasses.replace(p.system, left=left), p.tol)

    def worst(eps):
        basis = muchan.search.traceless_image_basis(moved(eps))
        return np.abs(np.trace(basis, axis1=1, axis2=2)).max()

    eps = scale * floor / worst(1e-10) * 1e-10
    if traceless:
        assert worst(eps) == pytest.approx(scale * floor, rel=1e-6)
    else:
        with pytest.raises(NumericalError, match=f"not traceless: [|]Tr[|] = {scale * floor:.3e}"):
            traceless_image_basis(moved(eps))


@pytest.mark.parametrize("above", [False, True])
def test_group_weight_slack_boundary(above):
    # d2 moves weight k units of 2^-53 from X to I: each group is off by
    # exactly k 2^-53 and the weights still sum to 1.  At eps_eq = 1e-16
    # the slack decides; the unitaries are exact, so every overlap is n.
    slack = muchan.analysis._GROUP_WEIGHT_SLACK
    k = int(slack / 2.0 ** -53) + above
    us = [np.eye(2), np.array([[0, 1], [1, 0]])]
    tol = Tolerance(eps_eq=1e-16)
    d1 = MixedUnitaryDecomposition([0.5, 0.5], us, tol)
    d2 = MixedUnitaryDecomposition([0.5 + k * 2.0 ** -53, 0.5 - k * 2.0 ** -53], us, tol)
    assert (k * 2.0 ** -53 > slack) == above
    assert decompositions_equivalent(d1, d2, tol) != above


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_schur_witness_floor_is_the_bound_applied(scale, passes, monkeypatch):
    # The dephasing channel's witnesses are exact (residual 0).  Shifting
    # every image Phi(V D V*) by delta I leaves its eigenvectors, and so the
    # witnesses, as they are and gives residual ||delta I_3|| = delta sqrt 3.
    # At eps_eq = 1e-12, 100 eps_eq n = 3e-10 is below the floor, which decides.
    floor = muchan.analysis._SCHUR_WITNESS_FLOOR
    delta = scale * floor / np.sqrt(3)
    apply = muchan.analysis.apply
    monkeypatch.setattr(muchan.analysis, "apply",
                        lambda phi, x: apply(phi, x) + delta * np.eye(3))
    tol = Tolerance(eps_eq=1e-12)
    if passes:
        assert schur_equivalence_check(dephasing_channel(3), tol).equivalent
    else:
        with pytest.raises(NumericalError, match="witnesses missed tolerance"):
            schur_equivalence_check(dephasing_channel(3), tol)


# ------------------------------------------- constructive and gallery bounds
# Each input puts the checked quantity at 0.9x and 1.1x the named constant,
# under an eps_eq small enough that the constant decides.

_TINY = Tolerance(eps_eq=1e-16)


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_psd_scale_floor_is_the_bound_applied(scale, passes):
    # all eigenvalues at most 0: the cutoff is eps_rank times the floor
    floor = muchan.tolerances._PSD_SCALE_FLOOR
    assert Tolerance(eps_rank=0.25).is_psd([-scale * 0.25 * floor, 0.0]) == passes


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_toroidal_weight_slack_is_the_bound_applied(scale, passes):
    slack = muchan.constructive._TOROIDAL_WEIGHT_SLACK
    probs = [0.5, 0.5 + scale * slack]
    vectors = [np.ones(2), np.array([1.0, -1.0])]
    if passes:
        assert ToroidalDecomposition(probs, vectors, _TINY).n_terms == 2
    else:
        with pytest.raises(ValidationError, match="probability vector"):
            ToroidalDecomposition(probs, vectors, _TINY)


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_unimodular_floor_is_the_bound_applied(scale, passes):
    floor = muchan.constructive._UNIMODULAR_FLOOR
    vectors = [np.array([1.0, 1.0 + scale * floor])]
    if passes:
        assert ToroidalDecomposition([1.0], vectors, _TINY).n_terms == 1
    else:
        with pytest.raises(ValidationError, match="not unimodular"):
            ToroidalDecomposition([1.0], vectors, _TINY)


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_zero_diag_trace_floor_is_the_bound_applied(scale, passes):
    # the largest part, 0.75, needs no scaling; eps_eq ||Z|| is about 1e-16
    floor = muchan.constructive._ZERO_DIAG_TRACE_FLOOR
    z = np.diag([0.75, -0.75 + scale * floor])
    if passes:
        u = zero_diagonal_unitary(z, _TINY)
        assert np.abs(np.diag(u @ z @ dagger(u))).max() <= floor
    else:
        with pytest.raises(ValidationError, match="not traceless"):
            zero_diagonal_unitary(z, _TINY)


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_zero_diag_residual_is_the_bound_applied(scale, passes):
    # eps_eq = 1e-6 admits |Tr Z| = 2t; the sweep leaves t on each diagonal
    # entry of diag(0.75 + t, -0.75 + t), relative t / ||Z||
    bound = muchan.constructive._ZERO_DIAG_RESIDUAL
    t = scale * bound * 0.75 * np.sqrt(2)
    z = np.diag([0.75 + t, -0.75 + t])
    assert np.isclose(t / np.linalg.norm(z), scale * bound, rtol=1e-6)
    tol = Tolerance(eps_eq=1e-6)
    if passes:
        zero_diagonal_unitary(z, tol)
    else:
        with pytest.raises(NumericalError, match="missed tolerance"):
            zero_diagonal_unitary(z, tol)


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_off_diagonal_floor_is_the_bound_applied(scale, passes):
    # a rotation by angle x has off-diagonal Frobenius norm sqrt(2) sin x
    floor = muchan.constructive._OFF_DIAGONAL_FLOOR
    x = np.arcsin(scale * floor / np.sqrt(2))
    u = np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]])
    d = MixedUnitaryDecomposition([0.5, 0.5], [u, np.diag([1.0, -1.0])], _TINY)
    if passes:
        assert toroidal_from_decomposition(d, _TINY).n_terms == 2
    else:
        with pytest.raises(ValidationError, match="not diagonal"):
            toroidal_from_decomposition(d, _TINY)


@pytest.mark.parametrize("scale, skipped", [(0.9, True), (1.1, False)])
def test_phase_entry_cutoff_is_the_bound_applied(scale, skipped):
    # the first entry, i times the scaled cutoff, is skipped below the cutoff
    # (the real positive second entry fixes the phase: no change) and
    # phase-fixed above it
    cutoff = muchan.constructive._PHASE_ENTRY_CUTOFF
    u = np.array([[1j * scale * cutoff, 1.0], [1.0, 0.0]])
    fixed = muchan.constructive._phase_fix_first_entry(u)
    assert np.array_equal(fixed, u) == skipped
    assert (fixed[0, 0].real > 0) != skipped


@pytest.mark.parametrize("scale, passes", [(0.9, True), (1.1, False)])
def test_unbiased_bound_is_the_bound_applied(scale, passes, monkeypatch):
    # scaling every adjoint by 1 + delta moves each overlap 1/sqrt(d) by
    # delta/sqrt(d), set to scale * the bound; the standard basis's overlap
    # 1 with itself is never compared
    bound, d = muchan.gallery._UNBIASED_BOUND, 3
    delta = scale * bound * np.sqrt(d)
    monkeypatch.setattr(muchan.gallery, "dagger", lambda a: dagger(a) * (1 + delta))
    if passes:
        assert len(muchan.gallery.mub_family(d).bases) == d + 1
    else:
        with pytest.raises(ValidationError, match="not mutually unbiased"):
            muchan.gallery.mub_family(d)


# ---------------------------------------------- rank decisions = tol.rank
# The second tolerance moves both cutoffs, as ``--tol 1e-6`` does: with
# eps_eq left at 1e-9 a term dropped between the two rank cutoffs fails
# the trace-preservation check of the shortened list.

_TOLS = [DEFAULT_TOL, Tolerance(eps_rank=1e-6, eps_eq=1e-6)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(_TOLS), st.integers(2, 3),
       st.floats(min_value=-12.0, max_value=-2.0), st.integers(0, 2 ** 16))
def test_every_rank_decision_is_tol_rank(tol, n, log_e, seed):
    e = 10.0 ** log_e
    rng = np.random.default_rng(seed)

    m = np.outer(rng.standard_normal(n), rng.standard_normal(n)) \
        + e * rng.standard_normal((n, n))
    assert numerical_rank(m, tol) == tol.rank(np.linalg.svd(m, compute_uv=False))

    # two trace-orthogonal scaled unitaries, one of weight e
    w = haar_unitary(n, seed)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    phi = KrausChannel([np.sqrt(1 - e) * w, np.sqrt(e) * w @ clock])
    h = phi.stacked().reshape(len(phi), -1)
    assert len(minimize_kraus(phi, tol)) == tol.rank(np.linalg.eigh(h.conj() @ h.T)[0])

    profile = channel_profile(phi, tol)
    a = profile.minimal.kraus
    rows = np.array([vec(x.conj().T @ y).conj() for y in a for x in a])
    assert profile.s == tol.rank(np.linalg.svd(rows, full_matrices=False)[1])

    # a correlation matrix with eigenvalues 1 + |rho|, (1,) 1 - |rho|
    c = np.eye(n, dtype=complex)
    c[0, 1] = (1 - e) * np.exp(2j * np.pi * rng.uniform())
    c[1, 0] = np.conj(c[0, 1])
    assert len(schur_channel(c, tol)) == tol.rank(np.linalg.eigh(c)[0])


# ------------------------------------------------------------ source guard

def _uses(tree, name):
    """(enclosing function, line) of every ``.name`` read and ``name=``
    keyword in ``tree``."""
    found = []

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr == name) or (
                isinstance(node, ast.keyword) and node.arg == name):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(tree, None)
    return found


def test_eps_rank_is_read_only_by_the_rules():
    # every rank and PSD decision goes through Tolerance; the other reads
    # are the search's slack tolerance and the CLI's --tol
    allowed = {("search.py", "search_isometry"), ("cli.py", "_tol")}
    seen = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for func, line in _uses(ast.parse(path.read_text()), "eps_rank"):
            seen.append((path.name, func, line))
    assert {(f, fn) for f, fn, _ in seen} <= allowed, seen


def test_closeness_scale_lives_in_tolerances():
    holders = [p.name for p in sorted(SRC.glob("*.py"))
               if "max(1.0, np.sqrt(" in p.read_text()]
    assert holders == ["tolerances.py"]
