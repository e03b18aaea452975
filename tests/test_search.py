import itertools

import numpy as np
import pytest

from muchan import (KrausChannel, SearchConfig, ValidationError, channel_profile, dagger,
                    decomposition_from_isometry, dephasing_channel, haar_unitary,
                    identity_channel, minimize_kraus, murank_search,
                    search_isometry, traceless_image_basis,
                    verify_decomposition)
from muchan import io
from muchan import search as search_mod
from muchan import haar_isometry, schur_channel
from muchan.gallery import (corr_B3, corr_C4, gap_channel, mub_correlation, random_channel,
                            random_unital_rank2, weyl_channel, wh_channels)
from muchan.search import (STOP_REASONS, _euclidean_gradient, _evaluate, _float_rows,
                           _run_block)
from seeded import near_cutoff_channel


def _assert_verified(phi, res):
    """A ``found`` result carries a decomposition of ``phi`` that verifies."""
    assert res.status == "found"
    check = verify_decomposition(minimize_kraus(phi), res.decomposition)
    assert check.ok


def _random_hermitian_basis(rng, m, r):
    """An orthonormal Hermitian basis of a random adjoint-closed traceless
    span: min(m, r^2 - 1) random traceless Hermitian matrices, orthonormalized
    as real vectors [Re vec; Im vec]."""
    m = min(m, r * r - 1)
    a = rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r))
    h = a + a.conj().transpose(0, 2, 1)
    h -= np.trace(h, axis1=1, axis2=2)[:, None, None] * np.eye(r) / r
    q = np.linalg.qr(h.reshape(m, r * r).view(float).T)[0]
    return np.ascontiguousarray(q.T).view(complex).reshape(m, r, r)


def _mixed(basis, seed):
    """A non-Hermitian orthonormal basis of the same span: the basis mixed by
    a Haar unitary."""
    return np.einsum("ab,bjk->ajk", haar_unitary(len(basis), seed), basis)


# ------------------------------------------------------ traceless_image_basis

def test_image_basis_dephasing():
    basis = traceless_image_basis(dephasing_channel(2))
    assert basis.shape[0] == 1
    b = basis[0]
    target = np.diag([1, -1]) / np.sqrt(2)
    assert min(np.linalg.norm(b - target), np.linalg.norm(b + target)) <= 1e-10


def test_image_basis_unitary_channel_empty():
    basis = traceless_image_basis(identity_channel(3))
    assert basis.shape[0] == 0


@pytest.mark.parametrize("seed", range(3))
def test_image_basis_haar_unitary_channel_empty(seed):
    # Psi is the trace map up to roundoff: its traceless image is zero, not
    # the roundoff left in it, and the scan finds N = 1
    from muchan import haar_unitary
    phi = KrausChannel([haar_unitary(3, seed)])
    assert traceless_image_basis(phi).shape == (0, 1, 1)
    rep = murank_search(phi, SearchConfig(restarts=2))
    assert rep.n_found == 1
    assert verify_decomposition(phi, rep.decomposition).choi_residual <= 1e-12
    _assert_verified(phi, rep.results[-1])


def test_image_basis_weyl3():
    # rank oracle: the traceless Hermitian inputs map onto an (s-1)-dim space
    basis = traceless_image_basis(weyl_channel(3))
    assert basis.shape[0] == 6
    for b in basis:
        assert abs(np.trace(b)) <= 1e-10


def _complex_image_basis(phi):
    """The orthonormal (not Hermitian) image basis the Hermitian step starts
    from: conj(U_s) times columns 1..s-1 of the QR of [d, I_s]."""
    profile = channel_profile(phi)
    system, r, s = profile.system, profile.r, profile.s
    d = np.trace(np.array(system.basis), axis1=1, axis2=2) / system.singular[:s]
    q = np.linalg.qr(np.column_stack([d, np.eye(s)]))[0][:, 1:]
    return (q.T @ system.left[:, :s].T.conj()).reshape(s - 1, r, r)


def _projector(basis):
    v = basis.reshape(len(basis), basis.shape[-1] ** 2)
    return v.T @ v.conj()


_GALLERY = {
    "weyl3": lambda: weyl_channel(3), "weyl5": lambda: weyl_channel(5),
    "gap3": lambda: gap_channel(3, 1), "gap5": lambda: gap_channel(5, 1),
    "schurB3": lambda: schur_channel(corr_B3()), "schurC4": lambda: schur_channel(corr_C4()),
    "schurMUB3": lambda: schur_channel(mub_correlation(3).matrix),
    "wh0_3": lambda: wh_channels(3).phi0, "wh1_3": lambda: wh_channels(3).phi1,
    "wh0_4": lambda: wh_channels(4).phi0, "dephasing3": lambda: dephasing_channel(3),
    "unital_rank2": lambda: random_unital_rank2(3, seed=1),
    "identity3": lambda: identity_channel(3),
}


@pytest.mark.parametrize("name", sorted(_GALLERY))
def test_image_basis_hermitian_orthonormal_same_span(name):
    # each element Hermitian and traceless, real Gram = I, and the span the
    # one the complex construction gives; identity(3) gives the empty basis
    phi = _GALLERY[name]()
    basis, ref = traceless_image_basis(phi), _complex_image_basis(phi)
    assert basis.shape == ref.shape
    assert np.abs(basis - basis.conj().transpose(0, 2, 1)).max(initial=0.0) <= 1e-14
    rows = _float_rows(basis)
    assert np.abs(rows @ rows.T - np.eye(len(basis))).max(initial=0.0) <= 1e-14
    assert np.abs(np.trace(basis, axis1=1, axis2=2)).max(initial=0.0) <= 1e-14
    assert np.linalg.norm(_projector(basis) - _projector(ref)) <= 1e-12
    if name == "identity3":
        assert basis.shape == (0, 1, 1)


# -------------------------------------------------------------- the objective

def test_objective_zero_at_hadamard_for_dephasing():
    basis = traceless_image_basis(dephasing_channel(2))
    v = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    f = _evaluate(v, _float_rows(basis))[0]
    assert f <= 1e-28


def test_gradient_matches_finite_differences():
    # the kernel takes an orthonormal Hermitian basis: random adjoint-closed spans
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        r = int(rng.integers(2, 5))
        n_terms = int(rng.integers(r, 9))
        basis = _random_hermitian_basis(rng, int(rng.integers(1, 5)), r)
        v = haar_isometry(n_terms, r, seed=trial)[None]   # a batch of one
        f, d, *_ = _evaluate(v, _float_rows(basis))
        g = _euclidean_gradient(v, _float_rows(basis), d)
        assert f.shape == (1,) and g.shape == v.shape
        eps = 1e-6
        j, k = int(rng.integers(n_terms)), int(rng.integers(r))
        for direction in (1.0, 1j):
            e = np.zeros_like(v)
            e[0, j, k] = direction
            fp = _evaluate(v + eps * e, _float_rows(basis))[0]
            fm = _evaluate(v - eps * e, _float_rows(basis))[0]
            fd = float(fp[0] - fm[0]) / (2 * eps)
            an = float(np.real(np.conj(g[0, j, k]) * direction))
            if abs(fd) > 1e-10:
                worst = max(worst, abs(fd - an) / abs(fd))
    assert worst <= 1e-5


def test_objective_invariant_under_basis_reorthonormalization():
    basis = traceless_image_basis(weyl_channel(3))
    m, r = basis.shape[0], basis.shape[1]
    rng = np.random.default_rng(3)
    # a real orthogonal mixing keeps the basis Hermitian and orthonormal, so
    # the kernel takes it; a unitary mixing (same span, orthonormal, not
    # Hermitian) goes through the complex reference below
    o = np.linalg.qr(rng.standard_normal((m, m)))[0]
    rotated = np.einsum("ab,bjk->ajk", o, basis)
    v = haar_isometry(7, r, seed=2)
    f1 = _evaluate(v, _float_rows(basis))[0]
    f2 = _evaluate(v, _float_rows(rotated))[0]
    f3 = _t_objective(v, _mixed(basis, 11))[0]
    assert abs(f1 - f2) <= 1e-12 * max(1.0, f1)
    assert abs(f1 - f3) <= 1e-12 * max(1.0, f1)


# The objective and gradient written with t[k, j, :] = row j of V B_k, the
# form the search used before the flat kernel: a maths reference only, for
# any orthonormal basis, Hermitian or not.

def _t_objective(v, basis):
    t = np.matmul(v[..., None, :, :], basis)
    d = np.einsum("...kjq,...jq->...kj", t, v.conj())
    return np.sum(np.abs(d) ** 2, axis=(-2, -1)), d, t


def _t_gradient(v, basis, d, t):
    g = np.einsum("...kj,...kjq->...jq", d.conj(), t)
    th = np.matmul(v[..., None, :, :], np.swapaxes(basis.conj(), -1, -2))
    g += np.einsum("...kj,...kjq->...jq", d, th)
    return 2 * g


def _random_traceless_basis(rng, m, r):
    # non-Hermitian and not orthonormal: the starts do not depend on the basis
    basis = rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r))
    return basis - np.trace(basis, axis1=1, axis2=2)[:, None, None] * np.eye(r) / r


def test_flat_kernel_matches_t_reference():
    # the real kernel on a Hermitian basis against the complex reference on a
    # non-Hermitian orthonormal basis of the same span: f and the gradient do
    # not depend on the basis
    rng = np.random.default_rng(5)
    gallery = [traceless_image_basis(phi)
               for phi in (gap_channel(3, 1), schur_channel(corr_C4()), weyl_channel(3),
                           weyl_channel(5), dephasing_channel(3))]
    randoms = [_random_hermitian_basis(rng, int(rng.integers(1, 8)), r)
               for r in (2, 3, 4, 5) for _ in range(3)]
    for i, basis in enumerate(gallery + randoms):
        r, mixed = basis.shape[1], _mixed(basis, 100 + i)
        for n_terms in (r, r + 1, 2 * r):
            v = np.array([haar_isometry(n_terms, r, seed=s) for s in range(4)])
            f_ref, d_ref, t = _t_objective(v, mixed)
            f, d, *_ = _evaluate(v, _float_rows(basis))
            assert np.all(np.abs(f - f_ref) <= 1e-13 * f_ref)
            g_ref = _t_gradient(v, mixed, d_ref, t)
            g = _euclidean_gradient(v, _float_rows(basis), d)
            assert np.linalg.norm(g - g_ref) <= 1e-13 * np.linalg.norm(g_ref)


@pytest.mark.parametrize("name, n_terms", [
    ("gap3", 4), ("gap3", 5), ("gap3", 6), ("schurC4", 3), ("schurC4", 4), ("wh0_4", 10),
    ("wh0_5", 15)])
def test_kernel_on_a_batch_equals_one_restart_calls(name, n_terms):
    # each restart's f, descent direction and g2 are the same bits in a
    # batch of 25 as in a batch of one and unbatched: no product may mix
    # the rows of several restarts
    phi = wh_channels(5).phi0 if name == "wh0_5" else _GALLERY[name]()
    hf = _float_rows(traceless_image_basis(phi))
    v = np.array([haar_isometry(n_terms, channel_profile(phi).r, seed=s) for s in range(25)])
    f, _, delta, g2 = _evaluate(v, hf)
    for k in range(25):
        for one in (v[k:k + 1], v[k]):
            fk, _, delta_k, g2_k = _evaluate(one, hf)
            assert np.array_equal(fk, f[k:k + 1].reshape(fk.shape))
            assert np.array_equal(delta_k, delta[k:k + 1].reshape(delta_k.shape))
            assert np.array_equal(g2_k, g2[k:k + 1].reshape(g2_k.shape))


# ------------------------------------------------------------ search_isometry

def test_search_dephasing_n2():
    phi = dephasing_channel(2)
    res = search_isometry(phi, 2, SearchConfig(restarts=5, seed=0))
    assert res.status == "found"
    assert res.objective <= 1e-16
    d = res.decomposition
    assert d.n_terms == 2
    for u in d.unitaries:
        assert np.linalg.norm(u - np.diag(np.diag(u))) <= 1e-6
    _assert_verified(phi, res)


def test_search_rejects_small_n():
    with pytest.raises(ValidationError, match="below the rank r=3"):
        search_isometry(weyl_channel(3), 2, SearchConfig(restarts=1))


@pytest.mark.parametrize("value", [4.5, 4.0, "4", True, None])
def test_search_refuses_non_integer_n(value):
    # as SearchConfig does: ValidationError, not a TypeError from numpy
    with pytest.raises(ValidationError, match="candidate size N must be an integer"):
        search_isometry(weyl_channel(3), value, SearchConfig(restarts=1))


def _amplitude_damping():
    return KrausChannel([np.array([[1, 0], [0, 0.8]]), np.array([[0, 0.6], [0, 0]])])


@pytest.mark.parametrize("make, reason", [
    (lambda: random_channel(2, 3, 2, seed=1), "square"), (_amplitude_damping, "unital")],
    ids=["2->3", "amplitude-damping"])
def test_search_refuses_what_the_scan_refuses(make, reason):
    # no mixed-unitary decomposition exists, so no restart is spent: the
    # same refusal murank_search makes through rank_bounds
    phi = make()
    with pytest.raises(ValidationError, match=f"search_isometry requires a {reason} channel"):
        search_isometry(phi, 4, SearchConfig(restarts=1))
    with pytest.raises(ValidationError, match=f"rank_bounds requires a {reason} channel"):
        murank_search(phi, SearchConfig(restarts=1))


def test_search_n_below_true_rank_not_found():
    phi = gap_channel(3, 1)
    res = search_isometry(phi, 4, SearchConfig(restarts=6, seed=0))
    assert res.status == "not_found"
    assert res.objective > 1e-6
    assert len(res.restart_log) == 6


def test_search_finds_gap_decomposition_at_6():
    phi = gap_channel(3, 1)
    res = search_isometry(phi, 6, SearchConfig(restarts=20, seed=0))
    assert res.status == "found"
    assert np.linalg.norm(dagger(res.isometry) @ res.isometry - np.eye(4)) <= 1e-9
    _assert_verified(phi, res)


def test_search_takes_a_non_minimal_kraus_list():
    # weyl(3) with every operator split into two halves: six operators of
    # Choi rank 3.  The search minimizes the list itself, and the isometry
    # remixes the three minimal operators.
    phi = KrausChannel([a / np.sqrt(2) for a in weyl_channel(3).kraus for _ in range(2)])
    assert len(phi) == 6
    res = search_isometry(phi, 3, SearchConfig(restarts=10, seed=0))
    assert res.isometry.shape == (3, 3) and res.decomposition.n_terms == 3
    _assert_verified(phi, res)


def test_search_time_budget_exhaustion():
    phi = gap_channel(3, 1)
    res = search_isometry(phi, 5,
                          SearchConfig(restarts=50, seed=0, time_budget=0.0))
    assert res.status == "budget_exhausted"
    assert res.restart_log == ()


def test_search_deterministic_and_block_size_invariant(monkeypatch):
    phi = gap_channel(3, 1)
    a = search_isometry(phi, 6, SearchConfig(restarts=8, seed=4))
    b = search_isometry(phi, 6, SearchConfig(restarts=8, seed=4))
    monkeypatch.setattr(search_mod, "_BLOCK", 1)  # one restart after another
    c = search_isometry(phi, 6, SearchConfig(restarts=8, seed=4))
    assert a.restart_log == b.restart_log == c.restart_log
    assert a.objective == b.objective == c.objective
    assert np.array_equal(a.isometry, c.isometry)
    _assert_verified(phi, a)


@pytest.mark.parametrize("n_terms, status", [(5, "not_found"), (6, "found")])
def test_search_bitwise_independent_of_block_size(monkeypatch, n_terms, status):
    phi = gap_channel(3, 1)
    cfg = SearchConfig(restarts=7, seed=2)
    ref = search_isometry(phi, n_terms, cfg)
    monkeypatch.setattr(search_mod, "_BLOCK", 3)
    small = search_isometry(phi, n_terms, cfg)
    assert ref.status == small.status == status
    assert ref.restart_log == small.restart_log
    assert ref.restart_trace == small.restart_trace
    assert ref.objective == small.objective
    if status == "found":
        assert np.array_equal(ref.isometry, small.isometry)
        _assert_verified(phi, ref)
    else:
        assert len(ref.restart_log) == 7


class _CountingClock:
    """Stands in for ``time`` in the search: each reading is one second later."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_search_budget_log_is_prefix_of_unbudgeted_log(monkeypatch):
    # the clock advances one second per reading, so a budget allows a fixed
    # number of deadline checks (one per round and one before each block)
    phi = gap_channel(3, 1)
    full = search_isometry(phi, 5, SearchConfig(restarts=12, seed=0))
    monkeypatch.setattr(search_mod, "_BLOCK", 3)
    clock = _CountingClock()
    monkeypatch.setattr(search_mod, "time", clock)
    search_isometry(phi, 5, SearchConfig(restarts=12, seed=0, time_budget=1e9))
    checks = clock.now
    lengths = []
    for share in (0.0, 0.25, 0.5, 0.75):
        clock.now = 0.0
        cut = search_isometry(phi, 5, SearchConfig(restarts=12, seed=0,
                                                     time_budget=share * checks + 0.5))
        assert cut.status == "budget_exhausted"
        k = len(cut.restart_log)
        assert cut.restart_log == full.restart_log[:k]
        assert cut.restart_trace[:k] == full.restart_trace[:k]
        assert all(rec.stop == "budget" for rec in cut.restart_trace[k:k + 1])
        lengths.append(k)
    assert lengths[0] == 0 and lengths == sorted(lengths) and 0 < lengths[-1] < 12


def test_restart_trace_records():
    phi = gap_channel(3, 1)
    for n_terms in (5, 6):
        res = search_isometry(phi, n_terms, SearchConfig(restarts=5, seed=3))
        trace = res.restart_trace
        assert [rec.objective for rec in trace] == list(res.restart_log)
        assert [rec.index for rec in trace] == list(range(len(trace)))
        assert [rec.seed for rec in trace] == [3 + i for i in range(len(trace))]
        for rec in trace:
            assert rec.stop in STOP_REASONS and rec.stop != "budget"
            assert 1 <= rec.evaluations and rec.iterations < rec.evaluations
    assert trace[-1].stop == "target"
    assert all(rec.objective > 1e-16 for rec in trace[:-1])
    _assert_verified(phi, res)


@pytest.mark.parametrize("kwargs", [dict(seed=-1), dict(time_budget=float("nan")),
                                    dict(time_budget=-1.0), dict(restarts=0)])
def test_search_config_refuses_bad_values(kwargs):
    # a NaN budget would never expire: ``now > nan`` is never true
    with pytest.raises(ValidationError):
        SearchConfig(**kwargs)


def test_search_config_accepts_edge_values():
    assert SearchConfig(seed=0, time_budget=0.0).time_budget == 0.0
    assert SearchConfig(time_budget=float("inf")).time_budget == float("inf")
    # numpy integers and reals are numbers too
    cfg = SearchConfig(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(3),
                       time_budget=np.float64(1.5))
    assert (cfg.restarts, cfg.max_iters, cfg.seed, cfg.time_budget) == (2, 5, 3, 1.5)
    assert SearchConfig(time_budget=2).time_budget == 2


# A library caller gets ValidationError, not numpy's or range's TypeError.

@pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
def test_search_config_refuses_non_integer_seed(value):
    with pytest.raises(ValidationError, match="restarts, max_iters and seed must be integers"):
        SearchConfig(seed=value)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "2", None])
def test_search_config_refuses_non_integer_restarts(value):
    with pytest.raises(ValidationError, match="restarts, max_iters and seed must be integers"):
        SearchConfig(restarts=value)


@pytest.mark.parametrize("value", [10.5, 10.0, False, "10", None])
def test_search_config_refuses_non_integer_max_iters(value):
    with pytest.raises(ValidationError, match="restarts, max_iters and seed must be integers"):
        SearchConfig(max_iters=value)


@pytest.mark.parametrize("value", ["1", True, 1j, [1.0]])
def test_search_config_refuses_non_number_time_budget(value):
    with pytest.raises(ValidationError, match="time_budget must be a non-negative number"):
        SearchConfig(time_budget=value)


_SCAN_CHANNELS = {"gap": lambda: gap_channel(3, 1), "c4": lambda: schur_channel(corr_C4())}


@pytest.fixture(scope="module")
def seed0_scans():
    return {name: murank_search(make(), SearchConfig(restarts=25, seed=0))
            for name, make in _SCAN_CHANNELS.items()}


def test_seed0_scan_found_results_verify(seed0_scans):
    for name, rep in seed0_scans.items():
        assert [res.status for res in rep.results][-1] == "found"
        _assert_verified(_SCAN_CHANNELS[name](), rep.results[-1])
        assert rep.decomposition is rep.results[-1].decomposition


def test_seed0_scan_lockstep_rounds(seed0_scans):
    # a search runs as many lockstep rounds as its slowest restart has
    # evaluations.  Gap N=4/5/6 and C4 N=3/4 took 640/181/954/1338/2001
    # rounds (5114) with a doubling/halving step, 212/168/30/145/19 (574)
    # with the Barzilai-Borwein first step, and 124/79/30/49/19 (301) once a
    # restart stops where f - tau g2 rounds to f.  Rejected trials went
    # 4236 -> 1205 with that stop.
    traces = [res.restart_trace for rep in seed0_scans.values() for res in rep.results]
    assert sum(max(rec.evaluations for rec in trace) for trace in traces) <= 400
    assert sum(rec.evaluations - 1 - rec.iterations
               for trace in traces for rec in trace) <= 1600
    assert [max(rec.evaluations for rec in trace) for trace in traces
            if trace[-1].stop == "target"] == [30, 19]


@pytest.mark.parametrize("name, n_terms, plateau", [
    ("gap", 4, 0.31818181818181773), ("gap", 5, 0.10416666666666653),
    ("c4", 3, 0.22222222222222215)])
def test_seed0_plateaus_unchanged_by_rounding_floor_stop(seed0_scans, name, n_terms,
                                                         plateau):
    # the lowest final objective of each failing seed-0 search, as it was
    # before the rounding-floor stop (C4 N=3 is 2/9): stopping earlier gives
    # up no descent
    res = next(res for res in seed0_scans[name].results if res.n_terms == n_terms)
    assert res.status == "not_found" and len(res.restart_log) == 25
    assert abs(min(res.restart_log) - plateau) <= 1e-10 * plateau


def test_restart_trace_max_iters():
    phi = gap_channel(3, 1)
    res = search_isometry(phi, 6, SearchConfig(restarts=2, seed=0, max_iters=3))
    assert [rec.stop for rec in res.restart_trace] == ["max_iters"] * 2
    assert [rec.iterations for rec in res.restart_trace] == [3, 3]


def test_stop_tests_on_states_where_several_hold():
    # rows: every test holds; max_iters and grad; stall and armijo (a
    # rejected trial whose f - tau g2 rounds to f); none; every count one
    # below its limit, at a rejected trial whose first-order decrease shows
    rows = np.array([
        # f,   g2,    tau,   stall, iters, backtracks
        [0.0,  0.0,   1.0,   30,    10,    40],
        [1.0,  1e-31, 1.0,   0,     10,    0],
        [1.0,  1.0,   1e-20, 30,    3,     1],
        [1.0,  1.0,   0.1,   0,     0,     0],
        [1.0,  1.0,   0.1,   29,    9,     39]])
    f, g2, tau = rows[:, :3].T
    stall, iters, backtracks = rows[:, 3:].T.astype(int)
    tests = search_mod._stop_tests(f, g2, tau, stall, iters, backtracks, 10,
                                   search_mod.POLISH_TOL)
    assert len(tests) == len(STOP_REASONS) - 1            # all but budget
    assert np.array(tests).T.tolist() == [
        [True, True, True, True, True], [False, False, True, True, False],
        [False, True, False, False, True], [False] * 5, [False] * 5]


def test_run_block_records_the_first_stop_test_that_holds(monkeypatch):
    # restart k's tests hold from STOP_REASONS[k] to the last but budget, so
    # every restart but the last has several: each is recorded with the first
    hold = np.arange(5)[:, None] >= np.arange(5)[None, :]     # hold[test, restart]
    monkeypatch.setattr(search_mod, "_stop_tests", lambda *_: tuple(hold))
    basis = traceless_image_basis(_SCAN_CHANNELS["gap"]())
    records, _, _ = _run_block(basis, 6, SearchConfig(restarts=5), range(5), lambda: False)
    assert [rec.stop for rec in records] == list(STOP_REASONS[:5])


def test_success_at_the_gradient_floor_is_recorded_as_target(monkeypatch):
    # C4 at N=4, seed 0: restart 0 ends with f = 3.07e-31 <= POLISH_TOL and
    # g2 = 9.1e-31 <= GRAD_FLOOR, both tests hold, and target comes first
    inner, log = search_mod._stop_tests, []

    def recording(f, g2, *args):
        log.append((f.copy(), g2.copy(), inner(f, g2, *args)))
        return log[-1][2]
    monkeypatch.setattr(search_mod, "_stop_tests", recording)
    basis = traceless_image_basis(_SCAN_CHANNELS["c4"]())
    records, _, _ = _run_block(basis, 4, SearchConfig(restarts=25, seed=0), range(25),
                               lambda: False)
    f, g2, tests = log[-1]
    assert [rec.stop for rec in records] == ["target"]
    assert f[0] <= search_mod.POLISH_TOL and g2[0] <= search_mod.GRAD_FLOOR
    assert [hit[0] for hit in tests] == [True, False, False, True, False]


# ------------------------------------------- sequential reference restarts
# One restart on its own: gradient descent whose first trial after each
# accepted step is the alternating Barzilai-Borwein step, with monotone
# Armijo backtracking that gives up once f - tau g2 rounds to f.  Every
# restart of the lockstep batch must end exactly here.

def _dot(a, b):
    """Re<a, b> of two arrays, from their float views."""
    return np.vecdot(a.reshape(-1).view(float), b.reshape(-1).view(float))


def _seq_objective(v, hf):
    # d_jk = v_j^T H_k conj(v_j), real on the Hermitian basis
    w = (v.conj()[:, :, None] * v[:, None, :]).reshape(v.shape[0], -1).view(float)
    d = w @ hf.T
    return _dot(d, d), d


def _seq_direction(v, hf, d):
    # g_j = 4 v_j^T C_j with the Hermitian C_j = sum_k d_jk H_k
    c = (d @ hf).view(complex).reshape(*v.shape, v.shape[1])
    g = 4 * (v[:, None, :] @ c)[:, 0, :]
    a = dagger(v) @ g
    delta = g - v @ (a + dagger(a)) / 2
    return delta, _dot(delta, delta)


def _seq_retract(v):
    q, r = np.linalg.qr(v)
    ph = np.diag(r)
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph


def _seq_run_restart(basis, n_terms, r, cfg, index):
    """Final objective, isometry, accepted steps, objective evaluations and
    stop reason; each return point is one reason, tested in the order of
    ``STOP_REASONS``."""
    hf = _float_rows(basis)
    v = haar_isometry(n_terms, r, cfg.seed + index)
    f, d = _seq_objective(v, hf)
    delta, g2 = _seq_direction(v, hf, d)
    tau = search_mod.STEP_INIT
    stall, evals = 0, 1
    target = min(search_mod.OBJECTIVE_TOL, 1e-28)
    for it in itertools.count():
        if f <= target:
            return f, v, it, evals, "target"
        if stall >= 30:
            return f, v, it, evals, "stall"
        if it >= cfg.max_iters:
            return f, v, it, evals, "max_iters"
        if g2 <= 1e-30:
            return f, v, it, evals, "grad"
        for _ in range(40):
            vn = _seq_retract(v - tau * delta)
            fn, dn = _seq_objective(vn, hf)
            evals += 1
            if fn <= f - 1e-4 * tau * g2:
                break
            tau *= search_mod.ARMIJO_BETA
            if f - tau * g2 == f:
                return f, v, it, evals, "armijo"
        else:
            return f, v, it, evals, "armijo"
        stall = stall + 1 if f - fn <= 1e-9 * max(f, 1e-300) else 0
        delta_n, g2 = _seq_direction(vn, hf, dn)
        s, y = vn - v, delta_n - delta
        ss, yy, sy = _dot(s, s), _dot(y, y), abs(_dot(s, y))
        with np.errstate(divide="ignore", invalid="ignore"):  # after it + 1 accepted steps
            tau = ss / sy if it % 2 == 0 else sy / yy
        if not (np.isfinite(tau) and tau > 0):
            tau = search_mod.STEP_INIT
        v, f, delta = vn, fn, delta_n


# the scan's channels, and two with a larger r: weyl(5) (r = 5) and the
# Werner-Holevo channel wh0:3 (r = 6)
_ORACLE_CHANNELS = {**_SCAN_CHANNELS, "weyl5": lambda: weyl_channel(5),
                    "wh0_3": lambda: wh_channels(3).phi0}


@pytest.mark.parametrize("fixture, n_terms", [
    ("gap", 4), ("gap", 5), ("gap", 6), ("c4", 3), ("weyl5", 5), ("wh0_3", 6)])
@pytest.mark.parametrize("seed", [0, 7])
def test_lockstep_restarts_match_sequential_oracle(fixture, n_terms, seed, monkeypatch):
    basis = traceless_image_basis(_ORACLE_CHANNELS[fixture]())
    cfg = SearchConfig(restarts=4, seed=seed)
    # the default tolerance drops restarts after the first success; a
    # tolerance no restart reaches runs all four to their own stop
    for objective_tol in (1e-16, 1e-300):
        monkeypatch.setattr(search_mod, "OBJECTIVE_TOL", objective_tol)
        records, finals, exhausted = _run_block(basis, n_terms, cfg, range(4),
                                                lambda: False)
        assert not exhausted
        assert len(records) == 4 or records[-1].objective <= objective_tol
        for rec, v in zip(records, finals):
            f_ref, v_ref, iters, evals, stop = _seq_run_restart(
                basis, n_terms, basis.shape[1], cfg, rec.index)
            assert rec.objective == f_ref
            assert np.array_equal(v, v_ref)
            assert (rec.iterations, rec.evaluations, rec.stop) == (iters, evals, stop)


def _recording(monkeypatch, name, log, arg=0):
    """Replace search.<name> by a wrapper that logs a copy of its argument
    ``arg`` (the caller may update it in place)."""
    inner = getattr(search_mod, name)

    def wrapper(*args):
        log.append((name, args[arg].copy()))
        return inner(*args)
    monkeypatch.setattr(search_mod, name, wrapper)


@pytest.mark.parametrize("fixture, n_terms", [("gap", 5), ("c4", 3)])
def test_lockstep_restarts_match_sequential_oracle_at_bench_width(fixture, n_terms,
                                                                  monkeypatch):
    # 25 restarts, as a bench scan runs them, with a tolerance no restart
    # reaches: every restart runs to its own stop, through rounds where all
    # live restarts pass Armijo, rounds with both passing and rejected
    # restarts, and compactions
    basis = traceless_image_basis(_ORACLE_CHANNELS[fixture]())
    cfg = SearchConfig(restarts=25, seed=3)
    monkeypatch.setattr(search_mod, "OBJECTIVE_TOL", 1e-300)
    log = []
    _recording(monkeypatch, "_phased_q", log)
    _recording(monkeypatch, "_bb_step", log, arg=2)
    records, finals, exhausted = _run_block(basis, n_terms, cfg, range(25), lambda: False)
    assert not exhausted and len(records) == 25
    for rec, v in zip(records, finals):
        f_ref, v_ref, iters, evals, stop = _seq_run_restart(basis, n_terms, basis.shape[1],
                                                            cfg, rec.index)
        assert rec.objective == f_ref
        assert np.array_equal(v, v_ref)
        assert (rec.iterations, rec.evaluations, rec.stop) == (iters, evals, stop)
    # every round passes each live restart's accepted-step count to
    # _bb_step.  Between two rounds of one width (no compaction between
    # them) a count that rose by 1 marks a restart that passed Armijo and
    # one that stayed a rejected trial
    counts = [a for name, a in log if name == "_bb_step"]
    moves = [np.unique(b - a).tolist() for a, b in zip(counts, counts[1:])
             if len(a) == len(b)]
    assert [1] in moves and [0, 1] in moves
    widths = [len(a) for name, a in log if name == "_phased_q"]
    assert widths[0] == 25 and len(set(widths)) > 2


@pytest.mark.parametrize("fixture, n_terms, seed, max_iters", [
    ("gap", 6, 3, SearchConfig.max_iters), ("c4", 4, 3, SearchConfig.max_iters),
    ("gap", 6, 5, 30)])
def test_lockstep_first_success_matches_sequential_oracle(fixture, n_terms, seed, max_iters,
                                                          monkeypatch):
    # 25 restarts at the known rank with the default OBJECTIVE_TOL: the round
    # a restart gets below it drops every restart above it, and that restart
    # polishes on to the target.  At max_iters=30 and seed 5, restart 1
    # succeeds while restart 0 is still running; restart 0 ends at max_iters
    basis = traceless_image_basis(_ORACLE_CHANNELS[fixture]())
    cfg = SearchConfig(restarts=25, seed=seed, max_iters=max_iters)
    log = []
    _recording(monkeypatch, "_phased_q", log)
    _recording(monkeypatch, "_stop_tests", log)
    records, finals, exhausted = _run_block(basis, n_terms, cfg, range(25), lambda: False)
    assert not exhausted and records[-1].stop == "target"
    assert records[-1].objective <= search_mod.POLISH_TOL
    for rec, v in zip(records, finals):
        f_ref, v_ref, iters, evals, stop = _seq_run_restart(basis, n_terms, basis.shape[1],
                                                            cfg, rec.index)
        assert rec.objective == f_ref
        assert np.array_equal(v, v_ref)
        assert (rec.iterations, rec.evaluations, rec.stop) == (iters, evals, stop)
    # one trial per round; the block ends with its last recorded restart, so
    # no restart above the success ran on.  Each round opens with the one
    # call of the stop tests, and the last round makes no trial
    rounds = max(rec.evaluations for rec in records)
    assert [name for name, _ in log] == ["_stop_tests", "_phased_q"] * (rounds - 1) + [
        "_stop_tests"]
    assert [len(a) for name, a in log if name == "_phased_q"][0] == 25
    if max_iters == 30:
        assert [rec.stop for rec in records] == ["max_iters", "target"]
        assert records[0].evaluations > records[1].evaluations


@pytest.mark.parametrize("n_terms, r, first, seed", [
    (5, 4, 0, 0), (3, 3, 0, 7), (9, 2, 256, 11), (15, 15, 25, 2 ** 40)])
def test_block_starts_are_haar_isometry(n_terms, r, first, seed, monkeypatch):
    # restart i of a block starts at haar_isometry(N, r, seed + i), bit for
    # bit, though the block draws and factors its starts as one stack
    log = []
    _recording(monkeypatch, "_evaluate", log)
    basis = _random_traceless_basis(np.random.default_rng(r), 2, r)
    cfg = SearchConfig(restarts=first + 25, seed=seed, max_iters=1)
    _run_block(basis, n_terms, cfg, range(first, first + 25), lambda: False)
    starts = log[0][1]
    assert starts.shape == (25, n_terms, r)
    for k, i in enumerate(range(first, first + 25)):
        assert np.array_equal(starts[k], haar_isometry(n_terms, r, seed + i))


def test_bb_step_ratios_and_fallback():
    # odd accepted-step counts take <s, s> / |Re<s, y>|, even ones
    # |Re<s, y>| / <y, y>; a zero denominator or a zero ratio falls back to
    # STEP_INIT, without a 0/0 warning (tier-1 turns those into errors).
    # Both ratios are formed for every row, so an overflowing ss / sy falls
    # back on an odd row and warns on neither
    rng = np.random.default_rng(4)
    s = rng.standard_normal((8, 3, 2)) + 1j * rng.standard_normal((8, 3, 2))
    y = rng.standard_normal((8, 3, 2)) + 1j * rng.standard_normal((8, 3, 2))
    s[2] = y[2] = 0                                # 0/0 either way
    y[3] = 0                                       # odd: ss / 0
    s[4] = 0                                       # even: 0 / yy
    tiny = np.finfo(float).tiny / 4                # 2^-1024: 1 / tiny overflows
    s[6:] = y[6:] = 0                              # ss = yy = 1, sy = tiny
    s[6:, 0, 0], y[6:, 0, 0], y[6:, 1, 0] = 1, tiny, 1
    iters = np.array([1, 2, 3, 5, 4, 6, 8, 7])
    step = search_mod._bb_step(s, y, iters)
    ss, yy = np.array([[_dot(a, a) for a in x] for x in (s, y)])
    sy = np.abs([_dot(a, b) for a, b in zip(s, y)])
    assert step[0] == ss[0] / sy[0] and step[1] == sy[1] / yy[1]
    assert step[5] == sy[5] / yy[5]
    assert step[6] == sy[6] / yy[6] == tiny       # even: ss / sy would overflow
    assert list(step[2:5]) == [search_mod.STEP_INIT] * 3
    assert step[7] == search_mod.STEP_INIT         # odd: ss / sy overflows


# -------------------------------------------- decomposition_from_isometry

def test_decomposition_from_identity_isometry():
    phi = identity_channel(2)
    d = decomposition_from_isometry(phi, np.array([[1.0]]))
    assert d.n_terms == 1
    assert verify_decomposition(phi, d).ok


def test_decomposition_from_isometry_checks_isometry():
    with pytest.raises(ValidationError):
        decomposition_from_isometry(dephasing_channel(2),
                                    np.array([[1.0, 0.0], [1.0, 0.0]]))


# near_cutoff_channel(seed) for seeds 0-199: channel_profile refuses some
# (the list truncated at eps_rank fails trace preservation, a known defect
# kept in view here); the rest have r = 1 or 2.  At r = 1 the minimal list
# drops the sin(t) operator, and for some seeds (17 among them, pinned below)
# the decomposition of the minimal list misses the channel as given by more
# than eps_eq.  Whatever the seeds, no found result may miss it.
def test_near_cutoff_found_verifies_against_the_given_channel():
    cfg = SearchConfig(restarts=2)
    for seed in range(200):
        phi = near_cutoff_channel(seed)
        try:
            r = channel_profile(phi).r
        except ValidationError as exc:
            assert "not trace-preserving" in str(exc)
            with pytest.raises(ValidationError, match="not trace-preserving"):
                murank_search(phi, cfg)
            continue
        found = [murank_search(phi, cfg).decomposition]
        if r == 1:
            found.append(search_isometry(phi, 1, cfg).decomposition)
        assert all(verify_decomposition(phi, d).ok for d in found if d is not None), seed


def test_near_cutoff_profile_verifies_against_its_minimal_list():
    # given the profile, the search verifies against profile.minimal and
    # finds; given the channel, the same decomposition misses it
    phi, cfg = near_cutoff_channel(17), SearchConfig(restarts=2)
    profile = channel_profile(phi)
    res = search_isometry(profile, 1, cfg)
    assert res.status == "found"
    assert verify_decomposition(profile.minimal, res.decomposition).ok
    assert not verify_decomposition(phi, res.decomposition).ok
    assert murank_search(profile, cfg).n_found == 1
    assert search_isometry(phi, 1, cfg).status == "not_found"
    assert murank_search(phi, cfg).n_found is None


@pytest.mark.parametrize("how", ["reader", "residual"])
def test_found_without_a_verified_decomposition_is_not_found(how, demote_found):
    demote_found(how)
    res = search_isometry(weyl_channel(3), 3, SearchConfig(restarts=5, seed=0))
    assert res.objective <= search_mod.OBJECTIVE_TOL  # the search itself succeeded
    assert (res.status, res.isometry, res.decomposition) == ("not_found", None, None)


@pytest.mark.parametrize("fixture, n_terms", [("gap", 6), ("c4", 4), ("wh0_3", 6)])
def test_found_at_any_max_iters_verifies_and_loads_back(fixture, n_terms, tmp_path):
    # one restart cut off by max_iters 1..60: a cut restart can reach
    # OBJECTIVE_TOL before its unitaries meet eps_eq (gap N=6 at 20 and 21
    # iterations, C4 N=4 at 12, wh0:3 N=6 at 17 and 18); such a result reads
    # not_found, and every found one verifies and reads back from its file
    profile = channel_profile(_ORACLE_CHANNELS[fixture]())
    path = str(tmp_path / "d.json")
    for max_iters in range(1, 61):
        res = search_isometry(profile, n_terms,
                              SearchConfig(restarts=1, seed=0, max_iters=max_iters))
        if res.status == "found":
            assert verify_decomposition(profile.minimal, res.decomposition).ok
            io.save(res.decomposition, path)
            assert verify_decomposition(profile.minimal, io.load_decomposition(path)).ok
    assert res.status == "found"


def test_decomposition_from_isometry_flags_bad_unitaries():
    from muchan import NumericalError
    phi = dephasing_channel(2)
    v = np.eye(2, dtype=complex)  # remixes to the projectors E_11, E_22
    with pytest.raises(NumericalError):
        decomposition_from_isometry(phi, v)


# --------------------------------------------------------------- murank scan

def test_murank_dephasing4():
    # explicit decomposition oracle: Fourier-phase diagonal unitaries work,
    # so the scan must terminate at N = 4 = r
    phi = dephasing_channel(4)
    zeta = np.exp(2j * np.pi / 4)
    fourier = [np.diag(zeta ** (k * np.arange(4))) for k in range(4)]
    d = None
    from muchan import MixedUnitaryDecomposition
    d = MixedUnitaryDecomposition([0.25] * 4, fourier)
    assert verify_decomposition(phi, d).choi_residual <= 1e-12
    rep = murank_search(phi, SearchConfig(restarts=20, seed=0))
    assert rep.n_found == 4
    _assert_verified(phi, rep.results[-1])


def test_murank_weyl3_starts_at_certified_rank():
    phi = weyl_channel(3)
    rep = murank_search(phi, SearchConfig(restarts=10, seed=0))
    assert rep.n_found == 3
    _assert_verified(phi, rep.results[-1])
    assert rep.bounds.exact == 3
    assert len(rep.results) == 1  # the scan started at the certified value


def test_murank_scan_that_finds_nothing():
    # one iteration per size finds nothing: every N from r = 4 to the bound 9
    # is tried once, and the report carries no size and no decomposition
    rep = murank_search(gap_channel(3, 1), SearchConfig(restarts=1, max_iters=1))
    assert rep.n_found is None and rep.decomposition is None
    assert (rep.bounds.lower, rep.bounds.upper) == (4, 9)
    assert [res.n_terms for res in rep.results] == list(range(4, 10))
    for res in rep.results:
        assert res.status == "not_found" and res.decomposition is None
        assert [rec.stop for rec in res.restart_trace] == ["max_iters"]


def test_murank_symmetric_werner_holevo_n3():
    from muchan.gallery import wh_channels
    phi0 = wh_channels(3).phi0
    rep = murank_search(phi0, SearchConfig(restarts=20, seed=0))
    assert rep.bounds.lower == 6
    assert rep.n_found == 6  # the minimal rank, matching the explicit six-pack
    _assert_verified(phi0, rep.results[-1])
