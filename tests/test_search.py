import numpy as np
import pytest

from muchan import (KrausChannel, SearchConfig, ValidationError, dagger,
                    decomposition_from_isometry, dephasing_channel,
                    identity_channel, minimize_kraus, murank_search,
                    search_isometry, traceless_image_basis,
                    verify_decomposition)
from muchan import search as search_mod
from muchan import haar_isometry, schur_channel
from muchan.gallery import corr_C4, gap_channel, weyl_channel
from muchan.search import (DECOMP_RESIDUAL, STOP_REASONS, _euclidean_gradient,
                           _objective, _run_block)


def _assert_verified(phi, res):
    """A ``found`` result carries a decomposition of ``phi`` that verifies."""
    assert res.status == "found"
    check = verify_decomposition(minimize_kraus(phi), res.decomposition)
    assert check.choi_residual <= DECOMP_RESIDUAL


def _flat(basis):
    """The (m, r*r) form the objective kernel takes."""
    return basis.reshape(basis.shape[0], basis.shape[1] ** 2)


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


# -------------------------------------------------------------- the objective

def test_objective_zero_at_hadamard_for_dephasing():
    basis = traceless_image_basis(dephasing_channel(2))
    v = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    f, _ = _objective(v, _flat(basis))
    assert f <= 1e-28


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        r = int(rng.integers(2, 5))
        n_terms = int(rng.integers(r, 9))
        m = int(rng.integers(1, 5))
        basis = rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r))
        basis -= np.trace(basis, axis1=1, axis2=2)[:, None, None] * np.eye(r) / r
        v = haar_isometry(n_terms, r, seed=trial)[None]   # a batch of one
        f, d = _objective(v, _flat(basis))
        g = _euclidean_gradient(v, _flat(basis), d)
        assert f.shape == (1,) and g.shape == v.shape
        eps = 1e-6
        j, k = int(rng.integers(n_terms)), int(rng.integers(r))
        for direction in (1.0, 1j):
            e = np.zeros_like(v)
            e[0, j, k] = direction
            fp, _ = _objective(v + eps * e, _flat(basis))
            fm, _ = _objective(v - eps * e, _flat(basis))
            fd = float(fp[0] - fm[0]) / (2 * eps)
            an = float(np.real(np.conj(g[0, j, k]) * direction))
            if abs(fd) > 1e-10:
                worst = max(worst, abs(fd - an) / abs(fd))
    assert worst <= 1e-5


def test_objective_invariant_under_basis_reorthonormalization():
    from muchan import haar_isometry
    basis = traceless_image_basis(weyl_channel(3))
    m, r = basis.shape[0], basis.shape[1]
    rng = np.random.default_rng(3)
    # rotate the basis by a random unitary mixing (same span, orthonormal)
    from muchan import haar_unitary
    q = haar_unitary(m, seed=11)
    mixed = np.einsum("ab,bjk->ajk", q, basis)
    v = haar_isometry(7, r, seed=2)
    f1, _ = _objective(v, _flat(basis))
    f2, _ = _objective(v, _flat(mixed))
    assert abs(f1 - f2) <= 1e-12 * max(1.0, f1)


# The objective and gradient written with t[k, j, :] = row j of V B_k, the
# form the search used before the flat kernel: a maths reference only.

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
    # non-Hermitian and not orthonormal: the kernel must not rely on either
    basis = rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r))
    return basis - np.trace(basis, axis1=1, axis2=2)[:, None, None] * np.eye(r) / r


def test_flat_kernel_matches_t_reference():
    rng = np.random.default_rng(5)
    gallery = [traceless_image_basis(phi)
               for phi in (gap_channel(3, 1), schur_channel(corr_C4()), weyl_channel(3),
                           weyl_channel(5), dephasing_channel(3))]
    randoms = [_random_traceless_basis(rng, int(rng.integers(1, 8)), r)
               for r in (2, 3, 4, 5) for _ in range(3)]
    for basis in gallery + randoms:
        r = basis.shape[1]
        for n_terms in (r, r + 1, 2 * r):
            v = np.array([haar_isometry(n_terms, r, seed=s) for s in range(4)])
            f_ref, d_ref, t = _t_objective(v, basis)
            f, d = _objective(v, _flat(basis))
            assert np.all(np.abs(f - f_ref) <= 1e-13 * f_ref)
            g_ref = _t_gradient(v, basis, d_ref, t)
            g = _euclidean_gradient(v, _flat(basis), d)
            assert np.linalg.norm(g - g_ref) <= 1e-13 * np.linalg.norm(g_ref)


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


# ------------------------------------------- sequential reference restarts
# One restart on its own: gradient descent whose first trial after each
# accepted step is the alternating Barzilai-Borwein step, with monotone
# Armijo backtracking that gives up once f - tau g2 rounds to f.  Every
# restart of the lockstep batch must end exactly here.

def _seq_objective(v, bf):
    w = (v[:, :, None] * v.conj()[:, None, :]).reshape(v.shape[0], -1)
    d = w @ bf.T
    return float(np.sum(np.abs(d) ** 2)), d


def _seq_direction(v, bf, d):
    c = (d.conj() @ bf).reshape(*v.shape, v.shape[1])
    g = 2 * np.einsum("ja,jaq->jq", v, c + c.conj().transpose(0, 2, 1))
    a = dagger(v) @ g
    delta = g - v @ (a + dagger(a)) / 2
    return delta, float(np.sum(np.abs(delta) ** 2))


def _seq_retract(v):
    q, r = np.linalg.qr(v)
    ph = np.diag(r)
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph


def _seq_run_restart(basis, n_terms, r, cfg, index):
    """Final objective, isometry, accepted steps and objective evaluations."""
    bf = _flat(basis)
    v = haar_isometry(n_terms, r, cfg.seed + index)
    f, d = _seq_objective(v, bf)
    delta, g2 = _seq_direction(v, bf, d)
    tau = search_mod.STEP_INIT
    stall, evals = 0, 1
    target = min(search_mod.OBJECTIVE_TOL, 1e-28)
    for it in range(1, cfg.max_iters + 1):
        if f <= target or g2 <= 1e-30:
            return f, v, it - 1, evals
        for _ in range(40):
            vn = _seq_retract(v - tau * delta)
            fn, dn = _seq_objective(vn, bf)
            evals += 1
            if fn <= f - 1e-4 * tau * g2:
                break
            tau *= search_mod.ARMIJO_BETA
            if f - tau * g2 == f:
                return f, v, it - 1, evals
        else:
            return f, v, it - 1, evals
        stall = stall + 1 if f - fn <= 1e-9 * max(f, 1e-300) else 0
        delta_n, g2 = _seq_direction(vn, bf, dn)
        s, y = vn - v, delta_n - delta
        ss, yy = np.sum(np.abs(s) ** 2), np.sum(np.abs(y) ** 2)
        sy = abs(np.sum((s.conj() * y).real))
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = ss / sy if it % 2 == 1 else sy / yy
        if not (np.isfinite(tau) and tau > 0):
            tau = search_mod.STEP_INIT
        v, f, delta = vn, fn, delta_n
        if stall >= 30:
            break
    return f, v, it, evals


@pytest.mark.parametrize("fixture, n_terms", [
    ("gap", 4), ("gap", 5), ("gap", 6), ("c4", 3)])
@pytest.mark.parametrize("seed", [0, 7])
def test_lockstep_restarts_match_sequential_oracle(fixture, n_terms, seed, monkeypatch):
    phi = gap_channel(3, 1) if fixture == "gap" else schur_channel(corr_C4())
    basis = traceless_image_basis(phi)
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
            f_ref, v_ref, iters, evals = _seq_run_restart(basis, n_terms, basis.shape[1],
                                                          cfg, rec.index)
            assert rec.objective == f_ref
            assert np.array_equal(v, v_ref)
            assert (rec.iterations, rec.evaluations) == (iters, evals)


def _recording(monkeypatch, name, log):
    """Replace search.<name> by a wrapper that logs a copy of its first
    argument (the caller may update it in place)."""
    inner = getattr(search_mod, name)

    def wrapper(*args):
        log.append((name, args[0].copy()))
        return inner(*args)
    monkeypatch.setattr(search_mod, name, wrapper)


@pytest.mark.parametrize("fixture, n_terms", [("gap", 5), ("c4", 3)])
def test_lockstep_restarts_match_sequential_oracle_at_bench_width(fixture, n_terms,
                                                                  monkeypatch):
    # 25 restarts, as a bench scan runs them, with a tolerance no restart
    # reaches: every restart runs to its own stop, through rounds where all
    # live restarts pass Armijo (whole-array update), rounds with a
    # rejection (masked update) and compactions
    phi = gap_channel(3, 1) if fixture == "gap" else schur_channel(corr_C4())
    basis = traceless_image_basis(phi)
    cfg = SearchConfig(restarts=25, seed=3)
    monkeypatch.setattr(search_mod, "OBJECTIVE_TOL", 1e-300)
    log = []
    _recording(monkeypatch, "_phased_q", log)
    _recording(monkeypatch, "_bb_step", log)
    records, finals, exhausted = _run_block(basis, n_terms, cfg, range(25), lambda: False)
    assert not exhausted and len(records) == 25
    for rec, v in zip(records, finals):
        f_ref, v_ref, iters, evals = _seq_run_restart(basis, n_terms, basis.shape[1],
                                                      cfg, rec.index)
        assert rec.objective == f_ref
        assert np.array_equal(v, v_ref)
        assert (rec.iterations, rec.evaluations) == (iters, evals)
    # each _bb_step follows the round's retraction: as wide means every
    # live restart moved, narrower means some were rejected
    rounds = [(len(a), len(b)) for (qn, a), (bn, b) in zip(log, log[1:])
              if qn == "_phased_q" and bn == "_bb_step"]
    widths = [len(a) for name, a in log if name == "_phased_q"]
    assert any(live == moved for live, moved in rounds)
    assert any(live > moved for live, moved in rounds)
    assert widths[0] == 25 and len(set(widths)) > 2


@pytest.mark.parametrize("n_terms, r, first, seed", [
    (5, 4, 0, 0), (3, 3, 0, 7), (9, 2, 256, 11), (15, 15, 25, 2 ** 40)])
def test_block_starts_are_haar_isometry(n_terms, r, first, seed, monkeypatch):
    # restart i of a block starts at haar_isometry(N, r, seed + i), bit for
    # bit, though the block draws and factors its starts as one stack
    log = []
    _recording(monkeypatch, "_objective", log)
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
    # STEP_INIT, without a 0/0 warning (tier-1 turns those into errors)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    y = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal((6, 3, 2))
    s[2] = y[2] = 0                                # 0/0 either way
    y[3] = 0                                       # odd: ss / 0
    s[4] = 0                                       # even: 0 / yy
    iters = np.array([1, 2, 3, 5, 4, 6])
    step = search_mod._bb_step(s, y, iters)
    ss = np.sum(np.abs(s) ** 2, axis=(1, 2))
    yy = np.sum(np.abs(y) ** 2, axis=(1, 2))
    sy = np.abs(np.sum((s.conj() * y).real, axis=(1, 2)))
    assert step[0] == ss[0] / sy[0] and step[1] == sy[1] / yy[1]
    assert step[5] == sy[5] / yy[5]
    assert list(step[2:5]) == [search_mod.STEP_INIT] * 3


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


def test_murank_symmetric_werner_holevo_n3():
    from muchan.gallery import wh_channels
    phi0 = wh_channels(3).phi0
    rep = murank_search(phi0, SearchConfig(restarts=20, seed=0))
    assert rep.bounds.lower == 6
    assert rep.n_found == 6  # the minimal rank, matching the explicit six-pack
    _assert_verified(phi0, rep.results[-1])
