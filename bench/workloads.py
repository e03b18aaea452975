"""The three benchmark workloads.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned and been checked.  Ops come in decks, one
deck being a fixed mix of op kinds in seeded order, so a run that stops
at a deck boundary always holds the same mix.  Only ``run`` is timed
(and traced); ``check`` compares the output with values the paper proves
and raises :class:`Mismatch` when it differs.

Library calls go through module attributes (``mu.search.murank_search``)
at call time, so the tracer's wrappers are the functions called.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json

import numpy as np


class Mismatch(Exception):
    """An op returned a value that contradicts the paper's known value."""


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Scan:
    """Rank scans: ``murank_search`` on gap(3,1) and on the C4 Schur channel.

    One op scans both fixtures, each with 25 restarts and its own seed,
    so every op has the same shape: the candidate sizes below the known
    rank fail after all 25 restarts, the known rank stops at its first
    success.  (A single-fixture op would make the op-latency median sit
    between the two fixtures' clusters.)
    """

    name = "scan"
    restarts = 25
    # fixture -> mixed-unitary rank proved in the paper
    known = {"gap(3,1)": 6, "schur(C4)": 4}

    def __init__(self, mu, workdir):
        self.mu = mu

    def setup(self):
        pass

    def warmup_items(self):
        return [(0, 0)]

    def deck(self, rng):
        return [tuple(int(s) for s in rng.integers(0, 2 ** 31, size=2))]

    def tag(self, item):
        return None

    def run(self, item):
        mu = self.mu
        cfg = mu.search.SearchConfig
        gap = mu.gallery.gap_channel(3, 1)
        c4 = mu.channels.schur_channel(mu.gallery.corr_C4())
        return [
            ("gap(3,1)", gap, mu.search.murank_search(
                gap, cfg(restarts=self.restarts, seed=item[0]))),
            ("schur(C4)", c4, mu.search.murank_search(
                c4, cfg(restarts=self.restarts, seed=item[1]))),
        ]

    def check(self, item, out):
        mu = self.mu
        digest = hashlib.sha256()
        for name, ch, rep in out:
            want = self.known[name]
            _expect(rep.n_found == want, f"{name}: n_found {rep.n_found} != {want}")
            *failed, found = rep.results
            for res in failed:
                # below the known rank, not_found is the expected answer
                _expect(res.status == "not_found" and res.n_terms < want,
                        f"{name}: N={res.n_terms} gave {res.status}")
                _expect(len(res.restart_log) == self.restarts,
                        f"{name}: N={res.n_terms} logged {len(res.restart_log)} restarts")
            _expect(found.status == "found" and found.n_terms == want,
                    f"{name}: last result {found.status} at N={found.n_terms}")
            _expect(1 <= len(found.restart_log) <= self.restarts,
                    f"{name}: found after {len(found.restart_log)} restarts")
            resid = mu.analysis.verify_decomposition(
                mu.channels.minimize_kraus(ch), rep.decomposition).choi_residual
            _expect(rep.decomposition.n_terms == want and resid <= 1e-8,
                    f"{name}: decomposition residual {resid:.3e}")
            digest.update(f"{name}:{rep.n_found}".encode())
            for res in rep.results:
                digest.update(f"{res.n_terms}:{res.status}".encode())
                digest.update(np.asarray(res.restart_log, dtype=np.float64).tobytes())
        return digest.hexdigest()[:16]


class ZeroDiag:
    """``zero_diagonal_unitary`` on traceless matrices, n in 2..8.

    A deck holds each n once per kind slot: three complex Gaussian
    matrices (these go through the Schur-vector path) and one traceless
    Hermitian matrix (real diagonal, so the bracketed-pair path handles
    it and Schur never runs).
    """

    name = "zerodiag"
    sizes = range(2, 9)
    kinds = ("gauss", "gauss", "gauss", "herm")

    def __init__(self, mu, workdir):
        self.mu = mu

    def setup(self):
        pass

    @staticmethod
    def _traceless(rng, n, kind):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "herm":
            z = (z + z.conj().T) / 2
        return z - np.trace(z) / n * np.eye(n)

    def warmup_items(self):
        rng = np.random.default_rng(0)
        return [(8, kind, self._traceless(rng, 8, kind)) for kind in ("gauss", "herm")]

    def deck(self, rng):
        slots = [(n, kind) for n in self.sizes for kind in self.kinds]
        return [(n, kind, self._traceless(rng, n, kind))
                for n, kind in (slots[i] for i in rng.permutation(len(slots)))]

    def tag(self, item):
        return item[:2]

    def run(self, item):
        return self.mu.constructive.zero_diagonal_unitary(item[2])

    def check(self, item, u):
        n, _, z = item
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
        _expect(defect <= 1e-10, f"n={n}: unitarity defect {defect:.3e}")
        resid = float(np.max(np.abs(np.diag(u @ z @ u.conj().T))))
        _expect(resid <= 1e-8 * np.linalg.norm(z), f"n={n}: diagonal residual {resid:.3e}")
        return None


class Certify:
    """Theorem-certified ranks through the CLI, io and analysis layers.

    Set-up writes weyl(p) and gap(p,1), p in {3, 5, 7, 11}, as muchan/1
    files.  A deck holds each file once plus two rank-2 and two rank-3
    random 3x3 correlation matrices.
    """

    name = "certify"
    primes = (3, 5, 7, 11)
    corr_ranks = (2, 2, 3, 3)

    def __init__(self, mu, workdir):
        self.mu = mu
        self.workdir = workdir
        self.refs = {}

    def _path(self, stem):
        return str(self.workdir / f"{stem}.json")

    def setup(self):
        mu = self.mu
        for p in self.primes:
            weyl = mu.gallery.weyl_channel(p)
            mu.io.save(weyl, self._path(f"weyl{p}"))
            mu.io.save(mu.gallery.gap_channel(p, 1), self._path(f"gap{p}"))
            self.refs[p] = mu.channels.direct_sum(weyl, mu.channels.identity_channel(1))

    def warmup_items(self):
        return [("weyl", 3), ("gap", 3), ("corr", 2, 0), ("corr", 3, 1)]

    def deck(self, rng):
        items = [(kind, p) for kind in ("weyl", "gap") for p in self.primes]
        items += [("corr", rank, int(rng.integers(2 ** 31))) for rank in self.corr_ranks]
        return [items[i] for i in rng.permutation(len(items))]

    def tag(self, item):
        return None

    def run(self, item):
        mu = self.mu
        if item[0] == "corr":
            c = mu.gallery.random_correlation(3, item[1], item[2])
            return c, mu.constructive.toroidal_decompose_small(c)
        kind, p = item
        path = self._path(f"{kind}{p}")
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mu.cli.main(["analyze", path])
        out = {"code": code, "stdout": buf.getvalue()}
        if kind == "weyl":
            cert = mu.analysis.certified_gap_rank(mu.io.load_channel(path), 1)
            dec_path = self._path(f"dec{p}")
            mu.io.save(cert.decomposition, dec_path)
            check = mu.analysis.verify_decomposition(
                self.refs[p], mu.io.load_decomposition(dec_path))
            out["ranks"] = (cert.choi_rank, cert.mu_rank)
            out["residual"] = check.choi_residual
        return out

    def check(self, item, out):
        if item[0] == "corr":
            c, t = out
            rank = item[1]
            _expect(t.n_terms == rank, f"corr rank {rank}: {t.n_terms} terms")
            resid = float(np.linalg.norm(t.matrix() - c))
            _expect(resid <= 1e-8, f"corr rank {rank}: residual {resid:.3e}")
            return None
        kind, p = item
        _expect(out["code"] == 0, f"{kind}({p}): analyze exit code {out['code']}")
        rep = json.loads(out["stdout"])
        # weyl(p): r = p, s = p^2 - p + 1 (the critical dimension), N = p exact.
        # gap(p,1) = weyl(p) (+) id_1: r = p + 1, s one larger, no theorem applies.
        want = (p, p * p - p + 1, p) if kind == "weyl" else (p + 1, p * p - p + 2, None)
        got = (rep["r"], rep["s"], rep["exact"])
        _expect(got == want, f"{kind}({p}): (r, s, exact) {got} != {want}")
        if kind == "weyl":
            _expect(out["ranks"] == (p + 1, 2 * p),
                    f"weyl({p}): certified gap ranks {out['ranks']}")
            _expect(out["residual"] <= 1e-10,
                    f"weyl({p}): gap decomposition residual {out['residual']:.3e}")
        return None


WORKLOADS = {w.name: w for w in (Scan, ZeroDiag, Certify)}
