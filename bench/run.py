"""muchan benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload scan|zerodiag|certify|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run times ``SETUP_REPEATS`` imports in
fresh interpreters and ``SETUP_REPEATS`` set-ups (input files and one
warm-up op of each kind; ``setup_s`` is the sum of the two medians), then
runs decks of ops until ``--seconds`` have passed and reports the
end-to-end metrics.  The gated timings are scaled to a reference host
speed measured in the same run (``hostspeed.py``); the wall-clock values
are reported beside them.  With ``--trace 1`` it runs a fixed number of decks (a
function of ``--seconds`` only, so counts repeat exactly for one seed)
twice, untraced and then traced, and reports the per-layer metrics; the
ratio of the two passes is the tracing overhead.

Every line but the last is human-readable report; the second-to-last is
one JSON object with the machine, every metric with its unit, and the
scan digests.  The last line is ``{"correct", "attempted", "failed",
"metrics"}`` with the metrics named in ``BENCHMARK.json``.  Exit code 0
means the run finished (``correct`` says whether every output checked
out); 2 means it could not start.
"""
import os

# Pin BLAS to one thread before numpy loads: the hot paths run on tiny
# matrices, and a second BLAS thread only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Decks per second of --seconds in a traced run.  Each deck runs twice
# (untraced, traced), so these fill about --seconds on a 2-core machine.
TRACE_DECKS_PER_S = {"scan": 0.2, "zerodiag": 8.0, "certify": 1.0}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed in the report, not gated.  wall_* are setup_s and ops_per_s before
# scaling by the host slowdown measured during set-up and during the run.
# p90 needs >= 100 ops (scan has 10-17); fail_frac is 0 on a correct run.  p50 falls between clusters of op cost
# (scan has 10-17 ops; certify's median sits where the p = 3 and p = 5 items
# meet), so its run-to-run spread is too wide to gate.
REPORT_ONLY = {"op_p50_ms": "ms", "op_p90_ms": "ms", "fail_frac": "ratio",
               "wall_setup_s": "s", "wall_ops_per_s": "1/s",
               "setup_host_slowdown": "ratio", "host_slowdown": "ratio"}

TRACED_FUNCTIONS = {
    "linalg": ("numerical_rank", "haar_isometry"),
    "channels": ("choi_of", "minimal_kraus", "minimize_kraus", "complementary",
                 "operator_system", "apply"),
    "analysis": ("rank_bounds", "schur_equivalence_check", "uniqueness_certificate",
                 "certified_gap_rank", "verify_decomposition"),
    "constructive": ("zero_diagonal_unitary", "decompose_low_dim",
                     "toroidal_decompose_small"),
    "search": ("murank_search", "search_isometry", "traceless_image_basis",
               "decomposition_from_isometry"),
    "io": ("save", "load"),
    "cli": ("main",),
    "gallery": ("weyl_channel", "gap_channel", "random_correlation"),
}
# layers, named after the muchan module that defines the function
MODULES = tuple(TRACED_FUNCTIONS)
ZDU = "constructive.zero_diagonal_unitary"
ZDU_TAGS = [f"n{n}" for n in range(2, 9)] + ["gauss", "herm"]


def _per_layer_units():
    units = {}
    for mod, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls_per_op"] = "count"
            units[f"{mod}.{fn}.self_ms_per_op"] = "ms"
    for tag in ZDU_TAGS:
        units[f"{ZDU}.{tag}.ms_per_call"] = "ms"
    units.update({
        "search.restarts_per_op": "count", "search.ms_per_restart": "ms",
        "search.found_frac": "ratio",
        "io.bytes_written_per_op": "B", "io.bytes_read_per_op": "B",
    })
    for mod in MODULES:
        units[f"{mod}.self_ms_per_op"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class SetupError(Exception):
    """The benchmark cannot run here (e.g. no library sources)."""


def load_muchan():
    src = ROOT / "src"
    if not (src / "muchan" / "__init__.py").is_file():
        raise SetupError(f"no muchan sources under {src}")
    sys.path.insert(0, str(src))
    import muchan
    import muchan.cli  # noqa: F401  (not imported by the package itself)
    if Path(muchan.__file__).resolve().parent != (src / "muchan").resolve():
        raise SetupError(f"imported muchan from {muchan.__file__}, not {src}")
    return muchan


def _blas_threads():
    """{library file: thread count} for the OpenBLAS copies numpy and scipy load."""
    found = {}
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "MUCHAN_THREADS": os.environ.get("MUCHAN_THREADS"),
    }


def run_ops(wl, decks, stop, tracer=None, host=None):
    """Run decks of ops until ``stop()`` (checked after each deck).

    Returns (latencies of ops that checked out, total op seconds,
    attempted, failed, digests).  Time spent in ``host``'s reference
    slices is not op time.
    """
    def elapsed(t0, stolen0):
        dt = time.perf_counter() - t0
        return dt - (host.stolen - stolen0) if host is not None else dt

    lat, digests = [], []
    busy, attempted, failed = 0.0, 0, 0
    for deck in decks:
        for item in deck:
            attempted += 1
            if tracer is not None:
                tracer.begin_op(wl.tag(item))
            stolen0 = host.stolen if host is not None else 0.0
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception:
                busy += elapsed(t0, stolen0)
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.end_op()
            dt = elapsed(t0, stolen0)
            busy += dt
            try:
                digest = wl.check(item, out)
            except Exception as exc:
                failed += 1
                print(f"{wl.name} {item[:2]}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            lat.append(dt)
            if digest is not None:
                digests.append(digest)
        if stop():
            break
    return lat, busy, attempted, failed, digests


def import_seconds():
    """Wall time for a fresh interpreter (BLAS pinned as here) to import muchan."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import muchan.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def set_up(wl, repeats, host=None):
    """Set up ``repeats`` times; returns (median seconds, all warm-ups ok)."""
    times, ok = [], True
    for _ in range(repeats):
        stolen0 = host.stolen if host is not None else 0.0
        t0 = time.perf_counter()
        wl.setup()
        _, _, attempted, failed, _ = run_ops(wl, [wl.warmup_items()], lambda: True)
        times.append(time.perf_counter() - t0
                     - (host.stolen - stolen0 if host is not None else 0.0))
        ok = ok and failed == 0
    return statistics.median(times), ok


def end_to_end(wl, rng, seconds):
    host = HostSpeed()
    host.start()
    try:
        since = host.mark()
        setup_s, warm_ok = set_up(wl, SETUP_REPEATS, host)
        # The import runs in a child process: no slices during it, one
        # before and after each instead.
        host.pause()
        imports = []
        for _ in range(SETUP_REPEATS):
            host.sample()
            imports.append(import_seconds())
        host.sample()
        host.resume()
        setup_s += statistics.median(imports)
        setup_slowdown = host.slowdown(since)
        since = host.mark()
        t_end = time.perf_counter() + seconds

        def decks():
            while True:
                yield wl.deck(rng)

        lat, busy, attempted, failed, digests = run_ops(
            wl, decks(), lambda: time.perf_counter() >= t_end, host=host)
    finally:
        host.stop()
    slowdown = host.slowdown(since)
    done = attempted - failed
    metrics = {
        "setup_s": setup_s / setup_slowdown,
        "ops_per_s": done / busy * slowdown,
        "wall_setup_s": setup_s,
        "wall_ops_per_s": done / busy,
        "setup_host_slowdown": setup_slowdown,
        "host_slowdown": slowdown,
        "op_p50_ms": 1e3 * float(np.median(lat)) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
    }
    if len(lat) >= 100:
        metrics["op_p90_ms"] = 1e3 * float(np.percentile(lat, 90))
    return metrics, {}, warm_ok and failed == 0, attempted, failed, digests


def traced(wl, rng, seconds, spans_path):
    _, warm_ok = set_up(wl, 1)
    n_decks = max(1, round(seconds * TRACE_DECKS_PER_S[wl.name]))
    decks = [wl.deck(rng) for _ in range(n_decks)]
    _, busy_plain, attempted_plain, failed_plain, _ = run_ops(wl, decks, lambda: False)
    tracer = Tracer()
    tracer.install()
    try:
        _, busy, attempted, failed, digests = run_ops(wl, decks, lambda: False, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, attempted)
    metrics["trace.overhead_frac"] = 1 - busy_plain / busy
    # each layer's share of traced op time; "outside" is time in no span
    op_ms = 1e3 * busy / attempted
    shares = {mod: metrics[f"{mod}.self_ms_per_op"] / op_ms for mod in MODULES}
    shares["outside"] = 1 - sum(shares.values())
    extra = {"layer_share": shares, "spans": str(spans_path.relative_to(ROOT))}
    failed += failed_plain
    return (metrics, extra, warm_ok and failed == 0, attempted + attempted_plain,
            failed, digests)


def layer_metrics(tracer, n_ops):
    dur, self_t, parents = tracer.span_arrays()
    names = np.asarray(tracer.names, dtype=object)
    metrics = {}
    for mod, fns in TRACED_FUNCTIONS.items():
        for fn in fns:
            sel = names == f"{mod}.{fn}"
            metrics[f"{mod}.{fn}.calls_per_op"] = int(sel.sum()) / n_ops
            metrics[f"{mod}.{fn}.self_ms_per_op"] = 1e3 * float(self_t[sel].sum()) / n_ops
    module = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    for mod in MODULES:
        metrics[f"{mod}.self_ms_per_op"] = 1e3 * float(self_t[module == mod].sum()) / n_ops

    # top-level zero_diagonal_unitary calls, by the op's (n, kind) tag
    top = (names == ZDU) & (parents < 0)
    tags = [tracer.op_tags[op] for op in np.asarray(tracer.ops)[top]]
    top_dur = dur[top]
    for tag in ZDU_TAGS:
        sel = np.array([t is not None and tag in (f"n{t[0]}", t[1]) for t in tags], dtype=bool)
        metrics[f"{ZDU}.{tag}.ms_per_call"] = (
            1e3 * float(top_dur[sel].mean()) if sel.any() else 0.0)

    search_t = float(dur[names == "search.search_isometry"].sum())
    metrics.update({
        "search.restarts_per_op": tracer.restarts / n_ops,
        "search.ms_per_restart": 1e3 * search_t / tracer.restarts if tracer.restarts else 0.0,
        "search.found_frac": (tracer.searches_found / tracer.searches
                              if tracer.searches else 0.0),
        "io.bytes_written_per_op": tracer.bytes_written / n_ops,
        "io.bytes_read_per_op": tracer.bytes_read / n_ops,
    })
    return metrics


def run_one(args):
    mu = load_muchan()
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](mu, workdir)
        rng = np.random.default_rng(args.seed)
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, extra, ok, attempted, failed, digests = traced(
                wl, rng, args.seconds, spans)
            wanted = PER_LAYER
        else:
            metrics, extra, ok, attempted, failed, digests = end_to_end(
                wl, rng, args.seconds)
            wanted = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {**END_TO_END, **REPORT_ONLY, **PER_LAYER}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "digests": digests, **extra,
    }
    for name, entry in report["metrics"].items():
        print(f"{args.workload:>9} {name:<52} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
