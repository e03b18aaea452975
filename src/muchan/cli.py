"""Command-line front end.

Commands: ``gen`` emits gallery objects, ``analyze`` reports ranks and
certificates, ``search`` runs the isometry search (one N or a scan),
``verify`` checks a decomposition against a channel, ``zero-diag``
rotates a traceless matrix to vanishing diagonal.

Every path prints a single JSON object to stdout.  Exit codes: 0 on
success/found, 2 on input errors, 3 when nothing was found (or a
verification failed), 4 on numerical failures.  Search results carry
``restart_log`` (final objective per restart) and ``restart_trace`` (per
restart: index, seed, iterations, objective evaluations, stop reason and
final objective).
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import sys

import numpy as np

from . import gallery, io
from .analysis import rank_bounds, schur_equivalence_check, verify_decomposition
from .channels import channel_profile, minimize_kraus
from .constructive import zero_diagonal_unitary
from .exceptions import FileFormatError, MuchanError, NumericalError, ValidationError
from .search import SearchConfig, murank_search, search_isometry
from .tolerances import Tolerance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports errors as JSON on stdout, exit 2."""

    def error(self, message):
        _emit({"error": {"code": "usage", "message": message, "path": None}})
        raise SystemExit(EXIT_INPUT)


def _emit(obj: dict):
    print(json.dumps(obj, sort_keys=True))


def _tol(args) -> Tolerance:
    eps = getattr(args, "tol", None)
    if eps is None:
        return Tolerance()
    return Tolerance(eps_rank=eps, eps_eq=eps)


def _gen_object(name: str):
    """Resolve a stable gallery identifier like weyl:3 or wh0sym3."""
    head, _, rest = name.partition(":")
    params = [p for p in rest.split(":") if p] if rest else []
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise ValidationError(f"non-integer parameter in gallery name {name!r}")
    table = {
        ("weyl", 1): gallery.weyl_channel,
        ("gap", 2): gallery.gap_channel,
        ("wh0", 1): lambda n: gallery.wh_channels(n).phi0,
        ("wh1", 1): lambda n: gallery.wh_channels(n).phi1,
        ("wh0sym3", 0): gallery.wh_sym3_decomposition,
        ("wh0even", 1): gallery.wh_sym_even_decomposition,
        ("wh0odd", 1): gallery.wh_sym_odd_decomposition,
        ("wh1anti", 1): gallery.wh_antisym_decomposition,
        ("corrB3", 0): gallery.corr_B3,
        ("corrC4", 0): gallery.corr_C4,
        ("ctensor2", 0): gallery.toroidal_CtensorI2,
        ("mubcorr", 1): lambda d: gallery.mub_correlation(d).matrix,
        ("mubdec", 1): lambda d: gallery.mub_correlation(d).decomposition,
    }
    key = (head, len(ints))
    if key not in table:
        known = sorted({k for k, _ in table})
        raise ValidationError(f"unknown gallery name {name!r}; known: {known}")
    return table[key](*ints)


def _cmd_gen(args) -> int:
    thing = _gen_object(args.name)
    obj = io.to_obj(thing)
    if args.output:
        io.save(thing, args.output)
        _emit({"written": args.output, "kind": obj["kind"]})
    else:
        _emit(obj)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    tol = _tol(args)
    phi = io.load_channel(args.channel, tol)
    report = {
        "dim_in": phi.dim_in, "dim_out": phi.dim_out,
        "unital": phi.is_unital(tol) and phi.dim_in == phi.dim_out,
    }
    profile = channel_profile(phi, tol)
    if report["unital"]:
        report.update(rank_bounds(profile, tol).as_dict())
    else:
        r, s = profile.r, profile.s
        sch = schur_equivalence_check(profile, tol, witnesses=False) \
            if phi.dim_in == phi.dim_out else None
        report.update({
            "r": r, "s": s,
            "lower": r, "upper": None, "exact": None, "exact_reason": None,
            "extremal": s == r * r,
            "schur_equivalent": None if sch is None else sch.equivalent,
            "uniqueness_certified": None,
        })
    _emit(report)
    return EXIT_OK


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts, max_iters=args.max_iters, seed=args.seed,
        time_budget=args.time_budget,
    )


def _result_obj(res) -> dict:
    out = {
        "status": res.status,
        "N": res.n_terms,
        "objective": res.objective,
        "restart_log": list(res.restart_log),
        "restart_trace": [dataclasses.asdict(rec) for rec in res.restart_trace],
        "decomposition": None if res.decomposition is None
        else io.to_obj(res.decomposition),
    }
    return out


def _cmd_search(args) -> int:
    tol = _tol(args)
    phi = io.load_channel(args.channel, tol)
    cfg = _search_config(args)
    report = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "seed": args.seed}
    if args.scan:
        scan = murank_search(phi, cfg, tol)
        report["bounds"] = scan.bounds.as_dict()
        report["N_found"] = scan.n_found
        report["results"] = [_result_obj(r) for r in scan.results]
        report["decomposition"] = None if scan.decomposition is None \
            else io.to_obj(scan.decomposition)
        _emit(report)
        return EXIT_OK if scan.n_found is not None else EXIT_NOT_FOUND
    res = search_isometry(phi, args.N, cfg, tol)
    report.update(_result_obj(res))
    _emit(report)
    return EXIT_OK if res.status == "found" else EXIT_NOT_FOUND


def _cmd_verify(args) -> int:
    tol = _tol(args)
    phi = io.load_channel(args.channel, tol)
    d = io.load_decomposition(args.decomposition, tol)
    res = verify_decomposition(phi, d, tol)
    _emit({"ok": res.ok, "choi_residual": res.choi_residual,
           "terms": d.n_terms, "choi_rank": len(minimize_kraus(phi, tol))})
    return EXIT_OK if res.ok else EXIT_NOT_FOUND


def _cmd_zero_diag(args) -> int:
    tol = _tol(args)
    z = io.load_matrix(args.matrix, tol)
    u = zero_diagonal_unitary(z, tol)
    resid = float(np.max(np.abs(np.diag(u @ z @ u.conj().T))))
    _emit({"unitary": io.matrix_to_literal(u), "residual": resid})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="muchan",
                     description="mixed-unitary rank toolkit for quantum channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a gallery object")
    p.add_argument("name", help="gallery identifier, e.g. weyl:3, gap:3:1, "
                                "wh0:5, wh0sym3, corrC4, mubcorr:3, ctensor2")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="ranks, bounds, and certificates")
    p.add_argument("channel")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="isometry search for a decomposition")
    p.add_argument("channel")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--N", type=int, help="candidate term count")
    group.add_argument("--scan", action="store_true",
                       help="scan N from the certified floor to the upper bound")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="check a decomposition against a channel")
    p.add_argument("channel")
    p.add_argument("decomposition")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("zero-diag", help="rotate a traceless matrix to "
                                         "vanishing diagonal")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_zero_diag)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on the first :func:`main` call and reused:
    ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileFormatError as exc:
        _emit({"error": {"code": "format", "message": str(exc), "path": exc.path}})
        return EXIT_INPUT
    except ValidationError as exc:
        _emit({"error": {"code": "invalid", "message": str(exc), "path": None}})
        return EXIT_INPUT
    except NumericalError as exc:
        _emit({"error": {"code": "numerical", "message": str(exc), "path": None}})
        return EXIT_NUMERICAL
    except MuchanError as exc:
        _emit({"error": {"code": "error", "message": str(exc), "path": None}})
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
