"""Serialization of channels, correlation matrices, and decompositions.

All files are UTF-8 JSON carrying ``"format": "muchan/1"``.  Matrices are
nested arrays, row-major, each entry a two-element array [re, im]; floats
round-trip exactly (shortest repr).  A well-formed literal is read and
written in one numpy pass; only a malformed one is walked entry by entry,
to name the entry at fault.
"""
from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .analysis import MixedUnitaryDecomposition
from .channels import KrausChannel
from .constructive import ToroidalDecomposition
from .exceptions import FileFormatError
from .tolerances import DEFAULT_TOL, Tolerance

__all__ = [
    "FORMAT", "matrix_to_literal", "matrix_from_literal",
    "channel_to_obj", "channel_from_obj", "correlation_to_obj",
    "decomposition_to_obj", "decomposition_from_obj",
    "toroidal_to_obj", "toroidal_from_obj", "matrix_obj",
    "save", "load", "dumps",
]

FORMAT = "muchan/1"


def matrix_to_literal(a) -> list:
    """Nested lists of [re, im] pairs of Python floats, one per entry of ``a``
    (a matrix, a vector or a stack of either)."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(a.shape + (2,)).tolist()


def _from_pairs(lit, ndim: int) -> Optional[np.ndarray]:
    """The complex array of a literal of ``ndim`` axes whose entries are all
    [re, im] pairs of ints or floats (not bools), or None for any other
    literal, which the per-entry reader then names."""
    try:
        obj = np.array(lit, dtype=object)
        if (obj.ndim != ndim + 1 or obj.shape[-1] != 2
                or not set(map(type, obj.ravel())) <= {int, float}):
            return None
        return obj.astype(float).view(complex)[..., 0]
    except (TypeError, ValueError, OverflowError):
        return None


def _number(x) -> float:
    if type(x) not in (int, float):  # type(), not isinstance(): a bool is refused
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _entry(e) -> complex:
    if type(e) is not list or len(e) != 2 or not (
            type(e[0]) in (int, float) and type(e[1]) in (int, float)):
        raise TypeError(f"entry {e!r} is not a [re, im] pair of numbers")
    return complex(e[0], e[1])


def _check_dims(obj: dict, path: Optional[str], **dims):
    """Each declared ``obj[key]`` must be an int (not a bool) equal to ``dims[key]``."""
    for key, want in dims.items():
        got = obj.get(key)
        if type(got) is not int or got != want:
            raise FileFormatError(
                f"declared {key} {got!r} disagrees with the contents ({want})", path)


def matrix_from_literal(lit, path: Optional[str] = None) -> np.ndarray:
    if not isinstance(lit, list) or not lit:
        raise FileFormatError("matrix literal must be a nonempty list of rows", path)
    m = _from_pairs(lit, 2)
    if m is not None:
        return m
    try:
        # ragged rows raise here: numpy >= 2 refuses an inhomogeneous shape
        return np.array([[_entry(e) for e in row] for row in lit], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed matrix literal: {exc}", path) from exc


def vector_from_literal(lit, path: Optional[str] = None) -> np.ndarray:
    v = _from_pairs(lit, 1)
    if v is not None:
        return v
    try:
        return np.array([_entry(e) for e in lit], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed vector literal: {exc}", path) from exc


def channel_to_obj(phi: KrausChannel) -> dict:
    return {
        "format": FORMAT,
        "kind": "kraus",
        "dim_in": phi.dim_in,
        "dim_out": phi.dim_out,
        "operators": matrix_to_literal(phi.stacked()),
    }


def channel_from_obj(obj: dict, tol: Tolerance = DEFAULT_TOL,
                     path: Optional[str] = None) -> KrausChannel:
    lits = obj.get("operators")
    if not isinstance(lits, list) or not lits:
        raise FileFormatError("channel file's operators must be a nonempty list", path)
    ops = _from_pairs(lits, 3)
    if ops is None:
        ops = [matrix_from_literal(o, path) for o in lits]
    phi = KrausChannel(ops, tol)
    _check_dims(obj, path, dim_in=phi.dim_in, dim_out=phi.dim_out)
    return phi


def correlation_to_obj(c) -> dict:
    c = np.asarray(c, dtype=complex)
    return {"format": FORMAT, "kind": "correlation", "dim": c.shape[0],
            "matrix": matrix_to_literal(c)}


def matrix_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"format": FORMAT, "kind": "matrix", "dim": m.shape[0],
            "matrix": matrix_to_literal(m)}


def decomposition_to_obj(d: MixedUnitaryDecomposition) -> dict:
    return {
        "format": FORMAT,
        "kind": "mixed-unitary",
        "dim": d.dim,
        "probs": d.probs.tolist(),
        "unitaries": matrix_to_literal(d.stacked()),
    }


def decomposition_from_obj(obj: dict, tol: Tolerance = DEFAULT_TOL,
                           path: Optional[str] = None) -> MixedUnitaryDecomposition:
    return _terms_from_obj(obj, "unitaries", 2, matrix_from_literal,
                           MixedUnitaryDecomposition, tol, path)


def toroidal_to_obj(t: ToroidalDecomposition) -> dict:
    return {
        "format": FORMAT,
        "kind": "toroidal",
        "dim": t.dim,
        "probs": t.probs.tolist(),
        "vectors": matrix_to_literal(t.vectors),
    }


def toroidal_from_obj(obj: dict, tol: Tolerance = DEFAULT_TOL,
                      path: Optional[str] = None) -> ToroidalDecomposition:
    return _terms_from_obj(obj, "vectors", 1, vector_from_literal,
                           ToroidalDecomposition, tol, path)


def _terms_from_obj(obj: dict, key: str, ndim: int, read, cls, tol: Tolerance,
                    path: Optional[str]):
    """A ``cls`` decomposition from its weights (a list of numbers) and the
    terms under ``key``, each of ``ndim`` axes, read in one pass (term by term
    by ``read`` only when that fails); its dimension must be the declared ``dim``."""
    try:
        if not isinstance(obj["probs"], list):
            raise TypeError("probs must be a list")
        probs = [_number(p) for p in obj["probs"]]
        terms = _from_pairs(obj[key], ndim + 1)
        if terms is None:
            terms = [read(t, path) for t in obj[key]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed {cls.__name__}: {exc}", path) from exc
    d = cls(probs, terms, tol)
    _check_dims(obj, path, dim=d.dim)
    return d


def to_obj(thing) -> dict:
    if isinstance(thing, KrausChannel):
        return channel_to_obj(thing)
    if isinstance(thing, MixedUnitaryDecomposition):
        return decomposition_to_obj(thing)
    if isinstance(thing, ToroidalDecomposition):
        return toroidal_to_obj(thing)
    if isinstance(thing, np.ndarray):
        return correlation_to_obj(thing)
    raise TypeError(f"cannot serialize {type(thing).__name__}")


def dumps(thing) -> str:
    """The muchan/1 JSON text of ``thing``: :func:`to_obj` builds fresh dicts
    and lists, so the encoder's cycle check is skipped."""
    return json.dumps(to_obj(thing), sort_keys=True, check_circular=False)


def save(thing, path: str):
    """Write ``dumps(thing)`` and a newline to ``path`` in one write."""
    text = dumps(thing) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write file: {exc}", path) from exc


def load(path: str, tol: Tolerance = DEFAULT_TOL):
    """Load any muchan/1 object; returns (kind, object)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read file: {exc}", path) from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, huge ints, deep nesting
        raise FileFormatError(f"not valid JSON: {exc}", path) from exc
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise FileFormatError(f"missing or unsupported format version "
                   f"(expected {FORMAT!r})", path)
    kind = obj.get("kind")
    if kind == "kraus":
        return kind, channel_from_obj(obj, tol, path)
    if kind == "mixed-unitary":
        return kind, decomposition_from_obj(obj, tol, path)
    if kind == "toroidal":
        return kind, toroidal_from_obj(obj, tol, path)
    if kind in ("correlation", "matrix"):
        m = matrix_from_literal(obj.get("matrix"), path)
        _check_dims(obj, path, dim=m.shape[0])
        return kind, m
    raise FileFormatError(f"unknown kind {kind!r}", path)


def _load_kind(path: str, tol: Tolerance, what: str, kinds: tuple):
    kind, obj = load(path, tol)
    if kind not in kinds:
        raise FileFormatError(f"expected a {what} file, found kind {kind!r}", path)
    return obj


def load_channel(path: str, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    return _load_kind(path, tol, "channel", ("kraus",))


def load_decomposition(path: str, tol: Tolerance = DEFAULT_TOL) -> MixedUnitaryDecomposition:
    return _load_kind(path, tol, "decomposition", ("mixed-unitary",))


def load_matrix(path: str, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return _load_kind(path, tol, "matrix", ("correlation", "matrix"))
