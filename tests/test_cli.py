import contextlib
import copy
import io as io_
import json
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import muchan
import muchan.cli
from muchan import KrausChannel, MixedUnitaryDecomposition, io
from muchan.cli import main
from muchan.channels import identity_channel
from muchan.gallery import (corr_B3, gap_channel, toroidal_CtensorI2, weyl_channel,
                            wh_channels, wh_sym3_decomposition)
from seeded import near_cutoff_channel, seeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [ln for ln in out.splitlines() if ln]
    return code, json.loads(lines[-1])


# ------------------------------------------------------------------ file io

def test_channel_roundtrip(tmp_path):
    p = tmp_path / "weyl.json"
    phi = weyl_channel(3)
    io.save(phi, str(p))
    kind, loaded = io.load(str(p))
    assert kind == "kraus"
    assert loaded.dim_in == 3
    for a, b in zip(phi.kraus, loaded.kraus):
        assert np.array_equal(a, b)  # floats round-trip exactly


def test_decomposition_roundtrip(tmp_path):
    p = tmp_path / "d.json"
    d = wh_sym3_decomposition()
    io.save(d, str(p))
    kind, loaded = io.load(str(p))
    assert kind == "mixed-unitary"
    assert loaded.n_terms == 6
    for a, b in zip(d.unitaries, loaded.unitaries):
        assert np.array_equal(a, b)


# signed zeros, subnormals (the largest and the smallest), the smallest
# normal, 1e-300 and its neighbours, and +-1e-100, the ends of the range
# _tiny draws from; a channel or decomposition entry has modulus at most 1,
# so entries near 1e+300 are written in a matrix file
_TINY = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1e-300, float(np.nextafter(1e-300, 1)), -float(np.nextafter(1e-300, 0)),
         1e-100, -1e-100]
_HUGE = [1e300, float(np.nextafter(1e300, np.inf)), -float(np.nextafter(1e300, 0)),
         1.7976931348623157e308]


def _random_bits_float(rng):
    """A float64 with 64 random bits: any sign, exponent and mantissa."""
    return struct.unpack("<d", rng.bytes(8))[0]


def _tiny(rng):
    """One of ``_TINY``, or a random sign times 10**U(-324, -100): normal,
    subnormal, or 0 below the smallest subnormal."""
    if rng.random() < 0.5:
        return _TINY[rng.integers(len(_TINY))]
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-324, -100))


def _any(rng):
    """One of ``_HUGE``, a ``_tiny`` float, or a finite float with random bits."""
    kind = rng.integers(3)
    if kind == 0:
        return _HUGE[rng.integers(len(_HUGE))]
    if kind == 1:
        return _tiny(rng)
    x = _random_bits_float(rng)
    while not np.isfinite(x):
        x = _random_bits_float(rng)
    return x


def _matrix(rng, n, floats):
    return np.array([[complex(floats(rng), floats(rng)) for _ in range(n)]
                     for _ in range(n)])


def _bits(arrays):
    return [np.asarray(a, dtype=complex).tobytes() for a in arrays]


def _saved_and_loaded(thing):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "thing.json")
        io.save(thing, path)
        return io.load(path)[1]


def _phase_matrix(rng, n):
    """A diagonal of unit phases (full-precision floats), off-diagonals tiny."""
    m = _matrix(rng, n, _tiny)
    m[np.diag_indices(n)] = np.exp(1j * rng.uniform(-4, 4, n))
    return m


def _phase_case(rng):
    # a unitary u, a tiny second Kraus operator t, a weight p, a unitary v
    n = int(rng.integers(1, 4))
    return (_phase_matrix(rng, n), _matrix(rng, n, _tiny), float(rng.uniform(1e-8, 1 - 1e-8)),
            _phase_matrix(rng, n))


@pytest.mark.parametrize("u, t, p, v", seeded(_phase_case, 100))
def test_channel_and_decomposition_floats_round_trip_bit_for_bit(u, t, p, v):
    phi = KrausChannel([u, t])
    assert _bits(_saved_and_loaded(phi).kraus) == _bits(phi.kraus)

    d = MixedUnitaryDecomposition([p, 1 - p], [u, v])
    loaded = _saved_and_loaded(d)
    assert loaded.probs.tobytes() == d.probs.tobytes()
    assert _bits(loaded.unitaries) == _bits(d.unitaries)


def _any_case(rng):
    return [_matrix(rng, int(rng.integers(1, 4)), _any)]


@pytest.mark.parametrize("m", seeded(_any_case, 100))
def test_matrix_floats_round_trip_bit_for_bit(m):
    assert _bits([_saved_and_loaded(m)]) == _bits([m])


# ------------------------------------------- one-pass reader vs the old loop
# The per-entry reader below is the former io.matrix_from_literal and
# io.vector_from_literal; the one-pass reader must give the same array, bit
# for bit, or the same FileFormatError message.

def _old_entry(e) -> complex:
    if type(e) is not list or len(e) != 2 or not (
            type(e[0]) in (int, float) and type(e[1]) in (int, float)):
        raise TypeError(f"entry {e!r} is not a [re, im] pair of numbers")
    return complex(e[0], e[1])


def _old_matrix_from_literal(lit, path=None):
    if not isinstance(lit, list) or not lit:
        raise muchan.FileFormatError("matrix literal must be a nonempty list of rows", path)
    try:
        m = np.array([[_old_entry(e) for e in row] for row in lit], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise muchan.FileFormatError(f"malformed matrix literal: {exc}", path) from exc
    if m.ndim != 2:
        raise muchan.FileFormatError("matrix literal rows have inconsistent lengths", path)
    return m


def _old_vector_from_literal(lit, path=None):
    try:
        return np.array([_old_entry(e) for e in lit], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise muchan.FileFormatError(f"malformed vector literal: {exc}", path) from exc


def _outcome(read, lit):
    try:
        m = read(lit, "f.json")
    except muchan.FileFormatError as exc:
        return "error", str(exc), exc.path
    return "array", m.dtype, m.shape, m.tobytes()


_READERS = {"matrix": (io.matrix_from_literal, _old_matrix_from_literal),
            "vector": (io.vector_from_literal, _old_vector_from_literal)}

# ints of any size, both zeros, subnormals, the float extremes, 2**63,
# +-2**80, NaN and both infinities
_LITERAL_NUMBERS = [0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1e308, -1e308, 1.7976931348623157e308, 2 ** 63, -2 ** 63, 2 ** 63 - 1,
                    2 ** 64 + 1, 10 ** 300, 2 ** 80, -2 ** 80, float("nan"), float("inf"),
                    float("-inf")]


def _literal_number(rng):
    """One of ``_LITERAL_NUMBERS``, an int in (-2**80, 2**80) of random bit
    length, or a float with random bits (NaN and infinities included)."""
    kind = rng.integers(3)
    if kind == 0:
        return _LITERAL_NUMBERS[rng.integers(len(_LITERAL_NUMBERS))]
    if kind == 1:
        magnitude = int.from_bytes(rng.bytes(10), "little") >> int(rng.integers(81))
        return magnitude if rng.random() < 0.5 else -magnitude
    return _random_bits_float(rng)


def _pairs(rng, count):
    return [[_literal_number(rng), _literal_number(rng)] for _ in range(count)]


def _literal_case(rng):
    # a rows x cols matrix literal and a vector literal of 0..5 entries
    rows, cols, length = rng.integers(1, 5), rng.integers(1, 5), rng.integers(6)
    return [_pairs(rng, cols) for _ in range(rows)], _pairs(rng, length)


@pytest.mark.parametrize("matrix, vector", seeded(_literal_case, 200))
def test_reader_matches_per_entry_loop(matrix, vector):
    for kind, lit in (("matrix", matrix), ("vector", vector)):
        new, old = _READERS[kind]
        got = _outcome(new, lit)
        assert got[0] == "array"
        assert got == _outcome(old, lit)


_MALFORMED_LITERALS = {
    "matrix": {
        "bool": [[[True, 0.0]]],
        "bool_imag": [[[1.0, False]]],
        "string": [[["1", 0]]],
        "none": [[[None, 0]]],
        "nested_list": [[[[1.0], 0.0]]],
        "nested_pairs": [[[[1.0, 0.0], [0.0, 1.0]]]],
        "object": [[{"0": 1}]],
        "ragged_rows": [[[1, 0], [0, 0]], [[1, 0]]],
        "one_element": [[[1.0]]],
        "three_elements": [[[1.0, 0.0, 7.0]]],
        "four_elements": [[[1.0, 0.0, 7.0, 8.0]]],
        "huge_int": [[[10 ** 400, 0]]],
        "empty_row": [[[1.0, 0.0]], []],
        "number_row": [[[1.0, 0.0]], 5],
        "string_row": [["ab"]],
        "number_entry": [[5]],
        "empty": [],
        "object_table": {"a": 1},
        "null": None,
    },
    "vector": {
        "bool": [[True, 0.0]],
        "bool_imag": [[1.0, False]],
        "string": [["1", 0]],
        "none": [[None, 0]],
        "nested_list": [[[1.0], 0.0]],
        "nested_pairs": [[[1.0, 0.0], [0.0, 1.0]]],
        "object": [{"0": 1}],
        "ragged": [[1, 0], [0]],
        "one_element": [[1.0]],
        "three_elements": [[1.0, 0.0, 7.0]],
        "four_elements": [[1.0, 0.0, 7.0, 8.0]],
        "huge_int": [[10 ** 400, 0]],
        "empty_entry": [[1.0, 0.0], []],
        "number_entry": [[1.0, 0.0], 5],
        "string_entry": ["ab"],
        "string_table": "12",
        "number_table": 5,
        "null": None,
    },
}


@pytest.mark.parametrize("kind, case", [(k, c) for k in sorted(_MALFORMED_LITERALS)
                                        for c in sorted(_MALFORMED_LITERALS[k])])
def test_reader_names_the_bad_entry_as_before(kind, case):
    lit = _MALFORMED_LITERALS[kind][case]
    new, old = _READERS[kind]
    want = _outcome(old, lit)
    assert want[0] == "error"
    assert _outcome(new, lit) == want


# --------------------------------------- one-pass file reader vs per matrix
# io converts a file's whole operators, unitaries or vectors literal in one
# pass.  The reference below reads it one matrix (or vector) at a time with
# the per-entry reader above, as io did before; every object must come out
# with the same bits, or fail with the same message and path.

def _per_matrix_channel(obj, path=None):
    lits = obj.get("operators")
    if not isinstance(lits, list) or not lits:
        raise muchan.FileFormatError("channel file's operators must be a nonempty list", path)
    phi = KrausChannel([_old_matrix_from_literal(o, path) for o in lits])
    io._check_dims(obj, path, dim_in=phi.dim_in, dim_out=phi.dim_out)
    return phi


def _per_matrix_terms(key, read, cls):
    def load(obj, path=None):
        try:
            if not isinstance(obj["probs"], list):
                raise TypeError("probs must be a list")
            probs = [io._number(p) for p in obj["probs"]]
            terms = [read(t, path) for t in obj[key]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise muchan.FileFormatError(f"malformed {cls.__name__}: {exc}", path) from exc
        d = cls(probs, terms)
        io._check_dims(obj, path, dim=d.dim)
        return d
    return load


_FILE_READERS = {
    "kraus": (io.channel_from_obj, _per_matrix_channel, "operators"),
    "mixed-unitary": (io.decomposition_from_obj, _per_matrix_terms(
        "unitaries", _old_matrix_from_literal, MixedUnitaryDecomposition), "unitaries"),
    "toroidal": (io.toroidal_from_obj, _per_matrix_terms(
        "vectors", _old_vector_from_literal, muchan.ToroidalDecomposition), "vectors"),
}


def _object_outcome(read, obj):
    try:
        thing = read(obj, path="f.json")
    except muchan.MuchanError as exc:
        return "error", type(exc).__name__, str(exc), getattr(exc, "path", None)
    terms = np.array(thing.kraus if isinstance(thing, KrausChannel) else
                     thing.vectors if isinstance(thing, muchan.ToroidalDecomposition)
                     else thing.unitaries)
    probs = getattr(thing, "probs", np.empty(0))
    return "object", terms.shape, terms.tobytes(), probs.tobytes()


_C, _Z = [[1, 0], [0.0, 0]], [[0, 0], [1, -0.0]]  # mixed int and float entries
_TERM_CASES = {
    # kind: {case: the file's terms literal}
    "kraus": {
        "later_true": [[[[0.6, 0]]], [[[True, 0]]]],
        "later_string": [[[[0.6, 0]]], [[["0.8", 0]]]],
        "later_three_numbers": [[[[0.6, 0]]], [[[0.8, 0, 0]]]],
        "two_shapes": [[[[1, 0]]], [[_C[0], _C[1]], [_Z[0], _Z[1]]]],
        "mixed_int_float": [[[[0.6, 0]]], [[[0.8, 0.0]]]],
        "mixed_int_float_2x2": [[[[1, 0], [0.0, 0]], [[0, 0], [1.0, -0.0]]]],
        "not_trace_preserving": [[[[0.6, 0]]], [[[0.6, 0]]]],
    },
    "mixed-unitary": {
        "later_true": [[[[1, 0]]], [[[True, 0]]]],
        "later_string": [[[[1, 0]]], [[["1", 0]]]],
        "later_three_numbers": [[[[1, 0]]], [[[1, 0, 0]]]],
        "two_shapes": [[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "mixed_int_float": [[[[1, 0], [0.0, 0]], [[0, 0], [1.0, 0]]],
                            [[[1.0, 0], [0, 0.0]], [[0, 0], [-1, 0]]]],
        "not_unitary": [[[[1, 0]]], [[[0.5, 0]]]],
    },
    "toroidal": {
        "later_true": [[[1, 0], [1, 0]], [[1, 0], [True, 0]]],
        "later_string": [[[1, 0], [1, 0]], [[1, 0], ["1", 0]]],
        "later_three_numbers": [[[1, 0], [1, 0]], [[1, 0], [1, 0, 0]]],
        "two_shapes": [[[1, 0]], [[1, 0], [1, 0]]],
        "mixed_int_float": [[[1, 0], [1.0, 0]], [[1, 0.0], [-1, 0]]],
        "not_unimodular": [[[1, 0], [1, 0]], [[1, 0], [0.5, 0]]],
    },
}


def _file_obj(kind, terms):
    key = _FILE_READERS[kind][2]
    if kind == "kraus":
        shape = np.shape(terms[0])
        return {"format": io.FORMAT, "kind": kind, "dim_in": shape[1] if len(shape) > 1 else 0,
                "dim_out": shape[0], key: terms}
    dim = len(terms[-1][0]) if kind == "mixed-unitary" else len(terms[-1])
    return {"format": io.FORMAT, "kind": kind, "dim": dim, "probs": [0.5, 0.5], key: terms}


_GALLERY_FILES = {"kraus": lambda: io.to_obj(weyl_channel(3)),
                  "mixed-unitary": lambda: io.to_obj(wh_sym3_decomposition()),
                  "toroidal": lambda: io.to_obj(toroidal_CtensorI2())}


@pytest.mark.parametrize("kind, case", [(k, c) for k in sorted(_TERM_CASES)
                                        for c in sorted(_TERM_CASES[k]) + ["gallery"]])
def test_file_reader_matches_per_matrix_loop(kind, case):
    if case == "gallery":
        obj = json.loads(json.dumps(_GALLERY_FILES[kind]()))
    else:
        obj = _file_obj(kind, copy.deepcopy(_TERM_CASES[kind][case]))
    new, old, _ = _FILE_READERS[kind]
    want = _object_outcome(old, obj)
    assert _object_outcome(new, obj) == want
    malformed = {"later_true", "later_string", "later_three_numbers"}
    assert want[0] == ("error" if case in malformed or case.startswith(("two", "not")) else "object")
    if case in malformed:
        assert want[1] == "FileFormatError" and want[3] == "f.json"


@pytest.mark.parametrize("thing", [weyl_channel(3), wh_sym3_decomposition()],
                         ids=["channel", "decomposition"])
def test_save_writes_dumps_text(tmp_path, thing):
    p = tmp_path / "thing.json"
    io.save(thing, str(p))
    assert p.read_text(encoding="utf-8") == io.dumps(thing) + "\n"


@pytest.mark.parametrize("name", ["weyl:3", "gap:3:1", "wh0:3", "wh1:3", "wh0sym3", "wh0even:4",
                                  "wh0odd:5", "wh1anti:4", "corrB3", "corrC4", "ctensor2",
                                  "mubcorr:3", "mubdec:3"])
def test_dumps_is_the_checked_encoding(name):
    # the encoder's cycle check is skipped: the text is the same bytes
    thing = muchan.cli._gen_object(name)
    assert io.dumps(thing) == json.dumps(io.to_obj(thing), sort_keys=True)


def test_load_rejects_missing_format(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "correlation", "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(io.FileFormatError if hasattr(io, "FileFormatError") else Exception):
        io.load(str(p))


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    from muchan import FileFormatError
    with pytest.raises(FileFormatError):
        io.load(str(p))


def _load_decomposition_as_channel(tmp):
    path = str(tmp / "d.json")
    io.save(wh_sym3_decomposition(), path)
    return io.load_channel(path)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: io.load(str(tmp / "missing.json")), muchan.FileFormatError,
     "cannot read file: "),
    (_load_decomposition_as_channel, muchan.FileFormatError,
     "expected a channel file, found kind 'mixed-unitary'"),
    (lambda tmp: io.to_obj(3), TypeError, "cannot serialize int")],
    ids=["missing_file", "decomposition_as_channel", "to_obj_int"])
def test_io_refusals(tmp_path, call, error, message):
    with pytest.raises(error) as refused:
        call(tmp_path)
    assert str(refused.value).startswith(message)


# ---------------------------------------------------------------------- gen

def test_gen_to_stdout(capsys):
    code, obj = run_cli(capsys, "gen", "weyl:3")
    assert code == 0
    assert obj["kind"] == "kraus" and obj["dim_in"] == 3
    assert obj["format"] == "muchan/1"


def test_gen_unknown_name(capsys):
    code, obj = run_cli(capsys, "gen", "nosuch:1")
    assert code == 2
    assert obj["error"]["code"] == "invalid"


@pytest.mark.parametrize("name, message", [
    ("gap:3:x", "non-integer parameter in gallery name 'gap:3:x'"),
    ("gap:3:0", "m must be a positive integer, got 0"),
])
def test_gen_bad_parameter(name, message, capsys):
    code, obj = run_cli(capsys, "gen", name)
    assert code == 2
    assert obj["error"] == {"code": "invalid", "message": message, "path": None}


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_gen_unwritable_output_is_format_error(tmp_path, capsys, target):
    # a file under a missing directory, or a directory: one JSON object that
    # names the path, exit 2, no traceback
    out = tmp_path / "missing" / "w.json" if target == "missing_dir" else tmp_path
    code, obj = run_cli(capsys, "gen", "weyl:3", "-o", str(out))
    assert code == 2
    assert obj["error"]["code"] == "format" and obj["error"]["path"] == str(out)
    assert obj["error"]["message"].startswith("cannot write file: ")


def test_numerical_error_exits_4(tmp_path, capsys, monkeypatch):
    def fail(*_):
        raise muchan.NumericalError("forced")

    p = tmp_path / "w.json"
    io.save(weyl_channel(3), str(p))
    monkeypatch.setattr(muchan.cli, "rank_bounds", fail)
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 4
    assert obj["error"] == {"code": "numerical", "message": "forced", "path": None}


def test_operator_system_svd_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fail(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    p = tmp_path / "w.json"
    io.save(weyl_channel(3), str(p))
    monkeypatch.setattr(np.linalg, "svd", fail)
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 4
    assert obj["error"] == {"code": "numerical", "path": None,
                            "message": "operator system SVD failed: SVD did not converge"}


def test_verify_refuses_a_nan_weight(tmp_path, capsys):
    # Python's json reads NaN; dropped as a small weight it would leave a
    # one-term decomposition that verifies
    cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
    io.save(identity_channel(2), str(cpath))
    obj = io.to_obj(MixedUnitaryDecomposition([0.5, 0.5], [np.eye(2), np.diag([1, -1])]))
    obj["probs"] = [1.0, float("nan")]
    dpath.write_text(json.dumps(obj))
    assert "NaN" in dpath.read_text()
    code, out = run_cli(capsys, "verify", str(cpath), str(dpath))
    assert code == 2
    assert out["error"] == {"code": "invalid", "message": "weights must be finite",
                            "path": None}


def test_gen_all_stable_names(tmp_path, capsys):
    names = ["weyl:3", "gap:3:1", "wh0:5", "wh1:6", "mubcorr:3", "corrB3",
             "corrC4", "ctensor2", "wh0sym3", "wh0even:4", "wh0odd:3",
             "wh1anti:4", "mubdec:2"]
    for i, name in enumerate(names):
        out = tmp_path / f"g{i}.json"
        code, obj = run_cli(capsys, "gen", name, "-o", str(out))
        assert code == 0, name
        io.load(str(out))


# ------------------------------------------------------------------ analyze

def test_analyze_weyl3(tmp_path, capsys):
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 0
    assert obj["r"] == 3 and obj["s"] == 7
    assert obj["uniqueness_certified"] is True
    assert obj["exact"] == 3
    assert obj["schur_equivalent"] is False


@pytest.mark.parametrize("make, reason", [
    (lambda: muchan.dephasing_channel(3), "s<=3"),
    (lambda: weyl_channel(3), "s=r^2-r+1"),
    (lambda: gap_channel(3, 1), None),
], ids=["dephasing3", "weyl3", "gap3"])
def test_analyze_reports_exact_reason(tmp_path, capsys, make, reason):
    p = tmp_path / "c.json"
    io.save(make(), str(p))
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 0
    assert obj["exact_reason"] == reason
    assert (obj["exact"] is None) == (reason is None)


@pytest.mark.parametrize("argv, r", [((), 2), (("--tol", "1e-6"), 1)],
                         ids=["default", "tol1e-6"])
def test_analyze_tol_moves_the_rank_cutoff(tmp_path, capsys, argv, r):
    # the Z term's Choi eigenvalue sits 1e-8 below the identity's: kept at
    # the default eps_rank 1e-9, dropped at 1e-6
    e = 1e-8
    p = tmp_path / "c.json"
    io.save(muchan.KrausChannel([np.sqrt(1 - e) * np.eye(2),
                                 np.sqrt(e) * np.diag([1.0, -1.0])]), str(p))
    code, obj = run_cli(capsys, "analyze", str(p), *argv)
    assert code == 0
    assert (obj["r"], obj["s"], obj["exact"]) == (r, r, r)


def test_parser_is_reused_without_carrying_options(tmp_path, capsys):
    # one parser serves every main call in a process: an option given to
    # one call must not leak into the next, nor a usage error break it
    e = 1e-8
    p = tmp_path / "c.json"
    io.save(muchan.KrausChannel([np.sqrt(1 - e) * np.eye(2),
                                 np.sqrt(e) * np.diag([1.0, -1.0])]), str(p))
    code, obj = run_cli(capsys, "analyze", str(p), "--no-such-option")
    assert code == 2 and obj["error"]["code"] == "usage"
    code, obj = run_cli(capsys, "analyze", str(p), "--tol", "1e-6")
    assert code == 0 and obj["r"] == 1
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 0 and obj["r"] == 2  # the default tolerance again
    code, obj = run_cli(capsys, "search", str(p), "--N", "2", "--scan")
    assert code == 2 and obj["error"]["code"] == "usage"
    assert "not allowed with argument" in obj["error"]["message"]
    assert muchan.cli._parser() is muchan.cli._parser()


@pytest.mark.parametrize("dim_in, dim_out", [(3, 3), (2, 3)])
def test_analyze_non_unital(tmp_path, capsys, dim_in, dim_out):
    # a random rank-2 channel is not unital; analyze still prints one JSON
    # object, with r and s and no rank bounds
    phi = muchan.gallery.random_channel(dim_in, dim_out, 2, seed=1)
    assert not phi.is_unital()
    p = tmp_path / "c.json"
    io.save(phi, str(p))
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 0
    assert obj["unital"] is False
    assert (obj["r"], obj["s"]) == (2, 4)
    assert obj["upper"] is None and obj["exact"] is None
    assert obj["exact_reason"] is None
    assert obj["schur_equivalent"] is (False if dim_in == dim_out else None)


def test_analyze_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("[]")
    code, obj = run_cli(capsys, "analyze", str(p))
    assert code == 2
    assert obj["error"]["code"] == "format"
    assert obj["error"]["path"] == str(p)


@pytest.mark.parametrize("operators", [5, None, True], ids=["number", "null", "true"])
@pytest.mark.parametrize("command", ["analyze", "verify", "zero-diag"])
def test_malformed_operators_field_is_format_error(tmp_path, capsys, command, operators):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": "muchan/1", "kind": "kraus", "dim_in": 1,
                             "dim_out": 1, "operators": operators}))
    argv = [command, str(p)] + ([str(p)] if command == "verify" else [])
    code, obj = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == 2
    assert obj["error"]["code"] == "format"
    assert obj["error"]["path"] == str(p)


@pytest.mark.parametrize("entry", [{"0": 1}, [1, 0, 7]], ids=["object", "three_numbers"])
@pytest.mark.parametrize("command", ["analyze", "zero-diag"])
def test_malformed_matrix_entry_is_format_error(tmp_path, capsys, command, entry):
    # every entry must be a two-element [re, im] list; an object used to
    # escape as a KeyError and a third number used to be dropped
    p = tmp_path / "bad.json"
    if command == "analyze":
        obj = {"format": "muchan/1", "kind": "kraus", "dim_in": 1, "dim_out": 1,
               "operators": [[[entry]]]}
    else:
        obj = {"format": "muchan/1", "kind": "matrix", "dim": 1, "matrix": [[entry]]}
    p.write_text(json.dumps(obj))
    code, out = run_cli(capsys, command, str(p))
    assert code == 2
    assert out["error"]["code"] == "format"
    assert out["error"]["path"] == str(p)


@pytest.mark.parametrize("entry", [{"0": 1}, [1, 0, 7], "12", 5])
def test_vector_literal_requires_pairs(entry):
    with pytest.raises(muchan.FileFormatError):
        io.vector_from_literal([[1.0, 0.0], entry])


_ID2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _decomposition_obj(**fields):
    obj = {"format": "muchan/1", "kind": "mixed-unitary", "dim": 2, "probs": [1.0],
           "unitaries": [_ID2]}
    return json.dumps(dict(obj, **fields))


def _matrix_text(entry_text):
    return ('{"format": "muchan/1", "kind": "matrix", "dim": 1, "matrix": [[['
            + entry_text + ', 0]]]}')


def _channel_text(entry_text):
    return ('{"format": "muchan/1", "kind": "kraus", "dim_in": 1, "dim_out": 1, '
            '"operators": [[[[' + entry_text + ', 0]]]]}')


_MALFORMED = {
    # (command, contents of the file under test)
    "not_utf8": ("analyze", b"\xff\xfe"),
    "not_utf8_matrix": ("zero-diag", b"\xff\xfe"),
    "deep_nesting": ("analyze", "[" * 100000),
    "int_digit_limit": ("zero-diag", _matrix_text("1" * 5000)),
    "float_overflow_matrix": ("zero-diag", _matrix_text("9" * 400)),
    "float_overflow_channel": ("analyze", _channel_text("9" * 400)),
    "string_entry": ("analyze", _channel_text('"1"')),
    "bool_entry": ("zero-diag", _matrix_text("true")),
    "probs_object": ("verify", _decomposition_obj(probs={"1": 2})),
    "probs_string": ("verify", _decomposition_obj(probs="1")),
    "probs_bool": ("verify", _decomposition_obj(probs=[True])),
    "probs_string_entry": ("verify", _decomposition_obj(probs=["1"])),
    "probs_overflow": ("verify", _decomposition_obj(probs=[10 ** 400])),
    "unitaries_object": ("verify", _decomposition_obj(unitaries={"a": _ID2})),
    "declared_dim": ("verify", _decomposition_obj(dim=7)),
    "declared_dim_bool": ("verify", _decomposition_obj(dim=True,
                                                        unitaries=[[[[1.0, 0.0]]]])),
    "matrix_declared_dim": ("zero-diag", json.dumps(
        {"format": "muchan/1", "kind": "matrix", "dim": 7,
         "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]})),
    "matrix_declared_dim_bool": ("zero-diag", _matrix_text("0").replace(
        '"dim": 1', '"dim": true')),
    "channel_declared_dims_bool": ("analyze", _channel_text("1").replace(
        '"dim_in": 1, "dim_out": 1', '"dim_in": true, "dim_out": true')),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_file_is_format_error(tmp_path, capsys, case):
    command, contents = _MALFORMED[case]
    p = tmp_path / "bad.json"
    if isinstance(contents, bytes):
        p.write_bytes(contents)
    else:
        p.write_text(contents, encoding="utf-8")
    if command == "verify":
        channel = tmp_path / "id2.json"
        io.save(identity_channel(2), str(channel))
        argv = [command, str(channel), str(p)]
    else:
        argv = [command, str(p)]
    code, out = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == 2
    assert out["error"]["code"] == "format"
    assert out["error"]["path"] == str(p)


def test_negative_weight_is_refused(tmp_path, capsys):
    # a weight below -eps_eq is refused, not dropped with the near-zero ones
    # to leave a one-term decomposition that verifies
    channel, dec = tmp_path / "id2.json", tmp_path / "d.json"
    io.save(identity_channel(2), str(channel))
    x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    dec.write_text(_decomposition_obj(probs=[1.0, -0.001], unitaries=[_ID2, x]))
    code, out = run_cli(capsys, "verify", str(channel), str(dec))
    assert code == 2
    assert out["error"]["code"] == "invalid"


def test_toroidal_declared_dim_must_match(tmp_path):
    p = tmp_path / "t.json"
    obj = io.toroidal_to_obj(toroidal_CtensorI2())
    p.write_text(json.dumps(dict(obj, dim=obj["dim"] + 1)))
    with pytest.raises(muchan.FileFormatError):
        io.load(str(p))


def test_toroidal_empty_vectors_exit_2(tmp_path, capsys):
    # zero-length vectors are invalid input: one JSON object, exit 2
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"format": "muchan/1", "kind": "toroidal", "dim": 0,
                             "probs": [1.0], "vectors": [[]]}))
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 2
    assert out["error"]["code"] == "invalid"


def _json_slots(node, out):
    """Every (container, key) below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out.append((node, key))
        _json_slots(child, out)
    return out


_FUZZ_TEXTS = {"channel": io.dumps(wh_channels(3).phi0),
               "decomposition": io.dumps(wh_sym3_decomposition())}


def _mutate(text: str, how: str, at: tuple) -> bytes:
    """``text`` with byte ``at[0]`` set to ``at[1]`` ("flip"), cut to its
    first ``at[0]`` bytes ("truncate"), or with the JSON values at slots
    ``at[0]`` and ``at[1]`` of ``_json_slots`` swapped ("swap")."""
    raw = text.encode("utf-8")
    if how == "flip":
        i, b = at
        return raw[:i] + bytes([b]) + raw[i + 1:]
    if how == "truncate":
        return raw[:at[0]]
    obj = json.loads(text)
    slots = _json_slots(obj, [])
    (ca, ka), (cb, kb) = (slots[i] for i in at)
    va, vb = copy.deepcopy(ca[ka]), copy.deepcopy(cb[kb])
    ca[ka], cb[kb] = vb, va
    return json.dumps(obj).encode("utf-8")


def _fuzz_case(rng):
    which = ["channel", "decomposition"][rng.integers(2)]
    how = ["flip", "truncate", "swap"][rng.integers(3)]
    text = _FUZZ_TEXTS[which]
    size = len(text.encode("utf-8"))
    if how == "flip":
        return which, how, (int(rng.integers(size)), int(rng.integers(256)))
    if how == "truncate":
        return which, how, (int(rng.integers(size)),)
    slots = len(_json_slots(json.loads(text), []))
    return which, how, tuple(int(i) for i in rng.integers(slots, size=2))


@pytest.mark.parametrize("which, how, at", seeded(_fuzz_case, 150))
def test_fuzzed_files_never_raise(which, how, at):
    # byte flips, truncations and swapped JSON values of saved files: the
    # CLI answers with one JSON object and an exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in _FUZZ_TEXTS.items():
            paths[name] = os.path.join(tmp, name + ".json")
            contents = _mutate(text, how, at) if name == which else text.encode("utf-8")
            with open(paths[name], "wb") as fh:
                fh.write(contents)
        argvs = [["verify", paths["channel"], paths["decomposition"]]]
        if which == "channel":
            argvs.append(["analyze", paths["channel"]])
        for argv in argvs:
            buf = io_.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            lines = buf.getvalue().splitlines()
            assert code in (0, 2, 3, 4)
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


def test_cli_imports_no_private_names():
    import ast
    tree = ast.parse(open(muchan.cli.__file__, encoding="utf-8").read())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# ------------------------------------------------------------ verify/search

def test_verify_wh0sym3_pipeline(tmp_path, capsys):
    cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
    code, _ = run_cli(capsys, "gen", "wh0:3", "-o", str(cpath))
    assert code == 0
    code, _ = run_cli(capsys, "gen", "wh0sym3", "-o", str(dpath))
    assert code == 0
    code, obj = run_cli(capsys, "verify", str(cpath), str(dpath))
    assert code == 0
    assert obj["ok"] is True and obj["choi_residual"] <= 1e-10


def test_verify_mismatch_exits_3(tmp_path, capsys):
    cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
    run_cli(capsys, "gen", "wh0:3", "-o", str(cpath))
    run_cli(capsys, "gen", "wh0even:4", "-o", str(dpath))
    code, obj = run_cli(capsys, "verify", str(cpath), str(dpath))
    assert code == 2  # dimension mismatch is an input error
    assert "error" in obj


def test_verify_wrong_decomposition_exits_3(tmp_path, capsys):
    import muchan
    cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
    io.save(muchan.dephasing_channel(3), str(cpath))
    d = muchan.MixedUnitaryDecomposition([1.0], [np.eye(3)])
    io.save(d, str(dpath))
    code, obj = run_cli(capsys, "verify", str(cpath), str(dpath))
    assert code == 3
    assert obj["ok"] is False


@pytest.mark.parametrize("e", [0.8e-9, 1e-9, 1.2e-9])
def test_verify_choi_rank_is_analyze_r(tmp_path, capsys, e):
    # X -> (1-e) X + e Z X Z sits at the rank cutoff; verify must count its
    # Choi rank by the rule analyze uses for r.  The two-term decomposition
    # (diag(e^{it}, e^{-it}) at weight 1/2 each, sin^2 t = e) keeps both
    # weights above the drop threshold.
    z = np.diag([1.0, -1.0]).astype(complex)
    phi = muchan.KrausChannel([np.sqrt(1 - e) * np.eye(2), np.sqrt(e) * z])
    t = np.arcsin(np.sqrt(e))
    d = muchan.MixedUnitaryDecomposition(
        [0.5, 0.5], [np.diag([np.exp(1j * t), np.exp(-1j * t)]),
                     np.diag([np.exp(-1j * t), np.exp(1j * t)])])
    cpath, dpath = tmp_path / "c.json", tmp_path / "d.json"
    io.save(phi, str(cpath))
    io.save(d, str(dpath))
    code, verified = run_cli(capsys, "verify", str(cpath), str(dpath))
    assert code == 0 and verified["ok"] is True
    code, analyzed = run_cli(capsys, "analyze", str(cpath))
    assert code == 0
    assert verified["choi_rank"] == analyzed["r"]


def test_search_fixed_n(tmp_path, capsys):
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--N", "3",
                        "--restarts", "5", "--seed", "0")
    assert code == 0
    assert obj["status"] == "found"
    assert obj["decomposition"]["kind"] == "mixed-unitary"
    assert len(obj["restart_log"]) >= 1


def test_search_not_found_exits_3(tmp_path, capsys):
    from muchan.gallery import gap_channel
    p = tmp_path / "c.json"
    io.save(gap_channel(3, 1), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--N", "4",
                        "--restarts", "4", "--seed", "0")
    assert code == 3
    assert obj["status"] == "not_found"


@pytest.mark.parametrize("how", ["reader", "residual"])
def test_search_found_without_a_verified_decomposition_exits_3(how, tmp_path, capsys,
                                                                demote_found):
    demote_found(how)
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--N", "3",
                        "--restarts", "5", "--seed", "0")
    assert code == 3
    assert (obj["status"], obj["decomposition"]) == ("not_found", None)


def test_search_near_cutoff_exits_3_when_verify_would(tmp_path, capsys):
    # the minimal list of near_cutoff_channel(17) drops its sin(t) operator,
    # and the one-term decomposition of that list misses the channel in the
    # file by more than eps_eq: search must not print it as found
    p = str(tmp_path / "near17.json")
    io.save(near_cutoff_channel(17), p)
    code, obj = run_cli(capsys, "search", p, "--N", "1", "--restarts", "2")
    assert (code, obj["status"], obj["decomposition"]) == (3, "not_found", None)


def test_search_result_reads_back_through_verify(tmp_path, capsys):
    # one restart cut off at 20 iterations reaches OBJECTIVE_TOL before its
    # unitaries meet eps_eq: not found.  A found result's decomposition,
    # written to a file, verifies against the channel
    g, dec = str(tmp_path / "g.json"), tmp_path / "dec.json"
    assert run_cli(capsys, "gen", "gap:3:1", "-o", g)[0] == 0
    code, obj = run_cli(capsys, "search", g, "--N", "6", "--restarts", "1",
                        "--max-iters", "20")
    assert (code, obj["status"], obj["decomposition"]) == (3, "not_found", None)
    assert obj["objective"] <= muchan.search.OBJECTIVE_TOL
    code, obj = run_cli(capsys, "search", g, "--N", "6", "--restarts", "5")
    assert (code, obj["status"]) == (0, "found")
    dec.write_text(json.dumps(obj["decomposition"]))
    code, obj = run_cli(capsys, "verify", g, str(dec))
    assert (code, obj["ok"]) == (0, True)


def test_search_non_unital_exits_2(tmp_path, capsys):
    # amplitude damping: trace-preserving, not unital, so no decomposition
    # exists and search --N refuses it as search --scan does
    p = tmp_path / "ad.json"
    io.save(KrausChannel([np.array([[1, 0], [0, 0.8]]), np.array([[0, 0.6], [0, 0]])]),
            str(p))
    for mode, who in ((("--N", "2"), "search_isometry"), (("--scan",), "rank_bounds")):
        code, obj = run_cli(capsys, "search", str(p), *mode, "--restarts", "2")
        assert code == 2
        assert obj["error"]["code"] == "invalid"
        assert obj["error"]["message"].startswith(f"{who} requires a unital channel")


def test_search_gap_at_six(tmp_path, capsys):
    p = tmp_path / "gap.json"
    code, _ = run_cli(capsys, "gen", "gap:3:1", "-o", str(p))
    assert code == 0
    code, obj = run_cli(capsys, "search", str(p), "--N", "6",
                        "--restarts", "10", "--seed", "0")
    assert code == 0
    assert obj["status"] == "found"
    assert len(obj["decomposition"]["unitaries"]) == 6


@pytest.mark.parametrize("option, value", [
    ("--seed", "-1"), ("--time-budget", "nan"), ("--time-budget", "-1")])
def test_search_bad_config_exits_2(tmp_path, capsys, option, value):
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--N", "3", option, value)
    assert code == 2
    assert obj["error"]["code"] == "invalid"


def test_search_scan(tmp_path, capsys):
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--scan",
                        "--restarts", "5", "--seed", "0")
    assert code == 0
    assert obj["N_found"] == 3
    assert obj["bounds"]["r"] == 3


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("mode", [("--N", "6"), ("--scan",)], ids=["N", "scan"])
def test_search_with_no_finished_restart_emits_json(tmp_path, capsys, mode):
    # a zero time budget finishes no restart, so each objective is inf: it
    # is emitted as null, never as the non-JSON Infinity
    p = tmp_path / "gap.json"
    io.save(gap_channel(3, 1), str(p))
    code = main(["search", str(p), *mode, "--time-budget", "0"])
    obj = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 3
    results = obj["results"] if mode == ("--scan",) else [obj]
    assert [res["N"] for res in results][0] == (4 if mode == ("--scan",) else 6)
    for res in results:
        assert res["status"] == "budget_exhausted"
        assert (res["objective"], res["restart_log"]) == (None, [])


def test_search_reports_reproducible(tmp_path, capsys, monkeypatch):
    from muchan import search
    p = tmp_path / "c.json"
    io.save(weyl_channel(3), str(p))
    outs = []
    for block in (search._BLOCK, search._BLOCK, 1):  # one-restart blocks must match
        monkeypatch.setattr(search, "_BLOCK", block)
        code, obj = run_cli(capsys, "search", str(p), "--N", "3",
                            "--restarts", "4", "--seed", "7")
        assert code == 0
        obj.pop("timestamp")
        outs.append(json.dumps(obj, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_search_reports_restart_trace(tmp_path, capsys):
    p = tmp_path / "gap.json"
    io.save(gap_channel(3, 1), str(p))
    code, obj = run_cli(capsys, "search", str(p), "--scan",
                        "--restarts", "3", "--seed", "0")
    assert code == 0
    for res in obj["results"]:
        trace = res["restart_trace"]
        assert [t["objective"] for t in trace] == res["restart_log"]
        assert [t["index"] for t in trace] == list(range(len(trace)))
        for t in trace:
            assert set(t) == {"index", "seed", "iterations", "evaluations",
                              "stop", "objective"}
    assert obj["results"][-1]["restart_trace"][-1]["stop"] == "target"


# ---------------------------------------------------------------- zero-diag

def test_zero_diag_command(tmp_path, capsys):
    p = tmp_path / "z.json"
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z -= np.trace(z) / 4 * np.eye(4)
    with open(p, "w") as fh:
        json.dump(io.matrix_obj(z), fh)
    code, obj = run_cli(capsys, "zero-diag", str(p))
    assert code == 0
    u = io.matrix_from_literal(obj["unitary"])
    assert obj["residual"] <= 1e-8 * np.linalg.norm(z)
    assert np.max(np.abs(np.diag(u @ z @ u.conj().T))) <= 1e-8 * np.linalg.norm(z)


def test_zero_diag_rejects_nonzero_trace(tmp_path, capsys):
    p = tmp_path / "z.json"
    with open(p, "w") as fh:
        json.dump(io.matrix_obj(np.eye(2)), fh)
    code, obj = run_cli(capsys, "zero-diag", str(p))
    assert code == 2
    assert obj["error"]["code"] == "invalid"


def test_zero_diag_rejects_non_square(tmp_path, capsys):
    p = tmp_path / "z.json"
    with open(p, "w") as fh:
        json.dump(io.matrix_obj(np.zeros((2, 3))), fh)
    code, obj = run_cli(capsys, "zero-diag", str(p))
    assert code == 2
    assert obj["error"]["code"] == "invalid"


def test_zero_diag_has_no_seed_option(tmp_path, capsys):
    p = tmp_path / "z.json"
    with open(p, "w") as fh:
        json.dump(io.matrix_obj(np.diag([1.0, -1.0])), fh)
    code, obj = run_cli(capsys, "zero-diag", str(p), "--seed", "0")
    assert code == 2
    assert obj["error"]["code"] == "usage"


def test_usage_error_is_json(capsys):
    code = main(["search"])  # missing required arguments
    out = capsys.readouterr().out.strip()
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


def test_correlation_file_kind(tmp_path, capsys):
    p = tmp_path / "b3.json"
    io.save(corr_B3(), str(p))
    kind, c = io.load(str(p))
    assert kind == "correlation"
    assert np.array_equal(c, corr_B3())


# ------------------------------------------------------------- dependencies

def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(muchan.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, muchan.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
