"""Seeded content mutations of the three input readers: ``read_pgm``,
``basis_from_json`` and ``moments_from_json``.

Each reader parses a fixed-seed run of mutated documents: PGMs with bytes
replaced, inserted, deleted, cut off or repeated, and JSON documents with fields
dropped, duplicated, retyped or nested deeper, then perhaps cut off or given
bytes that are not UTF-8. Every parse must return, or raise a ``ValueError`` or
``RecursionError`` with a one-line message: those two are what
``imaging._read_input`` turns into one ``<kind> file <path>: <reason>`` line,
which a sample of the runs checks. What a reader accepts must be what the
document says: a PGM has its header's shape and levels of its maxval, a basis
and a moment document round-trip through their writers.
"""

import copy
import json
import random

import numpy as np
import pytest

from oracles import reference_pgm_header
from slepmoments import (
    DpssParams,
    FormatError,
    MomentSet,
    basis_from_json,
    basis_to_json,
    compute_dpss,
    moments_from_json,
    moments_to_json,
    read_pgm,
)
from slepmoments.imaging import _read_input

SEED = 1234
PGM_RUNS = 4000
JSON_RUNS = 1000
SAMPLE_EVERY = 50  # runs between the checks through _read_input


def _pgm(header: bytes, width: int, height: int, maxval: int) -> bytes:
    levels = np.random.default_rng(width * height + maxval).integers(0, maxval + 1,
                                                                     (height, width))
    return header + levels.astype(np.uint8 if maxval < 256 else ">u2").tobytes()


# 8- and 16-bit images whose headers hold comments and each of the six whitespace
# bytes: space, tab, newline, CR, VT and FF
_PGMS = [
    _pgm(b"P5\n4 3\n255\n", 4, 3, 255),
    _pgm(b"P5 2 2 15\n", 2, 2, 15),
    _pgm(b"P5\n# comment\n3 2\n# another\n255\n", 3, 2, 255),
    _pgm(b"P5\t3\t3\t200\t", 3, 3, 200),
    _pgm(b"P5\r\n2 3\r\n255\r", 2, 3, 255),
    _pgm(b"P5\x0b2\x0c2\x0b100\x0c", 2, 2, 100),
    _pgm(b"P5\n2 2\n65535\n", 2, 2, 65535),
    _pgm(b"P5\n#c\r\n3 1 300\n", 3, 1, 300),
    _pgm(b"P5 1 1 256\t", 1, 1, 256),
    _pgm(b"P5\n# x\x0b\x0cy\n5\x0b1\n1000\n", 5, 1, 1000),
    _pgm(b"P5#\n1\n1\n1\n", 1, 1, 1),
    _pgm(b"P5\n\n\n  6 1 #w\n 255 ", 6, 1, 255),
]
_PGM_BYTES = b" \t\n\r\x0b\x0c#0123456789P5\x00\xff-+_"
_PGM_RUNS = [b"#", b"# c\n", b"\n", b"0", b"999999", b"\r"]


def _mutate_pgm(rng: random.Random, data: bytes) -> bytes:
    """One to three byte edits: replace, insert, delete, cut off, repeat a run, or
    insert a comment, newline or digits."""
    b = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op, i = rng.randrange(6), rng.randrange(len(b) + 1)
        byte = rng.choice(_PGM_BYTES) if rng.random() < 0.7 else rng.randrange(256)
        if op == 0 and i < len(b):
            b[i] = byte
        elif op == 1:
            b.insert(i, byte)
        elif op == 2 and i < len(b):
            del b[i]
        elif op == 3:
            del b[i:]
        elif op == 4:
            b[i:i] = b[i:rng.randrange(i, len(b) + 1)]
        else:
            b[i:i] = rng.choice(_PGM_RUNS)
    return bytes(b)


# what a retyped field becomes: bools, strings, null, lists, objects, and numbers
# signed, fractional, huge, past the float range and not finite
_VALUES = [True, False, None, "", "x", [], [1.0], {}, {"n": 1}, 0, -1, 3, 2.5, -0.0, 1e308,
           2**63, 10**400, float("nan"), float("inf"), -float("inf")]
# bytes a document may be given: not UTF-8 (a stray byte, a cut sequence, a
# surrogate), a byte order mark, and arrays nested past any reader's depth
_SPLICES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"[" * 100_000,
            b"[" * 70 + b"1" + b"]" * 70]

# the pools reach each refusal of a JSON reader: of the document, of its JSON
# syntax, of its UTF-8 and of its depth
_JSON_REFUSALS = {"FormatError", "JSONDecodeError", "UnicodeDecodeError", "RecursionError"}


def _nodes(value, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _mutate_json(rng: random.Random, doc) -> bytes:
    """One to three structural edits of a copy of ``doc``: drop, duplicate, retype or
    nest a value one level deeper; then perhaps cut off the text or splice in bytes."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(doc)))
        op = rng.randrange(4)
        if not path:
            doc = [doc] if op == 3 else copy.deepcopy(rng.choice(_VALUES))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == 0:
            del parent[key]
        elif op == 1 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == 1:  # another field of the object takes a copy of this one
            parent[rng.choice(list(parent))] = copy.deepcopy(parent[key])
        elif op == 2:
            parent[key] = copy.deepcopy(rng.choice(_VALUES))
        else:
            parent[key] = [parent[key]]
    data = json.dumps(doc, indent=1).encode()
    roll = rng.random()
    if roll < 0.15:
        data = data[:rng.randrange(len(data) + 1)]
    elif roll < 0.3:
        i = rng.randrange(len(data) + 1)
        data = data[:i] + rng.choice(_SPLICES) + data[i:]
    return data


def _fuzz(tmp_path, parse, kind, runs, draw):
    """Parse ``runs`` drawn documents; yield each document and what its parse gave,
    the result or the refusal. Nothing else may escape, and each SAMPLE_EVERY-th
    document is read through ``_read_input`` too."""
    rng = random.Random(SEED)
    path = tmp_path / "input"
    for i in range(runs):
        data = draw(rng)
        try:
            outcome = parse(data)
        except (ValueError, RecursionError) as exc:
            outcome = exc
            assert "\n" not in str(exc), data
        except Exception as exc:
            pytest.fail(f"{data[:200]!r} raised {type(exc).__name__}: {exc}")
        if i % SAMPLE_EVERY == 0:
            path.write_bytes(data)
            if isinstance(outcome, Exception):
                with pytest.raises(FormatError) as raised:
                    _read_input(path, parse, kind)
                assert str(raised.value) == f"{kind} file {path}: {outcome}"
            else:
                assert type(_read_input(path, parse, kind)) is type(outcome)
        yield data, outcome


def test_mutated_pgms_are_refused_in_one_line_or_read_as_their_header_says(tmp_path):
    accepted = 0  # the rest are refused
    for data, image in _fuzz(tmp_path, read_pgm, "image", PGM_RUNS,
                             lambda rng: _mutate_pgm(rng, rng.choice(_PGMS))):
        if isinstance(image, Exception):
            continue
        accepted += 1
        width, height, maxval = map(int, reference_pgm_header(data)[1:])
        assert image.pixels.shape == (height, width)
        # each pixel is an integer level over maxval, as the division rounds it
        levels = np.rint(image.pixels * maxval)
        assert np.array_equal(levels / maxval, image.pixels) and levels.max() <= maxval
    assert accepted > PGM_RUNS // 10


def test_mutated_bases_are_refused_in_one_line_or_round_trip(tmp_path):
    basis = compute_dpss(DpssParams(n_len=8, half_bandwidth=0.2, n_seq=3))
    doc = json.loads("".join(basis_to_json(basis)))
    accepted, refusals = 0, set()
    for _, got in _fuzz(tmp_path, basis_from_json, "basis", JSON_RUNS,
                        lambda rng: _mutate_json(rng, doc)):
        if isinstance(got, Exception):
            refusals.add(type(got).__name__)
            continue
        accepted += 1
        p = got.params
        assert got.sequences.shape == (p.n_seq, p.n_len)
        again = basis_from_json("".join(basis_to_json(got)))
        assert again.params == p
        assert again.sequences.tobytes() == got.sequences.tobytes()
        assert again.eigenvalues.tobytes() == got.eigenvalues.tobytes()
    assert accepted > 0 and refusals == _JSON_REFUSALS


def test_mutated_moment_documents_are_refused_in_one_line_or_round_trip(tmp_path):
    values = np.array([[1.5 - 0.0j, -0.25 + 2j, complex(-0.0, 0.0)],
                       [3e-300 + 1e300j, 0j, -1 - 1j]])
    doc = json.loads(moments_to_json(MomentSet(2, 1, values, (8, 16), "dpss-n8")))
    accepted, refusals = 0, set()
    for _, ms in _fuzz(tmp_path, moments_from_json, "moment", JSON_RUNS,
                       lambda rng: _mutate_json(rng, doc)):
        if isinstance(ms, Exception):
            refusals.add(type(ms).__name__)
            continue
        accepted += 1
        text = moments_to_json(ms)
        again = moments_from_json(text)
        assert moments_to_json(again) == text
        assert again.values.tobytes() == ms.values.tobytes()
        assert (again.grid, again.basis_id) == (ms.grid, ms.basis_id)
    assert accepted > 0 and refusals == _JSON_REFUSALS
