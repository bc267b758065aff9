"""Property tests for the on-disk formats: any bytes parse or raise a package error.

Each file parser (FMMP checkpoints, FGRID and PGM images, dataset manifests
with their two FGRID record files, and the CSV record reader behind the
manifest and `report`'s run files) gets three kinds of input: arbitrary
bytes, a valid file with random edits, and a header assembled from plausible
and arbitrary tokens. A parse must succeed with a well-formed result or raise ConfigError, DimensionError or
NumericIntegrityError, which the CLI maps to exit codes 2 and 5. Config files
(arbitrary bytes) and `--set` overrides (known or arbitrary keys, arbitrary
values) must load with finite float values or raise ConfigError.

The FMMP and FGRID readers accept only the header their writer writes: a
valid file with line-level header edits must raise a package error or load
to a value that writes back to the same bytes.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from evorestore import cli, fmm
from evorestore.config import documented_keys, load_config
from evorestore.degrade import ManifestRow, SplitConfig, load_dataset, read_pgm, write_pgm
from evorestore.eos import TriggerSummary
from evorestore.errors import ConfigError, DimensionError, NumericIntegrityError
from evorestore.grids import read_fgrid, read_fgrids, write_fgrid, write_fgrids
from evorestore.trainer import EvalPoint, IterationRow
from evorestore.util import fmt, parse_cell, read_records, write_records

PACKAGE_ERRORS = (ConfigError, DimensionError, NumericIntegrityError)

PROPERTY = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# small numbers and non-numbers for header fields
TOKENS = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(["", "x", "1.5", "0x10", "1_0", "9" * 30, "nan", "-0", "٣"]),
    st.text(max_size=6),
)


def _edited(blob: bytes):
    """A valid blob with random byte overwrites (most edits), insertions and truncations."""

    def apply(edits):
        data = bytearray(blob)
        for kind, pos, byte in edits:
            pos %= len(data) + 1
            if kind < 4 and pos < len(data):
                data[pos] = byte
            elif kind == 4:
                data.insert(pos, byte)
            else:
                del data[pos:]
        return bytes(data)

    edit = st.tuples(st.integers(0, 5), st.integers(0, 1 << 16), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=4).map(apply)


def _header_mutants(blob: bytes, header_end: int):
    """`blob` with lines of its first `header_end` bytes inserted, deleted, replaced,
    duplicated, padded or given other line ends."""
    lines = blob[:header_end].splitlines(keepends=True)
    line = st.one_of(st.sampled_from(lines), TOKENS.map(lambda t: t.encode("utf-8") + b"\n"))
    pad = st.sampled_from([b" ", b"  ", b"\t", b"0", b"+", b"\0"])
    end = st.sampled_from([b"\r\n", b"\r", b"", b"\n\n", b" \n", b"\t\n"])

    def apply(edits):
        out = list(lines)
        for kind, i, new, p, e in edits:
            k = i % len(out) if out else 0
            if kind == 0 or not out:
                out.insert(i % (len(out) + 1), new)
            elif kind == 1:
                del out[k]
            elif kind == 2:
                out[k] = new
            elif kind == 3:
                out.insert(k, out[k])
            elif kind == 4:
                out[k] = p + out[k]
            elif kind == 5:
                out[k] = out[k].replace(b" ", b" " + p, 1) if b" " in out[k] else out[k] + p
            else:
                out[k] = out[k].rstrip(b"\r\n") + e
        return b"".join(out) + blob[header_end:]

    edit = st.tuples(st.integers(0, 6), st.integers(0, 16), line, pad, end)
    return st.lists(edit, min_size=1, max_size=3).map(apply)


def _expect_parse_or_package_error(parse, data):
    try:
        out = parse(data)
    except PACKAGE_ERRORS as exc:
        event(type(exc).__name__)
        return None
    event("parsed")
    return out


# ---------------------------------------------------------------------------
# FMMP
# ---------------------------------------------------------------------------

_FMMP = fmm.params_to_bytes(fmm.default_params(6, 6, mask_mode="radial_bins", n_bins=4))


def _fmmp_headers():
    def build(version, mask, spatial, kernel, spec, spat, payload):
        head = (
            f"FMMP {version}\nmask_mode {mask}\nspatial_mode {spatial}\n"
            f"kernel {kernel}\nspectral {spec}\nspatial {spat}\nDATA\n"
        )
        return head.encode("utf-8") + payload

    return st.builds(
        build,
        st.one_of(st.just("1"), TOKENS),
        st.sampled_from(["per_frequency", "radial_bins", "bogus"]),
        st.sampled_from(["per_pixel", "gap_affine", ""]),
        TOKENS,
        st.lists(TOKENS, max_size=3).map(" ".join),
        st.lists(TOKENS, max_size=3).map(" ".join),
        st.binary(max_size=96),
    )


@PROPERTY
@given(st.one_of(st.binary(max_size=256), _edited(_FMMP), _fmmp_headers()))
def test_params_from_bytes_parses_or_raises_a_package_error(data):
    p = _expect_parse_or_package_error(fmm.params_from_bytes, data)
    if p is not None:
        for block in (p.lowpass, p.spectral_logits, p.spatial_logits):
            assert block.dtype == np.float64 and np.all(np.isfinite(block))
        again = fmm.params_from_bytes(fmm.params_to_bytes(p))
        assert np.array_equal(again.spectral_logits, p.spectral_logits)


@PROPERTY
@given(_header_mutants(_FMMP, _FMMP.index(b"DATA\n") + 5))
def test_fmmp_header_mutants_raise_or_write_back_the_same_bytes(data):
    p = _expect_parse_or_package_error(fmm.params_from_bytes, data)
    assert p is None or fmm.params_to_bytes(p) == data


def test_params_from_bytes_rejects_non_finite_values():
    p = fmm.default_params(6, 6)
    p.spatial_logits[2, 3] = np.nan
    with pytest.raises(NumericIntegrityError):
        fmm.params_from_bytes(fmm.params_to_bytes(p))


# ---------------------------------------------------------------------------
# FGRID and PGM
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _grid():
    return np.linspace(0.0, 1.0, 12).reshape(3, 4)


def _fgrid_headers():
    def build(a, b, payload):
        return f"FGRID {a} {b}\n".encode("utf-8") + payload

    return st.builds(build, TOKENS, TOKENS, st.binary(max_size=128))


@PROPERTY
@given(data=st.data())
def test_read_fgrid_parses_or_raises_a_package_error(scratch, data):
    valid = scratch / "valid.fgrid"
    if not valid.exists():
        write_fgrid(valid, _grid())
    blob = data.draw(
        st.one_of(st.binary(max_size=256), _edited(valid.read_bytes()), _fgrid_headers())
    )
    path = scratch / "case.fgrid"
    path.write_bytes(blob)
    x = _expect_parse_or_package_error(read_fgrid, path)
    if x is not None:
        assert x.ndim == 2 and x.dtype == np.float64 and np.all(np.isfinite(x))


@PROPERTY
@given(data=st.data())
def test_fgrid_header_mutants_raise_or_write_back_the_same_bytes(scratch, data):
    valid = scratch / "valid.fgrid"
    if not valid.exists():
        write_fgrid(valid, _grid())
    blob = valid.read_bytes()
    path = scratch / "case.fgrid"
    path.write_bytes(data.draw(_header_mutants(blob, blob.index(b"\n") + 1)))
    x = _expect_parse_or_package_error(read_fgrid, path)
    if x is not None:
        write_fgrid(scratch / "again.fgrid", x)
        assert (scratch / "again.fgrid").read_bytes() == path.read_bytes()


def _records(*grids) -> bytes:
    """The bytes write_fgrids writes for `grids`."""
    return b"".join(b"FGRID %d %d\n" % g.shape + g.astype("<f8").tobytes() for g in grids)


# three records of two shapes, as a dataset's clean.fgrid may hold them
_RECORDS = (_grid(), _grid()[::-1].T.copy(), np.full((2, 2), 0.25))
_THREE = _records(*_RECORDS)
_NAN = _grid()
_NAN[2, 1] = np.nan


@PROPERTY
@given(
    st.one_of(
        st.binary(max_size=256),
        _edited(_THREE),
        _header_mutants(_records(*_RECORDS[1:]), len(b"FGRID 4 3\n")).map(
            lambda tail: _records(_RECORDS[0]) + tail  # the middle record's header edited
        ),
        st.lists(st.sampled_from(_RECORDS), max_size=4).map(lambda gs: _records(*gs)),
    )
)
@example(_THREE[:-5])  # payload cut short
@example(_records(_RECORDS[0]) + b"FGRID 4 x\n" + _records(_RECORDS[2]))  # bad middle header
@example(_THREE + b"FGRID 2")  # trailing partial header
@example(_THREE + b"\n")  # trailing empty line
@example(_records(_RECORDS[0], _NAN))  # a NaN record
@example(_records(_RECORDS[0], np.full((1, 1), np.inf)))  # an infinite record
@example(b"")  # empty file: no records
def test_read_fgrids_parses_or_raises_a_package_error(scratch, blob):
    path = scratch / "records.fgrid"
    path.write_bytes(blob)
    grids = _expect_parse_or_package_error(read_fgrids, path)
    if grids is not None:
        assert isinstance(grids, list)
        for x in grids:
            assert x.ndim == 2 and x.dtype == np.float64 and np.all(np.isfinite(x))
        write_fgrids(scratch / "again.fgrid", grids)
        assert (scratch / "again.fgrid").read_bytes() == blob


@pytest.mark.parametrize(
    "blob,message",
    [
        (_THREE[:-5], "record 2: FGRID payload is 27 bytes, expected 32"),
        (_records(_RECORDS[0]) + b"FGRID 4 x\n" + _records(_RECORDS[2]), "record 1: malformed"),
        (_THREE + b"FGRID 2", "record 3: malformed FGRID header b'FGRID 2'"),
        (_records(_RECORDS[0], _NAN), "record 1: FGRID holds NaN or infinite pixels"),
        (b"FGRID 999999999999 999999999999\n", "record 0: FGRID payload is 0 bytes"),
    ],
    ids=["truncated", "bad-middle-header", "partial-header", "nan-record", "huge-header"],
)
def test_read_fgrids_names_the_bad_record(tmp_path, blob, message):
    path = tmp_path / "bad.fgrid"
    path.write_bytes(blob)
    with pytest.raises(NumericIntegrityError, match=f"^{path}: {message}"):
        read_fgrids(path)


@pytest.mark.parametrize("n", [0, 2, 3])
def test_read_fgrid_rejects_a_file_without_exactly_one_record(tmp_path, n):
    path = tmp_path / "x.fgrid"
    path.write_bytes(_records(*_RECORDS[:n]))
    with pytest.raises(NumericIntegrityError, match=f"{n} FGRID records, expected 1"):
        read_fgrid(path)


_MASK, _SPATIAL = b"mask_mode radial_bins\n", b"spatial_mode per_pixel\n"
_FGRID_LINE = b"FGRID 3 4\n"
# header spellings int() and split() read but the writers never write
SPELLINGS = {
    "fmmp-plus-kernel": ("fmmp", lambda b: b.replace(b"kernel 5\n", b"kernel +5\n")),
    "fmmp-zero-padded-kernel": ("fmmp", lambda b: b.replace(b"kernel 5\n", b"kernel 05\n")),
    "fmmp-zero-padded-version": ("fmmp", lambda b: b.replace(b"FMMP 1\n", b"FMMP 01\n")),
    "fmmp-repeated-key": ("fmmp", lambda b: b.replace(b"kernel 5\n", b"kernel 5\n" * 2)),
    "fmmp-unknown-key": ("fmmp", lambda b: b.replace(b"DATA\n", b"colour red\nDATA\n", 1)),
    "fmmp-reordered-lines": ("fmmp", lambda b: b.replace(_MASK + _SPATIAL, _SPATIAL + _MASK)),
    "fmmp-crlf": ("fmmp", lambda b: b.replace(b"\n", b"\r\n", 6)),  # the six lines before DATA
    "fmmp-double-space": ("fmmp", lambda b: b.replace(b"spectral 4\n", b"spectral  4\n")),
    "fgrid-plus-height": ("fgrid", lambda b: b.replace(_FGRID_LINE, b"FGRID +3 4\n")),
    "fgrid-zero-padded-height": ("fgrid", lambda b: b.replace(_FGRID_LINE, b"FGRID 03 4\n")),
    "fgrid-tab": ("fgrid", lambda b: b.replace(_FGRID_LINE, b"FGRID\t3 4\n")),
    "fgrid-trailing-space": ("fgrid", lambda b: b.replace(_FGRID_LINE, b"FGRID 3 4 \n")),
    "fgrid-crlf": ("fgrid", lambda b: b.replace(_FGRID_LINE, b"FGRID 3 4\r\n")),
}


NOISE = ["--set", "degradation.specs=noise(sigma=0.1,seed=5)"]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert cli.main(["degrade", "--synthetic", "2", "--size", "8", *NOISE, "-o", str(out)]) == 0
    return out / "manifest.txt"


@pytest.mark.parametrize("name", SPELLINGS)
def test_header_spellings_the_writers_never_write_are_rejected(
    name, tiny_dataset, tmp_path, capsys
):
    fmt_name, edit = SPELLINGS[name]
    if fmt_name == "fmmp":
        blob = edit(_FMMP)
        assert blob != _FMMP
        with pytest.raises(NumericIntegrityError):
            fmm.params_from_bytes(blob)
        path = tmp_path / "bad.fmmp"
        path.write_bytes(blob)
        argv = ["eval", "--manifest", str(tiny_dataset), "--checkpoint", str(path)]
    else:
        images = tmp_path / "images"
        images.mkdir()
        path = images / "bad.fgrid"
        write_fgrid(path, _grid())
        path.write_bytes(edit(path.read_bytes()))
        assert not path.read_bytes().startswith(_FGRID_LINE)
        with pytest.raises(NumericIntegrityError):
            read_fgrid(path)
        argv = ["degrade", "--images", str(images), *NOISE]
    capsys.readouterr()
    assert cli.main([*argv, "-o", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("corrupt or inconsistent input: ") and "Traceback" not in err


def _pgm_headers():
    def build(magic, w, h, maxval, comment, payload):
        return f"{magic}\n{comment}{w} {h}\n{maxval}\n".encode("utf-8") + payload

    return st.builds(
        build,
        st.sampled_from(["P5", "P2", "P6"]),
        TOKENS,
        TOKENS,
        st.one_of(st.sampled_from(["255", "65535", "65536", "0"]), TOKENS),
        st.sampled_from(["", "# a comment\n", "#\n"]),
        st.binary(max_size=64),
    )


@PROPERTY
@given(data=st.data())
def test_read_pgm_parses_or_raises_a_package_error(scratch, data):
    blobs = []
    for maxval in (255, 65535):
        valid = scratch / f"valid{maxval}.pgm"
        if not valid.exists():
            write_pgm(valid, _grid(), maxval=maxval)
        blobs.append(valid.read_bytes())
    blob = data.draw(
        st.one_of(
            st.binary(max_size=256), _edited(blobs[0]), _edited(blobs[1]), _pgm_headers()
        )
    )
    path = scratch / "case.pgm"
    path.write_bytes(blob)
    x = _expect_parse_or_package_error(read_pgm, path)
    if x is not None:
        assert x.ndim == 2 and 0.0 <= x.min() and x.max() <= 1.0


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

HEADER = "index,kind,seed,clean"
OLD_HEADER = "index,kind,seed,clean_path,degraded_path"
GOOD_MANIFEST = f"{HEADER}\n0,noise,5,0\n1,blur,6,1\n2,noise,7,0\n".encode()


def _manifests():
    """Manifest text whose rows mostly carry their own index and name clean records in order
    of first use, with clean numbers out of range, negative or skipping ahead, and 0 to 4
    rows against the 3 degraded records; or arbitrary bytes."""
    field = st.one_of(TOKENS, st.sampled_from(["noise", "blur"]))
    number = st.one_of(*[st.integers(0, 9).map(str)] * 4, TOKENS)
    # None: row k names record min(k, 1), so three such rows name both clean records
    clean = st.one_of(*[st.none()] * 8, st.integers(-2, 4).map(str), TOKENS)
    row = st.builds(
        lambda own, idx, kind, seed, c, extra: lambda k: ",".join(
            [str(k) if own else idx, kind, seed, str(min(k, 1)) if c is None else c] + extra
        ),
        st.sampled_from([True] * 9 + [False]),
        number,
        field,
        number,
        clean,
        st.one_of(*[st.just([])] * 9, st.lists(TOKENS, min_size=1, max_size=1)),
    )
    rows = st.one_of(st.lists(row, min_size=3, max_size=3), st.lists(row, max_size=4))
    text = st.builds(
        lambda head, rows: "\n".join([head] + [r(k) for k, r in enumerate(rows)]) + "\n",
        st.sampled_from([HEADER] * 4 + [OLD_HEADER, HEADER + ",x", ""]),
        rows,
    )
    return st.one_of(st.binary(max_size=256), text.map(lambda t: t.encode("utf-8")))


@pytest.fixture(scope="module")
def dataset_dirs(tmp_path_factory):
    """Record files for the manifests: 2 clean and 3 degraded records of 3x4, and variants
    with a 4x3 degraded record, a NaN degraded record, or a clean file cut short."""
    a, b = _grid(), _grid()[::-1].copy()
    variants = {
        "ok": ([a, b], [a, b, a]),
        "shape": ([a, b], [a, b, a.T.copy()]),
        "nan": ([a, b], [a, _NAN, a]),
        "cut": ([a, b], [a, b, a]),
    }
    dirs = {}
    for name, (cleans, degraded) in variants.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        write_fgrids(dirs[name] / "clean.fgrid", cleans)
        write_fgrids(dirs[name] / "degraded.fgrid", degraded)
    cut = dirs["cut"] / "clean.fgrid"
    cut.write_bytes(cut.read_bytes()[:-8])
    return dirs


@PROPERTY
@given(name=st.sampled_from(["ok"] * 3 + ["shape", "nan", "cut"]), blob=_manifests())
@example(name="ok", blob=GOOD_MANIFEST)
@example(name="shape", blob=GOOD_MANIFEST)
@example(name="nan", blob=GOOD_MANIFEST)
@example(name="cut", blob=GOOD_MANIFEST)
@example(name="ok", blob=GOOD_MANIFEST.replace(b"2,noise,7,0", b"2,noise,7,2"))
@example(name="ok", blob=GOOD_MANIFEST.replace(b"1,blur,6,1", b"1,blur,6,2"))
@example(name="ok", blob=GOOD_MANIFEST.replace(b"2,noise,7,0\n", b""))
def test_load_dataset_parses_or_raises_a_package_error(dataset_dirs, name, blob):
    path = dataset_dirs[name] / "manifest.txt"
    path.write_bytes(blob)
    ds = _expect_parse_or_package_error(lambda p: load_dataset(p, SplitConfig()), path)
    if ds is not None:
        assert name == "ok" and len(ds.pairs) == 3
        assert sorted(ds.train_idx + ds.val_idx + ds.test_idx) == list(range(len(ds.pairs)))
        assert [row.index for row in ds.pairs] == list(range(len(ds.pairs)))
        for row in ds.pairs:
            assert isinstance(row.index, int) and isinstance(row.seed, int)
            assert row.clean.shape == row.degraded.shape == (3, 4)
            assert np.all(np.isfinite(row.clean)) and np.all(np.isfinite(row.degraded))


# ---------------------------------------------------------------------------
# CSV records (util.read_records)
# ---------------------------------------------------------------------------

RECORD_TYPES = (ManifestRow, TriggerSummary, IterationRow, EvalPoint)
# text cells that survive a write and a read: no comma, line break or edge whitespace
TEXT_CELL = st.text("abz09_./-", min_size=1, max_size=8)


def _cell_values(cls):
    """A strategy for the field values of one `cls` record."""
    by_type = {
        "int": st.integers(-(2**63), 2**63),
        "float": st.floats(allow_nan=False, allow_infinity=False),
        "str": TEXT_CELL,
    }
    return st.tuples(*[by_type[f.type] for f in fields(cls)])


def _record_texts(cls):
    """CSV text from a right or wrong header and rows of plausible and arbitrary cells."""
    header = ",".join(f.name for f in fields(cls))
    cell = st.one_of(
        *[st.integers(0, 9).map(str)] * 6,
        TOKENS,
        st.sampled_from(["inf", "-inf", "1e999", "0.5", "\0"]),
    )
    n = len(fields(cls))
    row = st.one_of(*[st.lists(cell, min_size=n, max_size=n)] * 3, st.lists(cell, max_size=n + 1))
    return st.builds(
        lambda head, rows, sep: sep.join([head] + [",".join(r) for r in rows]) + sep,
        st.sampled_from([header] * 4 + [header + ",x", header.replace(",", ";"), ""]),
        st.lists(row, max_size=3),
        st.sampled_from(["\n", "\r\n", "\n\n"]),
    ).map(lambda t: t.encode("utf-8"))


def _valid_blob(scratch, cls, values):
    path = scratch / "valid.csv"
    write_records(path, cls, [cls(*values)])
    return path.read_bytes()


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
@PROPERTY
@given(data=st.data())
def test_read_records_parses_or_raises_a_package_error(scratch, cls, data):
    blob = data.draw(
        st.one_of(
            st.binary(max_size=256),
            _record_texts(cls),
            _cell_values(cls).flatmap(lambda v: _edited(_valid_blob(scratch, cls, v))),
        )
    )
    path = scratch / "case.csv"
    path.write_bytes(blob)
    records = _expect_parse_or_package_error(lambda p: read_records(p, cls), path)
    for r in records or ():
        for f in fields(cls):
            value = getattr(r, f.name)
            assert type(value).__name__ == f.type, f.name
            assert f.type != "float" or math.isfinite(value)
            assert f.type != "str" or ("\0" not in value and "," not in value)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
@PROPERTY
@given(data=st.data())
def test_records_round_trip_bit_exactly(scratch, cls, data):
    records = [cls(*v) for v in data.draw(st.lists(_cell_values(cls), max_size=4))]
    path = scratch / "round.csv"
    write_records(path, cls, records)
    back = read_records(path, cls)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        for f in fields(cls):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            if f.type == "float":
                assert np.float64(x).tobytes() == np.float64(y).tobytes(), f.name
            else:
                assert x == y, f.name


def test_read_records_error_names_path_line_column_and_row(tmp_path):
    path = tmp_path / "eos_summary.csv"
    path.write_text(
        "trigger,winner_alpha,winner_beta,eval_ms,total_ms,evaluations\n"
        "\n"
        "1,0.5,0.5,2.5,nan,6\n"
    )
    with pytest.raises(NumericIntegrityError) as exc:
        read_records(path, TriggerSummary)
    assert str(exc.value) == (
        f"{path}:3: column 'total_ms': 'nan' is not a valid float, in row '1,0.5,0.5,2.5,nan,6'"
    )
    path.write_bytes(b"trigger\n1\n2\xff\n")
    with pytest.raises(NumericIntegrityError, match=r":3: not UTF-8 text in row b'2\\xff'"):
        read_records(path, TriggerSummary)


@pytest.mark.parametrize(
    "kind,text,value",
    [
        ("int", "0", 0), ("int", "7", 7), ("int", "-4", -4), ("int", str(2**70), 2**70),
        ("float", "0.1", 0.1), ("float", "-0.0", -0.0), ("float", "1e-05", 1e-05),
        ("float", "1.5e+20", 1.5e20), ("float", "5e-324", 5e-324), ("float", "3", 3.0),
        ("float", "-2.5E3", -2500.0),
    ],
)
def test_parse_cell_reads_what_fmt_writes(kind, text, value):
    got = parse_cell(kind, text)
    assert type(got).__name__ == kind and got == value
    assert kind != "float" or fmt(got) == repr(value)


# int() and float() read all of these, so one file could be spelt many ways
@pytest.mark.parametrize(
    "kind,text",
    [
        ("int", "+2"), ("int", "1_0"), ("int", " 3"), ("int", "3 "), ("int", "\u0661"),
        ("int", "007"), ("int", "-0"), ("int", ""), ("int", "1.0"),
        ("float", "1_0.5"), ("float", "\u0661.\u0665"), ("float", " 2.5"), ("float", "2.5\t"),
        ("float", "+2.5"), ("float", ".5"), ("float", "1."), ("float", "0x1p3"),
        ("float", "inf"), ("float", "nan"), ("float", "1e999"), ("float", ""),
    ],
)
def test_parse_cell_rejects_text_fmt_never_writes(kind, text):
    with pytest.raises(ValueError):
        parse_cell(kind, text)


def test_fmt_writes_integers_and_bools_exactly():
    assert [fmt(v) for v in (np.int64(3), np.uint8(255), np.int32(-4), 2**70, 7)] == [
        "3", "255", "-4", str(2**70), "7"
    ]
    assert [fmt(v) for v in (np.bool_(True), np.bool_(False), True, False)] == ["1", "0", "1", "0"]
    assert [fmt(v) for v in (0.1, np.float32(0.5), -0.0, "noise")] == ["0.1", "0.5", "-0.0", "noise"]


# ---------------------------------------------------------------------------
# Config file and --set overrides
# ---------------------------------------------------------------------------


def _assignments():
    key = st.one_of(st.sampled_from([k for k, _ in documented_keys()]), TOKENS)
    value = st.one_of(
        TOKENS,
        st.sampled_from(["inf", "-inf", "1e999", "none", "lowpass,spectral"]),
        st.builds(
            lambda kind, name, v: f"{kind}({name}={v})",
            st.sampled_from(["noise", "blur", "rain"]),
            st.sampled_from(["sigma", "kernel_sigma", "count", "seed"]),
            st.one_of(TOKENS, st.sampled_from(["0.5", "inf", "nan"])),
        ),
    )
    sep = st.sampled_from(["=", " = ", ""])
    return st.builds(lambda k, s, v: f"{k}{s}{v}", key, sep, value)


@PROPERTY
@given(overrides=st.lists(_assignments(), max_size=3), blob=st.binary(max_size=128))
@example(overrides=["trainer.learning_rate=inf"], blob=b"\x80")
@example(overrides=["eos.mutation_sigma=nan"], blob=b"trainer.init_alpha = nan\n")
@example(overrides=["degradation.specs=blur(kernel_sigma=inf)"], blob=b"")
def test_load_config_parses_or_raises_a_config_error(scratch, overrides, blob):
    path = scratch / "case.cfg"
    path.write_bytes(blob)
    for args in ((None, overrides), (str(path), ())):
        try:
            app = load_config(*args)
        except ConfigError as exc:
            event(type(exc).__name__)
            continue
        event("parsed")
        for cfg in (app.trainer, app.trainer.eos, app.dataset, *app.degradations):
            for f in fields(cfg):
                value = getattr(cfg, f.name)
                assert not isinstance(value, float) or math.isfinite(value), f.name
