import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNREADABLE_JSON, traced_peak_arrays
from mssmf import ValidationError
from mssmf.matio import (
    load_matrix,
    quantize_unit,
    read_csv_matrix,
    read_manifest,
    read_raw64,
    write_csv_matrix,
    write_manifest,
    write_pgm,
    write_raw64,
)


class TestCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        mat = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        path = tmp_path / "m.csv"
        write_csv_matrix(path, mat)
        np.testing.assert_array_equal(read_csv_matrix(path), mat)

    def test_layout_contract(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv_matrix(path, np.array([[1.5, -2.0], [0.25, 3.0]]))
        blob = path.read_bytes()
        assert blob == b"1.5,-2.0\n0.25,3.0\n"
        assert b"\r" not in blob

    def test_single_row_stays_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv_matrix(path, np.array([[1.0, 2.0, 3.0]]))
        assert read_csv_matrix(path).shape == (1, 3)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(ValidationError, match="malformed"):
            read_csv_matrix(path)

    @pytest.mark.parametrize(
        "text", ["", "\n\n", "# no data\n"], ids=["empty", "blank", "comment"]
    )
    def test_no_data_is_only_a_validation_error(self, tmp_path, text):
        # the refusal alone: numpy's "input contained no data" warning does
        # not come first
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="empty CSV matrix"):
                read_csv_matrix(path)


_WRITERS = {"csv": write_csv_matrix, "raw64": write_raw64}
_NOT_READABLE = {
    "no_rows": np.zeros((0, 3)),
    "no_columns": np.zeros((3, 0)),
    "1d": np.ones(3),
    "0d": np.float64(2.0),
    "3d": np.ones((2, 3, 4)),
}


@pytest.mark.parametrize("mat", sorted(_NOT_READABLE))
@pytest.mark.parametrize("suffix", sorted(_WRITERS))
def test_writers_refuse_what_readers_refuse(tmp_path, suffix, mat):
    # what the readers would refuse (an empty matrix) or read back as
    # another shape (a 1-D or 0-d array as one row) is refused before a
    # file is opened, so no file is left behind
    arg = _NOT_READABLE[mat]
    shape = re.escape(str(arg.shape))
    with pytest.raises(ValidationError, match=f"matrix: .*got shape {shape}"):
        _WRITERS[suffix](tmp_path / f"m.{suffix}", arg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suffix", sorted(_WRITERS))
def test_writers_keep_non_finite_entries(tmp_path, suffix):
    # trace.csv holds a NaN bound after a non-finite stop
    mat = np.array([[1.0, np.nan], [np.inf, -np.inf]])
    path = tmp_path / f"m.{suffix}"
    _WRITERS[suffix](path, mat)
    np.testing.assert_array_equal(load_matrix(path), mat)


class TestRaw64:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mat = rng.normal(size=(9, 4))
        path = tmp_path / "m.raw64"
        write_raw64(path, mat)
        got = read_raw64(path)
        assert got.shape == (9, 4)
        assert np.array_equal(
            got.view(np.uint64), mat.view(np.uint64)
        ), "bit patterns must survive"

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=24,
        )
    )
    def test_round_trip_arbitrary_finite_doubles(self, tmp_path_factory, vals):
        tmp = tmp_path_factory.mktemp("raw")
        mat = np.asarray(vals)[None, :]
        path = tmp / "m.raw64"
        write_raw64(path, mat)
        assert np.array_equal(read_raw64(path).view(np.uint64), mat.view(np.uint64))

    def test_byte_length_contract(self, tmp_path, rng):
        mat = rng.normal(size=(3, 5))
        path = tmp_path / "m.raw64"
        write_raw64(path, mat)
        assert path.stat().st_size == 8 * 3 * 5
        sidecar = json.loads((tmp_path / "m.raw64.json").read_text())
        assert sidecar == {"rows": 3, "cols": 5}

    @pytest.mark.parametrize("layout", ["fortran", "float32", "big_endian", "strided"])
    def test_any_layout_writes_little_endian_row_major(self, tmp_path, rng, layout):
        mat = rng.normal(size=(6, 8))
        arg = {
            "fortran": np.asfortranarray(mat),
            "float32": mat.astype(np.float32),
            "big_endian": mat.astype(">f8"),
            "strided": np.repeat(mat, 2, axis=1)[:, ::2],
        }[layout]
        path = tmp_path / "m.raw64"
        write_raw64(path, arg)
        assert path.read_bytes() == np.asarray(arg, dtype="<f8").tobytes(order="C")

    def test_reads_into_one_native_array(self, tmp_path, rng):
        mat = rng.normal(size=(200, 500))
        path = tmp_path / "m.raw64"
        write_raw64(path, mat)
        got = read_raw64(path)
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.c_contiguous and got.flags.writeable
        # the payload goes straight into the returned array, and the write
        # sends the array's own buffer: no second copy either way
        assert traced_peak_arrays(lambda: read_raw64(path), mat.shape) < 1.1
        assert traced_peak_arrays(lambda: write_raw64(path, mat), mat.shape) < 0.1

    def test_truncated_payload_rejected(self, tmp_path, rng):
        mat = rng.normal(size=(4, 4))
        path = tmp_path / "m.raw64"
        write_raw64(path, mat)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="expected exactly"):
            read_raw64(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "m.raw64"
        write_raw64(path, rng.normal(size=(4, 4)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValidationError, match="expected exactly 128 bytes for 4x4, found 136$"):
            read_raw64(path)

    def test_sidecar_checked_before_payload(self, tmp_path, rng):
        path = tmp_path / "m.raw64"
        write_raw64(path, rng.normal(size=(2, 2)))
        path.write_bytes(b"")
        (tmp_path / "m.raw64.json").write_text('{"rows": 0, "cols": 2}')
        with pytest.raises(ValidationError, match="non-positive dimensions"):
            read_raw64(path)

    def test_bad_sidecar_rejected(self, tmp_path, rng):
        path = tmp_path / "m.raw64"
        write_raw64(path, rng.normal(size=(2, 2)))
        (tmp_path / "m.raw64.json").write_text('{"rows": 2}')
        with pytest.raises(ValidationError, match="sidecar"):
            read_raw64(path)

    @pytest.mark.parametrize(
        "sidecar",
        [
            '{"rows": 2.7, "cols": 3}',
            '{"rows": true, "cols": 6}',
            '{"rows": "2", "cols": 3}',
            '{"rows": 6, "cols": 1.0}',
        ],
        ids=["fractional", "bool", "string", "integral_float"],
    )
    def test_non_integer_sidecar_dims_rejected(self, tmp_path, rng, sidecar):
        # a 6-entry payload, so each of these would otherwise read as a matrix
        path = tmp_path / "m.raw64"
        write_raw64(path, rng.normal(size=(2, 3)))
        (tmp_path / "m.raw64.json").write_text(sidecar)
        with pytest.raises(ValidationError, match="sidecar"):
            read_raw64(path)

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_unreadable_sidecar_rejected(self, tmp_path, fault):
        path = tmp_path / "m.raw64"
        write_raw64(path, np.ones((2, 2)))
        (tmp_path / "m.raw64.json").write_bytes(UNREADABLE_JSON[fault])
        with pytest.raises(ValidationError, match="m.raw64.json: malformed sidecar"):
            read_raw64(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            read_raw64(tmp_path / "absent.raw64")

    def test_suffix_dispatch(self, tmp_path, rng):
        mat = rng.normal(size=(2, 6))
        write_csv_matrix(tmp_path / "a.csv", mat)
        write_raw64(tmp_path / "a.raw64", mat)
        np.testing.assert_array_equal(load_matrix(tmp_path / "a.csv"), mat)
        np.testing.assert_array_equal(load_matrix(tmp_path / "a.raw64"), mat)


class TestManifest:
    def test_round_trip_identity(self, tmp_path):
        doc = {
            "kind": "test",
            "seed": 7,
            "values": [1.5, 2.25, -3.0],
            "nested": {"z": 1, "a": [True, None]},
            "inf_ok": float("inf"),
        }
        path = tmp_path / "m.json"
        write_manifest(path, doc)
        once = read_manifest(path)
        write_manifest(path, once)
        twice = read_manifest(path)
        # a non-finite float is stored as the string float() reads back
        assert once == twice == {**doc, "inf_ok": "inf"}
        assert float(once["inf_ok"]) == float("inf")

    def test_identical_content_identical_bytes(self, tmp_path):
        doc = {"b": 2.5, "a": [1, 2, 3]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(p1, doc)
        write_manifest(p2, {"a": [1, 2, 3], "b": 2.5})
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_finite_floats_are_strict_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = {"a": [float("inf"), -float("inf"), float("nan")], "b": {"c": (1.5, np.inf)}}
        path = tmp_path / "m.json"
        write_manifest(path, doc)
        got = json.loads(path.read_text(), parse_constant=reject)
        assert got == {"a": ["inf", "-inf", "nan"], "b": {"c": [1.5, "inf"]}}
        assert np.isnan(float(got["a"][2]))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="malformed"):
            read_manifest(path)
        path.write_text("[1,2]")
        with pytest.raises(ValidationError, match="object"):
            read_manifest(path)

    @pytest.mark.parametrize("fault", sorted(UNREADABLE_JSON))
    def test_unreadable_rejected(self, tmp_path, fault):
        path = tmp_path / "bad.json"
        path.write_bytes(UNREADABLE_JSON[fault])
        with pytest.raises(ValidationError, match="bad.json: malformed manifest"):
            read_manifest(path)


class TestPgm:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, 3, 2, np.arange(6, dtype=np.uint8))
        blob = path.read_bytes()
        assert blob == b"P5\n3 2\n255\n" + bytes(range(6))

    def test_raster_bytes_follow_the_header(self, tmp_path, rng):
        vals = rng.integers(0, 256, size=40, dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, 8, 5, vals)
        assert path.read_bytes() == b"P5\n8 5\n255\n" + vals.tobytes()

    def test_size_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "img.pgm", 4, 4, np.zeros(15, dtype=np.uint8))

    def test_dtype_enforced(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(tmp_path / "img.pgm", 2, 2, np.zeros(4))

    def test_quantize_rounds_and_clamps(self):
        vals = np.array([-0.1, 0.0, 0.5, 1.0, 1.2])
        got = quantize_unit(vals)
        np.testing.assert_array_equal(got, [0, 0, 128, 255, 255])
        assert got.dtype == np.uint8
