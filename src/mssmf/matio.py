"""Matrix files, manifests, and PGM images.

Two matrix encodings, chosen by file suffix: ".csv" is comma-separated
text (no header, LF endings, '.' decimal) and anything else is RAW64,
little-endian float64 in row-major order with a JSON sidecar at
path + ".json" holding {"rows": R, "cols": C} as JSON integers.
Manifests are strict JSON with sorted keys and a fixed layout so
identical content gives identical bytes; a non-finite float is stored
as the string "inf", "-inf" or "nan", which float() reads back.  Images
are binary 8-bit PGM.  Before opening a file the matrix writers refuse
what the readers refuse, all but 2-D and nonempty; NaN and inf are written.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

from .model import ValidationError, _floats, _matrix_shape


def _write_text(path, text: str) -> None:
    """text plus a final newline, LF line endings on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def write_csv_matrix(path, mat) -> None:
    a = _matrix_shape(mat, "write_csv_matrix's matrix")
    _write_text(path, "\n".join(",".join(repr(float(v)) for v in row) for row in a))


def read_csv_matrix(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            out = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed CSV matrix: {exc}") from None
    if out.size == 0:
        raise ValidationError(f"{path}: empty CSV matrix")
    return out


def write_raw64(path, mat) -> None:
    a = _matrix_shape(mat, "write_raw64's matrix")
    rows, cols = a.shape
    with open(path, "wb") as fh:
        # the array's own buffer, not a bytes copy of it
        fh.write(np.ascontiguousarray(a, dtype="<f8").data)
    sidecar = {"rows": int(rows), "cols": int(cols)}
    _write_text(str(path) + ".json", json.dumps(sidecar, sort_keys=True, separators=(", ", ": ")))


def _read_json(path, what: str):
    """The JSON document in a UTF-8 file; ValidationError naming the file
    if it is not UTF-8, not JSON, or nested deeper than the parser's
    recursion limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: malformed {what}: {exc}") from None


def read_raw64(path) -> np.ndarray:
    sidecar_path = str(path) + ".json"
    sidecar = _read_json(sidecar_path, "sidecar")
    dims = [sidecar.get(key) for key in ("rows", "cols")] if isinstance(sidecar, dict) else [None]
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValidationError(f"{sidecar_path}: sidecar must hold integer rows and cols")
    rows, cols = dims
    if rows < 1 or cols < 1:
        raise ValidationError(f"{sidecar_path}: non-positive dimensions")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 8 * rows * cols:
            raise ValidationError(
                f"{path}: expected exactly {8 * rows * cols} bytes for "
                f"{rows}x{cols}, found {size}"
            )
        # straight into the one array the caller gets; no bytes blob
        out = np.fromfile(fh, dtype="<f8", count=rows * cols)
    return out.reshape(rows, cols).astype(np.float64, copy=False)


def load_matrix(path) -> np.ndarray:
    if str(path).endswith(".csv"):
        return read_csv_matrix(path)
    return read_raw64(path)


def save_matrix(path, mat) -> None:
    """Write mat in the encoding :func:`load_matrix` reads back from path."""
    if str(path).endswith(".csv"):
        write_csv_matrix(path, mat)
    else:
        write_raw64(path, mat)


def _finite_json(value):
    """value with every non-finite float replaced by its str()."""
    if isinstance(value, float) and not np.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def write_manifest(path, doc: dict) -> None:
    _write_text(path, json.dumps(_finite_json(doc), sort_keys=True, indent=2, allow_nan=False))


def read_manifest(path) -> dict:
    doc = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: manifest must be a JSON object")
    return doc


def write_pgm(path, width: int, height: int, values: np.ndarray) -> None:
    """Binary 8-bit PGM with raster order matching the flat value order."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size != width * height:
        raise ValidationError(
            f"PGM raster needs {width * height} values, got {v.size}"
        )
    if v.dtype != np.uint8:
        raise ValidationError("PGM raster must be uint8")
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(v.tobytes())


def quantize_unit(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1]-ish to uint8 by round(255 v), clamped."""
    v = _floats(values, "quantize_unit's values")
    return np.clip(np.rint(255.0 * v), 0, 255).astype(np.uint8)
