"""Matrix files, manifests, and PGM images.

Two matrix encodings, chosen by file suffix: ".csv" is comma-separated
text (no header, LF endings, '.' decimal) and anything else is RAW64,
little-endian float64 in row-major order with a JSON sidecar at
path + ".json" holding {"rows": R, "cols": C}.  Manifests are JSON with
sorted keys and a fixed layout so identical content gives identical
bytes.  Images are binary 8-bit PGM.
"""

from __future__ import annotations

import json
from typing import Tuple

import numpy as np

from .model import ValidationError


def _as_matrix(mat) -> np.ndarray:
    a = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim {a.ndim}")
    return a


def write_csv_matrix(path, mat) -> None:
    a = _as_matrix(mat)
    lines = []
    for row in a:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_csv_matrix(path) -> np.ndarray:
    try:
        out = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed CSV matrix: {exc}") from None
    if out.size == 0:
        raise ValidationError(f"{path}: empty CSV matrix")
    return out


def write_raw64(path, mat) -> None:
    a = _as_matrix(mat)
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
    sidecar = {"rows": int(rows), "cols": int(cols)}
    with open(str(path) + ".json", "w", newline="\n") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, separators=(", ", ": ")))
        fh.write("\n")


def read_raw64(path) -> np.ndarray:
    sidecar_path = str(path) + ".json"
    with open(sidecar_path) as fh:
        try:
            sidecar = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{sidecar_path}: malformed sidecar: {exc}") from None
    try:
        rows, cols = int(sidecar["rows"]), int(sidecar["cols"])
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"{sidecar_path}: sidecar must hold rows and cols") from None
    if rows < 1 or cols < 1:
        raise ValidationError(f"{sidecar_path}: non-positive dimensions")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) != 8 * rows * cols:
        raise ValidationError(
            f"{path}: expected exactly {8 * rows * cols} bytes for "
            f"{rows}x{cols}, found {len(blob)}"
        )
    return np.frombuffer(blob, dtype="<f8").reshape(rows, cols).astype(np.float64)


def load_matrix(path) -> np.ndarray:
    if str(path).endswith(".csv"):
        return read_csv_matrix(path)
    return read_raw64(path)


def write_manifest(path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2))
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed manifest: {exc}") from None
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


def read_pgm(path) -> Tuple[int, int, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValidationError(f"{path}: not a plain P5/255 PGM")
    try:
        width, height = (int(tok) for tok in parts[1].split(b" "))
    except ValueError:
        raise ValidationError(f"{path}: malformed PGM size line") from None
    raster = parts[3]
    if len(raster) != width * height:
        raise ValidationError(
            f"{path}: raster holds {len(raster)} bytes, expected {width * height}"
        )
    return width, height, np.frombuffer(raster, dtype=np.uint8).copy()


def quantize_unit(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1]-ish to uint8 by round(255 v), clamped."""
    v = np.asarray(values, dtype=np.float64)
    return np.clip(np.rint(255.0 * v), 0, 255).astype(np.uint8)
