"""File formats shared by the library and the CLI: complex CSV files, the
[re, im] JSON codec for complex matrices, and the JSON file writer.

CSV convention: a complex column named <name> occupies two adjacent CSV
columns re_<name>, im_<name>.  Matrices are written one data-matrix row per
CSV row, with data-matrix columns named c0, c1, ...; vectors are written one
entry per CSV row.  Floats are rendered with repr, which round-trips
exactly, so rewriting a parsed file is byte-identical.  Fields must be
finite.

JSON convention: a complex matrix is a list of [re, im] pairs in
column-major order.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "write_complex_matrix_csv",
    "read_complex_matrix_csv",
    "write_complex_vector_csv",
    "read_complex_vector_csv",
    "complex_to_pairs",
    "pairs_to_complex",
    "write_json",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_complex_matrix_csv(path, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    header = ",".join("re_c%d,im_c%d" % (j, j) for j in range(M.shape[1]))
    lines = [header]
    for row in M:
        lines.append(",".join("%s,%s" % (_fmt(z.real), _fmt(z.imag))
                              for z in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_pair_header(tokens):
    if len(tokens) < 2 or len(tokens) % 2 != 0:
        raise ValueError("header must hold re_/im_ column pairs")
    for a, b in zip(tokens[::2], tokens[1::2]):
        if not (a.startswith("re_") and b.startswith("im_")
                and a[3:] == b[3:]):
            raise ValueError("header pair %r,%r is not re_<name>,im_<name>"
                             % (a, b))
    return len(tokens) // 2


def read_complex_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV file %s" % (path,))
    ncols = _parse_pair_header(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2 * ncols:
            raise ValueError("row with %d fields, expected %d"
                             % (len(cells), 2 * ncols))
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise ValueError("non-numeric field in %s" % (path,)) from None
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite field in %s" % (path,))
        rows.append([complex(vals[2 * j], vals[2 * j + 1])
                     for j in range(ncols)])
    if not rows:
        raise ValueError("CSV %s has a header but no data rows" % (path,))
    return np.array(rows, dtype=np.complex128)


def write_complex_vector_csv(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.complex128).ravel()
    lines = ["re_y,im_y"]
    for z in v:
        lines.append("%s,%s" % (_fmt(z.real), _fmt(z.imag)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_complex_vector_csv(path) -> np.ndarray:
    M = read_complex_matrix_csv(path)
    if M.shape[1] != 1:
        raise ValueError("expected a single complex column in %s" % (path,))
    return M[:, 0]


def complex_to_pairs(M) -> list:
    """Column-major [re, im] pairs of a complex array."""
    flat = np.asarray(M, dtype=np.complex128).ravel(order="F")
    return [[float(z.real), float(z.imag)] for z in flat]


def pairs_to_complex(pairs, rows: int, cols: int) -> np.ndarray:
    """Inverse of complex_to_pairs for a rows x cols matrix."""
    arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    if arr.size != rows * cols:
        raise ValueError("serialized matrix has wrong length")
    return arr.reshape((rows, cols), order="F")


def write_json(path, doc: dict) -> None:
    """Write doc as JSON with one-space indentation and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
