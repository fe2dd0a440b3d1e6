"""Portable, diffable file formats: CSV matrices and 16-bit binary PGM.

CSV is the authoritative linear-value store (full float64 round-trip via
repr-style formatting).  ``write_matrix_csv`` is the one function that
formats CSV text: every CSV a run writes (scenes, decoded images, spectra
and the patch report) goes through it, row by row.  PGM is a display
rendering normalized to the image maximum, with an optional log10 scaling
for HDR viewing; it never replaces the CSV data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "write_pgm16",
    "read_pgm16",
    "log_display",
    "write_columns_csv",
]

PGM_MAXVAL = 65535
LOG_FLOOR_DECADES = 8.0
CSV_BLOCK_CELLS = 1024


def write_matrix_csv(path: str | Path, matrix: np.ndarray, header: str | None = None) -> None:
    """Rows of float64 values in repr form (exact round trip), one line each, under an
    optional header line.

    A row of exact +0.0 (no set bit) is the cached string "0.0,...,0.0\\n", repeated for
    a run of such rows; in every other row an exact +0.0 cell is the constant "0.0" and
    each other cell its repr.  repr(+0.0) is "0.0", so every row reads as
    ",".join(map(repr, row)), -0.0, nan, +-inf and subnormals included.  A spectrum of
    50%-duty carriers is mostly zero rows (its even harmonics) and a scene mostly zero
    cells, so only set cells pay for repr.  Memory bound: one write holds the whole rows
    of one block, max(1, CSV_BLOCK_CELLS // columns) of them, zero runs included; that is
    about CSV_BLOCK_CELLS cells, or one row when a row is wider.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    nrows, cols = m.shape
    block = max(1, CSV_BLOCK_CELLS // max(cols, 1))
    zero = ",".join(["0.0"] * cols) + "\n"
    set_rows = m.view(np.uint64).any(axis=1).nonzero()[0]
    # set_rows[bounds[k]:bounds[k + 1]] are the set rows of block k
    bounds = set_rows.searchsorted(range(0, nrows + block, block)).tolist()
    with open(path, "w", encoding="ascii") as fh:
        if header is not None:
            fh.write(header + "\n")
        for k, start in enumerate(range(0, nrows, block)):
            rows = set_rows[bounds[k] : bounds[k + 1]]
            values = m.take(rows, axis=0).ravel()
            texts = ["0.0"] * values.size
            set_cells = values.view(np.uint64).nonzero()[0]
            for i, text in zip(set_cells.tolist(), map(repr, values[set_cells].tolist())):
                texts[i] = text
            cells = iter(texts)
            pieces, row = [], start
            # zip(*[cells] * cols) deals the cells out in rows of `cols`
            for r, text in zip(rows.tolist(), map(",".join, zip(*[cells] * cols))):
                pieces += [zero * (r - row), text, "\n"]
                row = r + 1
            pieces.append(zero * (min(start + block, nrows) - row))
            fh.write("".join(pieces))


def read_matrix_csv(path: str | Path, header: bool = False) -> np.ndarray:
    """The float64 rows ``write_matrix_csv`` wrote, after its header line when ``header``."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()[int(header) :]
    for n, line in enumerate(lines, 1 + int(header)):
        if line.isspace():
            raise ValueError(f"line {n} holds only whitespace")
    if not any(lines):
        raise ValueError("the file holds no rows")
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def write_pgm16(path: str | Path, matrix: np.ndarray) -> None:
    """Binary (P5) 16-bit big-endian PGM, normalized to the matrix maximum."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("PGM export needs a 2-D matrix")
    peak = m.max()
    scaled = m / peak * PGM_MAXVAL if peak > 0 else np.zeros_like(m)
    data = np.clip(np.round(scaled), 0, PGM_MAXVAL).astype(">u2")
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_pgm16(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P5":
        raise ValueError("not a binary PGM file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if width < 1 or height < 1:
        raise ValueError(f"PGM size must be positive, got {width}x{height}")
    if maxval != PGM_MAXVAL:
        raise ValueError(f"expected 16-bit PGM (maxval {PGM_MAXVAL}), got {maxval}")
    pos += 1  # single whitespace after maxval
    data = np.frombuffer(blob, dtype=">u2", count=width * height, offset=pos)
    return data.reshape(height, width).astype(np.float64)


def log_display(matrix: np.ndarray) -> np.ndarray:
    """log10 rendering of a nonnegative image, clipped LOG_FLOOR_DECADES below peak.

    Output spans [0, 1]; the stored linear data is untouched.
    """
    m = np.asarray(matrix, dtype=np.float64)
    peak = m.max()
    if peak <= 0:
        return np.zeros_like(m)
    floor = peak * 10.0**-LOG_FLOOR_DECADES
    logd = np.log10(np.clip(m, floor, None) / floor)
    return logd / np.log10(peak / floor)


def write_columns_csv(path: str | Path, columns: np.ndarray) -> None:
    """A Q x S matrix with one column per slot, under a slot_<i> header."""
    write_matrix_csv(path, columns, ",".join(f"slot_{i}" for i in range(columns.shape[1])))
