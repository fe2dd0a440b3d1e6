"""Portable, diffable file formats: CSV matrices and 16-bit binary PGM.

CSV is the authoritative linear-value store (full float64 round-trip via
repr-style formatting).  PGM is a display rendering normalized to the
image maximum, with an optional log10 scaling for HDR viewing; it never
replaces the CSV data.
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


def _write_csv(path: str | Path, matrix: np.ndarray, header: str | None = None) -> None:
    """Rows of float64 values in repr form (exact round trip), one line each.

    One cell rule: an exact +0.0 (the one float64 whose bits are all zero)
    writes "0.0", which is its repr; every other value, -0.0, nan, +-inf
    and subnormals included, goes through repr.  A spectrum of 50%-duty
    carriers is mostly exact zeros (its even harmonics), so only its
    nonzero cells pay for repr, and in one column a run of zero rows is
    one repeated "0.0\n" string.  Lines are joined into one string per
    block of whole rows, about CSV_BLOCK_CELLS cells at a time: a whole
    32769-row spectrum or a large image at once would hold megabytes of
    strings.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    cols = m.shape[1]
    block_rows = max(1, CSV_BLOCK_CELLS // max(cols, 1))
    with open(path, "w", encoding="ascii") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, m.shape[0], block_rows):
            block = m[start : start + block_rows]
            flat = block.ravel()
            set_bits = np.flatnonzero(flat.view(np.uint64))
            if cols == 1:
                pieces, row = [], 0
                for i, v in zip(set_bits.tolist(), flat[set_bits].tolist()):
                    pieces += ["0.0\n" * (i - row), f"{v!r}\n"]
                    row = i + 1
                pieces.append("0.0\n" * (flat.size - row))
                fh.write("".join(pieces))
                continue
            cells = ["0.0"] * flat.size
            for i, v in zip(set_bits.tolist(), flat[set_bits].tolist()):
                cells[i] = repr(v)
            cells = [",".join(cells[r * cols : (r + 1) * cols]) for r in range(len(block))]
            fh.write("\n".join(cells) + "\n")


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    _write_csv(path, matrix)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows, dtype=np.float64)


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
    header = ",".join(f"slot_{i}" for i in range(columns.shape[1]))
    _write_csv(path, columns, header)
