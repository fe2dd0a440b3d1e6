"""CSV and 16-bit PGM round trips."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.fileio
from caossim.fileio import (
    CSV_BLOCK_CELLS,
    log_display,
    read_matrix_csv,
    read_pgm16,
    write_matrix_csv,
    write_columns_csv,
    write_pgm16,
)
from caossim.metrics import PatchReport
from caossim.runner import run
from caossim.scenario import load_preset


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-9, 9, (7, 5))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.abs(m))
    back = read_matrix_csv(path)
    assert np.array_equal(back, np.abs(m))


def test_csv_write_is_deterministic(tmp_path):
    m = np.random.default_rng(2).random((4, 4))
    write_matrix_csv(tmp_path / "a.csv", m)
    write_matrix_csv(tmp_path / "b.csv", m)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_pgm_round_trip(tmp_path):
    m = np.linspace(0.0, 3.0, 24).reshape(4, 6)
    path = tmp_path / "img.pgm"
    write_pgm16(path, m)
    back = read_pgm16(path)
    assert back.shape == (4, 6)
    assert back.max() == 65535
    # values proportional to the source within quantization
    rescaled = back / 65535 * m.max()
    assert np.abs(rescaled - m).max() <= m.max() / 65535


def test_pgm_zero_image(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm16(path, np.zeros((2, 2)))
    assert not read_pgm16(path).any()


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n65535\n0\n")
    with pytest.raises(ValueError, match="binary PGM"):
        read_pgm16(path)


def test_pgm_header_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    data = np.array([1, 65535], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# written by hand\n2 1\n# 16-bit\n65535\n" + data)
    assert read_pgm16(path).tolist() == [[1.0, 65535.0]]


@pytest.mark.parametrize("size", [b"-2 2", b"2 -2", b"0 4", b"0 0"])
def test_pgm_rejects_a_non_positive_size(tmp_path, size):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + size + b"\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="PGM size must be positive"):
        read_pgm16(path)


def test_log_display_spans_unit_range():
    m = np.array([[1.0, 1e-4, 1e-9, 0.0]])
    d = log_display(m)
    assert d.max() == pytest.approx(1.0)
    assert d.min() == 0.0
    assert d[0, 1] == pytest.approx(0.5)  # halfway down the 8-decade scale


def test_csv_rows_across_blocks_match_per_value_repr(tmp_path):
    # rows are converted a block at a time; the text must not depend on it
    rng = np.random.default_rng(3)
    m = np.abs(rng.standard_normal((2 * CSV_BLOCK_CELLS + 5, 3))) * 1e-7
    m[5, 1] = 0.0
    path = tmp_path / "cols.csv"
    write_columns_csv(path, m)
    want = "slot_0,slot_1,slot_2\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in m
    )
    assert path.read_text() == want
    write_matrix_csv(tmp_path / "m.csv", m)
    assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), m)


# every float64 but +0.0 goes through repr
NONZERO_SPECIALS = [-0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan, 1e308]


@pytest.mark.parametrize("fill", ["mixed", "all_zero", "no_zero"])
@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_CELLS, CSV_BLOCK_CELLS + 1, 32769])
def test_one_column_csv_matches_general_row_path(tmp_path, rows, fill):
    # a run of all-zero rows is one repeated string; the bytes must be repr's, row by row
    rng = np.random.default_rng(rows)
    col = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    if fill == "all_zero":
        col[:] = 0.0
    else:
        if fill == "mixed":
            col[::3] = 0.0  # a spectrum's even harmonics
        else:
            col[col == 0.0] = 1.0  # underflowed draws
        specials = [0.0, *NONZERO_SPECIALS] if fill == "mixed" else NONZERO_SPECIALS
        col[: len(specials)] = specials[:rows]
    m = col.reshape(-1, 1)
    if fill == "no_zero":
        assert np.all(m.view(np.uint64))  # no +0.0: every cell goes through repr
    general = "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())
    write_matrix_csv(tmp_path / "m.csv", m)
    assert (tmp_path / "m.csv").read_text(encoding="ascii") == general
    write_columns_csv(tmp_path / "c.csv", m)
    assert (tmp_path / "c.csv").read_text(encoding="ascii") == "slot_0\n" + general
    if rows:
        back = read_matrix_csv(tmp_path / "m.csv")
        assert back.tobytes() == m.tobytes()


@st.composite
def sparse_columns(draw):
    """A column of runs of exact +0.0 between nonzero cells, specials among them; the runs
    are long enough to span CSV_BLOCK_CELLS-row blocks."""
    cells = st.one_of(st.sampled_from(NONZERO_SPECIALS),
                      st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    column = []
    for _ in range(draw(st.integers(0, 12))):
        column += [0.0] * draw(st.sampled_from([0, 1, 2, 511, CSV_BLOCK_CELLS - 1,
                                                CSV_BLOCK_CELLS, 2 * CSV_BLOCK_CELLS + 5]))
        column += draw(st.lists(cells, max_size=4))
    return np.array(column, dtype=np.float64).reshape(-1, 1)


@settings(max_examples=60, deadline=None)
@given(sparse_columns())
def test_sparse_column_csv_is_repr_of_every_cell(tmp_path_factory, col):
    # zero runs are written as repeated "0.0" rows; every other cell, -0.0 and subnormals
    # included, through repr
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_columns_csv(path, col)
    want = "slot_0\n" + "".join(f"{v!r}\n" for v in col.ravel().tolist())
    assert path.read_text(encoding="ascii") == want


def test_a_set_row_writes_its_exact_zeros_without_repr(tmp_path, monkeypatch):
    # +0.0 cells beside -0.0, a subnormal, nan and +-inf: only the set cells take repr
    row = np.array([[0.0, -0.0, 5e-324, 0.0, np.nan, np.inf, -np.inf, 0.0, 1.5]])
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(caossim.fileio, "repr", counting_repr, raising=False)
    write_matrix_csv(tmp_path / "m.csv", row)
    text = (tmp_path / "m.csv").read_text(encoding="ascii")
    assert text == "0.0,-0.0,5e-324,0.0,nan,inf,-inf,0.0,1.5\n"
    assert text == ",".join(map(repr, row[0].tolist())) + "\n"
    assert len(calls) == 6
    assert read_matrix_csv(tmp_path / "m.csv").tobytes() == row.tobytes()


@pytest.mark.parametrize(
    "shape", [(CSV_BLOCK_CELLS + 3, len(NONZERO_SPECIALS)), (3, CSV_BLOCK_CELLS + 7)]
)
def test_matrix_csv_cells_follow_repr_with_zeros_and_specials(tmp_path, shape):
    # the same cell rule in every row and column, in blocks of many rows or of one wide row
    rng = np.random.default_rng(4)
    m = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    m[rng.random(shape) < 0.6] = 0.0
    m[0, : len(NONZERO_SPECIALS)] = NONZERO_SPECIALS
    m[1:, -1] = 0.0
    write_matrix_csv(tmp_path / "m.csv", m)
    want = "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())
    assert (tmp_path / "m.csv").read_text(encoding="ascii") == want
    assert read_matrix_csv(tmp_path / "m.csv").tobytes() == m.tobytes()


@pytest.mark.parametrize("m", [np.zeros((10**5, 1)), np.random.default_rng(5).random((3, 5000))],
                         ids=["zero_column", "wide_rows"])
def test_csv_writes_hold_about_csv_block_cells(tmp_path, monkeypatch, m):
    # one write holds whole rows, about CSV_BLOCK_CELLS cells (one row if it is wider);
    # a long run of zero rows is cut into blocks too
    writes = []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

    real_open = open
    monkeypatch.setattr(caossim.fileio, "open", lambda *a, **k: Recorder(real_open(*a, **k)),
                        raising=False)
    write_matrix_csv(tmp_path / "m.csv", m)
    cells = [w.count(",") + w.count("\n") for w in writes]
    assert sum(cells) == m.size
    assert max(cells) <= max(CSV_BLOCK_CELLS, m.shape[1])
    assert len(writes) == -(-m.shape[0] // max(1, CSV_BLOCK_CELLS // m.shape[1]))
    assert "".join(writes) == "".join(",".join(map(repr, row)) + "\n" for row in m.tolist())


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (50, 1), (50, 7)])
def test_csv_of_one_row_or_one_column_reads_back_in_its_shape(tmp_path, shape, header):
    # a one-row or one-column file is read as a 2-D matrix, with or without its header line
    m = np.random.default_rng(6).standard_normal(shape)
    m.flat[: len(NONZERO_SPECIALS)] = NONZERO_SPECIALS[: m.size]
    write = write_columns_csv if header else write_matrix_csv
    write(tmp_path / "m.csv", m)
    back = read_matrix_csv(tmp_path / "m.csv", header=header)
    assert back.shape == shape
    assert back.tobytes() == m.tobytes()


def test_headed_csv_artifacts_read_back_bit_for_bit(tmp_path):
    # spectra.csv and patch_report.csv start with a header line; fig9-valid's patch report
    # reads an infinite minimum SNR, and an undetected patch would read a nan DR
    report = run(dataclasses.replace(load_preset("fig9-valid"), write_spectra=True), tmp_path)
    spectra = read_matrix_csv(tmp_path / "spectra.csv", header=True)
    assert spectra.tobytes() == report.spectra.tobytes()
    undetected = dataclasses.replace(report.patch.entries[-1], measured_dr_db=math.nan)
    with_nan = report.patch.entries[:-1] + (undetected,)
    PatchReport(with_nan).write_csv(tmp_path / "nan.csv")
    for name, entries in [("patch_report.csv", report.patch.entries), ("nan.csv", with_nan)]:
        want = np.array([dataclasses.astuple(e) for e in entries])
        assert read_matrix_csv(tmp_path / name, header=True).tobytes() == want.tobytes()
    assert np.isinf(want).any() and np.isnan(want).any()
    with pytest.raises(ValueError, match="slot_0"):
        read_matrix_csv(tmp_path / "spectra.csv")
