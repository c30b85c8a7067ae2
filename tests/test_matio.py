import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from robustmc import DataValidationError, ObservationMask
from robustmc.matio import read_matrix_csv, read_pgm, write_matrix_csv, write_pgm

from oracles import csv_text


class TestMatrixCsv:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(70)
        m = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-8, 8, (7, 5)))
        m[0, :4] = [-0.0, 5e-324, 1e300, -1e-300]  # signed zero, subnormal, extremes
        flags = rng.random((7, 5)) < 0.6
        flags[0, :4] = True
        mask = ObservationMask(flags)
        path = tmp_path / "m.csv"
        path.write_text(csv_text(m, flags))
        prob = read_matrix_csv(path)
        assert prob.mask == mask
        assert np.array_equal(prob.values, np.where(mask.flags, m, 0.0))
        assert np.array_equal(np.signbit(prob.values), np.signbit(np.where(mask.flags, m, 0.0)))
        write_matrix_csv(path, m)
        back = read_matrix_csv(path).values
        assert np.array_equal(back, m) and np.array_equal(np.signbit(back), np.signbit(m))

    def test_format_is_shortest_repr_per_cell(self, tmp_path):
        rng = np.random.default_rng(73)
        m = rng.standard_normal((4, 3))
        m[1, 1] = -0.0
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_text() == csv_text(m)

    def test_written_bytes_are_the_formatted_text(self, tmp_path):
        rng = np.random.default_rng(74)
        m = rng.standard_normal((9, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_bytes() == csv_text(m).encode("utf-8")

    def test_rejected_write_leaves_no_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="NaN or Inf"):
            write_matrix_csv(tmp_path / "m.csv", np.array([[1.0, np.nan]]))
        assert list(tmp_path.iterdir()) == []

    def test_na_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.5,NA\n,2.5\n")
        prob = read_matrix_csv(path)
        assert prob.mask.flags.tolist() == [[True, False], [False, True]]
        assert prob.values[0, 0] == 1.5
        assert prob.values[1, 1] == 2.5

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        prob = read_matrix_csv(path, header=True)
        assert prob.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataValidationError):
            read_matrix_csv(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,apple\n")
        with pytest.raises(DataValidationError):
            read_matrix_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n2,3\n")
        with pytest.raises(DataValidationError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("cell,problem", [
        ("nan", "non-finite value 'nan'"),
        ("-inf", "non-finite value '-inf'"),
        ("1e999", "non-finite value '1e999'"),
        ("apple", "cannot parse 'apple'"),
        ("1.5.2", "cannot parse '1.5.2'"),
    ])
    def test_bad_cell_reported_with_its_row_and_column(self, tmp_path, cell, problem):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2,3\n4,,NA\n5,6,{cell}\n7,8,9\n")
        with pytest.raises(DataValidationError, match=f"row 3, column 3: {problem}"):
            read_matrix_csv(path)

    def test_first_non_finite_cell_is_reported(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,inf\n6,nan,7\n")
        with pytest.raises(DataValidationError, match="row 2, column 3"):
            read_matrix_csv(path)

    def test_large_mixed_file_round_trips(self, tmp_path):
        rng = np.random.default_rng(74)
        m = rng.standard_normal((300, 250)) * np.exp(rng.uniform(-30, 30, (300, 250)))
        m[::7, ::5] = -0.0
        flags = rng.random(m.shape) < 0.5
        mask = ObservationMask(flags)
        path = tmp_path / "m.csv"
        path.write_text(csv_text(m, flags))
        text = path.read_text().splitlines()
        # NA tokens and padded cells mean the same as empty and bare ones
        text[0] = ",".join(f" {cell} " if cell else "NA" for cell in text[0].split(","))
        path.write_text("\n".join(text) + "\n")
        prob = read_matrix_csv(path)
        want = np.where(flags, m, 0.0)
        assert prob.mask == mask
        assert np.array_equal(prob.values, want)
        assert np.array_equal(np.signbit(prob.values), np.signbit(want))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n")
        with pytest.raises(DataValidationError):
            read_matrix_csv(path)

    def test_non_utf8_rejected_with_byte_offset(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n3,\xff4\n")
        with pytest.raises(DataValidationError, match=r"m\.csv: not UTF-8 .*byte offset 6"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["1.0,2.0\n3.0,4.5\n", "1.5,NA\n,2.5\n"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, text):
        # spreadsheet "CSV UTF-8" exports begin with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        a, b = read_matrix_csv(plain), read_matrix_csv(marked)
        assert np.array_equal(a.values, b.values) and a.mask == b.mask

    def test_format_without_mask_has_no_blanks(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.0, -2.5]]))
        assert path.read_text() == "1.0,-2.5\n"


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        img = rng.random((9, 13))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.array_equal(np.rint(back * 255), np.rint(np.clip(img, 0, 1) * 255))

    def test_plain_round_trip(self, tmp_path):
        pixels = np.random.default_rng(72).integers(0, 256, (5, 4))
        path = tmp_path / "img.pgm"
        rows = "\n".join(" ".join(map(str, row)) for row in pixels.tolist())
        path.write_bytes(f"P2\n4 5\n255\n{rows}\n".encode("ascii"))
        back = read_pgm(path)
        assert np.array_equal(np.rint(back * 255), pixels)

    def test_plain_and_binary_agree(self, tmp_path):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        write_pgm(tmp_path / "b.pgm", img)
        pixels = " ".join(str(v) for v in np.rint(img * 255).astype(int).ravel())
        (tmp_path / "a.pgm").write_bytes(f"P2 4 3 255 {pixels}\n".encode("ascii"))
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"), read_pgm(tmp_path / "b.pgm"))

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 128\n255 64\n")
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 0] == 0.0
        assert img[1, 0] == 1.0

    def test_values_scaled_by_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 1\n100\n0 100\n")
        img = read_pgm(path)
        assert img.tolist() == [[0.0, 1.0]]

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n1 1\n65535\n1234\n")
        with pytest.raises(DataValidationError):
            read_pgm(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n1 1\n255\nxxx")
        with pytest.raises(DataValidationError):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(DataValidationError):
            read_pgm(path)

    @pytest.mark.parametrize("magic, raster", [
        (b"P5", bytes([10, 20, 30, 40])),
        (b"P2", b"10 20 30 40\n"),
    ])
    def test_comment_after_maxval_rejected(self, tmp_path, magic, raster):
        # the raster starts one whitespace byte past maxval; a comment glued
        # to maxval must not be read as pixels
        path = tmp_path / "img.pgm"
        path.write_bytes(magic + b"\n2 2\n255#note\n" + raster)
        with pytest.raises(DataValidationError, match="whitespace"):
            read_pgm(path)

    def test_dimensions_follow_width_height_order(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes(range(6)))
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[1, 2] == pytest.approx(5 / 255)


# Fuzzing: whatever the bytes, a reader returns or raises DataValidationError.
_CSV_CELLS = ["1", "-2.5", " 3 ", "", "NA", "na", "1e-300", "1e999", "nan", "-inf",
              "0x1", "1_0", "x", "\x00", "\u00e9"]
_near_valid_csv = st.lists(
    st.lists(st.sampled_from(_CSV_CELLS), min_size=1, max_size=4),
    max_size=4,
).flatmap(lambda rows: st.sampled_from(["\n", "\r\n", "\r"]).map(
    lambda eol: eol.join(",".join(r) for r in rows).encode("utf-8")))

_PGM_TOKENS = [b"0", b"1", b"2", b"3", b"255", b"256", b"-1", b"x", b"99999999999"]
_pgm_token = st.sampled_from(_PGM_TOKENS)
_pgm_raster = st.one_of(
    st.binary(max_size=12),
    st.lists(st.integers(-1, 300), max_size=10).map(
        lambda v: b" ".join(str(i).encode() for i in v)),
)
_near_valid_pgm = st.builds(
    lambda magic, w, h, sep, maxval, raster: magic + b"\n" + w + b" " + h + sep + maxval
    + b"\n" + raster,
    st.sampled_from([b"P2", b"P5", b"P6", b""]), _pgm_token, _pgm_token,
    st.sampled_from([b" ", b"\n", b"\n# comment\n", b"#", b""]), _pgm_token, _pgm_raster,
)

_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _reads_or_rejects(reader, path, data):
    path.write_bytes(data)
    try:
        reader(path)
    except DataValidationError:
        pass


class TestReaderFuzz:
    @_fuzz
    @given(data=st.one_of(st.binary(max_size=48), _near_valid_csv))
    def test_csv_reader_returns_or_rejects(self, tmp_path, data):
        _reads_or_rejects(read_matrix_csv, tmp_path / "f.csv", data)

    @_fuzz
    @given(data=st.one_of(st.binary(max_size=48), _near_valid_pgm))
    def test_pgm_reader_returns_or_rejects(self, tmp_path, data):
        _reads_or_rejects(read_pgm, tmp_path / "f.pgm", data)
