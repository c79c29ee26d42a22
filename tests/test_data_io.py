import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symae import data_io
from symae.data_io import (
    DataFormatError,
    SnapshotSet,
    gaussian_bump,
    generate_pga,
    load_snapshots,
    save_snapshots,
)


class TestGeneratePga:
    def test_grid_dimension(self):
        snap = generate_pga(7, seed=0)
        assert snap.U.shape == (514, 7)
        assert snap.param_values.shape == (1, 7)

    def test_single_sample(self):
        assert generate_pga(1, seed=0).U.shape == (514, 1)

    def test_peak_location_and_height(self):
        snap = generate_pga(25, seed=1)
        x = np.arange(514) / 513.0
        for j in range(25):
            col = snap.U[:, j]
            mu = snap.param_values[0, j]
            assert col.max() <= 1.0
            assert abs(x[np.argmax(col)] - mu) <= 1.0 / 513.0
            assert 0.3 <= mu <= 0.7

    def test_columns_match_profile_formula(self):
        snap = generate_pga(5, seed=2)
        x = np.arange(514) / 513.0
        for j in range(5):
            mu = snap.param_values[0, j]
            np.testing.assert_allclose(
                snap.U[:, j], np.exp(-400.0 * (x - mu) ** 2), rtol=1e-15
            )

    def test_profile_value_one_tenth_from_center(self):
        # exp(-400 * 0.1^2) = exp(-4) ~ 1.8316e-2
        np.testing.assert_allclose(gaussian_bump(0.45, 0.35), math.exp(-4.0), rtol=1e-12)
        np.testing.assert_allclose(gaussian_bump(0.45, 0.35), 1.8315638888734179e-2, rtol=1e-12)

    def test_deterministic(self):
        a = generate_pga(11, seed=5)
        b = generate_pga(11, seed=5)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.param_values, b.param_values)

    def test_param_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parameter columns"):
            SnapshotSet(U=np.ones((3, 4)), param_values=np.ones((1, 3)))


class TestSnapshotFiles:
    def test_toy_roundtrip_exact(self, tmp_path):
        U = np.array([[1.5, -2.25, 1e-300], [0.1, 3.0, -7.125]])
        path = tmp_path / "toy.csv"
        save_snapshots(SnapshotSet(U=U), path)
        again = load_snapshots(path)
        assert np.array_equal(again.U, U)
        assert again.param_values is None

    def test_generated_roundtrip_bitwise(self, tmp_path):
        snap = generate_pga(9, seed=3)
        path = tmp_path / "pga.csv"
        save_snapshots(snap, path)
        again = load_snapshots(path)
        assert np.array_equal(again.U, snap.U)
        assert np.array_equal(again.param_values, snap.param_values)
        assert (tmp_path / "pga.params.csv").exists()

    def test_header_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n0=3 S=2\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="n0=3 rows, found 2"):
            load_snapshots(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(DataFormatError, match="expected header"):
            load_snapshots(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n0=2 S=3\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            load_snapshots(path)

    def test_header_promising_more_cells_than_the_file_holds(self, tmp_path):
        # Nothing is allocated on the header's word: 10^13 columns of one
        # row would need 80 TB.
        path = tmp_path / "bad.csv"
        path.write_text("# n0=1 S=10000000000000\n1.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:2: expected 10000000000000 columns, found 1"):
            load_snapshots(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n0=1 S=2\n1.0,nan\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_snapshots(path)

    def test_unparsable_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# n0=1 S=2\n1.0,abc\n")
        with pytest.raises(DataFormatError, match="bad.csv:2"):
            load_snapshots(path)

    @pytest.mark.parametrize(
        "bad_row, message",
        [("x,3.0", "could not convert"), ("inf,3.0", "non-finite"), ("3.0", "expected 2 columns")],
        ids=["unparsable", "non-finite", "ragged"],
    )
    def test_error_names_the_file_line_past_blank_lines(self, tmp_path, bad_row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# n0=2 S=2\n1.0,2.0\n\n\n{bad_row}\n")
        with pytest.raises(DataFormatError, match=f"bad.csv:5: {message}"):
            load_snapshots(path)

    def test_non_utf8_bytes_name_the_byte_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# n0=3 S=2\n1,2\n3,4\n5,\x856\n")
        with pytest.raises(DataFormatError, match=r"bad.csv: byte 21: not UTF-8"):
            load_snapshots(path)

    def test_params_sibling_column_mismatch_names_both_files(self, tmp_path):
        path = tmp_path / "d.csv"
        save_snapshots(SnapshotSet(U=np.ones((2, 4))), path)
        save_snapshots(SnapshotSet(U=np.ones((1, 3))), tmp_path / "d.params.csv")
        with pytest.raises(
            DataFormatError,
            match=r"d\.params\.csv does not match .*d\.csv: parameter columns 3 != snapshots 4",
        ):
            load_snapshots(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_snapshots(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_snapshots(path)


def _outcome(read, path):
    """What ``read(path)`` gives: the matrix's shape and bits, or the error message."""
    try:
        M = read(path)
    except DataFormatError as exc:
        return str(exc)
    return M.shape, M.tobytes()


def _bits_to_double(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# Subnormals, signed zeros, 17-digit values and raw bit patterns.
awkward_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.5e-308, max_value=2.5e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.integers(0, 2**64 - 1).map(_bits_to_double).filter(math.isfinite),
)


class TestSnapshotReader:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n0: st.integers(1, 5).flatmap(
                lambda S: st.lists(
                    st.lists(awkward_doubles, min_size=S, max_size=S), min_size=n0, max_size=n0
                )
            )
        )
    )
    def test_round_trip_is_bitwise_on_awkward_doubles(self, tmp_path_factory, rows):
        U = np.array(rows, dtype=np.float64)
        path = tmp_path_factory.mktemp("roundtrip") / "u.csv"
        save_snapshots(SnapshotSet(U=U), path)
        # The written file is plain, so np.loadtxt reads it.
        fast = data_io._read_plain_matrix(path)
        assert fast is not None and fast.tobytes() == U.tobytes()
        assert load_snapshots(path).U.tobytes() == U.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "# n0=2 S=2\n1.5,-0.0\n2e-310,3\n",
            "# n0=2 S=2  \n1,2\n\n\n3,4\n\n",
            "# n0=2 S=2\n1,2\n \t \n3,4\n",
            "# n0=2 S=2\r\n1,2\r\n3,4\r\n",
            "# n0=2 S=2\r1,2\r3,4\r",
            "# n0=2 S=2\n 1 , +2 \n3.,.5E+1\n",
            "# n0=2 S=2\n1,2,3\n3,4\n",
            "# n0=2 S=2\n1\n3,4\n",
            "# n0=2 S=2\n1,2\n",
            "# n0=1 S=2\n1,2\n3,4\n",
            "# n0=2 S=2\nnan,2\n3,4\n",
            "# n0=2 S=2\n1,2\n-inf,4\n",
            "# n0=2 S=2\n1,2\n1e400,4\n",
            "# n0=2 S=2\n1,2,\n3,4\n",
            "# n0=2 S=2\n1,,2\n3,4\n",
            "# n0=2 S=2\n1_0,2\n3,4\n",
            "# n0=2 S=2\n\u0661,2\n3,\u0664\n",
            "# n0=2 S=2\n1,2 # note\n3,4\n",
            "# n0=2 S=2\n# note\n1,2\n3,4\n",
            '# n0=2 S=2\n"1",2\n3,4\n',
            "# n0=2 S=2\n0x1p3,2\n3,4\n",
            "# n0=2 S=2\n1,2\x0c3,4\n",
            "# n0=1 S=2\n1\x0c,2\n",
            "# n0=1 S=2\n1\x1f,2\n",
            "# n0=1 S=2\n1\x00,2\n",
            "# n0=1 S=2\n1,2\x00\n",
            "# n0=1 S=2\n1\x7f,2\n",
            "# n0=1 S=2\n1\u2028,2\n",
            "# n0=0 S=2\n",
            "# n0=0 S=2\n\n",
            "# n0=1 S=1\n7",
            "# n0=1 S=2 extra\n1,2\n",
            "1,2\n3,4\n",
            "# n0=2 S=2",
            "\n",
        ],
    )
    def test_reader_agrees_with_the_line_parser(self, tmp_path, text):
        path = tmp_path / "u.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(data_io._read_matrix, path) == _outcome(data_io._parse_lines, path)
