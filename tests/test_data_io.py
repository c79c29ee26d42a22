import math

import numpy as np
import pytest

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_snapshots(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_snapshots(path)
