import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from _util import add_theta_block, random_theta
from symae.activations import Identity
from symae.architecture import Skeleton, assemble, empirical_mse, load_model, save_model
from symae.cli import main
from symae.data_io import SnapshotSet, generate_pga, save_snapshots
from symae.training import apply_minmax, minmax_normalize, split, train


def _sae_checkpoint(E_rows=3, normalization=(0.0, 1.0), skeleton=(20, 3), version=3, fill=0.0):
    """An SAE checkpoint text for skeleton 20,3 with zero biases.

    Every entry of ``E`` and ``D`` is ``fill``.  ``normalization`` is the
    stored ``(lo, hi)``; ``None`` leaves it out.  ``skeleton`` is the stored
    dimension list and ``version`` the stored ``format_version``.
    """
    doc = {
        "format_version": version,
        "class_tag": "SAE",
        "skeleton": list(skeleton),
        "activation_spec": "identity",
        "layers": [{
            "E": np.full((E_rows, 20), fill).tolist(),
            "D": np.full((20, 3), fill).tolist(),
            "e": np.zeros((3, 1)).tolist(),
            "d": np.zeros((20, 1)).tolist(),
        }],
    }
    if normalization is not None:
        doc["normalization"] = dict(zip(("lo", "hi"), normalization))
    return json.dumps(doc)


def _sbae_checkpoint(D_shift):
    """An SBAE checkpoint text for skeleton 20,6,3.

    ``D_shift`` is added to the first stored entry of level 1's ``D``, which
    leaves ``E D - I`` with a finite gap of about ``|E[:, 0]| * D_shift``.
    """
    theta = random_theta("SBAE", Skeleton((20, 6, 3)), Identity(), np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(assemble(theta), path)
        doc = json.loads(path.read_text())
    doc["layers"][0]["D"][0][0] += D_shift
    return json.dumps(doc)


def _overflowing_sbae_checkpoint():
    """An SBAE checkpoint text for skeleton 20,1 whose ``E D`` overflows to NaN.

    ``E`` is a row of ``1e200`` and ``D`` alternates ``+-1e200``, so every
    weight is finite but the invariant gap ``E D - I`` is ``inf - inf``.
    """
    doc = {
        "format_version": 3,
        "class_tag": "SBAE",
        "skeleton": [20, 1],
        "activation_spec": "identity",
        "normalization": {"lo": 0.0, "hi": 1.0},
        "layers": [{
            "E": np.full((1, 20), 1e200).tolist(),
            "D": np.tile([[1e200], [-1e200]], (10, 1)).tolist(),
            "e": np.zeros((1, 1)).tolist(),
            "d": np.zeros((20, 1)).tolist(),
        }],
    }
    return json.dumps(doc)


@pytest.fixture()
def small_data(tmp_path):
    """A 20-dimensional, 40-sample dataset cheap enough for CLI runs."""
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.3, 0.7, 40)
    x = np.linspace(0, 1, 20)
    U = np.exp(-40.0 * (x[:, None] - centers[None, :]) ** 2)
    path = tmp_path / "data.csv"
    save_snapshots(SnapshotSet(U=U), path)
    return path


class TestGenPga:
    def test_writes_full_size_file(self, tmp_path):
        out = tmp_path / "pga.csv"
        assert main(["gen-pga", "--samples", "400", "--seed", "0", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "# n0=514 S=400"

    def test_single_sample_valid(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["gen-pga", "--samples", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# n0=514 S=1"

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen-pga", "--samples", "30", "--seed", "7", "--out", str(a)])
        main(["gen-pga", "--samples", "30", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path):
        rc = main(["gen-pga", "--samples", "2", "--out", str(tmp_path / "no" / "x.csv")])
        assert rc == 3

    def test_bad_sample_count(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-pga", "--samples", "0", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestTrain:
    def _run(self, capsys, data, tmp_path, *extra):
        args = [
            "train",
            "--data", str(data),
            "--skeleton", "20,6,3",
            "--epochs", "5",
            "--patience", "5",
            "--batch", "4",
            "--seed", "1",
            "--out-model", str(tmp_path / "model.json"),
            "--out-history", str(tmp_path / "history.csv"),
            *extra,
        ]
        rc = main(args)
        out = capsys.readouterr().out
        return rc, out

    def test_full_pipeline_json_output(self, capsys, small_data, tmp_path):
        rc, out = self._run(
            capsys, small_data, tmp_path,
            "--class", "sbae", "--act", "leakyrelu:0.8333333333333334,1.25",
        )
        assert rc == 0
        result = json.loads(out)
        assert result["class"] == "sbae"
        assert result["skeleton"] == [20, 6, 3]
        assert result["init"] == "eys"
        assert result["epochs_run"] == 5
        assert result["mse"] >= 0 and result["mre"] >= 0 and result["mse_denorm"] >= 0
        psi, _normalization = load_model(tmp_path / "model.json")
        assert psi.class_tag == "SBAE"
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch,")
        assert len(history) == 6

    @pytest.mark.parametrize("model_class", ["sae", "ae", "soae"])
    def test_all_classes_run(self, capsys, small_data, tmp_path, model_class):
        rc, out = self._run(
            capsys, small_data, tmp_path, "--class", model_class, "--act", "hypact:0.1",
        )
        assert rc == 0
        assert json.loads(out)["class"] == model_class

    def test_json_records_the_blas_thread_settings(self, capsys, small_data, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        rc, out = self._run(capsys, small_data, tmp_path, "--class", "sae")
        assert rc == 0
        assert json.loads(out)["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "2",
            "MKL_NUM_THREADS": None,
        }
        # The history CSV does not carry them.
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,wall_time_s,constraint_residual"

    def test_same_flags_same_stdout(self, capsys, small_data, tmp_path):
        _, out1 = self._run(capsys, small_data, tmp_path, "--class", "sae")
        _, out2 = self._run(capsys, small_data, tmp_path, "--class", "sae")
        assert out1 == out2

    def test_non_monotone_skeleton_rejected(self, small_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--data", str(small_data), "--class", "sae",
                "--skeleton", "514,64,65,3",
            ])
        assert exc.value.code == 2

    def test_incompatible_init_class_pair(self, capsys, small_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self._run(capsys, small_data, tmp_path, "--class", "soae", "--init", "he")
        assert exc.value.code == 2

    def test_skeleton_data_mismatch(self, capsys, small_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--data", str(small_data), "--class", "sae",
                "--skeleton", "19,6,3", "--epochs", "2", "--patience", "2",
            ])
        assert exc.value.code == 2

    def test_missing_data_file(self, tmp_path):
        rc = main([
            "train", "--data", str(tmp_path / "none.csv"), "--class", "sae",
            "--skeleton", "20,6,3",
        ])
        assert rc == 3

    def test_bad_activation_spec(self, capsys, small_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self._run(capsys, small_data, tmp_path, "--class", "sae", "--act", "tanh")
        assert exc.value.code == 2

    def test_broken_constraint_mid_run_is_numerical_failure(self, capsys, small_data):
        # A step of 1e4 breaks E D = I by about 1e-3 at epoch 1, far past
        # BIORTH_TOL; a small rate would land too close to it for every BLAS.
        rc = main([
            "train", "--data", str(small_data), "--class", "sbae", "--skeleton", "20,6,3",
            "--epochs", "5", "--lr", "1e4", "--batch", "4",
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "epoch 1" in err
        assert re.search(r"scale spread max s\^2 / min s\^2 by level: \S+, \S+$", err.strip())
        assert "Traceback" not in err


class TestInitStudy:
    def test_width_sweep_csv(self, capsys, small_data, tmp_path):
        out = tmp_path / "study.csv"
        rc = main([
            "init-study", "--data", str(small_data), "--act", "hypact:0.1",
            "--widths", "2,4", "--n1", "8", "--trials", "3",
            "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "config,eys_mse,baseline_best_mse"
        assert lines[1].startswith("20-8-2,") and lines[2].startswith("20-8-4,")

    def test_more_trials_never_worse(self, small_data, tmp_path):
        def best(trials):
            out = tmp_path / f"study{trials}.csv"
            main([
                "init-study", "--data", str(small_data), "--widths", "3",
                "--n1", "8", "--trials", str(trials), "--seed", "0",
                "--out", str(out),
            ])
            return float(out.read_text().strip().splitlines()[1].split(",")[2])

        assert best(5) <= best(1)

    def test_data_driven_error_non_increasing_in_latent_width(self, pga400):
        from symae.activations import HypAct
        from symae.architecture import Skeleton
        from symae.initializers import init_study

        act = HypAct.from_sharpness(0.5)
        skeletons = [Skeleton((514, 20, n2)) for n2 in range(1, 21)]
        rows = init_study(pga400, act, skeletons, trials=1, seed=0)
        for prev, cur in zip(rows, rows[1:]):
            assert cur[1] <= prev[1] * 1.05, (
                f"latent {cur[0].latent_dim}: {cur[1]:.3e} vs {prev[1]:.3e}"
            )

    def test_depth_pattern_configs(self, tmp_path):
        # The ladder needs a first width of 65, so use a wider dataset.
        data = tmp_path / "wide.csv"
        rng = np.random.default_rng(1)
        save_snapshots(SnapshotSet(U=rng.uniform(0, 1, (100, 24))), data)
        out = tmp_path / "depth.csv"
        rc = main([
            "init-study", "--data", str(data), "--depth-pattern",
            "--trials", "1", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        configs = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
        assert configs[0] == "100-65-3"
        assert configs[-1] == "100-65-33-17-9-5-3"

    @pytest.mark.parametrize(
        "flags, first",
        [
            (("--widths", "2", "--n1", "18"), "18 exceeds numerical rank 17"),
            (("--depth-pattern",), "65 exceeds numerical rank 11"),
        ],
        ids=["widths", "depth-pattern"],
    )
    def test_width_past_the_rank_warns_in_one_line(
        self, capsys, small_data, tmp_path, flags, first
    ):
        # small_data has 20 rows and a training split of rank 17, too few rows
        # for the depth ladder's first width of 65: that case widens the data
        # as test_depth_pattern_configs does (100 rows, rank 11).
        data = small_data
        if "--depth-pattern" in flags:
            data = tmp_path / "wide.csv"
            rng = np.random.default_rng(1)
            save_snapshots(SnapshotSet(U=rng.uniform(0, 1, (100, 24))), data)
        rc = main([
            "init-study", "--data", str(data), *flags,
            "--trials", "1", "--out", str(tmp_path / "study.csv"),
        ])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == (
            f"warning: level 1: requested width {first}; padding with an orthonormal completion"
        )
        assert all(line.startswith("warning: level ") for line in lines)
        assert not any(".py" in line or "Warning" in line for line in lines)

    def test_depth_ladder_warns_once_per_level_past_the_rank(self, capsys, tmp_path):
        # Each level is built once, so each width past its rank is reported
        # once, in the order the ladder first reaches it.
        data = tmp_path / "wide.csv"
        save_snapshots(SnapshotSet(U=np.random.default_rng(1).uniform(0, 1, (100, 24))), data)
        rc = main([
            "init-study", "--data", str(data), "--depth-pattern",
            "--trials", "1", "--out", str(tmp_path / "study.csv"),
        ])
        assert rc == 0
        tail = "; padding with an orthonormal completion"
        assert capsys.readouterr().err.splitlines() == [
            f"warning: level 1: requested width 65 exceeds numerical rank 11{tail}",
            f"warning: level 2: requested width 17 exceeds numerical rank 11{tail}",
            f"warning: level 2: requested width 33 exceeds numerical rank 11{tail}",
            f"warning: level 3: requested width 17 exceeds numerical rank 11{tail}",
        ]


class TestBounds:
    def _train_model(self, small_data, tmp_path, model_class, act="identity"):
        model = tmp_path / f"{model_class}.json"
        rc = main([
            "train", "--data", str(small_data), "--class", model_class,
            "--skeleton", "20,6,3", "--act", act, "--epochs", "3",
            "--patience", "3", "--seed", "0", "--out-model", str(model),
        ])
        assert rc == 0
        return model

    @pytest.mark.parametrize("model_class", ["sae", "ae", "sbae", "soae"])
    def test_a_stored_theta_block_changes_no_row(self, small_data, tmp_path, monkeypatch, model_class):
        # Older format-3 checkpoints also carry the trained coordinates theta
        # after the levels.  The reader ignores that block, so bounds writes
        # the same bytes for such a file as for the file without it.
        import symae.cli as cli

        trained = []

        def keep_theta(*args, **kwargs):
            theta, history = train(*args, **kwargs)
            trained.append(theta)
            return theta, history

        monkeypatch.setattr(cli, "train", keep_theta)
        model = self._train_model(small_data, tmp_path, model_class, act="hypact:0.1")
        with_theta = tmp_path / "with-theta.json"
        with_theta.write_bytes(model.read_bytes())
        add_theta_block(with_theta, *trained)
        outputs = []
        for path in (model, with_theta):
            out = tmp_path / f"bounds-{path.stem}.csv"
            assert main(["bounds", "--model", str(path), "--data", str(small_data), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_orthogonal_report_sandwich(self, capsys, small_data, tmp_path):
        model = self._train_model(small_data, tmp_path, "soae", act="hypact:0.1")
        capsys.readouterr()
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--model", str(model), "--data", str(small_data), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,lower_term,upper_term"
        summary = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[-3:]}
        assert summary["lower"] <= summary["mse"] + 1e-9 <= summary["upper"] + 2e-9

    def test_identity_rows_agree(self, capsys, small_data, tmp_path):
        model = self._train_model(small_data, tmp_path, "soae", act="identity")
        capsys.readouterr()
        out = tmp_path / "bounds.csv"
        main(["bounds", "--model", str(model), "--data", str(small_data), "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        summary = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[-3:]}
        np.testing.assert_allclose(summary["lower"], summary["mse"], rtol=1e-9)
        np.testing.assert_allclose(summary["upper"], summary["mse"], rtol=1e-9)

    def test_unconstrained_model_omits_upper(self, capsys, small_data, tmp_path):
        model = self._train_model(small_data, tmp_path, "sae")
        capsys.readouterr()
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--model", str(model), "--data", str(small_data), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["mse_denorm", "mse", "lower"]

    def test_orthogonal_report_skips_the_linear_floor(self, small_data, tmp_path, monkeypatch):
        import symae.cli as cli

        model = self._train_model(small_data, tmp_path, "soae")
        args = ["bounds", "--model", str(model), "--data", str(small_data), "--out"]
        assert main([*args, str(tmp_path / "before.csv")]) == 0

        def unused(*_args, **_kwargs):
            raise AssertionError("the SOAE report does not print the linear floor")

        monkeypatch.setattr(cli, "linear_lower_bound", unused)
        assert main([*args, str(tmp_path / "after.csv")]) == 0
        assert (tmp_path / "after.csv").read_text() == (tmp_path / "before.csv").read_text()

    def test_shape_mismatch_is_data_error(self, capsys, small_data, tmp_path):
        model = self._train_model(small_data, tmp_path, "sae")
        capsys.readouterr()
        other = tmp_path / "other.csv"
        save_snapshots(SnapshotSet(U=np.ones((7, 5))), other)
        rc = main(["bounds", "--model", str(model), "--data", str(other), "--out", str(tmp_path / "b.csv")])
        assert rc == 3

    def test_scores_on_the_training_scale(self, tmp_path):
        # Data far from [0, 1]: the network is fitted on min-max normalized
        # columns, so bounds must score it on that scale, not on the raw file.
        U = 10.0 * generate_pga(40, seed=0).U + 3.0
        data = tmp_path / "scaled.csv"
        save_snapshots(SnapshotSet(U=U), data)
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--class", "soae", "--skeleton", "514,10,3",
            "--epochs", "3", "--seed", "0", "--out-model", str(model),
        ]) == 0
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
        rows = dict(line.split(",", 1) for line in out.read_text().strip().splitlines())

        psi, (lo, hi) = load_model(model)
        assert (lo, hi) == minmax_normalize(split(U, 0)[0])[1:]
        mse = empirical_mse(psi, apply_minmax(U, lo, hi))
        assert rows["mse"] == f"{mse:.10g}"
        assert rows["mse_denorm"] == f"{mse * (hi - lo) ** 2:.10g}"
        assert float(rows["lower"]) <= float(rows["mse"]) + 1e-9 <= float(rows["upper"]) + 2e-9


class TestExitCodes:
    def test_header_promising_more_cells_than_the_file_holds(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("# n0=1 S=10000000000000\n1.0\n")
        rc = main([
            "init-study", "--data", str(data), "--widths", "1", "--n1", "2",
            "--out", str(tmp_path / "study.csv"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"data error: {data}:2: expected 10000000000000 columns, found 1\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--lr", "-1"),
            ("--lr", "nan"),
            ("--batch", "0"),
            ("--epochs", "0"),
            ("--patience", "-3"),
            ("--epochs", "5", "--patience", "6"),
            ("--patience", "0"),
            ("--lr", "inf"),
        ],
        ids=["negative-lr", "nan-lr", "zero-batch", "zero-epochs", "negative-patience",
             "patience-over-epochs", "zero-patience", "inf-lr"],
    )
    def test_bad_training_flags_are_usage_errors(self, capsys, small_data, flags):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--data", str(small_data), "--class", "sae",
                "--skeleton", "20,6,3", *flags,
            ])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_trials_is_usage_error(self, capsys, small_data, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "init-study", "--data", str(small_data), "--widths", "2", "--n1", "6",
                "--trials", "0", "--out", str(tmp_path / "s.csv"),
            ])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_width_range_is_usage_error(self, capsys, small_data, tmp_path):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "init-study", "--data", str(small_data), "--widths", "3-1", "--n1", "6",
                "--trials", "1", "--out", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "empty range" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--widths", "2", "--n1", "25"),
             "--n1 25 --widths 2: first hidden dimension must shrink the input: (20, 25, 2)"),
            (("--widths", "8", "--n1", "6"),
             "--n1 6 --widths 8: hidden dimensions must be nonincreasing: (20, 6, 8)"),
            (("--depth-pattern",),
             "--depth-pattern (first width 65): first hidden dimension must shrink the "
             "input: (20, 65, 3)"),
        ],
        ids=["n1-over-rows", "width-over-n1", "depth-pattern-over-rows"],
    )
    def test_study_skeleton_errors_name_their_flags(
        self, capsys, small_data, tmp_path, flags, message
    ):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "init-study", "--data", str(small_data), *flags,
                "--trials", "1", "--out", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"symae init-study: error: {message}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("widths", ["1-2-3", "2,,3", "a-3"])
    def test_malformed_widths_name_the_flag(self, capsys, small_data, tmp_path, widths):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "init-study", "--data", str(small_data), "--widths", widths, "--n1", "6",
                "--trials", "1", "--out", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--widths {widths!r}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("init-study", "--widths", "1-2-3"),
            ("train", "--class", "sae", "--skeleton", "20,6,3", "--act", "tanh"),
            ("train", "--class", "soae", "--skeleton", "20,6,3", "--init", "he"),
        ],
        ids=["malformed-widths", "bad-act", "incompatible-init"],
    )
    def test_usage_error_reported_before_data_is_read(self, capsys, tmp_path, args):
        command, *rest = args
        out = ["--out", str(tmp_path / "s.csv")] if command == "init-study" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(tmp_path / "missing.csv"), *rest, *out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"symae {command}: error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "init-study"])
    @pytest.mark.parametrize("act", ["leakyrelu:inf,1.25", "leakyrelu:1.25,inf"])
    def test_infinite_leakyrelu_slope_is_usage_error(
        self, capsys, small_data, tmp_path, command, act
    ):
        out = tmp_path / "s.csv"
        extra = (
            ["--class", "sae", "--skeleton", "20,6,3", "--epochs", "2"]
            if command == "train"
            else ["--widths", "2", "--n1", "6", "--trials", "1", "--out", str(out)]
        )
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(small_data), "--act", act, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "slopes must be finite and positive" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "init-study"])
    def test_too_few_snapshots_is_data_error(self, capsys, tmp_path, command):
        data = tmp_path / "three.csv"
        save_snapshots(SnapshotSet(U=np.random.default_rng(0).uniform(0, 1, (20, 3))), data)
        extra = (
            ["--class", "sae", "--skeleton", "20,6,3", "--epochs", "2"]
            if command == "train"
            else ["--widths", "2", "--n1", "6", "--trials", "1", "--out", str(tmp_path / "s.csv")]
        )
        assert main([command, "--data", str(data), *extra]) == 3
        assert "at least 4 snapshots" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "init-study"])
    def test_non_utf8_data_is_data_error(self, capsys, tmp_path, command):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"# n0=3 S=2\n1,2\n3,4\n5,\x856\n")
        out = tmp_path / "s.csv"
        extra = (
            ["--class", "sae", "--skeleton", "3,2,1", "--epochs", "2"]
            if command == "train"
            else ["--widths", "1", "--n1", "2", "--trials", "1", "--out", str(out)]
        )
        assert main([command, "--data", str(data), *extra]) == 3
        err = capsys.readouterr().err
        assert "latin1.csv: byte 21: not UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "init-study"])
    def test_params_sibling_column_mismatch_is_data_error(self, capsys, tmp_path, command):
        data = tmp_path / "d.csv"
        save_snapshots(SnapshotSet(U=np.random.default_rng(0).uniform(0, 1, (3, 4))), data)
        save_snapshots(SnapshotSet(U=np.ones((1, 3))), tmp_path / "d.params.csv")
        out = tmp_path / "s.csv"
        extra = (
            ["--class", "sae", "--skeleton", "3,2,1", "--epochs", "2"]
            if command == "train"
            else ["--widths", "1", "--n1", "2", "--trials", "1", "--out", str(out)]
        )
        assert main([command, "--data", str(data), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "d.params.csv does not match" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "init-study"])
    def test_data_range_overflowing_float64_is_data_error(self, capsys, tmp_path, command):
        data = tmp_path / "big.csv"
        U = np.random.default_rng(0).uniform(-1.0, 1.0, (12, 16)) * 1.7e308
        save_snapshots(SnapshotSet(U=U), data)
        out = tmp_path / "s.csv"
        extra = (
            ["--class", "sae", "--skeleton", "12,3,2", "--epochs", "2"]
            if command == "train"
            else ["--widths", "1-2", "--n1", "3", "--trials", "2", "--out", str(out)]
        )
        assert main([command, "--data", str(data), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "hi - lo is not finite" in err
        assert "Traceback" not in err and "warning:" not in err
        assert not out.exists()

    @staticmethod
    def _held_out_past_float64(tmp_path, train_range, S=8):
        """A 3xS data file whose seed-0 training columns span ``train_range``
        and whose other columns hold 1.7e308."""
        U = np.full((3, S), 1.7e308)
        train = np.random.default_rng(0).permutation(S)[: S // 2]
        U[:, train] = np.linspace(*train_range, 3 * len(train)).reshape(3, -1)
        data = tmp_path / "wide.csv"
        save_snapshots(SnapshotSet(U=U), data)
        return data

    @staticmethod
    def _model_fitted_on(tmp_path, lo, hi):
        """A 3,1 SAE checkpoint whose stored range is ``(lo, hi)``."""
        theta = random_theta("SAE", Skeleton((3, 1)), Identity(), np.random.default_rng(0))
        model = tmp_path / "fitted.json"
        save_model(assemble(theta), model)
        doc = json.loads(model.read_text())
        doc["normalization"] = {"lo": lo, "hi": hi}
        model.write_text(json.dumps(doc))
        return model

    @pytest.mark.parametrize(
        "train_range, message",
        [((-1e308, 0.0), "its square is not"), ((0.0, 0.5), "fitted min-max map")],
        ids=["range-square-overflows", "map-overflows"],
    )
    @pytest.mark.parametrize("command", ["train", "init-study", "bounds"])
    def test_held_out_data_past_float64_is_data_error(
        self, capsys, tmp_path, command, train_range, message
    ):
        # The training columns fit a range under which the other columns
        # leave float64, or whose square (the scale of mse_denorm) does; a
        # checkpoint fitted on the latter is refused when it loads.  Nothing
        # is trained and no file is written.
        data = self._held_out_past_float64(tmp_path, train_range)
        out = tmp_path / "out.csv"
        if command == "train":
            extra = ["--class", "soae", "--skeleton", "3,2,1", "--epochs", "2",
                     "--out-model", str(out)]
        elif command == "init-study":
            extra = ["--widths", "1", "--n1", "2", "--trials", "2", "--out", str(out)]
        else:
            model = self._model_fitted_on(tmp_path, *train_range)
            extra = ["--model", str(model), "--out", str(out)]
            if train_range[0] == -1e308:
                message = "finite lo < hi"
        assert main([command, "--data", str(data), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
        assert "Traceback" not in err and "warning:" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("gen-pga", "--samples", "5"),
            ("train", "--class", "sae", "--skeleton", "20,6,3", "--epochs", "2"),
            ("init-study", "--widths", "2", "--n1", "6", "--trials", "1"),
        ],
        ids=["gen-pga", "train", "init-study"],
    )
    def test_negative_seed_is_usage_error(self, capsys, small_data, tmp_path, flags):
        command, *rest = flags
        data = [] if command == "gen-pga" else ["--data", str(small_data)]
        out = [] if command == "train" else ["--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exc:
            main([command, *data, *rest, *out, "--seed", "-1"])
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            '{"format_version": 999}',
            _sae_checkpoint(version=2),
            "not json {",
            '{"format_version": 3}',
            _sae_checkpoint(E_rows=2),
            _sbae_checkpoint(D_shift=1e-6),
            _sae_checkpoint(normalization=None),
            _sae_checkpoint(normalization=(1.0, 1.0)),
            _sae_checkpoint(normalization=(0.0, float("inf"))),
            _sae_checkpoint(skeleton=(20.4, 3.2)),
            _overflowing_sbae_checkpoint(),
        ],
        ids=[
            "wrong-version", "version-2", "invalid-json", "missing-key", "bad-shape",
            "sbae-invariant-gap", "missing-normalization", "empty-normalization",
            "infinite-normalization", "non-integer-skeleton", "nan-invariant-gap",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, capsys, small_data, tmp_path, content):
        model = tmp_path / "model.json"
        model.write_text(content)
        rc = main([
            "bounds", "--model", str(model), "--data", str(small_data),
            "--out", str(tmp_path / "b.csv"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_non_finite_init_study_is_numerical_failure(self, capsys, small_data, tmp_path):
        # Slopes of 1e-200 and 1e200 overflow every score; the study must not
        # write nan and inf rows and exit 0.
        out = tmp_path / "study.csv"
        with np.errstate(all="ignore"):
            rc = main([
                "init-study", "--data", str(small_data), "--widths", "1-3", "--n1", "5",
                "--trials", "2", "--act", "leakyrelu:1e-200,1e200", "--out", str(out),
            ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numerical failure: init study of skeleton (20, 5, 1):" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_bounds_is_numerical_failure(self, capsys, small_data, tmp_path):
        # Weights of 1e200 are finite, but the reconstruction error overflows.
        model = tmp_path / "model.json"
        model.write_text(_sae_checkpoint(fill=1e200))
        out = tmp_path / "bounds.csv"
        with np.errstate(all="ignore"):
            rc = main(["bounds", "--model", str(model), "--data", str(small_data), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "mse_denorm,inf" in err
        assert not out.exists()

    def test_numerical_failure_maps_to_exit_4(self, small_data, monkeypatch):
        import symae.cli as cli
        from symae.linalg import NumericalError

        def blow_up(*args, **kwargs):
            raise NumericalError("non-finite training loss at epoch 1, batch 1")

        monkeypatch.setattr(cli, "train", blow_up)
        rc = main([
            "train", "--data", str(small_data), "--class", "sae",
            "--skeleton", "20,6,3", "--epochs", "2", "--patience", "2",
        ])
        assert rc == 4

    def test_broken_init_study_draw_is_numerical_failure(
        self, capsys, small_data, tmp_path, monkeypatch
    ):
        import symae.initializers as initializers
        from symae.linalg import pi_orth

        monkeypatch.setattr(initializers, "pi_orth", lambda A: 2.0 * pi_orth(A))
        rc = main([
            "init-study", "--data", str(small_data), "--widths", "2,4", "--n1", "8",
            "--trials", "3", "--out", str(tmp_path / "study.csv"),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: random trial 0, level 1:")
        assert "Traceback" not in err

    def test_covariance_svd_failure_in_init_study_is_numerical_failure(
        self, capsys, small_data, tmp_path, monkeypatch
    ):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        out = tmp_path / "study.csv"
        rc = main([
            "init-study", "--data", str(small_data), "--widths", "2,4", "--n1", "8",
            "--trials", "3", "--out", str(out),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_model_path_is_io_error(self, capsys, small_data, tmp_path):
        rc = main([
            "train", "--data", str(small_data), "--class", "sae",
            "--skeleton", "20,6,3", "--epochs", "2", "--patience", "2",
            "--out-model", str(tmp_path / "missing_dir" / "model.json"),
        ])
        assert rc == 3
