import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from _util import random_theta
from symae.activations import Identity
from symae.architecture import Skeleton, assemble, load_model, save_model
from symae.cli import main
from symae.data_io import SnapshotSet, save_snapshots


def _sae_checkpoint(E_rows=3, theta_layers=None):
    """An SAE checkpoint text for skeleton 20,3 with zero weights."""
    doc = {
        "format_version": 1,
        "class_tag": "SAE",
        "skeleton": [20, 3],
        "activation_spec": "identity",
        "layers": [{
            "E": np.zeros((E_rows, 20)).tolist(),
            "D": np.zeros((20, 3)).tolist(),
            "e": np.zeros((3, 1)).tolist(),
            "d": np.zeros((20, 1)).tolist(),
        }],
    }
    if theta_layers is not None:
        doc["theta"] = {"class_tag": "SAE", "layers": theta_layers}
    return json.dumps(doc)


def _sbae_checkpoint(theta_shift=0.0):
    """An SBAE checkpoint text for skeleton 20,6,3 with its theta.

    ``theta_shift`` is added to one entry of the stored theta, so a nonzero
    shift leaves layers that the theta no longer assembles to.
    """
    theta = random_theta("SBAE", Skeleton((20, 6, 3)), Identity(), np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(assemble(theta), path, theta=theta)
        doc = json.loads(path.read_text())
    doc["theta"]["layers"][0]["X"][0][0] += theta_shift
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
        psi, theta = load_model(tmp_path / "model.json")
        assert psi.class_tag == "SBAE" and theta is not None
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
        rc, _ = self._run(
            capsys, small_data, tmp_path, "--class", "soae", "--init", "he"
        )
        assert rc == 2

    def test_skeleton_data_mismatch(self, capsys, small_data, tmp_path):
        rc = main([
            "train", "--data", str(small_data), "--class", "sae",
            "--skeleton", "19,6,3", "--epochs", "2", "--patience", "2",
        ])
        assert rc == 2

    def test_missing_data_file(self, tmp_path):
        rc = main([
            "train", "--data", str(tmp_path / "none.csv"), "--class", "sae",
            "--skeleton", "20,6,3",
        ])
        assert rc == 3

    def test_bad_activation_spec(self, capsys, small_data, tmp_path):
        rc, _ = self._run(capsys, small_data, tmp_path, "--class", "sae", "--act", "tanh")
        assert rc == 2


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
        assert lines[0] == "k,lower_term"
        assert not any("upper" in line for line in lines)
        assert any(line.startswith("lower,") for line in lines)

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


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--lr", "-1"),
            ("--lr", "nan"),
            ("--batch", "0"),
            ("--epochs", "0"),
            ("--patience", "-3"),
            ("--epochs", "5", "--patience", "6"),
        ],
        ids=["negative-lr", "nan-lr", "zero-batch", "zero-epochs", "negative-patience",
             "patience-over-epochs"],
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
        rc = main([
            "init-study", "--data", str(small_data), "--widths", "3-1", "--n1", "6",
            "--trials", "1", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "empty range" in err and "Traceback" not in err
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
            "not json {",
            '{"format_version": 1}',
            _sae_checkpoint(E_rows=2),
            _sae_checkpoint(theta_layers=[[]]),
            _sbae_checkpoint(theta_shift=1e-3),
        ],
        ids=[
            "wrong-version", "invalid-json", "missing-key", "bad-shape", "bad-theta-layer",
            "tampered-sbae-theta",
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

    def test_unwritable_model_path_is_io_error(self, capsys, small_data, tmp_path):
        rc = main([
            "train", "--data", str(small_data), "--class", "sae",
            "--skeleton", "20,6,3", "--epochs", "2", "--patience", "2",
            "--out-model", str(tmp_path / "missing_dir" / "model.json"),
        ])
        assert rc == 3
