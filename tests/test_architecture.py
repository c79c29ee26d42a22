import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _util import random_theta, small_skeletons
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import (
    Layer,
    ParamVector,
    Skeleton,
    SymmetricAutoencoder,
    assemble,
    check_class_invariants,
    load_model,
    loss_on_batch,
    save_model,
)
from symae.autodiff import gradient
from symae.data_io import DataFormatError
from symae.initializers import lift
from symae.linalg import pi_orth
from symae.training import AdamState, adam_step


def random_network(class_tag, skeleton, act, seed):
    return assemble(random_theta(class_tag, skeleton, act, np.random.default_rng(seed)))


class TestSkeleton:
    def test_valid(self):
        sk = Skeleton((514, 64, 15, 3))
        assert sk.depth == 3
        assert sk.latent_dim == 3
        assert sk.layer_shape(1) == (514, 64)
        assert Skeleton((np.int64(7), np.int32(4))).dims == (7, 4)

    def test_equal_hidden_dims_allowed(self):
        Skeleton((514, 20, 20))

    @pytest.mark.parametrize(
        "dims",
        [
            (514, 64, 65, 3), (10, 10), (5, 8), (4, 2, 0), (6,), (6, -2),
            (7.9, 4, 2), (7.0, 4), ("7", "4"), (7, True),
        ],
    )
    def test_invalid(self, dims):
        with pytest.raises(ValueError):
            Skeleton(dims)


class TestAssemble:
    def test_biorthogonal_layer_satisfies_constraint(self):
        rng = np.random.default_rng(0)
        theta = random_theta("SBAE", Skeleton((5, 3)), Identity(), rng)
        psi = assemble(theta)
        E, D = psi.layers[0].E, psi.layers[0].D
        assert E.shape == (3, 5) and D.shape == (5, 3)
        assert np.max(np.abs(E @ D - np.eye(3))) <= 1e-10

    def test_biorthogonal_reduces_to_orthogonal_on_neutral_factors(self):
        # Identity rotation, unit scales, zero free block: the layer is the
        # transpose pair built from the orthonormal frame.
        rng = np.random.default_rng(1)
        X = pi_orth(rng.standard_normal((7, 3)))
        theta = ParamVector(
            "SBAE",
            Skeleton((7, 3)),
            Identity(),
            [
                {
                    "X": X,
                    "Z": np.eye(3),
                    "W": np.zeros((7, 3)),
                    "s": np.ones((3, 1)),
                    "b": np.zeros((7, 1)),
                }
            ],
        )
        psi = assemble(theta)
        np.testing.assert_allclose(psi.layers[0].E, X.T, atol=1e-12)
        np.testing.assert_allclose(psi.layers[0].D, psi.layers[0].E.T, atol=1e-12)

    def test_orthogonal_fixed_point(self):
        rng = np.random.default_rng(2)
        A = pi_orth(rng.standard_normal((6, 4)))
        theta = ParamVector(
            "SOAE", Skeleton((6, 4)), Identity(), [{"A": A, "b": np.zeros((6, 1))}]
        )
        psi = assemble(theta)
        np.testing.assert_allclose(psi.layers[0].E, A.T, atol=1e-12)

    def test_zero_scale_rejected(self):
        rng = np.random.default_rng(3)
        theta = random_theta("SBAE", Skeleton((5, 3)), Identity(), rng)
        theta.layers[0]["s"][1, 0] = 0.0
        with pytest.raises(ValueError, match="zero"):
            assemble(theta)

    def test_degenerate_free_block_when_widths_match(self):
        # With n_j = n_{j-1} the frame X is square, so (I - X X^T) W = 0:
        # level 2 is built without its free block, which has no effect.
        rng = np.random.default_rng(4)
        theta = random_theta("SBAE", Skeleton((6, 3, 3)), Identity(), rng)
        psi = assemble(theta)
        theta.layers[1]["W"] = np.zeros((3, 3))
        without = assemble(theta)
        for a, b in zip(psi.layers[1], without.layers[1]):
            assert np.array_equal(a, b)
        assert np.max(np.abs(psi.layers[1].E @ psi.layers[1].D - np.eye(3))) <= 1e-10

    def test_square_level_free_block_is_dead(self):
        # Level 2 of 8,4,4,2 is square: its W gets an exactly zero gradient,
        # so Adam leaves it as it is, and any W assembles as W = 0 does.
        skeleton, act = Skeleton((8, 4, 4, 2)), LeakyReLU(5 / 6, 5 / 4)
        theta = random_theta("SBAE", skeleton, act, np.random.default_rng(0), well_conditioned=True)
        batch = np.random.default_rng(1).uniform(0.0, 1.0, (8, 5))

        def loss(leaves, batch):
            return loss_on_batch("SBAE", act, theta.with_leaves(leaves), batch)

        _, grads = gradient(loss, theta.leaves(), batch)
        W_grads = [level["W"] for level in theta.with_leaves(grads)]
        assert not np.any(W_grads[1])
        assert np.any(W_grads[0]) and np.any(W_grads[2])
        state = AdamState(theta.leaves())
        W_before = theta.with_leaves(state.leaves)[1]["W"].copy()
        adam_step(grads, state, lr=1e-2)
        assert np.array_equal(theta.with_leaves(state.leaves)[1]["W"], W_before)
        psi = assemble(theta)
        theta.layers[1]["W"] = np.zeros((4, 4))
        for a, b in zip(psi.layers, assemble(theta).layers):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_class_invariants_enforced(self):
        bad = Layer(
            E=np.ones((2, 4)), D=np.ones((4, 2)), e=np.zeros((2, 1)), d=np.zeros((4, 1))
        )
        with pytest.raises(ValueError, match="E D = I"):
            SymmetricAutoencoder(Skeleton((4, 2)), Identity(), (bad,), "SBAE")

    @pytest.mark.parametrize(
        "class_tag, E, D, match",
        [
            # E D overflows to inf - inf = NaN, a gap no comparison with > catches.
            ("SBAE", np.full((1, 16), 1e200), np.tile([[1e200], [-1e200]], (8, 1)), "E D = I"),
            ("SOAE", np.eye(2, 4), np.where(np.eye(4, 2), np.nan, 0.0), "E D = I"),
            ("SOAE", np.full((2, 4), np.inf), np.full((4, 2), np.inf), "E D = I"),
        ],
        ids=["overflowing-product", "nan-decoder", "infinite-weights"],
    )
    def test_nan_gap_violates_the_invariant(self, class_tag, E, D, match):
        q, r = D.shape
        layer = Layer(E=E, D=D, e=np.zeros((r, 1)), d=np.zeros((q, 1)))
        with pytest.raises(ValueError, match=match):
            check_class_invariants(class_tag, (layer,))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["SBAE", "SOAE"]), small_skeletons(), st.integers(0, 2**32 - 1))
    def test_constraint_residual_is_the_max_gap(self, class_tag, skeleton, seed):
        psi = random_network(class_tag, skeleton, LeakyReLU(5 / 6, 5 / 4), seed)
        direct = max(
            float(np.max(np.abs(l.E @ l.D - np.eye(l.E.shape[0])))) for l in psi.layers
        )
        assert psi.constraint_residual() == direct

    @settings(max_examples=100, deadline=None)
    @given(small_skeletons(), st.integers(0, 2**32 - 1))
    def test_free_block_counts_only_off_the_frame(self, skeleton, seed):
        # D = X K_D + (I - X X^T) W: moving W along the frame, W -> W + X C,
        # leaves every assembled layer unchanged, and E D = I either way.
        rng = np.random.default_rng(seed)
        theta = random_theta("SBAE", skeleton, Identity(), rng)
        psi = assemble(theta)
        for params in theta.layers:
            X, W = pi_orth(params["X"]), params["W"]
            params["W"] = W + X @ rng.standard_normal((X.shape[1], X.shape[1]))
        moved = assemble(theta)
        for a, b in zip(psi.layers, moved.layers):
            for x, y in zip(a, b):
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
        assert moved.constraint_residual() <= 1e-10


class TestExecution:
    def test_single_layer_identity_projector(self):
        E = np.eye(3, 5)
        psi = SymmetricAutoencoder(
            Skeleton((5, 3)),
            Identity(),
            (Layer(E=E, D=E.T, e=np.zeros((3, 1)), d=np.zeros((5, 1))),),
            "SOAE",
        )
        u = np.arange(5.0)
        np.testing.assert_allclose(psi.encode(u), u[:3])
        c = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(psi.decode(c), np.concatenate([c, [0.0, 0.0]]))

    def test_orthogonal_encode_matches_hand_composition(self):
        act = LeakyReLU(0.5, 2.0)
        psi = random_network("SOAE", Skeleton((7, 4, 2)), act, seed=5)
        u = np.random.default_rng(6).standard_normal(7)
        h = u.copy()
        for layer in psi.layers:
            h = act.apply(layer.D.T @ (h.reshape(-1, 1) - layer.d)).ravel()
        np.testing.assert_allclose(psi.encode(u), h, rtol=1e-12)

    def test_biorthogonal_latent_roundtrip(self):
        psi = random_network("SBAE", Skeleton((9, 5, 3)), HypAct.from_sharpness(0.5), seed=7)
        c = np.random.default_rng(8).standard_normal((3, 20))
        np.testing.assert_allclose(psi.encode(psi.decode(c)), c, atol=1e-9)

    def test_reconstruct_is_decode_of_encode(self):
        psi = random_network("SAE", Skeleton((6, 3)), LeakyReLU(0.5, 2.0), seed=9)
        u = np.random.default_rng(10).standard_normal((6, 4))
        assert np.array_equal(psi.reconstruct(u), psi.decode(psi.encode(u)))

    def test_biorthogonal_reconstruction_idempotent(self):
        psi = random_network("SBAE", Skeleton((8, 4, 2)), LeakyReLU(5 / 6, 5 / 4), seed=11)
        u = np.random.default_rng(12).standard_normal((8, 10))
        once = psi.reconstruct(u)
        np.testing.assert_allclose(psi.reconstruct(once), once, atol=1e-8)

    def test_reconstruct_fixes_decoder_range(self):
        psi = random_network("SBAE", Skeleton((8, 4, 2)), HypAct.from_sharpness(0.5), seed=13)
        c = np.random.default_rng(14).standard_normal((2, 10))
        v = psi.decode(c)
        np.testing.assert_allclose(psi.reconstruct(v), v, atol=1e-8)

    def test_single_layer_orthogonal_identity_is_linear_projection(self):
        psi = random_network("SOAE", Skeleton((6, 2)), Identity(), seed=15)
        V, b = psi.layers[0].D, psi.layers[0].d
        u = np.random.default_rng(16).standard_normal((6, 5))
        np.testing.assert_allclose(
            psi.reconstruct(u), V @ (V.T @ (u - b)) + b, rtol=1e-12
        )

    def test_hidden_trajectory_levels(self):
        psi = random_network("SOAE", Skeleton((7, 4, 2)), LeakyReLU(0.5, 2.0), seed=17)
        u = np.random.default_rng(18).standard_normal((7, 3))
        levels = psi.hidden_trajectory(u)
        assert [lvl.shape[0] for lvl in levels] == [7, 4, 2]
        np.testing.assert_allclose(levels[0], u)
        np.testing.assert_allclose(levels[-1], psi.encode(u))

    def test_orthogonal_maps_are_lipschitz(self):
        act = HypAct.from_sharpness(0.5)
        lip, lip_inv = act.lipschitz_pair()
        psi = random_network("SOAE", Skeleton((10, 5, 3)), act, seed=19)
        rng = np.random.default_rng(20)
        u1, u2 = rng.standard_normal((2, 10, 200))
        enc_ratio = np.linalg.norm(psi.encode(u1) - psi.encode(u2), axis=0) / np.linalg.norm(
            u1 - u2, axis=0
        )
        assert np.all(enc_ratio <= lip**2 * (1 + 1e-9))
        c1, c2 = rng.standard_normal((2, 3, 200))
        dec_ratio = np.linalg.norm(psi.decode(c1) - psi.decode(c2), axis=0) / np.linalg.norm(
            c1 - c2, axis=0
        )
        assert np.all(dec_ratio <= lip_inv**2 * (1 + 1e-9))


class TestClassNesting:
    def test_orthogonal_passes_biorthogonal_checks(self):
        psi = random_network("SOAE", Skeleton((8, 4, 2)), Identity(), seed=21)
        SymmetricAutoencoder(psi.skeleton, psi.act, psi.layers, "SBAE")

    def test_biorthogonal_passes_unconstrained_checks(self):
        psi = random_network("SBAE", Skeleton((8, 4, 2)), Identity(), seed=22)
        SymmetricAutoencoder(psi.skeleton, psi.act, psi.layers, "SAE")

    def test_representation_consistency_over_random_networks(self):
        rng = np.random.default_rng(23)
        for class_tag in ("SBAE", "SOAE"):
            for trial in range(20):
                theta = random_theta(
                    class_tag, Skeleton((9, 4, 2)), LeakyReLU(5 / 6, 5 / 4), rng
                )
                psi = assemble(theta)
                c = rng.standard_normal((2, 5))
                assert np.max(np.abs(psi.encode(psi.decode(c)) - c)) <= 1e-8


class TestPlainAE:
    def test_decoder_activates_all_but_output_layer(self):
        act = LeakyReLU(0.5, 2.0)
        sigma = act.apply_inverse
        psi = random_network("PlainAE", Skeleton((6, 4, 2)), act, seed=24)
        (l1, l2) = psi.layers
        u = np.random.default_rng(25).standard_normal((6, 3))
        latent = sigma(l2.E @ sigma(l1.E @ u + l1.e) + l2.e)
        expected = l1.D @ sigma(l2.D @ latent + l2.d) + l1.d
        np.testing.assert_allclose(psi.reconstruct(u), expected, rtol=1e-12)

    def test_one_extra_bottleneck_activation_vs_symmetric(self):
        # With shared single-layer weights: the symmetric network's forward
        # and inverse activations cancel at the bottleneck, while the plain
        # network keeps exactly one surviving bottleneck activation.
        act = LeakyReLU(0.5, 2.0)
        theta = random_theta("SAE", Skeleton((6, 3)), act, np.random.default_rng(26))
        sae = assemble(theta)
        plain = SymmetricAutoencoder(sae.skeleton, act, sae.layers, "PlainAE")
        u = np.random.default_rng(27).standard_normal((6, 4))
        (layer,) = sae.layers
        sae_out = layer.D @ (layer.E @ u + layer.e) + layer.d  # bottleneck pair cancels
        np.testing.assert_allclose(sae.reconstruct(u), sae_out, rtol=1e-12)
        plain_out = layer.D @ act.apply_inverse(layer.E @ u + layer.e) + layer.d
        np.testing.assert_allclose(plain.reconstruct(u), plain_out, rtol=1e-12)


class TestThetaExtraction:
    def test_orthogonal_reextraction_reproduces_network(self):
        psi = random_network("SOAE", Skeleton((8, 4, 2)), LeakyReLU(0.5, 2.0), seed=28)
        theta = lift(psi, "SOAE")
        again = assemble(theta)
        for a, b in zip(psi.layers, again.layers):
            np.testing.assert_allclose(a.E, b.E, atol=1e-12)
            np.testing.assert_allclose(a.D, b.D, atol=1e-12)
            np.testing.assert_allclose(a.e, b.e, atol=1e-12)
            np.testing.assert_allclose(a.d, b.d, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        psi = random_network("SBAE", Skeleton((7, 4, 2)), HypAct.from_sharpness(3.0), seed=29)
        path = tmp_path / "model.json"
        save_model(psi, path)
        again, theta, normalization = load_model(path)
        assert theta is None
        assert normalization == (0.0, 1.0)
        assert again.class_tag == psi.class_tag
        assert again.skeleton == psi.skeleton
        assert again.act == psi.act
        for a, b in zip(psi.layers, again.layers):
            assert np.array_equal(a.E, b.E)
            assert np.array_equal(a.D, b.D)
            assert np.array_equal(a.e, b.e)
            assert np.array_equal(a.d, b.d)

    def test_theta_block_roundtrip(self, tmp_path):
        rng = np.random.default_rng(30)
        theta = random_theta("SOAE", Skeleton((6, 3)), Identity(), rng)
        psi = assemble(theta)
        path = tmp_path / "model.json"
        save_model(psi, path, theta=theta)
        _again, theta2, _normalization = load_model(path)
        assert theta2 is not None and theta2.class_tag == "SOAE"
        for p1, p2 in zip(theta.layers, theta2.layers):
            for key in p1:
                assert np.array_equal(p1[key], p2[key])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["SAE", "PlainAE", "SBAE", "SOAE"]),
        small_skeletons(),
        st.sampled_from([Identity(), LeakyReLU(5 / 6, 5 / 4), HypAct.from_sharpness(3.0)]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        # Any range a checkpoint may hold: finite lo < hi whose (hi - lo)^2
        # is finite too.
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2,
                 unique=True).map(sorted).filter(
                     lambda lo_hi: math.isfinite((lo_hi[1] - lo_hi[0]) * (lo_hi[1] - lo_hi[0]))
                 ),
    )
    # An SBAE level with n_j = n_{j-1} has a square frame.
    @example("SBAE", Skeleton((2, 1, 1)), Identity(), 0, True, [0.0, 1.0])
    def test_roundtrip_is_bit_exact(self, class_tag, skeleton, act, seed, with_theta, lo_hi):
        rng = np.random.default_rng(seed)
        theta = random_theta(class_tag, skeleton, act, rng, well_conditioned=True)
        psi = assemble(theta)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(psi, path, theta=theta if with_theta else None, normalization=lo_hi)
            again, theta2, normalization = load_model(path)

        def same_bits(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        assert np.array(lo_hi).tobytes() == np.array(normalization).tobytes()
        assert (again.class_tag, again.skeleton, again.act) == (class_tag, skeleton, act)
        assert len(again.layers) == len(psi.layers)
        for a, b in zip(psi.layers, again.layers):
            assert all(same_bits(x, y) for x, y in zip(a, b))
        if not with_theta:
            assert theta2 is None
            return
        assert theta2.class_tag == class_tag
        assert [list(p) for p in theta2.layers] == [list(p) for p in theta.layers]
        assert all(same_bits(x, y) for x, y in zip(theta.leaves(), theta2.leaves()))

    @pytest.mark.parametrize(
        "target, shift, loads",
        [("layers", 1e-12, True), ("theta", 1e-6, False)],
        ids=["roundoff-in-layers", "tampered-theta"],
    )
    def test_theta_must_assemble_to_the_layers(self, tmp_path, target, shift, loads):
        # A stored theta is checked against the stored layers to BIORTH_TOL,
        # relative to max(1, |entry|): roundoff from another BLAS build
        # loads, a real mismatch is a DataFormatError.
        theta = random_theta("SBAE", Skeleton((9, 4, 2)), Identity(), np.random.default_rng(33))
        path = tmp_path / "model.json"
        save_model(assemble(theta), path, theta=theta)
        doc = json.loads(path.read_text())
        block = doc["layers"][1]["E"] if target == "layers" else doc["theta"]["layers"][1]["X"]
        block[0][0] *= 1.0 + shift
        path.write_text(json.dumps(doc))
        if loads:
            load_model(path)
        else:
            with pytest.raises(DataFormatError, match="does not assemble to layer 2"):
                load_model(path)

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"lo": 1.0, "hi": 1.0}, "finite lo < hi"),
            ({"lo": 2.0, "hi": 1.0}, "finite lo < hi"),
            ({"lo": 0.0, "hi": float("inf")}, "finite lo < hi"),
            ({"lo": float("nan"), "hi": 1.0}, "finite lo < hi"),
            ({"lo": -1e308, "hi": 0.0}, "finite lo < hi"),
            ({"lo": "zero", "hi": 1.0}, "bad value"),
            ({"lo": 0.0}, "lacks the key 'hi'"),
            (None, "lacks the key 'normalization'"),
        ],
        ids=[
            "empty-range", "reversed", "infinite", "nan", "square-overflows", "not-a-number",
            "no-hi", "missing",
        ],
    )
    def test_bad_normalization_is_data_error(self, tmp_path, block, message):
        path = tmp_path / "model.json"
        save_model(random_network("SAE", Skeleton((5, 2)), Identity(), seed=35), path)
        doc = json.loads(path.read_text())
        if block is None:
            del doc["normalization"]
        else:
            doc["normalization"] = block
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=message):
            load_model(path)

    def test_save_rejects_a_bad_normalization(self, tmp_path):
        psi = random_network("SAE", Skeleton((5, 2)), Identity(), seed=36)
        with pytest.raises(ValueError, match="finite lo < hi"):
            save_model(psi, tmp_path / "model.json", normalization=(1.0, 0.0))

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unknown_version_rejected(self, tmp_path, version):
        # Only format 3 loads: an otherwise valid file of another version
        # is a data error, older versions included.
        path = tmp_path / "bad.json"
        save_model(random_network("SAE", Skeleton((5, 2)), Identity(), seed=35), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        message = f"unsupported checkpoint version {version}"
        with pytest.raises(DataFormatError, match=message):
            load_model(path)


class TestParamVectorValidation:
    def test_wrong_keys_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            ParamVector(
                "SOAE",
                Skeleton((4, 2)),
                Identity(),
                [{"A": np.zeros((4, 2))}],
            )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ParamVector(
                "SOAE",
                Skeleton((4, 2)),
                Identity(),
                [{"A": np.zeros((2, 4)), "b": np.zeros((4, 1))}],
            )

    def test_vector_and_matrix_inputs_agree(self):
        psi = random_network("SAE", Skeleton((5, 2)), LeakyReLU(0.5, 2.0), seed=31)
        u = np.random.default_rng(32).standard_normal(5)
        np.testing.assert_allclose(
            psi.reconstruct(u), psi.reconstruct(u.reshape(-1, 1))[:, 0]
        )


def _dense_layers(skeleton, seed):
    return list(random_network("SAE", skeleton, Identity(), seed).layers)


def _network_with_bad_E(skeleton):
    layers = _dense_layers(skeleton, 40)
    layers[1] = layers[1]._replace(E=np.zeros((3, 5)))
    return SymmetricAutoencoder(skeleton, Identity(), tuple(layers), "SOAE")


def _network_with_nan_D(skeleton):
    layers = _dense_layers(skeleton, 41)
    D = layers[1].D.copy()
    D[0, 1] = np.nan
    layers[1] = layers[1]._replace(D=D)
    return SymmetricAutoencoder(skeleton, Identity(), tuple(layers), "SAE")


def _network_missing_a_level(skeleton):
    return SymmetricAutoencoder(skeleton, Identity(), tuple(_dense_layers(skeleton, 42)[:1]), "SAE")


def _theta_with_bad_W(skeleton):
    theta = random_theta("SBAE", skeleton, Identity(), np.random.default_rng(43))
    theta.layers[1]["W"] = np.zeros((2, 5))
    return ParamVector("SBAE", skeleton, Identity(), theta.layers)


def _theta_missing_a_level(skeleton):
    theta = random_theta("SOAE", skeleton, Identity(), np.random.default_rng(44))
    return ParamVector("SOAE", skeleton, Identity(), theta.layers[1:])


class TestLayoutCheck:
    """One layout check guards dense networks and parameter vectors alike."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (_network_with_bad_E, r"layer 2 parameter E has shape \(3, 5\), expected \(2, 5\)"),
            (_network_with_nan_D, "layer 2 weight D has non-finite entries"),
            (_network_missing_a_level, "skeleton depth 2 != layer count 1"),
            (_theta_with_bad_W, r"layer 2 parameter W has shape \(2, 5\), expected \(5, 2\)"),
            (_theta_missing_a_level, "skeleton depth 2 != layer count 1"),
        ],
        ids=["network-shape", "network-nan", "network-level", "theta-shape", "theta-level"],
    )
    def test_rejects_what_does_not_fit(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(Skeleton((8, 5, 2)))

    @pytest.mark.parametrize("class_tag", ["SAE", "SBAE", "SOAE", "PlainAE"])
    def test_leaves_come_out_in_canonical_order(self, class_tag):
        skeleton = Skeleton((8, 5, 2))
        canonical = random_theta(class_tag, skeleton, Identity(), np.random.default_rng(45))
        shuffled = [dict(reversed(list(params.items()))) for params in canonical.layers]
        theta = ParamVector(class_tag, skeleton, Identity(), shuffled)
        assert [list(p) for p in theta.layers] == [list(p) for p in canonical.layers]
        assert all(a is b for a, b in zip(theta.leaves(), canonical.leaves()))
        regrouped = theta.with_leaves(theta.leaves())
        assert [list(p) for p in regrouped] == [list(p) for p in theta.layers]
        assert all(r[k] is p[k] for r, p in zip(regrouped, theta.layers) for k in p)
