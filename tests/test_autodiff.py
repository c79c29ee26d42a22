import numpy as np
import pytest

from _util import grad_check, random_theta
from symae.activations import HypAct, Identity, LeakyReLU
from symae.architecture import Skeleton, loss_on_batch
from symae.autodiff import Var, backward, gradient, square, sum_sq, value_of
from symae.linalg import NumericalError, _copyltu, pi_orth


def loss_program(class_tag, act, theta):
    def program(leaves, batch):
        return loss_on_batch(class_tag, act, theta.with_leaves(leaves), batch)

    return program


class TestPrimitives:
    def test_sum_of_squares_gradient_is_2x(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        v = Var(x)
        out = sum_sq(v)
        backward(out)
        np.testing.assert_allclose(v.grad, 2 * x)

    def test_broadcast_sub_column_vector(self):
        H = np.random.default_rng(1).standard_normal((5, 7))
        b = np.random.default_rng(2).standard_normal((5, 1))
        vb = Var(b)
        out = sum_sq(Var(H) - vb)
        backward(out)
        np.testing.assert_allclose(vb.grad, -2 * np.sum(H - b, axis=1, keepdims=True))

    def test_constant_operands_get_no_edge(self):
        v = Var(np.ones((3, 2)))
        node = v - np.ones((3, 1))
        assert node.parents == (v,)
        assert len(node.vjp(np.ones((3, 2)))) == 1

    @pytest.mark.parametrize(
        "op",
        [
            lambda v, c: sum_sq(square(v)),
            lambda v, c: sum_sq(v * c),
        ],
        ids=["square", "broadcast_mul"],
    )
    def test_primitive_vjps_match_finite_differences(self, op):
        rng = np.random.default_rng(3)
        x = np.abs(rng.standard_normal((3, 3))) + 0.5
        c = rng.standard_normal((1, 3))

        def program(leaves):
            return op(*leaves)

        assert grad_check(program, [x, c]) <= 1e-7


class TestBackwardSemantics:
    def test_fanout_accumulates(self):
        # d/dx (|x|^2 |x|^2) = 4 |x|^2 x: the product node's two edges reach
        # the leaf through two sum_sq nodes.
        x = np.random.default_rng(5).standard_normal((3, 2))
        v = Var(x)
        out = sum_sq(v) * sum_sq(v)
        backward(out)
        np.testing.assert_allclose(v.grad, 4 * np.sum(x * x) * x)

    def test_adjoint_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        T = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 1))
        a, b = 0.7, -1.3

        def f(v):
            return sum_sq(pi_orth(v) - T)

        def g(v):
            return sum_sq(v * w - T)

        vf = Var(x)
        backward(f(vf))
        vg = Var(x)
        backward(g(vg))
        vc = Var(x)
        # a f + b g, in the operations the tape has
        backward(f(vc) * a - g(vc) * -b)
        np.testing.assert_allclose(vc.grad, a * vf.grad + b * vg.grad, atol=1e-10)

    def test_gradients_bitwise_deterministic(self):
        rng = np.random.default_rng(7)
        theta = random_theta("SBAE", Skeleton((8, 4, 2)), LeakyReLU(0.5, 2.0), rng)
        batch = rng.standard_normal((8, 5))
        program = loss_program("SBAE", theta.act, theta)
        loss1, grads1 = gradient(program, theta.leaves(), batch)
        loss2, grads2 = gradient(program, theta.leaves(), batch)
        assert loss1 == loss2
        for g1, g2 in zip(grads1, grads2):
            assert np.array_equal(g1, g2)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar root"):
            backward(Var(np.ones((2, 2))))


class TestTapedLossMatchesPlainEvaluation:
    def test_no_layers_identity_program(self):
        u = np.random.default_rng(8).standard_normal((6, 3))
        loss = loss_on_batch("SAE", Identity(), [], u)
        assert loss == 0.0

    def test_single_layer_coordinate_projector(self):
        # Orthogonal layer keeping the first 2 of 5 coordinates, identity act:
        # the loss is the mean squared norm of the dropped coordinates.
        u = np.random.default_rng(9).standard_normal((5, 4))
        theta_layers = [{"A": np.eye(5, 2), "b": np.zeros((5, 1))}]
        loss = loss_on_batch("SOAE", Identity(), theta_layers, u)
        np.testing.assert_allclose(loss, np.sum(u[2:] ** 2) / 4, rtol=1e-12)

    @pytest.mark.parametrize("class_tag", ["SAE", "SBAE", "SOAE", "PlainAE"])
    def test_taped_equals_untaped(self, class_tag):
        rng = np.random.default_rng(10)
        theta = random_theta(class_tag, Skeleton((8, 4, 2)), LeakyReLU(5 / 6, 5 / 4), rng)
        batch = rng.standard_normal((8, 6))
        program = loss_program(class_tag, theta.act, theta)
        taped, _ = gradient(program, theta.leaves(), batch)
        plain = float(value_of(program(theta.leaves(), batch)))
        assert taped == plain


class TestTapeInvariant:
    # Constants (the batch, scalars) are plain arrays:
    # every node built while taping a loss is a leaf or has an edge to a Var.
    @pytest.mark.parametrize("class_tag", ["SAE", "SBAE", "SOAE", "PlainAE"])
    def test_only_leaves_lack_edges(self, monkeypatch, class_tag):
        rng = np.random.default_rng(11)
        theta = random_theta(
            class_tag, Skeleton((9, 5, 2)), LeakyReLU(5 / 6, 5 / 4), rng, well_conditioned=True
        )
        batch = rng.standard_normal((9, 4))
        built = []
        var_init = Var.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            var_init(node, *args, **kwargs)

        monkeypatch.setattr(Var, "__init__", counting_init)
        gradient(loss_program(class_tag, theta.act, theta), theta.leaves(), batch)
        n_leaves = len(theta.leaves())
        leaves, inner = built[:n_leaves], built[n_leaves:]
        assert inner and all(not node.parents for node in leaves)
        assert all(node.parents for node in inner)
        assert all(isinstance(operand, Var) for node in inner for operand in node.parents)
        assert not any(node.value is batch for node in built)

    # One step on the README skeleton, counted as the benchmark's tracer
    # counts tape nodes: every Var built, leaves included.  SAE: 12 leaves,
    # 6 level maps and the loss's 3 nodes; SBAE adds per level two pi_orth
    # nodes and the scales' square to its 15 leaves.
    @pytest.mark.parametrize("class_tag, most", [("SAE", 21), ("SBAE", 36)])
    def test_tape_size_of_one_step(self, monkeypatch, class_tag, most):
        rng = np.random.default_rng(20)
        theta = random_theta(class_tag, Skeleton((514, 64, 15, 3)), LeakyReLU(5 / 6, 5 / 4), rng)
        batch = rng.uniform(size=(514, 8))
        built = []
        var_init = Var.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            var_init(node, *args, **kwargs)

        monkeypatch.setattr(Var, "__init__", counting_init)
        gradient(loss_program(class_tag, theta.act, theta), theta.leaves(), batch)
        assert len(built) <= most


class TestPiOrthPrimitive:
    # 7x4 takes the Householder route, 514x128 the CholeskyQR2 one.
    @pytest.mark.parametrize("shape", [(7, 4), (514, 128)], ids=["householder", "cholesky-qr2"])
    def test_taped_call_is_one_node_on_its_input(self, monkeypatch, shape):
        built = []
        var_init = Var.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            var_init(node, *args, **kwargs)

        A = Var(np.random.default_rng(16).standard_normal(shape))
        monkeypatch.setattr(Var, "__init__", counting_init)
        Q = pi_orth(A)
        assert built == [Q]
        assert Q.parents == (A,)
        np.testing.assert_array_equal(Q.value, pi_orth(A.value))

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_copyltu_is_bitwise_the_triangle_sum(self, n):
        # Signed zeros on and off the diagonal: the sum turns each -0.0 into
        # +0.0, and so must the masked form.
        rng = np.random.default_rng(23)
        M = rng.standard_normal((n, n))
        M[rng.uniform(size=(n, n)) < 0.3] = 0.0
        M[rng.uniform(size=(n, n)) < 0.3] = -0.0
        M[0, 0] = -0.0
        want = np.tril(M) + np.tril(M, -1).T
        got = _copyltu(M)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and want.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(514, 128), (64, 64)], ids=["tall", "square"])
    def test_directional_derivative_at_network_shapes(self, shape):
        # grad_check is entrywise and too slow at these sizes; compare the
        # adjoint with a central difference along one random unit direction,
        # scaled by |A_bar| (the largest value <A_bar, dA> can take).
        rng = np.random.default_rng(17)
        A = rng.standard_normal(shape)
        T = rng.standard_normal(shape)
        dA = rng.standard_normal(shape)
        dA /= np.linalg.norm(dA)
        v = Var(A)
        backward(sum_sq(pi_orth(v) - T))
        step = 1e-3
        up = sum_sq(pi_orth(A + step * dA) - T)
        down = sum_sq(pi_orth(A - step * dA) - T)
        fd = (up - down) / (2.0 * step)
        assert abs(np.sum(v.grad * dA) - fd) <= 1e-7 * np.linalg.norm(v.grad)

    @pytest.mark.parametrize("n", [1, 3, 15, 64])
    def test_square_input_last_column_gets_exactly_zero_gradient(self, n):
        # A square Q's last column is fixed, up to the sign R makes positive,
        # by the columns before it, so Q does not depend on A's last column.
        rng = np.random.default_rng(19)
        v = Var(rng.standard_normal((n, n)))
        backward(sum_sq(pi_orth(v) - rng.standard_normal((n, n))))
        assert np.all(v.grad[:, -1] == 0.0)
        if n > 1:
            assert np.all(np.abs(v.grad[:, :-1]).max(axis=0) > 0.0)

    def test_singular_r_raises_numerical_error(self):
        # 514x128 is past the CholeskyQR2 crossover; its zero column makes
        # that route refuse, and the Householder R is exactly singular.
        for shape in [(6, 3), (514, 128)]:
            A = np.random.default_rng(18).standard_normal(shape)
            A[:, 1] = 0.0
            loss = sum_sq(pi_orth(Var(A)) - 1.0)
            with pytest.raises(NumericalError, match=f"{shape[0]}x{shape[1]}"):
                backward(loss)


class TestGradCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        x = np.random.default_rng(11).standard_normal((5, 1))

        def program(leaves):
            return sum_sq(leaves[0])

        assert grad_check(program, [x]) <= 1e-9

    def test_through_orthonormalization(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((6, 3))
        T = rng.standard_normal((6, 3))

        def program(leaves):
            return sum_sq(pi_orth(leaves[0]) - T)

        assert grad_check(program, [A]) <= 1e-5

    def test_full_biorthogonal_network(self):
        # Well-conditioned parameters and a small batch keep the loss O(1):
        # square orthonormalized factors carry exactly-null directions, and
        # the check's 1e-8 denominator floor only tolerates the tape's
        # roundoff there when the loss scale stays near 1.
        rng = np.random.default_rng(13)
        theta = random_theta(
            "SBAE", Skeleton((10, 5, 3)), LeakyReLU(5 / 6, 5 / 4), rng,
            well_conditioned=True,
        )
        batch = 0.1 * rng.standard_normal((10, 4))
        program = loss_program("SBAE", theta.act, theta)
        assert grad_check(program, theta.leaves(), batch) <= 1e-5

    def test_unconstrained_network_with_two_slope_activation(self):
        rng = np.random.default_rng(14)
        theta = random_theta("SAE", Skeleton((20, 8, 4, 2)), LeakyReLU(5 / 6, 5 / 4), rng)
        batch = 0.2 * rng.standard_normal((20, 5))
        program = loss_program("SAE", theta.act, theta)
        assert grad_check(program, theta.leaves(), batch) <= 1e-5

    def test_orthogonal_network_with_hyperbolic_activation(self):
        rng = np.random.default_rng(15)
        theta = random_theta("SOAE", Skeleton((20, 8, 4, 2)), HypAct.from_sharpness(0.5), rng)
        batch = 0.2 * rng.standard_normal((20, 5))
        program = loss_program("SOAE", theta.act, theta)
        assert grad_check(program, theta.leaves(), batch) <= 1e-5

    def test_biorthogonal_network_with_a_square_level(self):
        # Level 2 is 4x4: its decoder is X K_D alone, so its W gets an
        # adjoint of exactly zero.  Level 3 inside it keeps the level from
        # composing to the identity, which would leave every adjoint of
        # level 2 at roundoff.
        rng = np.random.default_rng(21)
        theta = random_theta(
            "SBAE", Skeleton((8, 4, 4, 2)), HypAct.from_sharpness(0.5), rng,
            well_conditioned=True,
        )
        batch = 0.1 * rng.standard_normal((8, 4))
        program = loss_program("SBAE", theta.act, theta)
        assert grad_check(program, theta.leaves(), batch) <= 1e-5
        _, grads = gradient(program, theta.leaves(), batch)
        W2 = theta.with_leaves(grads)[1]["W"]
        assert np.all(W2 == 0.0)
        assert np.any(theta.with_leaves(grads)[0]["W"] != 0.0)

    def test_plain_autoencoder_with_hyperbolic_activation(self):
        # rho^-1 after every encoder map, and none at the latent end of the decoder.
        rng = np.random.default_rng(22)
        theta = random_theta("PlainAE", Skeleton((12, 6, 3)), HypAct.from_sharpness(0.5), rng)
        batch = 0.2 * rng.standard_normal((12, 5))
        program = loss_program("PlainAE", theta.act, theta)
        assert grad_check(program, theta.leaves(), batch) <= 1e-5
