import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from symae.activations import HypAct, Identity, LeakyReLU, parse_activation

# Reference values for HypAct(pi/8), evaluated with mpmath at 50 digits:
#   a = csc^2 - sec^2, b = csc^2 + sec^2,
#   f(x) = b/a*x - sqrt(2)/(a*sin) + sqrt((2x/(sin*cos) - sqrt(2)/cos)^2 + 2a)/a
HYPACT_PI8_VALUES = {-1.0: -0.6646505076501502, 0.0: 0.0, 1.0: 1.7019849982930828}
HYPACT_PI8_DERIVS = {-2.0: 0.4468333111600903, 0.0: 1.0, 3.0: 2.391296549155787}


def sample_acts():
    return [
        Identity(),
        LeakyReLU(0.5, 2.0),
        LeakyReLU(5 / 6, 5 / 4),
        LeakyReLU(5 / 16, 5 / 4),
        HypAct(math.pi / 8),
        HypAct.from_sharpness(0.5),
        HypAct.from_sharpness(3.0),
    ]


class TestApply:
    def test_leakyrelu_two_slopes(self):
        act = LeakyReLU(0.5, 2.0)
        assert act.apply(-1.0) == -0.5
        assert act.apply(1.0) == 2.0
        assert act.apply(0.0) == 0.0

    def test_identity(self):
        act = Identity()
        for x in (-3.5, 0.0, 2.25):
            assert act.apply(x) == x

    def test_hypact_frozen_reference_values(self):
        act = HypAct(math.pi / 8)
        for x, want in HYPACT_PI8_VALUES.items():
            np.testing.assert_allclose(act.apply(x), want, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_strictly_increasing(self, act):
        x = np.sort(np.random.default_rng(0).uniform(-20, 20, 200))
        y = act.apply(x)
        assert np.all(np.diff(y) > 0)

    def test_vectorized_matches_scalar(self):
        act = HypAct(math.pi / 8)
        xs = np.linspace(-4, 4, 11)
        np.testing.assert_allclose(act.apply(xs), [act.apply(float(x)) for x in xs])


class TestInverse:
    def test_leakyrelu_inverse_is_reciprocal_slopes(self):
        act = LeakyReLU(0.5, 2.0)
        assert act.apply_inverse(-0.5) == -1.0
        assert act.apply_inverse(2.0) == 1.0

    def test_identity_inverse(self):
        assert Identity().apply_inverse(1.5) == 1.5

    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_roundtrip(self, act):
        x = np.random.default_rng(1).uniform(-10, 10, 1000)
        back = act.apply_inverse(act.apply(x))
        assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) <= 1e-10

    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_forward_of_inverse(self, act):
        y = np.random.default_rng(2).uniform(-25, 25, 500)
        again = act.apply(act.apply_inverse(y))
        assert np.max(np.abs(again - y) / np.maximum(1.0, np.abs(y))) <= 1e-10


class TestDerivative:
    def test_leakyrelu_slopes_and_kink_convention(self):
        act = LeakyReLU(0.5, 2.0)
        assert act.derivative(-3.0) == 0.5
        assert act.derivative(3.0) == 2.0
        assert act.derivative(0.0) == 2.0  # right-limit slope at the kink

    def test_identity_slope(self):
        assert Identity().derivative(-7.0) == 1.0

    def test_hypact_frozen_reference_derivatives(self):
        act = HypAct(math.pi / 8)
        for x, want in HYPACT_PI8_DERIVS.items():
            np.testing.assert_allclose(act.derivative(x), want, rtol=1e-13)

    def test_hypact_matches_central_differences(self):
        act = HypAct(math.pi / 8)
        x = np.random.default_rng(3).uniform(-8, 8, 100)
        h = 1e-6
        fd = (act.apply(x + h) - act.apply(x - h)) / (2 * h)
        np.testing.assert_allclose(act.derivative(x), fd, atol=1e-6)

    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_slope_stays_inside_envelope(self, act):
        lip, lip_inv = act.lipschitz_pair()
        x = np.random.default_rng(4).uniform(-50, 50, 2000)
        d = act.derivative(x)
        assert np.all(d <= lip + 1e-12)
        assert np.all(d >= 1.0 / lip_inv - 1e-12)


class TestLipschitzAndSharpness:
    def test_leakyrelu_pair(self):
        lip, lip_inv = LeakyReLU(5 / 6, 5 / 4).lipschitz_pair()
        np.testing.assert_allclose([lip, lip_inv], [1.25, 1.2])

    def test_identity_pair(self):
        assert Identity().lipschitz_pair() == (1.0, 1.0)

    def test_hypact_pair_from_sharpness(self):
        act = HypAct.from_sharpness(0.5)
        lip, lip_inv = act.lipschitz_pair()
        np.testing.assert_allclose(lip, math.sqrt(1.5), rtol=1e-12)
        np.testing.assert_allclose(lip_inv, math.sqrt(1.5), rtol=1e-12)

    def test_hypact_stated_constant(self):
        lip, _ = HypAct(math.pi / 8).lipschitz_pair()
        np.testing.assert_allclose(lip, math.tan(3 * math.pi / 8), rtol=1e-14)

    def test_sharpness_values(self):
        assert Identity().sharpness() == 0.0
        np.testing.assert_allclose(LeakyReLU(5 / 6, 5 / 4).sharpness(), 0.5, rtol=1e-14)
        np.testing.assert_allclose(LeakyReLU(5 / 16, 5 / 4).sharpness(), 3.0, rtol=1e-14)
        np.testing.assert_allclose(HypAct.from_sharpness(3.0).sharpness(), 3.0, rtol=1e-12)
        assert all(a.sharpness() >= 0.0 for a in sample_acts())


class TestBilipschitzProperty:
    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_two_sided_growth_bounds(self, act):
        rng = np.random.default_rng(5)
        x = rng.uniform(-30, 30, 10_000)
        y = rng.uniform(-30, 30, 10_000)
        gap_in = np.abs(x - y)
        gap_out = np.abs(act.apply(x) - act.apply(y))
        lip, lip_inv = act.lipschitz_pair()
        slack = 1e-12 * np.maximum(1.0, gap_in)
        assert np.all(gap_out <= lip * gap_in + slack)
        assert np.all(gap_out >= gap_in / lip_inv - slack)

    @pytest.mark.parametrize("act", sample_acts(), ids=lambda a: a.spec())
    def test_inverse_lipschitz(self, act):
        rng = np.random.default_rng(6)
        w = rng.uniform(-30, 30, 5000)
        z = rng.uniform(-30, 30, 5000)
        _lip, lip_inv = act.lipschitz_pair()
        gap_out = np.abs(act.apply_inverse(w) - act.apply_inverse(z))
        assert np.all(gap_out <= lip_inv * np.abs(w - z) + 1e-12)


class TestValidationAndParsing:
    @pytest.mark.parametrize("bad", [(-1.0, 2.0), (0.0, 1.0), (1.0, 1.0), (2.0, -3.0)])
    def test_leakyrelu_domain(self, bad):
        with pytest.raises(ValueError):
            LeakyReLU(*bad)

    @pytest.mark.parametrize("bad", [(math.inf, 1.25), (1.25, math.inf), (math.nan, 1.25)])
    def test_leakyrelu_slopes_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            LeakyReLU(*bad)

    @pytest.mark.parametrize("bad", [0.0, math.pi / 4, -0.1, 1.0])
    def test_hypact_domain(self, bad):
        with pytest.raises(ValueError):
            HypAct(bad)

    def test_parse_roundtrip(self):
        for act in sample_acts():
            again = parse_activation(act.spec())
            assert again == act

    def test_parse_known_forms(self):
        assert parse_activation("identity") == Identity()
        assert parse_activation("leakyrelu:0.5,2") == LeakyReLU(0.5, 2.0)
        assert parse_activation("hypact:0.3") == HypAct(0.3)

    @pytest.mark.parametrize(
        "bad", ["", "relu", "leakyrelu:1", "leakyrelu:1,2,3", "hypact:", "identity:1"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_activation(bad)


# Every angle HypAct accepts, and inputs far into both asymptotic regimes.
ANGLES = st.floats(0.0, math.pi / 4, exclude_min=True, exclude_max=True)
POINTS = st.floats(-1e150, 1e150)
EPS = np.finfo(np.float64).eps


def hypact_tolerance(act, *values):
    """Round-trip error allowed for HypAct, scaled by ``max(1, |value|)``.

    The map bends within a width of about ``sqrt(cos 2 theta)``, so its
    constants, rounded to ``eps``, move outputs near the bend by up to
    ``eps / sqrt(cos 2 theta)``, which is at most ``eps * sqrt(Lip)``.
    """
    lip, _ = act.lipschitz_pair()
    return 16.0 * EPS * (1.0 + math.sqrt(lip)) * max([1.0] + [abs(v) for v in values])


class TestHypActProperties:
    @settings(max_examples=300, deadline=None)
    @given(ANGLES, POINTS)
    @example(math.pi / 4 - 1e-12, -1.0)
    @example(math.pi / 4 - 1e-12, 0.7)
    @example(1e-7, 1e150)
    @example(1e-7, -1e150)
    def test_inverse_round_trip(self, theta, x):
        act = HypAct(theta)
        y = act.apply(x)
        back = act.apply_inverse(y)
        assert math.isfinite(y) and math.isfinite(back)
        assert abs(back - x) <= hypact_tolerance(act, x)
        again = act.apply(act.apply_inverse(x))
        assert abs(again - x) <= hypact_tolerance(act, x)

    @settings(max_examples=300, deadline=None)
    @given(ANGLES, POINTS, POINTS)
    @example(math.pi / 4 - 1e-12, -1.0, 0.5)
    def test_inverse_is_bilipschitz(self, theta, w, z):
        act = HypAct(theta)
        lip, lip_inv = act.lipschitz_pair()
        xw, xz = act.apply_inverse(w), act.apply_inverse(z)
        gap = abs(xw - xz)
        slack = hypact_tolerance(act, xw, xz)
        assert gap <= lip_inv * abs(w - z) + slack
        assert gap >= abs(w - z) / lip - slack

    @pytest.mark.parametrize("theta", [math.pi / 4 - 1e-12, math.pi / 4 - 1e-6, 1e-7])
    def test_finite_and_increasing_on_wide_inputs(self, theta):
        act = HypAct(theta)
        rng = np.random.default_rng(7)
        y = np.sort(np.concatenate([rng.standard_normal(20_000), [-1e150, 1e150]]))
        x = act.apply_inverse(y)
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x) >= 0.0)


def _reference_root(act, x):
    u = 2.0 * x - act._kink
    size = np.abs(u)
    capped = np.minimum(size, 1e150)
    return u, np.maximum(np.sqrt(capped * capped + 2.0 * act._k), size)


def reference_apply(act, x):
    """``HypAct.apply`` as plain expressions and ``np.where``: the formulas
    its kernel must reproduce bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    _, root = _reference_root(act, x)
    scaled = act._sin_cos * root
    right = (x - act._c0 + scaled) / act._k
    with np.errstate(divide="ignore", invalid="ignore"):
        left = x * ((2.0 * act._c0 - act._k * x) / (scaled + act._c0 - x))
    out = np.where(x >= act._c0, right, left)
    return out if out.ndim else float(out)


def reference_apply_inverse(act, y):
    return -reference_apply(act, -np.asarray(y, dtype=np.float64))


def reference_derivative(act, x):
    x = np.asarray(x, dtype=np.float64)
    u, root = _reference_root(act, x)
    ratio = u / root
    right = (1.0 + 2.0 * act._sin_cos * ratio) / act._k
    gap = root - 2.0 * act._sin_cos * u
    with np.errstate(divide="ignore", invalid="ignore"):
        left = ratio * (act._k * u / gap) + (2.0 / root) / gap
    out = np.where(u >= 0.0, right, left)
    return out if out.ndim else float(out)


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _ulps_from(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def hypact_cases(draw):
    """An angle, near 0 and pi/4 among others, and a 0-d, 2-D or 3-D input
    of raw float64 bit patterns (NaN payloads, signed zeros, infinities,
    subnormals), ordinary values, and values within a few ulps of 0 and of
    the branch points c0 (apply), -c0 (apply_inverse) and kink / 2
    (derivative)."""
    theta = draw(
        st.one_of(
            ANGLES,
            st.floats(1e-300, 1e-6),
            st.floats(math.pi / 4 - 1e-6, math.pi / 4, exclude_max=True),
        )
    )
    act = HypAct(theta)
    points = [act._c0, -act._c0, act._kink / 2, 0.0]
    near = st.builds(_ulps_from, st.sampled_from(points), st.integers(-3, 3))
    element = st.one_of(
        st.integers(0, 2**64 - 1),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324]).map(_bits),
        st.floats(-8.0, 8.0).map(_bits),
        st.floats(width=64).map(_bits),
        near.map(_bits),
    )
    shape = draw(st.one_of(st.just(()), array_shapes(min_dims=2, max_dims=3, max_side=5)))
    return act, draw(arrays(np.uint64, shape, elements=element)).view(np.float64)


class TestHypActKernel:
    @settings(max_examples=400, deadline=None)
    @given(hypact_cases())
    @example((HypAct(math.pi / 8), np.array([[math.inf, -math.inf], [math.nan, -math.nan]])))
    def test_apply_and_inverse_are_bitwise_the_where_formulas(self, case):
        act, x = case
        inputs = [x, float(x)] if x.ndim == 0 else [x]
        with np.errstate(all="ignore"):
            for value in inputs:
                for got, want in [
                    (act.apply(value), reference_apply(act, value)),
                    (act.apply_inverse(value), reference_apply_inverse(act, value)),
                ]:
                    assert type(got) is type(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                    assert np.shape(got) == np.shape(x)

    @settings(max_examples=200, deadline=None)
    @given(hypact_cases())
    def test_derivative_is_bitwise_the_where_formula(self, case):
        act, x = case
        inputs = [x, float(x)] if x.ndim == 0 else [x]
        with np.errstate(all="ignore"):
            for value in inputs:
                got, want = act.derivative(value), reference_derivative(act, value)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
