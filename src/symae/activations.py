"""Bilipschitz scalar activations with exact inverses and Lipschitz constants.

Every activation here is a strictly increasing bijection of the real line
whose slope is pinched between two positive constants.  That makes the
inverse well defined and Lipschitz as well, so the same nonlinearity can be
used forward in an encoder and backward (inverted) in a decoder.

All three maps operate elementwise on one path: the input goes through
``np.asarray`` as float64, and a 0-d result comes back as a Python float,
so a scalar in gives a scalar out and an array in gives an array out.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Activation",
    "Identity",
    "LeakyReLU",
    "HypAct",
    "parse_activation",
]

_SQRT2 = math.sqrt(2.0)


def _float_if_scalar(out: np.ndarray):
    """``out`` itself, or a Python float when it is 0-d."""
    return out if out.ndim else float(out)


class Activation:
    """Base class: a strictly increasing bilipschitz map of the real line."""

    def apply(self, x):
        raise NotImplementedError

    def apply_inverse(self, y):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def lipschitz_pair(self) -> tuple[float, float]:
        """Return ``(Lip(f), Lip(f_inverse))``."""
        raise NotImplementedError

    def sharpness(self) -> float:
        """``Lip(f) * Lip(f_inverse) - 1``; zero exactly for linear maps."""
        lip, lip_inv = self.lipschitz_pair()
        return lip * lip_inv - 1.0

    def spec(self) -> str:
        """Round-trippable text form, e.g. ``leakyrelu:0.5,2``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec()!r})"

    def __eq__(self, other):
        # ``spec`` writes parameters with ``repr``, which round-trips floats.
        return type(other) is type(self) and other.spec() == self.spec()


class Identity(Activation):
    def apply(self, x):
        return _float_if_scalar(np.asarray(x, dtype=np.float64))

    def apply_inverse(self, y):
        return self.apply(y)

    def derivative(self, x):
        return _float_if_scalar(np.ones_like(x, dtype=np.float64))

    def lipschitz_pair(self):
        return (1.0, 1.0)

    def spec(self):
        return "identity"


class LeakyReLU(Activation):
    """Two-slope piecewise-linear map: ``alpha * x`` for x < 0, ``beta * x`` for x >= 0.

    Both slopes must be finite, positive and distinct.  The inverse is the
    LeakyReLU with reciprocal slopes.  At the kink the derivative is
    defined as ``beta`` (the right limit) so downstream consumers are
    deterministic.
    """

    def __init__(self, alpha: float, beta: float):
        alpha = float(alpha)
        beta = float(beta)
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise ValueError(
                f"LeakyReLU slopes must be finite and positive, got ({alpha}, {beta})"
            )
        if alpha == beta:
            raise ValueError("LeakyReLU slopes must differ (use identity for a linear map)")
        self.alpha = alpha
        self.beta = beta

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        return _float_if_scalar(np.where(x < 0.0, self.alpha * x, self.beta * x))

    def apply_inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        return _float_if_scalar(np.where(y < 0.0, y / self.alpha, y / self.beta))

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        return _float_if_scalar(np.where(x < 0.0, self.alpha, self.beta))

    def lipschitz_pair(self):
        return (max(self.alpha, self.beta), 1.0 / min(self.alpha, self.beta))

    def spec(self):
        return f"leakyrelu:{self.alpha!r},{self.beta!r}"


class HypAct(Activation):
    """Smooth hyperbolic activation with angle parameter ``theta`` in (0, pi/4).

    With ``a = csc^2(theta) - sec^2(theta)`` and ``b = csc^2(theta) + sec^2(theta)``,

        f(x) = (b/a) x - sqrt(2)/(a sin(theta))
               + sqrt((2x/(sin(theta)cos(theta)) - sqrt(2)/cos(theta))^2 + 2a) / a.

    It is one branch of a hyperbola whose asymptote slopes are
    ``tan(pi/4 - theta)`` and ``tan(pi/4 + theta)``, hence
    ``Lip(f) = Lip(f_inverse) = tan(theta + pi/4)``.  ``f(0) = 0`` and
    ``f'(0) = 1`` for every theta.

    The slopes are reciprocal, so the hyperbola is symmetric about the line
    ``y = -x`` and ``f_inverse(y) = -f(-y)``.  ``f`` is evaluated after
    multiplying through by ``sin^2 cos^2``: with ``k = cos(2 theta)``,
    ``c0 = sqrt(2) sin cos^2`` and ``R = sqrt((2x - sqrt(2) sin)^2 + 2k)``,

        f(x) = (x - c0 + sin cos R) / k                          for x >= c0,
        f(x) = x (2 c0 - k x) / (sin cos R + c0 - x)             for x < c0,

    the second line being the first with its cancelling sum rationalized.
    No constant exceeds 2 whatever theta and the root is taken without
    overflow, so the map is finite wherever its value is and accurate over
    the whole angle range; the closed form needs no Newton polish.

    ``apply`` and ``apply_inverse`` evaluate both lines everywhere, into a
    few work arrays, and give each element its own side by a masked copy;
    the result is bitwise that of the plain expressions selected with
    ``np.where(x >= c0, ...)``, for every float64 input.
    """

    def __init__(self, theta: float):
        theta = float(theta)
        if not 0.0 < theta < math.pi / 4.0:
            raise ValueError(f"HypAct angle must lie in (0, pi/4), got {theta}")
        self.theta = theta
        sin, cos = math.sin(theta), math.cos(theta)
        self._sin_cos = sin * cos
        self._kink = _SQRT2 * sin
        self._c0 = _SQRT2 * sin * cos * cos
        self._k = math.cos(2.0 * theta)

    @classmethod
    def from_sharpness(cls, sharpness: float) -> "HypAct":
        """Angle chosen so that ``Lip * Lip_inv - 1`` equals ``sharpness``."""
        if sharpness <= 0.0:
            raise ValueError("sharpness must be positive")
        return cls(math.atan(math.sqrt(1.0 + sharpness)) - math.pi / 4.0)

    def _branch(self, x, u, root, size=None):
        """``u = 2 x - kink`` into ``u`` and ``R = sqrt(u^2 + 2k)`` into ``root``.

        ``root`` may be ``u`` itself when ``u`` is not needed afterwards, and
        ``size`` (``|u|``) may be a work array too.  Returns ``(u, root)``.
        """
        np.multiply(2.0, x, u)
        np.subtract(u, self._kink, u)
        # Past |u| = 1e150 the root rounds to |u|; capping |u| there before
        # squaring keeps it finite for every finite u.
        size = np.abs(u, size)
        np.minimum(size, 1e150, out=root)
        np.multiply(root, root, root)
        np.add(root, 2.0 * self._k, root)
        np.sqrt(root, root)
        np.maximum(root, size, out=root)
        return u, root

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        return _float_if_scalar(self._apply_into(x, np.empty_like(x), np.empty((2,) + x.shape)))

    def apply_inverse(self, y):
        # f_inverse(y) = -f(-y), with -y in a third work array rather than a copy.
        y = np.asarray(y, dtype=np.float64)
        work = np.empty((3,) + y.shape)
        out = self._apply_into(np.negative(y, work[2, ...]), np.empty_like(y), work)
        return _float_if_scalar(np.negative(out, out))

    def _apply_into(self, x, out, work):
        """``f(x)`` into ``out``, with ``work[0]`` and ``work[1]`` as scratch.

        The two formulas of the class docstring, ufunc by ufunc in the order
        and with the constants of the plain expressions, each written into
        a work array rather than a fresh one: the left line into ``out``,
        over which the right line is copied where ``x >= c0``.  That is
        bitwise ``np.where(x >= c0, right, left)``, NaN included.  The
        result is returned only as ``out``, so it holds no work array alive.
        """
        c0, k = self._c0, self._k
        scaled, right = work[0, ...], work[1, ...]
        # scaled = sin cos R, with |u| in right
        self._branch(x, scaled, scaled, right)
        np.multiply(self._sin_cos, scaled, scaled)
        # right = (x - c0 + scaled) / k
        np.subtract(x, c0, right)
        np.add(right, scaled, right)
        np.divide(right, k, right)
        # out = x ((2 c0 - k x) / (scaled + c0 - x)), the left line
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(k, x, out)
            np.subtract(2.0 * c0, out, out)
            np.add(scaled, c0, scaled)
            np.subtract(scaled, x, scaled)
            np.divide(out, scaled, out)
            np.multiply(x, out, out)
        np.copyto(out, right, where=x >= c0)
        return out

    def derivative(self, x):
        # f' = (1 + 2 sin cos u / R) / k; for u < 0 the sum cancels and is
        # rationalized with R^2 - (2 sin cos u)^2 = k (k u^2 + 2).
        x = np.asarray(x, dtype=np.float64)
        u, root = self._branch(x, np.empty_like(x), np.empty_like(x))
        ratio = u / root
        right = (1.0 + 2.0 * self._sin_cos * ratio) / self._k
        gap = root - 2.0 * self._sin_cos * u
        with np.errstate(divide="ignore", invalid="ignore"):
            left = ratio * (self._k * u / gap) + (2.0 / root) / gap
        return _float_if_scalar(np.where(u >= 0.0, right, left))

    def lipschitz_pair(self):
        # tan(theta + pi/4) in a form that stays accurate as theta nears pi/4.
        lip = (1.0 + math.sin(2.0 * self.theta)) / self._k
        return (lip, lip)

    def spec(self):
        return f"hypact:{self.theta!r}"


def parse_activation(text: str) -> Activation:
    """Parse an activation spec string.

    Accepted forms: ``identity``, ``leakyrelu:<alpha>,<beta>``, ``hypact:<theta>``.
    """
    head, _, args = text.strip().lower().partition(":")
    if head == "identity":
        if args:
            raise ValueError("identity takes no parameters")
        return Identity()
    if head == "leakyrelu":
        parts = args.split(",")
        if len(parts) != 2:
            raise ValueError(f"leakyrelu expects 'alpha,beta', got {args!r}")
        return LeakyReLU(float(parts[0]), float(parts[1]))
    if head == "hypact":
        if not args:
            raise ValueError("hypact expects an angle parameter")
        return HypAct(float(args))
    raise ValueError(f"unknown activation spec {text!r}")
