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

    def __eq__(self, other):
        return isinstance(other, Identity)


class LeakyReLU(Activation):
    """Two-slope piecewise-linear map: ``alpha * x`` for x < 0, ``beta * x`` for x >= 0.

    Both slopes must be positive and distinct.  The inverse is the
    LeakyReLU with reciprocal slopes.  At the kink the derivative is
    defined as ``beta`` (the right limit) so downstream consumers are
    deterministic.
    """

    def __init__(self, alpha: float, beta: float):
        alpha = float(alpha)
        beta = float(beta)
        if not (alpha > 0.0 and beta > 0.0):
            raise ValueError(f"LeakyReLU slopes must be positive, got ({alpha}, {beta})")
        if alpha == beta:
            raise ValueError("LeakyReLU slopes must differ (use identity for a linear map)")
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def from_sharpness(cls, sharpness: float, beta: float = 1.25) -> "LeakyReLU":
        """LeakyReLU with the given ``beta`` and ``alpha = beta / (1 + sharpness)``."""
        if sharpness <= 0.0:
            raise ValueError("sharpness must be positive")
        return cls(beta / (1.0 + sharpness), beta)

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

    def __eq__(self, other):
        return (
            isinstance(other, LeakyReLU)
            and other.alpha == self.alpha
            and other.beta == self.beta
        )


class HypAct(Activation):
    """Smooth hyperbolic activation with angle parameter ``theta`` in (0, pi/4).

    With ``a = csc^2(theta) - sec^2(theta)`` and ``b = csc^2(theta) + sec^2(theta)``,

        f(x) = (b/a) x - sqrt(2)/(a sin(theta))
               + sqrt((2x/(sin(theta)cos(theta)) - sqrt(2)/cos(theta))^2 + 2a) / a.

    It is one branch of a hyperbola whose asymptote slopes are
    ``tan(pi/4 - theta)`` and ``tan(pi/4 + theta)``, hence
    ``Lip(f) = Lip(f_inverse) = tan(theta + pi/4)``.  ``f(0) = 0`` and
    ``f'(0) = 1`` for every theta.
    """

    def __init__(self, theta: float):
        theta = float(theta)
        if not 0.0 < theta < math.pi / 4.0:
            raise ValueError(f"HypAct angle must lie in (0, pi/4), got {theta}")
        self.theta = theta
        sin, cos = math.sin(theta), math.cos(theta)
        self._csc = 1.0 / sin
        self._sec = 1.0 / cos
        self._a = self._csc**2 - self._sec**2
        self._b = self._csc**2 + self._sec**2
        self._g_slope = 2.0 / (sin * cos)
        self._g_shift = _SQRT2 / cos

    @classmethod
    def from_sharpness(cls, sharpness: float) -> "HypAct":
        """Angle chosen so that ``Lip * Lip_inv - 1`` equals ``sharpness``."""
        if sharpness <= 0.0:
            raise ValueError("sharpness must be positive")
        return cls(math.atan(math.sqrt(1.0 + sharpness)) - math.pi / 4.0)

    def _branch(self, x):
        g = self._g_slope * x - self._g_shift
        return g, np.sqrt(g * g + 2.0 * self._a)

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        _, root = self._branch(x)
        out = (self._b * x - _SQRT2 * self._csc + root) / self._a
        return _float_if_scalar(out)

    def apply_inverse(self, y):
        # Solving f(x) = y reduces to a quadratic in x whose discriminant is
        # always positive; the product form below is the cancellation-free
        # rearrangement of the correct root.
        y = np.asarray(y, dtype=np.float64)
        a, b, csc = self._a, self._b, self._csc
        t = b * y + _SQRT2 * csc
        delta = t * t - (a * y + _SQRT2 * csc) ** 2 + 2.0 * csc * csc
        x = y * (a * y + 2.0 * _SQRT2 * csc) / (t + np.sqrt(delta))
        return _float_if_scalar(self._polish_inverse(x, y))

    def _polish_inverse(self, x, y):
        # Closed form is exact in exact arithmetic; a guarded Newton step
        # mops up any float64 residue on extreme inputs.
        resid = np.abs(self.apply(np.atleast_1d(x)) - np.atleast_1d(y))
        bad = resid > 1e-13 * np.maximum(1.0, np.abs(np.atleast_1d(y)))
        if not np.any(bad):
            return x
        x = np.atleast_1d(np.array(x, copy=True))
        yb = np.atleast_1d(y)
        for _ in range(60):
            fx = self.apply(x[bad]) - yb[bad]
            if np.all(np.abs(fx) <= 1e-14 * np.maximum(1.0, np.abs(yb[bad]))):
                break
            x[bad] = x[bad] - fx / self.derivative(x[bad])
        return x.reshape(np.shape(y))

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        g, root = self._branch(x)
        return _float_if_scalar((self._b + self._g_slope * g / root) / self._a)

    def lipschitz_pair(self):
        lip = math.tan(self.theta + math.pi / 4.0)
        return (lip, lip)

    def spec(self):
        return f"hypact:{self.theta!r}"

    def __eq__(self, other):
        return isinstance(other, HypAct) and other.theta == self.theta


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
