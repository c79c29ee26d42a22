"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from symae.architecture import ParamVector, Skeleton
from symae.autodiff import gradient, value_of


@st.composite
def small_skeletons(draw):
    """Skeletons of depth 1-3 with an input width of at most 8."""
    n0 = draw(st.integers(2, 8))
    dims = [n0, draw(st.integers(1, n0 - 1))]
    for _ in range(draw(st.integers(0, 2))):
        dims.append(draw(st.integers(1, dims[-1])))
    return Skeleton(tuple(dims))


def random_theta(class_tag, skeleton, act, rng, well_conditioned=False):
    """Random unconstrained parameters for any hypothesis class.

    Matrix entries are standard normal; biorthogonal scale entries are
    drawn from U(0.5, 2) so the assembled layers stay invertible.  With
    ``well_conditioned=True`` the scales hug 1 and the free block is
    damped, keeping layer operator norms near 1 (the regime training
    actually visits, and the right one for finite-difference checks).
    """
    layers = []
    for j in range(1, skeleton.depth + 1):
        q, r = skeleton.layer_shape(j)
        if class_tag in ("SAE", "PlainAE"):
            layers.append(
                {
                    "E": rng.standard_normal((r, q)) / np.sqrt(q),
                    "D": rng.standard_normal((q, r)) / np.sqrt(r),
                    "e": rng.standard_normal((r, 1)),
                    "d": rng.standard_normal((q, 1)),
                }
            )
        elif class_tag == "SOAE":
            layers.append(
                {
                    "A": rng.standard_normal((q, r)),
                    "b": rng.standard_normal((q, 1)),
                }
            )
        else:
            if well_conditioned:
                s = rng.uniform(0.8, 1.25, (r, 1))
                W = 0.3 * rng.standard_normal((q, r))
            else:
                s = rng.uniform(0.5, 2.0, (r, 1))
                W = rng.standard_normal((q, r))
            layers.append(
                {
                    "X": rng.standard_normal((q, r)),
                    "Z": rng.standard_normal((r, r)),
                    "W": W,
                    "s": s,
                    "b": rng.standard_normal((q, 1)),
                }
            )
    return ParamVector(class_tag, skeleton, act, layers)


def grad_check(program, leaves: list[np.ndarray], *args, step: float = 1e-5) -> float:
    """Worst relative disagreement between taped and central-difference gradients.

    ``program(leaves, *args)`` must work both on ``Var`` leaves (returning a
    scalar ``Var``) and on plain arrays (returning a float), which holds for
    any program written against ``symae.autodiff``'s dispatch helpers.  Relative
    error for one entry is ``|ad - fd| / max(1e-8, |ad| + |fd|)``.
    """
    _, grads = gradient(program, leaves, *args)
    worst = 0.0
    work = [np.array(leaf, dtype=np.float64) for leaf in leaves]
    for leaf, grad in zip(work, grads):
        flat = leaf.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = float(value_of(program(work, *args)))
            flat[i] = keep - step
            down = float(value_of(program(work, *args)))
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            err = abs(gflat[i] - fd) / max(1e-8, abs(gflat[i]) + abs(fd))
            worst = max(worst, err)
    return worst


def low_rank_snapshots(rank):
    """40 x 60 snapshots of centered rank ``rank`` whose further singular
    values are nonzero roundoff (about 1e-15), not exact zeros."""
    rng = np.random.default_rng(7)
    return rng.standard_normal((40, rank)) @ rng.standard_normal((rank, 60))
