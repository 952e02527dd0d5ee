"""Regularization schemes for the ill-posed bank/coefficient factorization.

Expanded filters are invariant to scaling every seed by c while dividing its
mixing coefficients by c, so the factorization needs taming. Four schemes are
offered: unit-norm projection of the seeds, an L1 penalty and a nuclear-norm
penalty on the mixing coefficients, and inverted dropout on output feature
maps. Dropout at a low probability (default p=0.1) is the package default;
no ordering among the schemes is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DegenerateSeedError, NumericError
from .sharedconv import FilterBank
from .tensor import Tensor

_MIN_SEED_NORM = 1e-12


@dataclass(frozen=True)
class RegularizerConfig:
    """Which schemes are active. Field names match the JSON config keys."""

    unit_norm_seeds: bool = False
    l1_alpha: float = 0.0
    nuclear_alpha: float = 0.0
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.l1_alpha < 0 or self.nuclear_alpha < 0:
            raise ConfigError("penalty weights must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(
                f"dropout probability must lie in [0, 1), got {self.dropout_p}"
            )


def project_unit_norm(bank: FilterBank) -> FilterBank:
    """Rescale every seed filter to unit L2 norm."""
    unit, _ = project_unit_norm_array(bank.seeds.array)
    return FilterBank(Tensor._wrap(unit))


def project_unit_norm_array(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm seeds of a (P, *k) stack, plus the P norms divided out.

    Multiplying alpha[:, :, p] by norm p keeps every expanded filter, so the
    projection fixes the scale gauge without changing the function."""
    flat = seeds.reshape(seeds.shape[0], -1)
    norms = np.sqrt((flat * flat).sum(axis=1))
    bad = np.nonzero(norms < _MIN_SEED_NORM)[0]
    if bad.size:
        raise DegenerateSeedError(
            f"seed filter(s) {bad.tolist()} collapsed to norm < {_MIN_SEED_NORM}; "
            f"unit-norm projection would be meaningless"
        )
    return seeds / norms[(slice(None),) + (None,) * (seeds.ndim - 1)], norms


def l1_penalty(alpha, weight: float) -> ad.Var:
    """weight * sum |alpha|, with subgradient weight * sign(alpha)."""
    if weight < 0:
        raise ConfigError(f"l1 weight must be >= 0, got {weight}")
    a = ad.as_var(alpha)
    arr = a.array
    value = Tensor._wrap(np.array([weight * np.abs(arr).sum()]))
    return ad.custom_op(value, (a,), lambda g: (g[0] * weight * np.sign(arr),))


def nuclear_penalty(alpha, weight: float) -> ad.Var:
    """weight * (sum of singular values) of alpha viewed as an (M*N) x P matrix.

    The gradient is the weight-scaled U V^T from the thin SVD, a subgradient
    wherever singular values repeat or vanish.
    """
    if weight < 0:
        raise ConfigError(f"nuclear weight must be >= 0, got {weight}")
    a = ad.as_var(alpha)
    arr = a.array
    if arr.ndim == 3:
        mat = arr.reshape(-1, arr.shape[2])
    elif arr.ndim == 2:
        mat = arr
    else:
        raise ConfigError(
            f"nuclear penalty expects (M, N, P) coefficients or a matrix, "
            f"got shape {arr.shape}"
        )
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise NumericError(
            f"SVD failed on a {mat.shape} matrix "
            f"(fro norm {np.linalg.norm(mat):.3e}, max |entry| "
            f"{np.abs(mat).max():.3e}): {e}"
        ) from None
    value = Tensor._wrap(np.array([weight * s.sum()]))
    subgrad = weight * (u @ vt)

    def vjp(g):
        return (g[0] * subgrad.reshape(arr.shape),)

    return ad.custom_op(value, (a,), vjp)


def make_dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros w.p. p, survivors scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)


def feature_dropout(x: Tensor, p: float, rng: np.random.Generator,
                    training: bool) -> Tensor:
    """Inverted dropout on a feature-map tensor; identity at inference."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = make_dropout_mask(x.array.shape, p, rng)
    return Tensor._wrap(x.array * mask)


def penalty_term(alpha_params, config: RegularizerConfig) -> ad.Var | None:
    """Total coefficient penalty over every shared layer; None when inactive."""
    terms = []
    for a in alpha_params:
        if config.l1_alpha > 0:
            terms.append(l1_penalty(a, config.l1_alpha))
        if config.nuclear_alpha > 0:
            terms.append(nuclear_penalty(a, config.nuclear_alpha))
    if not terms:
        return None
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total
