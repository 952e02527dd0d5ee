"""Post-hoc filter factorization: the contrast baseline to direct training.

Given an already-trained layer's full (M, N, *k) filter stack, `decompose`
finds the optimal rank-P bank + coefficients by truncated SVD (Eckart-Young:
no rank-P factorization has lower Frobenius reconstruction error), and
`compare_posthoc_vs_direct` measures how substituting that reconstruction -
with no retraining - stacks up against a network whose bank was trained
directly; the two nets' spec JSON must agree in everything but each layer's
sharing P. The SVD itself is an in-repo one-sided Jacobi iteration
(`jacobi_svd`); besides the factorization, it is the independent reference
that acceptance criterion 9 checks the nuclear-norm penalty's
`np.linalg.svd` against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import nets, traineval
from .config import first_difference
from .errors import ConfigError, NumericError
from .sharedconv import expand_filters
from .tensor import Tensor


JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD a = U @ diag(s) @ Vt via one-sided Jacobi rotations.

    Sweeps orthogonalize column pairs until every normalized off-diagonal
    Gram entry falls below JACOBI_TOL; singular values arrive sorted
    descending. NumericError after JACOBI_MAX_SWEEPS sweeps.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"jacobi_svd expects a matrix, got shape {a.shape}")
    transposed = a.shape[0] < a.shape[1]
    w = (a.T if transposed else a).copy()
    n = w.shape[1]
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp = w[:, p]
                wq = w[:, q]
                app = float(wp @ wp)
                aqq = float(wq @ wq)
                apq = float(wp @ wq)
                scale = np.sqrt(app * aqq)
                if scale == 0.0:
                    continue
                off = max(off, abs(apq) / scale)
                if abs(apq) <= JACOBI_TOL * scale:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                w[:, p], w[:, q] = c * wp - s * wq, s * wp + c * wq
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if off <= JACOBI_TOL:
            break
    else:
        raise NumericError(
            f"one-sided Jacobi SVD did not converge within {JACOBI_MAX_SWEEPS} "
            f"sweeps on a {a.shape} matrix (residual off-diagonal {off:.3e})"
        )
    sigma = np.sqrt((w * w).sum(axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros_like(w)
    nonzero = sigma > 0.0
    u[:, nonzero] = w[:, nonzero] / sigma[nonzero]
    if transposed:
        return v, sigma, u.T
    return u, sigma, v.T


@dataclass(frozen=True)
class Factorization:
    """Rank-P factorization of one layer, (P, *k) seeds and (M, N, P)
    alpha, with reconstruction stats."""

    seeds: Tensor
    alpha: Tensor
    reconstruction_rmse: float
    retained_energy: float


def decompose(filters: Tensor, p: int) -> Factorization:
    """Optimal rank-P factorization of an (M, N, *k) filter stack.

    Seeds are the top P right singular vectors of the (M*N) x S filter
    matrix; coefficients are U_P @ diag(s_P). Retained energy is the kept
    fraction of squared singular values (1.0 for a zero stack)."""
    arr = filters.array if isinstance(filters, Tensor) else np.asarray(filters, float)
    if arr.ndim < 3:
        raise ConfigError(
            f"decompose expects an (out, in, *kernel) stack, got shape {arr.shape}"
        )
    m, n = arr.shape[0], arr.shape[1]
    kernel_extents = arr.shape[2:]
    s_elems = int(np.prod(kernel_extents))
    mat = arr.reshape(m * n, s_elems)
    max_p = min(m * n, s_elems)
    if not 1 <= p <= max_p:
        raise ConfigError(
            f"rank P must lie in 1..{max_p} for {m * n} filters of {s_elems} "
            f"elements, got {p}"
        )
    u, sigma, vt = jacobi_svd(mat)
    seeds = vt[:p].reshape((p,) + kernel_extents)
    alpha = (u[:, :p] * sigma[:p]).reshape(m, n, p)
    total_energy = float((sigma * sigma).sum())
    kept_energy = float((sigma[:p] * sigma[:p]).sum())
    sq_err = max(total_energy - kept_energy, 0.0)
    rmse = float(np.sqrt(sq_err / mat.size))
    retained = kept_energy / total_energy if total_energy > 0.0 else 1.0
    return Factorization(
        seeds=Tensor(seeds),
        alpha=Tensor(alpha),
        reconstruction_rmse=rmse,
        retained_energy=retained,
    )


def reconstruct(factorization: Factorization) -> Tensor:
    """Expand the factorized bank back to the (M, N, *k) filter stack; the
    expansion is the same code path shared layers use at run time."""
    return expand_filters(factorization.seeds, factorization.alpha).value


# ---------------------------------------------------------------------------
# post-hoc vs direct comparison
# ---------------------------------------------------------------------------

REPORT_HEADER = ("layer", "P", "rmse", "retained_energy",
                 "posthoc_metric", "direct_metric")


@dataclass(frozen=True)
class ComparisonRow:
    layer: int
    p: int
    rmse: float
    retained_energy: float
    posthoc_metric: float
    direct_metric: float


def _check_matched(unshared: nets.Network, shared: nets.Network) -> None:
    """The two nets' spec JSON must agree in everything but each layer's P."""
    diff = first_difference(*(_without_p(net.spec.to_json())
                              for net in (unshared, shared)))
    if diff is not None:
        raise ConfigError(f"checkpoints hold architecturally different "
                          f"networks: they differ at {diff}")


def _without_p(doc: dict) -> dict:
    return {**doc, "layers": [{k: v for k, v in layer.items()
                               if k != "sharing_p"} for layer in doc["layers"]]}


def _substitute(net: nets.Network, layer_index: int,
                filters: Tensor) -> nets.Network:
    out = net.clone()
    out.params[f"layer{layer_index}.weights"].assign(filters)
    return out


def compare_posthoc_vs_direct(unshared: nets.Network, shared: nets.Network,
                              eval_set, p_grid=None) -> list[ComparisonRow]:
    """Per conv layer and per P: factorize the trained unshared layer,
    substitute the reconstruction (no retraining), and evaluate; the directly
    trained shared network's metric rides along for contrast."""
    _check_matched(unshared, shared)
    if len(eval_set) == 0:
        raise ConfigError("comparison needs a non-empty evaluation set")
    _, direct_metric = traineval.evaluate(shared, eval_set)
    rows = []
    for layer_index in unshared.conv_layer_indices():
        weights = unshared.params.get(f"layer{layer_index}.weights")
        if weights is None:
            raise ConfigError(
                f"layer {layer_index} of the baseline checkpoint is not an "
                f"unshared conv layer"
            )
        arr = weights.value
        max_p = min(arr.array.shape[0] * arr.array.shape[1],
                    int(np.prod(arr.array.shape[2:])))
        if p_grid:
            # one row per requested P; ranks above this layer's ceiling clamp
            grid = [min(max(int(p), 1), max_p) for p in p_grid]
        else:
            grid = _default_grid(max_p)
        for p in grid:
            fact = decompose(arr, p)
            candidate = _substitute(unshared, layer_index, reconstruct(fact))
            _, metric = traineval.evaluate(candidate, eval_set)
            rows.append(ComparisonRow(
                layer=layer_index, p=p, rmse=fact.reconstruction_rmse,
                retained_energy=fact.retained_energy,
                posthoc_metric=metric, direct_metric=direct_metric))
    return rows


def _default_grid(max_p: int) -> list[int]:
    grid = {1}
    p = 2
    while p < max_p:
        grid.add(p)
        p *= 2
    grid.add(max_p)
    return sorted(grid)


def write_report(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_HEADER)
        for r in rows:
            w.writerow([r.layer, r.p, f"{r.rmse:.12g}",
                        f"{r.retained_energy:.12g}",
                        f"{r.posthoc_metric:.12g}", f"{r.direct_metric:.12g}"])
