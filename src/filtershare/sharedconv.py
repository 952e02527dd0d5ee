"""Convolution layers with a shared seed-filter bank.

A shared layer stores P seed filters (each with S elements) plus an M x N x P
array of mixing coefficients; the full M x N filter set is expanded on every
forward pass as v[i,j] = sum_p alpha[i,j,p] * seed[p]. Backprop reaches the
bank and the coefficients through the tape, so training them directly needs
no hand-derived gradients. Weight counts: M*N*S unshared, M*N*P + P*S shared;
the bias (M scalars) is never shared.

The layer functions take the (P, *k) seeds and the (M, N, P) coefficients as
Parameters, Vars or Tensors; `FilterBank` wraps a seed stack for the unit-norm
projection. `layer_forward` checks the filters against the layer spec, and
`autodiff.conv_stack` checks them against the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .tensor import Shape, Tensor

VALID = "valid"
SAME = "same"


@dataclass(frozen=True)
class ConvLayerSpec:
    """Static description of one convolution layer.

    in_channels is N, out_channels is M, and the product of kernel_extents is
    the per-filter element count S. sharing_p is None for an unshared layer.
    """

    in_channels: int
    out_channels: int
    kernel_extents: tuple[int, ...]
    padding: str = VALID
    sharing_p: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kernel_extents",
                           tuple(int(e) for e in self.kernel_extents))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError(
                f"channel counts must be >= 1, got in={self.in_channels} "
                f"out={self.out_channels}"
            )
        Shape(self.kernel_extents)
        if self.padding not in (VALID, SAME):
            raise ConfigError(f"unknown padding mode {self.padding!r}")
        if self.padding == SAME and any(e % 2 == 0 for e in self.kernel_extents):
            raise ConfigError(
                f"same padding needs odd kernel extents, got {self.kernel_extents}"
            )
        if self.sharing_p is not None and self.sharing_p < 1:
            raise ConfigError(f"sharing_p must be >= 1, got {self.sharing_p}")

    @property
    def spatial_dims(self) -> int:
        return len(self.kernel_extents)

    @property
    def filter_size(self) -> int:
        """S: number of elements in one filter."""
        return int(np.prod(self.kernel_extents))

    @property
    def shared(self) -> bool:
        return self.sharing_p is not None


class FilterBank:
    """The P seed filters of a shared layer, stacked as one (P, *k) tensor."""

    __slots__ = ("seeds",)

    def __init__(self, seeds: Tensor):
        seeds = seeds if isinstance(seeds, Tensor) else Tensor(seeds)
        if seeds.array.ndim < 2:
            raise ShapeError(
                f"filter bank must be (P, *kernel_extents), got {tuple(seeds.shape)}"
            )
        self.seeds = seeds

    @property
    def count(self) -> int:
        return self.seeds.array.shape[0]

    def norms(self) -> np.ndarray:
        flat = self.seeds.array.reshape(self.count, -1)
        return np.sqrt((flat * flat).sum(axis=1))


def expand_filters(seeds, alpha) -> ad.Var:
    """v[i,j] = sum_p alpha[i,j,p] * seed[p], differentiable in both.

    `seeds` is the (P, *k) stack and `alpha` the (M, N, P) coefficients, each
    a Parameter, Var or Tensor."""
    return ad.mix_filters(seeds, alpha)


def layer_forward(spec: ConvLayerSpec, filters, bias, inputs) -> ad.Var:
    """out[i] = sum_j corr(in[j], v[i,j]) + b[i] over a channel stack.

    `inputs` is the (N, *spatial) stack; `filters` the (M, N, *k) stack.
    This checks the filters against the spec; `ad.conv_stack` checks them
    against the input.
    """
    f = ad.as_var(filters)
    expect_f = (spec.out_channels, spec.in_channels) + spec.kernel_extents
    if tuple(f.array.shape) != expect_f:
        raise ShapeError(
            f"layer_forward: filters shaped {f.array.shape}, expected {expect_f}"
        )
    same = spec.padding == SAME
    return ad.conv_stack(inputs, f, bias, [(e - 1) // 2 if same else 0
                                           for e in spec.kernel_extents])


def shared_layer_forward(spec: ConvLayerSpec, seeds, alpha, bias,
                         inputs) -> ad.Var:
    """Forward pass of a shared layer; defined as layer_forward of the
    expanded bank, so the equivalence with the unshared path is structural."""
    if not spec.shared:
        raise ConfigError("shared_layer_forward needs a spec with sharing enabled")
    seeds, alpha = ad.as_var(seeds), ad.as_var(alpha)
    p_bank = seeds.array.shape[0]
    p_alpha = alpha.array.shape[2]
    if p_bank != spec.sharing_p or p_alpha != spec.sharing_p:
        raise ShapeError(
            f"shared_layer_forward: spec P={spec.sharing_p} but bank has "
            f"{p_bank} seeds and alpha has {p_alpha}"
        )
    return layer_forward(spec, expand_filters(seeds, alpha), bias, inputs)


@dataclass(frozen=True)
class ParamCount:
    weights: int
    bias: int


def param_count(spec: ConvLayerSpec) -> ParamCount:
    """Trainable scalar counts: M*N*S unshared, M*N*P + P*S shared; bias M."""
    m, n, s = spec.out_channels, spec.in_channels, spec.filter_size
    if spec.shared:
        weights = m * n * spec.sharing_p + spec.sharing_p * s
    else:
        weights = m * n * s
    return ParamCount(weights=weights, bias=m)


def sharing_breakeven(spec: ConvLayerSpec) -> int:
    """Largest P with M*N*P + P*S < M*N*S; 0 when no P saves anything."""
    m, n, s = spec.out_channels, spec.in_channels, spec.filter_size
    return (m * n * s - 1) // (m * n + s)
