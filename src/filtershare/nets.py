"""Declarative architectures: a compact CIFAR-style CNN and a 3D U-Net.

Both builders can enable filter sharing per conv layer; a requested P above
a layer's breakeven is clamped (with a warning) so sharing never inflates the
weight count. NetSpecs validate end to end by symbolic shape propagation
before any training. They serialize to JSON (the checkpoint manifest's "net")
by one rule for every layer: its "kind" plus its dataclass fields.

Stand-in notes: the CIFAR net is a conventional 3-conv-block classifier
frozen here as the reference layout. The U-Net keeps the analysis/synthesis
structure at desk scale (default 3 levels, 8 base channels, 40^3 input);
upsampling is nearest-neighbor followed by convolution, and the head is a
sigmoid over a single output channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from . import sharedconv as sc
from .data import child_rng
from .errors import ConfigError, ShapeError
from .regularizers import make_dropout_mask
from .tensor import Shape, Tensor

HEAD_LOGITS = "logits"
HEAD_MASK = "mask"


@dataclass(frozen=True)
class ConvBlock:
    conv: sc.ConvLayerSpec
    activation: str | None = None  # "relu" | "sigmoid" | None
    dropout: bool = False
    save_as: str | None = None

    def __post_init__(self):
        if self.activation not in (None, "relu", "sigmoid"):
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class Pool:
    window: int = 2


@dataclass(frozen=True)
class UpsampleConcat:
    factor: int
    skip: str


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class NetSpec:
    name: str
    input_shape: tuple[int, ...]
    layers: tuple
    head: str  # HEAD_LOGITS | HEAD_MASK

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(e) for e in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.head not in (HEAD_LOGITS, HEAD_MASK):
            raise ConfigError(f"unknown head {self.head!r}")

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> dict:
        return {"name": self.name, "input_shape": list(self.input_shape),
                "layers": [_layer_to_json(layer) for layer in self.layers],
                "head": self.head}

    @classmethod
    def from_json(cls, doc: dict) -> "NetSpec":
        """Inverse of to_json. A layer entry must hold exactly its kind's
        keys; a missing or unknown key raises ConfigError."""
        return cls(name=doc["name"], input_shape=doc["input_shape"],
                   layers=[_layer_from_json(i, entry)
                           for i, entry in enumerate(doc["layers"])],
                   head=doc["head"])


# The JSON "kind" of each layer class. An entry holds the class's fields
# under their own names; a ConvBlock's ConvLayerSpec fields sit flat in it.
_LAYER_KINDS = {"conv": ConvBlock, "pool": Pool,
                "upsample_concat": UpsampleConcat,
                "global_avg_pool": GlobalAvgPool, "dense": Dense}
_KIND_OF = {cls: kind for kind, cls in _LAYER_KINDS.items()}


def _layer_to_json(layer) -> dict:
    if type(layer) not in _KIND_OF:
        raise ConfigError(f"unserializable layer {layer!r}")
    return {"kind": _KIND_OF[type(layer)], **_flat(layer)}


def _flat(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_flat(value))
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _unflat(cls, entry: dict):
    types = get_type_hints(cls)
    return cls(**{f.name: (_unflat(types[f.name], entry)
                           if is_dataclass(types[f.name]) else entry[f.name])
                  for f in fields(cls)})


def _layer_from_json(i: int, entry: dict):
    kind = entry["kind"]
    if kind not in _LAYER_KINDS:
        raise ConfigError(f"layer {i}: unknown layer kind {kind!r}")
    try:
        layer = _unflat(_LAYER_KINDS[kind], entry)
    except KeyError as e:
        raise ConfigError(f"layer {i} ({kind}): missing key {e}") from None
    unknown = sorted(set(entry) - set(_layer_to_json(layer)))
    if unknown:
        raise ConfigError(f"layer {i} ({kind}): unknown keys {unknown}")
    return layer


# ---------------------------------------------------------------------------
# symbolic shape propagation
# ---------------------------------------------------------------------------

def validate(spec: NetSpec) -> None:
    """Propagate shapes from spec.input_shape through every layer; raise
    ShapeError (naming the layer index) at the first mismatch."""
    shape = spec.input_shape
    Shape(shape)
    saved: dict[str, tuple[int, ...]] = {}
    for i, layer in enumerate(spec.layers):
        if type(layer) not in _KIND_OF:
            raise ConfigError(f"layer {i}: unknown layer type {type(layer)}")
        where = f"layer {i} ({_KIND_OF[type(layer)]})"
        if isinstance(layer, (Pool, GlobalAvgPool)) and len(shape) < 2:
            raise ShapeError(f"{where}: input has no spatial axes")
        if isinstance(layer, ConvBlock):
            cs = layer.conv
            if len(shape) != cs.spatial_dims + 1:
                raise ShapeError(f"{where}: expected {cs.spatial_dims} spatial "
                                 f"dims plus channels, got shape {shape}")
            if shape[0] != cs.in_channels:
                raise ShapeError(f"{where}: expects {cs.in_channels} input "
                                 f"channels, got {shape[0]}")
            spatial = shape[1:]
            if cs.padding == sc.VALID:
                for d, (s, k) in enumerate(zip(spatial, cs.kernel_extents)):
                    if k > s:
                        raise ShapeError(f"{where}: kernel extent {k} exceeds "
                                         f"input extent {s} in dimension {d}")
                spatial = tuple(s - k + 1
                                for s, k in zip(spatial, cs.kernel_extents))
            shape = (cs.out_channels,) + spatial
            if layer.save_as:
                saved[layer.save_as] = shape
        elif isinstance(layer, Pool):
            for d, s in enumerate(shape[1:]):
                if s % layer.window != 0:
                    raise ShapeError(f"{where}: extent {s} not divisible by "
                                     f"window {layer.window} in dimension {d}")
            shape = (shape[0],) + tuple(s // layer.window for s in shape[1:])
        elif isinstance(layer, UpsampleConcat):
            if layer.skip not in saved:
                raise ShapeError(f"{where}: unknown skip {layer.skip!r}")
            up = tuple(s * layer.factor for s in shape[1:])
            skip_shape = saved[layer.skip]
            if up != skip_shape[1:]:
                raise ShapeError(f"{where}: upsampled spatial shape {up} does "
                                 f"not match skip {layer.skip!r} "
                                 f"{skip_shape[1:]}")
            shape = (shape[0] + skip_shape[0],) + up
        elif isinstance(layer, GlobalAvgPool):
            shape = (shape[0],)
        else:  # Dense
            if shape != (layer.in_dim,):
                raise ShapeError(f"{where}: expects input shape "
                                 f"({layer.in_dim},), got {shape}")
            shape = (layer.out_dim,)
    if spec.head == HEAD_MASK:
        if len(shape) < 2 or shape[0] != 1:
            raise ShapeError(
                f"mask head needs a single-channel stack, got final shape {shape}"
            )
    elif len(shape) != 1:
        raise ShapeError(f"logits head needs a vector output, got {shape}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _layer_p(m: int, n: int, kernel, p: int | None) -> int | None:
    """Clamp a requested bank size to the layer's breakeven (warn if needed)."""
    if p is None:
        return None
    breakeven = sc.sharing_breakeven(sc.ConvLayerSpec(n, m, kernel))
    if p > breakeven:
        warnings.warn(
            f"sharing P={p} exceeds breakeven {breakeven} for a conv layer "
            f"with in={n} out={m} kernel={tuple(kernel)}; clamping",
            stacklevel=3,
        )
        return breakeven if breakeven >= 1 else None
    return p


def build_cifcnn(shared: bool = False, p: int = 15) -> NetSpec:
    """3x32x32 classifier: two conv/relu/dropout/pool blocks (5x5, channels
    3->32->64), a 3x3 conv to 64, global average pooling, dense to 10 logits."""
    if shared and p < 1:
        raise ConfigError(f"sharing needs P >= 1, got {p}")

    def conv(n, m, kernel, dropout):
        return ConvBlock(
            conv=sc.ConvLayerSpec(n, m, kernel, padding=sc.VALID,
                                  sharing_p=_layer_p(m, n, kernel, p if shared else None)),
            activation="relu", dropout=dropout,
        )

    layers = (
        conv(3, 32, (5, 5), dropout=True), Pool(2),
        conv(32, 64, (5, 5), dropout=True), Pool(2),
        conv(64, 64, (3, 3), dropout=False),
        GlobalAvgPool(),
        Dense(64, 10),
    )
    return NetSpec(name="cifcnn", input_shape=(3, 32, 32), layers=layers,
                   head=HEAD_LOGITS)


def build_unet3d(levels: int = 3, base_channels: int = 8, shared: bool = False,
                 p: int = 15, input_extent: int = 40) -> NetSpec:
    """3D U-Net: per level two same-padded 3x3x3 convs + relu with channels
    doubling from base_channels, 2x pooling between levels; the synthesis arm
    upsamples, concatenates the skip, and convolves twice; 1x1x1 conv +
    sigmoid head. Dropout sits after each level's second conv."""
    if levels < 2:
        raise ConfigError(f"u-net needs at least 2 levels, got {levels}")
    if base_channels < 1:
        raise ConfigError(f"base_channels must be >= 1, got {base_channels}")
    if shared and p < 1:
        raise ConfigError(f"sharing needs P >= 1, got {p}")
    kernel = (3, 3, 3)
    ch = [base_channels * (2 ** lvl) for lvl in range(levels)]

    def conv(n, m, dropout=False, save_as=None):
        return ConvBlock(
            conv=sc.ConvLayerSpec(n, m, kernel, padding=sc.SAME,
                                  sharing_p=_layer_p(m, n, kernel, p if shared else None)),
            activation="relu", dropout=dropout, save_as=save_as,
        )

    layers: list = []
    in_ch = 1
    for lvl in range(levels):
        last = lvl == levels - 1
        layers.append(conv(in_ch, ch[lvl]))
        layers.append(conv(ch[lvl], ch[lvl], dropout=True,
                           save_as=None if last else f"enc{lvl}"))
        if not last:
            layers.append(Pool(2))
        in_ch = ch[lvl]
    for lvl in range(levels - 2, -1, -1):
        layers.append(UpsampleConcat(factor=2, skip=f"enc{lvl}"))
        layers.append(conv(in_ch + ch[lvl], ch[lvl]))
        layers.append(conv(ch[lvl], ch[lvl], dropout=True))
        in_ch = ch[lvl]
    layers.append(ConvBlock(
        conv=sc.ConvLayerSpec(in_ch, 1, (1, 1, 1), padding=sc.SAME,
                              sharing_p=None),
        activation="sigmoid",
    ))
    return NetSpec(name="unet3d", input_shape=(1,) + (input_extent,) * 3,
                   layers=tuple(layers), head=HEAD_MASK)


# ---------------------------------------------------------------------------
# instantiated network
# ---------------------------------------------------------------------------

_TAG_INIT = 3


class Network:
    """A NetSpec bound to concrete Parameters, runnable under a tape."""

    def __init__(self, spec: NetSpec, params: dict[str, ad.Parameter]):
        self.spec = spec
        self.params = params

    @classmethod
    def initialize(cls, spec: NetSpec, seed: int = 0) -> "Network":
        validate(spec)
        params: dict[str, ad.Parameter] = {}
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, ConvBlock):
                cs = layer.conv
                limit = np.sqrt(6.0 / (cs.filter_size
                                       * (cs.in_channels + cs.out_channels)))
                if cs.shared:
                    p = cs.sharing_p
                    seeds = child_rng(seed, _TAG_INIT, i, 0).uniform(
                        -limit, limit, size=(p,) + cs.kernel_extents)
                    alpha = child_rng(seed, _TAG_INIT, i, 1).normal(
                        0.0, 1.0 / np.sqrt(p),
                        size=(cs.out_channels, cs.in_channels, p))
                    params[f"layer{i}.seeds"] = ad.Parameter(f"layer{i}.seeds", seeds)
                    params[f"layer{i}.alpha"] = ad.Parameter(f"layer{i}.alpha", alpha)
                else:
                    w = child_rng(seed, _TAG_INIT, i, 0).uniform(
                        -limit, limit,
                        size=(cs.out_channels, cs.in_channels) + cs.kernel_extents)
                    params[f"layer{i}.weights"] = ad.Parameter(f"layer{i}.weights", w)
                params[f"layer{i}.bias"] = ad.Parameter(
                    f"layer{i}.bias", np.zeros(cs.out_channels))
            elif isinstance(layer, Dense):
                limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
                w = child_rng(seed, _TAG_INIT, i, 0).uniform(
                    -limit, limit, size=(layer.out_dim, layer.in_dim))
                params[f"layer{i}.weights"] = ad.Parameter(f"layer{i}.weights", w)
                params[f"layer{i}.bias"] = ad.Parameter(
                    f"layer{i}.bias", np.zeros(layer.out_dim))
        return cls(spec, params)

    def parameters(self) -> list[ad.Parameter]:
        """All trainable parameters in deterministic (layer, slot) order."""
        return [self.params[k] for k in sorted(self.params,
                                               key=_param_sort_key)]

    def alpha_params(self) -> list[ad.Parameter]:
        return [p for k, p in sorted(self.params.items()) if k.endswith(".alpha")]

    def bank_params(self) -> list[tuple[ad.Parameter, ad.Parameter]]:
        """(seeds, alpha) Parameter pairs, one per shared layer."""
        return [(p, self.params[k[:-len("seeds")] + "alpha"])
                for k, p in sorted(self.params.items()) if k.endswith(".seeds")]

    def conv_layer_indices(self) -> list[int]:
        return [i for i, layer in enumerate(self.spec.layers)
                if isinstance(layer, ConvBlock)]

    def weight_count(self) -> int:
        return sum(p.value.size for k, p in self.params.items()
                   if not k.endswith(".bias"))

    def clone(self) -> "Network":
        params = {k: ad.Parameter(p.id, p.value) for k, p in self.params.items()}
        return Network(self.spec, params)

    def forward_var(self, x, training: bool = False, dropout_p: float = 0.0,
                    rng: np.random.Generator | None = None) -> ad.Var:
        """Build the forward program; records onto the active tape, if any.

        Dropout fires only when training with dropout_p > 0 and an rng; it
        draws one mask per flagged conv block, in layer order.
        """
        use_dropout = training and dropout_p > 0.0
        if use_dropout and rng is None:
            raise ConfigError("training with dropout needs an rng")
        v = ad.as_var(x)
        saved: dict[str, ad.Var] = {}
        for i, layer in enumerate(self.spec.layers):
            if isinstance(layer, ConvBlock):
                cs = layer.conv
                bias = self.params[f"layer{i}.bias"]
                if cs.shared:
                    v = sc.shared_layer_forward(
                        cs, self.params[f"layer{i}.seeds"],
                        self.params[f"layer{i}.alpha"], bias, v)
                else:
                    v = sc.layer_forward(
                        cs, self.params[f"layer{i}.weights"], bias, v)
                if layer.activation == "relu":
                    v = ad.relu(v)
                elif layer.activation == "sigmoid":
                    v = ad.sigmoid(v)
                if layer.dropout and use_dropout:
                    v = ad.apply_mask(
                        v, make_dropout_mask(v.array.shape, dropout_p, rng))
                if layer.save_as:
                    saved[layer.save_as] = v
            elif isinstance(layer, Pool):
                v = ad.max_pool(v, layer.window)
            elif isinstance(layer, UpsampleConcat):
                v = ad.upsample_concat(v, saved[layer.skip], layer.factor)
            elif isinstance(layer, GlobalAvgPool):
                v = ad.global_avg_pool(v)
            elif isinstance(layer, Dense):
                v = ad.affine(self.params[f"layer{i}.weights"], v,
                              self.params[f"layer{i}.bias"])
        if self.spec.head == HEAD_MASK:
            v = ad.squeeze_leading(v)
        return v

    def forward(self, x: Tensor) -> Tensor:
        """Inference-mode forward pass (no tape, no dropout)."""
        return self.forward_var(x, training=False).value


def _param_sort_key(key: str):
    layer, slot = key.split(".", 1)
    return (int(layer.removeprefix("layer")), slot)
