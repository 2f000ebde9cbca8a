"""Analytic flash, SRAM, and latency models over pruning strategies.

The latency model is linear in four hardware constants (cycles per fetched
feature value, per filterlet index lookup, per lane-wide MAC, and per output
post-processing step), so they can be recovered from a handful of measured
or simulated layer timings by least squares.
"""

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DataError, FitError
from .fwcs import INDEX_DTYPE, kept_count
from .model import check_chain
from .tensor import ConvLayerSpec, is_integer, is_real

_PARAM_NAMES = ("t_mem", "t_idx", "t_com", "t_post")


@dataclass(frozen=True)
class StrategyVector:
    """Per-layer pruned-filterlet fractions."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", strategy_alphas(self.alphas))

    def __len__(self):
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)


def strategy_alphas(s, n_layers: int | None = None) -> tuple[float, ...]:
    """The pruned fractions of strategy ``s``, a ``StrategyVector`` or any
    sequence of reals, as floats.

    Raises DataError unless each is a real number in [0, 1] (nan, strings
    and bools are not) and, when ``n_layers`` is given, there is one per
    layer.
    """
    alphas = tuple(s)
    if not all(is_real(a) and 0.0 <= a <= 1.0 for a in alphas):
        raise DataError(f"alpha outside [0, 1] in {alphas}")
    alphas = tuple(float(a) for a in alphas)
    if n_layers is not None and len(alphas) != n_layers:
        raise DataError("strategy length != layer count")
    return alphas


@dataclass(frozen=True)
class Budget:
    """Deployment limits: flash bytes, SRAM bytes, and allowed loss change
    (``inf`` for none)."""

    mem_flash: int
    mem_ram: int
    dl_max: float

    def __post_init__(self):
        if not (is_integer(self.mem_flash) and is_integer(self.mem_ram)):
            raise DataError("memory budgets must be integers")
        if not is_real(self.dl_max) or math.isnan(self.dl_max):
            raise DataError(f"dl_max {self.dl_max!r} is not a real number")
        if self.mem_flash <= 0 or self.mem_ram <= 0 or self.dl_max < 0:
            raise DataError("budgets must be positive (dl_max may be zero)")


@dataclass(frozen=True)
class LatencyParams:
    """Fitted per-operation cycle constants plus the lane count they assume."""

    t_mem: float
    t_idx: float
    t_com: float
    t_post: float
    lanes: int = 4

    def __post_init__(self):
        for name in _PARAM_NAMES:
            v = getattr(self, name)
            if not is_real(v) or not (math.isfinite(v) and v >= 0):
                raise DataError(f"{name} {v!r} must be finite and non-negative")
            object.__setattr__(self, name, float(v))
        if not is_integer(self.lanes):
            raise DataError(f"lanes {self.lanes!r} is not an integer")
        object.__setattr__(self, "lanes", int(self.lanes))
        if self.lanes < 1:
            raise DataError("lanes must be >= 1")


def kept_flash_bits(spec: ConvLayerSpec, keep: int, m: int = 8) -> int:
    """Flash bits of one layer that keeps ``keep`` filterlets: ``m`` bits per
    retained weight plus one index entry per retained filterlet."""
    return m * keep * spec.channels + 8 * INDEX_DTYPE.itemsize * keep


def layer_flash_bits(spec: ConvLayerSpec, alpha: float, m: int = 8) -> int:
    """Flash bits of one layer at pruned fraction ``alpha``."""
    return kept_flash_bits(
        spec, kept_count(spec.n_filters * spec.filterlets_per_filter, alpha), m)


def flash_bytes(layer_bits) -> int:
    """Bytes of the summed per-layer flash bits; the sum must be whole bytes."""
    bits = sum(layer_bits)
    if bits % 8:
        raise DataError("size not byte aligned; pick byte-multiple widths")
    return bits // 8


def model_size(specs: list[ConvLayerSpec], s, m: int = 8) -> int:
    """Flash bytes of the packed strategy in the paper's layout: retained
    weights plus one u16 index entry per retained filterlet, at the kept
    counts of mask construction.

    This is not the packed payload.  A bundle stores each kept filterlet's
    position as u8 on kernels of at most 255 positions, and adds per layer
    a run count per filter, the block's magic and the bias (ROADMAP item
    2), so the payload can be larger or smaller than this.
    """
    alphas = strategy_alphas(s, len(specs))
    return flash_bytes(layer_flash_bits(spec, alpha, m)
                       for spec, alpha in zip(specs, alphas))


def activation_bytes(positions: int, channels: int, m: int = 8) -> int:
    """Bytes of one feature map of ``positions`` x ``channels`` m-bit values."""
    return positions * channels * m // 8


def input_bytes(first: ConvLayerSpec, m: int = 8) -> int:
    """Bytes of the chain's input feature map, read by its first layer."""
    return activation_bytes(first.input_h * first.input_w, first.channels, m)


def peak_pair_bytes(sizes) -> int:
    """Largest sum of two adjacent feature-map sizes along the chain."""
    return max(a + b for a, b in zip(sizes, sizes[1:]))


def runtime_memory(specs: list[ConvLayerSpec], s, m: int = 8,
                   kept_channels=None) -> int:
    """Peak SRAM bytes: the largest adjacent pair of intermediate feature maps.

    Filterlet pruning keeps a layer's output channel count unless a filter
    loses every filterlet; pass ``kept_channels`` (per-layer surviving filter
    counts, e.g. from the built masks) to account for fully emptied filters.
    """
    alphas = strategy_alphas(s, len(specs))
    if not specs:
        raise DataError("no layers")
    check_chain(specs)
    if kept_channels is None:
        kept_channels = [spec.n_filters if a < 1.0 else 0
                         for spec, a in zip(specs, alphas)]
    if len(kept_channels) != len(specs):
        raise DataError("kept_channels length != layer count")
    sizes = [input_bytes(specs[0], m)]
    sizes += [activation_bytes(spec.out_positions, ch, m)
              for spec, ch in zip(specs, kept_channels)]
    return peak_pair_bytes(sizes)


def layer_latency(spec: ConvLayerSpec, alpha: float, p: LatencyParams) -> float:
    """Predicted cycles for one layer at pruned fraction ``alpha``, or an
    array of them at an array of fractions.

    Per output position: fetch the receptive field, then for each retained
    filterlet one index lookup plus ceil(C/l) lane-wide MACs, then per-filter
    post-processing; scaled by the number of output positions.
    """
    # True for one fraction in range, an array for an array of them; nan is
    # outside either way
    inside = (alpha >= 0.0) & (alpha <= 1.0)
    if not (inside is True or np.all(inside)):
        raise DataError(f"alpha {alpha} outside [0, 1]")
    fetch = spec.kernel_h * spec.kernel_w * spec.channels * p.t_mem
    chunks = -(-spec.channels // p.lanes)
    compute = (spec.n_filters * spec.kernel_h * spec.kernel_w * (1.0 - alpha)
               * (p.t_idx + chunks * p.t_com))
    post = spec.n_filters * p.t_post
    return (fetch + compute + post) * spec.out_positions


def total_time(specs: list[ConvLayerSpec], s, p: LatencyParams) -> float:
    """Summed predicted cycles over all convolution layers."""
    alphas = strategy_alphas(s, len(specs))
    return sum(layer_latency(spec, a, p) for spec, a in zip(specs, alphas))


def _design_row(spec: ConvLayerSpec, alpha: float, lanes: int) -> list[float]:
    pos = spec.out_positions
    hw = spec.kernel_h * spec.kernel_w
    chunks = -(-spec.channels // lanes)
    retained = spec.n_filters * hw * (1.0 - alpha)
    return [
        pos * hw * spec.channels,       # t_mem
        pos * retained,                 # t_idx
        pos * retained * chunks,        # t_com
        pos * spec.n_filters,           # t_post
    ]


def normalized_mse(y_true, y_pred) -> float:
    """Mean squared error after min-max normalizing by the true values' range."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    span = float(y_true.max() - y_true.min())
    if span <= 0:
        span = 1.0
    return float(np.mean(((y_pred - y_true) / span) ** 2))


def fit_latency_params(samples, lanes: int) -> tuple[LatencyParams, float]:
    """Least-squares fit of the four cycle constants from (spec, alpha, cycles).

    Requires at least four samples spanning enough distinct geometry for the
    design matrix to have full rank; non-negativity is enforced since the
    constants are physical cycle costs.  Returns the params and the training
    MSE on min-max-normalized latencies.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise FitError(f"need >= 4 samples, got {len(samples)}")
    x = np.array([_design_row(spec, alpha, lanes) for spec, alpha, _ in samples],
                 dtype=np.float64)
    y = np.array([float(c) for _, _, c in samples], dtype=np.float64)
    col_norm = np.linalg.norm(x, axis=0)
    if np.any(col_norm == 0):
        name = _PARAM_NAMES[int(np.argmin(col_norm))]
        raise FitError(f"design matrix has an all-zero column for {name}")
    xs = x / col_norm
    u, sv, vt = np.linalg.svd(xs, full_matrices=False)
    # rank below 4 at np.linalg.matrix_rank's tolerance
    if sv[-1] <= sv[0] * max(xs.shape) * np.finfo(np.float64).eps:
        # name the direction the samples cannot distinguish
        name = _PARAM_NAMES[int(np.argmax(np.abs(vt[-1])))]
        raise FitError(
            f"rank-deficient samples: vary the geometry so {name} is identifiable"
        )
    coef = vt.T @ (u.T @ y / sv)
    if np.any(coef < 0):
        # the non-negative optimum is the least-squares fit on its own support
        # (Lawson & Hanson 1974, ch. 23): the closest non-negative fit on a
        # smaller subset of the columns, or zero
        fits = [np.zeros(4)]
        for k in (1, 2, 3):
            for cols in map(list, combinations(range(4), k)):
                fits.append(np.zeros(4))
                fits[-1][cols] = np.linalg.lstsq(xs[:, cols], y, rcond=None)[0]
        coef = min((c for c in fits if np.all(c >= 0)),
                   key=lambda c: np.sum((xs @ c - y) ** 2))
    coef = coef / col_norm
    params = LatencyParams(*[float(c) for c in coef], lanes=lanes)
    mse = normalized_mse(y, x @ coef)
    return params, mse


def save_latency_params(path, p: LatencyParams) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for name in _PARAM_NAMES:
            f.write(f"{name}={getattr(p, name)!r}\n")
        f.write(f"lanes={p.lanes}\n")


def load_latency_params(path) -> LatencyParams:
    vals: dict[str, float] = {}
    lanes = 4
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key != "lanes":
                vals[key] = float(val)
            else:
                try:
                    lanes = int(val)
                except ValueError:
                    raise DataError(
                        f"lanes {val.strip()!r} is not an integer") from None
    try:
        return LatencyParams(
            vals["t_mem"], vals["t_idx"], vals["t_com"], vals["t_post"],
            lanes=lanes,
        )
    except KeyError as e:
        raise DataError(f"missing latency parameter {e}") from None


# the ConvLayerSpec fields of a sample row, in column order
_SPEC_COLUMNS = ("n_filters", "kernel_h", "kernel_w", "channels",
                 "stride", "input_h", "input_w")
_CSV_FIELDS = _SPEC_COLUMNS + ("alpha", "cycles")


def save_samples_csv(path, samples) -> None:
    """Persist (spec, alpha, cycles) rows with full layer geometry."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_FIELDS)
        for spec, alpha, cycles in samples:
            writer.writerow([getattr(spec, c) for c in _SPEC_COLUMNS]
                            + [alpha, cycles])


def load_samples_csv(path) -> list[tuple[ConvLayerSpec, float, float]]:
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or set(_CSV_FIELDS) - set(reader.fieldnames):
            raise DataError(f"sample CSV must carry columns {_CSV_FIELDS}")
        for row in reader:
            spec = ConvLayerSpec(**{c: int(row[c]) for c in _SPEC_COLUMNS})
            out.append((spec, float(row["alpha"]), float(row["cycles"])))
    return out
