"""Post-training quantization (PTQ) substrate.

The paper's baseline models are 8-bit, per-channel, symmetrically quantized
DNNs (Section V-A) — the same baseline every compression method (BBS binary
pruning, BitWave bit-flip, Microscaling, NoisyQuant, ANT, Olive) starts from.
This module provides:

* symmetric per-channel / per-tensor uniform quantization with optional
  MSE-optimal clipping calibration,
* dequantization back to floating point,
* "naive PTQ below 8 bits" — re-quantizing an already-quantized 8-bit tensor
  to a lower precision while keeping a set of sensitive channels at 8 bits,
  which is the PTQ baseline of Figure 11.

All quantizers are deterministic and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedTensor",
    "quantize_per_channel",
    "quantize_per_tensor",
    "dequantize",
    "requantize_to_lower_bits",
    "optimal_clip_scale",
]


@dataclass(frozen=True)
class QuantizedTensor:
    """A symmetric, uniformly quantized weight matrix.

    Attributes
    ----------
    values:
        Integer codes of shape ``(channels, reduction)``.
    scales:
        Per-channel scale factors of shape ``(channels,)`` (a single repeated
        value for per-tensor quantization).  ``float = values * scales``.
    bits:
        Code word width.
    per_channel:
        Whether the scales are per-channel.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int
    per_channel: bool

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point weights."""
        return dequantize(self)

    def effective_bits(self) -> float:
        """Stored bits per weight (scales amortize to ~0 for realistic layers)."""
        return float(self.bits)


def _quant_bounds(bits: int) -> tuple[int, int]:
    if bits < 2:
        raise ValueError(f"need at least 2 bits for signed quantization, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def optimal_clip_scale(
    channel: np.ndarray, bits: int, num_candidates: int = 100
) -> float | np.ndarray:
    """MSE-optimal symmetric clipping scale for one or many weight channels.

    Sweeps ``num_candidates`` clip thresholds between 20 % and 100 % of each
    channel's max absolute value and returns the scale (step size) that
    minimizes the reconstruction MSE.  This is the standard MSE calibration
    used by per-channel PTQ frameworks (e.g. TensorRT-style calibration).

    A 1-D ``channel`` returns a Python ``float``; a 2-D ``(channels,
    reduction)`` matrix returns a ``(channels,)`` float64 array with one
    scale per row.  All-zero and zero-width rows get a scale of 1.0.

    The loop runs over the candidates, each scoring every row at once; it
    deliberately does not broadcast a ``(candidates, channels, reduction)``
    cube, whose temporaries would dominate peak memory on realistic layers.
    Results are bit-identical to :func:`_optimal_clip_scale_reference` row
    by row (``np.argmin`` keeps the first minimum, like its strict ``<``).
    """
    matrix = np.asarray(channel, dtype=np.float64)
    if matrix.ndim <= 1:
        return float(optimal_clip_scale(matrix.reshape(1, -1), bits, num_candidates)[0])
    if matrix.ndim != 2:
        raise ValueError(f"expected a channel or (channels, reduction), got {matrix.shape}")
    qmin, qmax = _quant_bounds(bits)
    best = np.ones(matrix.shape[0])
    max_abs = np.max(np.abs(matrix), axis=1, initial=0.0)
    active = max_abs > 0
    if not active.any():
        return best
    # Boolean indexing copies the rows C-contiguous, so every row mean is a
    # contiguous pairwise sum: the summation order of the 1-D reference.
    rows = matrix[active]
    max_abs = max_abs[active]
    fractions = np.linspace(0.2, 1.0, num_candidates)
    errors = np.empty((num_candidates, rows.shape[0]))
    work = np.empty_like(rows)
    for index, fraction in enumerate(fractions):
        step = (fraction * max_abs / qmax)[:, None]
        np.divide(rows, step, out=work)
        np.round(work, out=work)
        np.clip(work, qmin, qmax, out=work)
        np.multiply(work, step, out=work)
        np.subtract(work, rows, out=work)
        np.square(work, out=work)
        errors[index] = np.mean(work, axis=1)
    best[active] = fractions[np.argmin(errors, axis=0)] * max_abs / qmax
    return best


def _optimal_clip_scale_reference(
    channel: np.ndarray, bits: int, num_candidates: int = 100
) -> float:
    """The original one-channel candidate loop (golden oracle for tests)."""
    channel = np.asarray(channel, dtype=np.float64)
    max_abs = float(np.max(np.abs(channel))) if channel.size else 0.0
    if max_abs == 0.0:
        return 1.0
    _, qmax = _quant_bounds(bits)
    best_scale = max_abs / qmax
    best_mse = np.inf
    for fraction in np.linspace(0.2, 1.0, num_candidates):
        clip = fraction * max_abs
        scale = clip / qmax
        codes = np.clip(np.round(channel / scale), *_quant_bounds(bits))
        err = float(np.mean((codes * scale - channel) ** 2))
        if err < best_mse:
            best_mse = err
            best_scale = scale
    return float(best_scale)


def quantize_per_channel(
    weights: np.ndarray, bits: int = 8, calibrate: bool = False
) -> QuantizedTensor:
    """Symmetric per-channel quantization of a floating-point weight matrix.

    Parameters
    ----------
    weights:
        ``(channels, reduction)`` floating-point matrix.
    bits:
        Target precision.
    calibrate:
        If True, use MSE-optimal clipping per channel instead of max-abs
        scaling.  Max-abs is the right default for 8-bit (negligible clipping
        benefit); calibration matters for aggressive precisions (< 6 bits).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    qmin, qmax = _quant_bounds(bits)
    if calibrate:
        scales = optimal_clip_scale(weights, bits)
    else:
        max_abs = np.max(np.abs(weights), axis=1)
        scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    codes = np.clip(np.round(weights / scales[:, None]), qmin, qmax).astype(np.int64)
    return QuantizedTensor(values=codes, scales=scales, bits=bits, per_channel=True)


def quantize_per_tensor(
    weights: np.ndarray, bits: int = 8, calibrate: bool = False
) -> QuantizedTensor:
    """Symmetric per-tensor quantization (single scale for the whole matrix)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    qmin, qmax = _quant_bounds(bits)
    if calibrate:
        scale = optimal_clip_scale(weights.ravel(), bits)
    else:
        max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
        scale = max_abs / qmax if max_abs > 0 else 1.0
    codes = np.clip(np.round(weights / scale), qmin, qmax).astype(np.int64)
    scales = np.full(weights.shape[0], scale)
    return QuantizedTensor(values=codes, scales=scales, bits=bits, per_channel=False)


def dequantize(quantized: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to floating point values."""
    return quantized.values.astype(np.float64) * quantized.scales[:, None]


def requantize_to_lower_bits(
    quantized: QuantizedTensor,
    target_bits: int,
    sensitive_channels: np.ndarray | None = None,
    calibrate: bool = True,
) -> QuantizedTensor:
    """Naive PTQ below 8 bits: re-quantize an INT8 tensor to ``target_bits``.

    This is the "PTQ" baseline of Figure 11: coarse clipping and re-scaling of
    the already-quantized tensor so that only ``2**target_bits`` quantization
    levels remain.  Channels marked sensitive keep their original 8-bit codes
    (and scales); the returned tensor therefore has mixed precision, exactly
    like the BBS and BitWave configurations it is compared against.

    The returned codes are expressed back in the *original* 8-bit integer
    domain (i.e. they are multiples of the coarser step), so that KL
    divergence and MSE can be measured directly against the 8-bit baseline.
    """
    if target_bits >= quantized.bits:
        raise ValueError(
            f"target_bits ({target_bits}) must be below the current precision "
            f"({quantized.bits})"
        )
    values = quantized.values.astype(np.float64)
    channels = values.shape[0]
    if sensitive_channels is None:
        sensitive = np.zeros(channels, dtype=bool)
    else:
        sensitive = np.asarray(sensitive_channels, dtype=bool)
        if sensitive.shape != (channels,):
            raise ValueError(
                f"sensitive_channels must have shape ({channels},), got {sensitive.shape}"
            )

    qmin, qmax = _quant_bounds(target_bits)
    lo, hi = _quant_bounds(quantized.bits)
    kept = ~sensitive
    rows = values[kept]
    if calibrate:
        steps = optimal_clip_scale(rows, target_bits)
    else:
        max_abs = np.max(np.abs(rows), axis=1, initial=0.0)
        steps = np.where(max_abs > 0, max_abs / qmax, 1.0)
    codes = np.clip(np.round(rows / steps[:, None]), qmin, qmax)
    # Express the coarse codes back in the original integer domain.
    reconstructed = np.round(codes * steps[:, None])
    new_values = quantized.values.copy()
    new_values[kept] = np.clip(reconstructed, lo, hi).astype(np.int64)

    return QuantizedTensor(
        values=new_values,
        scales=quantized.scales.copy(),
        bits=quantized.bits,
        per_channel=quantized.per_channel,
    )
