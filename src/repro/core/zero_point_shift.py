"""Binary pruning strategy 2: zero-point shifting (Figure 5, Algorithm 1).

For aggressive pruning budgets (4 columns in the paper's moderate setting),
replacing many low columns with one rounded average costs too much MSE.
Zero-point shifting instead searches for a constant to *add* to the whole
group (shifting its zero point) such that, after the shift, the low columns
can be zeroed out — each weight either truncates down or rounds up to the
next multiple of ``2**k`` — with minimal error against the original weights.
The chosen constant is stored in the 6-bit BBS-constant metadata field and is
subtracted back during computation (``actual = shifted_pruned - constant``).

The search over the 64 possible 6-bit constants is exhaustive.  The fast path
(:func:`zero_point_shift_groups`) evaluates all ``(candidate, group)`` pairs
at once from per-group facts: the redundant/sparse column split follows from
the group extrema, and a lower bound on each pair's squared error — the
rounding distance of the shifted weights to block multiples — follows from
per-group residue histograms.  A pair whose extrema show that nothing clips
and no penalty or rounding limit can interfere is *exact*: its error equals
the bound.  Only the other pairs that could still beat the best exact bound
are scored element by element.  The original per-candidate implementation is
kept as :func:`zero_point_shift_groups_reference`; the two are bit-identical
(property-tested in ``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from .encoding import (
    CONSTANT_FIELD_BITS,
    MAX_PRUNED_COLUMNS,
    MAX_REDUNDANT_COLUMNS,
    PrunedGroup,
    PruningStrategy,
)

__all__ = [
    "zero_point_shift_group",
    "zero_point_shift_groups",
    "zero_point_shift_groups_reference",
]

#: Group rows per search block: bounds the ``(candidates, groups)`` arrays.
_GROUP_BLOCK = 8192

#: Weights per element-wise scoring pass (bounds its int32 temporaries).
_SCORE_ELEMENTS = 1 << 19


def _constant_candidates(constant_bits: int) -> np.ndarray:
    half = 1 << (constant_bits - 1)
    return np.arange(-half, half, dtype=np.int64)


def zero_point_shift_group(
    group: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> PrunedGroup:
    """Apply zero-point shifting to a single weight group.

    Parameters
    ----------
    group:
        1-D integer weight group in the signed ``bits`` range.
    num_columns:
        Total number of bit columns to prune (redundant + zeroed).
    bits:
        Weight word width.
    constant_bits:
        Width of the signed zero-point constant (6 in the BBS encoding).

    Returns
    -------
    PrunedGroup
        ``values`` holds the actual weights after compression
        (``shifted_pruned - constant``).
    """
    group = np.asarray(group)
    if group.ndim != 1:
        raise ValueError(f"expected a 1-D group, got shape {group.shape}")
    values, redundant, sparse, constant = zero_point_shift_groups(
        group[None, :], num_columns, bits=bits, constant_bits=constant_bits
    )
    return PrunedGroup(
        values=values[0],
        num_redundant=int(redundant[0]),
        num_sparse=int(sparse[0]),
        constant=int(constant[0]),
        strategy=PruningStrategy.ZERO_POINT_SHIFT,
        bits=bits,
    )


def _validate_groups(groups: np.ndarray, num_columns: int) -> np.ndarray:
    groups = np.asarray(groups).astype(np.int64)
    if groups.ndim != 2:
        raise ValueError(f"expected (num_groups, group_size), got {groups.shape}")
    if num_columns < 0 or num_columns > MAX_PRUNED_COLUMNS:
        raise ValueError(
            f"num_columns must be in [0, {MAX_PRUNED_COLUMNS}], got {num_columns}"
        )
    return groups


def zero_point_shift_groups(
    groups: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized zero-point shifting over many groups (Algorithm 1).

    Returns
    -------
    tuple
        ``(actual_values, num_redundant, num_sparse, constants)``.
        ``actual_values`` are the decoded weights (shift already removed).
    """
    groups = _validate_groups(groups, num_columns)
    num_groups, group_size = groups.shape
    if num_columns == 0 or num_groups == 0 or group_size == 0:
        zeros = np.zeros(num_groups, dtype=np.int64)
        sparse = (
            zeros.copy()
            if num_columns == 0
            else np.full(num_groups, num_columns, dtype=np.int64)
        )
        return groups.copy(), zeros, sparse, zeros.copy()

    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    # The int32 fast path is sized for word-range inputs and the 6-bit BBS
    # constant field; anything exotic takes the slow-but-general oracle.  For
    # in-range inputs every base rounding error is bounded by the block size
    # plus the constant magnitude, and the per-group squared-error dot must
    # fit the int32 accumulator of _score_rows.
    error_bound = (1 << MAX_PRUNED_COLUMNS) + (1 << (constant_bits - 1))
    if (
        bits > 24
        or constant_bits > 8
        or group_size * error_bound * error_bound >= 2**31
        or int(groups.min()) < lo
        or int(groups.max()) > hi
    ):
        return zero_point_shift_groups_reference(
            groups, num_columns, bits=bits, constant_bits=constant_bits
        )

    candidates = _constant_candidates(constant_bits)
    work = np.int32
    groups_w = groups.astype(work)
    gmax = groups_w.max(axis=1)
    gmin = groups_w.min(axis=1)

    best_constant = np.empty(num_groups, dtype=np.int64)
    for g0 in range(0, num_groups, _GROUP_BLOCK):
        g1 = min(g0 + _GROUP_BLOCK, num_groups)
        best_constant[g0:g1] = _search_block(
            groups_w[g0:g1], gmax[g0:g1], gmin[g0:g1], candidates, num_columns, bits, lo, hi
        )

    # Reconstruct the winning candidate's full result in one 2-D pass, so the
    # search tracks nothing but the winning constant per group.
    cw = best_constant.astype(work)
    unclipped = groups_w + cw[:, None]
    clipped = np.clip(unclipped, lo, hi)
    redundant, sparse = _redundant_sparse(
        np.clip(gmax + cw, lo, hi), np.clip(gmin + cw, lo, hi), bits, num_columns
    )
    values = (
        _prune_rows(unclipped, clipped, sparse, redundant, cw, bits, lo, hi)
        - cw[:, None]
    ).astype(np.int64)
    return values, redundant.astype(np.int64), sparse.astype(np.int64), best_constant


def _redundant_sparse(
    shifted_max: np.ndarray,
    shifted_min: np.ndarray,
    bits: int,
    num_columns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group redundant/sparse column split from the group extrema.

    The two's-complement magnitude ``v if v >= 0 else -v - 1`` is maximized at
    one of the group's extreme values, so the redundant-column count of
    :func:`_redundant_columns_batch` follows from the (clipped) max and min
    alone — no per-element pass inside the candidate loop.
    """
    magnitudes = np.maximum(shifted_max, -shifted_min - 1)
    # bits - 1 - bit_length(m), clipped to [0, MAX_REDUNDANT_COLUMNS], counts
    # the j in 1..MAX_REDUNDANT_COLUMNS with bit_length(m) <= bits - 1 - j,
    # i.e. with m < 2**(bits - 1 - j).
    redundant = np.zeros(magnitudes.shape, dtype=np.int64)
    for j in range(1, min(MAX_REDUNDANT_COLUMNS, bits - 1) + 1):
        redundant += magnitudes < (1 << (bits - 1 - j))
    redundant = np.minimum(redundant, num_columns)
    return redundant, num_columns - redundant


def _rounding_choice(
    unclipped: np.ndarray,
    clipped: np.ndarray,
    sparse: np.ndarray,
    redundant: np.ndarray,
    constants: np.ndarray,
    bits: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Round every weight of every row to its nearer allowed block multiple.

    ``unclipped``/``clipped`` are ``(rows, group_size)``; ``sparse``,
    ``redundant`` and ``constants`` are per-row.  Returns ``(down, up,
    err_down, err_up, take_up)`` where the err arrays are the base absolute
    errors (what enters the SSE).

    The reference adds a ``2**(2 * bits)`` penalty to out-of-word-range sides
    and an infinity to redundant-bound violations before comparing; because
    that penalty dwarfs every base error (at most ``2**MAX_PRUNED_COLUMNS``
    plus the constant magnitude for in-range inputs), its effect on the
    comparison reduces to pure boolean logic, which is what ``take_up``
    implements: up must be allowed, and it wins on a penalty it avoids or —
    penalties equal — on a strictly smaller base error.
    """
    work = clipped.dtype.type
    k = sparse.astype(clipped.dtype, copy=False)[:, None]
    block = work(1) << k
    down = clipped & -block  # two's-complement AND == floor to a block multiple
    up = down + block
    cols = constants[:, None]
    down_penalized = down < cols + lo
    up_penalized = up > cols + hi
    up_limit = np.minimum(
        (np.int64(1) << (bits - 1 - redundant.astype(np.int64))) - 1, hi
    ).astype(clipped.dtype, copy=False)
    up_allowed = up <= up_limit[:, None]
    err_down = np.abs(down - unclipped)
    err_up = np.abs(up - unclipped)
    take_up = up_allowed & (
        (down_penalized & ~up_penalized)
        | ((down_penalized == up_penalized) & (err_up < err_down))
    )
    return down, up, err_down, err_up, take_up


def _prune_rows(
    unclipped: np.ndarray,
    clipped: np.ndarray,
    sparse: np.ndarray,
    redundant: np.ndarray,
    constants: np.ndarray,
    bits: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    down, up, _, _, take_up = _rounding_choice(
        unclipped, clipped, sparse, redundant, constants, bits, lo, hi
    )
    return np.where(take_up, up, down)


def _score_rows(
    unclipped: np.ndarray,
    clipped: np.ndarray,
    sparse: np.ndarray,
    redundant: np.ndarray,
    constants: np.ndarray,
    bits: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Exact per-row SSE of the rounding the reference would pick."""
    _, _, err_down, err_up, take_up = _rounding_choice(
        unclipped, clipped, sparse, redundant, constants, bits, lo, hi
    )
    np.copyto(err_down, err_up, where=take_up)
    # Base errors are bounded by block + |constant| (< 2**7 + 2**7), so the
    # int32 dot cannot overflow for any accepted group size.
    return np.einsum("ns,ns->n", err_down, err_down).astype(np.int64, copy=False)


def _rounding_bound(
    sub: np.ndarray, candidates: np.ndarray, sparse: np.ndarray, num_columns: int
) -> np.ndarray:
    """``(candidates, groups)`` lower bound on every pair's squared error.

    Every stored value is a multiple of the pair's block ``2**sparse``, so its
    error is at least the distance of the unclipped shifted weight to the
    nearest block multiple, which depends only on the weight's residue modulo
    the block.  Per group, a histogram of residues modulo ``2**s`` times the
    squared distances of ``residue + candidate`` gives the bound of every
    candidate at block ``2**s``; coarser histograms fold out of the finest.
    """
    num_groups, _ = sub.shape
    width = 1 << num_columns
    rows = np.arange(num_groups, dtype=np.int64)[:, None] * width
    # Counts and sums of squared distances stay far below 2**53, so float64
    # (for a BLAS product) holds them exactly.
    hist = np.bincount(
        ((sub & (width - 1)) + rows).ravel(), minlength=num_groups * width
    ).reshape(num_groups, width).astype(np.float64)
    bound = np.zeros(sparse.shape, dtype=np.int64)
    for s in range(num_columns, 0, -1):
        if s < num_columns:
            hist = hist[:, : 1 << s] + hist[:, 1 << s :]
        mask = sparse == s
        if not mask.any():
            continue
        modulus = 1 << s
        residues = (candidates[:, None] + np.arange(modulus)) & (modulus - 1)
        distance = np.minimum(residues, modulus - residues).astype(np.float64)
        np.copyto(bound, (distance * distance) @ hist.T, where=mask, casting="unsafe")
    return bound


def _search_block(
    sub: np.ndarray,
    sub_max: np.ndarray,
    sub_min: np.ndarray,
    candidates: np.ndarray,
    num_columns: int,
    bits: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Winning constant of every group of one block (first minimum SSE)."""
    work = sub.dtype.type
    cs = candidates.astype(sub.dtype)[:, None]
    shifted_max = sub_max + cs
    shifted_min = sub_min + cs
    redundant, sparse = _redundant_sparse(
        np.clip(shifted_max, lo, hi), np.clip(shifted_min, lo, hi), bits, num_columns
    )
    bound = _rounding_bound(sub, candidates, sparse, num_columns)

    # A pair is exact when its extrema show that every weight takes the
    # block multiple nearest to it, so its SSE is exactly the bound:
    # * no weight clips;
    # * rounding down never leaves the decodable range, or only the weights
    #   of the lowest block could, and those all lie at or past the block's
    #   midpoint and may round up;
    # * rounding up never passes the decodable range or the redundant-column
    #   limit, or only the weights of the highest block could, and those all
    #   lie at or below the block's midpoint (a tie rounds down).
    block = work(1) << sparse.astype(sub.dtype)
    low_bits = block - work(1)
    limit = np.minimum(
        np.minimum((np.int64(1) << (bits - 1 - redundant)) - 1, hi).astype(sub.dtype),
        cs + work(hi),
    )
    floor_min = shifted_min & -block
    floor_max = shifted_max & -block
    exact = (shifted_min >= lo) & (shifted_max <= hi)
    exact &= (floor_min >= cs + work(lo)) | (
        (2 * (shifted_min & low_bits) >= block) & (floor_min + block <= limit)
    )
    exact &= (floor_max + block <= limit) | (2 * (shifted_max & low_bits) <= block)

    sse = np.where(exact, bound, np.iinfo(np.int64).max)
    # The SSE of any pair is at least its bound, so a non-exact pair whose
    # bound exceeds the group's best exact SSE can never win (nor tie); only
    # the rest is scored element by element.
    ci, gi = np.nonzero(~exact & (bound <= sse.min(axis=0)))
    constants = cs[:, 0]
    step = max(1, _SCORE_ELEMENTS // sub.shape[1])
    for start in range(0, ci.size, step):
        c_rows, g_rows = ci[start : start + step], gi[start : start + step]
        unclipped = sub[g_rows] + constants[c_rows][:, None]
        sse[c_rows, g_rows] = _score_rows(
            unclipped,
            np.clip(unclipped, lo, hi),
            sparse[c_rows, g_rows],
            redundant[c_rows, g_rows],
            constants[c_rows],
            bits,
            lo,
            hi,
        )
    # All errors are exact integers.  The reference compares float64 MSEs,
    # but those equal SSE / group_size with every intermediate exactly
    # representable, so integer SSE order is the reference's order; the
    # first minimum over the ascending candidates is the smallest winning
    # constant, exactly the reference's strict-improvement scan.
    return candidates[np.argmin(sse, axis=0)]


def zero_point_shift_groups_reference(
    groups: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Original per-candidate Algorithm-1 search, kept as the golden oracle.

    One full ``(num_groups, group_size)`` pass per candidate constant; the
    batched :func:`zero_point_shift_groups` must stay bit-identical to this.
    """
    groups = _validate_groups(groups, num_columns)
    num_groups = groups.shape[0]
    if num_columns == 0:
        zeros = np.zeros(num_groups, dtype=np.int64)
        return groups.copy(), zeros, zeros.copy(), zeros.copy()

    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    candidates = _constant_candidates(constant_bits)  # (C,)

    best_mse = np.full(num_groups, np.inf)
    best_values = groups.copy()
    best_redundant = np.zeros(num_groups, dtype=np.int64)
    best_sparse = np.full(num_groups, num_columns, dtype=np.int64)
    best_constant = np.zeros(num_groups, dtype=np.int64)

    for constant in candidates:
        shifted_unclipped = groups + constant
        shifted = np.clip(shifted_unclipped, lo, hi)
        redundant = _redundant_columns_batch(shifted, bits)
        redundant = np.minimum(redundant, num_columns)
        sparse = num_columns - redundant
        pruned_shifted = _prune_low_columns(
            shifted, shifted_unclipped, sparse, bits, redundant, int(constant)
        )
        actual = pruned_shifted - constant
        mse = ((actual - groups) ** 2).mean(axis=1)

        improved = mse < best_mse
        if np.any(improved):
            best_mse = np.where(improved, mse, best_mse)
            best_values[improved] = actual[improved]
            best_redundant[improved] = redundant[improved]
            best_sparse[improved] = sparse[improved]
            best_constant[improved] = constant

    return best_values, best_redundant, best_sparse, best_constant


def _redundant_columns_batch(groups: np.ndarray, bits: int) -> np.ndarray:
    """Redundant-column count per group (vectorized, capped at the 2-bit field).

    A column right after the sign bit is redundant for the whole group exactly
    when every member still fits in one fewer two's-complement bit, so the
    group's redundant-column count is ``bits - 1 - bit_length(max_magnitude)``
    where the "magnitude" of a negative value ``v`` is ``-v - 1``.  This
    arithmetic form avoids materializing bit planes inside the 64-candidate
    search loop of Algorithm 1.
    """
    magnitudes = np.where(groups >= 0, groups, -groups - 1).max(axis=1)
    # bit_length(m) = floor(log2(m + 0.5)) + 1 for m >= 0 (the +0.5 keeps exact
    # powers of two on the right side of the floor and maps m == 0 to 0).
    bit_length = np.floor(np.log2(magnitudes.astype(np.float64) + 0.5)).astype(np.int64) + 1
    redundant = bits - (bit_length + 1)
    redundant = np.clip(redundant, 0, MAX_REDUNDANT_COLUMNS)
    return redundant.astype(np.int64)


def _prune_low_columns(
    shifted_clipped: np.ndarray,
    shifted_unclipped: np.ndarray,
    sparse: np.ndarray,
    bits: int,
    redundant: np.ndarray,
    constant: int,
) -> np.ndarray:
    """Zero the ``sparse`` low columns of every group, rounding each weight
    down or up to whichever multiple of ``2**sparse`` is closer to its
    (unclipped) shifted value, without violating the redundant-column bound
    and keeping the decoded weight (``pruned - constant``) in the word range.

    ``sparse`` and ``redundant`` are per-group; groups are processed in
    batches keyed by their sparse-column count.
    """
    result = shifted_clipped.copy()
    word_lo, word_hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    for k in np.unique(sparse):
        k = int(k)
        if k == 0:
            continue
        mask = sparse == k
        block = 1 << k
        subset = shifted_clipped[mask]
        target = shifted_unclipped[mask]
        down = (subset // block) * block
        up = down + block
        # The redundant columns recorded in metadata promise that the stored
        # value fits in (bits - redundant) bits; rounding up must not break
        # that promise, nor exceed the word range.
        reduced_hi = (1 << (bits - 1 - redundant[mask])) - 1
        up_limit = np.minimum(reduced_hi, word_hi)[:, None]
        err_down = np.abs(down - target).astype(np.float64)
        err_up = np.abs(up - target).astype(np.float64)
        # Keep the decoded weight (pruned - constant) within the word range:
        # out-of-range candidates only win if the alternative is structurally
        # forbidden (which never happens simultaneously; see the tests).
        out_of_range_penalty = float(1 << (2 * bits))
        err_down += np.where(down - constant < word_lo, out_of_range_penalty, 0.0)
        err_up += np.where(up - constant > word_hi, out_of_range_penalty, 0.0)
        err_up = np.where(up <= up_limit, err_up, np.inf)
        result[mask] = np.where(err_up < err_down, up, down)
    return result
