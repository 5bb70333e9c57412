"""Golden-equivalence tests for the harness's performance layers.

The batched zero-point search, the artifact memo, the plane-free bit
counting of the bit-flip pass and the bit-serial simulators, and the
channel-batched MSE-optimal clipping search are pure optimizations: they must
return *bit-identical* results to the original implementations.  These tests
pin that property across random shapes, pruning budgets, word widths, and
degenerate inputs, using kept reference implementations
(:func:`repro.core.zero_point_shift.zero_point_shift_groups_reference`,
:func:`repro.quant.bitflip._bitflip_batch_reference`,
:func:`repro.quant.ptq._optimal_clip_scale_reference`) or inline bit-plane
computations as the oracles.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PruningStrategy,
    clear_memo,
    get_memo,
    memo_disabled,
    memo_stats,
    prune_tensor,
)
from repro.core import zero_point_shift as zps_module
from repro.core.zero_point_shift import (
    zero_point_shift_groups,
    zero_point_shift_groups_reference,
)
from repro.accelerators import (
    BitletAccelerator,
    BitVertAccelerator,
    BitWaveAccelerator,
    PragmaticAccelerator,
)
from repro.core.bitplane import to_bitplanes, to_sign_magnitude_planes
from repro.core.encoding import group_storage_bits
from repro.nn.model_zoo import LinearSpec, get_model
from repro.nn.synthetic import LayerWeights, synthesize_model
from repro.quant import bitflip as bitflip_module
from repro.quant.bitflip import (
    _bitflip_batch,
    _bitflip_batch_reference,
    bitflip_tensor,
)
from repro.quant.ptq import (
    QuantizedTensor,
    _optimal_clip_scale_reference,
    optimal_clip_scale,
    quantize_per_channel,
    requantize_to_lower_bits,
)


def assert_search_matches(groups: np.ndarray, num_columns: int, bits: int = 8) -> None:
    reference = zero_point_shift_groups_reference(groups, num_columns, bits=bits)
    fast = zero_point_shift_groups(groups, num_columns, bits=bits)
    for name, ref, new in zip(
        ("values", "num_redundant", "num_sparse", "constants"), reference, fast,
        strict=True,
    ):
        assert new.dtype == ref.dtype, name
        assert np.array_equal(new, ref), f"{name} diverged from the reference"


@st.composite
def int8_group_matrices(draw) -> np.ndarray:
    num_groups = draw(st.integers(1, 12))
    group_size = draw(st.integers(1, 24))
    flat = draw(
        st.lists(
            st.integers(-128, 127),
            min_size=num_groups * group_size,
            max_size=num_groups * group_size,
        )
    )
    return np.array(flat, dtype=np.int64).reshape(num_groups, group_size)


class TestZeroPointShiftEquivalence:
    @given(int8_group_matrices(), st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_property_bit_identical_int8(self, groups, num_columns):
        assert_search_matches(groups, num_columns)

    @given(
        st.integers(5, 12),
        st.integers(0, 6),
        st.integers(1, 24),
        st.integers(1, 48),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bit_identical_word_widths(
        self, bits, num_columns, num_groups, group_size, seed
    ):
        hi = (1 << (bits - 1)) - 1
        rng = np.random.default_rng(seed)
        groups = rng.integers(-hi - 1, hi + 1, size=(num_groups, group_size))
        assert_search_matches(groups, num_columns, bits=bits)

    @pytest.mark.parametrize("sigma", [2.0, 24.0, 60.0])
    @pytest.mark.parametrize("num_columns", [1, 2, 4, 6])
    def test_gaussian_layers_bit_identical(self, sigma, num_columns):
        rng = np.random.default_rng(7)
        groups = np.clip(
            np.round(rng.normal(0, sigma, (512, 32))), -128, 127
        ).astype(np.int64)
        assert_search_matches(groups, num_columns)

    def test_saturated_and_constant_groups(self):
        groups = np.array(
            [
                [127] * 8,
                [-128] * 8,
                [-128, 127] * 4,
                [0] * 8,
                [-1] * 8,
                [64] * 8,
                [-1, -1, -1, -1, -1, -1, 59, -59],
            ],
            dtype=np.int64,
        )
        for num_columns in range(7):
            assert_search_matches(groups, num_columns)

    def test_out_of_word_range_inputs_fall_back_to_reference(self):
        # Garbage inputs (values beyond the declared word width) take the
        # reference path outright, so equivalence is preserved there too.
        groups = np.array([[300, -400, 5, 7]], dtype=np.int64)
        assert_search_matches(groups, 4)

    def test_empty_inputs(self):
        assert_search_matches(np.empty((0, 8), dtype=np.int64), 4)

    def test_big_layer_bit_identical_across_group_blocks(self):
        # Exceeds one group block so the chunked block loop is exercised.
        rng = np.random.default_rng(3)
        groups = np.clip(
            np.round(rng.normal(0, 24, (9000, 32))), -128, 127
        ).astype(np.int64)
        assert_search_matches(groups, 4)


#: One group per non-exact branch of the zero-point search: for some
#: candidate constants the group's extrema show that a weight clips, that a
#: rounded-down value could leave the decodable range, that a rounded-up value
#: could exceed it, or that it could pass the redundant-column limit, and
#: such a pair's bound is low enough that it must be scored element by
#: element.  (Found by enumerating random groups against the exactness rule.)
NON_EXACT_BRANCHES = {
    "clipping": (6, [35, 2, -59, -50, -118, -109, -124, -84]),
    "down_penalty": (6, [-127, 34, -75, 45, 35, 64, -50, 57]),
    "up_penalty": (4, [101, 113, 96, 125, -104, 124, 66, 114]),
    "up_limit": (5, [-14, 40, -26, -37, 40, 52, -59, -62]),
}


class TestZeroPointShiftBranches:
    """The exact/scored split of the search, branch by branch, vs the oracle."""

    @staticmethod
    def scored_rows(groups: np.ndarray, num_columns: int) -> int:
        with mock.patch.object(
            zps_module, "_score_rows", wraps=zps_module._score_rows
        ) as score:
            assert_search_matches(groups, num_columns)
        return sum(call.args[0].shape[0] for call in score.call_args_list)

    @pytest.mark.parametrize("branch", sorted(NON_EXACT_BRANCHES))
    def test_non_exact_branch_is_scored_and_matches(self, branch):
        num_columns, group = NON_EXACT_BRANCHES[branch]
        assert self.scored_rows(np.array([group], dtype=np.int64), num_columns) > 0

    def test_exact_only_groups_need_no_scoring(self):
        groups = np.array([[3, -2, 1, 0, 2, -1, 1, 0]], dtype=np.int64)
        assert self.scored_rows(groups, 1) == 0

    def test_branches_mixed_in_one_layer_across_passes_and_blocks(self):
        rng = np.random.default_rng(11)
        rows = [group for _, group in NON_EXACT_BRANCHES.values()]
        noise = np.clip(np.round(rng.normal(0, 30, (40, 8))), -128, 127).astype(np.int64)
        groups = np.concatenate([np.array(rows * 5, dtype=np.int64), noise])
        groups = groups[rng.permutation(len(groups))]
        with mock.patch.object(zps_module, "_GROUP_BLOCK", 7), mock.patch.object(
            zps_module, "_SCORE_ELEMENTS", 24
        ):
            for num_columns in range(7):
                assert_search_matches(groups, num_columns)

    @given(
        st.integers(0, 6),
        st.integers(1, 32),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_edge_magnitudes(self, num_columns, group_size, num_groups, seed):
        # Weights drawn from the word edges and zero, where clipping and the
        # range penalties concentrate.
        rng = np.random.default_rng(seed)
        palette = np.array([-128, -127, -126, -120, -1, 0, 1, 120, 125, 126, 127])
        groups = rng.choice(palette, size=(num_groups, group_size))
        assert_search_matches(groups, num_columns)


class TestMemoizedCompressionEquivalence:
    @given(
        st.integers(1, 6),
        st.sampled_from([PruningStrategy.ROUNDED_AVERAGE, PruningStrategy.ZERO_POINT_SHIFT]),
        st.integers(4, 48),
        st.integers(8, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_memoized_prune_tensor_bit_identical(
        self, num_columns, strategy, channels, reduction, seed
    ):
        rng = np.random.default_rng(seed)
        weights = np.clip(
            np.round(rng.normal(0, 24, (channels, reduction))), -128, 127
        ).astype(np.int64)
        sensitive = rng.random(channels) < 0.2

        with memo_disabled():
            cold = prune_tensor(
                weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
            )
        clear_memo()
        first = prune_tensor(
            weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
        )
        hit = prune_tensor(
            weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
        )
        for result in (first, hit):
            assert np.array_equal(result.values, cold.values)
            assert np.array_equal(result.num_redundant, cold.num_redundant)
            assert np.array_equal(result.num_sparse, cold.num_sparse)
            assert np.array_equal(result.constants, cold.constants)
            assert np.array_equal(result.pruned_channel_mask, cold.pruned_channel_mask)
            assert np.array_equal(result.original, weights)
        assert result.storage_bits() == cold.storage_bits()

    def test_hit_returns_private_arrays(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        first = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        hit = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert hit.values is not first.values
        hit.values[:] = 0  # mutating a hit must not poison the memo
        again = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert np.array_equal(again.values, first.values)

    def test_keep_original_outside_the_key(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        with_original = prune_tensor(weights, 2, PruningStrategy.ROUNDED_AVERAGE)
        without = prune_tensor(
            weights, 2, PruningStrategy.ROUNDED_AVERAGE, keep_original=False
        )
        assert memo_stats()["tensors"]["hits"] >= 1
        assert without.original is None
        assert np.array_equal(with_original.original, weights)
        assert np.array_equal(with_original.values, without.values)

    def test_distinct_configurations_do_not_collide(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        a = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        b = prune_tensor(weights, 2, PruningStrategy.ZERO_POINT_SHIFT)
        c = prune_tensor(weights, 4, PruningStrategy.ROUNDED_AVERAGE)
        d = prune_tensor(weights * 0 + 1, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert memo_stats()["tensors"]["hits"] == 0
        assert memo_stats()["tensors"]["misses"] == 4
        assert not np.array_equal(a.values, b.values) or not np.array_equal(
            b.values, c.values
        )
        del d


class TestCrossExperimentMemoization:
    def test_shared_model_compressed_exactly_once(self):
        """Two experiment passes over the same model synthesize and compress
        each distinct layer exactly once (the PR's acceptance criterion)."""
        from repro.core.global_pruning import MODERATE_PRESET, global_binary_prune

        clear_memo()
        model = get_model("ResNet-34")

        def one_experiment_pass():
            weights = synthesize_model(model, seed=0, max_channels=48, max_reduction=192)
            layer_ints = {name: lw.int_weights for name, lw in weights.items()}
            scores = {name: lw.channel_scores for name, lw in weights.items()}
            return global_binary_prune(layer_ints, scores, preset=MODERATE_PRESET)

        first = one_experiment_pass()
        after_first = memo_stats()
        second = one_experiment_pass()
        after_second = memo_stats()

        num_layers = len(first.pruned_layers)
        # Pass 1: every layer is a miss.  Pass 2: every layer is a hit, and
        # not a single new compression or synthesis happens.
        assert after_first["tensors"]["misses"] == num_layers
        assert after_second["tensors"]["misses"] == num_layers
        assert after_second["tensors"]["hits"] == num_layers
        assert after_second["models"]["hits"] == 1
        for name in first.pruned_layers:
            assert np.array_equal(
                first.pruned_layers[name].values, second.pruned_layers[name].values
            )

    def test_memo_disabled_recomputes(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        with memo_disabled():
            prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
            prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        stats = memo_stats()["tensors"]
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["stores"] == 0
        assert get_memo().enabled  # the context manager restored the flag


# --------------------------------------------------------------------------- #
# Plane-free bit counting: BitWave bit-flip and the bit-serial simulators
# --------------------------------------------------------------------------- #


def assert_bitflip_matches(groups: np.ndarray, num_columns: int, bits: int) -> None:
    reference = _bitflip_batch_reference(groups, num_columns, bits)
    fast = _bitflip_batch(groups, num_columns, bits)
    for name, ref, new in zip(("values", "inherent", "forced"), reference, fast, strict=True):
        assert new.dtype == ref.dtype, name
        assert np.array_equal(new, ref), f"{name} diverged from the reference"


@st.composite
def bitflip_cases(draw) -> tuple[np.ndarray, int, int]:
    bits = draw(st.integers(3, 8))
    num_columns = draw(st.integers(0, bits - 1))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    num_groups = draw(st.integers(1, 10))
    group_size = draw(st.integers(1, 20))
    # Narrow magnitudes as well as full-range ones, so groups with many
    # inherent zero columns are common.
    limit = draw(st.integers(0, hi))
    flat = draw(
        st.lists(
            st.integers(-limit, limit) | st.just(lo),
            min_size=num_groups * group_size,
            max_size=num_groups * group_size,
        )
    )
    groups = np.array(flat, dtype=np.int64).reshape(num_groups, group_size)
    return groups, num_columns, bits


class TestBitflipBatchEquivalence:
    @given(bitflip_cases())
    @settings(max_examples=200, deadline=None)
    def test_property_bit_identical(self, case):
        assert_bitflip_matches(*case)

    @pytest.mark.parametrize("bits", range(3, 9))
    def test_every_code_point_every_budget(self, bits):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        singles = np.arange(lo, hi + 1, dtype=np.int64)[:, None]
        pairs = np.stack([singles[:, 0], singles[::-1, 0]], axis=1)
        for num_columns in range(bits):
            assert_bitflip_matches(singles, num_columns, bits)
            assert_bitflip_matches(pairs, num_columns, bits)

    def test_empty_and_all_zero_groups(self):
        assert_bitflip_matches(np.empty((0, 8), dtype=np.int64), 3, 8)
        assert_bitflip_matches(np.zeros((3, 8), dtype=np.int64), 7, 8)

    def test_out_of_range_inputs_raise_like_the_reference(self):
        for groups in ([[200, 1]], [[-129, 1]]):
            groups = np.array(groups, dtype=np.int64)
            with pytest.raises(ValueError):
                _bitflip_batch_reference(groups, 3, 8)
            with pytest.raises(ValueError):
                _bitflip_batch(groups, 3, 8)

    @pytest.mark.parametrize("num_columns", [1, 3, 5])
    def test_bitflip_tensor_bit_identical(self, num_columns):
        rng = np.random.default_rng(num_columns)
        weights = np.clip(np.round(rng.normal(0, 24, (24, 100))), -128, 127).astype(np.int64)
        weights[3, 7] = -128
        sensitive = rng.random(24) < 0.25
        fast = bitflip_tensor(weights, num_columns, sensitive_channels=sensitive)
        with mock.patch.object(bitflip_module, "_bitflip_batch", _bitflip_batch_reference):
            reference = bitflip_tensor(weights, num_columns, sensitive_channels=sensitive)
        assert np.array_equal(fast.values, reference.values)
        assert np.array_equal(fast.inherent_zero_columns, reference.inherent_zero_columns)
        assert np.array_equal(fast.forced_zero_columns, reference.forced_zero_columns)


def storage_bits_loop(result) -> int:
    """The per-channel, per-group loop that ``storage_bits`` replaced."""
    total = 0
    channels, num_groups = result.inherent_zero_columns.shape
    for channel in range(channels):
        for _group in range(num_groups):
            if result.pruned_channel_mask[channel]:
                total += group_storage_bits(result.group_size, result.num_columns, result.bits)
            else:
                total += result.group_size * result.bits
    return total


class TestBitflipStorageBits:
    @pytest.mark.parametrize("num_columns", [0, 3, 7])
    @pytest.mark.parametrize("group_size", [16, 32])
    def test_closed_form_matches_loop_on_mixed_mask(self, num_columns, group_size):
        rng = np.random.default_rng(5)
        weights = np.clip(np.round(rng.normal(0, 24, (20, 90))), -128, 127).astype(np.int64)
        sensitive = np.zeros(20, dtype=bool)
        sensitive[[0, 4, 5, 13]] = True
        result = bitflip_tensor(
            weights, num_columns, group_size=group_size, sensitive_channels=sensitive
        )
        bits = result.storage_bits()
        assert type(bits) is int
        assert bits == storage_bits_loop(result)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_closed_form_matches_loop_on_uniform_masks(self, fraction):
        weights = np.arange(-60, 60, dtype=np.int64).reshape(4, 30)
        sensitive = np.full(4, fraction == 1.0)
        result = bitflip_tensor(weights, 3, group_size=8, sensitive_channels=sensitive)
        assert result.storage_bits() == storage_bits_loop(result)


def make_layer(int_weights: np.ndarray, seed: int) -> LayerWeights:
    channels, reduction = int_weights.shape
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.01, 0.1, channels)
    return LayerWeights(
        spec=LinearSpec(f"layer{seed}", in_features=reduction, out_features=channels),
        quantized=QuantizedTensor(
            values=int_weights, scales=scales, bits=8, per_channel=True
        ),
        float_weights=int_weights * scales[:, None],
        sample_fraction=1.0,
    )


@st.composite
def simulator_layers(draw) -> LayerWeights:
    """Small INT8 layers; reductions cover whole PE groups (16), a ragged
    tail, and a reduction narrower than one group (the padding branch)."""
    channels = draw(st.integers(1, 12))
    reduction = draw(st.sampled_from([5, 9, 15, 16, 37, 64, 70, 100]))
    sigma = draw(st.sampled_from([1.0, 8.0, 30.0, 90.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = np.clip(np.round(rng.normal(0, sigma, (channels, reduction))), -128, 127)
    weights = weights.astype(np.int64)
    weights.flat[rng.integers(0, weights.size, 2)] = [-128, 127]
    return make_layer(weights, seed % 1000)


def assert_stats_equal(fast, actual, minimal, partition=None) -> None:
    assert np.array_equal(fast.actual, actual)
    assert np.array_equal(fast.minimal, minimal)
    if partition is None:
        assert fast.partition is None
    else:
        assert np.array_equal(fast.partition, partition)


def pragmatic_oracle(accel: PragmaticAccelerator, layer: LayerWeights):
    groups = accel.layer_groups(layer)
    lanes = accel.array.lanes_per_pe
    weights_per_lane = max(1, accel.array.pe_group_size // lanes)
    ones_per_weight = to_bitplanes(groups, 8).sum(axis=2)
    lane_view = ones_per_weight[:, : lanes * weights_per_lane].reshape(
        groups.shape[0], lanes, weights_per_lane
    )
    actual = np.maximum(lane_view.sum(axis=2).max(axis=1).astype(np.float64), 1.0)
    minimal = np.ceil(ones_per_weight.sum(axis=1) / lanes).astype(np.float64)
    return actual, np.minimum(np.maximum(minimal, 1.0), actual)


def bitlet_oracle(accel: BitletAccelerator, layer: LayerWeights):
    ones = to_bitplanes(accel.layer_groups(layer), 8).sum(axis=1)  # (G, bits)
    actual = np.maximum(ones.max(axis=1).astype(np.float64), 1.0)
    minimal = np.ceil(ones.sum(axis=1) / accel.array.lanes_per_pe).astype(np.float64)
    return actual, np.minimum(np.maximum(minimal, 1.0), actual)


def bitwave_oracle(accel: BitWaveAccelerator, layer: LayerWeights):
    with mock.patch.object(bitflip_module, "_bitflip_batch", _bitflip_batch_reference):
        pruned = accel._pruned_weights(layer)
    group = accel.array.pe_group_size
    channels, reduction = pruned.shape
    padded = np.zeros((channels, max(reduction, group)), dtype=pruned.dtype)
    padded[:, :reduction] = pruned
    usable = max(reduction - reduction % group, group)
    groups = padded[:, :usable].reshape(-1, group)
    planes = to_sign_magnitude_planes(np.where(groups == -128, -127, groups), 8)
    kept = np.maximum(planes.any(axis=1).sum(axis=1), 1)
    actual = kept.astype(np.float64) * (group / accel.array.lanes_per_pe)
    minimal = np.ceil(planes.sum(axis=(1, 2)) / accel.array.lanes_per_pe)
    return actual, np.minimum(np.maximum(minimal, 1.0), actual)


def bitvert_minimal_oracle(accel: BitVertAccelerator, values: np.ndarray) -> np.ndarray:
    group = accel.array.pe_group_size
    channels, reduction = values.shape
    padded = np.zeros((channels, max(reduction, group)), dtype=np.int64)
    padded[:, :reduction] = np.clip(values, -128, 127)
    usable = max(reduction - reduction % group, group)
    planes = to_bitplanes(padded[:, :usable].reshape(-1, group), 8)
    per_sub = planes.reshape(planes.shape[0], -1, accel.sub_group, 8)
    ones = per_sub.sum(axis=2)
    effectual = np.minimum(ones, accel.sub_group - ones).sum(axis=(1, 2))
    return np.maximum(np.ceil(effectual / accel.array.lanes_per_pe), 1.0)


class TestSimulatorBitCountingEquivalence:
    @given(simulator_layers())
    @settings(max_examples=40, deadline=None)
    def test_pragmatic_matches_planes(self, layer):
        accel = PragmaticAccelerator()
        assert_stats_equal(accel.group_cycle_stats(layer), *pragmatic_oracle(accel, layer))

    @given(simulator_layers())
    @settings(max_examples=40, deadline=None)
    def test_bitlet_matches_planes(self, layer):
        accel = BitletAccelerator()
        assert_stats_equal(accel.group_cycle_stats(layer), *bitlet_oracle(accel, layer))

    @given(simulator_layers(), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_bitwave_matches_planes(self, layer, pruned_columns):
        accel = BitWaveAccelerator(pruned_columns=pruned_columns)
        actual, minimal = bitwave_oracle(accel, layer)
        stats = accel.group_cycle_stats(layer)
        partition = accel._group_partition(layer)
        assert_stats_equal(
            stats, actual, minimal, partition if partition.size == actual.size else None
        )

    @given(simulator_layers(), st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_bitvert_matches_planes(self, layer, sub_group):
        accel = BitVertAccelerator(sub_group=sub_group)
        stats = accel.group_cycle_stats(layer)
        values = accel._layer_compression(layer).values
        oracle = bitvert_minimal_oracle(accel, values)
        assert np.array_equal(accel._minimal_cycles(values, accel.array.lanes_per_pe), oracle)
        expected = np.minimum(accel._match_group_counts(stats.actual, oracle), stats.actual)
        assert np.array_equal(stats.minimal, expected)

    @pytest.mark.parametrize("reduction", [7, 48, 53])
    def test_full_int8_range_every_simulator(self, reduction):
        # Every code point appears, so every bit of every significance is hit.
        codes = np.resize(np.arange(-128, 128, dtype=np.int64), 12 * reduction)
        layer = make_layer(codes.reshape(12, reduction), reduction)
        pragmatic, bitlet = PragmaticAccelerator(), BitletAccelerator()
        assert_stats_equal(pragmatic.group_cycle_stats(layer), *pragmatic_oracle(pragmatic, layer))
        assert_stats_equal(bitlet.group_cycle_stats(layer), *bitlet_oracle(bitlet, layer))
        bitwave = BitWaveAccelerator(pruned_columns=0, sensitive_fraction=0.0)
        stats = bitwave.group_cycle_stats(layer)
        actual, minimal = bitwave_oracle(bitwave, layer)
        assert np.array_equal(stats.actual, actual)
        assert np.array_equal(stats.minimal, minimal)
        for sub_group in (4, 8, 16):
            bitvert = BitVertAccelerator(sub_group=sub_group)
            assert np.array_equal(
                bitvert._minimal_cycles(layer.int_weights, 8),
                bitvert_minimal_oracle(bitvert, layer.int_weights),
            )


# --------------------------------------------------------------------------- #
# Channel-batched MSE-optimal clipping (the Figure 11/16 PTQ baseline)
# --------------------------------------------------------------------------- #

ROW_KINDS = ("integer", "gaussian", "outlier", "zero", "constant")


def make_row(kind: str, cols: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "integer":
        return np.round(rng.normal(0, rng.uniform(1, 60), cols))
    if kind == "gaussian":
        return rng.normal(0, rng.uniform(1e-3, 10), cols)
    if kind == "outlier":
        row = rng.normal(0, 1, cols)
        if cols:
            row[rng.integers(cols)] = rng.choice([-1, 1]) * rng.uniform(20, 200)
        return row
    if kind == "zero":
        return np.zeros(cols)
    # Every candidate clips a constant row the same way, so the search ties.
    return np.full(cols, rng.uniform(-5, 5))


@st.composite
def clip_matrices(draw) -> tuple[np.ndarray, int]:
    bits = draw(st.integers(2, 8))
    rows = draw(st.integers(0, 40))
    cols = draw(st.integers(0, 300))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.array([make_row(kind, cols, rng) for kind in kinds]).reshape(rows, cols)
    return matrix, bits


def reference_scales(matrix: np.ndarray, bits: int) -> np.ndarray:
    return np.array(
        [_optimal_clip_scale_reference(row, bits) for row in matrix], dtype=np.float64
    )


def requantize_oracle(quantized, target_bits, sensitive, calibrate) -> np.ndarray:
    """The original per-row re-quantization loop."""
    values = quantized.values.astype(np.float64)
    qmin, qmax = -(1 << (target_bits - 1)), (1 << (target_bits - 1)) - 1
    lo, hi = -(1 << (quantized.bits - 1)), (1 << (quantized.bits - 1)) - 1
    new_values = quantized.values.copy()
    for channel, row in enumerate(values):
        if sensitive is not None and sensitive[channel]:
            continue
        if calibrate:
            step = _optimal_clip_scale_reference(row, target_bits)
        else:
            max_abs = float(np.max(np.abs(row))) if row.size else 0.0
            step = max_abs / qmax if max_abs > 0 else 1.0
        codes = np.clip(np.round(row / step), qmin, qmax)
        new_values[channel] = np.clip(np.round(codes * step), lo, hi).astype(np.int64)
    return new_values


class TestOptimalClipScaleEquivalence:
    @given(clip_matrices())
    @settings(max_examples=120, deadline=None)
    def test_property_rows_bit_identical(self, case):
        matrix, bits = case
        fast = optimal_clip_scale(matrix, bits)
        assert isinstance(fast, np.ndarray)
        assert fast.dtype == np.float64 and fast.shape == (matrix.shape[0],)
        assert fast.tobytes() == reference_scales(matrix, bits).tobytes()

    @given(clip_matrices())
    @settings(max_examples=40, deadline=None)
    def test_one_dimensional_input_returns_the_reference_float(self, case):
        matrix, bits = case
        for row in matrix[:3]:
            fast = optimal_clip_scale(row, bits)
            assert type(fast) is float
            assert fast == _optimal_clip_scale_reference(row, bits)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_degenerate_shapes(self, bits):
        assert optimal_clip_scale(np.zeros((0, 16)), bits).shape == (0,)
        assert np.array_equal(optimal_clip_scale(np.zeros((3, 0)), bits), np.ones(3))
        assert np.array_equal(optimal_clip_scale(np.zeros((2, 5)), bits), np.ones(2))
        assert optimal_clip_scale(np.zeros(0), bits) == 1.0
        assert optimal_clip_scale(np.zeros(7), bits) == 1.0

    def test_layer_sized_matrix_bit_identical(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_t(3, (96, 768))
        matrix[5] = 0.0
        matrix[9, 100] = 80.0
        for bits in (4, 6):
            assert (
                optimal_clip_scale(matrix, bits).tobytes()
                == reference_scales(matrix, bits).tobytes()
            )

    @given(clip_matrices())
    @settings(max_examples=40, deadline=None)
    def test_quantize_per_channel_calibrated_matches_per_row(self, case):
        matrix, bits = case
        quantized = quantize_per_channel(matrix, bits=bits, calibrate=True)
        scales = reference_scales(matrix, bits)
        qmin, qmax = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        codes = np.clip(np.round(matrix / scales[:, None]), qmin, qmax).astype(np.int64)
        assert quantized.scales.tobytes() == scales.tobytes()
        assert np.array_equal(quantized.values, codes)

    @pytest.mark.parametrize("calibrate", [True, False])
    @pytest.mark.parametrize("mask", ["none", "mixed", "all"])
    @pytest.mark.parametrize("target_bits", [2, 4, 5, 7])
    def test_requantize_matches_per_row_loop(self, calibrate, mask, target_bits):
        rng = np.random.default_rng(target_bits)
        codes = np.clip(np.round(rng.normal(0, 30, (24, 96))), -128, 127).astype(np.int64)
        codes[2] = 0
        codes[3] = 17
        codes[4, 10] = -128
        quantized = QuantizedTensor(
            values=codes, scales=rng.uniform(0.01, 0.1, 24), bits=8, per_channel=True
        )
        sensitive = {
            "none": None,
            "mixed": rng.random(24) < 0.3,
            "all": np.ones(24, dtype=bool),
        }[mask]
        fast = requantize_to_lower_bits(
            quantized, target_bits, sensitive_channels=sensitive, calibrate=calibrate
        )
        expected = requantize_oracle(quantized, target_bits, sensitive, calibrate)
        assert fast.values.dtype == expected.dtype
        assert np.array_equal(fast.values, expected)
        assert fast.scales.tobytes() == quantized.scales.tobytes()

    def test_requantize_zero_width_rows(self):
        quantized = QuantizedTensor(
            values=np.zeros((3, 0), dtype=np.int64), scales=np.ones(3), bits=8, per_channel=True
        )
        for calibrate in (True, False):
            result = requantize_to_lower_bits(quantized, 4, calibrate=calibrate)
            assert result.values.shape == (3, 0)
