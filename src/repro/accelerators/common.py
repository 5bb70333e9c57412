"""Shared machinery of the cycle-level accelerator models.

Every accelerator in the paper's comparison (Figure 12/13) is normalized to
the same compute budget — 512 8-bit-multiplier equivalents, i.e. 4096
bit-serial multipliers — and the same 256 KB + 256 KB on-chip buffers.  The
performance of each design then depends on how its skipping scheme maps the
bit-level (or value-level) structure of the weights onto those lanes, and on
how much weight data it must move from DRAM.

The models here are *statistical cycle models*: for every layer we compute the
exact per-weight-group cycle cost of the scheme (from the synthetic INT8
weights), then account for the array-level synchronization (the slowest of the
weight groups processed in parallel gates each wave) by measuring the expected
maximum over randomly co-scheduled groups.  This reproduces the load-balance
behaviour the paper analyses in Figures 14/15 without simulating every cycle
of a multi-billion-MAC network in Python.  The substitution is recorded in
DESIGN.md.

Terminology used throughout:

* *group* — ``pe_group_size`` (16) weights along the reduction dimension that
  one PE processes bit-serially.
* *wave* — one round in which every PE column works on one group of its
  assigned output channel; the wave ends when the slowest column finishes
  (inter-PE synchronization).
* *useful / intra-PE / inter-PE cycles* — the breakdown of Figure 15: the
  minimum cycles the scheme could take with perfect balance inside a PE, the
  extra cycles lost to imbalance across the lanes of one PE, and the extra
  cycles lost waiting for slower PE columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .area_power import PEDesign
from ..memory.hierarchy import MemorySystem, MemoryTraffic
from ..nn.model_zoo import ModelSpec
from ..nn.synthetic import LayerWeights
from ..nn.workloads import GemmWorkload, layer_workload

__all__ = [
    "ArrayConfig",
    "GroupCycleStats",
    "LayerProfile",
    "LayerPerformance",
    "ModelPerformance",
    "Accelerator",
    "BitSerialAccelerator",
    "expected_wave_cycles",
    "expected_wave_cycles_sweep",
]


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the PE array, shared by every accelerator in a comparison.

    The default geometry is BitVert's 16 x 32 array of 8-lane PEs (Figure 10);
    scaling every design to the same lane count is exactly the normalization
    the paper applies ("all accelerators are scaled to contain the same number
    of multipliers, where an 8-bit multiplier is equivalent to eight bit-serial
    multipliers").
    """

    pe_rows: int = 16
    pe_columns: int = 32
    lanes_per_pe: int = 8
    pe_group_size: int = 16
    clock_ghz: float = 0.8

    @property
    def total_lanes(self) -> int:
        return self.pe_rows * self.pe_columns * self.lanes_per_pe

    @property
    def eight_bit_multiplier_equivalents(self) -> int:
        return self.total_lanes // 8

    def with_columns(self, pe_columns: int) -> "ArrayConfig":
        return ArrayConfig(
            pe_rows=self.pe_rows,
            pe_columns=pe_columns,
            lanes_per_pe=self.lanes_per_pe,
            pe_group_size=self.pe_group_size,
            clock_ghz=self.clock_ghz,
        )


@dataclass
class GroupCycleStats:
    """Per-group cycle costs of one layer under one accelerator's scheme.

    ``actual`` is the number of cycles each weight group occupies its PE,
    including intra-PE imbalance; ``minimal`` is the lower bound the scheme
    could reach with perfectly balanced lanes (used for the Figure 15
    breakdown).  Both are 1-D arrays with one entry per sampled weight group.

    ``partition`` optionally labels each group with a scheduling class:
    groups of different classes are never co-scheduled in the same wave.  The
    BitVert channel-reordering mechanism creates exactly this situation
    (8-bit sensitive chunks vs pruned chunks), and modelling it removes the
    artificial inter-PE stall that mixing the two classes would imply.
    """

    actual: np.ndarray
    minimal: np.ndarray
    partition: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.actual = np.asarray(self.actual, dtype=np.float64)
        self.minimal = np.asarray(self.minimal, dtype=np.float64)
        if self.actual.shape != self.minimal.shape:
            raise ValueError("actual and minimal must have the same shape")
        if np.any(self.minimal - self.actual > 1e-9):
            raise ValueError("minimal cycles cannot exceed actual cycles")
        if self.partition is not None:
            self.partition = np.asarray(self.partition)
            if self.partition.shape != self.actual.shape:
                raise ValueError("partition labels must match the group count")


@dataclass
class LayerProfile:
    """What one layer costs on a design, whatever the array's column count.

    The group cycle stats and the stored weight bytes depend on the weights
    and the scheme, not on how many PE columns run in parallel;
    :meth:`Accelerator.layer_performances` turns one profile into timing and
    energy for any number of array geometries.
    """

    workload: GemmWorkload
    stats: GroupCycleStats
    stored_weight_bytes: float


@dataclass
class LayerPerformance:
    """Performance and energy of one layer on one accelerator."""

    name: str
    compute_cycles: float
    dram_cycles: float
    useful_cycles: float
    intra_pe_stall_cycles: float
    inter_pe_stall_cycles: float
    compute_energy_pj: float
    sram_energy_pj: float
    dram_energy_pj: float
    stored_weight_bytes: float
    traffic: MemoryTraffic
    repeat: int = 1

    @property
    def total_cycles(self) -> float:
        """Execution cycles with compute/DRAM overlap (double buffering)."""
        return max(self.compute_cycles, self.dram_cycles)

    @property
    def total_energy_pj(self) -> float:
        return self.compute_energy_pj + self.sram_energy_pj + self.dram_energy_pj


@dataclass
class ModelPerformance:
    """Aggregated performance of a whole model on one accelerator."""

    accelerator: str
    model: str
    layers: list[LayerPerformance] = field(default_factory=list)
    clock_ghz: float = 0.8

    @property
    def total_cycles(self) -> float:
        return sum(layer.total_cycles * layer.repeat for layer in self.layers)

    @property
    def compute_cycles(self) -> float:
        return sum(layer.compute_cycles * layer.repeat for layer in self.layers)

    @property
    def dram_cycles(self) -> float:
        return sum(layer.dram_cycles * layer.repeat for layer in self.layers)

    @property
    def useful_cycles(self) -> float:
        return sum(layer.useful_cycles * layer.repeat for layer in self.layers)

    @property
    def intra_pe_stall_cycles(self) -> float:
        return sum(layer.intra_pe_stall_cycles * layer.repeat for layer in self.layers)

    @property
    def inter_pe_stall_cycles(self) -> float:
        return sum(layer.inter_pe_stall_cycles * layer.repeat for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.total_energy_pj * layer.repeat for layer in self.layers)

    @property
    def compute_energy_pj(self) -> float:
        return sum(layer.compute_energy_pj * layer.repeat for layer in self.layers)

    @property
    def on_chip_energy_pj(self) -> float:
        return sum(
            (layer.compute_energy_pj + layer.sram_energy_pj) * layer.repeat
            for layer in self.layers
        )

    @property
    def off_chip_energy_pj(self) -> float:
        return sum(layer.dram_energy_pj * layer.repeat for layer in self.layers)

    @property
    def execution_time_s(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def energy_delay_product(self) -> float:
        """EDP in joule-seconds."""
        return (self.total_energy_pj * 1e-12) * self.execution_time_s

    def speedup_over(self, baseline: "ModelPerformance") -> float:
        if self.total_cycles == 0:
            return float("inf")
        return baseline.total_cycles / self.total_cycles

    def energy_ratio_to(self, baseline: "ModelPerformance") -> float:
        if baseline.total_energy_pj == 0:
            return float("inf")
        return self.total_energy_pj / baseline.total_energy_pj

    def cycle_breakdown(self) -> dict[str, float]:
        """Normalized breakdown of compute cycles (Figure 15 bars)."""
        total = self.compute_cycles
        if total == 0:
            return {"useful": 0.0, "intra_pe_stall": 0.0, "inter_pe_stall": 0.0}
        return {
            "useful": self.useful_cycles / total,
            "intra_pe_stall": self.intra_pe_stall_cycles / total,
            "inter_pe_stall": self.inter_pe_stall_cycles / total,
        }


def expected_wave_cycles(
    per_group_cycles: np.ndarray,
    parallel_groups: int,
    num_batches: int = 512,
    seed: int = 0,
) -> float:
    """Expected cycles of one wave: the mean of the max over co-scheduled groups.

    When ``parallel_groups`` weight groups from different output channels are
    processed in lockstep, the wave lasts as long as the slowest one.  The
    groups co-scheduled in hardware are essentially arbitrary (different
    channels, same reduction offset), so we estimate the expectation of the
    maximum by resampling batches from the empirical per-group cycle
    distribution.
    """
    cycles = np.asarray(per_group_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return 0.0
    if parallel_groups <= 1:
        return float(cycles.mean())
    rng = np.random.default_rng(seed)
    samples = rng.choice(cycles, size=(num_batches, parallel_groups), replace=True)
    return float(samples.max(axis=1).mean())


def expected_wave_cycles_sweep(
    per_group_cycles: np.ndarray,
    parallel_groups: list[int],
    num_batches: int = 512,
    seed: int = 0,
) -> list[float]:
    """:func:`expected_wave_cycles` for several ``parallel_groups`` from one draw.

    A seeded ``Generator.choice`` draw of ``n`` samples is the prefix of the
    same seed's draw of any larger size, so every ``(num_batches, p)`` sample
    matrix is the first ``num_batches * p`` values of a single draw at the
    largest ``p``.  Each result equals the per-call function's exactly.
    """
    cycles = np.asarray(per_group_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return [0.0] * len(parallel_groups)
    widest = max(parallel_groups, default=1)
    draw = None
    if widest > 1:
        rng = np.random.default_rng(seed)
        draw = rng.choice(cycles, size=num_batches * widest, replace=True)
    results = []
    for parallel in parallel_groups:
        if parallel <= 1:
            results.append(float(cycles.mean()))
        else:
            samples = draw[: num_batches * parallel].reshape(num_batches, parallel)
            results.append(float(samples.max(axis=1).mean()))
    return results


class Accelerator:
    """Base class: one accelerator design evaluated on GEMM workloads."""

    #: Human-readable accelerator name (used in result tables).
    name: str = "abstract"

    def __init__(
        self,
        array: ArrayConfig | None = None,
        memory: MemorySystem | None = None,
    ) -> None:
        self.array = array or ArrayConfig()
        self.memory = memory or MemorySystem()

    # ------------------------------------------------------------------ hooks
    def pe_design(self) -> PEDesign:
        """The PE used for compute-energy accounting."""
        raise NotImplementedError

    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        """Per-group cycle costs of this scheme for one layer's weights."""
        raise NotImplementedError

    def stored_weight_bytes(self, workload: GemmWorkload, layer: LayerWeights) -> float:
        """Weight bytes (including metadata) this design fetches for the layer."""
        return float(workload.weight_bytes)

    def activation_bits(self, workload: GemmWorkload) -> int:
        """Activation precision moved through the memory system."""
        return workload.activation_bits

    def prepare_model(self, model: ModelSpec, weights: dict[str, LayerWeights]) -> None:
        """Set up model-wide state once per sweep, before any layer is profiled."""

    # -------------------------------------------------------------- execution
    def layer_profile(self, workload: GemmWorkload, layer: LayerWeights) -> LayerProfile:
        """The array-independent part of one layer's evaluation."""
        return LayerProfile(
            workload=workload,
            stats=self.group_cycle_stats(layer),
            stored_weight_bytes=self.stored_weight_bytes(workload, layer),
        )

    def layer_performances(
        self, profile: LayerProfile, arrays: list[ArrayConfig]
    ) -> list[LayerPerformance]:
        """Timing and energy of one profiled layer on each array geometry."""
        workload, stats = profile.workload, profile.stats
        parallels = [min(array.pe_columns, workload.n) for array in arrays]
        if stats.partition is None:
            wave_cycles = expected_wave_cycles_sweep(stats.actual, parallels)
        else:
            # Groups of different scheduling classes are never co-scheduled
            # (channel reordering); the wave expectation is the class-size
            # weighted mean of the per-class expectations.
            wave_cycles = [0.0] * len(arrays)
            total = stats.actual.size
            for label in np.unique(stats.partition):
                mask = stats.partition == label
                fraction = mask.sum() / total
                per_class = expected_wave_cycles_sweep(stats.actual[mask], parallels)
                for index, cycles in enumerate(per_class):
                    wave_cycles[index] += fraction * cycles
        mean_actual = float(stats.actual.mean()) if stats.actual.size else 0.0
        mean_minimal = float(stats.minimal.mean()) if stats.minimal.size else 0.0
        traffic = self.memory.layer_traffic(
            workload,
            stored_weight_bytes=profile.stored_weight_bytes,
            activation_bits=self.activation_bits(workload),
        )
        dram_energy, sram_energy = self.memory.traffic_energy_pj(traffic)
        pe = self.pe_design()

        performances = []
        for array, wave in zip(arrays, wave_cycles, strict=True):
            groups_per_channel = ceil(workload.k / array.pe_group_size)
            channel_blocks = ceil(workload.n / array.pe_columns)
            pixel_blocks = ceil(workload.m / array.pe_rows)
            waves = groups_per_channel * channel_blocks

            compute_cycles = waves * wave * pixel_blocks
            active_pes = min(array.pe_columns, workload.n) * min(array.pe_rows, workload.m)
            performances.append(
                LayerPerformance(
                    name=workload.name,
                    compute_cycles=compute_cycles,
                    dram_cycles=self.memory.dram_cycles(traffic, array.clock_ghz),
                    useful_cycles=waves * mean_minimal * pixel_blocks,
                    intra_pe_stall_cycles=waves * (mean_actual - mean_minimal) * pixel_blocks,
                    inter_pe_stall_cycles=waves * (wave - mean_actual) * pixel_blocks,
                    compute_energy_pj=(
                        compute_cycles * active_pes * pe.energy_per_cycle_pj(array.clock_ghz)
                    ),
                    sram_energy_pj=sram_energy,
                    dram_energy_pj=dram_energy,
                    stored_weight_bytes=profile.stored_weight_bytes,
                    traffic=traffic,
                    repeat=workload.repeat,
                )
            )
        return performances

    def run_layer(self, workload: GemmWorkload, layer: LayerWeights) -> LayerPerformance:
        """Evaluate one layer on this accelerator's array."""
        return self.layer_performances(self.layer_profile(workload, layer), [self.array])[0]

    def sweep_columns(
        self,
        model: ModelSpec,
        weights: dict[str, LayerWeights],
        column_counts: list[int] | tuple[int, ...],
    ) -> list[ModelPerformance]:
        """Evaluate a whole model once per PE column count, in order.

        Every layer is profiled once (its group cycle stats and stored bytes
        do not depend on the column count) and then timed on each geometry.
        Only the current layer's profile is alive at any time, so the sweep
        holds no more memory than a single :meth:`run_model`.
        """
        arrays = [self.array.with_columns(columns) for columns in column_counts]
        results = [
            ModelPerformance(accelerator=self.name, model=model.name, clock_ghz=array.clock_ghz)
            for array in arrays
        ]
        self.prepare_model(model, weights)
        for spec in model.layers:
            if spec.name not in weights:
                raise KeyError(f"missing weights for layer {spec.name!r}")
            profile = self.layer_profile(layer_workload(spec), weights[spec.name])
            for result, layer in zip(
                results, self.layer_performances(profile, arrays), strict=True
            ):
                result.layers.append(layer)
        return results

    def run_model(
        self, model: ModelSpec, weights: dict[str, LayerWeights]
    ) -> ModelPerformance:
        """Evaluate a whole model given its (synthetic) per-layer weights."""
        return self.sweep_columns(model, weights, [self.array.pe_columns])[0]


class BitSerialAccelerator(Accelerator):
    """Base class for weight-bit-serial designs (Stripes, Pragmatic, ...).

    Subclasses implement :meth:`group_cycle_stats` in terms of the bit-level
    structure of each 16-weight group; this base class provides the shared
    helper that reshapes a layer's sampled weight matrix into those groups.
    """

    def layer_groups(self, layer: LayerWeights) -> np.ndarray:
        """Sampled weights reshaped to ``(num_groups, pe_group_size)``."""
        return weight_groups(layer.int_weights, self.array.pe_group_size)


def weight_groups(weights: np.ndarray, group: int) -> np.ndarray:
    """A ``(channels, reduction)`` matrix reshaped to ``(num_groups, group)``.

    Trailing weights that do not fill a whole group are dropped; a matrix
    narrower than one group is zero-padded to one group per channel.
    """
    weights = np.asarray(weights)
    channels, reduction = weights.shape
    usable = reduction - (reduction % group)
    if usable == 0:
        padded = np.zeros((channels, group), dtype=weights.dtype)
        padded[:, :reduction] = weights
        return padded
    return weights[:, :usable].reshape(channels * (usable // group), group)


def unsigned_words(values: np.ndarray, bits: int) -> np.ndarray:
    """Two's-complement ``bits``-bit words of ``values`` as unsigned integers.

    ``np.bitwise_count`` of the result is the number of one bits in each
    word's two's-complement form (``np.bitwise_count`` of a negative signed
    integer counts the bits of its absolute value instead).
    """
    mask = (1 << bits) - 1
    return (np.asarray(values, dtype=np.int64) & mask).astype(np.min_scalar_type(mask))


def column_ones(words: np.ndarray, bits: int) -> np.ndarray:
    """One bits per significance of each row of ``(rows, n)`` unsigned words.

    Returns an ``int64`` array of shape ``(rows, bits)``, most significant bit
    first: the column sums of the rows' bit planes, counted one significance
    at a time so the ``(rows, n, bits)`` planes are never built.
    """
    # Summing down the transposed words adds whole contiguous vectors (much
    # faster than many short row reductions), and a count never exceeds the
    # row length n, so it accumulates in the smallest type that holds n.
    columns = np.ascontiguousarray(words.T)
    accumulator = np.min_scalar_type(columns.shape[0])
    counts = np.empty((bits, columns.shape[1]), dtype=np.int64)
    for column in range(bits):
        counts[column] = ((columns >> (bits - 1 - column)) & 1).sum(axis=0, dtype=accumulator)
    return counts.T
