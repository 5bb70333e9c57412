"""Cycle-level accelerator models: BitVert and the six baselines.

* :mod:`repro.accelerators.common` — shared array geometry, statistical cycle
  model and result containers.
* :mod:`repro.accelerators.area_power` — component-level PE area/power model
  (Tables IV, V, VI).
* :mod:`repro.accelerators.stripes` / ``pragmatic`` / ``bitlet`` /
  ``bitwave`` / ``sparten`` / ``ant_accel`` — the baseline designs.
* :mod:`repro.accelerators.bitvert` — the paper's accelerator (PE, scheduler,
  channel reordering, array model).
"""

from .ant_accel import AntAccelerator, ant_pe
from .area_power import (
    DEFAULT_GATE_COSTS,
    GateCosts,
    PAPER_TABLE_IV,
    PAPER_TABLE_V,
    PAPER_TABLE_VI,
    PE_BUILDERS,
    PEDesign,
    bitlet_pe,
    bitvert_pe,
    bitwave_pe,
    olive_pe,
    pragmatic_pe,
    stripes_pe,
)
from .bitlet import BitletAccelerator
from .bitvert import (
    BitVertAccelerator,
    BitVertPE,
    ChannelReordering,
    ColumnSchedule,
    PEResult,
    reorder_channels,
    schedule_column,
    unshuffle_output,
)
from .bitwave import BitWaveAccelerator
from .common import (
    Accelerator,
    ArrayConfig,
    BitSerialAccelerator,
    GroupCycleStats,
    LayerPerformance,
    LayerProfile,
    ModelPerformance,
    expected_wave_cycles,
    expected_wave_cycles_sweep,
)
from .pragmatic import PragmaticAccelerator
from .sparten import SparTenAccelerator, sparten_pe
from .stripes import StripesAccelerator

__all__ = [
    "AntAccelerator",
    "ant_pe",
    "DEFAULT_GATE_COSTS",
    "GateCosts",
    "PAPER_TABLE_IV",
    "PAPER_TABLE_V",
    "PAPER_TABLE_VI",
    "PE_BUILDERS",
    "PEDesign",
    "bitlet_pe",
    "bitvert_pe",
    "bitwave_pe",
    "olive_pe",
    "pragmatic_pe",
    "stripes_pe",
    "BitletAccelerator",
    "BitVertAccelerator",
    "BitVertPE",
    "ChannelReordering",
    "ColumnSchedule",
    "PEResult",
    "reorder_channels",
    "schedule_column",
    "unshuffle_output",
    "BitWaveAccelerator",
    "Accelerator",
    "ArrayConfig",
    "BitSerialAccelerator",
    "GroupCycleStats",
    "LayerPerformance",
    "LayerProfile",
    "ModelPerformance",
    "expected_wave_cycles",
    "expected_wave_cycles_sweep",
    "PragmaticAccelerator",
    "SparTenAccelerator",
    "sparten_pe",
    "StripesAccelerator",
]
