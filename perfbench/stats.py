"""The benchmark's own arithmetic: percentiles, span self time, failure counts.

Pure functions over plain numbers, so ``selftest.py`` can pin them down
without running a workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier would decide the number.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(
    samples: list[float], target: float = 0.99, beyond: int = TAIL_SAMPLES_BEYOND
) -> tuple[float, float] | None:
    """``(value, percentile)`` of the highest percentile up to ``target``
    that keeps at least ``beyond`` samples strictly above its rank.

    Ranks are nearest-rank: percentile ``p`` of ``n`` sorted samples is the
    sample at 1-based rank ``ceil(p * n)``.  The rank is capped at
    ``n - beyond``; the returned percentile is ``rank / n``.  ``None`` when
    fewer than ``beyond + 1`` samples exist.
    """
    n = len(samples)
    rank = min(math.ceil(target * n), n - beyond)
    if rank < 1:
        return None
    return sorted(samples)[rank - 1], rank / n


@dataclass
class Latency:
    """Median and tail of one set of timings, with the count behind them."""

    p50: float
    tail: float
    tail_percentile: float
    samples: int

    @classmethod
    def of(cls, samples: list[float]) -> "Latency":
        """Summarize ``samples``; too few for the tail rule report their max.

        The max is flagged by ``tail_percentile == 1.0`` so a printed report
        can say the sample did not support a lower percentile.
        """
        if not samples:
            raise ValueError("no samples")
        tail = tail_percentile(samples)
        value, percentile = tail if tail is not None else (max(samples), 1.0)
        return cls(statistics.median(samples), value, percentile, len(samples))


def self_times(spans: list[tuple[int, int | None, float, float]]) -> dict[int, float]:
    """Self time per span: its duration minus what its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)``.  Children of one
    parent may overlap (threads); the covered time is the union of their
    intervals, clipped to the parent's, so overlap is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _span_id, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


@dataclass
class Tally:
    """Operations attempted and how each that did not succeed went wrong.

    An operation that raised, was refused (HTTP 4xx/429, circuit open) or
    returned a wrong output counts as failed; ``failed_ratio`` divides all
    three by the number attempted.
    """

    attempted: int = 0
    errors: int = 0
    refused: int = 0
    wrong: int = 0

    def record(self, outcome: str) -> None:
        """Count one operation: ``ok``, ``error``, ``refused`` or ``wrong``."""
        if outcome not in ("ok", "error", "refused", "wrong"):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += 1
        if outcome == "error":
            self.errors += 1
        elif outcome == "refused":
            self.refused += 1
        elif outcome == "wrong":
            self.wrong += 1

    def merge(self, other: "Tally") -> None:
        """Add another tally's counts to this one."""
        self.attempted += other.attempted
        self.errors += other.errors
        self.refused += other.refused
        self.wrong += other.wrong

    @property
    def failed(self) -> int:
        return self.errors + self.refused + self.wrong

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def ratio(hits: float, base: float) -> float:
    """``hits / base``, 0 when nothing was looked up."""
    return hits / base if base else 0.0
