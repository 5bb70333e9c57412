"""Paper-path workloads: cold regenerations of the paper's figures.

``paper_sim`` regenerates Figure 12 on the ``repro all --fast`` sweep models
plus Figure 14 in one process, so accelerator simulation, BitWave's bit-flip
and binary pruning do the work.  ``paper_accuracy`` regenerates Figure 11 on
the ``--fast`` accuracy models, MLP study included, so MSE-optimal clipping
and MLP training do the work and no accelerator is simulated.

Every pass starts with ``clear_memo()`` and a fresh suite, as each
``repro <figure>`` invocation does.  The figures are run at the experiments'
fixed seed 0: their rows are checked byte for byte against the recorded
payloads in ``reference/``, and the synthetic weights of other seeds cost a
different amount of work.  Regenerate the references after an intended
change of output with ``python3 perfbench/paper.py``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import Latency, Tally, ratio
from tracing import Tracer

PAPER_SEED = 0
SIM_MODELS = ["ResNet-50", "ViT-Small", "BERT-MRPC"]
ACCURACY_MODELS = ["ResNet-34", "ViT-Base"]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Imports and builds what a figure regeneration needs, in a fresh
#: interpreter; timed as the set-up of the paper workloads.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.eval import BenchmarkSuite, experiments
suite = BenchmarkSuite(seed=0)
for name in sys.argv[2:]:
    suite.model(name)
"""

SETUP_REPEATS = 5

#: Nominal seconds of one pass on a 2-core x86 host (see ``Context.passes``).
PASS_SECONDS = {"paper_sim": 16.0, "paper_accuracy": 9.5}

#: (span name, module, attribute) of every traced paper-layer function.
TRACED_FUNCTIONS = [
    ("nn.synthesize_model", "repro.nn.synthetic", "synthesize_model"),
    ("core.prune_tensor", "repro.core.binary_pruning", "prune_tensor"),
    ("core.global_binary_prune", "repro.core.global_pruning", "global_binary_prune"),
    ("core.zero_point_shift_groups", "repro.core.zero_point_shift", "zero_point_shift_groups"),
    ("core.bitplane", "repro.core.bitplane", "to_bitplanes"),
    ("core.bitplane", "repro.core.bitplane", "from_bitplanes"),
    ("core.bitplane", "repro.core.bitplane", "to_sign_magnitude_planes"),
    ("core.bitplane", "repro.core.bitplane", "from_sign_magnitude_planes"),
    ("quant.bitflip_tensor", "repro.quant.bitflip", "bitflip_tensor"),
    ("quant.optimal_clip_scale", "repro.quant.ptq", "optimal_clip_scale"),
]
#: (span name, package, method) of every traced paper-layer method.
TRACED_METHODS = [
    ("nn.trainer.train", "repro.nn.trainer", "train"),
    ("accelerators.run_model", "repro.accelerators", "run_model"),
    ("accelerators.group_cycle_stats", "repro.accelerators", "group_cycle_stats"),
]
SELF_TIME_LAYERS = [
    "nn.synthesize_model",
    "nn.trainer.train",
    "core.prune_tensor",
    "core.global_binary_prune",
    "core.zero_point_shift_groups",
    "core.bitplane",
    "quant.bitflip_tensor",
    "quant.optimal_clip_scale",
    "accelerators.run_model",
    "accelerators.group_cycle_stats",
    "eval",
]
CALL_LAYERS = [
    "nn.synthesize_model",
    "core.prune_tensor",
    "quant.bitflip_tensor",
    "quant.optimal_clip_scale",
    "accelerators.run_model",
]


def _figures(workload: str):
    """``[(figure name, zero-argument regeneration)]`` for one cold pass."""
    from repro.eval import BenchmarkSuite, experiments

    if workload == "paper_sim":
        suite = BenchmarkSuite(seed=PAPER_SEED)
        return [
            ("figure12", lambda: experiments.figure12_speedup(models=SIM_MODELS, suite=suite)),
            ("figure14", lambda: experiments.figure14_load_balance(suite=suite)),
        ]
    return [
        (
            "figure11",
            lambda: experiments.figure11_accuracy(models=ACCURACY_MODELS, seed=PAPER_SEED),
        )
    ]


def _payload_bytes(result: dict) -> bytes:
    from repro.eval.experiments import json_payload

    return (json.dumps(json_payload(result), indent=1, sort_keys=True) + "\n").encode()


def _setup_seconds(src: Path, workload: str) -> list[float]:
    models = SIM_MODELS if workload == "paper_sim" else ACCURACY_MODELS
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), *models],
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def _run_pass(workload: str, tally: Tally, tracer: Tracer | None = None) -> list[float]:
    """One cold regeneration; returns per-figure seconds and checks rows."""
    from repro.core import clear_memo

    clear_memo()
    latencies = []
    for figure, regenerate in _figures(workload):
        start = time.perf_counter()
        try:
            with tracer.span("eval") if tracer else contextlib.nullcontext():
                result = regenerate()
        except Exception as error:  # a figure that raises is a failed operation
            print(f"{figure}: {type(error).__name__}: {error}", file=sys.stderr)
            tally.record("error")
            continue
        latencies.append(time.perf_counter() - start)
        reference = (REFERENCE_DIR / f"{figure}.json").read_bytes()
        matches = _payload_bytes(result) == reference
        if not matches:
            print(f"{figure}: rows differ from {REFERENCE_DIR.name}/{figure}.json",
                  file=sys.stderr)
        tally.record("ok" if matches else "wrong")
    return latencies


def _layer_metrics(tracer: Tracer, memo: dict) -> dict:
    self_s = tracer.self_seconds()
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0), tracer.calls(name))
               for name in SELF_TIME_LAYERS}
    metrics.update({f"{name}.calls": (tracer.calls(name), None) for name in CALL_LAYERS})
    for kind, key in (("tensor", "tensors"), ("model", "models")):
        hits = memo[key]["hits"]
        lookups = hits + memo[key]["misses"]
        metrics[f"core.memo.{kind}_hits"] = (hits, None)
        metrics[f"core.memo.{kind}_lookups"] = (lookups, None)
        metrics[f"core.memo.{kind}_hit_ratio"] = (ratio(hits, lookups), lookups)
    return metrics


def run(ctx) -> dict:
    """Measure one paper workload; see ``run.py`` for the result layout."""
    setup = _setup_seconds(ctx.src, ctx.workload)
    from repro.core import memo_stats

    tally = Tally()
    latencies: list[float] = []
    walls: list[float] = []
    started = time.perf_counter()
    passes = ctx.passes(PASS_SECONDS[ctx.workload])
    # A traced run's overhead is its traced pass against the untraced pass
    # before it; two untraced passes make that one as warm as the traced one.
    for _ in range(max(2, passes) if ctx.trace else passes):
        pass_start = time.perf_counter()
        latencies += _run_pass(ctx.workload, tally)
        walls.append(time.perf_counter() - pass_start)
    measured = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latency = Latency.of(latencies) if latencies else None

    result = {
        "tally": tally,
        "end_to_end": {
            "setup_s": (statistics.median(setup), len(setup)),
            "wall_s": (statistics.median(walls), len(walls)),
            "peak_rss_mb": (peak_rss_mb, 1),
            "ops_per_s": (len(latencies) / measured, len(latencies)),
            "latency_p50_ms": (latency.p50 * 1000 if latency else 0.0, len(latencies)),
        },
        "notes": {
            "operation": "one cold figure regeneration",
            "latency_tail_ms": latency.tail * 1000 if latency else None,
            "latency_tail_percentile": latency.tail_percentile if latency else None,
            "failed_ratio": tally.failed_ratio,
        },
    }
    if ctx.trace:
        tracer = Tracer()
        for name, module, attr in TRACED_FUNCTIONS:
            tracer.wrap_function(name, module, attr)
        for name, package, method in TRACED_METHODS:
            tracer.wrap_methods(name, package, method)
        pass_start = time.perf_counter()
        try:
            _run_pass(ctx.workload, tally, tracer)
        finally:
            tracer.unwrap()
        traced_wall = time.perf_counter() - pass_start
        layers = _layer_metrics(tracer, memo_stats())
        layers["trace.overhead_s"] = (traced_wall - walls[-1], 1)
        layers["trace.spans"] = (len(tracer.spans), None)
        layers["operation.latency_p99_ms"] = (
            latency.tail * 1000 if latency else 0.0, len(latencies)
        )
        result["layers"] = layers
        result["tracer"] = tracer
    return result


def record_references() -> None:
    """Regenerate every figure once and store its payload as the reference."""
    from repro.core import clear_memo

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in ("paper_sim", "paper_accuracy"):
        clear_memo()
        for figure, regenerate in _figures(workload):
            (REFERENCE_DIR / f"{figure}.json").write_bytes(_payload_bytes(regenerate()))
            print(f"recorded {REFERENCE_DIR / figure}.json")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record_references()
