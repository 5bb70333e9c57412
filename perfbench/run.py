"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in its own process.  Run from
the root of a source checkout: the program is imported from ``src/``.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it splits its work between an
untraced and a traced part, and reports the per-layer metrics.  Every metric
is printed with its unit and the sample count behind it, after the host the
run was measured on; results from different hosts are never compared.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A traced run also writes its
spans, one JSON object per line, to ``.perfbench/``.

``LAYERS`` says which end-to-end metric each per-layer metric should move,
on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gateway
import paper

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "paper_sim": paper.run,
    "paper_accuracy": paper.run,
    "gateway_cached": gateway.run,
    "gateway_campaign": gateway.run,
}

#: per-layer metric prefix -> (end-to-end metric it should move, workloads).
LAYERS = {
    "nn.synthesize_model": ("wall_s", "paper_sim, paper_accuracy"),
    "nn.trainer.train": ("wall_s", "paper_accuracy"),
    "core.prune_tensor": ("wall_s", "paper_sim; less on paper_accuracy"),
    "core.global_binary_prune": ("wall_s", "paper_sim; less on paper_accuracy"),
    "core.zero_point_shift_groups": ("wall_s", "paper_sim; less on paper_accuracy"),
    "core.bitplane": ("wall_s", "paper_sim; less on paper_accuracy"),
    "core.memo": ("wall_s", "paper_sim"),
    "quant.bitflip_tensor": ("wall_s", "paper_sim"),
    "quant.optimal_clip_scale": (
        "wall_s; latency_p50_ms", "paper_accuracy; gateway_campaign (ptq cells)"
    ),
    "accelerators": ("wall_s", "paper_sim (0 on paper_accuracy)"),
    "eval": ("wall_s", "paper_sim, paper_accuracy"),
    "client": ("latency_p50_ms, ops_per_s", "gateway_cached"),
    "gateway": ("latency_p50_ms", "gateway_cached; less on gateway_campaign"),
    "service.http_ms": ("latency_p50_ms", "gateway_cached"),
    "service.cache": ("latency_p50_ms", "gateway_cached (1.0), gateway_campaign (0)"),
    "service": (
        "ops_per_s, operation.latency_p99_ms", "gateway_campaign (~0 on gateway_cached)"
    ),
    "codecs": (
        "ops_per_s, operation.latency_p99_ms", "gateway_campaign (none on gateway_cached)"
    ),
    "campaign": ("ops_per_s, operation.latency_p99_ms", "gateway_campaign"),
    "operation": (
        "latency_p50_ms (it is that timing's tail; a busier node shows here first)",
        "gateway_cached, gateway_campaign",
    ),
    "trace": ("traced minus untraced wall_s", "every workload"),
}


@dataclass
class Context:
    """What a workload needs to know about the run it is part of."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    src: Path
    workdir: Path

    def passes(self, nominal_seconds: float) -> int:
        """How many passes of ``nominal_seconds`` fill ``--seconds`` (at least 1).

        The count depends only on the arguments, never on how fast this run
        goes, so every run with the same ``--seconds`` does the same work.
        """
        return max(1, round(self.seconds / nominal_seconds))


def host() -> dict:
    """The machine a result was measured on."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _moves(name: str) -> str:
    prefix = max((key for key in LAYERS if name.startswith(key)), key=len, default=None)
    return "moves {} on {}".format(*LAYERS[prefix]) if prefix else ""


def run_all(args) -> int:
    """Run every workload in a fresh process; merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        *report, last = proc.stdout.splitlines() or [""]
        print("\n".join(report), flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".perfbench"
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        src=src,
        workdir=out_dir / f"{args.workload}-{args.seed}-{os.getpid()}",
    )
    result = WORKLOADS[args.workload](ctx)
    measured = result["layers"] if args.trace else result["end_to_end"]
    unknown = set(measured) - {entry["name"] for entry in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    tally = result["tally"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + json.dumps(host(), sort_keys=True))
    metrics = {}
    for entry in declared:
        # A layer the workload never enters reports 0 with no samples.
        value, samples = measured.get(entry["name"], (0, 0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        count = "" if samples is None else f"  (n={samples})"
        note = f"  {_moves(entry['name'])}" if args.trace else ""
        print(f"  {entry['name']:<36} {value:>14.6g} {entry['unit']:<6}{count}{note}")
    print(f"  {'failed_ratio':<36} {tally.failed_ratio:>14.6g}        "
          f"({tally.failed} of {tally.attempted}: {tally.errors} errors, "
          f"{tally.refused} refused, {tally.wrong} wrong outputs)")
    print("notes " + json.dumps(result.get("notes", {}), sort_keys=True))
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        result["tracer"].dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
