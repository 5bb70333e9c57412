"""Request-path workloads: one ``repro gateway`` fronting one ``repro serve``.

Both servers run as subprocesses of the benchmark; the node has two worker
threads and journals to disk.  All load comes from this process.

``gateway_cached`` is a closed loop of two clients resubmitting a fixed set
of codec cells that set-up already computed, so every request is a result
cache hit and only the client, gateway and node HTTP layers work.
``gateway_campaign`` dispatches campaigns of fresh cells through the
gateway with ``CampaignDispatcher(gateway=...)``, so workers, codecs and
journal writes work; each campaign's report is compared byte for byte with
a local ``CampaignRunner`` run of the same spec.

Cells are generated from the ``--seed``: the same seed gives the same cells.
Server-side layers are read as before/after deltas of the metric families
the node and gateway export at ``/v1/metrics``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import Latency, Tally, ratio
from tracing import Tracer

SETUP_REPEATS = 5
CLIENTS = 2
NODE_WORKERS = 2
START_TIMEOUT_S = 30.0

#: Shape and codec settings of generated cells.  Every codec family the
#: campaign uses appears in the cached set too, so the two workloads differ
#: only in whether the result cache answers.
CELL_ROWS, CELL_COLS = 32, 256
CODEC_PARAMS = {
    "ptq": {"bits": 4},
    "bitflip": {"num_columns": 3},
    "microscaling": {"bits": 6},
    "prune": {"num_columns": 4},
}
CACHED_CELLS = 16
#: Campaign cells per grid; five grids make one campaign.  The dispatcher
#: runs grids one after another, so a grid must hold more cells than the
#: dispatch window for the node's workers to stay busy.
CELLS_PER_GRID = 8
DISPATCH_WINDOW = 4
POLL_INTERVAL_S = 0.005

#: Nominal seconds of one pass on a 2-core x86 host: one client's half of
#: the cached cell set, or one campaign (see ``Context.passes``).  A fixed
#: amount of work also makes the node's peak memory comparable between runs.
PASS_SECONDS = {"gateway_cached": 0.045, "gateway_campaign": 1.2}


# --------------------------------------------------------------------------- #
# Topology
# --------------------------------------------------------------------------- #


class Topology:
    """One gateway and one registered node, spawned and stopped together."""

    def __init__(self, src: Path, workdir: Path):
        self.src = src
        self.workdir = workdir
        self.procs: list[subprocess.Popen] = []
        self.logs = []
        self.gateway_url = ""
        self.node_url = ""
        self.node_pid = 0

    def _spawn(self, name: str, args: list[str], banner: str) -> tuple[subprocess.Popen, str]:
        log_path = self.workdir / f"{name}.log"
        log = log_path.open("w")
        self.logs.append(log)
        env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.procs.append(proc)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in log_path.read_text().splitlines():
                if line.startswith(banner):
                    return proc, line.split()[-1]
            if proc.poll() is not None:
                raise RuntimeError(f"{name} exited early:\n{log_path.read_text()}")
            time.sleep(0.005)
        raise RuntimeError(f"{name} printed no banner within {START_TIMEOUT_S}s")

    def start(self) -> None:
        from repro.service.client import ServiceClient

        self.workdir.mkdir(parents=True)
        _, self.gateway_url = self._spawn(
            "gateway",
            ["gateway", "--port", "0", "--state", str(self.workdir / "gateway-state")],
            "repro gateway listening on ",
        )
        node, self.node_url = self._spawn(
            "node",
            [
                "serve", "--port", "0", "--workers", str(NODE_WORKERS),
                "--journal", str(self.workdir / "journal"),
                "--register", self.gateway_url,
            ],
            "repro service listening on ",
        )
        self.node_pid = node.pid
        client = ServiceClient(self.gateway_url, timeout=10.0)
        deadline = time.monotonic() + START_TIMEOUT_S
        while client.health()["nodes"]["healthy"] < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("node never turned healthy at the gateway")
            time.sleep(0.005)

    def node_peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.node_pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the node process")

    def close(self) -> None:
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()


def _setup(ctx, warm) -> tuple[Topology, list[float]]:
    """Start (and warm) the topology ``SETUP_REPEATS`` times; keep the last."""
    times = []
    topology = None
    for index in range(SETUP_REPEATS):
        if topology is not None:
            topology.close()
        start = time.perf_counter()
        topology = Topology(ctx.src, ctx.workdir / f"topology-{index}")
        try:
            topology.start()
            warm(topology)
        except BaseException:
            topology.close()
            raise
        times.append(time.perf_counter() - start)
    return topology, times


# --------------------------------------------------------------------------- #
# Generated cells
# --------------------------------------------------------------------------- #


def _cell(codec: str, tensor_seed: int) -> dict:
    return {
        "codec": codec,
        "rows": CELL_ROWS,
        "cols": CELL_COLS,
        "seed": tensor_seed,
        "params": CODEC_PARAMS[codec],
    }


def cached_cells(seed: int) -> list[dict]:
    """The fixed cell set ``gateway_cached`` resubmits."""
    rng = random.Random(f"cached:{seed}")
    codecs = sorted(CODEC_PARAMS)
    return [_cell(codecs[i % len(codecs)], rng.randrange(2**31)) for i in range(CACHED_CELLS)]


def campaign_spec(seed: int, index: int) -> dict:
    """Campaign ``index`` of a run: five grids of fresh tensor seeds."""
    rng = random.Random(f"campaign:{seed}:{index}")

    def seeds() -> list[int]:
        return [rng.randrange(2**31) for _ in range(CELLS_PER_GRID)]

    shape = {"rows": CELL_ROWS, "cols": CELL_COLS}
    grids = [
        {"name": codec, "codec": codec, "params": {**shape, **CODEC_PARAMS[codec]},
         "sweep": {"seed": seeds()}}
        for codec in ("ptq", "bitflip", "microscaling")
    ]
    grids.append({
        "name": "prune-ptq-bitplane",
        "pipeline": [{"codec": "prune"}, {"codec": "ptq"}, {"codec": "bitplane"}],
        "params": shape,
        "sweep": {"seed": seeds()},
    })
    grids.append({"name": "prune_tensor", "scenario": "prune_tensor", "params": shape,
                  "sweep": {"seed": seeds()}})
    return {"name": f"bench-{seed}-{index}", "grids": grids}


# --------------------------------------------------------------------------- #
# Server-side metric deltas
# --------------------------------------------------------------------------- #


def _scrape(url: str) -> dict:
    from repro.service.client import ServiceClient

    return ServiceClient(url, timeout=10.0).metrics(format="json")["families"]


def _total(families: dict, name: str, skip_route: str | None = None, **labels) -> tuple[float, float]:
    """(value or sum, count) over the series of one family matching ``labels``."""
    value = count = 0.0
    for series in families[name]["series"]:
        if skip_route and skip_route in series["labels"].get("route", ""):
            continue
        if any(series["labels"].get(key) != want for key, want in labels.items()):
            continue
        value += series.get("value", series.get("sum", 0.0))
        count += series.get("count", 0)
    return value, count


def _server_layers(before: dict, after: dict) -> dict:
    """Per-layer metrics from two scrapes of the node and the gateway each."""

    def delta(side: str, name: str, **labels) -> tuple[float, float]:
        value_after, count_after = _total(after[side], name, skip_route="metrics", **labels)
        value_before, count_before = _total(before[side], name, skip_route="metrics", **labels)
        return value_after - value_before, count_after - count_before

    def mean_ms(side: str, name: str) -> tuple[float, int]:
        seconds, count = delta(side, name)
        return (seconds / count * 1000 if count else 0.0), int(count)

    hits = delta("node", "repro_jobs_total", event="cache_hit")[0]
    lookups = (delta("node", "repro_jobs_total", event="submitted")[0]
               + delta("node", "repro_jobs_total", event="dedup_hit")[0])
    return {
        "gateway.request_ms": mean_ms("gateway", "repro_gateway_proxy_seconds"),
        "gateway.replicated_lines": (
            delta("gateway", "repro_gateway_replicated_lines_total", outcome="accepted")[0],
            None,
        ),
        "service.http_ms": mean_ms("node", "repro_http_request_seconds"),
        "service.cache_hits": (hits, None),
        "service.cache_lookups": (lookups, None),
        "service.cache_hit_ratio": (ratio(hits, lookups), int(lookups)),
        "service.queue_wait_ms": mean_ms("node", "repro_job_queue_wait_seconds"),
        "service.run_ms": mean_ms("node", "repro_job_run_seconds"),
        "service.journal_appends": (delta("node", "repro_journal_appends_total")[0], None),
        "codecs.compress_ms": mean_ms("node", "repro_codec_compress_seconds"),
    }


def _scrape_both(topology: Topology) -> dict:
    return {"node": _scrape(topology.node_url), "gateway": _scrape(topology.gateway_url)}


# --------------------------------------------------------------------------- #
# gateway_cached
# --------------------------------------------------------------------------- #


def _classify_error(error: Exception) -> str:
    from repro.service.client import ServiceRequestError, ServiceUnavailable

    if isinstance(error, ServiceRequestError) or (
        isinstance(error, ServiceUnavailable) and error.saturated
    ):
        return "refused"
    return "error"


class _CachedLoop:
    """Two closed-loop clients resubmitting their halves of the cell set."""

    def __init__(self, topology: Topology, cells: list[dict], expected: list[str]):
        self.topology = topology
        self.cells = cells
        self.expected = expected

    def submit(self, client, index: int) -> str:
        """One cached submit; the outcome of its output check."""
        record = client.request(
            "POST", "/v1/jobs", {"type": "codec_compress", "params": self.cells[index]}
        )
        answered = json.dumps(record.get("result"), sort_keys=True)
        if record.get("cache_hit") is True and answered == self.expected[index]:
            return "ok"
        return "wrong"

    def measure(self, passes: int) -> dict:
        from repro.service.client import ServiceClient

        clients = [ServiceClient(self.topology.gateway_url, timeout=30.0) for _ in range(CLIENTS)]
        tallies = [Tally() for _ in range(CLIENTS)]
        latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        walls: list[list[float]] = [[] for _ in range(CLIENTS)]

        def loop(worker: int) -> None:
            mine = range(worker, len(self.cells), CLIENTS)
            for _ in range(passes):
                pass_start = time.perf_counter()
                for index in mine:
                    start = time.perf_counter()
                    try:
                        outcome = self.submit(clients[worker], index)
                    except Exception as error:  # counted, never fatal to the loop
                        outcome = _classify_error(error)
                    if outcome == "ok":
                        latencies[worker].append(time.perf_counter() - start)
                    tallies[worker].record(outcome)
                walls[worker].append(time.perf_counter() - pass_start)

        started = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(w,)) for w in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        tally = Tally()
        for part in tallies:
            tally.merge(part)
        return {
            "tally": tally,
            "latencies": [x for part in latencies for x in part],
            "walls": [x for part in walls for x in part],
            "elapsed": elapsed,
            "retries": sum(sum(c.retries_by_reason.values()) for c in clients),
            "reconciliations": sum(c.reconciliations for c in clients),
            "submitted": 0,
            "checkpointed": 0,
        }

    def verify(self, tally: Tally) -> None:
        """Nothing left to check: ``submit`` checks every answer."""


def _warm_cached(cells: list[dict], expected: list[str]):
    def warm(topology: Topology) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(topology.gateway_url, timeout=60.0)
        answers = []
        for cell in cells:
            record = client.request("POST", "/v1/jobs?wait=60",
                                    {"type": "codec_compress", "params": cell})
            if record.get("state") != "done":
                raise RuntimeError(f"warm-up cell did not finish: {record}")
            answers.append(json.dumps(record["result"], sort_keys=True))
        if expected and answers != expected:
            raise RuntimeError("warm-up results differ between set-ups")
        expected[:] = answers

    return warm


# --------------------------------------------------------------------------- #
# gateway_campaign
# --------------------------------------------------------------------------- #


class _CampaignLoop:
    """Campaigns dispatched one after another through the gateway."""

    def __init__(self, topology: Topology, seed: int, workdir: Path):
        self.topology = topology
        self.seed = seed
        self.workdir = workdir
        self.index = 0
        self.done: list[tuple[dict, Path]] = []

    def measure(self, passes: int) -> dict:
        from repro.campaign import CampaignDispatcher, parse_spec

        tally = Tally()
        walls: list[float] = []
        submitted = checkpointed = 0
        retries = reconciliations = 0
        started = time.perf_counter()
        for _ in range(passes):
            spec = campaign_spec(self.seed, self.index)
            run_dir = self.workdir / f"campaign-{self.index}"
            self.index += 1
            dispatcher = CampaignDispatcher(
                parse_spec(spec), [], run_dir, gateway=self.topology.gateway_url,
                poll_interval=POLL_INTERVAL_S, max_inflight=DISPATCH_WINDOW,
            )
            cells = len(dispatcher.plan.jobs)
            pass_start = time.perf_counter()
            try:
                stats = dispatcher.run()
            except Exception as error:  # a failed campaign fails all its cells
                print(f"campaign {spec['name']}: {type(error).__name__}: {error}",
                      file=sys.stderr)
                for _ in range(cells):
                    tally.record(_classify_error(error))
                continue
            walls.append(time.perf_counter() - pass_start)
            submitted += sum(node.submitted for node in dispatcher.nodes)
            checkpointed += stats["executed"]
            client = dispatcher.nodes[0].client
            retries += sum(client.retries_by_reason.values())
            reconciliations += client.reconciliations
            self.done.append((spec, run_dir))
        elapsed = time.perf_counter() - started
        return {
            "tally": tally,
            "latencies": self._latencies(),
            "walls": walls,
            "elapsed": elapsed,
            "submitted": submitted,
            "checkpointed": checkpointed,
            "retries": retries,
            "reconciliations": reconciliations,
        }

    def _latencies(self) -> list[float]:
        """Per-cell seconds from first submission to checkpoint."""
        seconds = []
        for _spec, run_dir in self.done:
            for path in sorted((run_dir / "results").glob("*.json")):
                seconds.append(json.loads(path.read_text())["timing"]["wall_seconds"])
        return seconds

    def verify(self, tally: Tally) -> None:
        """Compare every dispatched report with a local run of its spec."""
        from repro.campaign import CampaignRunner, parse_spec

        for spec, run_dir in self.done:
            local_dir = run_dir.with_name(run_dir.name + "-local")
            runner = CampaignRunner(parse_spec(spec), local_dir, jobs=CLIENTS)
            runner.run()
            same = all(
                (run_dir / name).read_bytes() == (local_dir / name).read_bytes()
                for name in ("report.json", "report.csv")
            )
            if not same:
                print(f"campaign {spec['name']}: report differs from the local run",
                      file=sys.stderr)
            for _ in runner.plan.jobs:
                tally.record("ok" if same else "wrong")
        self.done.clear()


def _warm_campaign(topology: Topology) -> None:
    from repro.service.client import ServiceClient

    client = ServiceClient(topology.gateway_url, timeout=60.0)
    for codec in CODEC_PARAMS:
        # Generated tensor seeds lie below 2**31, so this cell never recurs.
        record = client.request("POST", "/v1/jobs?wait=60",
                                {"type": "codec_compress", "params": _cell(codec, 2**31)})
        if record.get("state") != "done":
            raise RuntimeError(f"warm-up cell did not finish: {record}")


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def run(ctx) -> dict:
    """Measure one gateway workload; see ``run.py`` for the result layout."""
    cached = ctx.workload == "gateway_cached"
    expected: list[str] = []
    cells = cached_cells(ctx.seed)
    warm = _warm_cached(cells, expected) if cached else _warm_campaign
    topology, setup = _setup(ctx, warm)
    try:
        if cached:
            loop = _CachedLoop(topology, cells, expected)
        else:
            loop = _CampaignLoop(topology, ctx.seed, ctx.workdir / "campaigns")
        # A traced run splits its passes between an untraced and a traced window.
        passes = ctx.passes(PASS_SECONDS[ctx.workload])
        passes = max(1, passes // 2) if ctx.trace else passes
        window = loop.measure(passes)
        tally = window["tally"]
        loop.verify(tally)
        latencies = window["latencies"]
        latency = Latency.of(latencies) if latencies else None
        result = {
            "tally": tally,
            "end_to_end": {
                "setup_s": (statistics.median(setup), len(setup)),
                "wall_s": (_median(window["walls"]), len(window["walls"])),
                "peak_rss_mb": (topology.node_peak_rss_mb(), 1),
                "ops_per_s": (len(latencies) / window["elapsed"], len(latencies)),
                "latency_p50_ms": (latency.p50 * 1000 if latency else 0.0, len(latencies)),
            },
            "notes": {
                "operation": "one cached submit" if cached else "one campaign cell",
                "latency_tail_ms": latency.tail * 1000 if latency else None,
                "latency_tail_percentile": latency.tail_percentile if latency else None,
                "failed_ratio": tally.failed_ratio,
                "client_retries": window["retries"],
                "client_reconciliations": window["reconciliations"],
            },
        }
        if ctx.trace:
            result.update(_traced_window(topology, loop, window, passes))
            result["layers"]["operation.latency_p99_ms"] = (
                latency.tail * 1000 if latency else 0.0, len(latencies)
            )
        return result
    finally:
        topology.close()
        shutil.rmtree(ctx.workdir, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _traced_window(topology: Topology, loop, untraced: dict, passes: int) -> dict:
    """A second window with client spans on; server layers as metric deltas."""
    tracer = Tracer()
    tracer.wrap_methods("client.request", "repro.service.client", "request")
    before = _scrape_both(topology)
    try:
        window = loop.measure(passes)
    finally:
        tracer.unwrap()
    after = _scrape_both(topology)
    loop.verify(window["tally"])
    untraced["tally"].merge(window["tally"])
    requests = tracer.durations("client.request")
    submitted, checkpointed = window["submitted"], window["checkpointed"]
    layers = _server_layers(before, after)
    layers.update({
        "client.request_ms": (_median(requests) * 1000, len(requests)),
        "client.retries": (window["retries"], None),
        "client.reconciliations": (window["reconciliations"], None),
        "campaign.submitted": (submitted, None),
        "campaign.checkpointed": (checkpointed, None),
        "campaign.useful_ratio": (ratio(checkpointed, submitted), submitted),
        "trace.overhead_s": (
            _median(window["walls"]) - _median(untraced["walls"]), len(window["walls"])
        ),
        "trace.spans": (len(tracer.spans), None),
    })
    return {"layers": layers, "tracer": tracer}
