"""Federated campaign execution: ship cells to one gateway URL.

The dispatcher takes the same expanded, content-addressed plan the local
:class:`~repro.campaign.runner.CampaignRunner` executes, but ships each cell
to a ``repro gateway`` instead of a local worker pool.  Everything else is
deliberately identical:

* the run directory layout (``spec.json``/``manifest.json``/``results/``) is
  produced by the same :class:`CampaignRunner` code path;
* each finished cell is checkpointed atomically as ``results/<digest>.json``
  with the same payload bytes a local run writes;
* the aggregate ``report.json``/``report.csv`` are built only from the
  manifest order and the checkpoint payloads.

So a dispatched campaign produces a report **byte-identical** to a local
run and resumes idempotently (checkpointed cells are never re-sent).

Placement, failover and registry-skew checks all live in the gateway
(:mod:`repro.gateway`): it routes each cell by content digest, replays a
lost node's jobs onto survivors, and admits only nodes whose registry digest
equals its own.  Given a list of node URLs instead of a gateway, the
dispatcher starts an ephemeral in-process gateway over them for the length
of :meth:`CampaignDispatcher.run`.  Either way the dispatcher talks to one
URL: it checks that URL's registry digest once, keeps at most
``max_inflight`` cells in flight through it, and pauses briefly when the
fleet answers 429.

Grid DAG semantics match the local runner: a grid's cells are dispatched only
after its dependency grids completed, and grids depending on a failed grid
stay pending.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..eval.reporting import to_jsonable
from ..gateway.registry import compute_registry_digest
from ..gateway.server import GatewayServer
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..obs.timing import timed
from ..service.client import (
    ServiceClient,
    ServiceError,
    ServiceRequestError,
    ServiceUnavailable,
)
from .runner import CampaignRunError, CampaignRunner, _write_atomic
from .spec import CampaignJob, CampaignSpec

__all__ = ["CampaignDispatcher", "DispatchError", "dispatch_campaign"]

_COOLDOWNS_TOTAL = get_metrics().counter(
    "repro_dispatch_cooldowns_total",
    "Dispatcher 429-saturation cooldowns (submission paused, cell kept queued).",
)

#: Remote job states that end a cell.
_TERMINAL = ("done", "failed", "cancelled")

#: A cell is failed (not retried forever) once it has been (re)submitted
#: this many times without reaching a checkpoint — the backstop against a
#: persistently broken cell (e.g. a result the node cannot serialize)
#: turning the dispatch loop into a livelock.
MAX_CELL_ATTEMPTS = 5

#: Node health timing of the ephemeral gateway behind ``--nodes``: agent-less
#: nodes are health-pulled every sweep, suspect after 0.6 s without an
#: answer and failed over after 1.5 s.
_SUSPECT_AFTER = 0.6
_DEAD_AFTER = 1.5
_SWEEP_INTERVAL = 0.1


class DispatchError(RuntimeError):
    """The gateway (or every node behind it) cannot run the remaining cells."""


@dataclass
class _Target:
    """The one URL cells are shipped to and what the dispatcher counts there."""

    url: str
    client: ServiceClient
    submitted: int = 0
    #: Monotonic time before which no new cell is offered (429 backpressure).
    cooldown_until: float = 0.0


@dataclass
class _Cell:
    """One cell from its first submission attempt until it leaves the grid."""

    job: CampaignJob
    #: The gateway job id of the current submission ("" before the first).
    remote_id: str = ""
    #: Accepted submissions so far (resubmissions included).
    attempts: int = 0
    #: The cell's ``dispatch.cell`` span, open from the first submission
    #: attempt until checkpoint or give-up; resubmissions keep (and
    #: re-propagate) it, so one cell is one span however often it was sent.
    span: obs_trace.Span | None = field(default=None, repr=False)
    #: Wall-clock time of the first submission attempt — the basis of the
    #: checkpoint's ``wall_seconds``, so retries and resubmissions count.
    started_at: float = 0.0


class CampaignDispatcher:
    """Execute (or resume) one campaign through a gateway.

    Pass ``gateway=URL`` for a running ``repro gateway``, or a list of node
    ``endpoints`` to have :meth:`run` front them with an in-process gateway.
    ``nodes`` holds the single target once known (from construction with
    ``gateway=``, from :meth:`run` otherwise).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        endpoints: list[str],
        run_dir: str | Path,
        registry=None,
        poll_interval: float = 0.05,
        max_inflight: int = 8,
        client_factory=ServiceClient,
        client_options: dict | None = None,
        ingest_db: str | None = None,
        gateway: str | None = None,
    ):
        if gateway and endpoints:
            raise ValueError("pass either endpoints or gateway=, not both")
        if not gateway and not endpoints:
            raise ValueError("at least one service endpoint is required")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        # The runner provides the identical run-dir layout, checkpointing,
        # and report machinery (including --ingest auto-warehousing); the
        # dispatcher only replaces execution.
        self.runner = CampaignRunner(spec, run_dir, registry=registry, ingest_db=ingest_db)
        self.spec = self.runner.spec
        self.plan = self.runner.plan
        self.run_dir = self.runner.run_dir
        self.poll_interval = poll_interval
        self.max_inflight = max_inflight
        self.gateway = gateway.rstrip("/") if gateway else None
        self.endpoints = [url.rstrip("/") for url in endpoints]
        self._client_factory = client_factory
        self._client_options = dict(client_options or {})
        self.nodes: list[_Target] = []
        if self.gateway is not None:
            self._connect(self.gateway)
        self.stats: dict[str, Any] = {}
        self._cooldowns = 0
        self._root_span: obs_trace.Span | None = None

    # ------------------------------------------------------------------ #
    # The target
    # ------------------------------------------------------------------ #

    def _connect(self, url: str) -> _Target:
        target = _Target(url, self._client_factory(url, **self._client_options))
        self.nodes = [target]
        return target

    def _start_gateway(self) -> GatewayServer:
        """An ephemeral gateway over ``endpoints``, serving on a daemon thread.

        It canonicalizes with the runner's own registry, so a node on any
        other registry is refused at admission.
        """
        gateway = GatewayServer(
            ("127.0.0.1", 0),
            registry=self.runner.registry,
            suspect_after=_SUSPECT_AFTER,
            dead_after=_DEAD_AFTER,
            sweep_interval=_SWEEP_INTERVAL,
        )
        threading.Thread(
            target=gateway.serve_forever, name="dispatch-gateway", daemon=True
        ).start()
        return gateway

    def _admit_endpoints(self, gateway: GatewayServer) -> list[dict]:
        """Admit every endpoint statically and target the gateway; -> refusals.

        Raises :class:`DispatchError` when no endpoint is admitted.
        """
        refused = []
        for url in self.endpoints:
            try:
                gateway.admit_static(url)
            except (ServiceError, ValueError) as error:
                refused.append({"url": url, "state": "refused", "reason": str(error)})
        if len(refused) == len(self.endpoints):
            details = "; ".join(f"{entry['url']}: {entry['reason']}" for entry in refused)
            raise DispatchError(f"no reachable service node ({details})")
        self._connect(f"http://127.0.0.1:{gateway.port}")
        return refused

    def _probe(self, target: _Target) -> None:
        """One ``GET /v1/health``: the target must answer on the local registry.

        The gateway reports the digest it canonicalizes by; any other digest
        would checkpoint results under the wrong content address.
        """
        try:
            health = target.client.health()
        except ServiceError as error:
            raise DispatchError(f"no reachable service node ({target.url}: {error})") from None
        local = compute_registry_digest(self.runner.registry)
        remote = health.get("registry_digest")
        if remote is None:
            raise DispatchError(
                f"{target.url} reports no registry digest: not a gateway "
                "(pass node URLs as endpoints, or --nodes)"
            )
        if remote != local:
            raise DispatchError(
                f"registry skew: {target.url} canonicalizes by registry digest "
                f"{str(remote)[:12]}..., the local plan by {local[:12]}..."
            )

    def _fleet(self, target: _Target, refused: list[dict]) -> list[dict]:
        """The gateway's node listing (url, state, reason) plus refused URLs."""
        try:
            listing = target.client.request("GET", "/v1/gateway/nodes")["nodes"]
        except (ServiceError, KeyError, TypeError):
            listing = []
        return [
            {key: node.get(key) for key in ("url", "state", "reason")}
            for node in listing
            if isinstance(node, dict)
        ] + refused

    # ------------------------------------------------------------------ #
    # Cell submission / completion
    # ------------------------------------------------------------------ #

    def _submit_cell(self, target: _Target, cell: _Cell) -> bool:
        """Submit one cell; ``False`` when the fleet is saturated (cooldown set).

        The cell's ``dispatch.cell`` span (created on the first attempt,
        reused on resubmissions) is *activated* around the submit call, so
        the client propagates it in ``X-Repro-Trace`` and the gateway's and
        node's request spans become its children — one connected trace per
        cell across machines.
        """
        job = cell.job
        if cell.span is None:
            cell.span = obs_trace.start_span(
                "dispatch.cell",
                attrs={"cell": job.cell, "grid": job.grid, "scenario": job.scenario},
                parent=self._root_span.context if self._root_span else None,
            )
            cell.started_at = time.time()
        # The spec's per-job budget rides along on every cell (only when
        # set, so client doubles without the kwarg keep working).
        submit_kwargs: dict = {}
        if getattr(self.spec, "deadline_s", None) is not None:
            submit_kwargs["deadline_s"] = self.spec.deadline_s
        try:
            with obs_trace.activate(cell.span):
                record = target.client.submit(
                    job.scenario, to_jsonable(job.params), **submit_kwargs
                )
        except ServiceUnavailable as error:
            if error.saturated:
                # A full queue (429 through every retry) is backpressure, not
                # loss: pause submissions briefly and keep the cell queued.
                target.cooldown_until = time.monotonic() + max(self.poll_interval, 0.05)
                self._cooldowns += 1
                _COOLDOWNS_TOTAL.inc()
                return False
            cell.span.finish(error="no reachable node")
            raise DispatchError(
                f"no reachable service node left ({target.url}: {error})"
            ) from None
        except ServiceRequestError as error:
            cell.span.finish(error="submission rejected")
            raise DispatchError(f"{target.url} rejected cell {job.cell}: {error}") from None
        if record.get("digest") != job.digest:
            # The target canonicalizes against a different registry than the
            # local plan: its results would be checkpointed under the wrong
            # content address.
            cell.span.finish(error="digest mismatch")
            raise DispatchError(
                f"digest mismatch for cell {job.cell} (local {job.digest[:12]}..., "
                f"remote {str(record.get('digest'))[:12]}...): registry skew "
                f"at {target.url}"
            )
        cell.remote_id = record["job_id"]
        cell.attempts += 1
        target.submitted += 1
        return True

    @staticmethod
    def _cell_timing(target: _Target, cell: _Cell, record: dict) -> dict:
        """Provenance block for a remotely executed cell's checkpoint.

        Mirrors :func:`repro.campaign.runner.job_timing` for local runs, with
        the target URL as the worker identity; ``wall_seconds`` spans from
        first submission, so resubmissions and retries are included.
        """
        worker = target.url
        remote_worker = record.get("worker")
        if isinstance(remote_worker, str) and remote_worker:
            worker = f"{worker}#{remote_worker}"
        return {
            "wall_seconds": max(time.time() - cell.started_at, 0.0),
            "queue_seconds": record.get("queue_seconds"),
            "run_seconds": record.get("run_seconds"),
            "worker": worker,
            "cache_hit": record.get("cache_hit"),
            "attempts": cell.attempts,
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> dict:
        """Dispatch every pending cell; return the run stats.

        Writes the aggregate report when the whole manifest is checkpointed
        (exactly like a completing local run) and raises
        :class:`~repro.campaign.runner.CampaignRunError` when cells failed
        remotely, or :class:`DispatchError` when the target cannot run them.
        """
        executed = 0
        skipped = 0
        failures: list[tuple[CampaignJob, str]] = []
        failed_grids: set[str] = set()
        report_written = False
        gateway: GatewayServer | None = None
        refused: list[dict] = []
        # The root span is created but NOT activated for the whole run: cell
        # spans parent to it explicitly, while the poll-loop GETs stay out of
        # the trace (hundreds of poll requests would drown the cell tree).
        self._root_span = obs_trace.start_span(
            "campaign.dispatch",
            attrs={
                "campaign": self.spec.name,
                "run_dir": str(self.run_dir),
                "nodes": [self.gateway] if self.gateway else list(self.endpoints),
            },
        )
        with timed("campaign.dispatch") as timer:
            try:
                self.runner.prepare_run_dir()
                completed = self.runner.completed_digests()
                if self.gateway is None:
                    gateway = self._start_gateway()
                    refused = self._admit_endpoints(gateway)
                target = self.nodes[0]
                self._probe(target)

                for grid_name in self.plan.stage_order:
                    grid = next(g for g in self.spec.grids if g.name == grid_name)
                    if any(dep in failed_grids for dep in grid.depends_on):
                        failed_grids.add(grid_name)  # dependents of failures stay pending
                        continue
                    grid_jobs = self.plan.jobs_for_grid(grid_name)
                    pending = [job for job in grid_jobs if job.digest not in completed]
                    skipped += len(grid_jobs) - len(pending)
                    executed += self._run_grid(
                        target, grid_name, pending, completed, failures, failed_grids
                    )

                if not failures:
                    completed = self.runner.completed_digests()
                    if not any(job.digest not in completed for job in self.plan.jobs):
                        self.runner.write_report()
                        report_written = True
                nodes = self._fleet(target, refused)
            finally:
                self._root_span.finish(status="error" if failures else "ok")
                if gateway is not None:
                    gateway.close()

        self.stats = {
            "campaign": self.spec.name,
            "spec_digest": self.plan.spec_digest(),
            "run_dir": str(self.run_dir),
            "mode": "gateway" if self.gateway is not None else "dispatch",
            "trace_id": self._root_span.trace_id,
            "nodes": nodes,
            "total_cells": len(self.plan.jobs),
            "executed": executed,
            "skipped_checkpointed": skipped,
            "failed": len(failures),
            "report_written": report_written,
            "elapsed_seconds": timer.seconds,
            "client": self._client_summary(target),
        }
        _write_atomic(
            self.run_dir / "state.json",
            json.dumps(to_jsonable(self.stats), indent=2, sort_keys=True) + "\n",
        )
        if failures:
            raise CampaignRunError(failures)
        return self.stats

    def _client_summary(self, target: _Target) -> dict:
        """Retry/cooldown counts for the end-of-run summary.

        Tolerates client doubles without the retry tally (tests inject
        factories); real :class:`ServiceClient` instances always have it.
        """
        tally = getattr(target.client, "retries_by_reason", None) or {}
        return {
            "retries": sum(tally.values()),
            "retries_by_reason": dict(sorted(tally.items())),
            "cooldowns_429": self._cooldowns,
        }

    def _run_grid(
        self,
        target: _Target,
        grid_name: str,
        pending: list[CampaignJob],
        completed: set[str],
        failures: list[tuple[CampaignJob, str]],
        failed_grids: set[str],
    ) -> int:
        """Keep ``max_inflight`` of one grid's cells in flight; -> cells executed."""
        queue = [_Cell(job) for job in pending]
        outstanding: dict[str, _Cell] = {}  # digest -> in-flight cell
        executed = 0
        idle_sleep = self.poll_interval

        while queue or outstanding:
            while (
                queue
                and len(outstanding) < self.max_inflight
                and time.monotonic() >= target.cooldown_until
                and self._submit_cell(target, queue[0])
            ):
                cell = queue.pop(0)
                outstanding[cell.job.digest] = cell

            progressed = False
            for digest, cell in list(outstanding.items()):
                try:
                    record = target.client.job(cell.remote_id)
                    if record["state"] == "done":
                        record = target.client.result(cell.remote_id)
                except ServiceUnavailable as error:
                    cell.span.finish(error="no reachable node")
                    raise DispatchError(
                        f"no reachable service node left ({target.url}: {error})"
                    ) from None
                except ServiceRequestError as error:
                    # Usually the remote job store evicted this record (its
                    # finished history is bounded) and the result is still in
                    # the node's content-hash cache, so resubmitting is an
                    # instant hit.  Bounded, because a *persistent* error
                    # (e.g. a result the node cannot serialize is a 500 on
                    # every fetch) would otherwise livelock the dispatch.
                    del outstanding[digest]
                    progressed = True
                    if cell.attempts >= MAX_CELL_ATTEMPTS:
                        failures.append(
                            (cell.job,
                             f"gave up after {cell.attempts} attempt(s): {error}")
                        )
                        failed_grids.add(grid_name)
                        cell.span.finish(error=f"gave up after {cell.attempts} attempt(s)")
                    else:
                        queue.insert(0, cell)  # resubmitted ahead of fresh cells
                    continue
                if record["state"] not in _TERMINAL:
                    continue
                del outstanding[digest]
                progressed = True
                if record["state"] == "done":
                    self.runner.checkpoint(
                        cell.job, record["result"],
                        timing=self._cell_timing(target, cell, record),
                    )
                    completed.add(digest)
                    executed += 1
                    cell.span.set_attr("attempts", cell.attempts)
                    cell.span.finish()
                else:
                    failures.append(
                        (cell.job, record.get("error") or f"remote job {record['state']}")
                    )
                    failed_grids.add(grid_name)
                    cell.span.finish(error=f"remote job {record['state']}")
            if progressed:
                idle_sleep = self.poll_interval
            elif queue or outstanding:
                # Sweeps that find nothing back off (capped at 1s) so a grid
                # of slow cells is not polled at full tilt for minutes.
                time.sleep(idle_sleep)
                idle_sleep = min(idle_sleep * 1.5, 1.0)
        return executed


def dispatch_campaign(
    spec: dict | CampaignSpec,
    endpoints: list[str],
    run_dir: str | Path,
    **kwargs,
) -> dict:
    """Dispatch a campaign across ``endpoints`` and return the run stats."""
    from .spec import parse_spec

    if not isinstance(spec, CampaignSpec):
        spec = parse_spec(spec)
    return CampaignDispatcher(spec, endpoints, run_dir, **kwargs).run()
