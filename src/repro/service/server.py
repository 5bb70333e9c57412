"""Pure-stdlib HTTP/JSON API over the worker pool.

Built on ``http.server.ThreadingHTTPServer`` so the service needs nothing the
repository does not already depend on.  The API is versioned: every endpoint
lives under the ``/v1/`` prefix, and any other path is a 404.  The handler
plumbing (envelopes, body limits, span/timing, probe routes) is the kit in
:mod:`repro.service.http`, shared with the gateway.

========  =========================  ==============================================
Method    Path (under ``/v1``)       Meaning
========  =========================  ==============================================
GET       /v1/health                 liveness + uptime + pool stats
GET       /v1/healthz                bare liveness probe (always 200)
GET       /v1/readyz                 readiness: 503 until journal replay is
                                     done and 503 again while draining
GET       /v1/scenarios              the registry's job types and their canonical
                                     default parameters (pre-submit validation)
GET       /v1/codecs                 codec discovery: names, versions, and
                                     parameter schemas (see :mod:`repro.codecs`)
GET       /v1/cache/stats            cache hit/miss/eviction counters
GET       /v1/jobs                   job summaries (``?state=``, ``?offset=``,
                                     ``?limit=`` filter and paginate)
GET       /v1/jobs/<id>              one job's status (no result)
GET       /v1/jobs/<id>/result       finished job's full record incl. result
GET       /v1/jobs/<id>/trace        the job's span tree (see :mod:`repro.obs`)
GET       /v1/metrics                Prometheus text exposition of the process
                                     metrics registry (``?format=json`` for JSON)
POST      /v1/jobs                   submit ``{"type": ..., "params": {...}}``
POST      /v1/jobs/<id>/cancel       cancel a still-queued job
POST      /v1/compress               compress with a registered codec/pipeline
                                     (validated, then a ``codec_compress`` job)
POST      /v1/campaign               submit a declarative campaign spec
========  =========================  ==============================================

``POST /v1/compress`` accepts ``{"codec": ..., "params": {...}}`` or
``{"stages": [...]}`` plus optional tensor-source fields
(``rows``/``cols``/``seed``/``scale``); the codec name and parameters are
validated against the codec registry before submission, so typos are a 400,
not a failed job.

``POST /v1/campaign`` accepts either a campaign spec object directly or
``{"spec": {...}, "jobs": N}``; the spec is validated before submission (bad
specs are a 400, not a failed job) and the job's result is the campaign's
aggregate report.

``POST /v1/jobs?wait=<seconds>`` blocks (bounded) until the job finishes and
then includes the result — handy for synchronous clients; everyone else polls
``/v1/jobs/<id>``.  Responses are strict JSON (no NaN), UTF-8 encoded.

Every failure mode answers with a JSON error envelope: malformed bodies,
headers, and query parameters are 4xx, a saturated queue is 429, and any
unexpected handler exception is a 500 — never an HTML traceback, and never a
silently dropped keep-alive connection.
"""

from __future__ import annotations

import time
from urllib.parse import parse_qs

from ..core.cache import ResultCache
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..obs.trace import TraceLog
from .http import (
    API_VERSION,
    HTTPError,
    JSONRequestHandler,
    JSONServer,
    parse_deadline,
    parse_wait,
    retry_after,
)
from .jobs import JobState
from .journal import JobJournal
from .registry import ScenarioRegistry, build_default_registry
from .workers import QueueFullError, WorkerPool

__all__ = [
    "API_VERSION",
    "ReproServer",
    "V1_ROUTES",
    "canonicalize_campaign",
    "canonicalize_compress",
    "canonicalize_job",
    "canonicalize_submission",
    "create_server",
]

#: The versioned route table — the public API surface contract.  The
#: ``scripts/check_api_surface.py`` CI guard snapshots this list, so adding,
#: removing, or renaming a route is an explicit, reviewed change.
V1_ROUTES = (
    "GET /v1/cache/stats",
    "GET /v1/codecs",
    "GET /v1/health",
    "GET /v1/healthz",
    "GET /v1/jobs",
    "GET /v1/jobs/<id>",
    "GET /v1/jobs/<id>/result",
    "GET /v1/jobs/<id>/trace",
    "GET /v1/metrics",
    "GET /v1/readyz",
    "GET /v1/results",
    "GET /v1/results/<digest>",
    "GET /v1/scenarios",
    "POST /v1/campaign",
    "POST /v1/compress",
    "POST /v1/jobs",
    "POST /v1/jobs/<id>/cancel",
)

_OBS = get_metrics()
_HTTP_REQUESTS = _OBS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route pattern, and status code.",
    ("method", "route", "status"),
)
_HTTP_SECONDS = _OBS.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency per route pattern.",
    ("route",),
)

def canonicalize_compress(body: dict) -> tuple[dict, float | None]:
    """Validate one ``POST /v1/compress`` body -> ``(submission, deadline_s)``.

    The codec name, its parameters, and any pipeline stage list are validated
    against the codec registry, and the *canonicalized* forms (defaults
    merged in) are returned, so a sparse body, a spelled-out one, and a
    campaign ``codec:`` cell of the same work all land on one content digest.
    Shared by the service's compress route and the gateway front door (which
    must compute the digest *before* choosing a node).  Raises ``ValueError``
    on anything malformed.
    """
    from .. import codecs

    allowed = {"codec", "params", "stages", "deadline_s", *codecs.TENSOR_SOURCE_PARAMS}
    deadline_s = parse_deadline(body)
    body = {key: value for key, value in body.items() if key != "deadline_s"}
    unknown = set(body) - allowed
    if unknown:
        raise ValueError(f"unknown compress field(s) {sorted(unknown)}")
    stages = body.get("stages")
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ValueError('"params" must be a JSON object')
    codec = body.get("codec")
    if stages is not None:
        if params:
            raise ValueError(
                '"stages" implies the pipeline codec; move "params" into '
                "the stage objects"
            )
        if codec not in (None, "pipeline"):
            raise ValueError(
                '"stages" implies the pipeline codec; drop the "codec" field'
            )
        codec, stages = "pipeline", codecs.validate_stages(stages)
    else:
        if not isinstance(codec, str) or not codec:
            raise ValueError(
                'missing or non-string "codec" field (GET /v1/codecs lists them)'
            )
        declared = codecs.get_codec(codec)
        # A tensor-source key that is also a codec parameter (e.g.
        # noisyquant's "seed") feeds both, matching campaign codec: grids —
        # one value drives the synthetic tensor and the codec alike.  An
        # explicit entry in "params" still wins.
        shared = {
            key: body[key]
            for key in codecs.TENSOR_SOURCE_PARAMS
            if key in body and key in declared.defaults and key not in params
        }
        params = declared.validate_params({**shared, **params})

    submission: dict = {"codec": codec, "params": params, "stages": stages}
    for key in codecs.TENSOR_SOURCE_PARAMS:
        if key in body:
            submission[key] = body[key]
    return submission, deadline_s


def canonicalize_campaign(body: dict, registry: ScenarioRegistry) -> tuple[dict, float | None]:
    """Validate one ``POST /v1/campaign`` body -> ``(params, deadline_s)``.

    The body is either the spec itself or ``{"spec": ..., "jobs": N}``;
    validation (including expansion against ``registry``, which catches
    unknown scenarios and parameter typos) runs here so malformed specs fail
    the request, not the job.  Shared by the service's campaign route and the
    gateway front door.  Raises ``ValueError`` on anything malformed.
    """
    from ..campaign import CampaignSpecError, expand_spec, parse_spec

    deadline_s = None
    if "spec" in body:
        spec, jobs = body.get("spec"), body.get("jobs", 1)
        unknown = set(body) - {"spec", "jobs", "deadline_s"}
        if unknown:
            raise ValueError(f"unknown campaign field(s) {sorted(unknown)}")
        deadline_s = parse_deadline(body)
    else:
        spec, jobs = body, 1
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError('"jobs" must be a positive integer')
    try:
        expand_spec(parse_spec(spec), registry=registry)
    except CampaignSpecError as error:
        raise ValueError(f"invalid campaign spec: {error}") from None
    return {"spec": spec, "jobs": jobs}, deadline_s


def canonicalize_job(body: dict) -> tuple[str, dict, float | None]:
    """Validate one ``POST /v1/jobs`` body -> ``(job_type, params, deadline_s)``.

    Checks the body's shape only; whether ``type`` names a registered
    scenario is the registry's call at submit time.  Raises ``ValueError``
    on anything malformed.
    """
    job_type = body.get("type")
    if not isinstance(job_type, str):
        raise ValueError('missing or non-string "type" field')
    params = body.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValueError('"params" must be a JSON object')
    unknown = set(body) - {"type", "params", "deadline_s"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}")
    return job_type, params, parse_deadline(body)


def canonicalize_submission(
    route: str, body: dict, registry: ScenarioRegistry
) -> tuple[str, dict, float | None]:
    """Validate a ``POST /v1/<route>`` submission (``jobs``, ``compress`` or
    ``campaign``) -> ``(job_type, params, deadline_s)``.

    The one entry point the node's submit routes and the gateway front door
    share.  Raises ``ValueError`` on anything malformed.
    """
    if route == "compress":
        params, deadline_s = canonicalize_compress(body)
        return "codec_compress", params, deadline_s
    if route == "campaign":
        params, deadline_s = canonicalize_campaign(body, registry)
        return "campaign", params, deadline_s
    return canonicalize_job(body)


class _RequestHandler(JSONRequestHandler):
    server: "ReproServer"
    server_version = "repro-service/1.0"
    span_name = "http.request"
    routes = frozenset(V1_ROUTES)
    id_roots = {"jobs": "<id>", "results": "<digest>"}
    chaos_point = "server.request"

    def _record(self, route_label: str, status: int, seconds: float) -> None:
        _HTTP_SECONDS.observe(seconds, route=route_label)
        _HTTP_REQUESTS.inc(method=self.command, route=route_label, status=str(status))

    def _error_reply(self, error: Exception):
        if isinstance(error, QueueFullError):
            return (
                429,
                {
                    "error": str(error),
                    "max_queued": error.limit,
                    "retry_after": error.retry_after,
                },
                retry_after(error.retry_after),
            )
        return None

    def _not_ready_reason(self) -> str | None:
        # Jobs submitted before a restart are not visible until journal
        # replay has finished.
        return None if self.server.ready else "replaying journal"

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def _get(self, url, parts: list[str]) -> None:
        pool = self.server.pool
        if parts == ["health"]:
            self._send_json(
                200,
                {
                    "status": "ok",
                    "api_version": API_VERSION,
                    "uptime_seconds": time.time() - self.server.started_at,
                    "scenarios": len(self.server.registry),
                    "journal": self.server.journal is not None,
                    "pool": pool.stats(),
                },
            )
        elif parts == ["cache", "stats"]:
            self._send_json(200, pool.cache.stats())
        elif parts == ["jobs"]:
            self._send_json(200, self._list_jobs(url.query))
        elif parts == ["results"]:
            self._send_json(200, self._list_results(url.query))
        elif len(parts) == 2 and parts[0] == "results":
            self._send_result_detail(parts[1])
        elif len(parts) in (2, 3) and parts[0] == "jobs":
            job = pool.store.get(parts[1])
            if job is None:
                self._send_json(404, {"error": f"no such job {parts[1]!r}"})
            elif len(parts) == 2:
                self._send_json(200, job.to_dict())
            elif parts[2] == "result":
                if not job.state.finished:
                    # The envelope's "error" must win over the job record's
                    # (None) error field, so it is merged last.
                    self._send_json(409, {**job.to_dict(), "error": "job not finished"})
                else:
                    self._send_json(200, job.to_dict(include_result=True))
            elif parts[2] == "trace":
                self._send_job_trace(job)
            else:
                super()._get(url, parts)
        else:
            super()._get(url, parts)

    def _send_job_trace(self, job) -> None:
        """``GET /v1/jobs/<id>/trace``: the job's span tree, best-effort.

        Spans come from the in-memory ring buffer, so a very old job may
        answer with an empty tree — the trace id is still returned so the
        caller can grep the JSONL trace log.
        """
        spans = (
            self.server.recorder.buffer.spans_for_trace(job.trace_id)
            if job.trace_id
            else []
        )
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "trace_id": job.trace_id,
                "state": job.state.value,
                "span_count": len(spans),
                "trace": obs_trace.build_span_tree(spans),
            },
        )

    def _post(self, url, parts: list[str], raw: bytes) -> None:
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._cancel_job(parts[1])
        elif parts in (["jobs"], ["campaign"], ["compress"]):
            self._submit(parts[0], url.query, raw)
        else:
            super()._post(url, parts, raw)

    def _submit(self, route: str, query_string: str, raw: bytes) -> None:
        """Validate and enqueue one ``POST /v1/{jobs,compress,campaign}``.

        Validation happens in :func:`canonicalize_submission`, so an unknown
        job type, codec or scenario, or a parameter typo, is a 400 on the
        request instead of a FAILED job.
        """
        wait_seconds = parse_wait(query_string)
        body = self._parse_json_body(raw)
        pool = self.server.pool
        try:
            job_type, params, deadline_s = canonicalize_submission(
                route, body, pool.registry
            )
            job = pool.submit(job_type, params, deadline_s=deadline_s)
        except ValueError as error:
            raise HTTPError(400, str(error)) from None
        if wait_seconds is not None:
            job.wait(wait_seconds)
        status = 200 if job.state.finished else 202
        self._send_json(status, job.to_dict(include_result=job.state is JobState.DONE))

    def _cancel_job(self, job_id: str) -> None:
        job = self.server.pool.cancel(job_id)
        if job is None:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
        elif job.state is JobState.CANCELLED:
            self._send_json(200, job.to_dict())
        else:
            self._send_json(
                409,
                {
                    **job.to_dict(),
                    "error": f"job {job_id!r} could not be cancelled "
                    f"(state: {job.state.value}; a job is cancellable only "
                    "until a worker picks it up)",
                },
            )

    def _list_jobs(self, query_string: str) -> dict:
        """``GET /jobs`` with optional ``state``/``digest``/``offset``/``limit``.

        ``digest=`` filters to the jobs with that exact content digest — the
        reconcile hook for a client whose submit timed out after the server
        accepted it (and the gateway's cross-node job lookup).
        """
        query = parse_qs(query_string)
        state: JobState | None = None
        if "state" in query:
            try:
                state = JobState(query["state"][0])
            except ValueError:
                choices = sorted(s.value for s in JobState)
                raise HTTPError(
                    400, f'invalid "state" {query["state"][0]!r}; one of {choices}'
                ) from None
        offset = self._parse_non_negative_int(query, "offset", 0)
        limit = self._parse_non_negative_int(query, "limit", None)
        jobs = self.server.pool.store.jobs(state=state)
        if "digest" in query:
            digest = query["digest"][0]
            jobs = [job for job in jobs if job.digest == digest]
        window = jobs[offset:] if limit is None else jobs[offset:offset + limit]
        return {
            "jobs": [job.to_dict() for job in window],
            "total": len(jobs),
            "offset": offset,
            "limit": limit,
        }

    @staticmethod
    def _parse_non_negative_int(query: dict, key: str, default):
        if key not in query:
            return default
        try:
            value = int(query[key][0])
        except ValueError:
            raise HTTPError(400, f'invalid "{key}" value {query[key][0]!r}') from None
        if value < 0:
            raise HTTPError(400, f'"{key}" must be >= 0, got {value}')
        return value

    def _warehouse_connection(self):
        """Open the configured warehouse read-only, or fail with an envelope.

        A fresh connection per request: :mod:`sqlite3` connections are not
        shareable across handler threads, and read-only open is cheap.  No
        warehouse configured (or none ingested yet) answers 503 — the server
        is fine, the analytics backend just is not there.
        """
        from .. import warehouse

        path = self.server.warehouse_path
        if path is None:
            raise HTTPError(
                503, "no warehouse configured; start the server with --warehouse PATH"
            )
        try:
            return warehouse.connect_readonly(path)
        except FileNotFoundError:
            raise HTTPError(
                503,
                f"warehouse database {path} does not exist yet; "
                "run `repro warehouse ingest` first",
            ) from None
        except warehouse.SchemaError as error:
            raise HTTPError(500, str(error)) from None

    def _list_results(self, query_string: str) -> dict:
        """``GET /v1/results``: filtered warehouse rows, paginated like /v1/jobs.

        Query parameters: repeatable ``where=NAME OP VALUE`` filters,
        ``sort``/``order`` (``asc``/``desc``), ``offset``/``limit``, and an
        optional comma-separated ``columns`` restriction.  Bad parameters
        answer 400 with the standard error envelope.
        """
        from .. import warehouse

        query = parse_qs(query_string)
        unknown = set(query) - {"where", "sort", "order", "offset", "limit", "columns"}
        if unknown:
            raise HTTPError(400, f"unknown query parameter(s) {sorted(unknown)}")
        order = query.get("order", ["asc"])[0]
        if order not in ("asc", "desc"):
            raise HTTPError(400, f'invalid "order" {order!r}; one of ["asc", "desc"]')
        offset = self._parse_non_negative_int(query, "offset", 0)
        limit = self._parse_non_negative_int(query, "limit", None)
        columns = None
        if "columns" in query:
            columns = [c.strip() for c in query["columns"][0].split(",") if c.strip()]
            if not columns:
                raise HTTPError(400, '"columns" must name at least one column')
        try:
            filters = warehouse.parse_filters(query.get("where", []))
        except warehouse.QueryError as error:
            raise HTTPError(400, str(error)) from None
        conn = self._warehouse_connection()
        try:
            rows, total = warehouse.query_cells(
                conn,
                filters,
                sort=query.get("sort", [None])[0],
                descending=order == "desc",
                offset=offset,
                limit=limit,
                columns=columns,
            )
        except warehouse.QueryError as error:
            raise HTTPError(400, str(error)) from None
        finally:
            conn.close()
        return {"results": rows, "total": total, "offset": offset, "limit": limit}

    def _send_result_detail(self, digest: str) -> None:
        """``GET /v1/results/<digest>``: one cell's full warehouse record."""
        from .. import warehouse

        conn = self._warehouse_connection()
        try:
            record = warehouse.cell_detail(conn, digest)
        finally:
            conn.close()
        if record is None:
            self._send_json(404, {"error": f"no such result {digest!r}"})
        else:
            self._send_json(200, record)


class ReproServer(JSONServer):
    """HTTP server owning the registry, cache, worker pool, and journal."""

    def __init__(
        self,
        address: tuple[str, int],
        registry: ScenarioRegistry,
        cache: ResultCache,
        max_workers: int = 2,
        use_processes: bool = False,
        verbose: bool = False,
        max_queued: int | None = None,
        journal: JobJournal | None = None,
        trace_log: TraceLog | None = None,
        warehouse_path: str | None = None,
    ):
        super().__init__(address, _RequestHandler)
        self.registry = registry
        self.journal = journal
        #: Readiness state surfaced by ``GET /v1/readyz``: not ready until
        #: journal replay finished, and never again once a drain began.
        self.ready = False
        self.draining = False
        #: Where ``GET /v1/results`` reads from (read-only); ``None`` -> 503.
        self.warehouse_path = warehouse_path
        # Spans already flow to the process-wide in-memory ring; a trace log
        # additionally persists them as JSONL next to the journal.
        self.recorder = obs_trace.get_recorder()
        self.trace_log = trace_log
        if trace_log is not None:
            self.recorder.add_sink(trace_log)
        self.pool = WorkerPool(
            registry,
            cache=cache,
            max_workers=max_workers,
            use_processes=use_processes,
            max_queued=max_queued,
            journal=journal,
        )
        self.replay_stats: dict | None = None
        if journal is not None:
            self.replay_stats = journal.replay(self.pool)
        self.ready = True
        self.started_at = time.time()
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]

    def begin_drain(self) -> None:
        """Flip ``GET /v1/readyz`` to 503 ahead of a graceful shutdown.

        Called by the CLI's signal handler *before* the listener stops, so a
        registry or load balancer polling readyz sees "draining" while the
        node still answers, instead of a hard connection refusal.
        """
        self.draining = True

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        ``wait=False`` abandons in-flight jobs instead of draining them
        (the CLI uses this so Ctrl-C exits promptly).
        """
        self.stop_listening()
        self.pool.shutdown(wait=wait)
        if self.journal is not None:
            self.journal.close()
        if self.trace_log is not None:
            self.recorder.remove_sink(self.trace_log)

    def graceful_close(self) -> dict:
        """SIGTERM path: drain what is running, requeue-by-journal the rest.

        Stops accepting new connections, lets already-running jobs finish,
        cancels still-queued futures (those jobs stay QUEUED — with a journal
        attached their submit lines carry no finish line, so the next start
        re-enqueues them), then flushes and closes the journal and trace log.
        Returns ``{"inflight": ..., "drained": ..., "requeued": ...}`` so the
        CLI can report what happened to in-flight work.
        """
        self.draining = True
        with self.pool._lock:
            inflight = len(self.pool._inflight)
        self.stop_listening()
        self.pool.shutdown(wait=True, cancel_pending=True)
        counts = self.pool.store.counts()
        requeued = counts.get("queued", 0) + counts.get("running", 0)
        if self.journal is not None:
            self.journal.close()
        if self.trace_log is not None:
            self.recorder.remove_sink(self.trace_log)
        return {
            "inflight": inflight,
            "drained": max(inflight - requeued, 0),
            "requeued": requeued,
            "journaled": self.journal is not None,
        }


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    registry: ScenarioRegistry | None = None,
    cache: ResultCache | None = None,
    max_workers: int = 2,
    cache_size: int = 256,
    cache_dir: str | None = None,
    use_processes: bool = False,
    verbose: bool = False,
    max_queued: int | None = None,
    journal_dir: str | None = None,
    warehouse_path: str | None = None,
) -> ReproServer:
    """Build a ready-to-serve :class:`ReproServer` (``port=0`` -> ephemeral).

    ``use_processes=True`` runs jobs on worker processes (the compression
    workloads are partly GIL-bound); process workers rebuild the *default*
    registry, so combine it with a custom ``registry`` only if that registry
    is the default one.

    ``journal_dir`` makes the service durable: jobs are journaled to
    ``<journal_dir>/journal.jsonl`` and replayed on startup, and — unless an
    explicit ``cache``/``cache_dir`` says otherwise — cached results persist
    under ``<journal_dir>/cache`` so replayed jobs keep their payloads.
    Finished trace spans are appended to ``<journal_dir>/trace.jsonl``
    alongside it.

    ``warehouse_path`` points ``GET /v1/results`` at a results warehouse
    (read-only); with a journal but no explicit path it defaults to
    ``<journal_dir>/warehouse.sqlite``, so ``repro warehouse ingest`` into a
    node's journal directory is immediately queryable from that node.
    """
    if registry is None:
        registry = build_default_registry()
    journal = JobJournal(journal_dir) if journal_dir is not None else None
    trace_log = (
        TraceLog(journal.directory / "trace.jsonl") if journal is not None else None
    )
    if cache is None:
        if cache_dir is None and journal is not None:
            cache_dir = str(journal.directory / "cache")
        cache = ResultCache(max_entries=cache_size, directory=cache_dir)
    if warehouse_path is None and journal is not None:
        warehouse_path = str(journal.directory / "warehouse.sqlite")
    return ReproServer(
        (host, port),
        registry,
        cache,
        max_workers=max_workers,
        use_processes=use_processes,
        verbose=verbose,
        max_queued=max_queued,
        journal=journal,
        trace_log=trace_log,
        warehouse_path=warehouse_path,
    )
