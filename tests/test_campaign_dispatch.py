"""Tests for federated campaign dispatch across remote serve nodes.

The load-bearing property: a campaign dispatched over N nodes — including
after node loss and across resume boundaries — produces ``report.json`` /
``report.csv`` byte-identical to the same campaign run locally.  Node
endpoints are fronted by the dispatcher's in-process gateway, so placement,
failover and skew refusal here are the gateway's.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign import CampaignRunner, parse_spec
from repro.campaign.dispatch import CampaignDispatcher, DispatchError
from repro.service import create_server
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.registry import ScenarioRegistry, build_default_registry

#: Six fast deterministic cells across a two-grid DAG.
SPEC = {
    "name": "dispatch-test",
    "grids": [
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 16, "cols": 64, "backend": "ptq"},
            "sweep": {"bits": [4, 6, 8]},
        },
        {
            "name": "prune",
            "scenario": "prune_tensor",
            "params": {"rows": 32, "cols": 128},
            "sweep": {"num_columns": [2, 4, 6]},
            "depends_on": ["quant"],
        },
    ],
}


def serve(registry=None, **kwargs):
    """Start one in-process node; -> (server, url)."""
    server = create_server(port=0, registry=registry, **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.port}"


@pytest.fixture(scope="module")
def fleet():
    servers = [serve(max_workers=2) for _ in range(2)]
    yield [url for _, url in servers]
    for server, _ in servers:
        server.close()


@pytest.fixture(scope="module")
def local_reports(tmp_path_factory):
    """The reference run: the same campaign executed by the local runner."""
    run_dir = tmp_path_factory.mktemp("local-reference")
    runner = CampaignRunner(parse_spec(SPEC), run_dir, jobs=2)
    runner.run()
    return (
        (run_dir / "report.json").read_bytes(),
        (run_dir / "report.csv").read_bytes(),
    )


def fast_client(url, **kwargs):
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff", 0.01)
    kwargs.setdefault("timeout", 30.0)
    return ServiceClient(url, **kwargs)


def states(stats) -> dict[str, str]:
    return {node["url"]: node["state"] for node in stats["nodes"]}


class TestTwoNodeDispatch:
    def test_report_is_byte_identical_to_local_run(self, fleet, local_reports, tmp_path):
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        stats = dispatcher.run()
        assert stats["report_written"] and stats["failed"] == 0
        assert stats["executed"] + stats["skipped_checkpointed"] == 6
        assert states(stats) == dict.fromkeys(fleet, "healthy")
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]
        assert (tmp_path / "run/report.csv").read_bytes() == local_reports[1]

    def test_dispatch_resumes_from_checkpoints(self, fleet, local_reports, tmp_path):
        run_dir = tmp_path / "resumable"
        spec = parse_spec(SPEC)
        # Partially complete the campaign locally (2 cells), then dispatch
        # the remainder into the same run directory.
        partial = CampaignRunner(spec, run_dir, jobs=1, max_jobs=2)
        stats = partial.run()
        assert stats["interrupted"] and stats["executed"] == 2

        dispatcher = CampaignDispatcher(
            spec, fleet, run_dir, poll_interval=0.02, client_factory=fast_client
        )
        stats = dispatcher.run()
        assert stats["skipped_checkpointed"] == 2
        assert stats["executed"] == 4
        assert stats["report_written"]
        assert (run_dir / "report.json").read_bytes() == local_reports[0]
        assert (run_dir / "report.csv").read_bytes() == local_reports[1]

    def test_dispatch_tolerates_dead_node_at_start(self, fleet, local_reports, tmp_path):
        endpoints = ["http://127.0.0.1:1", *fleet]  # port 1: connection refused
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), endpoints, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        stats = dispatcher.run()
        assert stats["report_written"]
        dead = next(n for n in stats["nodes"] if n["url"] == "http://127.0.0.1:1")
        assert dead["state"] == "refused" and "unreachable" in dead["reason"]
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]


def nap_registry() -> ScenarioRegistry:
    """One deterministic scenario slow enough for a node to die mid-cell."""
    registry = ScenarioRegistry()
    registry.add(
        "nap", "sleep, then echo",
        lambda seconds=0.0, value=0: time.sleep(seconds) or {"value": value},
        {"seconds": 0.0, "value": 0},
    )
    return registry


NAP_SPEC = {
    "name": "node-loss",
    "grids": [
        {
            "name": "naps",
            "scenario": "nap",
            "params": {"seconds": 0.3},
            "sweep": {"value": list(range(8))},
        }
    ],
}


class TestNodeLossMidRun:
    def test_cells_fail_over_when_a_node_closes_mid_run(self, tmp_path):
        registry = nap_registry()
        nodes = [serve(registry, max_workers=1) for _ in range(2)]
        run_dir = tmp_path / "run"
        dispatcher = CampaignDispatcher(
            parse_spec(NAP_SPEC), [url for _, url in nodes], run_dir,
            registry=registry, poll_interval=0.02, client_factory=fast_client,
        )
        lost: list[str] = []

        def assassin():
            # Once a cell is checkpointed, close a node that still holds
            # work, abandoning its in-flight job.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not lost:
                if any((run_dir / "results").glob("*.json")):
                    for server, url in nodes:
                        if server.pool.stats()["inflight"]:
                            server.close(wait=False)
                            lost.append(url)
                            return
                time.sleep(0.01)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        try:
            stats = dispatcher.run()
        finally:
            thread.join(timeout=10)
            for server, url in nodes:
                if url not in lost:
                    server.close()
        assert lost, "no node held work once the first cell finished"
        assert stats["report_written"] and stats["failed"] == 0
        (survivor,) = [url for _, url in nodes if url not in lost]
        assert states(stats) == {lost[0]: "dead", survivor: "healthy"}
        local_dir = tmp_path / "local"
        CampaignRunner(parse_spec(NAP_SPEC), local_dir, jobs=2, registry=registry).run()
        for name in ("report.json", "report.csv"):
            assert (run_dir / name).read_bytes() == (local_dir / name).read_bytes()

    def test_all_nodes_dead_raises_dispatch_error(self, tmp_path):
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC),
            ["http://127.0.0.1:1", "http://127.0.0.1:2"],
            tmp_path / "run",
        )
        with pytest.raises(DispatchError, match="no reachable service node"):
            dispatcher.run()
        # The run directory is prepared, so a later dispatch/run can resume.
        assert (tmp_path / "run" / "manifest.json").is_file()

    def test_registry_skew_refuses_the_node(self, fleet, local_reports, tmp_path):
        registry = build_default_registry()
        registry.add("extra", "a scenario the plan's registry lacks", lambda: 0)
        server, skewed_url = serve(registry, max_workers=1)
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(SPEC), [skewed_url, fleet[0]], tmp_path / "run",
                poll_interval=0.02, client_factory=fast_client,
            )
            stats = dispatcher.run()
        finally:
            server.close()
        skewed = next(n for n in stats["nodes"] if n["url"] == skewed_url)
        assert skewed["state"] == "refused" and "registry skew" in skewed["reason"]
        assert stats["report_written"]
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]


class TestBackpressureAndLivelock:
    def test_saturated_node_is_not_marked_dead(self, tmp_path, local_reports):
        # One node whose queue bound is far below the dispatch window: 429s
        # are backpressure, not node loss — the dispatch must still finish.
        server, url = serve(max_workers=1, max_queued=2)
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(SPEC), [url], tmp_path / "run",
                poll_interval=0.02,
                max_inflight=6,
                client_factory=lambda url, **kw: ServiceClient(
                    url, retries=1, backoff=0.01
                ),
            )
            stats = dispatcher.run()
        finally:
            server.close()
        assert stats["report_written"]
        assert states(stats) == {url: "healthy"}, "a busy node must never be declared dead"
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]

    def test_window_recovers_after_a_saturated_submit(self, fleet, tmp_path):
        # One 429 on the very first submit used to shrink the window to 1
        # for the rest of the campaign; the cooldown alone must pause it.
        inflight: set[str] = set()
        peak = {"inflight": 0, "saturations": 0}

        def saturating_once(url, **kwargs):
            client = fast_client(url, **kwargs)
            real_submit, real_job = client.submit, client.job

            def submit(*args, **kw):
                if peak["saturations"] == 0:
                    peak["saturations"] += 1
                    raise ServiceUnavailable(url, 1, "HTTP 429", saturated=True)
                record = real_submit(*args, **kw)
                inflight.add(record["job_id"])
                peak["inflight"] = max(peak["inflight"], len(inflight))
                return record

            def job(job_id):
                record = real_job(job_id)
                if record["state"] in ("done", "failed", "cancelled"):
                    inflight.discard(job_id)
                return record

            client.submit, client.job = submit, job
            return client

        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet[:1], tmp_path / "run",
            poll_interval=0.02, max_inflight=3, client_factory=saturating_once,
        )
        stats = dispatcher.run()
        assert stats["report_written"]
        assert stats["client"]["cooldowns_429"] == 1
        assert peak["inflight"] == 3

    def test_persistent_result_error_fails_the_cell_not_the_loop(self, fleet, tmp_path):
        from repro.service.client import ServiceRequestError

        def poisoned_factory(url, **kwargs):
            client = fast_client(url, **kwargs)

            def result(job_id):
                raise ServiceRequestError(500, {"error": "poisoned"}, url)

            client.result = result
            return client

        from repro.campaign import CampaignRunError

        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet[:1], tmp_path / "run",
            poll_interval=0.01, client_factory=poisoned_factory,
        )
        with pytest.raises(CampaignRunError):
            dispatcher.run()
        assert dispatcher.stats["failed"] >= 1
        # Bounded retries, not a livelock: the run ended and recorded stats.


class TestGatewayProbe:
    def test_gateway_on_another_registry_is_refused(self, tmp_path):
        from repro.gateway import create_gateway

        registry = build_default_registry()
        registry.add("extra", "a scenario the plan's registry lacks", lambda: 0)
        gateway = create_gateway(port=0, registry=registry)
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(SPEC), [], tmp_path / "run",
                gateway=f"http://127.0.0.1:{gateway.port}",
            )
            with pytest.raises(DispatchError, match="registry skew"):
                dispatcher.run()
        finally:
            gateway.close()

    def test_plain_node_is_not_a_gateway(self, fleet, tmp_path):
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), [], tmp_path / "run", gateway=fleet[0]
        )
        with pytest.raises(DispatchError, match="not a gateway"):
            dispatcher.run()


class TestDispatcherValidation:
    def test_requires_at_least_one_endpoint(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            CampaignDispatcher(parse_spec(SPEC), [], tmp_path / "run")

    def test_rejects_non_positive_window(self, tmp_path):
        with pytest.raises(ValueError, match="max_inflight"):
            CampaignDispatcher(
                parse_spec(SPEC), ["http://x"], tmp_path / "run", max_inflight=0
            )
