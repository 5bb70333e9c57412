#!/usr/bin/env python
"""CI chaos smoke: faults in the path, none in the artifacts.

Two in-process serve nodes run the same small campaign twice — once directly
(the fault-free reference) and once through a :class:`repro.chaos.ChaosProxy`
per node injecting connection resets, added latency, and forced 429s with a
pinned seed.  The proxies sit between the dispatcher's in-process gateway and
the nodes.  The dispatched report must come out byte-identical to the
reference: every injected fault is absorbed by the gateway's retries, health
pulls and failover and by Retry-After pacing, never by changing results.

A second stage corrupts a job journal three ways (mid-file garbage, a torn
final record, a checksum mismatch) and proves replay quarantines the bad
lines instead of aborting.

Exit code 0 when both hold; 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import parse_spec  # noqa: E402
from repro.campaign.dispatch import CampaignDispatcher  # noqa: E402
from repro.chaos import ChaosProxy  # noqa: E402
from repro.service import (  # noqa: E402
    JobJournal,
    ResultCache,
    ScenarioRegistry,
    WorkerPool,
    create_server,
)

SPEC = {
    "name": "chaos-smoke",
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
            "sweep": {"num_columns": [2, 4]},
            "depends_on": ["quant"],
        },
    ],
}


def dispatch(endpoints: list[str], run_dir: Path) -> dict:
    dispatcher = CampaignDispatcher(parse_spec(SPEC), endpoints, run_dir, poll_interval=0.02)
    return dispatcher.run()


def check_chaos_dispatch(base: Path) -> list[str]:
    failures: list[str] = []
    servers, threads, proxies = [], [], []
    for _ in range(2):
        server = create_server(port=0, max_workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    try:
        reference = dispatch(
            [f"http://127.0.0.1:{server.port}" for server in servers],
            base / "reference",
        )
        if not reference["report_written"] or reference["failed"]:
            failures.append(f"fault-free dispatch did not complete: {reference}")
            return failures

        for index, server in enumerate(servers):
            proxies.append(
                ChaosProxy(
                    upstream_port=server.port,
                    reset_p=0.15,
                    latency_p=0.3,
                    latency_s=0.01,
                    error_p=0.15,
                    error_status=429,
                    retry_after=0.02,
                    seed=1000 + index,
                ).start()
            )
        chaotic = dispatch([proxy.url for proxy in proxies], base / "chaotic")
        injected = {
            proxy.url: proxy.stats()["counts"] for proxy in proxies
        }
        print("chaos proxy fault counts:")
        for url, counts in injected.items():
            print(f"  {url}: {json.dumps(counts, sort_keys=True)}")
        if not any(
            kind != "forwarded" and count
            for counts in injected.values()
            for kind, count in counts.items()
        ):
            failures.append("the proxies injected no faults; the smoke proved nothing")
        if not chaotic["report_written"] or chaotic["failed"]:
            failures.append(f"chaotic dispatch did not complete: {chaotic}")
            return failures

        for name in ("report.json", "report.csv"):
            want = (base / "reference" / name).read_bytes()
            got = (base / "chaotic" / name).read_bytes()
            if want != got:
                failures.append(f"{name} differs between chaotic and fault-free runs")
            else:
                print(f"{name}: byte-identical through chaos ({len(got)} bytes)")
    finally:
        for proxy in proxies:
            proxy.stop()
        for server, thread in zip(servers, threads, strict=False):
            server.close()
            thread.join(timeout=10)
    return failures


def check_journal_quarantine(base: Path) -> list[str]:
    failures: list[str] = []
    journal_dir = base / "journal"
    registry = ScenarioRegistry()
    registry.add("echo", "echo", lambda value=0: {"value": value}, {"value": 0})

    journal = JobJournal(journal_dir)
    cache = ResultCache(directory=journal_dir / "cache")
    pool = WorkerPool(registry, cache=cache, max_workers=2, journal=journal)
    for value in range(3):
        pool.run("echo", {"value": value}, timeout=30)
    pool.shutdown()
    journal.close()

    path = journal_dir / "journal.jsonl"
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[0])
    tampered["type"] = "tampered"
    with path.open("w") as handle:
        for line in lines:
            handle.write(line + "\n")
        handle.write("journal corruption smoke: not json\n")
        handle.write(json.dumps(tampered) + "\n")
        handle.write('{"event": "submit", "job_id": "job-9')  # torn final record

    registry2 = ScenarioRegistry()
    registry2.add("echo", "echo", lambda value=0: {"value": value}, {"value": 0})
    journal2 = JobJournal(journal_dir)
    pool2 = WorkerPool(
        registry2, cache=ResultCache(directory=journal_dir / "cache"),
        max_workers=2, journal=journal2,
    )
    stats = journal2.replay(pool2)
    pool2.shutdown()
    journal2.close()
    print(f"journal replay under corruption: {json.dumps(stats, sort_keys=True)}")

    if stats["quarantined"] != 3:
        failures.append(f"expected 3 quarantined lines, got {stats['quarantined']}")
    if stats["completed"] != 3:
        failures.append(f"expected 3 completed replays, got {stats['completed']}")
    quarantine = journal_dir / "journal.quarantine.jsonl"
    if not quarantine.exists():
        failures.append("journal.quarantine.jsonl was never written")
    else:
        reasons = sorted(
            json.loads(line)["reason"] for line in quarantine.read_text().splitlines()
        )
        if reasons != ["checksum_mismatch", "truncated", "unparseable"]:
            failures.append(f"unexpected quarantine reasons: {reasons}")
    return failures


def main() -> int:
    import tempfile

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        base = Path(tmp)
        failures += check_chaos_dispatch(base)
        failures += check_journal_quarantine(base)
    if failures:
        print("\nchaos smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nchaos smoke passed: faults injected, artifacts unchanged, "
          "corruption quarantined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
