"""Golden digests of every experiment and ablation payload.

``repro all --fast`` regenerates all 16 paper experiments; ``repro
ablations`` the five design-choice ablations.  Each payload's canonical JSON
(``json_payload``, sorted keys) is hashed with SHA-256 and compared against
``golden_payloads.json``, so any change to a number, a row or a table string
of any experiment fails here — not only the Figure 11/12/14 rows that
``perfbench/reference/`` pins.  Speed-ups must leave every digest unchanged.

After an *intended* change of output, re-record the digests with::

    PYTHONPATH=src python tests/test_golden_payloads.py

The whole fast run is computed once per module (~25 s).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.ablations import run_all_ablations
from repro.eval.experiments import SUITE_TASKS, json_payload, run_all

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_payloads.json"
SEED = 0

EXPERIMENTS = [name for task in SUITE_TASKS for name in task.split("+")]
ABLATIONS = ["group_size", "constant_bits", "beta", "sub_group", "channel_alignment"]


def payload_digest(result: dict) -> str:
    """SHA-256 of one result's canonical strict-JSON payload."""
    text = json.dumps(json_payload(result), sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def current_digests() -> dict[str, dict[str, str]]:
    experiments = run_all(fast=True, seed=SEED)
    ablations = run_all_ablations(seed=SEED)
    return {
        "experiments": {name: payload_digest(r) for name, r in experiments.items()},
        "ablations": {name: payload_digest(r) for name, r in ablations.items()},
    }


@pytest.fixture(scope="module")
def digests() -> dict[str, dict[str, str]]:
    return current_digests()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_experiment_and_ablation(golden):
    assert sorted(golden["experiments"]) == sorted(EXPERIMENTS)
    assert len(golden["experiments"]) == 16
    assert sorted(golden["ablations"]) == sorted(ABLATIONS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_payload_matches_golden(name, digests, golden):
    assert digests["experiments"][name] == golden["experiments"][name]


@pytest.mark.parametrize("name", ABLATIONS)
def test_ablation_payload_matches_golden(name, digests, golden):
    assert digests["ablations"][name] == golden["ablations"][name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=2, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN_PATH}")
