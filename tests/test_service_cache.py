"""Tests for the content-hash result cache and the stable digests behind it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CONSERVATIVE_PRESET,
    PruningStrategy,
    prune_tensor,
    stable_digest,
    tensor_digest,
)
from repro.service import ResultCache
from repro.service.workers import job_digest


class TestStableDigest:
    def test_deterministic_across_calls(self):
        value = {"seed": 0, "models": ["ResNet-50", "ViT-Small"], "beta": 0.2}
        assert stable_digest(value) == stable_digest(dict(value))

    def test_dict_insertion_order_is_irrelevant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(None) != stable_digest("None")
        assert stable_digest([1, 2]) != stable_digest((1, 2))

    def test_nested_structure_matters(self):
        assert stable_digest(["ab", "c"]) != stable_digest(["a", "bc"])
        assert stable_digest({"a": {"b": 1}}) != stable_digest({"a": {"b": 2}})

    def test_ndarray_contents_shape_and_dtype(self, fresh_rng):
        array = fresh_rng.integers(-128, 128, size=(8, 16))
        assert tensor_digest(array) == tensor_digest(array.copy())
        assert tensor_digest(array) != tensor_digest(array.reshape(16, 8))
        assert tensor_digest(array) != tensor_digest(array.astype(np.int32))
        perturbed = array.copy()
        perturbed[0, 0] += 1
        assert tensor_digest(array) != tensor_digest(perturbed)

    def test_non_contiguous_array_equals_contiguous_copy(self, fresh_rng):
        array = fresh_rng.integers(0, 100, size=(10, 10))
        assert tensor_digest(array[::2, ::2]) == tensor_digest(array[::2, ::2].copy())

    def test_enums_and_dataclasses_hash(self):
        assert stable_digest(PruningStrategy.ZERO_POINT_SHIFT) != stable_digest(
            PruningStrategy.ROUNDED_AVERAGE
        )
        assert stable_digest(CONSERVATIVE_PRESET) == stable_digest(CONSERVATIVE_PRESET)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_pruned_tensor_content_digest_is_stable(self, int8_matrix):
        first = prune_tensor(int8_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT)
        second = prune_tensor(int8_matrix.copy(), 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert first.content_digest() == second.content_digest()
        other = prune_tensor(int8_matrix, 2, PruningStrategy.ZERO_POINT_SHIFT)
        assert first.content_digest() != other.content_digest()

    def test_job_digest_separates_type_and_params(self):
        assert job_digest("figure1", {"seed": 0}) != job_digest("figure3", {"seed": 0})
        assert job_digest("figure1", {"seed": 0}) != job_digest("figure1", {"seed": 1})
        assert job_digest("figure1", {"seed": 0}) == job_digest("figure1", {"seed": 0})


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_existing_key_does_not_evict(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.get("a") == 10 and cache.get("b") == 2
        assert cache.stats()["evictions"] == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ResultCache(max_entries=4, directory=tmp_path)
        first.put("key1", {"rows": [1, 2, 3], "table": "t"})
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("key1") == {"rows": [1, 2, 3], "table": "t"}
        stats = reopened.stats()
        assert stats["disk_hits"] == 1 and stats["persistent"]

    def test_disk_backfill_after_eviction(self, tmp_path):
        cache = ResultCache(max_entries=1, directory=tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts "a" from memory, file remains
        assert "a" not in cache
        assert cache.get("a") == 1  # reloaded from disk
        assert cache.stats()["disk_hits"] == 1

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("a", [1])
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") == [1]


class TestNoneValues:
    """A result of None is a value, not an absence (regression: a scenario
    returning None could never cache-hit and was recomputed every time)."""

    def test_cached_none_is_a_hit_with_sentinel_default(self):
        from repro.core.cache import MISSING

        cache = ResultCache(max_entries=4)
        assert cache.get("k", MISSING) is MISSING
        cache.put("k", None)
        assert cache.get("k", MISSING) is None
        assert cache.stats()["hits"] == 1

    def test_cached_none_survives_disk_round_trip(self, tmp_path):
        from repro.core.cache import MISSING

        first = ResultCache(max_entries=4, directory=tmp_path)
        first.put("k", None)
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("k", MISSING) is None
        assert reopened.stats()["disk_hits"] == 1

    def test_missing_sentinel_is_exported_by_service_package(self):
        from repro.core.cache import MISSING as core_missing
        from repro.service import MISSING as service_missing

        assert service_missing is core_missing


class TestBestEffortPersistence:
    """Disk persistence must never fail a successfully computed result
    (regression: a non-JSON value raised after the in-memory store, failing
    the job and leaking the temp file)."""

    def test_unserializable_value_still_cached_in_memory(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        value = {"handle": object()}  # not JSON-serializable
        cache.put("k", value)  # must not raise
        assert cache.get("k") is value
        assert cache.stats()["disk_errors"] == 1

    def test_failed_disk_write_leaves_no_tmp_file(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("bad", {"handle": object()})
        cache.put("good", {"x": 1})
        leftovers = [path.name for path in tmp_path.iterdir()]
        assert leftovers == ["good.json"], f"unexpected files: {leftovers}"

    def test_unserializable_value_not_readable_after_restart(self, tmp_path):
        from repro.core.cache import MISSING

        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("k", {"handle": object()})
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("k", MISSING) is MISSING
