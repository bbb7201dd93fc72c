"""Kernel dispatch helpers: the chunk plan and the chunk thread pool."""

import os

from entmac import _kernels


def test_chunk_plan_covers_exactly():
    plan = _kernels.chunk_plan(123, 200_000)
    assert sum(count for _, count in plan) == 200_000
    assert all(count >= 1 for _, count in plan)
    seeds = [seed for seed, _ in plan]
    assert len(set(seeds)) == len(seeds)
    assert _kernels.chunk_plan(123, 200_000) == plan


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _kernels.pool_size(1, 10) == 1
    assert _kernels.pool_size(2, 2) == 2
    assert _kernels.pool_size(3, 10) == 3
    assert _kernels.pool_size(1_000_000, 3) == 3
    assert _kernels.pool_size(1_000_000, 1_000_000) == 4


def test_pool_size_without_a_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _kernels.pool_size(8, 8) == 1


def test_pool_size_keeps_two_threads_for_two_chunks_on_two_cpus(monkeypatch):
    # `hyperdense --workers 2` over two 65536-slot chunks
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _kernels.pool_size(2, 2) == 2


def test_map_chunks_keeps_plan_order():
    plan = [(seed, count) for seed, count in zip((11, 12, 13, 14, 15), (5, 4, 3, 2, 1))]
    expected = [(count, seed) for seed, count in plan]
    for workers in (1, 2):
        assert _kernels.map_chunks(lambda count, seed: (count, seed), plan, workers) == expected
