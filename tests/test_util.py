import pytest

from mixsel import util


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, n_items, workers", [(64, 2, 2), (3, 5, 3), (2, 2, 2)])
def test_parallel_map_pool_has_at_most_one_worker_per_item(monkeypatch, threads, n_items,
                                                           workers):
    monkeypatch.setattr(util.concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.sizes = []
    items = list(range(n_items))
    assert util.parallel_map(abs, [-x for x in items], threads=threads) == items
    assert _SerialPool.sizes == [workers]


def test_parallel_map_runs_serially_without_a_pool(monkeypatch):
    monkeypatch.setattr(util.concurrent.futures, "ProcessPoolExecutor", None)
    assert util.parallel_map(abs, [-1, -2], threads=1) == [1, 2]
    assert util.parallel_map(abs, [-3], threads=8) == [3]
