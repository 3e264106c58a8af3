import json

import numpy as np
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


@pytest.mark.parametrize("bad", [float("nan"), np.inf, np.array([1.0, -np.inf])])
def test_dump_json_rejects_non_finite_and_writes_no_file(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(util.NonFiniteValue, match=r"^out\.json: \['bad'\]\[0\]"):
        util.dump_json({"ok": 1.0, "bad": [bad]}, str(path))
    assert not path.exists()


def test_dump_json_passes_other_value_errors_on(tmp_path):
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular") as exc:
        util.dump_json({"loop": loop}, str(tmp_path / "out.json"))
    assert not isinstance(exc.value, util.NonFiniteValue)


def test_dump_json_serializes_numpy_values(tmp_path):
    path = tmp_path / "out.json"
    obj = {"i": np.int64(3), "f32": np.float32(0.5), "b": np.bool_(True),
           "f": np.float64(0.1), "a": np.arange(6.0).reshape(2, 3), "t": (1, "x"),
           "none": None, "empty": {}}
    util.dump_json(obj, str(path))
    assert json.loads(path.read_text()) == {
        "i": 3, "f32": 0.5, "b": True, "f": 0.1, "a": [[0, 1, 2], [3, 4, 5]],
        "t": [1, "x"], "none": None, "empty": {}}
    with pytest.raises(TypeError):
        util.dump_json({"s": {1, 2}}, str(path))


def test_dump_json_floats_read_back_equal(tmp_path):
    rng = np.random.default_rng(8)
    values = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                             [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0]])
    path = tmp_path / "out.json"
    util.dump_json({"v": values, "s": [float(x) for x in values]}, str(path))
    back = json.loads(path.read_text())
    assert back["v"] == back["s"] == values.tolist()
