"""The benchmark's per-layer spans wrap package functions by name; a
refactor that renames or drops one would silently lose that layer."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_target_resolves():
    missing = []
    for owner_name, attr, span in _targets():
        mod_name, _, cls_name = owner_name.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(span)
    assert not missing, f"traced targets no longer in mixsel: {missing}"
