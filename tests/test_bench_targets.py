"""The benchmark tracer wraps program functions by name; every name must resolve."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []
