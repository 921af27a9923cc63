"""The benchmark tracer (``perfbench/tracing.py``) patches package
functions under the names their callers look them up by, and every
benchmark run resolves those names; each must still exist."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists():
    tracing = load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.PATCHES
               if attr not in vars(owner)]
    assert missing == []
    assert tracing.installed_wrappers() == []
