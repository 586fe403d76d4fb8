"""Every function the benchmark's tracer wraps must still exist.

``perfbench/tracing.py`` names its traced layer functions and pool entry
points as ``module:qualname`` strings.  A rename or deletion in ``src``
breaks a traced benchmark run only at run time; resolving every name here
makes it fail the unit suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", _TRACING_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

TARGETS = sorted(
    {target for targets in tracing.LAYER_TARGETS.values() for target in targets}
    | set(tracing.WORKER_ENTRIES)
)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    _, _, original = tracing._resolve(target)
    assert callable(original)
