"""The names the benchmark binds in the program must keep resolving.

``perfbench`` wraps program functions by (module or class, attribute)
and samples machine speed inside calls the workloads name as probe
targets.  A rename in ``src`` that drops one of these names would break
every op of a workload, so the contract is checked here, next to the
code that must honour it.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench import tracing, workloads  # noqa: E402


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, _, _ in tracing.wrap_targets()])
def test_every_wrapped_name_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_probe_target_resolves_to_a_callable(name, tmp_path):
    targets = workloads.WORKLOADS[name](seed=1, workdir=tmp_path).probe_targets()
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"
