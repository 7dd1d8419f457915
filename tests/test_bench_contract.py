"""The benchmark's contract with the package, checked without running it.

perfbench/tracing.py names the public callables each layer's metrics are
read from, and skips a name it cannot find, so a renamed function would
silently drop its layer.  perfbench/worker.py judges each op by the
package's own verdict.  These tests load both files read-only and check
that every traced name resolves and that one op of each kind passes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


tracing = _load("tracing")
worker = _load("worker")
workloads = _load("workloads")

TARGETS = [(layer, mod, path) for layer, targets in tracing.LAYERS.items()
           for mod, path in targets]


@pytest.mark.parametrize("layer,mod,path", TARGETS,
                         ids=[f"{mod}.{path}" for _, mod, path in TARGETS])
def test_traced_name_resolves(layer, mod, path):
    owner = importlib.import_module(f"sievedops.{mod}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), layer


def _smallest_op_of_each_kind() -> dict:
    """Per op kind, the op with the smallest sizes in the seed-1 lists."""
    chosen = {}
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 1):
            size = (op.get("n", 0), op.get("l", 0), op.get("k", 0))
            best = chosen.get(op["op"])
            if best is None or size < best[0]:
                chosen[op["op"]] = (size, op)
    return {kind: op for kind, (_, op) in chosen.items()}


OPS = _smallest_op_of_each_kind()


def test_every_op_kind_is_drawn():
    assert sorted(OPS) == sorted([
        "gen_poly", "identity", "mapping", "ode", "orthogonality", "pair",
        "structure", "theorem", "zeros"])


@pytest.mark.parametrize("kind", sorted(OPS))
def test_one_op_of_each_kind_passes(kind, tmp_path):
    assert worker.run_op(OPS[kind], str(tmp_path)) is True
