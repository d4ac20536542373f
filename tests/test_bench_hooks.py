"""The benchmark's span hooks still find every engpred name they patch.

``benchmarks/layers.py`` replaces functions where engpred looks them up
(``engpred.cli.read_metas``, ``engpred.trainer.save_weights``, ...). A rename
in the package would otherwise surface only when the benchmark runs. This
builds each workload's patch list and patches nothing.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("layers"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("workload", ["labels", "train", "score"])
def test_every_patch_target_exists(bench_modules, workload):
    layers, spans = bench_modules
    targets = layers.TARGETS[workload](spans.Tracer())
    assert targets
    for owner, attr, wrapper in targets:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        assert callable(wrapper)
