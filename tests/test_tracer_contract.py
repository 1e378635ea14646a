"""The names ``perfbench/tracer.py`` wraps and reads must exist in entrokit.

The tracer is loaded from its file and only inspected: nothing is
installed, so a rename in entrokit fails here and not only under a traced
benchmark run.
"""
import dataclasses
import importlib
import importlib.util
import pathlib

from entrokit.growth import GrowthTable
from entrokit.linear_entropy import TrajectoryProfile
from entrokit.polynomials import cyclotomic
from entrokit.roots import CircleClassification
from entrokit.search import SearchResult
from entrokit.set_maps import BackwardProfile
from entrokit.values import EntropyValue

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for module, name in _tracer().LAYERS:
        assert callable(getattr(importlib.import_module(f"entrokit.{module}"), name))


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_fields_the_tracer_reads():
    # the attributes _OBSERVERS and metrics() read off the traced results
    assert "on_circle_caveat" in _fields(CircleClassification)
    assert "scanned_count" in _fields(SearchResult)
    assert "sizes" in _fields(TrajectoryProfile)
    assert "gamma" in _fields(GrowthTable)
    assert "naive_sizes" in _fields(BackwardProfile)
    assert callable(EntropyValue.zero().is_exact)
    assert callable(cyclotomic.cache_info)
