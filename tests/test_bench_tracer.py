"""The benchmark's tracer finds the functions it wraps by name.

``bench/spans.py`` lists them in ``TRACED``; a renamed or removed function
would otherwise surface only when the benchmark itself runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hbepp_link import ChannelParams, MeasurementAngles, SourceParams, fock, keyrate

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(spans):
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"hbepp_link.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hbepp_link.{layer}.{name}"


def test_oracle_stages_are_traced(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fock.oracle_probabilities(
            SourceParams(0.3), ChannelParams(tau1=0.5, tau2=0.5), MeasurementAngles(0.2, 0.0), 3
        )
    finally:
        tracer.uninstall()
    traced = {span[0] for span in tracer.spans}
    assert set(spans.FOCK_STAGES.values()) <= traced


def test_optimize_note_reads_the_call(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = keyrate.optimize_gain(ChannelParams(tau1=0.7, tau2=0.01))
    finally:
        tracer.uninstall()
    [index] = [i for i, span in enumerate(tracer.spans) if span[0] == "keyrate.optimize_gain"]
    assert result.found
    assert tracer.notes[index] == (256, result.iterations, True)
