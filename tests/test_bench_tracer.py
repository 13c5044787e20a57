"""The benchmark finds what it calls and wraps by name.

``bench/spans.py`` lists the traced functions in ``TRACED``, and the
workloads and the self-test look names up on the package root as
``hb.<name>``; a renamed or unexported name would otherwise surface only
when the benchmark itself runs.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import hbepp_link
from hbepp_link import ChannelParams, MeasurementAngles, SourceParams, fock, keyrate

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH / "spans.py"

#: The names README's "Library use" imports, then those ``bench/`` binds.
ROOT_NAMES = {
    "ChannelParams", "MeasurementAngles", "PostprocessingModel", "SourceParams",
    "chsh", "optimize_gain", "outcome_probabilities", "qber_and_sift",
    "oracle_probabilities", "truncation_error_bound", "TSIRELSON_BOUND",
    "ProbabilityTable",
}


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


def test_root_exports_exactly_the_documented_names():
    assert sorted(hbepp_link.__all__) == sorted(ROOT_NAMES)
    for name in hbepp_link.__all__:
        assert hasattr(hbepp_link, name), name


def bench_lookups() -> set[str]:
    """Dotted paths the workloads and the self-test resolve from ``hb``.

    Covers attribute chains (``hb.config.parse_config``) and the
    ``(module, "name")`` pairs the self-test patches.
    """
    paths = set()
    for script in ("workloads.py", "selftest.py"):
        text = (BENCH / script).read_text()
        paths.update(re.findall(r"\bhb((?:\.\w+)+)", text))
        patched = re.findall(r"\bhb((?:\.\w+)*),\s*\"(\w+)\"", text)
        paths.update(f"{module}.{name}" for module, name in patched)
    return {p.lstrip(".") for p in paths}


def test_bench_lookups_resolve_on_the_root():
    # the submodules bench/run.py imports before handing the package out
    run_text = (BENCH / "run.py").read_text()
    for module in re.findall(r"^\s*import (hbepp_link\.\w+)$", run_text, re.M):
        importlib.import_module(module)
    lookups = bench_lookups()
    # the patterns above still match what the scripts write
    expected = {"outcome_probabilities", "cli.run_subcommand", "patterns.NEGATIVE_TOLERANCE"}
    assert expected <= lookups
    for path in sorted(lookups):
        target = hbepp_link
        for attr in path.split("."):
            assert hasattr(target, attr), f"hb.{path}"
            target = getattr(target, attr)


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
