"""Fast self-test of the benchmark harness (not part of the Tier-1 suite).

Run from the repository root:

    python3 bench/selftest.py

It runs every workload at its smallest size (one operation) untraced and
traced, validates the emitted JSON against ``BENCHMARK.json``, checks the
traced work counts against the code, shows that a corrupted output is
counted as a failed operation, and shows that the harness refuses to run
without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROVENANCE_KEYS = {
    "git_head", "seed", "nproc", "cpu_model", "python", "numpy", "blas",
    "list_size", "fail_ratio", "repeated_input_share",
}


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> dict:
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    *_, prov_line, last = out.stdout.strip().splitlines()
    result = json.loads(last)
    provenance = json.loads(prov_line)["provenance"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }, result["metrics"]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert PROVENANCE_KEYS <= set(provenance), sorted(provenance)
    assert provenance["blas"]["threads"] is None or provenance["blas"]["threads"] <= provenance["nproc"]
    return provenance


def check_trace_counts(provenance: dict) -> None:
    """Work counts of the first traced op, as the code reads at this commit."""
    data = json.loads((run.ROOT / provenance["trace_file"]).read_text())
    names = data["names"]
    first = [names[s[0]] for s in data["spans"] if s[4] == 0]
    count = first.count
    if provenance["workload"] == "passive-sweep":
        # mu = 0.1 anchor: 26 losses, each one optimize_gain (256-point scan,
        # 19 golden-section iterations, 3 more evaluations) and one fixed-mu table.
        assert count("keyrate.optimize_gain") == 26, count("keyrate.optimize_gain")
        assert count("analytic.outcome_probabilities") == 26 * (256 + 19 + 3) + 26
    elif provenance["workload"] == "oracle-points":
        assert count("fock.oracle_probabilities") == 1
        assert count("analytic.outcome_probabilities") == 1


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def check_corruption_counted() -> None:
    """A corrupted output must show up as a failed op in the emitted JSON."""
    hb, _ = run.import_package()

    def drop_last_row(fn):
        return lambda *a, **k: fn(*a, **k).rsplit("\n", 2)[0] + "\n"

    def halve_table(fn):
        return lambda *a, **k: hb.ProbabilityTable(tuple(v * 0.5 for v in fn(*a, **k).values))

    def perturb_table(fn):
        return lambda *a, **k: hb.ProbabilityTable(tuple(v * (1 - 1e-6) for v in fn(*a, **k).values))

    cases = (
        ("passive-sweep", hb.cli, "run_subcommand", drop_last_row),
        ("point-queries", hb, "outcome_probabilities", halve_table),
        ("oracle-points", hb, "oracle_probabilities", perturb_table),
    )
    for workload, module, name, corrupt in cases:
        stdout = io.StringIO()
        with patched(module, name, corrupt), contextlib.redirect_stdout(stdout):
            run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1"])
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        assert not result["correct"] and result["failed"] >= 1, (workload, result)
        print(f"ok  {workload}: corrupted output counted ({result['failed']}/{result['attempted']} failed)")


def check_refuses_without_sources() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = bench("point-queries", 0, cwd=bare)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without src/")


def main() -> int:
    for workload in run.WORKLOADS:
        check_result(workload, 0)
        check_trace_counts(check_result(workload, 1))
        print(f"ok  {workload}: untraced and traced JSON valid, counts match")
    check_corruption_counted()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
