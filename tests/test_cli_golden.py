"""CLI stdout pinned byte for byte.

Each case's expected stdout is stored in ``tests/data/cli/<case>.txt``. A
change that alters CLI output on purpose regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py

and names the change in CHANGES.md. The script rewrites only the files
whose bytes change and prints each with its count of changed lines.
"""

import contextlib
import hashlib
import io
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from hbepp_link.cli import main, run_subcommand
from hbepp_link.config import parse_config

DATA = Path(__file__).resolve().parent / "data" / "cli"


def _sets(*settings):
    return [arg for setting in settings for arg in ("--set", setting)]


#: Case name -> argv. Every subcommand on the empty config (``sweep`` cut to
#: two losses to stay fast), plus README's three examples: the angle sweep,
#: the discard violation and the paper's headline fixed-brightness sweep,
#: plus three sweeps over a base that sets the swept key's alternative.
CASES = {
    "probs": ["probs"],
    "chsh": ["chsh"],
    "keyrate": ["keyrate"],
    "optimize": ["optimize"],
    "sweep": ["sweep", *_sets(
        "sweep.variable=loss2_db", "sweep.start=20", "sweep.stop=45", "sweep.steps=2",
    )],
    "oracle-check": ["oracle-check"],
    "probs-angle-sweep": ["probs", *_sets(
        "source.g=0.6", "channel.tau1=0.7", "channel.tau2=0.3", "detector.dark_count=0",
        "sweep.variable=theta1_deg", "sweep.start=0", "sweep.stop=180", "sweep.steps=61",
    )],
    "chsh-discard": ["chsh", *_sets(
        "channel.tau1=0.7", "channel.loss2_db=20", "sweep.variable=g",
        "sweep.start=0.05", "sweep.stop=0.995", "sweep.steps=60",
    )],
    "sweep-headline": ["sweep", *_sets("source.mu=0.1")],
    # sweeps of a key whose alternative the base sets
    "probs-mu-over-g": ["probs", *_sets(
        "source.g=0.4", "sweep.variable=mu", "sweep.start=0", "sweep.stop=0.5", "sweep.steps=7",
    )],
    "probs-loss1-over-tau1": ["probs", *_sets(
        "channel.tau1=0.5", "angles.theta2_deg=-17.5", "angles.theta1_deg=3",
        "sweep.variable=loss1_db", "sweep.start=0", "sweep.stop=12", "sweep.steps=5",
    )],
    "keyrate-mu-discard": ["keyrate", *_sets(
        "source.g=0.2", "model=discard", "channel.loss2_db=30", "sweep.variable=mu",
        "sweep.start=0.01", "sweep.stop=0.4", "sweep.steps=9",
    )],
}


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    code, out, err = _stdout(CASES[case])
    assert code == 0 and err == ""
    assert out.encode() == (DATA / f"{case}.txt").read_bytes()


def sweep_digest_configs():
    """100 two-loss ``sweep`` configs, drawn as the passive-sweep benchmark
    draws its seeded ops: mu log-uniform in [0.01, 0.2], Alice's loss
    uniform in [0, 3] dB, the dark count log-uniform in [1e-7, 1e-5] and
    two sorted Bob losses uniform in [20, 45] dB."""
    rng = random.Random(39)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    configs = []
    for _ in range(100):
        mu, loss1, dark = log_uniform(0.01, 0.2), rng.uniform(0.0, 3.0), log_uniform(1e-7, 1e-5)
        start, stop = sorted(rng.uniform(20.0, 45.0) for _ in range(2))
        configs.append(parse_config(
            f"source.mu = {mu!r}\nchannel.loss1_db = {loss1!r}\ndetector.dark_count = {dark!r}\n"
            f"sweep.variable = loss2_db\nsweep.start = {start!r}\nsweep.stop = {stop!r}\n"
            "sweep.steps = 2\n"
        ))
    return configs


#: sha256 of the stdout of ``run_subcommand("sweep", ...)`` on every config of
#: ``sweep_digest_configs``, joined in order.
SWEEP_DIGEST = "edccc11b106d8e5e33ff91a19b1a5467cbd462ee519447de1383bee22e11ded3"


def test_seeded_sweeps_keep_their_bytes():
    # the bytes of the passive-sweep benchmark's op path, which the twelve
    # golden files reach in only two sweeps
    text = "".join(run_subcommand("sweep", cfg) for cfg in sweep_digest_configs())
    assert text.count("\n") == 100 * 8
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGEST


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        code, out, err = _stdout(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}: {err}")
        path = DATA / f"{name}.txt"
        old = path.read_bytes() if path.exists() else b""
        if out.encode() != old:
            lines = itertools.zip_longest(old.decode().splitlines(), out.splitlines())
            path.write_bytes(out.encode())
            print(f"{path.relative_to(DATA.parents[2])}: {sum(a != b for a, b in lines)} changed lines")
