"""The installed ``hbepp-link`` console script against the golden files.

Every case of ``tests/test_cli_golden.py::CASES`` runs through the
``hbepp-link`` found on ``PATH``: each must exit 0 with empty stderr and
print its golden file byte for byte. Then ``optimize`` must refuse a
configured sweep with exit 2, empty stdout and the key named. Run it after
installing the package, from any directory:

    python -m pip install .
    python tests/console_script.py

Without an install, put ``src`` on ``PYTHONPATH`` (the golden cases are
read from ``test_cli_golden``, which imports the package) and a
``hbepp-link`` shim on ``PATH`` that runs ``python -m hbepp_link.cli "$@"``.
The name has no ``test_`` prefix, so pytest does not collect this file.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli_golden import CASES, DATA  # noqa: E402

#: A configured sweep, which ``optimize`` does not take.
SWEEP = ["--set", "sweep.variable=loss2_db", "--set", "sweep.start=20",
         "--set", "sweep.stop=30", "--set", "sweep.steps=3"]


def main() -> int | str:
    differ = []
    for name, argv in CASES.items():
        run = subprocess.run(["hbepp-link", *argv], capture_output=True)
        if run.returncode != 0 or run.stderr:
            return f"{name}: exit {run.returncode}, stderr {run.stderr!r}"
        if run.stdout != (DATA / f"{name}.txt").read_bytes():
            differ.append(name)
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases match")
    if differ:
        return f"stdout differs from the golden file: {differ}"
    run = subprocess.run(["hbepp-link", "optimize", *SWEEP], capture_output=True)
    if (run.returncode, run.stdout) != (2, b"") or not run.stderr.startswith(
        b"hbepp-link: error: sweep.variable:"
    ):
        return f"optimize took a sweep: exit {run.returncode}, stderr {run.stderr!r}"
    print("optimize refuses a configured sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
