"""The command line as users run it: ``python -m covercalc.cli`` in a fresh process.

Runs recorded cases from ``golden_cli.json`` through the module's
``__main__`` guard, so the exit status comes from ``sys.exit(main())``
rather than from ``main``'s return value.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
ARGVS = [
    ["lift", "lift-ok.json"],
    ["cwl", "wheel-3.json", "theta-twisted.json", "--p", "2"],
    ["cwl", "trefoil.json", "chord.json", "--p", "2"],
    ["h1", "missing.json", "--p", "2"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_module_entry_point_matches_recording(argv, tmp_path):
    case = next(case for case in GOLDEN["cases"] if case["argv"] == argv)
    for name, data in GOLDEN["files"].items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "covercalc.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout) == (case["exit"], case["stdout"])
    assert (run.stderr == "") == (case["exit"] == 0)


def test_cli_import_loads_no_heavy_stdlib_modules():
    # dataclasses pulls in inspect and ast, fractions pulls in decimal, typing pulls
    # in contextlib; every covercalc call would pay for them at start-up. Annotations
    # are strings (PEP 563), so none of them is needed. -S keeps site's own imports out.
    heavy = ("dataclasses", "fractions", "decimal", "inspect", "ast", "typing", "contextlib")
    run = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, covercalc.cli; print(*sorted({heavy!r} & sys.modules.keys()))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "\n", "")
