"""The command line as users run it: ``python -m covercalc.cli`` in a fresh process.

Runs recorded cases from ``golden_cli.json`` through the module's
``__main__`` guard, so the exit status comes from ``sys.exit(main())``
rather than from ``main``'s return value, and pins the covercalc modules
each subcommand loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covercalc

# the directory holding the package this suite imports: src/ in the checkout,
# site-packages when run against an installed package
SRC = Path(covercalc.__file__).resolve().parents[1]
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
ARGVS = [
    ["lift", "lift-ok.json"],
    ["cwl", "wheel-3.json", "theta-twisted.json", "--p", "2"],
    ["cwl", "trefoil.json", "chord.json", "--p", "2"],
    ["h1", "missing.json", "--p", "2"],
]

# dataclasses pulls in inspect and ast, fractions pulls in decimal, typing pulls
# in contextlib; every covercalc call would pay for them at start-up. Annotations
# are strings (PEP 563), so none of them is needed. -S keeps site's own imports out.
HEAVY = ("dataclasses", "fractions", "decimal", "inspect", "ast", "typing", "contextlib")
H1 = {"covercalc", "covercalc.records", "covercalc.laurent", "covercalc.knots"}
ENGINE = H1 | {"covercalc.diagrams", "covercalc.engine"}
# each subcommand on a golden input, with the covercalc modules it may load
LOADS = [
    (["--help"], {"covercalc"}),
    (["h1", "trefoil.json", "--p-range", "1..40", "--format", "csv"], H1),
    (["wheel-table", "--p", "3", "--n-max", "8", "--format", "csv"], H1),
    (["lift", "lift-ok.json"], {"covercalc", "covercalc.records", "covercalc.diagrams", "covercalc.lifts"}),
    (["cwl", "trefoil.json", "theta.json", "--p", "3"], ENGINE),
    (["window", "--p", "7", "--l-start", "1", "--count", "60", "--format", "csv"],
     {"covercalc", "covercalc.records", "covercalc.engine"}),
]


def run_module(argv, tmp_path, *flags):
    """``python [flags] -m covercalc.cli argv`` in a directory holding the golden input files."""
    for name, data in GOLDEN["files"].items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "covercalc.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_module_entry_point_matches_recording(argv, tmp_path):
    case = next(case for case in GOLDEN["cases"] if case["argv"] == argv)
    run = run_module(argv, tmp_path)
    assert (run.returncode, run.stdout) == (case["exit"], case["stdout"])
    assert (run.stderr == "") == (case["exit"] == 0)


def test_cli_import_loads_no_heavy_stdlib_modules():
    run = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, covercalc.cli; print(*sorted({HEAVY!r} & sys.modules.keys()))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "\n", "")


@pytest.mark.parametrize("argv, expected", LOADS, ids=[argv[0] for argv, _ in LOADS])
def test_each_subcommand_loads_only_its_own_modules(argv, expected, tmp_path):
    # -X importtime names every module the process imports, in the order each
    # finishes; the package imports nothing, so every line after its own comes
    # from cli and the subcommand. Lines before it are runpy's, which loads contextlib
    run = run_module(argv, tmp_path, "-S", "-X", "importtime")
    lines = run.stderr.splitlines()
    loaded = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    assert run.returncode == 0 and len(loaded) == len(lines), run.stderr
    case = next((case for case in GOLDEN["cases"] if case["argv"] == argv), None)
    assert case is None or run.stdout == case["stdout"]
    assert {name for name in loaded if name.split(".")[0] == "covercalc"} == expected
    assert set(HEAVY).isdisjoint(loaded[loaded.index("covercalc"):])
