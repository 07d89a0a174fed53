"""CLI output pinned byte for byte on fixed inputs.

``golden_cli.json`` holds the input files (knots, diagrams, lift systems)
and, per command line, the exit code and the exact stdout that ``cli.main``
produced when the file was recorded. A refactor that keeps the program's
behaviour keeps every case passing unchanged.
"""
import json
from pathlib import Path

import pytest

from covercalc.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_recording(case, tmp_path, monkeypatch, capsys):
    for name, data in GOLDEN["files"].items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
