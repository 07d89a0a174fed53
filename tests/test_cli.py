import json
import random
import sys
from pathlib import Path

import pytest

from covercalc import diagrams, lifts
from covercalc.cli import main
from covercalc.knots import figure_eight, trefoil, unknot, wheel_knot

from helpers import (
    chord_fixture,
    dumbbell,
    example_two_leg_theta,
    forbid_resultant_paths,
    lucas,
    replaced,
    theta,
)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(trefoil().to_json_dict()))
    return str(path)


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps(unknot().to_json_dict()))
    return str(path)


def write_diagram(tmp_path, diagram, name="diagram.json"):
    path = tmp_path / name
    path.write_text(json.dumps(diagram.to_json_dict()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h1_single_p(capsys, trefoil_file):
    code, out, _ = run(capsys, ["h1", trefoil_file, "--p", "2"])
    assert code == 0
    assert out == "p,h1\n2,3\n"


def test_h1_range_rows(capsys, tmp_path, trefoil_file):
    code, out, _ = run(capsys, ["h1", trefoil_file, "--p-range", "2..4"])
    assert code == 0
    assert out.splitlines() == ["p,h1", "2,3", "3,4", "4,3"]
    # the trefoil in s at exponents 4..6, with zero terms at 0 and 9, prints the trefoil's bytes
    coefs = ((0, "0"), (4, "1"), (5, "-1"), (6, "1"), (9, "0"))
    shifted = tmp_path / "trefoil-s.json"
    shifted.write_text(json.dumps({"label": "trefoil", "vars": ["s"],
                                   "terms": [{"exp": [e], "coef": c} for e, c in coefs]}))
    for fmt in ("csv", "json"):
        argv = ["--p-range", "1..40", "--format", fmt]
        assert run(capsys, ["h1", str(shifted), *argv]) == run(capsys, ["h1", trefoil_file, *argv])


def test_h1_unknot_all_ones(capsys, unknot_file):
    code, out, _ = run(capsys, ["h1", unknot_file, "--p-range", "2..6"])
    assert code == 0
    assert all(line.endswith(",1") for line in out.splitlines()[1:])


def test_h1_wheel3(capsys, tmp_path):
    path = tmp_path / "w3.json"
    path.write_text(json.dumps(wheel_knot(3).to_json_dict()))
    code, out, _ = run(capsys, ["h1", str(path), "--p", "2"])
    assert code == 0
    assert out.splitlines()[1] == "2,49"


def test_h1_json_format_uses_strings(capsys, trefoil_file):
    code, out, _ = run(capsys, ["h1", trefoil_file, "--p", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [{"p": 2, "h1": "3"}]


def _decimal(digits: str) -> int:
    # int() refuses a string of over 4,300 digits by default, so read 1,000 at a time
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_output_past_the_int_to_str_digit_limit(capsys, tmp_path):
    # |H_1| = L_22000 - 2 has 4,598 digits, past CPython's default limit of 4,300
    path = tmp_path / "figure-eight.json"
    path.write_text(json.dumps(figure_eight().to_json_dict()))
    knot_file = str(path)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    want = lucas(22000) - 2
    code, out, err = run(capsys, ["h1", knot_file, "--p", "11000"])
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    p, digits = row.split(",")
    assert (header, p, len(digits), _decimal(digits)) == ("p,h1", "11000", 4598, want)
    code, out, err = run(capsys, ["h1", knot_file, "--p", "11000", "--format", "json"])
    assert (code, err) == (0, "")
    assert _decimal(json.loads(out)[0]["h1"]) == want
    # cwl on the theta: 2 |H_1| |multiplier|
    code, out, err = run(capsys, ["cwl", knot_file, write_diagram(tmp_path, theta()), "--p", "11000"])
    assert (code, err) == (0, "")
    assert _decimal(json.loads(out)["magnitude"]) % want == 0
    # the limit is back in place afterwards
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_input_keeps_the_int_to_str_digit_limit(capsys, tmp_path):
    knot_file = tmp_path / "figure-eight.json"
    knot_file.write_text(json.dumps(figure_eight().to_json_dict()))
    assert run(capsys, ["h1", str(knot_file), "--p", "11000"])[0] == 0  # lifts the limit, then restores it
    big = "1" + "0" * 4999
    for coef, message in ((f'"{big}"', "error: coefficient must be an integer"), (big, "error: Exceeds the limit")):
        path = tmp_path / "big.json"
        path.write_text('{"vars": ["t"], "terms": [{"exp": [0], "coef": %s}], "label": "big"}' % coef)
        code, out, err = run(capsys, ["h1", str(path), "--p", "2"])
        assert (code, out) == (1, "")
        assert err.startswith(message), err


def test_wheel_table(capsys):
    code, out, _ = run(capsys, ["wheel-table", "--p", "2", "--n-max", "5"])
    assert code == 0
    assert out.splitlines() == ["n,f", "1,1", "2,9", "3,49", "4,225", "5,961"]


def test_wheel_table_p1(capsys):
    code, out, _ = run(capsys, ["wheel-table", "--p", "1", "--n-max", "4"])
    assert code == 0
    assert all(line.endswith(",1") for line in out.splitlines()[1:])


def test_cwl_output(capsys, tmp_path, trefoil_file):
    diagram_file = write_diagram(tmp_path, theta())
    code, out, _ = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["magnitude"] == "12"
    assert data["sign"] == "unknown"
    assert data["grade"] == 2


def test_cwl_on_a_non_theta_diagram_prints_the_note(capsys, tmp_path, trefoil_file):
    diagram_file = write_diagram(tmp_path, dumbbell())
    code, out, _ = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "2"])
    assert code == 0
    assert json.loads(out) == {
        "magnitude": "0", "sign": "unknown", "grade": 2, "p": 2, "label": "dumbbell",
        "note": "sawn diagram is not a theta graph; the invariant vanishes here",
    }


def test_cwl_unsigned_flag(capsys, tmp_path, unknot_file):
    diagram_file = write_diagram(tmp_path, example_two_leg_theta())
    code, out, _ = run(
        capsys, ["cwl", unknot_file, diagram_file, "--p", "1", "--unsigned"]
    )
    assert code == 0
    assert json.loads(out)["magnitude"] == "8"


def test_cwl_invalid_diagram_exits_1(capsys, tmp_path, trefoil_file):
    path = tmp_path / "diagram.json"
    for data, message in (
        (chord_fixture().to_json_dict(), "incidence[a]: vertex has total incidence 2, expected 3"),
        ({**theta().to_json_dict(), "twists": {"9": 1}}, "reference[9]: twist on unknown edge"),
    ):
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["cwl", trefoil_file, str(path), "--p", "2"])
        assert (code, out, err) == (1, "", f"invalid diagram: {message}\n")


def test_cwl_refuses_p_below_one_before_it_validates_the_diagram(capsys, tmp_path, trefoil_file):
    diagram_file = write_diagram(tmp_path, chord_fixture())
    code, out, err = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "0"])
    assert (code, out, err) == (1, "", "error: p must be >= 1\n")


def test_cwl_validates_the_diagram_once(capsys, monkeypatch, tmp_path, trefoil_file):
    validate, calls = diagrams._validate, []
    monkeypatch.setattr(diagrams, "_validate", lambda d: calls.append(d) or validate(d))
    code, out, _ = run(capsys, ["cwl", trefoil_file, write_diagram(tmp_path, theta()), "--p", "2"])
    assert code == 0 and len(calls) == 1


def test_lift_admissible(capsys, tmp_path):
    system = {
        "vertices": [1, 2, 3],
        "edges": [
            {"id": "e1", "tail": 1, "head": 2, "winding": 0},
            {"id": "e2", "tail": 2, "head": 3, "winding": 0},
            {"id": "e3", "tail": 3, "head": 1, "winding": 0},
        ],
        "p": 3,
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out, _ = run(capsys, ["lift", str(path)])
    assert code == 0
    solutions = json.loads(out)
    assert len(solutions) == 3


def test_lift_inadmissible(capsys, tmp_path):
    system = {
        "vertices": [1, 2, 3],
        "edges": [
            {"id": "e1", "tail": 1, "head": 2, "winding": 1},
            {"id": "e2", "tail": 2, "head": 3, "winding": 0},
            {"id": "e3", "tail": 3, "head": 1, "winding": 0},
        ],
        "p": 3,
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    code, out, _ = run(capsys, ["lift", str(path)])
    assert code == 0
    assert out == "INADMISSIBLE\n"


def test_window_table(capsys):
    code, out, _ = run(capsys, ["window", "--p", "2", "--l-start", "1", "--count", "3"])
    assert code == 0
    assert out.splitlines() == ["l,multiplier,nonzero", "1,2,1", "2,4,1", "3,8,1"]


def test_window_flags_zero_rows(capsys):
    code, out, _ = run(capsys, ["window", "--p", "1", "--l-start", "1", "--count", "2"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,0", "2,0,0"]


def test_window_takes_five_thousand_rows_at_p7(capsys):
    code, out, err = run(capsys, ["window", "--p", "7", "--l-start", "1", "--count", "5000"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5001
    assert lines[1:3] == ["1,7,1", "2,7,1"]
    assert lines[-1].startswith("5000,") and lines[-1].endswith(",1")


def test_window_over_the_work_bound_exits_1(capsys):
    code, out, err = run(capsys, ["window", "--p", "7", "--l-start", "1", "--count", "100000"])
    assert (code, out) == (1, "")
    assert err.startswith("error: window work ")
    assert err.endswith(" exceeds the work bound of 34359738368\n")


def test_wheel_table_over_the_work_bound_exits_1(capsys, monkeypatch):
    # priced as one request, like h1 --p-range: the rows' summed work passes the bound at n = 84
    forbid_resultant_paths(monkeypatch)
    code, out, err = run(capsys, ["wheel-table", "--p", "101", "--n-max", "150"])
    assert (code, out) == (1, "")
    assert err == "error: wheel-table at p = 101, n = 1..84 needs work 551543473, over the work bound of 536870912\n"


def test_wheel_table_row_over_the_output_bound_exits_1(capsys, monkeypatch):
    # row 2, wheel-2, is over the output bound at p = 900,000 and gets check_bounds' own message
    forbid_resultant_paths(monkeypatch)
    code, out, err = run(capsys, ["wheel-table", "--p", "900000", "--n-max", "2"])
    assert (code, out) == (1, "")
    assert err == "error: |H_1| at p = 900000 may need 2269978 bits, over the output bound of 2097152\n"


def test_window_disagreement_exits_3(capsys, monkeypatch):
    from covercalc import engine

    real = engine.lmo_leading_multiplier
    monkeypatch.setattr(engine, "lmo_leading_multiplier", lambda l, p: 0 if l == 3 else real(l, p))
    code, out, err = run(capsys, ["window", "--p", "2", "--l-start", "1", "--count", "3"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: internal disagreement at l = 3")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["h1", "/nonexistent.json", "--p", "2"])
    assert code == 2
    assert err


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, ["h1", str(path), "--p", "2"])
    assert code == 2


def test_bad_p_range_exits_1(capsys, trefoil_file):
    code, _, _ = run(capsys, ["h1", trefoil_file, "--p-range", "5..2"])
    assert code == 1
    for argv, message in ((["--p-range", "0..3"], "p values must be >= 1"),
                          (["--p", "0"], "p values must be >= 1"),
                          ([], "one of --p or --p-range is required"),
                          (["--p-range", "3"], "bad --p-range '3', expected A..B"),
                          (["--p-range", "a..b"], "bad --p-range 'a..b', expected A..B")):
        assert run(capsys, ["h1", trefoil_file, *argv]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, data, field",
    [
        ("h1", {"label": "trefoil", "terms": trefoil().to_json_dict()["terms"]}, "vars"),
        ("lift", {"vertices": [1], "edges": []}, "p"),
    ],
)
def test_missing_field_exits_2(capsys, tmp_path, command, data, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path), *(["--p", "2"] if command == "h1" else [])]
    assert run(capsys, argv) == (2, "", f"error: malformed input, missing field '{field}'\n")


def test_h1_p_and_p_range_together_is_a_usage_error(capsys, trefoil_file):
    with pytest.raises(SystemExit) as exit_info:
        main(["h1", trefoil_file, "--p", "5", "--p-range", "2..3"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert "argument --p-range: not allowed with argument --p" in captured.err


def test_invalid_knot_exits_1(capsys, tmp_path):
    path = tmp_path / "bad_knot.json"
    path.write_text(json.dumps({"label": "bad", "vars": ["t"], "terms": [
        {"exp": [0], "coef": "2"}
    ]}))
    code, _, err = run(capsys, ["h1", str(path), "--p", "2"])
    assert code == 1
    assert "±1" in err or "Alexander" in err


@pytest.mark.parametrize(
    "data",
    [
        {"vars": ["t"], "terms": [{"exp": [0], "coef": 1.9}]},
        {"vars": ["t"], "terms": [{"exp": [0], "coef": "1"}, {"exp": [0], "coef": "1"}]},
        {"vars": ["s", "t"], "terms": [{"exp": [0, 0], "coef": "1"}]},
    ],
    ids=["float-coefficient", "duplicate-exponent", "two-variables"],
)
def test_malformed_knot_exits_1(capsys, tmp_path, data):
    path = tmp_path / "bad_knot.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["h1", str(path), "--p", "2"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def _diagram_json(**changes):
    data = example_two_leg_theta().to_json_dict()
    data.update(changes)
    return data


def _lift_json(**changes):
    data = {"vertices": [1, 2], "edges": [{"id": "e", "tail": 1, "head": 2, "winding": 1}], "p": 2}
    data.update(changes)
    return data


def _wound_edge(winding):
    edges = example_two_leg_theta().to_json_dict()["edges"]
    edges[0]["winding"] = winding
    return edges


@pytest.mark.parametrize(
    "command, data",
    [
        ("h1", [1]),
        ("h1", "trefoil"),
        ("cwl", [1]),
        ("cwl", _diagram_json(edges=[5])),
        ("cwl", _diagram_json(legs={"l1": {}})),
        ("cwl", _diagram_json(vertices=4)),
        ("cwl", _diagram_json(twists=[1])),
        ("cwl", _diagram_json(edges=_wound_edge(1.9))),
        ("cwl", _diagram_json(twists={"k": True})),
        ("lift", [1]),
        ("lift", _lift_json(edges=[5])),
        ("lift", _lift_json(vertices=3)),
        ("lift", _lift_json(p=2.7)),
        ("lift", _lift_json(edges=[{"tail": 1, "head": 2, "winding": 1.9}])),
        ("cwl", replaced(_diagram_json(), ("vertices", 0), ["u"])),
        ("cwl", replaced(_diagram_json(), ("edges", 0, "tail"), {"v": 1})),
        ("cwl", replaced(_diagram_json(), ("legs", 0, "edge"), True)),
        ("lift", {"vertices": [[1]], "edges": [], "p": 2}),
        ("lift", replaced(_lift_json(), ("edges", 0, "head"), 2.0)),
        ("h1", {**trefoil().to_json_dict(), "label": ["x", 1]}),
        ("cwl", _diagram_json(label={"a": 1})),
        ("lift", _lift_json(vertices=[1, 2, "1"], edges=[{"id": "e", "tail": 1, "head": 2},
                                                          {"id": "f", "tail": 2, "head": "1"}])),
        ("cwl", replaced(replaced(_diagram_json(), ("edges", 0, "id"), 1), ("edges", 1, "id"), "1")),
    ],
    ids=["knot-list", "knot-string", "diagram-list", "diagram-edge-number",
         "diagram-legs-object", "diagram-vertices-number", "diagram-twists-list",
         "diagram-float-winding", "diagram-bool-twist", "lift-list", "lift-edge-number",
         "lift-vertices-number", "lift-float-p", "lift-float-winding", "diagram-list-vertex",
         "diagram-object-tail", "diagram-bool-leg-edge", "lift-list-vertex", "lift-float-head",
         "knot-list-label", "diagram-object-label", "lift-vertex-ids-print-alike",
         "diagram-edge-ids-print-alike"],
)
def test_wrongly_shaped_json_exits_1(capsys, tmp_path, trefoil_file, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {
        "h1": ["h1", str(path), "--p", "2"],
        "cwl": ["cwl", trefoil_file, str(path), "--p", "2"],
        "lift": ["lift", str(path)],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decimal_string_numbers_still_load(capsys, tmp_path, trefoil_file):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps(_diagram_json(edges=_wound_edge("1"))))
    code, out, _ = run(capsys, ["cwl", trefoil_file, str(diagram), "--p", "2"])
    assert code == 0 and json.loads(out)["p"] == 2
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(_lift_json(p="2", edges=[{"tail": 1, "head": 2, "winding": "1"}])))
    code, out, _ = run(capsys, ["lift", str(system)])
    assert code == 0 and json.loads(out) == [{"1": 0, "2": 1}, {"1": 1, "2": 0}]


def test_multiplier_disagreement_exits_3(capsys, monkeypatch, tmp_path, trefoil_file):
    from covercalc import engine

    monkeypatch.setattr(engine, "_multiplier_polynomial", lambda *args: 0)
    diagram_file = write_diagram(tmp_path, theta())
    code, out, err = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: internal disagreement")


def test_wrong_line_product_exits_3(capsys, monkeypatch, tmp_path, trefoil_file):
    from covercalc import engine

    # the per-leg check catches a wrong line path as the line path catches the check
    monkeypatch.setattr(engine, "_multiplier_lines", lambda *args: 0)
    diagram_file = write_diagram(tmp_path, example_two_leg_theta())
    code, out, err = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "2"])
    assert (code, out) == (3, "")
    assert err == "internal error: internal disagreement: line product 0 vs per-leg product -2\n"


def test_wrong_trace_product_exits_3(capsys, monkeypatch, trefoil_file):
    from covercalc import knots

    # a knot takes the trace path, which the t-world check covers up to p = 16
    monkeypatch.setattr(knots, "_trace_product", lambda folded, n, p: 12345)
    code, out, err = run(capsys, ["h1", trefoil_file, "--p-range", "2..5"])
    assert (code, out) == (3, "")
    assert err == "internal error: internal disagreement: trace path 12345 vs t-world 3\n"


def test_h1_over_the_output_bound_exits_1(capsys, monkeypatch, tmp_path):
    forbid_resultant_paths(monkeypatch)
    path = tmp_path / "w10.json"
    path.write_text(json.dumps(wheel_knot(10).to_json_dict()))
    code, out, err = run(capsys, ["h1", str(path), "--p", "1000000"])
    assert (code, out) == (1, "")
    assert err.startswith("error: |H_1| at p = 1000000 may need ")
    assert err.endswith(" bits, over the output bound of 2097152\n")


def test_h1_over_the_work_bound_exits_1(capsys, monkeypatch, tmp_path):
    forbid_resultant_paths(monkeypatch)
    path = tmp_path / "w40.json"
    path.write_text(json.dumps(wheel_knot(40).to_json_dict()))
    code, out, err = run(capsys, ["h1", str(path), "--p", "4000"])
    assert (code, out) == (1, "")
    assert err == "error: |H_1| at p = 4000 needs work 4519110611, over the work bound of 536870912\n"


def test_h1_on_a_knot_wider_than_any_h1_call_exits_1(capsys, monkeypatch, tmp_path):
    forbid_resultant_paths(monkeypatch)
    path = tmp_path / "wide.json"
    n = 2 * 10**6
    path.write_text(json.dumps({"vars": ["t"], "terms": [
        {"exp": [-n], "coef": 1}, {"exp": [0], "coef": -1}, {"exp": [n], "coef": 1}
    ]}))
    code, out, err = run(capsys, ["h1", str(path), "--p", "2"])
    assert (code, out) == (1, "")
    assert err == "error: Alexander polynomial half-degree 2000000 needs |H_1| work > 536870912\n"


def test_h1_range_over_the_output_bound_exits_1_before_any_row(capsys, monkeypatch, trefoil_file):
    # the first two p are within both bounds and their summed work, and the
    # third is over the output bound; none of them is computed
    forbid_resultant_paths(monkeypatch)
    code, out, err = run(capsys, ["h1", trefoil_file, "--p-range", "2646310..100000000"])
    assert (code, out) == (1, "")
    assert err == (
        "error: |H_1| at p = 2646312 may need 2097153 bits, over the output bound of 2097152\n"
    )


def test_h1_range_is_priced_as_one_request_before_any_row(capsys, monkeypatch, trefoil_file):
    # every p of the range is within both bounds on its own, but the rows'
    # summed work passes the work bound at p = 38,941, and no row is computed
    forbid_resultant_paths(monkeypatch)
    code, out, err = run(capsys, ["h1", trefoil_file, "--p-range", "1..2646311"])
    assert (code, out) == (1, "")
    assert err == "error: |H_1| at p = 1..38941 needs work 536902753, over the work bound of 536870912\n"


def priced_p(monkeypatch, limit):
    """The p values knots.check_bounds prices, failing the test past ``limit`` of them."""
    from covercalc import knots

    calls, check_bounds = [], knots.check_bounds

    def counted(coeffs, p):
        calls.append(p)
        assert len(calls) <= limit, f"p = {p} priced past the first p over a bound"
        return check_bounds(coeffs, p)

    monkeypatch.setattr(knots, "check_bounds", counted)
    return calls


def test_h1_unknot_range_is_charged_per_row(capsys, monkeypatch, unknot_file):
    # the unknot's rows cost nothing but the per-call 2^12, so 1..131,040 is
    # the longest accepted range and 1..2^29 is refused before any row
    forbid_resultant_paths(monkeypatch)
    priced = priced_p(monkeypatch, 131041)
    code, out, err = run(capsys, ["h1", unknot_file, "--p-range", "1..536870912"])
    assert (code, out) == (1, "")
    assert err == "error: |H_1| at p = 1..131041 needs work 536874977, over the work bound of 536870912\n"
    assert len(priced) == 131041


def test_h1_range_prices_each_row_once(capsys, monkeypatch, trefoil_file):
    priced = priced_p(monkeypatch, 40)
    code, out, _ = run(capsys, ["h1", trefoil_file, "--p-range", "1..40"])
    assert (code, len(out.splitlines())) == (0, 41)
    assert priced == list(range(1, 41))


def test_cwl_over_the_work_bound_exits_1(capsys, monkeypatch, tmp_path, trefoil_file):
    from covercalc import engine

    # two legs on separate edges of the theta: 2 * 2 grouped states, 3^2 classes
    monkeypatch.setattr(engine, "MAX_WORK", 11)
    diagram_file = write_diagram(tmp_path, example_two_leg_theta())
    code, out, err = run(capsys, ["cwl", trefoil_file, diagram_file, "--p", "3"])
    assert (code, out) == (1, "")
    assert err == "error: multiplier work 12 exceeds the work bound of 11\n"


def test_lift_over_the_output_bound_exits_1(capsys, monkeypatch, tmp_path):
    from covercalc import diagrams, lifts

    monkeypatch.setattr(lifts, "MAX_LIFT_ENTRIES", 3)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(_lift_json()))
    code, out, err = run(capsys, ["lift", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: 2 solutions of 2 vertices are 4 values, over the output bound of 3\n"


def _lift_by_json_dumps(data) -> str:
    """The lift output as json.dumps(..., indent=2) writes it."""
    solutions = lifts.solve(lifts.LiftSystem.from_json_dict(data))
    if solutions is None:
        return "INADMISSIBLE\n"
    return json.dumps([{str(v): s[v] for v in sorted(s, key=str)} for s in solutions], indent=2) + "\n"


def _random_lift_json(rng: random.Random) -> dict:
    pool = list(range(-3, 40)) + ["u", 'q"t', "back\\slash", "ü", "v 1", "", "\n"]
    vertices = rng.sample(pool, rng.randint(0, 8))
    p = rng.randint(1, 12)
    value = {v: rng.randrange(p) for v in vertices}
    edges = []
    for i, v in enumerate(vertices[1:], 1):
        tail = rng.choice(vertices[:i])
        edges.append({"id": f"t{i}", "tail": tail, "head": v, "winding": value[v] - value[tail]})
    for i in range(rng.randint(0, 4) if vertices else 0):
        tail, head = rng.choice(vertices), rng.choice(vertices)
        offset = value[head] - value[tail] + p * rng.randint(-2, 2) + (rng.random() < 0.2)
        edges.append({"id": f"c{i}", "tail": tail, "head": head, "winding": offset})
    return {"vertices": vertices, "edges": edges, "p": p}


def test_lift_output_matches_json_dumps_byte_for_byte(capsys, tmp_path):
    golden = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))
    cases = [golden["files"][c["argv"][1]] for c in golden["cases"] if c["argv"][0] == "lift"]
    rng = random.Random(20260)
    cases += [_random_lift_json(rng) for _ in range(300)]
    assert any(not data["vertices"] for data in cases)
    assert sum(_lift_by_json_dumps(data) == "INADMISSIBLE\n" for data in cases) > 10
    path = tmp_path / "sys.json"
    for data in cases:
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, ["lift", str(path)])
        assert (code, out) == (0, _lift_by_json_dumps(data)), data


def test_output_to_file_is_deterministic(capsys, tmp_path, trefoil_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["h1", trefoil_file, "--p-range", "2..6", "--out", str(out1)]) == 0
    assert main(["h1", trefoil_file, "--p-range", "2..6", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
