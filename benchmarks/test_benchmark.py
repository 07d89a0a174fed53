"""Self-tests of the benchmark's own parts.

    python3 -m pytest benchmarks/test_benchmark.py -q

These check the harness, not covercalc: the percentile rule, self-time
arithmetic, the oracles on known values, seeded job lists, the tracer's
binding-site coverage and that BENCHMARK.json matches the code.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile(list(range(1, 101)), 50) == 50
    assert run.percentile(list(range(1, 1001)), 99) == 990


def test_latency_metrics_keep_the_fastest_quarter_of_whole_passes():
    passes = [{"latencies": [0.1 * k, 0.2]} for k in range(12, 0, -1)]
    kept = run.fastest_passes(passes)
    assert [r["latencies"][0] for r in kept] == pytest.approx([0.1, 0.2, 0.3])
    assert run.job_time_s(kept) == pytest.approx(0.4)
    assert run.latencies_ms(kept[:1]) == pytest.approx([100.0, 200.0])
    assert len(run.fastest_passes(passes * 2)) == 6
    assert len(run.fastest_passes(passes[:2])) == 2


def test_self_time_subtracts_direct_children_and_bookkeeping():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # c spent its last 0.5 s in tracer bookkeeping
    spans = [
        ["root", 0.0, 10.0, -1, 0.0, 0, None, True],
        ["a", 1.0, 4.0, 0, 0.0, 0, None, True],
        ["b", 2.0, 3.0, 1, 0.0, 0, None, True],
        ["c", 5.0, 9.0, 0, 0.5, 0, None, True],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.5]


def test_fit_exponent_recovers_a_power_law():
    assert tracer.fit_exponent([(p, 2.0 * p**3) for p in (8, 16, 32, 64)]) == pytest.approx(3.0)
    assert tracer.fit_exponent([(8, 1.0), (8, 2.0)]) == 0.0


def test_oracles_on_known_values():
    assert oracles.h1("trefoil", 3) == 4
    assert oracles.h1("trefoil", 6) == 0
    assert oracles.h1("figure-eight", 2) == 5
    assert oracles.h1("wheel-3", 2) == 49
    assert oracles.lmo(1, 2) == 2
    assert oracles.window(1, 2) == [1, 2]


def test_multiplier_enumeration_agrees_with_lmo_closed_form_on_chains():
    for base in ("theta", "k4"):
        for n in range(0, 9):
            d = workloads.chain_diagram(base, n)
            for p in (2, 3, 5):
                assert oracles.multiplier(d, p) == oracles.lmo(n, p)
                counts = oracles.state_counts(d, p)
                assert counts == oracles.state_counts(d, p, chain=n)


def test_lift_oracle_brute_force():
    triangle = {
        "vertices": [0, 1, 2],
        "edges": [
            {"id": "a", "tail": 0, "head": 1, "winding": 1},
            {"id": "b", "tail": 1, "head": 2, "winding": 1},
            {"id": "c", "tail": 0, "head": 2, "winding": 2},
        ],
        "p": 3,
    }
    assert oracles.lift(triangle) == [[[0, r], [1, (r + 1) % 3], [2, (r + 2) % 3]] for r in range(3)]
    triangle["edges"][2]["winding"] = 0
    assert oracles.lift(triangle) is None


def test_check_counts_only_the_documented_wrong_answer_as_known():
    job = {"kind": "cwl", "defect": "twist-keys"}
    want = {"magnitude": 6, "sign": -1, "grade": 2, "note": False}
    assert oracles.check(job, want, dict(want)) is None
    assert oracles.check(job, want, {**want, "sign": None}) == "known"
    assert oracles.check(job, want, {**want, "sign": None, "magnitude": 2}) not in (None, "known")
    chain = {"kind": "chain", "defect": "leg-cap"}
    assert oracles.check(chain, 7, {"error": "ValueError: 30 legs exceeds the enumeration cap of 24"}) == "known"
    assert oracles.check(chain, 7, 8) not in (None, "known")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_fixed_seed_gives_identical_job_list(name):
    first = workloads.generate(name, 7)
    assert json.dumps(first, sort_keys=True) == json.dumps(workloads.generate(name, 7), sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(workloads.generate(name, 8), sort_keys=True)
    assert len(first["jobs"]) >= 100


def test_tracer_wraps_names_rebound_by_engine():
    import covercalc
    import covercalc.cli  # noqa: F401
    from covercalc import diagrams, engine, knots

    originals = (engine.cycle_basis, diagrams.cycle_basis, covercalc.multiplier)
    t = tracer.Tracer()
    t.install()
    try:
        knot = knots.KnotDescriptor.from_json_dict(workloads.TREFOIL)
        d = diagrams.DecoratedDiagram.from_json_dict(workloads.chain_diagram("theta", 3))
        engine.cwl_delta(knot, d, 5)
        covercalc.lmo_leading_multiplier(4, 3)
    finally:
        t.uninstall()
    assert (engine.cycle_basis, diagrams.cycle_basis, covercalc.multiplier) == originals
    called = {span[0] for span in t.spans}
    for name in ("knots.h1_order", "diagrams.require_valid", "diagrams.cycle_basis",
                 "diagrams.cycle_winding_affine", "diagrams.sawn_edge_graph",
                 "diagrams.is_theta_graph", "diagrams.surplus", "engine.multiplier",
                 "laurent.LaurentPoly.__mul__", "engine.lmo_leading_multiplier"):
        assert name in called, name
    by_index = {i: span for i, span in enumerate(t.spans)}
    basis = next(s for s in t.spans if s[0] == "diagrams.cycle_basis")
    assert by_index[basis[3]][0] == "engine.multiplier"
    # every span name the layer table sums is one the tracer can produce
    for names, _, _ in tracer.LAYERS.values():
        assert set(names) <= t.names, set(names) - t.names


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w["why"] for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(m) for m in tracer.PER_LAYER]
