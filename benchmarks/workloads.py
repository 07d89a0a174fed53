"""Seeded job lists for the four benchmark workloads.

Everything here is plain data built with the standard library: the program
under test only ever sees the JSON these functions return. Sizes are drawn
by stratified sampling (one draw per stratum of the range) so that two seeds
give different inputs but nearly the same total work, which keeps the
run-to-run spread of the end-to-end metrics small.

A job is a dict with an integer ``id`` and a ``kind``. Jobs marked with a
``defect`` key are real inputs the current program is known to get wrong;
they stay in the mix and are counted, see ``oracles.KNOWN_DEFECTS``.
"""
from __future__ import annotations

import random

WORKLOADS = {
    "h1-sweep": {
        "why": "|H_1| tables over p for trefoil, figure-eight and wheel knots; "
        "time goes to the circulant resultant",
        "exercises": "ROADMAP 3 (|H_1| in poly(d) log p)",
        "bypasses": "ROADMAP 2 multiplier ring, engine, diagrams",
    },
    "lmo-window": {
        "why": "LMO window and row jobs sharing leg counts across p; time goes "
        "to (1-t)^l powers and their cache",
        "exercises": "ROADMAP 2, LMO half (O(p) window stepping)",
        "bypasses": "ROADMAP 3 resultant, diagrams",
    },
    "diagram-mix": {
        "why": "multipliers, CWL deltas, chains, lifts and signs on seeded "
        "decorated diagrams; sparse multivariate products",
        "exercises": "ROADMAP 2, ring half (multiplier polynomial path)",
        "bypasses": "ROADMAP 3 resultant at large p, LMO powers",
    },
    "cli-mix": {
        "why": "one real covercalc subprocess per job over every subcommand and "
        "format; interpreter start, import and argparse dominate",
        "exercises": "ROADMAP 4 input boundary and 5 no-op tracing (must not slow)",
        "bypasses": "large-input algorithms",
    },
}

TREFOIL = {
    "label": "trefoil",
    "vars": ["t"],
    "terms": [
        {"exp": [-1], "coef": "1"},
        {"exp": [0], "coef": "-1"},
        {"exp": [1], "coef": "1"},
    ],
}
FIGURE_EIGHT = {
    "label": "figure-eight",
    "vars": ["t"],
    "terms": [
        {"exp": [-1], "coef": "-1"},
        {"exp": [0], "coef": "3"},
        {"exp": [1], "coef": "-1"},
    ],
}
LMO_PRIMES = (3, 5, 7, 11, 13)
LEG_CAP = 24  # the program's default enumeration cap; longer chains are a known defect


def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers covering [lo, hi] evenly, each uniform within its own stratum."""
    span = hi - lo + 1
    return [lo + int((i + rng.random()) * span / k) for i in range(k)]


def generate(workload: str, seed: int) -> dict:
    """The input document for one workload: ``{"jobs": [...], ...shared inputs}``."""
    rng = random.Random(f"{workload}:{seed}")
    doc = _GENERATORS[workload](rng)
    for i, job in enumerate(doc["jobs"]):
        job["id"] = i
    return doc


# -- h1-sweep -------------------------------------------------------------


def _h1_sweep(rng):
    # the full |H_1| tables over p of the two classic knots, then a wheel table
    # f(p, n) with ten stratified p per wheel; cost grows like p^3, so the
    # seed moves p only within narrow strata
    jobs = [{"kind": "h1", "knot": k, "p": p} for k in ("trefoil", "figure-eight") for p in range(2, 73)]
    wheels = range(2, 31, 4)
    for n in wheels:
        jobs += [{"kind": "h1", "knot": f"wheel-{n}", "p": p} for p in stratified(rng, 2, 40, 10)]
    rng.shuffle(jobs)
    knots = {"trefoil": TREFOIL, "figure-eight": FIGURE_EIGHT}
    knots.update({f"wheel-{n}": {"wheel": n} for n in wheels})
    return {"knots": knots, "jobs": jobs}


# -- lmo-window -----------------------------------------------------------


def _lmo_window(rng):
    # Every leg count l in [1, 120] is asked for at three random primes. The
    # cost of (1-t)^l jumps with the binary digits of l, so the set of l is
    # the same for every seed; the first ask (a cache miss) keeps its place
    # before the other two (hits), so every seed has the same share of hits.
    queues = []
    for l in range(1, 121):
        queues.append([{"kind": "window", "l_start": l, "p": p} for p in rng.sample(LMO_PRIMES, 3)])
    # rows as the CLI window prints them, over small leg counts
    for l in stratified(rng, 1, 60, 12):
        queues.append([{"kind": "rows", "l_start": l, "count": 5, "p": rng.choice(LMO_PRIMES)}])
    return {"jobs": interleave(rng, queues)}


def interleave(rng: random.Random, queues: list[list]) -> list:
    """A random merge of the queues that keeps each queue's own order."""
    pending = [list(reversed(s)) for s in queues]
    out = []
    while pending:
        i = rng.randrange(sum(map(len, pending)))
        for s in pending:
            if i < len(s):
                out.append(s.pop())
                break
            i -= len(s)
        pending = [s for s in pending if s]
    return out


# -- diagram-mix ----------------------------------------------------------


def _base(name: str, rng: random.Random | None) -> dict:
    w = (lambda: rng.randint(-3, 3)) if rng else (lambda: 0)
    if name == "theta":
        vertices = ["u", "v"]
        pairs = [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")]
    elif name == "k4":
        vertices = [1, 2, 3, 4]
        pairs = [("a", 1, 2), ("b", 1, 3), ("c", 1, 4), ("d", 2, 3), ("e", 2, 4), ("f", 3, 4)]
    elif name == "dumbbell":
        vertices = ["x", "y"]
        pairs = [("lx", "x", "x"), ("mid", "x", "y"), ("ly", "y", "y")]
    else:
        raise ValueError(name)
    return {
        "label": name,
        "vertices": vertices,
        "edges": [{"id": i, "tail": a, "head": b, "winding": w()} for i, a, b in pairs],
        "legs": [],
    }


def attach_leg(d: dict, edge_id, leg_id: str, sign: int, target: str) -> None:
    """Subdivide an edge at a fresh vertex and hang a leg there (in place).

    Same naming as the library's ``attach_leg_by_subdivision``: vertex
    ``w_<leg>``, edges ``<edge>~<leg>a`` (keeps the winding) and ``<edge>~<leg>b``.
    """
    old = next(e for e in d["edges"] if e["id"] == edge_id)
    vertex = f"w_{leg_id}"
    first, second = f"{edge_id}~{leg_id}a", f"{edge_id}~{leg_id}b"
    d["edges"] = [e for e in d["edges"] if e["id"] != edge_id] + [
        {"id": first, "tail": old["tail"], "head": vertex, "winding": old["winding"]},
        {"id": second, "tail": vertex, "head": old["head"], "winding": 0},
    ]
    d["vertices"].append(vertex)
    d["legs"].append(
        {"id": leg_id, "vertex": vertex, "sign": sign, "edge": first if target == "first" else second}
    )


def random_diagram(rng: random.Random, base: str, n_legs: int) -> dict:
    """Random windings, wrap signs and sides; legs dealt round-robin over the base edges.

    Dealing the legs evenly keeps the number of leg classes, and so the
    multiplier's work, nearly the same across seeds for a given leg count.
    """
    d = _base(base, rng)
    order: list = []
    while len(order) < n_legs:
        order += rng.sample([e["id"] for e in d["edges"]], len(d["edges"]))
    for i, base_edge in enumerate(order[:n_legs], 1):
        # each base edge keeps exactly one sub-edge without a leg
        taken = {l["edge"] for l in d["legs"]}
        edge = next(e["id"] for e in d["edges"]
                    if str(e["id"]).split("~")[0] == str(base_edge) and e["id"] not in taken)
        attach_leg(d, edge, f"l{i}", rng.choice((1, -1)), rng.choice(("first", "second")))
    return d


def chain_diagram(base: str, n_legs: int) -> dict:
    """theta or K4 with n legs of sign +1 in one chain along the first edge."""
    d = _base(base, None)
    d["label"] = f"{base}-chain-{n_legs}"
    edge = d["edges"][0]["id"]
    for i in range(1, n_legs + 1):
        attach_leg(d, edge, f"l{i}", 1, "first")
        edge = f"{edge}~l{i}b"
    return d


def full_twists(rng: random.Random, d: dict) -> dict:
    return {str(e["id"]): rng.choice((1, -1)) for e in d["edges"]}


def _lift_system(rng):
    p = rng.randint(2, 5)
    n = rng.randint(2, 5)
    while p**n > 1024:
        n -= 1
    names = list(range(n)) if rng.random() < 0.5 else [f"v{i}" for i in range(n)]
    pairs = [(rng.choice(names[:i]), names[i]) for i in range(1, n)]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 3))]
    potential = {v: rng.randrange(p) for v in names}
    consistent = rng.random() < 0.5
    edges = []
    for i, (a, b) in enumerate(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        if consistent:
            off = potential[b] - potential[a] + p * rng.randint(-1, 1)
        else:
            off = rng.randint(-3, 3)
        edges.append({"id": f"f{i}", "tail": a, "head": b, "winding": off})
    rng.shuffle(names)
    return {"vertices": names, "edges": edges, "p": p}


def _relabeled(rng, d):
    vmap = {v: f"r{i}" for i, v in enumerate(d["vertices"])}
    emap = {e["id"]: f"s{i}" for i, e in enumerate(d["edges"])}
    edges = [
        {"id": emap[e["id"]], "tail": vmap[e["tail"]], "head": vmap[e["head"]], "winding": e["winding"]}
        for e in d["edges"]
    ]
    rng.shuffle(edges)
    twists = {emap[e["id"]]: d["twists"][str(e["id"])] * rng.choice((1, -1)) for e in d["edges"]}
    d2 = {
        "label": d["label"] + "-relabeled",
        "vertices": [vmap[v] for v in d["vertices"]],
        "edges": edges,
        "legs": [
            {"id": f"m{i}", "vertex": vmap[l["vertex"]], "sign": l["sign"], "edge": emap[l["edge"]]}
            for i, l in enumerate(d["legs"])
        ],
        "twists": twists,
    }
    return d2, {str(k): v for k, v in emap.items()}


def _diagram_mix(rng):
    jobs = []
    for i in range(200):
        d = random_diagram(rng, "theta", i % 15)
        if i % 2:
            d["twists"] = full_twists(rng, d)
        jobs.append({"kind": "cwl", "diagram": d, "p": rng.randint(2, 13), "signed": i % 5 != 4})
    for i in range(250):
        d = random_diagram(rng, ("k4", "dumbbell")[i % 2], i % 15)
        jobs.append({"kind": "multiplier", "diagram": d, "p": rng.randint(2, 13), "signed": i % 5 != 4})
    for i, n in enumerate(stratified(rng, 2, LEG_CAP, 100)):
        jobs.append({"kind": "chain", "diagram": chain_diagram(("theta", "k4")[i % 2], n),
                     "p": rng.randint(2, 13)})
    for i, n in enumerate(stratified(rng, LEG_CAP + 1, 40, 8)):
        jobs.append({"kind": "chain", "diagram": chain_diagram(("theta", "k4")[i % 2], n),
                     "p": rng.randint(2, 13), "defect": "leg-cap"})
    for _ in range(8):
        jobs.append(_int_id_twist_cwl(rng))
    jobs += [{"kind": "lift", "system": _lift_system(rng)} for _ in range(150)]
    for i in range(100):
        d = random_diagram(rng, ("theta", "k4", "dumbbell")[i % 3], i % 11)
        d["twists"] = full_twists(rng, d)
        d2, edge_map = _relabeled(rng, d)
        jobs.append({"kind": "sign", "diagram": d, "other": d2, "edge_map": edge_map})
    rng.shuffle(jobs)
    return {"knot": TREFOIL, "jobs": jobs}


def _int_id_twist_cwl(rng):
    """A theta with integer edge ids, equal windings and full ±1 twists.

    Its multiplier and |H_1| are nonzero, so the delta carries a sign; the
    twist keys come back from JSON as strings and the sign is lost.
    """
    w = rng.randint(-3, 3)
    d = {
        "label": "theta-int-ids",
        "vertices": ["u", "v"],
        "edges": [{"id": i, "tail": "u", "head": "v", "winding": w} for i in (1, 2, 3)],
        "legs": [],
    }
    d["twists"] = full_twists(rng, d)
    p = rng.choice([q for q in range(2, 14) if q % 6])
    return {"kind": "cwl", "diagram": d, "p": p, "signed": True, "defect": "twist-keys"}


# -- cli-mix --------------------------------------------------------------
#
# A cli job carries the files it needs as {"files": {name: data}}; run.py
# writes them into a scratch directory and the job's argv refers to them.


def _cli_mix(rng):
    jobs = []

    def add(argv, files=(), **extra):
        jobs.append({"kind": "cli", "argv": argv, "files": dict(files), **extra})

    knots = {"trefoil": TREFOIL, "figure-eight": FIGURE_EIGHT}
    for i in range(24):
        name = ("trefoil", "figure-eight")[i % 2]
        fmt = ("csv", "json")[(i // 2) % 2]
        if i % 3:
            argv = ["h1", f"{name}.json", "--p", str(rng.randint(2, 40))]
        else:
            lo = rng.randint(2, 12)
            argv = ["h1", f"{name}.json", "--p-range", f"{lo}..{lo + rng.randint(0, 8)}"]
        add(argv + ["--format", fmt], {f"{name}.json": knots[name]})
    for i in range(14):
        add(["wheel-table", "--p", str(rng.randint(1, 7)), "--n-max", str(rng.randint(1, 8)),
             "--format", ("csv", "json")[i % 2]])
    for i in range(14):
        add(["window", "--p", str(rng.choice((2, 3, 5, 7))), "--l-start", str(rng.randint(1, 60)),
             "--count", str(rng.randint(1, 10)), "--format", ("csv", "json")[i % 2]])
    for i in range(22):
        d = random_diagram(rng, "theta", i % 9)
        if i % 2:
            d["twists"] = full_twists(rng, d)
        argv = ["cwl", "trefoil.json", f"d{i}.json", "--p", str(rng.randint(2, 7))]
        if i % 4 == 3:
            argv.append("--unsigned")
        add(argv, {"trefoil.json": TREFOIL, f"d{i}.json": d})
    for i in range(16):
        add(["lift", f"s{i}.json"], {f"s{i}.json": _lift_system(rng)})
    for i in range(2):
        job = _int_id_twist_cwl(rng)
        add(["cwl", "trefoil.json", f"tw{i}.json", "--p", str(job["p"])],
            {"trefoil.json": TREFOIL, f"tw{i}.json": job["diagram"]}, defect="twist-keys")
    for i in range(2):
        n = rng.randint(LEG_CAP + 1, 40)
        add(["cwl", "trefoil.json", f"ch{i}.json", "--p", str(rng.randint(2, 7))],
            {"trefoil.json": TREFOIL, f"ch{i}.json": chain_diagram("theta", n)}, chain=n, defect="leg-cap")
    # malformed input: each must exit with its documented code and print nothing
    fork = _base("theta", rng)
    attach_leg(fork, "e1", "l1", 1, "first")
    fork["legs"].append({"id": "l2", "vertex": "w_l1", "sign": 1, "edge": "e1~l1b"})
    bad = [
        (["h1", "missing.json", "--p", "3"], {}, 2),
        (["h1", "garbled.json", "--p", "3"], {"garbled.json": "{not json"}, 2),
        (["lift", "nop.json"], {"nop.json": {"vertices": [0, 1], "edges": []}}, 2),
        (["cwl", "trefoil.json", "fork.json", "--p", "3"], {"trefoil.json": TREFOIL, "fork.json": fork}, 1),
        (["h1", "trefoil.json", "--p-range", "9..4"], {"trefoil.json": TREFOIL}, 1),
        (["window", "--p", "3", "--l-start", "0", "--count", "2"], {}, 1),
    ]
    for argv, files, code in bad:
        add(argv, files, exit_code=code)
    rng.shuffle(jobs)
    return {"jobs": jobs}


_GENERATORS = {
    "h1-sweep": _h1_sweep,
    "lmo-window": _lmo_window,
    "diagram-mix": _diagram_mix,
    "cli-mix": _cli_mix,
}
