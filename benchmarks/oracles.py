"""Reference answers computed without calling the functions under test.

|H_1| comes from sympy's resultant of a polynomial built here from the
knot's formula, cross-checked against closed forms. LMO values use the
binomial closed form. Multipliers enumerate all 2^legs leg states over this
module's own spanning tree. Lift systems are solved by brute force. CLI jobs
get their expected stdout bytes and exit code.

``check`` compares one job output with its reference and returns None
(agrees), ``"known"`` (a known defect failing in its documented way) or a
message describing an unexpected disagreement.
"""
from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import sympy

_T = sympy.Symbol("t")

# The two real inputs the program is known to get wrong, kept in the mix on
# purpose. Each maps to a predicate recognising the documented wrong answer.
KNOWN_DEFECTS = {
    # integer edge ids: twist keys return from JSON as strings, the sign is lost
    "twist-keys": lambda want, got: isinstance(got, dict)
    and got.get("sign") is None
    and {**got, "sign": want["sign"]} == want,
    # chains longer than the 24-leg enumeration cap are refused
    "leg-cap": lambda want, got: isinstance(got, dict) and "cap" in got.get("error", ""),
}


# -- |H_1| ------------------------------------------------------------------

TREFOIL_PERIOD = (0, 1, 3, 4, 3, 1)  # |H_1| of the trefoil's p-fold cover by p mod 6


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def knot_polynomial(name: str) -> sympy.Poly:
    """t^k times the Alexander polynomial, as an honest polynomial."""
    if name == "trefoil":
        return sympy.Poly(_T**2 - _T + 1, _T)
    if name == "figure-eight":
        return sympy.Poly(-(_T**2) + 3 * _T - 1, _T)
    if name.startswith("wheel-"):
        n = int(name[len("wheel-"):])
        return sympy.Poly(sympy.expand((1 - (1 - _T) ** n) * (_T**n - (_T - 1) ** n)), _T)
    raise ValueError(name)


@lru_cache(maxsize=None)
def h1(name: str, p: int) -> int:
    if p == 1:
        value = abs(int(knot_polynomial(name).eval(1)))
    else:
        value = abs(int(sympy.resultant(knot_polynomial(name), sympy.Poly(_T**p - 1, _T))))
    closed = h1_closed_form(name, p)
    if closed is not None and closed != value:
        raise AssertionError(f"oracle disagrees with closed form for {name} at p={p}")
    return value


def h1_closed_form(name: str, p: int):
    if name == "trefoil":
        return TREFOIL_PERIOD[p % 6]
    if name == "figure-eight":
        return lucas(2 * p) - 2
    if name.startswith("wheel-") and p == 2:
        return (2 ** int(name[len("wheel-"):]) - 1) ** 2
    return None


# -- LMO --------------------------------------------------------------------


def lmo(l: int, p: int) -> int:
    """Sum of (1 - w)^l over the p-th roots of unity w, by the binomial filter."""
    return p * sum((-1) ** k * math.comb(l, k) for k in range(0, l + 1, p))


def window(l_start: int, p: int):
    for l in range(l_start, l_start + p):
        value = lmo(l, p)
        if value:
            return [l, value]
    raise AssertionError("no nonzero LMO value in the window")


# -- diagrams ---------------------------------------------------------------


def cycle_vectors(d: dict):
    """(constants, per-leg vectors) of the windings of a fundamental cycle basis.

    The tree is grown breadth first from the first vertex; each other edge
    closes one cycle, traversed along the edge and back through the tree.
    """
    vertices = d["vertices"]
    incident = {v: [] for v in vertices}
    for e in d["edges"]:
        incident[e["tail"]].append(e)
        incident[e["head"]].append(e)
    parent = {vertices[0]: None}  # vertex -> (tree edge, vertex above it)
    order = [vertices[0]]
    for v in order:
        for e in incident[v]:
            w = e["head"] if e["tail"] == v else e["tail"]
            if w not in parent:
                parent[w] = (e, v)
                order.append(w)
    tree = {id(edge) for edge, _ in filter(None, parent.values())}

    def up(v):  # signed edges from v up to the root
        path = []
        while parent[v] is not None:
            e, above = parent[v]
            path.append((e["id"], 1 if e["tail"] == v else -1))
            v = above
        return path

    cycles = []
    for e in d["edges"]:
        if id(e) in tree:
            continue
        coeffs = {e["id"]: 1}
        # head -> root minus tail -> root; shared edges above the meeting point cancel
        for eid, s in up(e["head"]):
            coeffs[eid] = coeffs.get(eid, 0) + s
        for eid, s in up(e["tail"]):
            coeffs[eid] = coeffs.get(eid, 0) - s
        cycles.append({k: s for k, s in coeffs.items() if s})
    windings = {e["id"]: e["winding"] for e in d["edges"]}
    constants = tuple(sum(s * windings[k] for k, s in c.items()) for c in cycles)
    legs = [tuple(c.get(l["edge"], 0) * l["sign"] for c in cycles) for l in d["legs"]]
    return constants, legs


def leg_states(d: dict, p: int):
    """Enumerate all 2^legs leg states, ungrouped.

    Returns (signed admissible count, unsigned admissible count, cycle rank).
    """
    constants, legs = cycle_vectors(d)
    even, odd = [constants], []
    for v in legs:
        even, odd = (
            even + [tuple(map(sum, zip(s, v))) for s in odd],
            odd + [tuple(map(sum, zip(s, v))) for s in even],
        )

    def admissible(states):
        return sum(1 for s in states if all(x % p == 0 for x in s))

    a_even, a_odd = admissible(even), admissible(odd)
    return a_even - a_odd, a_even + a_odd, len(constants)


def multiplier(d: dict, p: int, signed: bool = True) -> int:
    s, u, _ = leg_states(d, p)
    return p * (s if signed else u)


def state_counts(d: dict, p: int, chain: int | None = None) -> tuple[int, int, int, int]:
    """Work of one multiplier call: (grouped states, ring size, admissible states, all states).

    Grouped states is Prod (m_i + 1) over classes of legs with equal cycle
    vectors, ring size is p^(cycle rank). A chain of n legs is one class, and
    its admissible states are counted by the binomial filter, not by
    enumerating 2^n states.
    """
    constants, legs = cycle_vectors(d)
    classes: dict = {}
    for v in legs:
        classes[v] = classes.get(v, 0) + 1
    if chain is not None:
        admissible = sum(math.comb(chain, k) for k in range(0, chain + 1, p))
    else:
        admissible = leg_states(d, p)[1]
    return math.prod(m + 1 for m in classes.values()), p ** len(constants), admissible, 2 ** len(legs)


def twist_sign(d: dict):
    twists = d.get("twists", {})
    signs = [twists.get(str(e["id"])) for e in d["edges"]]
    if not signs or any(s not in (1, -1) for s in signs):
        return None
    return math.prod(signs)


def cwl(d: dict, p: int, signed: bool, chain: int | None = None) -> dict:
    """Delta on a theta-shaped diagram against the trefoil.

    A diagram built as one chain of ``chain`` legs takes the LMO closed form
    instead of the 2^legs enumeration.
    """
    mult = lmo(chain, p) if chain is not None else multiplier(d, p, signed)
    magnitude = 2 * TREFOIL_PERIOD[p % 6] * abs(mult)
    return {
        "magnitude": magnitude,
        "sign": twist_sign(d) if magnitude else None,
        "grade": len(d["vertices"]) - len(d["legs"]),
        "note": False,
    }


def _id_key(x):
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


def lift(system: dict):
    """All solutions by brute force, ordered by the value at the lowest-id vertex."""
    p, vertices = system["p"], system["vertices"]
    solutions = []
    for values in itertools.product(range(p), repeat=len(vertices)):
        a = dict(zip(vertices, values))
        if all((a[e["head"]] - a[e["tail"]] - e["winding"]) % p == 0 for e in system["edges"]):
            solutions.append(a)
    if not solutions:
        return None
    root = min(vertices, key=_id_key)
    ordered = sorted(vertices, key=_id_key)
    return [[[v, s[v]] for v in ordered] for s in sorted(solutions, key=lambda s: s[root])]


def comparison_sign(job: dict) -> int:
    t1, t2 = job["diagram"]["twists"], job["other"]["twists"]
    return math.prod(t1[e] * t2[f] for e, f in job["edge_map"].items())


# -- CLI --------------------------------------------------------------------


def _table(header, rows, fmt, big):
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"
    payload = [{k: (str(v) if k == big else v) for k, v in zip(header, r)} for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def cli(job: dict) -> tuple[int, str]:
    """(exit code, stdout text) the CLI must produce for this job."""
    argv, files = job["argv"], job["files"]
    if "exit_code" in job:
        return job["exit_code"], ""
    cmd, fmt = argv[0], _opt(argv, "--format", "csv")
    if cmd == "h1":
        if "--p-range" in argv:
            lo, hi = map(int, _opt(argv, "--p-range").split(".."))
            ps = range(lo, hi + 1)
        else:
            ps = [int(_opt(argv, "--p"))]
        name = files[argv[1]]["label"]
        return 0, _table(("p", "h1"), [(p, h1(name, p)) for p in ps], fmt, "h1")
    if cmd == "wheel-table":
        p, n_max = int(_opt(argv, "--p")), int(_opt(argv, "--n-max"))
        rows = [(n, h1(f"wheel-{n}", p)) for n in range(1, n_max + 1)]
        return 0, _table(("n", "f"), rows, fmt, "f")
    if cmd == "window":
        p, l0, count = (int(_opt(argv, k)) for k in ("--p", "--l-start", "--count"))
        rows = [(l, lmo(l, p), int(lmo(l, p) != 0)) for l in range(l0, l0 + count)]
        return 0, _table(("l", "multiplier", "nonzero"), rows, fmt, "multiplier")
    if cmd == "cwl":
        d, p = files[argv[2]], int(_opt(argv, "--p"))
        want = cwl(d, p, "--unsigned" not in argv, job.get("chain"))
        sign = want["sign"]
        out = {
            "magnitude": str(want["magnitude"]),
            "sign": "unknown" if sign is None else f"{sign:+d}",
            "grade": want["grade"],
            "p": p,
            "label": d["label"],
        }
        return 0, json.dumps(out, indent=2) + "\n"
    if cmd == "lift":
        solutions = lift(files[argv[1]])
        if solutions is None:
            return 0, "INADMISSIBLE\n"
        rows = [{str(v): a for v, a in sorted(s, key=lambda kv: str(kv[0]))} for s in solutions]
        return 0, json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"no oracle for {cmd}")


# -- dispatch ----------------------------------------------------------------


def expected(job: dict, doc: dict):
    kind = job["kind"]
    if kind == "h1":
        return h1(job["knot"], job["p"])
    if kind == "window":
        return window(job["l_start"], job["p"])
    if kind == "rows":
        return [lmo(l, job["p"]) for l in range(job["l_start"], job["l_start"] + job["count"])]
    if kind in ("multiplier", "chain"):
        d, p = job["diagram"], job["p"]
        if kind == "chain":
            return lmo(len(d["legs"]), p)
        return multiplier(d, p, job["signed"])
    if kind == "cwl":
        return cwl(job["diagram"], job["p"], job["signed"])
    if kind == "lift":
        return lift(job["system"])
    if kind == "sign":
        return comparison_sign(job)
    if kind == "cli":
        code, out = cli(job)
        return {"exit": code, "stdout": out}
    raise ValueError(kind)


def check(job: dict, want, got):
    """None when ``got`` agrees, "known" for a documented defect, else a message."""
    if job["kind"] == "cli" and isinstance(got, dict) and "exit" in got:
        if got["exit"] == want["exit"] and got["stdout"] == want["stdout"]:
            return None
        if job.get("defect") == "leg-cap" and got["exit"] == 1 and "cap" in got.get("stderr", ""):
            return "known"
        if job.get("defect") == "twist-keys" and got["exit"] == 0 and got["stdout"].replace(
            '"unknown"', json.dumps(json.loads(want["stdout"])["sign"])
        ) == want["stdout"]:
            return "known"
        return f"exit {got['exit']} stdout {got['stdout'][:80]!r}, want exit {want['exit']}"
    if job["kind"] == "lift" and got is not None and "error" not in got:
        got = [sorted(s, key=lambda kv: _id_key(kv[0])) for s in got]
    if got == want:
        return None
    defect = job.get("defect")
    if defect and KNOWN_DEFECTS[defect](want, got):
        return "known"
    return f"got {str(got)[:120]}, want {str(want)[:120]}"
