"""One measured pass, run in a fresh interpreter by run.py.

Reads a one-line JSON request on stdin (for a library pass, the workload's
input document follows it) and writes one JSON result on stdout.

mode "library": import covercalc, parse the workload's inputs through the
    library's own loaders (this is set-up), then run every job once in order,
    timing each call. With "trace" set, the tracer is installed before set-up.
mode "cli": a lean launcher with no covercalc import, so that the resident
    size it passes on to its children stays small. It runs each argv as a
    ``python -m covercalc.cli`` subprocess, one at a time, and also times the
    interpreter-start, import and ``--help`` probes.
"""
import json
import os
import subprocess
import sys
import time


def peak_rss_kb() -> int:
    # VmHWM is this process's own high-water mark; ru_maxrss would also count
    # the parent's, which the child inherits across fork and exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- library passes ----------------------------------------------------------


def _loaders(workload, doc):
    """[(job id, thunk, convert)] built through covercalc's loaders."""
    from covercalc import cli, diagrams, engine, knots, lifts, signs

    same = lambda r: r  # noqa: E731
    jobs = []
    if workload == "h1-sweep":
        built = {}
        for name, data in doc["knots"].items():
            if "wheel" in data:
                built[name] = knots.wheel_knot(data["wheel"])
            else:
                built[name] = knots.KnotDescriptor.from_json_dict(data)
        for job in doc["jobs"]:
            k, p = built[job["knot"]], job["p"]
            jobs.append((job["id"], lambda k=k, p=p: knots.h1_order(k, p), same))
    elif workload == "lmo-window":
        for job in doc["jobs"]:
            p, l0 = job["p"], job["l_start"]
            if job["kind"] == "window":
                jobs.append((job["id"], lambda l0=l0, p=p: engine.window_nonzero(l0, p), list))
            else:
                ls = range(l0, l0 + job["count"])
                jobs.append((job["id"], lambda ls=ls, p=p: [engine.lmo_leading_multiplier(l, p) for l in ls], same))
    elif workload == "diagram-mix":
        knot = knots.KnotDescriptor.from_json_dict(doc["knot"])
        load = diagrams.DecoratedDiagram.from_json_dict
        for job in doc["jobs"]:
            kind = job["kind"]
            if kind == "cwl":
                d, p, signed = load(job["diagram"]), job["p"], job["signed"]
                thunk = lambda d=d, p=p, s=signed: engine.cwl_delta(knot, d, p, signed=s)  # noqa: E731
                convert = _term
            elif kind in ("multiplier", "chain"):
                d, p, signed = load(job["diagram"]), job["p"], job.get("signed", True)
                thunk = lambda d=d, p=p, s=signed: engine.multiplier(d, p, signed=s)  # noqa: E731
                convert = same
            elif kind == "lift":
                system = lifts.LiftSystem.from_json_dict(job["system"])
                thunk = lambda s=system: lifts.solve(s)  # noqa: E731
                convert = _solutions
            else:
                d1, d2 = load(job["diagram"]), load(job["other"])
                iso = signs.GraphIso(job["edge_map"])
                thunk = lambda a=d1, b=d2, i=iso: signs.comparison_sign(a, b, i)  # noqa: E731
                convert = same
            jobs.append((job["id"], thunk, convert))
    elif workload == "cli-mix":
        for job in doc["jobs"]:
            jobs.append((job["id"], lambda argv=job["argv"]: _cli_main(cli, argv), same))
    else:
        raise ValueError(workload)
    return jobs


def _term(t):
    return {"magnitude": t.magnitude, "sign": t.sign, "grade": t.grade, "note": t.note is not None}


def _solutions(solutions):
    return None if solutions is None else [[[v, a] for v, a in s.items()] for s in solutions]


def _cli_main(cli, argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_library(req):
    import covercalc  # noqa: F401
    import covercalc.cli  # noqa: F401

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    doc = json.loads(sys.stdin.read())
    jobs = _loaders(req["workload"], doc)
    t_ready = time.monotonic()

    clock = time.perf_counter
    latencies, raw = [], []
    start = clock()
    for job_id, thunk, _ in jobs:
        if tracer:
            tracer.job = job_id
        t0 = clock()
        try:
            result, error = thunk(), None
        except Exception as exc:  # a failing job is a measured outcome, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        raw.append((result, error))
    wall = clock() - start

    outputs = [
        {"error": error} if error else convert(result)
        for (_, _, convert), (result, error) in zip(jobs, raw)
    ]
    return {
        "t_ready": t_ready,
        "wall": wall,
        "latencies": latencies,
        "outputs": outputs,
        "rss_kb": peak_rss_kb(),
        "trace": tracer.summary() if tracer else None,
    }


# -- CLI launcher --------------------------------------------------------------


def run_cli(req):
    import resource

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [req["src"], env.get("PYTHONPATH")]))

    def call(args):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=req["cwd"], env=env, capture_output=True)
        return time.perf_counter() - t0, proc

    probes = {}
    for name, args in (
        ("help", ["-m", "covercalc.cli", "--help"]),
        ("interp", ["-c", "pass"]),
        ("import", ["-c", "import covercalc.cli"]),
    ):
        if name in req["probes"]:
            probes[name] = []
            for _ in range(req["probes"][name]):
                dt, proc = call(args)
                if proc.returncode != 0:
                    raise RuntimeError(f"probe {name} failed: {proc.stderr.decode()[-400:]}")
                probes[name].append(dt)

    latencies, outputs = [], []
    start = time.perf_counter()
    for argv in req["calls"]:
        dt, proc = call(["-m", "covercalc.cli", *argv])
        latencies.append(dt)
        outputs.append({
            "exit": proc.returncode,
            "stdout": proc.stdout.decode("utf-8", "replace"),
            "stderr": proc.stderr.decode("utf-8", "replace"),
        })
    wall = time.perf_counter() - start
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall": wall, "latencies": latencies, "outputs": outputs, "rss_kb": children, "probes": probes}


def main():
    req = json.loads(sys.stdin.readline())
    result = run_library(req) if req["mode"] == "library" else run_cli(req)
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
