"""covercalc benchmark: four closed-loop workloads checked against oracles.

    python3 benchmarks/run.py --workload h1-sweep --seed 1 --seconds 25 --trace 0

Paths are resolved from this file, so it runs from any directory.
``--workload all`` runs every workload in turn. Each workload is one caller
in one process, with no threads: a pass spawns a fresh interpreter that sets
up (import covercalc, parse the seeded JSON inputs through the library's
loaders) and runs the fixed job list once, one job after the other; cli-mix
instead runs each job as its own ``python -m covercalc.cli`` subprocess.
Passes repeat until ``--seconds`` is used up. The latency metrics come
from the run's fastest passes, see ``fastest_passes``. Every output is then
checked against ``oracles.py``, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead and the layer-table checks. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed`` counts jobs that disagree with their oracle other than the known
defects listed in ``oracles.KNOWN_DEFECTS``; those are counted in the
printed ``fail_ratio`` with their job ids.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# this process imports sympy; compiling it would write outside the checkout
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
CLI_HELP_PROBES = 8  # per pass
CLI_START_PROBES = 5
CLI_INPROC_PAIRS = 3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; needs at least 10 samples beyond it."""
    n = len(values)
    if n * (100 - q) < 10 * 100:
        raise ValueError(f"p{q:g} needs at least {math.ceil(1000 / (100 - q))} samples, got {n}")
    return sorted(values)[max(0, math.ceil(q * n / 100) - 1)]


def worker(request: dict, doc=None, cwd=None) -> tuple[float, dict]:
    """Run one pass in a fresh interpreter; returns (spawn time, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    payload = json.dumps(request) + "\n" + (json.dumps(doc) if doc is not None else "")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=payload.encode(),
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr.decode()[-2000:]}")
    return t_spawn, json.loads(proc.stdout)


def write_cli_files(doc: dict) -> Path:
    work = WORK / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    for job in doc["jobs"]:
        for name, data in job["files"].items():
            text = data if isinstance(data, str) else json.dumps(data)
            (work / name).write_text(text, encoding="utf-8")
    return work


def cli_request(doc, work, probes=None, calls=True) -> dict:
    return {
        "mode": "cli",
        "src": str(SRC),
        "cwd": str(work),
        "probes": probes or {},
        "calls": [job["argv"] for job in doc["jobs"]] if calls else [],
    }


def run_passes(run_one, seconds: float, minimum: int = 1) -> list:
    """Call run_one() until another pass of typical length would overrun ``seconds``."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(run_one(len(results)))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed + statistics.median(durations) > seconds:
            return results


def measure(workload: str, doc: dict, seconds: float, trace: bool) -> dict:
    """All passes of one run. Library passes are fresh workers; cli-mix uses the launcher."""
    # one untimed import writes __pycache__, so set-up does not depend on it existing
    worker({"mode": "cli", "src": str(SRC), "cwd": str(ROOT), "probes": {"import": 1}, "calls": []})
    m: dict = {"passes": [], "traced": [], "probes": {}}
    if workload == "cli-mix":
        work = write_cli_files(doc)
        try:
            if trace:
                starts = {"interp": CLI_START_PROBES, "import": CLI_START_PROBES}
                m["probes"] = worker(cli_request(doc, work, starts, calls=False))[1]["probes"]
            # every pass starts with a few `--help` calls: set-up is sampled across the run
            help_first = {"help": CLI_HELP_PROBES}
            m["passes"] = run_passes(lambda i: worker(cli_request(doc, work, help_first))[1], seconds, minimum=2)
            if trace:
                # in-process cli.main passes, alternately untraced and traced
                m["inproc"] = []
                for i in range(2 * CLI_INPROC_PAIRS):
                    request = {"mode": "library", "workload": workload, "trace": i % 2 == 1}
                    (m["traced"] if i % 2 else m["inproc"]).append(worker(request, doc, cwd=work)[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return m

    def library_pass(traced):
        t_spawn, result = worker({"mode": "library", "workload": workload, "trace": traced}, doc)
        result["setup_s"] = result["t_ready"] - t_spawn
        return result

    results = run_passes(lambda i: library_pass(trace and i % 2 == 1), seconds, minimum=4 if trace else 3)
    m["passes"] = [r for r in results if r["trace"] is None]
    m["traced"] = [r for r in results if r["trace"] is not None]
    return m


def check_outputs(doc: dict, passes: list) -> dict:
    """Compare every pass's outputs with the oracles (imported here, after timing)."""
    import oracles

    jobs = doc["jobs"]
    want = [oracles.expected(job, doc) for job in jobs]
    attempted = unexpected = known = 0
    known_ids: set = set()
    problems = []
    for result in passes:
        for job, w, got in zip(jobs, want, result["outputs"]):
            attempted += 1
            verdict = oracles.check(job, w, got)
            if verdict == "known":
                known += 1
                known_ids.add(job["id"])
            elif verdict is not None:
                unexpected += 1
                if len(problems) < 10:
                    problems.append(f"job {job['id']} ({job['kind']}): {verdict}")
    return {
        "attempted": attempted,
        "unexpected": unexpected,
        "known": known,
        "known_ids": sorted(known_ids),
        "problems": problems,
    }


def fastest_passes(passes: list) -> list:
    """The quarter of the passes with the least total job time, at least three.

    Other tenants of a shared machine slow its CPU down for seconds at a
    time, so some passes of a run are slower than others; the fastest ones
    ran while the machine was least disturbed. A slower program is slower in
    every pass, the fastest included. Whole passes are kept, not each job's
    own best time: a minimum taken job by job picks every job's luckiest
    moment and keeps falling as passes are added.
    """
    ranked = sorted(passes, key=lambda r: sum(r["latencies"]))
    return ranked[: max(3, round(len(ranked) / 4))]


def latencies_ms(passes: list) -> list[float]:
    """Every job latency of the passes, in ms."""
    return [t * 1000 for r in passes for t in r["latencies"]]


def job_time_s(passes: list) -> float:
    """Median total job time of a pass, in s."""
    return statistics.median(sum(r["latencies"]) for r in passes)


def end_to_end(workload: str, m: dict) -> tuple[dict, list[str]]:
    passes = m["passes"]
    kept = fastest_passes(passes)
    samples = latencies_ms(kept)
    n = len(samples)
    if workload == "cli-mix":
        helps = [t for r in passes for t in r["probes"]["help"]]
        setup, setup_note = statistics.median(helps), f"median of {len(helps)} `covercalc --help` subprocesses"
    else:
        setup = statistics.median(r["setup_s"] for r in passes)
        setup_note = f"median of {len(passes)} fresh interpreters"
    values = {
        "wall_s": job_time_s(kept),
        "job_p50_ms": percentile(samples, 50),
        "job_p90_ms": percentile(samples, 90),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in passes) / 1024,
    }
    fastest = f"the fastest {len(kept)} of {len(passes)} passes"
    per_job = f"{n} job latencies from {fastest}"
    notes = {
        "wall_s": f"median job time of {fastest}; median of all passes {job_time_s(passes):.4g} s",
        "job_p50_ms": per_job,
        "job_p90_ms": f"{per_job}; {n - math.ceil(90 * n / 100)} samples beyond",
        "setup_s": setup_note,
        "peak_rss_mb": "largest covercalc child per pass, median" if workload == "cli-mix"
        else "worker VmHWM per pass, median",
    }
    return values, [f"{k} {values[k]:.6g} {u}  ({notes[k]})" for k, u in END_TO_END]


def per_layer(workload: str, doc: dict, m: dict) -> tuple[dict, list[str]]:
    import oracles

    jobs = doc["jobs"]

    @functools.lru_cache(maxsize=None)
    def job_counts(j):
        job = jobs[j]
        if job["kind"] == "cli":
            d = job["files"][job["argv"][2]]
            p = int(job["argv"][job["argv"].index("--p") + 1])
            chain = job.get("chain")
        else:
            d, p = job["diagram"], job["p"]
            chain = len(d["legs"]) if job["kind"] == "chain" else None
        return oracles.state_counts(d, p, chain)

    traced = m["traced"]
    per_pass = [tracer.layer_metrics(r["trace"], job_counts) for r in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    lines = []
    counts_vary = [name for name, unit, _ in tracer.PER_LAYER
                   if unit == "count" and name in values and len({p[name] for p in per_pass}) > 1]
    if counts_vary:
        lines.append(f"WARNING counts differ between traced passes: {counts_vary}")

    values.update({name: 0.0 for name, _, _ in tracer.PER_LAYER if name.startswith("cli.")})
    if workload == "cli-mix":
        probes = m["probes"]
        interp, imported = min(probes["interp"]), min(probes["import"])  # least disturbed start
        values["cli.interp_start_ms"] = interp * 1000
        values["cli.import_ms"] = (imported - interp) * 1000
        values["cli.main_ms"] = statistics.median(x for r in m["inproc"] for x in r["latencies"]) * 1000
        kept = fastest_passes(m["passes"])
        for c in tracer.CLI_SUBCOMMANDS:
            values[f"cli.{c}.ms"] = statistics.median(
                t * 1000 for r in kept for job, t in zip(jobs, r["latencies"]) if job["argv"][0] == c
            )
        want = [oracles.cli(job)[0] for job in jobs]
        values["cli.exit_code_mismatch"] = sum(
            1 for w, got in zip(want, m["passes"][0]["outputs"]) if got["exit"] != w
        )
        untraced = m["inproc"]
        cli_p50 = percentile(latencies_ms(kept), 50)
    else:
        untraced = m["passes"]
        cli_p50 = 0.0
    values["trace.overhead_ratio"] = job_time_s(fastest_passes(traced)) / job_time_s(fastest_passes(untraced))
    wall_traced = statistics.median(r["wall"] for r in traced)

    misses = tracer.table_checks(workload, traced[0]["trace"], traced[0]["wall"])
    for claim, share in tracer.predictions(workload, values, wall_traced, cli_p50):
        ok = share > 0.5
        lines.append(f"{'PASS' if ok else 'MISS'} prediction: {claim} = {share:.1%}")
        if not ok:
            misses.append(f"prediction not met: {claim} = {share:.1%}")
    for miss in misses:
        lines.append(f"MISS table check: {miss}")
    values["trace.check_misses"] = len(misses)
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit, _ in tracer.PER_LAYER]
    return values, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    doc = workloads.generate(workload, seed)
    m = measure(workload, doc, seconds, trace)
    checked = check_outputs(doc, m["passes"] + m["traced"] + m.get("inproc", []))
    info = workloads.WORKLOADS[workload]
    print(f"== {workload}  seed {seed}  {len(doc['jobs'])} jobs  "
          f"{len(m['passes'])} untraced + {len(m['traced'])} traced passes  (closed loop, one caller)")
    print(f"   why: {info['why']}")
    print(f"   exercises {info['exercises']}; bypasses {info['bypasses']}")
    if trace:
        values, lines = per_layer(workload, doc, m)
        names = [name for name, _, _ in tracer.PER_LAYER]
    else:
        values, lines = end_to_end(workload, m)
        names = [name for name, _ in END_TO_END]
    failures = checked["unexpected"] + checked["known"]
    lines.append(
        f"fail_ratio {failures / checked['attempted']:.6g} ratio  ({failures} / {checked['attempted']} "
        f"attempted; known defects {checked['known']} on job ids {checked['known_ids']}; "
        f"unexpected {checked['unexpected']})"
    )
    lines += [f"ORACLE MISMATCH {p}" for p in checked["problems"]]
    for line in lines:
        print("   " + line)
    units = dict(END_TO_END)
    units.update({name: unit for name, unit, _ in tracer.PER_LAYER})
    return {
        "correct": checked["unexpected"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["unexpected"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covercalc" / "__init__.py").is_file():
        print(f"error: no covercalc sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
