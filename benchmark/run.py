"""namelogic benchmark: time to verdict for model checking, decision,
bisimulation and the command line.

    python3 benchmark/run.py --workload check --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, nothing is
installed.  One closed-loop client issues the workload's queries one after
another, in whole passes over the seeded query set, with freshly loaded
models for every pass, until --seconds have passed (and, untraced, at least
MIN_QUERIES queries, so that ten lie beyond p90).  Verdicts are then checked
outside the timed section.  The last line of stdout is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of a traced run, whose spans are written to benchmark/out/.  The exit code
is 1 when a verdict is wrong and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("check", "decide", "bisim", "cli")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_QUERIES = 110
PERCENTILE_QUERIES = 100

SETUP_CHILD = """\
import json, sys
import namelogic.cli
from namelogic import kripke
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        kripke.model_from_dict(json.load(fh))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

# per-layer metric -> span name (times) or counter (counts), per pass
LAYER_TIMES = {
    "formula.parse_s": "formula.parse_formula",
    "kripke.model_from_dict_s": "kripke.model_from_dict",
    "kripke.extension_s": "kripke.extension",
    "kripke.check_s": "kripke.check",
    "neighborhood.kripke_to_nbhd_s": "neighborhood.kripke_to_nbhd",
    "neighborhood.extension_nbhd_s": "neighborhood.extension_nbhd",
    "neighborhood.verify_algebra_equations_s": "neighborhood.verify_algebra_equations",
    "decision.satisfiable_sat_s": "decision.satisfiable_sat",
    "decision.satisfiable_unsat_s": "decision.satisfiable_unsat",
    "decision.valid_s": "decision.valid",
    "decision.oracle_hit_s": "decision.oracle_hit",
    "decision.oracle_miss_s": "decision.oracle_miss",
    "equivalence.greatest_bisimulation_s": "equivalence.greatest_bisimulation",
    "equivalence.bisimilar_s": "equivalence.bisimilar",
    "equivalence.distinguishing_formula_s": "equivalence.distinguishing_formula",
    "equivalence.check_bisimulation_s": "equivalence.check_bisimulation",
    "cli.process_s": "cli.process",
    "cli.main_s": "cli.main",
}
LAYER_COUNTS = (
    "formula.parse_nodes",
    "kripke.states_evaluated",
    "decision.model_states",
    "decision.model_agents",
    "decision.model_edges",
    "decision.closure_size",
    "decision.initial_atoms",
    "decision.rounds",
    "equivalence.relation_pairs",
    "equivalence.distinguisher_nodes",
    "cli.stdout_bytes",
)


def make_workload(name: str, seed: int, workdir: str):
    if name == "check":
        from wl_check import CheckWorkload
        return CheckWorkload(seed)
    if name == "decide":
        from wl_decide import DecideWorkload
        return DecideWorkload(seed)
    if name == "bisim":
        from wl_bisim import BisimWorkload
        return BisimWorkload(seed)
    from wl_cli import CliWorkload
    return CliWorkload(seed, workdir, child_env())


def child_env() -> dict:
    """The caller's environment with src first on PYTHONPATH, so children run
    the package without it being installed.  PATH and the rest are kept."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def measure_setup(wl, workdir: str) -> float:
    """Median wall time of a fresh interpreter importing namelogic.cli and
    loading the workload's models through kripke.model_from_dict."""
    paths = []
    for i, text in enumerate(wl.setup_texts()):
        path = os.path.join(workdir, f"setup{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, *paths], env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_import() -> float:
    """Median cumulative import time of namelogic.cli, from -X importtime."""
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import namelogic.cli"],
                              env=env, check=True, capture_output=True, text=True, timeout=120)
        total = 0
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
            if match and match.group(2).startswith("namelogic"):
                total += int(match.group(1))  # top-level entries only: no indent
        times.append(total / 1e6)
    return statistics.median(times)


def cpu_seconds(children: bool) -> float:
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime
    return time.process_time()


def run_passes(wl, tracers, seconds: float, min_queries: int, children: bool):
    """Closed loop, one client: whole passes over the query set, cycling
    through the tracers pass by pass, until both the time and the query
    floor are reached.  Returns the passes."""
    passes = []
    started = time.perf_counter()
    while True:
        tr = tracers[len(passes) % len(tracers)]
        ctx = wl.fresh(tr)
        p = {"times": [], "cpus": [], "failed": [], "verdicts": [], "artifacts": [],
             "errors": {}, "traced": tr.enabled, "refs": [calib.sample()], "ref_at": []}
        since = 0.0
        for q in wl.queries:
            tr.qid = q["id"]
            c0 = cpu_seconds(children)
            t0 = time.perf_counter()
            try:
                verdict, artifact = tr.call("query", wl.run, q, ctx, tr)
                failed = False
            except Exception as exc:  # counted as a failed query, never fatal
                verdict, artifact, failed = f"error:{type(exc).__name__}", None, True
                p["errors"][type(exc).__name__] = p["errors"].get(type(exc).__name__, 0) + 1
            p["times"].append(time.perf_counter() - t0)
            p["cpus"].append(cpu_seconds(children) - c0)
            p["ref_at"].append(len(p["refs"]))
            since += p["times"][-1]
            if since >= calib.INTERVAL_S:
                p["refs"].append(calib.sample())
                since = 0.0
            p["failed"].append(failed)
            p["verdicts"].append(verdict)
            p["artifacts"].append(artifact if not passes else None)
            if tr.enabled and hasattr(wl, "run_in_process"):
                tr.call("in_process", wl.run_in_process, q, tr)
        tr.qid = None
        p["refs"].append(calib.sample())
        refs = [calib.local(p["refs"], k) for k in p["ref_at"]]
        p["costs"] = [t / r for t, r in zip(p["times"], refs)]
        p["cpu_costs"] = [c / r for c, r in zip(p["cpus"], refs)]
        passes.append(p)
        done = len(passes) * len(wl.queries)
        if time.perf_counter() - started >= seconds and done >= min_queries:
            return passes


def gate(wl, passes, tr) -> dict[int, list[str]]:
    """Mismatches per query id: the workload's checks on the first pass, and
    any verdict that changed between passes."""
    first = passes[0]
    bad: dict[int, list[str]] = {}
    for q, verdict, artifact in zip(wl.queries, first["verdicts"], first["artifacts"]):
        if verdict.startswith("error:"):
            continue
        try:
            errors = wl.gate(q, verdict, artifact, tr)
        except Exception as exc:  # a check that cannot run is a mismatch
            errors = [f"gate raised {type(exc).__name__}: {exc}"]
        if errors:
            bad[q["id"]] = errors
    for p in passes[1:]:
        for q, v0, v in zip(wl.queries, first["verdicts"], p["verdicts"]):
            if v != v0:
                bad.setdefault(q["id"], []).append(f"verdict changed between passes: {v0} -> {v}")
    return bad


def digest(wl, passes) -> str:
    """Verdicts only (no models, witnesses or distinguishers), deep queries
    excluded: their outcome today is a RecursionError that a fix may change."""
    h = hashlib.sha256()
    for q, verdict in zip(wl.queries, passes[0]["verdicts"]):
        if not q["deep"]:
            h.update(f"{q['id']}={verdict}\n".encode())
    return h.hexdigest()[:16]


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def count_failed(wl, passes, bad) -> int:
    return sum(failed or q["id"] in bad
               for p in passes for q, failed in zip(wl.queries, p["failed"]))


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024


def end_to_end(setup_s, passes, failed, rss_mb) -> dict:
    """Times in reference units (calib.py): each query counts at the median
    of its per-pass costs.  Percentiles need ten samples beyond p90, so with
    fewer than PERCENTILE_QUERIES distinct queries they pool every sample
    instead."""
    cost = [statistics.median(cs) for cs in zip(*(p["costs"] for p in passes))]
    cpu = [statistics.median(cs) for cs in zip(*(p["cpu_costs"] for p in passes))]
    if len(cost) >= PERCENTILE_QUERIES:
        sample = [math.inf if f else c for c, f in zip(cost, passes[0]["failed"])]
    else:
        sample = [math.inf if f else c for p in passes for c, f in zip(p["costs"], p["failed"])]
    total = sum(sum(p["costs"]) for p in passes)

    def pct(share):
        value = percentile(sample, share)  # a failed query is slower than any limit
        return value if value != math.inf else total

    attempted = len(passes) * len(cost)
    values = {
        "setup_s": setup_s,
        "queries_per_kref": 1000 * len(cost) / sum(cost),
        "latency_p50_ref": pct(0.5),
        "latency_p90_ref": pct(0.9),
        "cpu_ref": sum(cpu),
        "peak_rss_mb": rss_mb,
        "ok_rate": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def wall_figures(passes) -> str:
    """The same figures in plain wall time, for reading: per-query median
    wall and CPU time, and the reference's median time."""
    wall = [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]
    cpu = [statistics.median(cs) for cs in zip(*(p["cpus"] for p in passes))]
    ref = statistics.median(r for p in passes for r in p["refs"])
    return (f"  wall: queries_per_s={len(wall) / sum(wall):.6g}"
            f" latency_p50_ms={1000 * percentile(wall, 0.5):.6g}"
            f" latency_p90_ms={1000 * percentile(wall, 0.9):.6g}"
            f" cpu_s={sum(cpu):.6g} reference_ms={1000 * ref:.6g}")


def per_layer(loop_tr, gate_tr, n_passes, overhead_pct, import_s) -> dict:
    loop, checked = loop_tr.self_times(), gate_tr.self_times()
    out = {}
    for metric, span in LAYER_TIMES.items():
        out[metric] = ({"value": loop.get(span, 0.0) / n_passes + checked.get(span, 0.0),
                        "unit": "s"})
    for metric in LAYER_COUNTS:
        out[metric] = {"value": loop_tr.counts.get(metric, 0) / n_passes, "unit": "count"}
    calls = loop_tr.counts.get("decision.oracle_calls", 0)
    hits = loop_tr.counts.get("decision.oracle_hits", 0)
    out["decision.oracle_hit_ratio"] = {"value": hits / calls if calls else 0.0, "unit": "ratio"}
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "namelogic" / "__init__.py").is_file():
        print(f"benchmark: no namelogic package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import namelogic.cli  # noqa: F401  (fails early; also writes the bytecode cache)
    from spans import NoTracer, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        children = args.workload == "cli"
        if args.trace:
            # untraced and traced passes alternate; the difference between
            # their median pass times is the tracing overhead
            loop_tr = Tracer()
            passes = run_passes(wl, [NoTracer(), loop_tr], args.seconds, 2 * len(wl.queries), children)
            plain = [sum(p["times"]) for p in passes if not p["traced"]]
            traced = [sum(p["times"]) for p in passes if p["traced"]]
            base = statistics.median(plain)
            overhead_pct = 100 * (statistics.median(traced) - base) / base
            gate_tr = Tracer()
            bad = gate(wl, passes, gate_tr)
            metrics = per_layer(loop_tr, gate_tr, len(traced), overhead_pct, measure_import())
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            loop_tr.write(trace_path)
        else:
            setup_s = measure_setup(wl, workdir)
            passes = run_passes(wl, [NoTracer()], args.seconds, MIN_QUERIES, children)
            rss_mb = peak_rss_mb(children)  # before the gate allocates anything
            bad = gate(wl, passes, NoTracer())
        if args.seed == DEFAULT_SEED:
            expected = json.loads((HERE / "expected_digests.json").read_text()).get(args.workload)
            got = digest(wl, passes)
            if expected is not None and got != expected:
                bad.setdefault(-1, []).append(f"verdict digest {got} != expected {expected}")
        failed = count_failed(wl, passes, bad)
        attempted = len(passes) * len(wl.queries)
        if not args.trace:
            metrics = end_to_end(setup_s, passes, failed, rss_mb)
        errors: dict[str, int] = {}
        for p in passes:
            for name, n in p["errors"].items():
                errors[name] = errors.get(name, 0) + n
        for qid, messages in sorted(bad.items()):
            print(f"MISMATCH query {qid}: {'; '.join(messages)}", file=sys.stderr)
        print(f"{args.workload} seed={args.seed} passes={len(passes)} queries={attempted}"
              f" failed={failed} error_rate={failed / attempted:.4f}"
              f" errors={json.dumps(errors, sort_keys=True)} mismatched_queries={len(bad)}"
              f" digest={digest(wl, passes)}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if not args.trace:
            print(wall_figures(passes))
        print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if not bad else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
