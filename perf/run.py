#!/usr/bin/env python3
"""Build, run and check the SecPB simulator benchmark.

Run from the repository root:

  python3 perf/run.py --seed 7            all five workloads, end-to-end
  python3 perf/run.py --seed 7 --trace    ... then a traced pass: per-layer
                                          metrics, decomposition, and
                                          build-perf/results/trace.json
  python3 perf/run.py --workload crash_soak --seed 3 --seconds 15 --trace 0
                                          one workload; the last stdout line
                                          is the JSON result
  python3 perf/run.py --repeat 5          interleaved repeats (seed, seed+1,
                                          ...): median and quartiles
  python3 perf/run.py --check-repeat      two sets of --repeat runs; fails if
                                          an end-to-end median moves by more
                                          than its bound
  python3 perf/run.py --record-golden --seed 7
                                          rewrite perf/golden/seed-7.json

The program is built from source into build-perf/. Every workload runs in
its own process; each point's modelled outputs are digested and compared
with perf/golden/seed-N.json (seeds without a file report
"digest: unchecked" and are held to the invariants and round-to-round
determinism only). Metric names, units, directions and bounds come from
BENCHMARK.json. Full per-run reports, with the host identity, are written
to build-perf/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
BUILD = ROOT / "build-perf"
BINARY = BUILD / "secpb_perf"
GOLDEN = PERF / "golden"
RESULTS = BUILD / "results"
WORKLOADS = ["paper_point", "scheme_sweep", "battery_adaptive", "crash_soak",
             "multicore_share"]
# Golden files keep at most this many digests per workload; larger
# rounds fold consecutive point digests into one per chunk.
GOLDEN_MAX_ENTRIES = 400
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perf/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configure (once) and build secpb_perf; exit non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={PERF}\n" \
            not in cache.read_text():
        shutil.rmtree(BUILD)  # Configured from another checkout.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "secpb_perf"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            die(f"build failed: {' '.join(cmd)}")


def host_identity(doc):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            sha = p.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": doc["compiler"],
        "cxx_flags": doc["cxx_flags"],
        "build_type": doc["build_type"],
        "git_sha": sha,
        "seed": doc["seed"],
        "jobs": doc["jobs"],
    }


def chunk_digests(digests):
    """Fold point digests into at most GOLDEN_MAX_ENTRIES chunk digests."""
    size = max(1, -(-len(digests) // GOLDEN_MAX_ENTRIES))
    if size == 1:
        return size, list(digests)
    return size, [hashlib.sha1("".join(digests[i:i + size]).encode())
                  .hexdigest()[:16] for i in range(0, len(digests), size)]


def golden_path(seed):
    return GOLDEN / f"seed-{seed}.json"


def check_golden(doc):
    """Return (status, points_mismatched)."""
    path = golden_path(doc["seed"])
    if not path.is_file():
        return "unchecked", 0
    entry = json.loads(path.read_text())["workloads"].get(doc["workload"])
    if entry is None:
        return "unchecked", 0
    size, got = chunk_digests(doc["digests"])
    want = entry["digests"]
    if entry["points"] != len(doc["digests"]) or entry["chunk"] != size:
        return f"mismatch (golden has {entry['points']} points)", \
            len(doc["digests"])
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if not bad:
        return f"match ({path.name})", 0
    first = doc["labels"][bad[0] * size]
    points = sum(len(doc["digests"][i * size:(i + 1) * size]) for i in bad)
    return f"mismatch: {points} points, first {first}", points


def run_workload(name, seed, seconds, trace, golden=True):
    """Run one workload in its own process; return its checked report."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}{'-trace' if trace else ''}"
    trace_out = RESULTS / f"{tag}.trace.json"
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", str(trace_out)]
    start = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{name}: no result within {RUN_TIMEOUT_S} s")
    if p.returncode != 0:
        die(f"{name}: secpb_perf exited with {p.returncode}")
    doc = json.loads(p.stdout)
    doc["process_wall_s"] = time.monotonic() - start
    doc["host"] = host_identity(doc)
    doc["digest"], bad = check_golden(doc) if golden else ("recorded", 0)
    doc["failed"] = min(doc["attempted"],
                        doc["failed"] + bad * doc["rounds"])
    doc["correct"] = doc["failed"] == 0
    if trace:
        doc["trace_file"] = str(trace_out)
    (RESULTS / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def result_line(doc, names):
    """The one-line result: exactly these keys, the chosen metrics."""
    section = doc["layers"] if doc["trace"] else doc["metrics"]
    metrics = {}
    for n in names:
        if n not in section:
            die(f"{doc['workload']}: metric {n} missing")
        metrics[n] = {"value": section[n]["value"],
                      "unit": section[n]["unit"]}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def print_report(doc, names):
    section = doc["layers"] if doc["trace"] else doc["metrics"]
    print(f"{doc['workload']} seed {doc['seed']}: {doc['rounds']} rounds x "
          f"{doc['points_per_round']} points, jobs {doc['jobs']}, "
          f"digest: {doc['digest']}, failed {doc['failed']}/"
          f"{doc['attempted']} (failed_frac "
          f"{doc['failed'] / doc['attempted']:.4g})")
    for f in doc["failures"][:5]:
        print(f"  FAIL {f}")
    for n in names:
        m = section[n]
        print(f"  {n:30s} {m['value']:14.6g} {m['unit']:9s} "
              f"n={m['samples']}")
    info = doc["info"]
    for k in sorted(info):
        print(f"  {'(' + k + ')':30s} {info[k]:14.6g}")
    if doc["trace"]:
        d = doc["decomposition"]
        parts = ", ".join(f"{k} {v:.3f}" for k, v in d.items()
                          if k not in ("run_s", "unexplained_s"))
        print(f"  decomposition of {d['run_s']:.3f} host s of simulation "
              f"per round (count x probe cost, s): {parts}; unexplained "
              f"{d['unexplained_s']:.3f}")
        print(f"  trace: {doc['trace_file']}")


def merge_traces(docs, path):
    """One trace_event file for the traced pass: a process per workload."""
    events = []
    for pid, doc in enumerate(docs, start=1):
        trace = json.loads(Path(doc["trace_file"]).read_text())
        for ev in trace["traceEvents"]:
            ev["pid"] = pid
            if ev["ph"] == "M" and ev["name"] == "process_name":
                ev["args"] = {"name": doc["workload"]}
            events.append(ev)
    path.write_text(json.dumps({"traceEvents": events}) + "\n")


def validate_trace(path):
    tool = ROOT / "tools" / "validate_trace.py"
    if not tool.is_file():
        print(f"trace {path} not validated: {tool} not found")
        return True
    p = subprocess.run([sys.executable, str(tool), str(path),
                        "--min-events", "100"], capture_output=True,
                       text=True)
    print(f"trace {path}: " + (p.stdout or p.stderr).strip())
    return p.returncode == 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat_set(spec, seed, repeat, seconds):
    """Run every workload `repeat` times, interleaved, seeds seed+k."""
    names = [m["name"] for m in spec["end_to_end"]]
    values = {w: {n: [] for n in names} for w in WORKLOADS}
    ok = True
    for k in range(repeat):
        for w in WORKLOADS:
            doc = run_workload(w, seed + k, seconds, False)
            ok &= doc["correct"]
            for n in names:
                values[w][n].append(doc["metrics"][n]["value"])
            print(f"  run {k + 1}/{repeat} {w} seed {seed + k}: "
                  f"digest {doc['digest']}, wall_s "
                  f"{doc['metrics']['wall_s']['value']:.4f}", flush=True)
    return values, ok


def print_set(spec, values):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"  {'workload':17s} {'metric':14s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w, per in values.items():
        for n, v in per.items():
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {w:17s} {n:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[n]:6.2f}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run only this workload (result line on stdout)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float,
                    help="host seconds each run measures "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="per-layer pass")
    ap.add_argument("--repeat", type=int, default=0, metavar="K")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    build()

    if args.workload:
        doc = run_workload(args.workload, args.seed, seconds, args.trace)
        names = layers if args.trace else e2e
        print_report(doc, names)
        print(json.dumps(result_line(doc, names)), flush=True)
        sys.exit(0 if doc["correct"] else 1)

    if args.record_golden:
        entries = {}
        for w in WORKLOADS:
            doc = run_workload(w, args.seed, 0, False, golden=False)
            if doc["failed"]:
                die(f"{w}: {doc['failures'][:3]}; golden not written")
            size, digests = chunk_digests(doc["digests"])
            entries[w] = {"points": len(doc["digests"]), "chunk": size,
                          "digests": digests}
            print(f"{w}: {len(doc['digests'])} points recorded")
        GOLDEN.mkdir(exist_ok=True)
        golden_path(args.seed).write_text(json.dumps(
            {"seed": args.seed, "workloads": entries}, indent=1) + "\n")
        print(f"wrote {golden_path(args.seed)}")
        return

    if args.repeat or args.check_repeat:
        repeat = args.repeat or 5
        sets = 2 if args.check_repeat else 1
        medians, ok = [], True
        for s in range(sets):
            print(f"set {s + 1}/{sets}: {repeat} runs per workload")
            values, set_ok = repeat_set(spec, args.seed, repeat, seconds)
            ok &= set_ok
            print_set(spec, values)
            medians.append({w: {n: statistics.median(v)
                                for n, v in per.items()}
                            for w, per in values.items()})
        if args.check_repeat:
            for m in spec["end_to_end"]:
                for w in WORKLOADS:
                    a, b = medians[0][w][m["name"]], medians[1][w][m["name"]]
                    moved = (b - a) / a if a else 0.0
                    flag = "ok" if abs(moved) <= m["bound"] else "MOVED"
                    ok &= abs(moved) <= m["bound"]
                    print(f"  {flag:5s} {w:17s} {m['name']:14s} "
                          f"{a:12.6g} -> {b:12.6g} ({moved:+.2%}, bound "
                          f"{m['bound']:.0%})")
        sys.exit(0 if ok else 1)

    ok = True
    for w in WORKLOADS:
        doc = run_workload(w, args.seed, seconds, False)
        ok &= doc["correct"]
        print_report(doc, e2e)
    if args.trace:
        print("\ntraced pass (per-layer metrics; not gated)")
        docs = []
        for w in WORKLOADS:
            docs.append(run_workload(w, args.seed, seconds, True))
            ok &= docs[-1]["correct"]
            print_report(docs[-1], layers)
        merge_traces(docs, RESULTS / "trace.json")
        ok &= validate_trace(RESULTS / "trace.json")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
