#!/usr/bin/env python3
"""Run a benchmark sweep of this checkout against a parent commit.

    python3 tools/sweep.py --parent <rev> --workload <name> --pairs 8 --seed <first> \
        --change "<what the change does>" [--trace1]
    python3 tools/sweep.py --recompute

A sweep is N alternating pairs of `djbench/run.py --seconds 8 --trace 0`: pair i
runs seed first + i on both sides, the parent first in even pairs and the
change first in odd ones, so drift of the host's speed during the sweep falls
on both sides alike. The parent side runs in a checkout of `--parent`,
exported with `git archive` into `.bench_work/parent-<sha>/` (it builds there
on its first run); the change side is this checkout. `--trace1` adds one
`--trace 1` run per side on seed first + 50, for the per-layer metrics and the
deterministic work counts.

Each result line is appended to `BENCH_<workload>.json` as it arrives, and
after the pairs one summary line per side: the median and the inclusive first
and third quartiles of each end-to-end metric over that side's `--trace 0`
runs, and `change_wins`, the pairs in which the change did better on
`cpu_s_per_mb`. `--recompute` rebuilds every summary line of the BENCH files from
the result lines before it and reports each one that differs from the stored
line; it writes nothing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("web-pretrain", "near-dup", "feedback-loop")
SECONDS = 8
METRIC = "cpu_s_per_mb"
RESULT_SOURCE = "djbench/run.py result line"
SUMMARY_SOURCE = "summary of the result lines above"


def log(msg):
    print(f"[sweep] {msg}", file=sys.stderr, flush=True)


def bench_file(workload):
    return os.path.join(ROOT, f"BENCH_{workload}.json")


def read_entries(workload):
    path = bench_file(workload)
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return json.load(fh)


def append_entry(workload, entry):
    entries = read_entries(workload) + [entry]
    tmp = bench_file(workload) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(entries, indent=1) + "\n")
    os.replace(tmp, bench_file(workload))


def end_to_end():
    """The end-to-end metrics and whether lower is better, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def summarize(results, side):
    """The summary line of `side` over `results`, the `--trace 0` result lines of one sweep."""
    runs = {e["seed"]: e for e in results if e["side"] == side and e["trace"] == 0}
    other = {e["seed"]: e for e in results if e["side"] != side and e["trace"] == 0}
    seeds = sorted(runs)
    first = runs[seeds[0]]
    lower = end_to_end()[METRIC]

    def value(e, m):
        return e["result"].get("metrics", {}).get(m, {}).get("value")

    names = [METRIC] + [m for m in first["result"].get("metrics", {}) if m != METRIC]
    metrics = {}
    for m in names:
        vals = [value(runs[s], m) for s in seeds if value(runs[s], m) is not None]
        if not vals:
            continue
        q = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 else [vals[0]] * 3
        metrics[m] = {"median": round(statistics.median(vals), 4), "q1": round(q[0], 4), "q3": round(q[2], 4)}
    wins = 0
    for s in seeds:
        if s in other and value(runs[s], METRIC) is not None and value(other[s], METRIC) is not None:
            change, parent = (runs[s], other[s]) if side == "change" else (other[s], runs[s])
            a, b = value(change, METRIC), value(parent, METRIC)
            wins += (a < b) if lower else (a > b)
    return {"workload": first["workload"], "compared": first["compared"], "change": first["change"],
            "commit": first["commit"], "side": side, "seeds": [seeds[0], seeds[-1]],
            "pairs": len([s for s in seeds if s in other]), "trace": 0, "seconds": first["seconds"],
            "source": SUMMARY_SOURCE, "metrics": metrics, "change_wins": wins}


def recompute():
    """Rebuild each stored summary line from the result lines of its sweep; return the mismatches."""
    bad = 0
    for w in WORKLOADS:
        entries = read_entries(w)
        for i, e in enumerate(entries):
            if e.get("source") != SUMMARY_SOURCE:
                continue
            results = [r for r in entries[:i] if r.get("source") == RESULT_SOURCE
                       and r.get("compared") == e["compared"] and r.get("change") == e["change"]]
            if not results:
                log(f"{w} entry {i} ({e['compared']}, {e['side']}): no result lines to rebuild it from")
                continue
            rebuilt = summarize(results, e["side"])
            same = rebuilt == e
            bad += not same
            verdict = ("rebuilt exactly" if json.dumps(rebuilt) == json.dumps(e)
                       else "same values, stored in another key order" if same else "DIFFERS")
            log(f"{w} entry {i} ({e['compared']}, {e['side']}): {verdict}")
            if not same:
                log(f"  stored:  {json.dumps(e)}")
                log(f"  rebuilt: {json.dumps(rebuilt)}")
    return bad


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def parent_checkout(rev):
    """A checkout of `rev` under .bench_work/, exported once with git archive."""
    sha = git("rev-parse", "--short", rev)
    path = os.path.join(ROOT, ".bench_work", f"parent-{sha}")
    if not os.path.exists(os.path.join(path, "djbench", "run.py")):
        os.makedirs(path, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
    return sha, path


def run_once(checkout, workload, seed, trace):
    """One djbench invocation in `checkout`: its JSON result, or a failed result."""
    cmd = [sys.executable, "djbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    logs = os.path.join(ROOT, ".bench_work", "sweep-logs")
    os.makedirs(logs, exist_ok=True)
    t0 = time.time()
    with open(os.path.join(logs, f"{os.path.basename(checkout)}-{workload}-{seed}-trace{trace}.log"), "w") as err:
        r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                  "error": f"exit code {r.returncode}, no result line"}
    log(f"{workload} seed {seed} trace {trace} in {os.path.relpath(checkout, ROOT)}: "
        f"{time.time() - t0:.0f} s, correct {result.get('correct')}, failed {result.get('failed')}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="the commit to compare this checkout against")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seed", type=int, help="seed of the first pair; pair i runs seed + i")
    ap.add_argument("--change", help="one line on what the change does, stored with every entry")
    ap.add_argument("--trace1", action="store_true", help="add one --trace 1 run per side, on seed + 50")
    ap.add_argument("--recompute", action="store_true", help="rebuild the stored summary lines and compare")
    a = ap.parse_args()
    if a.recompute:
        sys.exit(1 if recompute() else 0)
    if not (a.parent and a.workload and a.seed is not None and a.change):
        ap.error("a sweep needs --parent, --workload, --seed and --change")
    sha, parent_dir = parent_checkout(a.parent)
    sides = {"parent": (sha, parent_dir), "change": (f"child of {sha}", ROOT)}
    compared = f"{sha}..child of {sha}"
    results = []

    def record(side, seed, trace):
        commit, checkout = sides[side]
        entry = {"workload": a.workload, "compared": compared, "change": a.change, "commit": commit,
                 "side": side, "seed": seed, "trace": trace, "seconds": SECONDS, "source": RESULT_SOURCE,
                 "result": run_once(checkout, a.workload, seed, trace)}
        append_entry(a.workload, entry)
        results.append(entry)

    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record(side, a.seed + i, 0)
    if a.trace1:
        for side in ("parent", "change"):
            record(side, a.seed + 50, 1)
    for side in ("parent", "change"):
        summary = summarize(results, side)
        append_entry(a.workload, summary)
        m = summary["metrics"].get(METRIC, {})
        log(f"{side}: {METRIC} median {m.get('median')} (q1 {m.get('q1')}, q3 {m.get('q3')}), "
            f"change wins {summary['change_wins']} of {summary['pairs']}")


if __name__ == "__main__":
    main()
