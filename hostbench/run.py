#!/usr/bin/env python3
"""Host-time benchmark of the GILFree simulator (see README.md).

Builds the `hostbench` binary from the checkout's sources, runs one workload
for one seed and prints its metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics (measured with tracing off), --trace 1 the per-layer ones.

    python3 hostbench/run.py --workload bt-htm --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --smoke      # quick-size self-test of every workload

Exit code 0 when every check passed, 1 when a check failed, 2 on usage or
build errors (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median

WORKLOADS = ("bt-htm", "bt-stm-fallback", "serve-fleet")
DEFAULT_SEED = 1  # held-out seed for re-checking gain claims: 1009 (README)
# Seconds of hostbench's reference kernel at its fastest on the 4-vCPU host
# the bounds were set on. bt-* host times are scaled to this speed (README).
REF_NOMINAL_S = 0.033

# name -> unit, in print order. run.py and BENCHMARK.json must agree; the
# smoke test checks that they do.
END_TO_END = {
    "setup_s": "s",
    "host_s": "s",
    "host_cpu_s": "s",
    "host_ns_per_insn": "ns",
    "sim_req_per_host_s": "req/s",
    "peak_rss_mb": "MB",
    "sim_elapsed_us": "sim_us",
    "sim_p50_kcycles": "kcycles",
    "sim_p999_kcycles": "kcycles",
    "sim_goodput": "ratio",
}
PER_LAYER = {
    "runtime.construct_ms": "ms",
    "runtime.run_s": "s",
    "vm.load_ms": "ms",
    "vm.insns": "count",
    "vm.ic_method_hit_ratio": "ratio",
    "vm.gil_ns_per_insn": "ns",
    "vm.insns_per_req": "insn/req",
    "tle.model_ns_per_insn": "ns",
    "tle.gil_fallbacks": "count",
    "tle.length_adjustments": "count",
    "tle.quarantine_enters": "count",
    "htm.begins": "count",
    "htm.commit_ratio": "ratio",
    "htm.aborts.conflict": "count",
    "htm.aborts.overflow": "count",
    "htm.aborts.other": "count",
    "stm.begins": "count",
    "stm.commit_ratio": "ratio",
    "stm.validated_entries": "count",
    "stm.committed_writes": "count",
    "stm.gil_fallbacks": "count",
    "sim.share.tx_success": "ratio",
    "sim.share.tx_aborted": "ratio",
    "sim.share.stm_work": "ratio",
    "sim.share.gil_held": "ratio",
    "sim.share.gil_wait": "ratio",
    "sim.share.blocked_io": "ratio",
    "sim.share.begin_end": "ratio",
    "sim.share.other": "ratio",
    "gc.collections": "count",
    "gc.minor_collections": "count",
    "gc.pause_max_kcycles": "kcycles",
    "httpsim.schedule_ms": "ms",
    "httpsim.engine_boots": "count",
    "httpsim.boot_ms": "ms",
    "httpsim.boot_share": "ratio",
    "httpsim.queue_p99_kcycles": "kcycles",
    "httpsim.dropped": "count",
    "httpsim.shed": "count",
    "cluster.run_s": "s",
    "cluster.worker_cpu_s": "s",
    "cluster.worker_sys_s": "s",
    "cluster.supervisor_cpu_s": "s",
    "cluster.parallelism": "ratio",
    "cluster.insn_imbalance": "ratio",
    "cluster.steals": "count",
    "cluster.stolen": "count",
    "bench.trace_overhead_pct": "%",
    "bench.raw_host_s": "s",
    "bench.ref_kernel_ms": "ms",
}
CYCLE_BUCKETS = ("tx_success", "tx_aborted", "stm_work", "gil_held",
                 "gil_wait", "blocked_io", "begin_end", "other")
# Layers a workload does not have, reported as 0 and named on stdout.
ABSENT = {
    "bt": {n: ("no httpsim layer: bt-* runs one program, no requests"
               if n.startswith("httpsim.") else
               "no cluster layer: the engine runs in the benchmark process")
           for n in PER_LAYER if n.startswith(("httpsim.", "cluster."))},
    "serve": {"bench.ref_kernel_ms": "serve-fleet host times are not scaled; "
                                     "its fleets run on 3-4 CPUs at once"},
}


class BenchError(Exception):
    """A usage, build or hostbench failure: exit 2 without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources not found under %s/src" % root)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "hostbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(root / "hostbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target", "hostbench",
              "-j", jobs]]
    if (build_dir / "CMakeCache.txt").is_file():
        steps = steps[1:]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return build_dir / "hostbench", build_dir.parent / "hostbench-runs"


def run_hostbench(binary, runs_dir, workload, seed, seconds, trace, quick):
    runs_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--runs-dir=" + str(runs_dir)]
    if quick:
        cmd.append("--quick")
    # A run measures for `seconds`, plus warm-up, check and traced passes
    # that take a fixed share of it.
    timeout = 4 * seconds + 50
    # Own process group, so a timeout also stops the measuring copies and
    # shard workers hostbench forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("hostbench did not finish within %g s" % timeout)
    if proc.returncode != 0:
        raise BenchError("hostbench exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


# --- per-shard metrics artifacts (serve-fleet) ------------------------------

def read_artifacts(stem, slots):
    """Sums the per-shard metrics documents of one fleet run; removes the
    trace files next to them (only the metrics are consumed). The documents
    are deterministic, so their hash joins the invariance digest whole."""
    runs, shard_insns = [], []
    docs = hashlib.sha256()
    for k in range(slots):
        path = Path("%s.shard%d.metrics.json" % (stem, k))
        trace = Path("%s.shard%d.trace.jsonl" % (stem, k))
        if trace.exists():
            trace.unlink()
        if not path.is_file():
            continue
        text = path.read_text()
        docs.update(text.encode())
        shard = json.loads(text)["runs"]
        runs += shard
        shard_insns.append(sum(r["insns_retired"] for r in shard))
    if not runs:
        raise BenchError("no metrics artifacts at " + stem)
    s = {"boots": len(runs), "insns": sum(shard_insns),
         "insn_imbalance": max(shard_insns) / (sum(shard_insns) / len(shard_insns)),
         "metrics_sha256": docs.hexdigest()}
    total = lambda f: sum(f(r) for r in runs)
    reasons = lambda r: r.get("aborts_by_reason", {})
    s["ic_method_hit_ratio"] = (total(lambda r: r["interp"]["ic_method_hit_rate"] * r["insns_retired"])
                                / s["insns"])
    s["htm.begins"] = total(lambda r: r["begins"])
    s["htm.commits"] = total(lambda r: r["commits"])
    s["htm.aborts.conflict"] = total(lambda r: reasons(r).get("conflict", 0))
    s["htm.aborts.overflow"] = total(lambda r: reasons(r).get("overflow-read", 0)
                                     + reasons(r).get("overflow-write", 0))
    s["htm.aborts.total"] = total(lambda r: r["aborts"])
    s["tle.gil_fallbacks"] = total(lambda r: r["gil_fallbacks"])
    s["tle.length_adjustments"] = total(lambda r: r["length_adjustments"])
    s["tle.quarantine_enters"] = total(lambda r: r["quarantine"]["enters"])
    for key in ("begins", "commits", "validated_entries", "committed_writes",
                "gil_fallbacks"):
        s["stm." + key] = total(lambda r: r.get("stm", {}).get(key, 0))
    for b in CYCLE_BUCKETS:
        s["cycles." + b] = total(lambda r: r["cycles"].get(b, 0))
    s["gc.collections"] = total(lambda r: r["gc"]["collections"])
    s["gc.minor_collections"] = total(lambda r: r["gc"].get("minor_collections", 0))
    s["gc.max_pause"] = max(r["gc"]["pause_max"] for r in runs)
    s["total_cycles"] = total(lambda r: r["total_cycles"])
    return s


# --- metrics -----------------------------------------------------------------

def cpu(rep):
    return rep["self_user_s"] + rep["self_sys_s"] + rep["child_user_s"] + rep["child_sys_s"]


def ratio(a, b):
    return a / b if b else 0.0


def span_summary(spans):
    """Per span name: count, total and self milliseconds (self = duration
    minus the time its child spans cover)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    rows = {}
    for s, child in zip(spans, child_ns):
        dur = s["end_ns"] - s["start_ns"]
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur / 1e6
        row[2] += (dur - child) / 1e6
    return rows


def digest(sim):
    canon = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def evaluate_bt(doc):
    """Checks + metrics of bt-htm / bt-stm-fallback."""
    reps = doc["reps"]
    runs = reps + ([doc["traced"]] if "traced" in doc else [])
    sim = reps[0]["sim"]
    oracle = doc["oracle"]["sim"]["result.verify"]
    failures = []
    failed = 0
    for i, rep in enumerate(runs):
        verify = rep["sim"]["result.verify"]
        bad = abs(verify - oracle) > abs(oracle) * 1e-9 + 1e-9
        if bad:
            failures.append("run %d: verify %r != GIL oracle %r" % (i, verify, oracle))
        if rep["sim"] != sim:
            bad = True
            failures.append("run %d: simulated statistics differ from run 0" % i)
        failed += bad

    boots = doc["setups"]  # fresh-process boots; see hostbench.cpp
    # The fastest repetition, scaled by the fastest reference kernel sample
    # of the same run to the reference speed: both are the least disturbed
    # figures of the run, and their ratio cancels the host's slow phases.
    ref_s = min(r["ref_s"] for r in reps)
    scaled = lambda seconds, ref: seconds * REF_NOMINAL_S / ref
    raw_host_s = min(r["host_s"] for r in reps)
    host_s = scaled(raw_host_s, ref_s)
    setup_s = median([b["setup_s"] for b in boots])
    ns_per_insn = host_s * 1e9 / sim["insns"]
    e2e = {
        "setup_s": setup_s,
        "host_s": host_s,
        "host_cpu_s": scaled(min(cpu(r) for r in reps), ref_s),
        "host_ns_per_insn": ns_per_insn,
        # One operation of bt-* is one whole NPB run; its "latency" is the
        # simulated run length.
        "sim_req_per_host_s": 1.0 / host_s,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "sim_elapsed_us": sim["result.elapsed_us"],
        "sim_p50_kcycles": sim["total_cycles"] / 1e3,
        "sim_p999_kcycles": sim["total_cycles"] / 1e3,
        "sim_goodput": (len(runs) - failed) / len(runs),
    }
    if "traced" not in doc:
        return e2e, None, sim, len(runs), failed, failures

    o = doc["oracle"]
    gil_ns = scaled(o["host_s"], o["ref_s"]) * 1e9 / o["sim"]["insns"]
    cycles_total = sum(sim["cycles." + b] for b in CYCLE_BUCKETS)
    layer = {
        "runtime.construct_ms": median([b["construct_s"] for b in boots]) * 1e3,
        "runtime.run_s": host_s,
        "vm.load_ms": median([b["load_s"] for b in boots]) * 1e3,
        "vm.insns": sim["insns"],
        "vm.ic_method_hit_ratio": ratio(sim["interp.ic_method_hits"],
                                        sim["interp.ic_method_hits"] + sim["interp.ic_method_misses"]),
        "vm.gil_ns_per_insn": gil_ns,
        "vm.insns_per_req": sim["insns"],
        "tle.model_ns_per_insn": ns_per_insn - gil_ns,
        "tle.gil_fallbacks": sim["tle.gil_fallbacks"],
        "tle.length_adjustments": sim["tle.length_adjustments"],
        "tle.quarantine_enters": sim["tle.quarantine_enters"],
        "htm.begins": sim["htm.begins"],
        "htm.commit_ratio": ratio(sim["htm.commits"], sim["htm.begins"]),
        "htm.aborts.conflict": sim["htm.aborts.conflict"],
        "htm.aborts.overflow": sim["htm.aborts.overflow-read"] + sim["htm.aborts.overflow-write"],
        "htm.aborts.other": sum(v for k, v in sim.items() if k.startswith("htm.aborts."))
                            - sim["htm.aborts.conflict"] - sim["htm.aborts.overflow-read"]
                            - sim["htm.aborts.overflow-write"],
        "stm.begins": sim["stm.begins"],
        "stm.commit_ratio": ratio(sim["stm.commits"], sim["stm.begins"]),
        "stm.validated_entries": sim["stm.validated_entries"],
        "stm.committed_writes": sim["stm.committed_writes"],
        "stm.gil_fallbacks": sim["stm.gil_fallbacks"],
        "gc.collections": sim["gc.collections"],
        "gc.minor_collections": sim["gc.minor_collections"],
        "gc.pause_max_kcycles": sim["gc.max_pause"] / 1e3,
        "bench.trace_overhead_pct": (scaled(doc["traced"]["host_s"], doc["traced"]["ref_s"])
                                     / host_s - 1) * 100,
        "bench.raw_host_s": raw_host_s,
        "bench.ref_kernel_ms": ref_s * 1e3,
    }
    for b in CYCLE_BUCKETS:
        layer["sim.share." + b] = ratio(sim["cycles." + b], cycles_total)
    layer.update({n: 0 for n in ABSENT["bt"]})
    return e2e, layer, sim, len(runs), failed, failures


def evaluate_serve(doc):
    """Checks + metrics of serve-fleet."""
    reps = doc["reps"]
    traced = doc["traced"]
    same_seed = reps + [traced]
    runs = same_seed + doc["tail"]
    sim = reps[0]["sim"]
    pooled = doc["pooled"]
    failures = []
    failed = 0
    for i, rep in enumerate(runs):
        s = rep["sim"]
        failed += s["dropped"] + s["shed"]
        if s["completed"] + s["dropped"] + s["shed"] != rep["scheduled"]:
            failures.append("run %d: completed + dropped + shed != scheduled %d"
                            % (i, rep["scheduled"]))
        if i >= len(same_seed):
            continue
        if s["log_fnv"] != sim["log_fnv"]:
            failures.append("run %d: merged request-log hash %d != run 0's %d"
                            % (i, s["log_fnv"], sim["log_fnv"]))
        elif s != sim:
            failures.append("run %d: fleet statistics differ from run 0" % i)
    art = read_artifacts(traced["artifact_stem"], doc["slots"])
    pool_runs = [reps[0]] + doc["tail"]

    host_s = median([r["host_s"] for r in reps])
    # Mean over fresh processes of each one's median make_schedule time.
    setup_s = fmean(doc["setups"])
    ns_per_insn = host_s * 1e9 / art["insns"]
    e2e = {
        "setup_s": setup_s,
        "host_s": host_s,
        "host_cpu_s": median([cpu(r) for r in reps]),
        "host_ns_per_insn": ns_per_insn,
        "sim_req_per_host_s": sim["completed"] / host_s,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "sim_elapsed_us": sim["makespan_cycles"] / (doc["ghz"] * 1e3),
        "sim_p50_kcycles": pooled["latency_p50"] / 1e3,
        "sim_p999_kcycles": pooled["latency_p999"] / 1e3,
        "sim_goodput": (sum(r["sim"]["completed"] for r in pool_runs)
                        / sum(r["scheduled"] for r in pool_runs)),
    }
    full_sim = dict(sim, **{"shards." + k: v for k, v in art.items()})
    full_sim.update({"pooled." + k: v for k, v in pooled.items()})
    for i, t in enumerate(doc["tail"]):
        full_sim.update({"tail%d.%s" % (i + 1, k): v for k, v in t["sim"].items()})
    attempted = sum(r["scheduled"] for r in runs)
    if "oracle" not in doc:
        return e2e, None, full_sim, attempted, failed, failures

    gil = doc["oracle"]
    gil_art = read_artifacts(gil["artifact_stem"], doc["slots"])
    gil_ns = gil["host_s"] * 1e9 / gil_art["insns"]
    worker_cpu = median([r["child_user_s"] + r["child_sys_s"] for r in reps])
    construct_ms = median([b["construct_s"] for b in doc["boots"]]) * 1e3
    load_ms = median([b["load_s"] for b in doc["boots"]]) * 1e3
    boot_ms = median([b["construct_s"] + b["load_s"] for b in doc["boots"]]) * 1e3
    cycles_total = sum(art["cycles." + b] for b in CYCLE_BUCKETS)
    layer = {
        "runtime.construct_ms": construct_ms,
        "runtime.run_s": host_s,
        "vm.load_ms": load_ms,
        "vm.insns": art["insns"],
        "vm.ic_method_hit_ratio": art["ic_method_hit_ratio"],
        "vm.gil_ns_per_insn": gil_ns,
        "vm.insns_per_req": art["insns"] / sim["completed"],
        "tle.model_ns_per_insn": ns_per_insn - gil_ns,
        "tle.gil_fallbacks": art["tle.gil_fallbacks"],
        "tle.length_adjustments": art["tle.length_adjustments"],
        "tle.quarantine_enters": art["tle.quarantine_enters"],
        "htm.begins": art["htm.begins"],
        "htm.commit_ratio": ratio(art["htm.commits"], art["htm.begins"]),
        "htm.aborts.conflict": art["htm.aborts.conflict"],
        "htm.aborts.overflow": art["htm.aborts.overflow"],
        "htm.aborts.other": art["htm.aborts.total"] - art["htm.aborts.conflict"]
                            - art["htm.aborts.overflow"],
        "stm.begins": art["stm.begins"],
        "stm.commit_ratio": ratio(art["stm.commits"], art["stm.begins"]),
        "stm.validated_entries": art["stm.validated_entries"],
        "stm.committed_writes": art["stm.committed_writes"],
        "stm.gil_fallbacks": art["stm.gil_fallbacks"],
        "gc.collections": art["gc.collections"],
        "gc.minor_collections": art["gc.minor_collections"],
        "gc.pause_max_kcycles": art["gc.max_pause"] / 1e3,
        "httpsim.schedule_ms": setup_s * 1e3,
        "httpsim.engine_boots": art["boots"],
        "httpsim.boot_ms": boot_ms,
        "httpsim.boot_share": art["boots"] * boot_ms / 1e3 / worker_cpu,
        "httpsim.queue_p99_kcycles": sim["queue_p99"] / 1e3,
        "httpsim.dropped": sim["dropped"],
        "httpsim.shed": sim["shed"],
        "cluster.run_s": host_s,
        "cluster.worker_cpu_s": worker_cpu,
        "cluster.worker_sys_s": median([r["child_sys_s"] for r in reps]),
        "cluster.supervisor_cpu_s": median([r["self_user_s"] + r["self_sys_s"] for r in reps]),
        "cluster.parallelism": worker_cpu / host_s,
        "cluster.insn_imbalance": art["insn_imbalance"],
        "cluster.steals": sim["steals"],
        "cluster.stolen": sim["stolen"],
        "bench.trace_overhead_pct": (traced["host_s"] / host_s - 1) * 100,
        "bench.raw_host_s": host_s,
        "bench.ref_kernel_ms": 0,
    }
    for b in CYCLE_BUCKETS:
        layer["sim.share." + b] = ratio(art["cycles." + b], cycles_total)
    return e2e, layer, full_sim, attempted, failed, failures


def measure(root, workload, seed, seconds, trace, quick):
    """Runs one workload; returns (result dict, digest)."""
    binary, runs_dir = build(root)
    doc = run_hostbench(binary, runs_dir, workload, seed, seconds, trace, quick)
    kind = "serve" if workload == "serve-fleet" else "bt"
    if "copies" in doc:  # bt-*: pool the copies that measured side by side
        doc["reps"] = [r for c in doc["copies"] for r in c["reps"]]
        doc["setups"] = [b for c in doc["copies"] for b in c["setups"]]
    if kind == "serve":
        e2e, layer, sim, attempted, failed, failures = evaluate_serve(doc)
    else:
        e2e, layer, sim, attempted, failed, failures = evaluate_bt(doc)
    dig = digest(sim)

    print("workload %s seed %d: %d timed repetitions, %d operations attempted, %d failed"
          % (workload, seed, len(doc["reps"]), attempted, failed))
    if kind == "serve":
        n = sim["pooled.latency_samples"]
        print("merged latency of %d fleets: %d samples, %d beyond p99.9; highest "
              "percentile with >= 10 beyond: p%.4g"
              % (1 + len(doc["tail"]), n, sim["pooled.beyond_p999"], 100.0 * (n - 10) / n))
    print("digest %s seed=%d %s" % (workload, seed, dig))
    for f in failures:
        print("CHECK FAILED: " + f)
    if trace:
        spans_path = runs_dir / ("%s.seed%d.spans.jsonl" % (workload, seed))
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in doc["spans"]))
        print("spans: %s" % os.path.relpath(spans_path, root))
        for name, (count, total_ms, self_ms) in span_summary(doc["spans"]).items():
            print("  span %-30s n=%-3d total_ms=%-10.1f self_ms=%.1f"
                  % (name, count, total_ms, self_ms))
        for name, why in ABSENT[kind].items():
            print("not measured on %s: %s (%s)" % (workload, name, why))
    names, values = (PER_LAYER, layer) if trace else (END_TO_END, e2e)
    for name, unit in names.items():
        print("%-28s %-.6g %s" % (name, values[name], unit))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }
    return result, dig


# --- smoke test ----------------------------------------------------------------

def smoke(root):
    """Quick-size self-test: every workload once untraced and once traced;
    every metric prints with its BENCHMARK.json unit, every check passes, and
    the two invocations report the same simulated digest."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared != END_TO_END or declared_layer != PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.py's")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            result, dig = measure(root, workload, DEFAULT_SEED, 1, trace, quick=True)
            digests.append(dig)
            want = PER_LAYER if trace else END_TO_END
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metric names/units differ" % (workload, trace))
            if not result["correct"]:
                problems.append("%s trace=%d: checks failed" % (workload, trace))
        if digests[0] != digests[1]:
            problems.append("%s: digest differs between invocations" % workload)
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the quick-size self-test of every workload")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            raise BenchError("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        result, _ = measure(root, args.workload, args.seed, args.seconds,
                            args.trace, quick=False)
    except BenchError as e:
        log("error: %s" % e)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
