#!/usr/bin/env python3
"""Fleet benchmark for the DTaint pipeline.

    python3 perfbench/run.py --workload fleet_scan|dispatch_relink|isolated_rescan
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library from src/
plus the fleetbench program) in Release mode under $CARGO_TARGET_DIR
(default .bench_build), then runs repetitions of the workload for about
S seconds. Every repetition is a fresh fleetbench process with no
warm-up; it synthesizes the seeded corpus, scans it (isolated_rescan:
six timed passes, each with its own firmware update) and checks every
verdict. Times are host-normalized (perfbench/hostclock.h): each image's
time is scaled by a reference computation run right before and after
it. The timing metrics pool every image of the run's timed passes;
set-up time and peak memory are the median over its processes.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (untraced and traced
repetitions alternate, so the tracing overhead is measured too). The
lines before it print every metric with its unit and sample count.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_scan", "dispatch_relink", "isolated_rescan")
# A run stops starting repetitions once this much time has passed, so
# it ends well inside the 180 s a run may take.
HARD_STOP_S = 140.0
# isolated_rescan keeps each process's working directory (about 130 MB
# of cache files, see main); beyond this many, the oldest runs' go.
MAX_KEPT_PROCESSES = 60

# Counters DTaint::Analyze and the traced pipeline must agree on, per
# image (perfbench/pipeline.cpp GuardCounterNames).
GUARD_COUNTERS = (
    "summary.functions", "summary.functions_done", "link.defs_propagated",
    "link.uses_forwarded", "link.rets_replaced", "pathfind.sinks_visited",
    "pathfind.paths_explored", "pathfind.paths_found",
    "pathfind.pruned_by_depth", "structsim.resolutions",
)

END_TO_END_UNITS = {
    "images_per_s": "1/s",
    "image_s_p50": "s",
    "image_s_p90": "s",
    "cpu_s_per_image": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "recall": "ratio",
    "precision": "ratio",
    "verdict_ratio": "ratio",
}

# kProbeNominalNs in perfbench/hostclock.h, for the printout.
NOMINAL_PROBE_MS = 1.5

# Per-layer times come from the traced repetitions' spans.
LAYER_TIMES = (
    "firmware.extract_s", "binary.load_s", "cfg.build_s",
    "interproc.summarize_s", "interproc.summary_s", "interproc.link_s",
    "interproc.relink_s", "structsim.resolve_s", "pathfinder.find_s",
    "sanitizer.filter_s", "report.serialize_s", "teardown_s",
    "supervisor.overhead_s", "unattributed_s", "trace.scan_wall_s",
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds fleetbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "fleetbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fleetbench")


def run_rep(binary, args, workdir, timeout, keep=False):
    """Runs one fleetbench repetition in its own process group; with
    keep, leaves its working directory (cache, journal) in place."""
    shutil.rmtree(workdir, ignore_errors=True)
    proc = subprocess.Popen([binary] + args + ["--workdir", workdir],
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("repetition timed out")
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fleetbench exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def prune_kept(build_dir):
    """Deletes the oldest kept run directories beyond MAX_KEPT_PROCESSES
    process directories."""
    runs = sorted((e.path for e in os.scandir(build_dir)
                   if e.is_dir() and e.name.startswith("run-")),
                  key=os.path.getmtime)
    kept = [len(os.listdir(run)) for run in runs]
    while runs and sum(kept) > MAX_KEPT_PROCESSES:
        shutil.rmtree(runs.pop(0), ignore_errors=True)
        kept.pop(0)


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def totals(scan):
    """Sums of the per-image counters of one timed pass."""
    sums = {}
    for image in scan["per_image"]:
        for name, value in image["counters"].items():
            sums[name] = sums.get(name, 0) + value
    return sums


def process_metrics(rep, normalized=True):
    """End-to-end metrics that belong to the whole fleetbench process."""
    return {"setup_s": rep["setup_s" if normalized else "setup_raw_s"],
            "peak_rss_mb": rep["peak_rss_kb"] / 1024.0}


def end_to_end(scans, normalized=True):
    """End-to-end metrics over every image of `scans` (timed passes).
    With normalized=False, the raw wall and CPU times instead."""
    per_image = [i for s in scans for i in s["per_image"]]
    images = len(per_image)
    latency_s, cpu_s = [], []
    for s in scans:
        factors = s["factor"] if normalized else [1.0] * len(s["factor"])
        latency_s += [ns * 1e-9 * f
                      for ns, f in zip(s["latency_ns"], factors)]
        cpu_s += [(own + kids) * f for own, kids, f in
                  zip(s["cpu_self_s"], s["cpu_children_s"], factors)]
    tp = sum(i["tp"] for i in per_image)
    fn = sum(i["fn"] for i in per_image)
    fp = sum(i["fp"] for i in per_image)
    return {
        "images_per_s": images / sum(latency_s),
        "image_s_p50": quantile(latency_s, 0.5),
        "image_s_p90": quantile(latency_s, 0.9),
        "cpu_s_per_image": sum(cpu_s) / images,
        "recall": ratio(tp, tp + fn),
        "precision": ratio(tp, tp + fp),
        "verdict_ratio": ratio(sum(i["verdict_ok"] for i in per_image),
                               images),
        "failed_ratio": ratio(sum(i["failed"] for i in per_image), images),
    }


def per_layer(scan):
    c = totals(scan)
    per_image = scan["per_image"]
    metrics = {name: scan["layers"][name] for name in LAYER_TIMES}
    own, kids = sum(scan["cpu_self_s"]), sum(scan["cpu_children_s"])
    summarized = c.get("interproc.functions_summarized", 0)
    resummarized = c.get("interproc.functions_resummarized", 0)
    metrics.update({
        "firmware.unextractable":
            sum(i["status"] == "unextractable" for i in per_image),
        "cfg.functions": c.get("cfg.functions", 0),
        "cfg.blocks": c.get("cfg.blocks", 0),
        "interproc.functions_summarized": summarized,
        "interproc.functions_resummarized": resummarized,
        "interproc.resummarize_ratio": ratio(resummarized, summarized),
        "engine.state_forks": c.get("engine.state_forks", 0),
        "engine.block_memo_hit_ratio": ratio(
            c.get("engine.block_memo_hits", 0),
            c.get("engine.block_memo_lookups", 0)),
        "intern.hit_ratio": ratio(
            c.get("intern.hits", 0),
            c.get("intern.hits", 0) + c.get("intern.nodes", 0)),
        "alias.pairs_added": c.get("alias.pairs_added", 0),
        "link.defs_propagated": c.get("link.defs_propagated", 0),
        "structsim.indirect_calls_resolved":
            c.get("structsim.resolutions", 0),
        "structsim.images_resolved": sum(
            i["counters"].get("structsim.resolutions", 0) > 0
            for i in per_image),
        "pathfinder.paths_explored": c.get("pathfind.paths_explored", 0),
        "pathfinder.paths_found": c.get("pathfind.paths_found", 0),
        "pathfinder.pruned_by_depth": c.get("pathfind.pruned_by_depth", 0),
        "sanitizer.paths_sanitized": c.get("sanitizer.paths_sanitized", 0),
        "cache.hits": c.get("cache.hits", 0),
        "cache.misses": c.get("cache.misses", 0),
        "cache.stores": c.get("cache.stores", 0),
        "cache.disk_hits": c.get("cache.disk_hits", 0),
        "cache.corrupt_entries": c.get("cache.corrupt_entries", 0),
        "cache.hit_ratio": ratio(
            c.get("cache.hits", 0),
            c.get("cache.hits", 0) + c.get("cache.misses", 0)),
        "supervisor.workers_spawned": scan["supervisor"]["workers_spawned"],
        "supervisor.worker_failures": scan["supervisor"]["worker_failures"],
        "supervisor.in_process_fallbacks":
            scan["supervisor"]["in_process_fallbacks"],
        "cpu.worker_share": ratio(kids, own + kids),
        "cpu.sys_share": ratio(own + kids - sum(scan["cpu_user_s"]),
                               own + kids),
    })
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio") or name.startswith("cpu."):
        return "ratio"
    return "count"


def fingerprint(rep):
    """What must repeat exactly between repetitions of one kind."""
    return [[(i["status"], i["digest"], i["counters"])
             for i in scan["per_image"]] for scan in rep["passes"]]


def guard_mismatches(untraced, traced):
    """Images whose traced verdict or guard counters differ from
    DTaint::Analyze's."""
    mismatched = 0
    pairs = [(u, t) for us, ts in zip(untraced["passes"], traced["passes"])
             for u, t in zip(us["per_image"], ts["per_image"])]
    for u, t in pairs:
        same = u["status"] == t["status"] and u["digest"] == t["digest"]
        same = same and all(u["counters"].get(k) == t["counters"].get(k)
                            for k in GUARD_COUNTERS)
        mismatched += not same
    return mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--images", type=int, default=0,
                        help="corpus size (default: fleetbench's, >= 100)")
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 2

    rep_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.images:
        rep_args += ["--images", str(args.images)]
    run_dir = os.path.abspath(os.path.join(build_dir, f"run-{os.getpid()}"))
    spans_out = os.path.abspath(os.path.join(
        build_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    isolated = args.workload == "isolated_rescan"
    prune_kept(build_dir)

    start = time.monotonic()
    reps = {False: [], True: []}  # traced? -> repetition results
    durations = []
    try:
        while True:
            elapsed = time.monotonic() - start
            kinds_done = all(reps[k] for k in ((False, True) if args.trace
                                               else (False,)))
            if kinds_done and (
                    elapsed >= args.seconds or
                    elapsed + max(durations) > HARD_STOP_S):
                break
            traced = bool(args.trace) and len(reps[True]) < len(reps[False])
            extra = []
            if traced:
                extra = ["--traced", "--spans-out", spans_out]
            elif isolated and not reps[False]:
                extra = ["--check-cold"]
            rep_start = time.monotonic()
            rep = run_rep(binary, rep_args + extra,
                          os.path.join(run_dir, str(len(durations))),
                          HARD_STOP_S + 30 - elapsed, keep=isolated)
            durations.append(time.monotonic() - rep_start)
            reps[traced].append(rep)
    except (RuntimeError, ValueError, OSError) as error:
        log(f"benchmark failed: {error}")
        return 1
    finally:
        # isolated_rescan's cache directories stay: deleting their ten
        # thousand small files slows file creation on the filesystem
        # for a minute or more, and with it the next runs' cache writes
        # (perfbench/README.md).
        if not isolated:
            shutil.rmtree(run_dir, ignore_errors=True)

    all_scans = [s for r in reps[False] + reps[True] for s in r["passes"]]
    attempted = sum(len(s["per_image"]) for s in all_scans)
    failed = sum(i["failed"] for s in all_scans for i in s["per_image"])
    correct = all(i["verdict_ok"] for s in all_scans for i in s["per_image"])
    if isolated and not reps[False][0]["checked_cold"]:
        correct = False
    for kind, runs in reps.items():
        for rep in runs[1:]:
            if fingerprint(rep) != fingerprint(runs[0]):
                log("repetitions of one seed disagree on a deterministic "
                    f"counter or verdict ({'traced' if kind else 'untraced'})")
                correct = False

    def scans(kind):
        return [s for r in reps[kind] for s in r["passes"]]

    untraced = end_to_end(scans(False))
    samples = {"reps": len(reps[False]), "passes": len(scans(False)),
               "images": reps[False][0]["images"]}
    probe_ms = statistics.median(
        ns * 1e-6 for r in reps[False] + reps[True] for ns in r["probe_ns"])
    if args.trace:
        layers = [per_layer(s) for s in scans(True)]
        # Counts stay whole numbers: median_low picks a measured pass.
        metrics = {name: (statistics.median if layer_unit(name) != "count"
                          else statistics.median_low)(l[name] for l in layers)
                   for name in layers[0]}
        traced = end_to_end(scans(True))
        metrics["failed_ratio"] = end_to_end(
            scans(False) + scans(True))["failed_ratio"]
        metrics["trace.overhead_ratio"] = ratio(traced["images_per_s"],
                                                untraced["images_per_s"])
        mismatched = max(guard_mismatches(reps[False][0], t)
                         for t in reps[True])
        metrics["trace.mismatched_images"] = mismatched
        if mismatched:
            log(f"WARNING: {mismatched} image(s) where the traced pipeline "
                "disagrees with DTaint::Analyze; the layer breakdown is "
                "stale (update perfbench/pipeline.cpp)")
        metrics["host.probe_ms"] = probe_ms
        units = {name: layer_unit(name) for name in metrics}
        counts = {name: f"median of {len(layers)} traced passes"
                  for name in metrics}
        counts.update({
            "failed_ratio": "all images",
            "trace.overhead_ratio": "traced vs untraced images_per_s",
            "host.probe_ms": f"median of {len(reps[False] + reps[True])} "
                             "processes' probes"})
        log(f"spans of the last traced pass: {spans_out}")
    else:
        processes = [process_metrics(r) for r in reps[False]]
        raw = dict(end_to_end(scans(False), normalized=False),
                   setup_s=statistics.median(
                       process_metrics(r, normalized=False)["setup_s"]
                       for r in reps[False]))
        images = samples["passes"] * samples["images"]
        metrics, counts = {}, {}
        for name in END_TO_END_UNITS:
            if name in processes[0]:
                metrics[name] = statistics.median(p[name] for p in processes)
                counts[name] = f"median of {len(processes)} processes"
            else:
                metrics[name] = untraced[name]
                counts[name] = f"{images} images"
        units = dict(END_TO_END_UNITS)

    print(f"{args.workload} seed={args.seed} processes={samples['reps']}"
          f" passes={samples['passes']} images/pass={samples['images']}"
          f" probe={probe_ms:.4g} ms (nominal "
          f"{NOMINAL_PROBE_MS:g} ms)")
    for name, value in metrics.items():
        line = f"  {name:36s} {value:14.6g} {units[name]:6s} ({counts[name]})"
        if not args.trace and name in raw and units[name] in ("s", "1/s"):
            line += f"  raw {raw[name]:.6g}"
        print(line)
    if not args.trace:
        print(f"  {'failed_ratio':36s} {untraced['failed_ratio']:14.6g} "
              f"{'ratio':6s} ({images} images)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
