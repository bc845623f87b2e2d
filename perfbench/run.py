#!/usr/bin/env python3
"""End-to-end benchmark of the pointsto CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 8 --trace 0

It builds bin/pointsto.exe and perfbench/pbench.exe, generates the
workload's MJ inputs from --seed, computes (or loads from the cache) the
Datalog reference verdict of every job, then runs the job list one CLI
process at a time in a closed loop for --seconds.  Every job's output is
checked against the reference.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, their times in host-normalised seconds, and the
per-layer metrics of the in-process replay with --trace 1.  README.md
explains the workloads, the metrics and the normalisation.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
POINTSTO = os.path.join(ROOT, "_build", "default", "bin", "pointsto.exe")
PBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "pbench.exe")

WORKLOADS = ["solve", "check", "small-files", "stats"]
SETUP_REPEATS = 3
# Processes that fill the reference cache side by side, before anything
# is timed.
REFERENCE_WORKERS = 2
JOB_TIMEOUT_S = 60
# Runs go on until at least this many samples lie beyond job_p95_s.
TAIL_SAMPLES = 10
# Host-speed probes: `pbench calib CALIB_SIZE` runs a fixed kernel that
# uses no code of the repository.  Each pass of the job list is cut into
# CALIB_GROUPS groups of jobs with a probe before and after each group,
# and a job's times are scaled by CALIB_REF_S (the kernel's time on the
# sizing host) over the mean of the two probes around its group.
CALIB_SIZE = 20000
CALIB_REF_S = 0.025
CALIB_GROUPS = 10
# Timed set-ups, jobs and probes all run on this one CPU, so that each
# probe measures the speed of the CPU the jobs run on.
BENCH_CPU = max(os.sched_getaffinity(0))

LAYERS = [
    "mjdk.parse", "frontend.parse", "frontend.lower", "solver.solve",
    "clients.metrics", "taint.compile", "taint.analyze", "checkers.results",
    "checkers.may-fail-cast", "checkers.null-dereference",
    "checkers.dead-method", "checkers.monomorphic-call-site",
    "checkers.tainted-sink-argument", "checkers.sanitizer-bypassed",
    "checkers.sarif", "obs.census", "obs.stats_json",
]
COUNTS = [
    "solver.iterations", "solver.nodes", "solver.contexts", "solver.hobjs",
    "solver.vpt", "solver.cs_call_edges", "solver.propagated.move",
    "solver.propagated.load", "solver.propagated.store",
    "solver.propagated.vcall", "solver.propagated.scall",
    "solver.sccs_collapsed", "taint.flows", "checkers.diagnostics",
    "checkers.sarif.bytes",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("bin") and os.path.isdir("lib")):
        fail("run from the root of a pointsto source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "bin/pointsto.exe", "perfbench/pbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def reference_cache():
    """The reference cache of this build of the oracle.  References are
    keyed by input digest, analysis and job kind within it, and a
    different pbench.exe (any change to the libraries it links) starts an
    empty one, so a verdict never depends on what another build left."""
    with open(PBENCH, "rb") as f:
        return os.path.join(WORK, "reference-cache", hashlib.md5(f.read()).hexdigest())


def pbench(*args):
    proc = subprocess.run([PBENCH, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"pbench {args[0]} failed with exit code {proc.returncode}")
    return proc.stdout


# ---------------------------------------------------------------------------
# Set-up: inputs, reference, warm-up
# ---------------------------------------------------------------------------

def plan(workload, seed, rundir):
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "out"))
    pbench("plan", "--workload", workload, "--seed", str(seed), "--dir", rundir)
    with open(os.path.join(rundir, "manifest.json")) as f:
        return json.load(f)


def fill_reference_cache(rundir, cache):
    workers = [subprocess.Popen([PBENCH, "ref", "--dir", rundir, "--cache", cache,
                                 "--shard", f"{i}/{REFERENCE_WORKERS}"])
               for i in range(REFERENCE_WORKERS)]
    if any([w.wait() != 0 for w in workers]):
        fail("reference oracle failed")


def load_reference(rundir, cache):
    pbench("ref", "--dir", rundir, "--cache", cache)
    with open(os.path.join(rundir, "expected.json")) as f:
        expected = json.load(f)
    for ref in expected.values():
        if "sarif" in ref:
            ref["verdicts"] = sarif_verdicts(ref.pop("sarif"))
    return expected


def setup(spawner, workload, seed):
    """Set up SETUP_REPEATS times; return the last set-up, and every
    set-up's time in seconds and in host-normalised seconds.

    A first, untimed pass fills the reference cache, so the timed set-ups
    measure input generation, reference loading and one warm-up job.  A
    host-speed probe runs before and after each set-up."""
    base = os.path.join(WORK, "runs", f"{workload}-{seed}-{os.getpid()}")
    cache = reference_cache()
    os.makedirs(cache, exist_ok=True)
    plan(workload, seed, os.path.join(base, "prime"))
    t = time.perf_counter()
    fill_reference_cache(os.path.join(base, "prime"), cache)
    reference_s = time.perf_counter() - t
    shutil.rmtree(os.path.join(base, "prime"))
    os.sched_setaffinity(0, {BENCH_CPU})
    times, normalised = [], []
    for k in range(SETUP_REPEATS):
        rundir = os.path.join(base, f"setup{k}")
        before = spawner.calibrate(base)
        t = time.perf_counter()
        manifest = plan(workload, seed, rundir)
        expected = load_reference(rundir, cache)
        warm = spawner.run(rundir, manifest["jobs"][0])
        times.append(time.perf_counter() - t)
        normalised.append(times[-1] * CALIB_REF_S / statistics.mean([before, spawner.calibrate(base)]))
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(rundir)
    if not verify(rundir, manifest["jobs"][0], warm, expected):
        print("warm-up job failed verification", file=sys.stderr)
    return base, rundir, manifest, expected, times, normalised, reference_s


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def argv_of(job):
    jid, kind, file, analysis = job["id"], job["kind"], job["file"], job["analysis"]
    if kind == "analyze":
        return [POINTSTO, "analyze", file, "-a", analysis]
    if kind == "stats":
        return [POINTSTO, "analyze", file, "-a", analysis, "--stats-json", f"out/{jid}.json"]
    return [POINTSTO, "check", file, "--taint-spec", "taint.spec", "--format", "sarif",
            "-o", f"out/{jid}.sarif"]


class Spawner:
    """`pbench spawn`, which runs every job as its own child with fork and
    exec, times it from fork to reaping, and reads its rusage from wait4.

    The jobs are not spawned from this process: at exec, Linux folds the
    spawning address space's high-water RSS into the child's ru_maxrss,
    and this process grows with the references it holds.  The spawner
    starts before any reference is loaded and stays a few MB in size."""

    def __init__(self):
        self.proc = subprocess.Popen([PBENCH, "spawn"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=lambda: os.sched_setaffinity(0, {BENCH_CPU}))

    def request(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            fail("the job spawner died")
        return answer.split()

    def run(self, rundir, job):
        """One CLI process; its stdout goes to a file.  A job still running
        after JOB_TIMEOUT_S is ended by SIGALRM and counts as timed out."""
        stdout = os.path.join(rundir, "out", f"{job['id']}.stdout")
        wall, cpu, rss, status = self.request(
            "\t".join([str(JOB_TIMEOUT_S), rundir, stdout, *argv_of(job)]))
        status = int(status)
        return {
            "wall": float(wall),
            "cpu": float(cpu),
            "maxrss_kb": int(rss),
            "exit": None if status == -signal.SIGALRM else status,
        }

    def calibrate(self, workdir):
        """One host-speed probe: the seconds `pbench calib` took for its
        fixed kernel, timed inside the probe process."""
        stdout = os.path.join(workdir, "calib.stdout")
        *_, status = self.request("\t".join(
            [str(JOB_TIMEOUT_S), workdir, stdout, PBENCH, "calib", str(CALIB_SIZE)]))
        if int(status) != 0:
            fail("the host-speed probe failed")
        with open(stdout) as f:
            return float(f.read())

    def self_maxrss_kb(self):
        return int(self.request("self")[0])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


COUNT_RE = {
    "vpt": re.compile(r"sensitive var-points-to: (\d+)"),
    "call_edges": re.compile(r"cs call edges: (\d+)"),
    "reachable": re.compile(r"cs reachable: (\d+)"),
}


def sarif_verdicts(doc):
    """The engine-independent part of a SARIF report: every result with
    its rule, level, message and location, and each related location with
    the first line of its message (the rest is the native solver's
    provenance chain, which the reference engine does not produce)."""
    verdicts = []
    for run in doc["runs"]:
        for r in run["results"]:
            related = tuple(
                (loc.get("message", {}).get("text", "").split("\n")[0],
                 json.dumps(loc.get("physicalLocation"), sort_keys=True))
                for loc in r.get("relatedLocations", []))
            verdicts.append((r["ruleId"], r["level"], r["message"]["text"],
                             json.dumps(r["locations"], sort_keys=True), related))
    return sorted(verdicts)


def verify(rundir, job, result, expected):
    """Does the job's exit code and output agree with the reference?"""
    ref = expected[str(job["id"])]
    if result["exit"] != ref["exit"]:
        return False
    out = os.path.join(rundir, "out", str(job["id"]))
    try:
        if job["kind"] == "check":
            # SARIF output is byte-stable, so a report identical to one
            # already verified for this job needs no second parse.
            with open(out + ".sarif", "rb") as f:
                sarif = f.read()
            if sarif == ref.get("verified_sarif"):
                return True
            if sarif_verdicts(json.loads(sarif)) != ref["verdicts"]:
                return False
            ref["verified_sarif"] = sarif
            return True
        with open(out + ".stdout") as f:
            text = f.read()
        for key, pattern in COUNT_RE.items():
            m = pattern.search(text)
            if m is None or int(m.group(1)) != ref[key]:
                return False
        if job["kind"] == "stats":
            with open(out + ".json") as f:
                doc = json.load(f)
            return doc["analysis"] == job["analysis"] and doc["sensitive_vpt_size"] == ref["vpt"]
        return True
    except (OSError, ValueError, KeyError, TypeError):
        return False


def measure(spawner, rundir, manifest, expected, seconds):
    """Closed loop over whole passes of the job list until `seconds` pass,
    and until enough jobs ran for TAIL_SAMPLES to lie beyond job_p95_s.

    Host-speed probes run between groups of jobs, and every job's wall
    and CPU time is also given in host-normalised seconds, as `nwall` and
    `ncpu`."""
    jobs = manifest["jobs"]
    every = max(1, len(jobs) // CALIB_GROUPS)
    passes, probes = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted * 0.05 < TAIL_SAMPLES:
        results, pass_probes = [], []
        for k, job in enumerate(jobs):
            if k % every == 0:
                pass_probes.append(spawner.calibrate(rundir))
            results.append(spawner.run(rundir, job))
        pass_probes.append(spawner.calibrate(rundir))
        for k, r in enumerate(results):
            group = k // every
            scale = CALIB_REF_S / statistics.mean(pass_probes[group:group + 2])
            r["nwall"] = r["wall"] * scale
            r["ncpu"] = r["cpu"] * scale
        probes.append(pass_probes)
        for job, r in zip(jobs, results):
            attempted += 1
            if not verify(rundir, job, r, expected):
                failed += 1
                print(f"job {job['id']} ({' '.join(argv_of(job)[1:])}) failed: exit {r['exit']}",
                      file=sys.stderr)
        passes.append(results)
    return passes, probes, attempted, failed


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


def job_medians(passes, key):
    """Each job's median reading over the passes.  On a shared host a
    job's time drifts by tens of percent from one pass to the next; over
    ten seeds the sum of medians spread less than the sum of minima."""
    return [statistics.median(p[i][key] for p in passes) for i in range(len(passes[0]))]


def peak_rss_kb(passes):
    """The 95th percentile of the jobs' max RSS, each job at its largest
    over the passes.  The single largest is set by one program of the
    seed: on `solve` it went from 16 MB to 20.6 MB between seeds, while
    most jobs stay near 12 MB."""
    return percentile([max(p[i]["maxrss_kb"] for p in passes) for i in range(len(passes[0]))], 0.95)


def end_to_end(passes, setup_s, wall="nwall", cpu="ncpu"):
    """The end-to-end metrics, in host-normalised seconds by default; with
    wall="wall" and cpu="cpu", in seconds as measured."""
    runs = [r[wall] for p in passes for r in p]
    return {
        "wall_s": (sum(job_medians(passes, wall)), "s"),
        "cpu_s": (sum(job_medians(passes, cpu)), "s"),
        "peak_rss_mb": (peak_rss_kb(passes) / 1024, "MB"),
        "job_p50_s": (statistics.median(runs), "s"),
        "job_p95_s": (percentile(runs, 0.95), "s"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------

def per_layer(rundir, passes, trace_path):
    traced = json.loads(pbench("replay", "--dir", rundir, "--trace-out", trace_path))
    first, second = traced

    def layer(name, key):
        return statistics.mean(p["layers"].get(name, {}).get(key, 0.0) for p in traced)

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (layer(name, "self_s"), "s")
        metrics[f"{name}.alloc_mw"] = (layer(name, "alloc_w") / 1e6, "Mwords")
        metrics[f"{name}.minor_mw"] = (layer(name, "minor_w") / 1e6, "Mwords")
    for name in COUNTS:
        metrics[name] = (second["counts"].get(name, 0), "count")
    frontend_s = sum(layer(name, "self_s") for name in ("mjdk.parse", "frontend.parse", "frontend.lower"))
    metrics["frontend.kloc_per_s"] = (second["counts"]["frontend.lines"] / 1000 / frontend_s, "kloc/s")
    # Each job's median CLI time, summed over the job list, less the
    # replay's layer self times (a mean over two passes) for the same list.
    cli_s = sum(job_medians(passes, "wall"))
    layers_s = sum(layer(name, "self_s") for name in second["layers"])
    metrics["process.unattributed_s"] = (cli_s - layers_s, "s")
    metrics["trace.overhead_ratio"] = (
        sum(p["wall_s"] for p in traced) / sum(p["untraced_s"] for p in traced), "ratio")
    # Allocation and work counts must repeat exactly; any that does not
    # is unusable for gating.
    unstable = sorted(
        [f"{name}.{unit}" for name in set(first["layers"]) | set(second["layers"])
         for key, unit in (("alloc_w", "alloc_mw"), ("minor_w", "minor_mw"))
         if first["layers"].get(name, {}).get(key) != second["layers"].get(name, {}).get(key)]
        + [c for c in set(first["counts"]) | set(second["counts"])
           if first["counts"].get(c) != second["counts"].get(c)])
    metrics["trace.nondeterministic"] = (len(unstable), "count")
    return metrics, unstable


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    spawner = Spawner()
    try:
        base, rundir, manifest, expected, setup_times, setup_normalised, reference_s = setup(
            spawner, args.workload, args.seed)
        for i in manifest["inputs"]:
            print(f"input {i['file']} profile={i['profile']} scale={i['scale']} "
                  f"seed={i['profile_seed']} lines={i['lines']} md5={i['digest']}")
        passes, probes, attempted, failed = measure(spawner, rundir, manifest, expected, args.seconds)
        spawner_kb = spawner.self_maxrss_kb()
    finally:
        spawner.close()
    least_kb = min(r["maxrss_kb"] for p in passes for r in p)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "build": manifest["build"],
        "passes": len(passes), "job_samples": attempted, "reference_s": reference_s,
        "fail_ratio": failed / attempted, "setup_samples_s": setup_times,
        "setup_normalised_s": setup_normalised,
        "calib_ref_s": CALIB_REF_S, "bench_cpu": BENCH_CPU,
        "calib_median_s": statistics.median(c for p in probes for c in p),
        "spawner_maxrss_kb": spawner_kb,
        "harness_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # At exec a child's ru_maxrss takes in the spawning address
        # space's high-water RSS, so a job reading at or under the
        # spawner's own size may be the spawner's rather than the CLI's.
        "rss_at_spawner_floor": least_kb <= spawner_kb,
    }
    if args.trace:
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        metrics, unstable = per_layer(rundir, passes, trace_path)
        stamp["unstable_for_gating"] = unstable
        stamp["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = end_to_end(passes, statistics.median(setup_normalised))
        stamp["measured"] = {k: v for k, (v, _) in end_to_end(
            passes, statistics.median(setup_times), wall="wall", cpu="cpu").items()}
    shutil.rmtree(base, ignore_errors=True)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
