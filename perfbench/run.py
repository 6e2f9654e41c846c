#!/usr/bin/env python3
"""End-to-end benchmark of the overlay simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dht-reshuffle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

It builds perfbench/harness.exe with dune, then starts one harness process
per repetition until --seconds have passed (at least three repetitions; a
traced run makes untraced/traced pairs).  It checks every repetition's
outputs, prints the provenance and a summary, writes the whole result to
.perfbench/results/, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["dht-reshuffle", "dht-requests", "social-posts", "hgraph-churn"]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("trace.wall_s", "s"),
    ("robust_dht.create_s", "s"),
    ("robust_dht.reshuffle_s", "s"),
    ("robust_dht.reshuffle_mwords", "Mword"),
    ("robust_dht.reshuffles", "count"),
    ("robust_dht.route_s", "s"),
    ("robust_dht.route_calls", "count"),
    ("robust_dht.route_ns_per_call", "ns"),
    ("robust_dht.entry_s", "s"),
    ("robust_dht.hop_msgs", "count"),
    ("attack.observe_s", "s"),
    ("attack.mark_s", "s"),
    ("driver.setup_s", "s"),
    ("driver.self_s", "s"),
    ("driver.attempts", "count"),
    ("driver.retries", "count"),
    ("driver.attempts_per_served", "ratio"),
    ("social.setup_s", "s"),
    ("social.round_ms_p50", "ms"),
    ("social.reshuffle_round_ms", "ms"),
    ("churn.create_s", "s"),
    ("churn.epoch_s", "s"),
    ("rapid_hgraph.sampling_s", "s"),
    ("rapid_hgraph.underflows", "count"),
    ("engine.msgs", "count"),
    ("engine.msgs_per_s", "1/s"),
    ("reconfig.alg3_s", "s"),
    ("reconfig.bits", "bit"),
    ("churn.validate_s", "s"),
    ("trace.events", "count"),
    ("trace.emit_s", "s"),
    ("trace.bytes", "B"),
    ("trace.overhead_s", "s"),
    ("unattributed_s", "s"),
]

# The layer split each workload was chosen for, at the commit that added
# the benchmark: (workload, layer, base, lowest share, highest share).  A
# faster layer may leave its range, so a share outside it is reported,
# not counted as a failure.
LAYER_SPLIT = [
    ("dht-reshuffle", "robust_dht.reshuffle_s", "trace.wall_s", 0.80, 1.0),
    ("dht-requests", "robust_dht.reshuffle_s", "trace.wall_s", 0.0, 0.15),
    ("hgraph-churn", "rapid_hgraph.sampling_s", "churn.epoch_s", 0.80, 1.0),
]

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
WORK = ".perfbench"
SOURCES = ["dune-project", "lib", "perfbench/dune", "perfbench/harness.ml"]
MIN_REPS = 3
RUN_LIMIT_S = 170  # every run ends well inside 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the harness from this checkout's sources; exit 2 if impossible."""
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        log("perfbench: not a source checkout, missing " + ", ".join(missing))
        sys.exit(2)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # keep the dune cache and the compiler's temporary files in the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/harness.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(2)
    if done.returncode != 0 or not os.path.exists(HARNESS):
        log("perfbench: build failed")
        sys.exit(2)


def harness(workload, seed, domains, smoke=False, trace_file=None, timeout=RUN_LIMIT_S):
    """One repetition in its own process: (result dict or None, seconds)."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed), "--domains", str(domains)]
    if smoke:
        cmd.append("--smoke")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} repetition timed out")
        return None, time.monotonic() - t0
    took = time.monotonic() - t0
    if done.returncode != 0:
        log(f"perfbench: {workload} repetition exited {done.returncode}: {done.stderr.strip()}")
        return None, took
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), took
    except (ValueError, IndexError):
        log(f"perfbench: {workload} repetition printed no result")
        return None, took


def source_digest():
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except OSError:
        return None


def judge(reps, expected):
    """Checks over a run's repetitions: (correct, attempted, failed, problems)."""
    problems, attempted, failed = [], 0, 0
    digests = {r["digest"] for r in reps if r}
    for r in reps:
        if r is None:  # a crashed or hung repetition is one failed operation
            attempted, failed = attempted + 1, failed + 1
            problems.append("a repetition did not finish")
            continue
        attempted += r["ops"]
        failed += r["ops_failed"]
        problems += r["checks"]
    # the same seed gives the same report, traced or not
    if len(digests) > 1:
        problems.append(f"reports differ across repetitions of one seed: {sorted(digests)}")
        failed = attempted
    if len(reps) < expected:
        problems.append(f"only {len(reps)} repetitions")
    return not problems, max(attempted, 1), failed, problems


def run_reps(args, domains, traced):
    """Repetitions until --seconds are spent; pairs (untraced, traced) if traced."""
    os.makedirs(WORK, exist_ok=True)
    start = time.monotonic()
    plain, traced_reps, took = [], [], []
    while True:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        r, t = harness(args.workload, args.seed, domains, timeout=left)
        plain.append(r)
        took.append(t)
        if traced and r is not None:
            path = os.path.join(WORK, f"trace-{os.getpid()}.bin")
            left = RUN_LIMIT_S - (time.monotonic() - start)
            tr, t2 = harness(args.workload, args.seed, domains, trace_file=path, timeout=left)
            traced_reps.append(tr)
            took[-1] += t2
            if os.path.exists(path):
                os.remove(path)
        elapsed = time.monotonic() - start
        step = statistics.median(took)
        if r is None or (traced_reps and traced_reps[-1] is None):
            break
        done = len(took) >= (1 if traced else MIN_REPS)
        if (done and elapsed + step > args.seconds) or elapsed + step > RUN_LIMIT_S:
            break
    return plain, traced_reps


def med(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    ok = [r for r in reps if r]
    return {
        "wall_s": med([r["wall_s"] for r in ok]),
        "setup_s": med([r["setup_s"] for r in ok]),
        "node_rounds_per_s": med([r["node_rounds"] / r["wall_s"] for r in ok if r["wall_s"] > 0]),
        "peak_rss_mb": med([r["peak_rss_kb"] / 1024.0 for r in ok]),
    }


def per_layer(plain, traced):
    pairs = [(p, t) for p, t in zip(plain, traced) if p and t]
    layers = {}
    for name, _ in PER_LAYER:
        layers[name] = med([t["layers"].get(name, 0.0) for _, t in pairs])
    # tracing overhead: traced minus untraced run time of the same seed
    layers["trace.overhead_s"] = med(
        [(t["setup_samples"][0] + t["wall_s"]) - (p["setup_samples"][0] + p["wall_s"]) for p, t in pairs]
    )
    return layers


def provenance(args, domains, rep):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "domains": domains,
        "ocaml_version": rep["ocaml_version"] if rep else None,
        "commit": commit(),
        "source_digest": source_digest(),
        "shape": rep["shape"] if rep else None,
    }


def smoke(domains, seed):
    """Every workload at n = 256 on a second seed, untraced and traced."""
    os.makedirs(WORK, exist_ok=True)
    broken = 0
    for w in WORKLOADS:
        path = os.path.join(WORK, f"smoke-{os.getpid()}.bin")
        p, t1 = harness(w, seed, domains, smoke=True, timeout=60)
        t, t2 = harness(w, seed, domains, smoke=True, trace_file=path, timeout=60)
        if os.path.exists(path):
            os.remove(path)
        correct, attempted, _, problems = judge([p, t], 2)
        if t is not None and not t["layers"]:
            problems.append("traced run reported no layers")
            correct = False
        broken += not correct
        status = "ok" if correct else "FAIL " + "; ".join(problems)
        print(f"smoke {w:14s} {attempted:8d} ops {t1 + t2:6.2f} s  {status}", flush=True)
    return 1 if broken else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload at n = 256 and check it")
    args = ap.parse_args()
    domains = len(os.sched_getaffinity(0))
    build()
    if args.smoke:
        sys.exit(smoke(domains, args.seed + 1))
    if args.workload is None:
        ap.error("--workload is required")
    plain, traced = run_reps(args, domains, traced=args.trace == 1)
    reps = plain + traced
    correct, attempted, failed, problems = judge(reps, 2 if args.trace else MIN_REPS)
    first = next((r for r in reps if r), None)
    prov = provenance(args, domains, first)
    if args.trace:
        values = per_layer(plain, traced)
        units = dict(PER_LAYER)
        for w, layer, base, lo, hi in LAYER_SPLIT:
            if w == args.workload and values[base] > 0:
                share = values[layer] / values[base]
                note = "" if lo <= share <= hi else f", outside the chosen [{lo}, {hi}]"
                print(f"split: {layer} is {share:.3f} of {base} ({values[base]:.3f} s){note}")
    else:
        values = end_to_end(plain)
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print("check failed: " + p)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"provenance": prov, "metrics": metrics, "problems": problems,
                   "repetitions": plain, "traced_repetitions": traced}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
