#!/usr/bin/env python3
"""End-to-end benchmark of the `cesc check` route.

Run from the repository root:

    python3 checkbench/run.py --workload handshake_sparse --seed 1 --seconds 10 --trace 0
    python3 checkbench/run.py --workload all --seed 1 --seconds 10

One run builds the release `cesc` binary and the `checkbench` helper,
generates the workload for the seed (spec, dump, header-only dump and
in-memory reference verdicts), then:

* `--trace 0`: times `cesc check SPEC --vcd DUMP --all-charts --json
  --jobs J` as a child process, one at a time (closed loop), each right
  after a machine-speed probe, checks every report against the
  reference, and times the in-process set-up;
* `--trace 1`: runs checked children and traced per-layer passes of the
  same check in turn (for `tracing_overhead`), and reports the layer
  metrics of one pass.

`--workload all` runs every workload with tracing and prints both metric
sets. Human-readable lines go to stdout; the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# each workload's `--jobs` comes with it, in reference.json
WORKLOADS = ("handshake_sparse", "ocp_fleet", "fig2_multiclock")

END_TO_END = [
    ("wall_s", "s"),
    ("mb_per_s", "MB/s"),
    ("mticks_per_s", "Mticks/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# printed by name, not carried in the JSON line: failed_frac is carried
# by failed / attempted, and the raw check and probe medians record how
# fast the machine was during the run
PRINTED = [
    ("failed_frac", "ratio"),
    ("raw_wall_s", "s"),
    ("probe_s", "s"),
]

PER_LAYER = [
    ("spec.load_s", "s"),
    ("spec.compile_s", "s"),
    ("spec.plan_s", "s"),
    ("spec.targets", "count"),
    ("trace.header_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("trace.decode_share", "ratio"),
    ("trace.bytes", "bytes"),
    ("trace.steps", "count"),
    ("trace.ticks", "count"),
    ("trace.chunks", "count"),
    ("engine.busy_s", "s"),
    ("engine.single_s", "s"),
    ("engine.multi_s", "s"),
    ("engine.assert_s", "s"),
    ("engine.ticks", "count"),
    ("engine.ns_per_tick", "ns"),
    ("engine.words", "count"),
    ("engine.dense_words", "count"),
    ("engine.sliced_frac", "ratio"),
    ("par.feed_s", "s"),
    ("par.join_s", "s"),
    ("par.shard_busy_s", "s"),
    ("par.shard_wait_s", "s"),
    ("par.shard_util", "ratio"),
    ("par.imbalance", "ratio"),
    ("traced.wall_s", "s"),
    ("traced.unexplained_s", "s"),
    ("traced.unexplained_share", "ratio"),
    ("tracing_overhead", "ratio"),
]

# the attribution check flags a traced pass whose layer times leave
# more than this share of its wall time unexplained
UNEXPLAINED_LIMIT = 0.05
MIN_CHECKS = 5
MIN_TRACES = 3
# without tracing, the checks and the set-up timing alternate in this
# many slices, so both sample the same stretches of the run
SLICES = 5
# share of --seconds spent on set-up timing without tracing; the rest
# times the binary
SETUP_SHARE = 0.15

# Machine-speed normalization (see src/probe.rs). Each timed check runs
# right after a probe process, and each set-up rep right after a smaller
# in-process probe. A time is reported as the median over its samples of
# (time ÷ adjacent probe time), scaled by a fixed reference probe time:
# REF_PROBE_S for the probe process, and that share of it for the set-up
# probe's fewer bytes (src/probe.rs, SETUP_PROBE_BYTES). REF_PROBE_S is
# about what the probe process takes on a quiet 2-core x86-64 container,
# so reported times stay close to quiet-machine seconds there.
REF_PROBE_S = 0.1
REF_SETUP_PROBE_S = REF_PROBE_S / 128

# per-target fields the cesc-check/3 report carries, by kind
KIND_FIELDS = {
    "chart": ("verdict", "matches", "first", "last", "ticks", "underflows"),
    "multiclock": ("verdict", "matches", "first", "last", "underflows"),
    "assert": ("verdict", "fulfilled", "outstanding", "ticks", "violation_count"),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", "target")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the release binary and the helper; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError(f"no cesc source tree at {ROOT}")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "cesc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "cesc"), os.path.join(release, "checkbench")


def helper(exe, *args):
    """Runs the helper; returns its last stdout line parsed as JSON."""
    r = subprocess.run([exe, *map(str, args)], stdout=subprocess.PIPE, text=True)
    if r.returncode not in (0, 2):
        raise BenchError(f"checkbench {args[0]} exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def normalize(report):
    """A cesc-check/3 report in the reference's shape."""
    targets = {}
    for t in report["targets"]:
        fields = KIND_FIELDS[t["kind"]]
        targets[t["name"]] = {"kind": t["kind"], **{f: t[f] for f in fields}}
    return {
        "global_steps": report["global_steps"],
        "ticks": report["ticks"],
        "failed": report["failed"],
        "targets": targets,
    }


def check_once(cesc, work, jobs, reference):
    """One timed `cesc check` child. Returns (wall s, peak RSS KB,
    whether exit status and report match the reference)."""
    cmd = [cesc, "check", os.path.join(work, "spec.cesc"), "--vcd",
           os.path.join(work, "dump.vcd"), "--all-charts", "--json", "--jobs", str(jobs)]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    want_status = 2 if reference["failed"] else 0
    try:
        ok = normalize(json.loads(out)) == reference
    except (ValueError, KeyError, TypeError):
        ok = False
    return wall, usage.ru_maxrss, ok and os.waitstatus_to_exitcode(status) == want_status


def probe_once(exe, work):
    """One timed probe process over the workload's dump."""
    t0 = time.perf_counter()
    r = subprocess.run([exe, "probe", work], stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        raise BenchError(f"checkbench probe exited with {r.returncode}")
    return wall


def normalized(times, probes, ref):
    """Median of each time over its adjacent probe's, scaled by `ref`."""
    return statistics.median(t / p for t, p in zip(times, probes)) * ref


def timed_checks(cesc, exe, work, jobs, reference, budget):
    """Times probe and `cesc check` children in turn, one at a time, for
    `budget` seconds (at least MIN_CHECKS checks)."""
    walls, probes, rss = [], [], []
    failed = 0
    deadline = time.perf_counter() + budget
    while len(walls) < MIN_CHECKS or time.perf_counter() < deadline:
        probes.append(probe_once(exe, work))
        wall, maxrss, ok = check_once(cesc, work, jobs, reference)
        walls.append(wall)
        rss.append(maxrss)
        failed += not ok
    return {"walls": walls, "probes": probes, "rss_kb": rss,
            "attempted": len(walls), "failed": failed}


def bench(cesc, exe, workload, seed, seconds, trace):
    """Runs one workload with the built binary `cesc` and helper `exe`;
    returns (end-to-end metrics, layer metrics, attempted, failed).
    Without `trace` the set-up is timed; with it, the traced passes run."""
    work = os.path.join(HERE, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        helper(exe, "gen", workload, seed, work)
        with open(os.path.join(work, "reference.json")) as f:
            ref = json.load(f)
        reference, jobs = ref["verdicts"], ref["jobs"]

        if trace:
            return traced_passes(cesc, exe, workload, work, jobs, reference, seconds)
        checks = {"walls": [], "probes": [], "rss_kb": [], "attempted": 0, "failed": 0}
        setup = {"setup_s": [], "probe_s": []}
        side = seconds * SETUP_SHARE
        for _ in range(SLICES):
            for key, value in timed_checks(cesc, exe, work, jobs, reference,
                                           (seconds - side) / SLICES).items():
                checks[key] += value
            for key, value in helper(exe, "setup", work, jobs,
                                     int(side / SLICES * 1000)).items():
                setup[key] += value
        attempted, failed = checks["attempted"], checks["failed"]
        wall_s = normalized(checks["walls"], checks["probes"], REF_PROBE_S)
        e2e = {
            "wall_s": wall_s,
            "mb_per_s": ref["bytes"] / 1e6 / wall_s,
            # per-clock samples: the reference's count, which every
            # correct report repeats
            "mticks_per_s": reference["ticks"] / 1e6 / wall_s,
            "setup_s": normalized(setup["setup_s"], setup["probe_s"], REF_SETUP_PROBE_S),
            "peak_rss_mb": statistics.median(checks["rss_kb"]) / 1024,
            "failed_frac": failed / attempted,
            # what the machine did during the run, for the printed record
            "raw_wall_s": statistics.median(checks["walls"]),
            "probe_s": statistics.median(checks["probes"]),
        }
        return e2e, {}, attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def traced_passes(cesc, exe, workload, work, jobs, reference, seconds):
    """Runs timed checks and traced passes in turn for `seconds` (at
    least MIN_TRACES pairs); returns (end-to-end metrics, layer metrics,
    attempted, failed) like `bench`."""
    pairs = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(pairs) < MIN_TRACES or time.perf_counter() < deadline:
        wall, _, ok = check_once(cesc, work, jobs, reference)
        out = helper(exe, "trace", work, jobs)
        failed += (not ok) + (out["verdicts"] != reference)
        pairs.append((out["layers"]["traced.wall_s"] / wall, out["layers"]))
    # the pass at the median ratio to its adjacent check, reported whole
    # so its layer times add up against its own wall time
    pairs.sort(key=lambda p: p[0])
    ratio, layers = pairs[len(pairs) // 2]
    layers = dict(layers, tracing_overhead=ratio - 1)
    if abs(layers["traced.unexplained_share"]) > UNEXPLAINED_LIMIT:
        log(f"{workload}: attribution leaves {layers['traced.unexplained_s']:.4f} s "
            f"({layers['traced.unexplained_share']:.1%}) of traced.wall_s unexplained")
    attempted = 2 * len(pairs)
    return {"failed_frac": failed / attempted}, layers, attempted, failed


def show(workload, metrics, units):
    for name, unit in units:
        if name in metrics:
            print(f"{workload:18} {name:26} {metrics[name]:>16.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        cesc, exe = build()
        if args.workload == "all":
            attempted = failed = 0
            result = {}
            for w in WORKLOADS:
                e2e, _, a, f = bench(cesc, exe, w, args.seed, args.seconds, False)
                _, layers, b, g = bench(cesc, exe, w, args.seed, args.seconds, True)
                show(w, e2e, [*END_TO_END, *PRINTED])
                show(w, layers, PER_LAYER)
                attempted += a + b
                failed += f + g
                result[w] = {**e2e, **layers}
            metrics = {
                f"{w}.{name}": {"value": m[name], "unit": unit}
                for w, m in result.items()
                for name, unit in [*END_TO_END, *PER_LAYER]
            }
        else:
            e2e, layers, attempted, failed = bench(
                cesc, exe, args.workload, args.seed, args.seconds, args.trace == 1)
            show(args.workload, e2e, [*END_TO_END, *PRINTED])
            show(args.workload, layers, PER_LAYER)
            if args.trace:
                metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
            else:
                metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
