"""A/B wall time, CPU time and peak RSS of two `cesc` binaries on one
checkbench workload.

Usage:

    python3 crates/bench/ab_check.py --workload W --seed S --pairs N \\
        PARENT_CESC CHANGE_CESC

Generates workload W for seed S with `checkbench gen` (the helper built
by `cargo build --release --offline --manifest-path
checkbench/Cargo.toml`, found in `$CARGO_TARGET_DIR/release`, default
`target/release`), then runs N pairs. Each pair times one
`cesc check SPEC --vcd DUMP --all-charts --json --jobs J` per binary,
each right after its own `checkbench probe`, in an order that
alternates from pair to pair; J is the workload's `--jobs` from its
`reference.json`. The workload is written to a temporary directory in
that target directory and deleted at the end.

Each check time is normalised the way `checkbench/run.py` does it:
check time ÷ the adjacent probe time × REF_PROBE_S. For each binary the
script prints the median and the first and third quartiles of those
times, the median user+sys CPU seconds and the median peak RSS (both
raw, from `os.wait4`, as `checkbench/run.py` times its checks), then
the change's median against the parent's.

Exits with status 1 if, in any pair, the two reports differ once their
`wall_ms` and `exec_ms` are zeroed, or either report or exit status
disagrees with the workload's `reference.json`.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "checkbench"))

# checkbench's own rules: where the helper lives, how a probe is timed,
# the reference probe time and the report's reference shape
from run import REF_PROBE_S, BenchError, normalize, probe_once, target_dir  # noqa: E402

TIMINGS = re.compile(rb'"(wall_ms|exec_ms)":[0-9.]+')


def timed_check(cmd):
    """Runs one `cesc check`; returns (wall s, user+sys CPU s, peak RSS
    MB, exit status, stdout bytes). checkbench's `check_once` keeps no
    stdout, and the parent/change comparison needs it."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=15)
    ap.add_argument("parent", help="the parent's cesc binary")
    ap.add_argument("change", help="the change's cesc binary")
    args = ap.parse_args()

    helper = os.path.join(target_dir(), "release", "checkbench")
    work = tempfile.mkdtemp(prefix=f"ab-{args.workload}-", dir=target_dir())
    try:
        gen = subprocess.run([helper, "gen", args.workload, str(args.seed), work],
                             stdout=subprocess.DEVNULL)
        if gen.returncode != 0:
            print(f"ab_check: checkbench gen exited with {gen.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(work, "reference.json")) as f:
            ref = json.load(f)
        jobs = ref["jobs"]
        want_status = 2 if ref["verdicts"]["failed"] else 0
        check = ["check", os.path.join(work, "spec.cesc"), "--vcd",
                 os.path.join(work, "dump.vcd"), "--all-charts", "--json", "--jobs", str(jobs)]

        binaries = {"parent": args.parent, "change": args.change}
        times = {name: [] for name in binaries}
        cpus = {name: [] for name in binaries}
        rss = {name: [] for name in binaries}
        bad = []
        for pair in range(args.pairs):
            order = list(binaries) if pair % 2 == 0 else list(reversed(binaries))
            reports = {}
            for name in order:
                probe_s = probe_once(helper, work)
                wall, cpu, mb, status, out = timed_check([binaries[name], *check])
                times[name].append(wall / probe_s * REF_PROBE_S)
                cpus[name].append(cpu)
                rss[name].append(mb)
                reports[name] = TIMINGS.sub(rb'"\1":0', out)
                try:
                    matches = normalize(json.loads(out)) == ref["verdicts"]
                except (ValueError, KeyError, TypeError):
                    matches = False
                if not matches or status != want_status:
                    bad.append(f"pair {pair}: the {name} report or exit status {status} "
                               "differs from reference.json")
            if reports["parent"] != reports["change"]:
                bad.append(f"pair {pair}: the two reports differ with timings zeroed")

        print(f"{args.workload} seed {args.seed}, --jobs {jobs}, {args.pairs} pairs, "
              f"probe-normalised wall s (REF_PROBE_S {REF_PROBE_S}), raw user+sys CPU s, "
              "peak RSS MB:")
        medians = {}
        for name, ts in times.items():
            medians[name] = statistics.median(ts)
            q1, _, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else (ts[0],) * 3
            print(f"  {name:6}  median {medians[name]:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"cpu {statistics.median(cpus[name]):.4f}  "
                  f"rss {statistics.median(rss[name]):.1f}")
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(f"  change/parent median {medians['change'] / medians['parent'] - 1:+.1%}, "
              f"change faster in {wins} of {args.pairs} pairs")
        for line in bad:
            print(f"ab_check: {line}", file=sys.stderr)
        return 1 if bad else 0
    except BenchError as e:
        print(f"ab_check: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
