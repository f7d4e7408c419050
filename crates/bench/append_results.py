"""Appends the one-line JSON records a `cargo bench -p cesc-bench` run
printed to the bench trajectory file, each tagged with the git revision
it measured (`"rev"`, `git rev-parse --short HEAD`, with `-dirty` added
when tracked files have uncommitted changes).

Usage: python3 crates/bench/append_results.py BENCH_OUTPUT RESULTS_JSON

RESULTS_JSON is a JSON array with one record per line; earlier records
are kept byte for byte, and a missing file starts an empty array. Exits
non-zero if BENCH_OUTPUT holds no record.

For each new record whose `melem_per_s` or `mb_per_s` is more than 15%
below the previous record of the same `bench` and `workload`, one
`regression:` line is printed. When both records carry `probe_s` (the
host-speed probe `cesc_bench::probe_s`, seconds), the comparison is of
`metric * probe_s`, which stays put when the host's speed drifts
between runs; otherwise the raw metric is compared. One `compared:`
line says which comparison each bench and workload got. This only
reports; the exit status does not change.
"""

import json
import subprocess
import sys

# The throughput bound of BENCHMARK.json (`mb_per_s`, `mticks_per_s`).
REGRESSION_BOUND = 0.15
THROUGHPUT_KEYS = ("melem_per_s", "mb_per_s")


def revision():
    git = lambda *args: subprocess.run(["git", *args], capture_output=True, text=True)
    rev = git("rev-parse", "--short", "HEAD").stdout.strip() or "unknown"
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return rev + "-dirty" if dirty else rev


def regressions(previous, new):
    """The `compared:` and `regression:` lines for `new` records, each
    compared with the last record of the same bench and workload in
    `previous` or earlier in `new`: on `metric * probe_s` when both
    carry `probe_s`, else on the raw metric."""
    last = {(r.get("bench"), r.get("workload")): r for r in previous}
    lines = []
    for record in new:
        key = (record.get("bench"), record.get("workload"))
        before = last.get(key)
        last[key] = record
        if before is None:
            continue
        normalised = bool(before.get("probe_s")) and bool(record.get("probe_s"))
        basis = "metric*probe_s" if normalised else "raw metric"
        lines.append(
            f"compared: {key[0]}/{key[1]} on {basis} "
            f"against rev {before.get('rev', 'untagged')}"
        )
        for metric in THROUGHPUT_KEYS:
            old, cur = before.get(metric), record.get(metric)
            if not old or cur is None:
                continue
            if normalised:
                old, cur = old * before["probe_s"], cur * record["probe_s"]
                metric += "*probe_s"
            if cur < old * (1 - REGRESSION_BOUND):
                lines.append(
                    f"regression: {key[0]}/{key[1]} {metric} {cur:.6g} < {old:.6g} "
                    f"(rev {before.get('rev', 'untagged')}), "
                    f"{(cur - old) / old:+.1%}"
                )
    return lines


def main(bench_output, results):
    rev = revision()
    tag = ',"rev":' + json.dumps(rev) + "}"
    with open(bench_output) as f:
        new = [line.strip() for line in f if line.startswith('{"bench"')]
    if not new:
        sys.exit(f"no bench records in {bench_output}")
    # a record cut short must not land in the file
    records = [json.loads(line) for line in new]
    try:
        with open(results) as f:
            old = f.read().strip()
        previous = json.loads(old)
    except FileNotFoundError:
        old, previous = "[]", []
    kept = old[:-1].rstrip()  # the array without its closing `]`
    sep = ",\n" if kept != "[" else ""
    with open(results, "w") as f:
        f.write(kept + sep + ",\n".join(line[:-1] + tag for line in new) + "]\n")
    print(f"appended {len(new)} record(s) at {rev} to {results}")
    for line in regressions(previous, records):
        print(line)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
