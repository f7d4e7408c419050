"""Appends the one-line JSON records a `cargo bench -p cesc-bench` run
printed to the bench trajectory file, each tagged with the git revision
it measured (`"rev"`, `git rev-parse --short HEAD`, with `-dirty` added
when tracked files have uncommitted changes).

Usage: python3 crates/bench/append_results.py BENCH_OUTPUT RESULTS_JSON

RESULTS_JSON is a JSON array with one record per line; earlier records
are kept byte for byte, and a missing file starts an empty array. Exits
non-zero if BENCH_OUTPUT holds no record.

Each new record is compared with the last five (or fewer) records of
the same `bench`, `workload` and basis. A record carrying `probe_s` (the
host-speed probe `cesc_bench::probe_s`, seconds) is compared on
`metric * probe_s`, which stays put when the host's speed drifts between
runs, and only with records that carry it too; a record without it is
compared on the raw metric with records without it. For `melem_per_s`
and `mb_per_s`, a value more than 15% below every one of those records
prints a `regression:` line; a value more than 15% below some but not
all of them prints an `unresolved:` line with their min–max, since one
bench's runs can spread that far on an unchanged build. One `compared:`
line says what each bench and workload was compared with. This only
reports; the exit status does not change.
"""

import json
import subprocess
import sys

# The throughput bound of BENCHMARK.json (`mb_per_s`, `mticks_per_s`).
REGRESSION_BOUND = 0.15
THROUGHPUT_KEYS = ("melem_per_s", "mb_per_s")
# How many earlier records of one bench, workload and basis a new one is
# compared with.
WINDOW = 5


def revision():
    git = lambda *args: subprocess.run(["git", *args], capture_output=True, text=True)
    rev = git("rev-parse", "--short", "HEAD").stdout.strip() or "unknown"
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return rev + "-dirty" if dirty else rev


def basis(record):
    """The comparison basis of `record`: normalised when it carries `probe_s`."""
    return "metric*probe_s" if record.get("probe_s") else "raw metric"


def value(record, metric):
    """`metric` of `record` on its basis, or None when it has none."""
    v = record.get(metric)
    return v * record["probe_s"] if v is not None and record.get("probe_s") else v


def regressions(previous, new):
    """The `compared:`, `regression:` and `unresolved:` lines for `new`
    records, each compared with the last `WINDOW` records of the same
    bench, workload and basis in `previous` or earlier in `new`."""
    history = {}
    for record in previous:
        key = (record.get("bench"), record.get("workload"), basis(record))
        history.setdefault(key, []).append(record)
    lines = []
    for record in new:
        key = (record.get("bench"), record.get("workload"), basis(record))
        runs = history.setdefault(key, [])
        before = runs[-WINDOW:]
        runs.append(record)
        if not before:
            continue
        name = f"{key[0]}/{key[1]}"
        revs = ", ".join(r.get("rev", "untagged") for r in before)
        lines.append(f"compared: {name} on {key[2]} against {len(before)} record(s) ({revs})")
        suffix = "*probe_s" if record.get("probe_s") else ""
        for metric in THROUGHPUT_KEYS:
            cur = value(record, metric)
            olds = [v for v in (value(r, metric) for r in before) if v]
            if cur is None or not olds:
                continue
            below = [old for old in olds if cur < old * (1 - REGRESSION_BOUND)]
            span = f"{min(olds):.6g}–{max(olds):.6g}"
            if len(below) == len(olds):
                lines.append(
                    f"regression: {name} {metric}{suffix} {cur:.6g} is more than "
                    f"{REGRESSION_BOUND:.0%} below all {len(olds)} earlier record(s) "
                    f"({span}), {(cur - min(olds)) / min(olds):+.1%} against the lowest"
                )
            elif below:
                lines.append(
                    f"unresolved: {name} {metric}{suffix} {cur:.6g} is more than "
                    f"{REGRESSION_BOUND:.0%} below {len(below)} of {len(olds)} earlier "
                    f"record(s) ({span})"
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
