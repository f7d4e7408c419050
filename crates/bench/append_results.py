"""Appends the one-line JSON records a `cargo bench -p cesc-bench` run
printed to the bench trajectory file, each tagged with the git revision
it measured (`"rev"`, `git rev-parse --short HEAD`, with `-dirty` added
when tracked files have uncommitted changes).

Usage: python3 crates/bench/append_results.py BENCH_OUTPUT RESULTS_JSON

RESULTS_JSON is a JSON array with one record per line; earlier records
are kept byte for byte, and a missing file starts an empty array. Exits
non-zero if BENCH_OUTPUT holds no record.
"""

import json
import subprocess
import sys


def revision():
    git = lambda *args: subprocess.run(["git", *args], capture_output=True, text=True)
    rev = git("rev-parse", "--short", "HEAD").stdout.strip() or "unknown"
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return rev + "-dirty" if dirty else rev


def main(bench_output, results):
    rev = revision()
    tag = ',"rev":' + json.dumps(rev) + "}"
    with open(bench_output) as f:
        new = [line.strip() for line in f if line.startswith('{"bench"')]
    if not new:
        sys.exit(f"no bench records in {bench_output}")
    for line in new:
        json.loads(line)  # a record cut short must not land in the file
    try:
        with open(results) as f:
            old = f.read().strip()
        json.loads(old)
    except FileNotFoundError:
        old = "[]"
    kept = old[:-1].rstrip()  # the array without its closing `]`
    sep = ",\n" if kept != "[" else ""
    with open(results, "w") as f:
        f.write(kept + sep + ",\n".join(line[:-1] + tag for line in new) + "]\n")
    print(f"appended {len(new)} record(s) at {rev} to {results}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
