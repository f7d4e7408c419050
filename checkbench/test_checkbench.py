"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s checkbench -p 'test_*.py'

They build the release binary and the helper like `run.py` does, and
use small inputs.
"""

import filecmp
import json
import os
import shutil
import unittest

import run

# small input lengths (see `Workload::full_len` for the benchmark's)
SMALL = {"handshake_sparse": 20_000, "ocp_fleet": 5_000, "fig2_multiclock": 2_000}
FILES = ("spec.cesc", "dump.vcd", "header.vcd", "reference.json")


class CheckBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cesc, cls.exe = run.build()
        cls.root = os.path.join(run.HERE, "work", f"test-{os.getpid()}")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)
        parent = os.path.dirname(cls.root)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def gen(self, workload, seed, name):
        """Generates a small workload; returns (dir, reference verdicts, jobs)."""
        d = os.path.join(self.root, name)
        run.helper(self.exe, "gen", workload, seed, d, SMALL[workload])
        with open(os.path.join(d, "reference.json")) as f:
            ref = json.load(f)
        return d, ref["verdicts"], ref["jobs"]

    def test_same_seed_gives_byte_identical_files(self):
        for w in run.WORKLOADS:
            a = self.gen(w, 7, f"{w}-a")[0]
            b = self.gen(w, 7, f"{w}-b")[0]
            c = self.gen(w, 8, f"{w}-c")[0]
            for f in FILES:
                self.assertTrue(filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False),
                                f"{w}: {f} differs between two runs of one seed")
            self.assertFalse(filecmp.cmp(os.path.join(a, "dump.vcd"),
                                         os.path.join(c, "dump.vcd"), shallow=False),
                             f"{w}: seeds 7 and 8 give the same dump")

    def test_traced_pass_matches_check_fleet_and_reference(self):
        for w in run.WORKLOADS:
            d, reference, jobs = self.gen(w, 3, f"{w}-traced")
            traced = run.helper(self.exe, "trace", d, jobs)
            fleet = run.helper(self.exe, "fleet", d, jobs)
            self.assertEqual(traced["verdicts"], run.normalize(fleet), w)
            self.assertEqual(traced["verdicts"], reference, w)
            self.assertTrue(any(t.get("matches", 0) > 0 for t in reference["targets"].values()),
                            f"{w}: nothing detected")

    def test_timed_checks_agree_with_reference(self):
        for w in run.WORKLOADS:
            d, reference, jobs = self.gen(w, 5, f"{w}-timed")
            checks = run.timed_checks(self.cesc, self.exe, d, jobs, reference, 0.0)
            self.assertEqual(checks["failed"], 0, w)

    def test_corrupted_value_change_is_caught(self):
        d, reference, jobs = self.gen("handshake_sparse", 11, "corrupt")
        path = os.path.join(d, "dump.vcd")
        with open(path) as f:
            lines = f.read().split("\n")
        code = next(l.split()[3] for l in lines if l.startswith("$var") and l.split()[4] == "ack")
        body = lines.index("$end", lines.index("$dumpvars"))  # past the initial values
        rise = lines.index("1" + code, body)
        lines[rise] = "0" + code  # drop one acknowledge pulse
        with open(path, "w") as f:
            f.write("\n".join(lines))
        checks = run.timed_checks(self.cesc, self.exe, d, jobs, reference, 0.0)
        self.assertGreater(checks["failed"] / checks["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
