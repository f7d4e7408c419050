"""Tests of `append_results.regressions` on literal records. Run from the
repository root:

    python3 -m unittest discover -s crates/bench -p 'test_*.py'
"""

import unittest

from append_results import regressions

# the four `vcd_decode` records of BENCH_results.json, an unchanged
# decoder whose runs spread between two host states
DECODE = [
    {"bench": "vcd_decode", "workload": "sparse_handshake", "mb_per_s": v, "rev": rev}
    for v, rev in [
        (346.487, "untagged"),
        (378.494, "e82602e-dirty"),
        (441.265, "583f4e7-dirty"),
        (345.317, "07e5e57-dirty"),
    ]
]


def kinds(lines):
    return [line.split(":")[0] for line in lines]


class RegressionsTest(unittest.TestCase):
    def test_replayed_decode_records_are_unresolved_not_regressions(self):
        lines = regressions([], DECODE)
        self.assertNotIn("regression", kinds(lines))
        self.assertIn(
            "unresolved: vcd_decode/sparse_handshake mb_per_s 345.317 is more than 15% "
            "below 1 of 3 earlier record(s) (346.487–441.265)",
            lines,
        )

    def test_a_drop_below_every_earlier_record_is_a_regression(self):
        slow = dict(DECODE[0], mb_per_s=0.7 * 345.317, rev="new")
        lines = regressions(DECODE, [slow])
        self.assertEqual(kinds(lines), ["compared", "regression"])
        self.assertIn("below all 4 earlier record(s) (345.317–441.265)", lines[1])

    def test_only_the_last_five_records_count(self):
        # a fast record six runs back no longer makes a drop unresolved
        old = [dict(DECODE[0], mb_per_s=v) for v in (900, 400, 400, 400, 400, 400)]
        lines = regressions(old, [dict(DECODE[0], mb_per_s=330)])
        self.assertEqual(kinds(lines), ["compared", "regression"])
        self.assertIn("against 5 record(s)", lines[0])

    def test_records_are_compared_only_on_the_same_basis(self):
        # a probe-normalised record is not compared with raw ones, and
        # normalised values drop only when metric * probe_s drops
        probed = [dict(DECODE[0], mb_per_s=400, probe_s=0.02) for _ in range(2)]
        lines = regressions(DECODE, [dict(DECODE[0], mb_per_s=300, probe_s=0.026)])
        self.assertEqual(lines, [])
        lines = regressions(DECODE + probed, [dict(DECODE[0], mb_per_s=300, probe_s=0.026)])
        self.assertEqual(kinds(lines), ["compared"])
        self.assertIn("on metric*probe_s against 2 record(s)", lines[0])
        lines = regressions(probed, [dict(DECODE[0], mb_per_s=300, probe_s=0.02)])
        self.assertEqual(kinds(lines), ["compared", "regression"])
        self.assertIn("mb_per_s*probe_s 6 ", lines[1])


if __name__ == "__main__":
    unittest.main()
