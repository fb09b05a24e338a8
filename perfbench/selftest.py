#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs perfbench/run.py briefly, once clean and once per planted fault,
and checks that a clean run reports no failed op while every fault is
counted as failed (error_rate > 0) and marks the run incorrect:

  wrong-digest    a wrong reference digest on sim-schemes
  corrupt-shadow  client 0 corrupts its shadow before one read
  tamper-reply    client 0 flips a byte of one read reply
  bad-request     client 0 sends one read past the protected region,
                  which the daemon answers with a non-kOk reply

Exit status 0 when every gate fires, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

CASES = [
    # (workload, injection or None, expect failures)
    ("sim-schemes", None, False),
    ("sim-schemes", "wrong-digest", True),
    ("served-hot-read", None, False),
    ("served-hot-read", "corrupt-shadow", True),
    ("served-hot-read", "tamper-reply", True),
    ("served-cold-mixed", "tamper-reply", True),
    ("served-cold-mixed", "bad-request", True),
]


def run(workload, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bad = 0
    for workload, inject, expect_fail in CASES:
        code, res = run(workload, inject)
        fired = res["failed"] > 0 and not res["correct"] and code != 0
        clean = res["failed"] == 0 and res["correct"] and code == 0
        ok = fired if expect_fail else clean
        bad += not ok
        print("%-4s %-18s %-15s failed %d/%d correct %s exit %d" % (
            "ok" if ok else "FAIL", workload, inject or "(none)",
            res["failed"], res["attempted"], res["correct"], code))
    print("every gate fired" if not bad else "%d case(s) wrong" % bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
