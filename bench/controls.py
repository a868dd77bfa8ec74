"""Show that no output check of the benchmark is vacuous.

Run from the root of a checkout::

    python3 bench/controls.py [--seed N] [--seconds S]

For every workload it runs ``run.py`` twice, unperturbed and with
``--control`` (a wrong law or a shifted start, see ``workloads.py``), and
prints which checks failed.  It exits with code 0 only when every
unperturbed run passes its checks and every control run fails them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dominance-ellipse", "chain-coupling-ellipse",
             "process-coupling-disc", "general-body-table")


def run(workload, seed, seconds, control):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if control:
        cmd.append("--control")
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, proc.stderr.strip().splitlines()[-1:]
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    # one line per kind of failure, without the per-operation figures
    reasons = sorted({f.split(":")[0].split(" (")[0]
                      for f in [f for c in record["check_failures"]
                                for f in c["failed"]]
                      + record["run_check_failures"]})
    return proc.returncode, result, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for control in (False, True):
            code, result, reasons = run(workload, args.seed, args.seconds,
                                        control)
            correct = result is not None and result["correct"]
            expected = not control
            ok &= correct == expected and code == (0 if expected else 1)
            label = "control " if control else "positive"
            verdict = "as required" if correct == expected else "UNEXPECTED"
            print(f"{workload:24s} {label} correct={correct!s:5s} exit={code}"
                  f" {verdict}; failed checks: {reasons or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
