"""Record the expected predict verdict of every benchmark instance.

Writes perfbench/expected.json: for each predict operation of every
workload, the verdict ('sat' or 'unsat') that `predict` returns.  Run it
from the repository root at a commit whose predictions are trusted:

    python3 perfbench/record_expected.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, 'src'))

import unserial  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    lib = workloads.Library()
    expected = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, 0):
            if op.strategy is None:
                continue
            out = workloads.execute(lib, op)
            verdict = workloads.verdict_of(lib, out.prediction)
            if verdict == 'unknown':
                raise SystemExit('%s: %r' % (op.key, out.prediction))
            expected[op.key] = verdict
            print(op.key, verdict, flush=True)
    with open(workloads.EXPECTED_PATH, 'w') as f:
        json.dump(expected, f, indent=0, sort_keys=True)
        f.write('\n')


if __name__ == '__main__':
    main()
