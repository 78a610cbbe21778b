"""Benchmark workloads: operation lists, one operation, and its checks.

A workload is a fixed list of instance classes.  The workload seed picks
each operation's observe seed and the order of the pass; the classes, and
so the sizes, levels and strategies, are the same for every seed.
"""

import json
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, 'expected.json')

# generous per-operation deadline for predict; a timeout counts as a failure
DEADLINE_S = 60.0
# the brute-force oracle's transaction guard
ORACLE_MAX_TXNS = 9

# (program, sessions, txns, level, strategy, operations per pass); the
# operations of a class use observe (or fuzz) seeds 0, 1, ...
EXACT_CEGAR = [
    ('voter', 3, 4, 'causal', 'exact-strict', 2),
    ('voter', 3, 4, 'rc', 'exact-strict', 3),
    ('voter', 3, 3, 'causal', 'exact-strict', 4),
    ('voter', 3, 3, 'rc', 'exact-strict', 3),
    ('deposit-deposit', 3, 2, 'causal', 'exact-strict', 3),
    ('deposit-deposit', 3, 2, 'rc', 'exact-strict', 3),
    ('deposit-deposit', 4, 2, 'causal', 'exact-strict', 2),
    ('deposit-deposit', 4, 2, 'rc', 'exact-strict', 3),
    ('deposit-withdraw', 3, 2, 'causal', 'exact-strict', 3),
    ('deposit-withdraw', 3, 2, 'rc', 'exact-strict', 3),
    ('smallbank-lite', 3, 2, 'causal', 'exact-strict', 3),
    ('smallbank-lite', 3, 2, 'rc', 'exact-strict', 3),
    ('smallbank-lite', 4, 3, 'causal', 'exact-strict', 2),
    ('smallbank-lite', 4, 3, 'rc', 'exact-strict', 3),
]

# about a sixth of these operations take 1-2 s (rank search past its budget,
# then the fallback); the cheap deposit-deposit 2x2 relaxed runs at the end
# keep op_s.p75 inside the many 0.2-0.35 s operations, away from that jump
APPROX_RANK = [
    ('voter', 3, 4, 'causal', 'approx-strict', 1),
    ('voter', 3, 2, 'causal', 'approx-strict', 1),
    ('voter', 2, 3, 'rc', 'approx-strict', 1),
    ('deposit-deposit', 2, 2, 'causal', 'approx-strict', 3),
    ('deposit-deposit', 2, 2, 'rc', 'approx-strict', 3),
    ('deposit-withdraw', 3, 2, 'causal', 'approx-strict', 1),
    ('smallbank-lite', 2, 2, 'causal', 'approx-strict', 4),
    ('smallbank-lite', 2, 2, 'rc', 'approx-strict', 3),
    ('smallbank-lite', 3, 2, 'causal', 'approx-strict', 1),
    ('voter', 2, 3, 'causal', 'approx-relaxed', 1),
    ('voter', 3, 2, 'rc', 'approx-relaxed', 1),
    ('deposit-deposit', 3, 2, 'causal', 'approx-relaxed', 3),
    ('deposit-deposit', 3, 2, 'rc', 'approx-relaxed', 3),
    ('deposit-withdraw', 3, 2, 'causal', 'approx-relaxed', 4),
    ('deposit-withdraw', 3, 2, 'rc', 'approx-relaxed', 4),
    ('smallbank-lite', 3, 2, 'causal', 'approx-relaxed', 3),
    ('smallbank-lite', 3, 2, 'rc', 'approx-relaxed', 3),
    ('smallbank-lite', 2, 2, 'causal', 'approx-relaxed', 2),
    ('deposit-deposit', 2, 2, 'causal', 'approx-relaxed', 3),
    ('deposit-deposit', 2, 2, 'rc', 'approx-relaxed', 3),
]

# single-read programs only: RANDOM_WEAK on smallbank-lite's multi-read
# transactions crashes or breaks its level today, so those runs go to
# DEFECT_PROBE instead of failing operations.  The small sizes give
# serializable runs; the rep counts keep the median inside the 4x3 runs
# and the 75th percentile inside the 6x4 runs.
FUZZ_WEAK = [
    (program, s, t, level, None, reps)
    for program in ('deposit-deposit', 'deposit-withdraw', 'voter')
    for (s, t, reps) in ((2, 2, 2), (3, 2, 2), (4, 3, 6), (6, 4, 6))
    for level in ('causal', 'rc')
]
DEFECT_PROBE = [
    ('smallbank-lite', s, t, level, None, 4)
    for (s, t) in ((4, 3), (6, 4))
    for level in ('causal', 'rc')
]

WORKLOADS = {
    'exact-cegar': EXACT_CEGAR,
    'approx-rank': APPROX_RANK,
    'fuzz-weak': FUZZ_WEAK,
}


@dataclass(frozen=True)
class Op:
    program: str
    sessions: int
    txns: int
    seed: int              # observe (or fuzz) seed
    level: str
    strategy: str | None   # None for a fuzz run

    @property
    def key(self):
        return '%s %dx%d seed=%d %s %s' % (
            self.program, self.sessions, self.txns, self.seed, self.level,
            self.strategy)


def _ops(classes):
    return [Op(program, s, t, seed, level, strategy)
            for (program, s, t, level, strategy, reps) in classes
            for seed in range(reps)]


def generate(workload, seed):
    """One pass of a workload: its operations in the order they run.

    Every seed runs the same instances, in its own order: single instance
    costs vary several-fold with the observe seed, so drawing instances
    per seed would make runs on different seeds measure different work.
    """
    ops = _ops(WORKLOADS[workload])
    random.Random('%s:%d' % (workload, seed)).shuffle(ops)
    return ops


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


class Library:
    """The library modules, looked up after the timed import."""

    def __init__(self):
        self.storesim = sys.modules['unserial.storesim']
        self.traceio = sys.modules['unserial.traceio']
        self.history = sys.modules['unserial.history']
        self.predictor = sys.modules['unserial.predictor']
        self.checker = sys.modules['unserial.checker']


@dataclass
class Outcome:
    history: object            # fuzz: the fuzzed history
    prediction: object = None  # PredictedHistory, None or Unknown
    report: object = None      # ValidationReport of a sat prediction
    verdict: object = None     # fuzz: check_serializable's Verdict


def execute(lib, op):
    """Run one operation through the public library API."""
    ss = lib.storesim
    program = ss.WorkloadProgram(op.program)
    if op.strategy is None:
        _, hist = ss.run_workload(program, op.sessions, op.txns, op.seed,
                                  ss.ReadPolicy(ss.RANDOM_WEAK, op.level,
                                                op.seed))
        return Outcome(hist, verdict=lib.checker.check_serializable(hist))
    trace, _ = ss.run_workload(program, op.sessions, op.txns, op.seed,
                               ss.ReadPolicy(ss.LATEST_WRITER))
    parsed = lib.traceio.parse_trace(lib.traceio.emit_trace(trace))
    hist = lib.history.build_history(parsed)
    pred = lib.predictor.predict(hist, op.level, op.strategy,
                                 timeout=DEADLINE_S)
    report = None
    if isinstance(pred, lib.predictor.PredictedHistory):
        report = ss.validate(pred, program, op.sessions, op.txns, op.seed,
                             op.level)
    return Outcome(hist, pred, report)


def verdict_of(lib, prediction):
    if isinstance(prediction, lib.predictor.PredictedHistory):
        return 'sat'
    if prediction is None:
        return 'unsat'
    return 'unknown'


def conforms(lib, history, level):
    check = lib.checker.check_causal if level == 'causal' \
        else lib.checker.check_rc
    return bool(check(history))


def check(lib, op, out, expected):
    """Problems with one operation's outputs; empty when all are correct."""
    if op.strategy is None:
        if not conforms(lib, out.history, op.level):
            return ['fuzz history violates %s' % op.level]
        return []
    verdict = verdict_of(lib, out.prediction)
    if verdict == 'unknown':
        return ['predict returned %r' % (out.prediction,)]
    problems = []
    want = expected.get(op.key)
    if want is None:
        problems.append('no expected verdict recorded')
    elif verdict != want:
        problems.append('verdict %s, expected %s' % (verdict, want))
    if op.program == 'voter':
        # acceptance criterion 3: voter is unsat under causal, sat under rc
        ref = 'unsat' if op.level == 'causal' else 'sat'
        if verdict != ref:
            problems.append('voter verdict %s, reference %s' % (verdict, ref))
    if verdict == 'sat':
        prefix = out.prediction.history
        if not conforms(lib, prefix, op.level):
            problems.append('predicted prefix violates %s' % op.level)
        n = len([t for t in prefix.committed() if t != lib.history.T0])
        if n <= ORACLE_MAX_TXNS and lib.checker.oracle_serializable(prefix):
            problems.append('predicted prefix is serializable by the oracle')
        if out.report.outcome == 'Unknown':
            problems.append('validate returned Unknown')
    return problems


def run_defect_probe(lib):
    """(runs, crashes, illegal) of the smallbank-lite fuzz probe."""
    crashes = illegal = 0
    ops = _ops(DEFECT_PROBE)
    ss = lib.storesim
    for op in ops:
        try:
            _, hist = ss.run_workload(
                ss.WorkloadProgram(op.program), op.sessions, op.txns, op.seed,
                ss.ReadPolicy(ss.RANDOM_WEAK, op.level, op.seed))
        except IndexError:   # no legal writer for a read
            crashes += 1
            continue
        if not conforms(lib, hist, op.level):
            illegal += 1
    return len(ops), crashes, illegal
