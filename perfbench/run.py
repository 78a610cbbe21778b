"""The repository benchmark: observe -> predict -> validate, and fuzzing.

    python3 perfbench/run.py --workload exact-cegar --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  One process runs one workload as a closed
loop with one client: each operation starts when the previous one ends.
The workload seed sets the order of the operations (see workloads.py).

--trace 0 repeats whole passes over the operations for about --seconds of
operation time, and reports the end-to-end metrics.  Their times are
scaled to a nominal machine speed by reference searches run after every
CHUNK_S seconds of operations (see clock.py); the wall-clock figures are
printed as well.  Every output is checked outside the timed region.

--trace 1 runs one untraced pass and two traced passes, reports per-layer
metrics from the first traced pass plus the tracing overhead (traced pass
time minus untraced pass time), checks that the deterministic counters
repeat exactly between the two traced passes, and writes the first traced
pass's spans to perfbench/out/spans-<workload>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any check
fails, and 2 when the library sources are missing.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads
from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
OUT = os.path.join(HERE, 'out')
SETUP_REPEATS = 9

perf = time.perf_counter
# seconds of operations between two reference searches
CHUNK_S = 1.0


def setup(workload, seed):
    """Import the library and generate the inputs, several times.

    Returns the median seconds, the operations and the expected verdicts.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == 'unserial' or m.startswith('unserial.')]:
            del sys.modules[name]
        t0 = perf()
        importlib.import_module('unserial')
        ops = workloads.generate(workload, seed)
        expected = workloads.load_expected()
        times.append(perf() - t0)
    return statistics.median(times), ops, expected


class Pass:
    """Outcome of one or more passes over the operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0      # seconds of all operations
        self.ok_times = {}      # operation index -> seconds of its correct runs
        self.sat = 0
        self.validated = 0
        self.unserializable = 0
        self.problems = []
        self.approx_ops = []


def run_op(lib, op, expected, i, tracer):
    """(wall seconds, outcome, problems) of one checked operation."""
    gc.collect()   # the previous operation's garbage is not this one's cost
    root = tracer.begin_op(i) if tracer is not None else None
    t0 = perf()
    try:
        out = workloads.execute(lib, op)
    except Exception:   # keep running; the failure is counted
        out = None
        problems = [traceback.format_exc().strip().splitlines()[-1]]
    dt = perf() - t0
    if tracer is not None:
        tracer.end_op(root)
    if out is not None:
        problems = workloads.check(lib, op, out, expected)
    return dt, out, problems


def run_pass(lib, ops, expected, result, tracer=None, clock=None):
    since_tick = 0.0
    for i, op in enumerate(ops):
        dt, out, problems = run_op(lib, op, expected, i, tracer)
        result.attempted += 1
        result.timed_s += dt
        if op.strategy is not None and op.strategy.startswith('approx'):
            result.approx_ops.append(i)
        if problems:
            result.failed += 1
            result.problems.append((op.key, problems))
        else:
            result.ok_times.setdefault(i, []).append(dt)
            if op.strategy is None:
                result.unserializable += not out.verdict
            elif out.report is not None:
                result.sat += 1
                result.validated += \
                    out.report.outcome == 'ValidatedUnserializable'
        since_tick += dt
        if clock is not None and since_tick >= CHUNK_S:
            clock.tick()
            since_tick = 0.0
    return result


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(times):
    """Median and 75th percentile; 0 when there are too few samples."""
    if len(times) < 2:
        return 0.0, 0.0
    q = statistics.quantiles(times, n=4)
    return q[1], q[2]


def end_to_end(lib, ops, expected, seconds, setup_s, clock):
    result = Pass()
    passes = 0
    # whole passes, stopping where the run ends closest to `seconds`
    while passes == 0 or seconds - result.timed_s > result.timed_s / passes / 2:
        run_pass(lib, ops, expected, result, clock=clock)
        passes += 1
    n = sum(len(ts) for ts in result.ok_times.values())
    # quartiles over each operation's median time across the passes: the
    # passes repeat the same operations, and their median damps the noise
    # of single runs before operations are ranked
    p50, p75 = quartiles([statistics.median(ts)
                          for ts in result.ok_times.values()])
    scale = clock.scale()
    metrics = {
        'setup_s': (setup_s * scale, 's'),
        'ok_ops_per_s': (n / (result.timed_s * scale), '1/s'),
        'op_s.p50': (p50 * scale, 's'),
        'op_s.p75': (p75 * scale, 's'),
        'peak_rss_mb': (peak_rss_mb(), 'MB'),
    }
    extra = {
        'failed_frac': (result.failed / result.attempted, 'frac'),
        'op_s.samples': (len(result.ok_times), 'count'),
        'passes': (passes, 'count'),
        'machine_speed': (scale, 'x'),
        'wall.setup_s': (setup_s, 's'),
        'wall.ok_ops_per_s': (n / result.timed_s, '1/s'),
        'wall.op_s.p50': (p50, 's'),
        'wall.op_s.p75': (p75, 's'),
    }
    if any(op.strategy is not None for op in ops):
        extra['validated_frac'] = (
            result.validated / result.sat if result.sat else 0.0, 'frac')
    return result, metrics, extra


def traced(lib, ops, expected, workload):
    untraced = run_pass(lib, ops, expected, Pass())
    fuzz = workload == 'fuzz-weak'
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            result = run_pass(lib, ops, expected, Pass(), tracer)
        finally:
            installed.remove()
        m = tracing.layer_metrics(tracer, result.approx_ops, fuzz)
        m['storesim.validated'] = result.validated
        m['storesim.fuzz_unserializable'] = result.unserializable
        if fuzz:
            _, m['storesim.fuzz_crashes'], m['storesim.fuzz_illegal'] = \
                workloads.run_defect_probe(lib)
        else:
            m['storesim.fuzz_crashes'] = m['storesim.fuzz_illegal'] = 0
        m['trace.overhead_s'] = result.timed_s - untraced.timed_s
        layers.append((tracer, result, m))
    tracer, result, m = layers[0]
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, 'spans-%s.jsonl' % workload))
    drift = [name for name in tracing.DETERMINISTIC
             if m[name] != layers[1][2][name]]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (m[name], units[name]) for name, _, _ in
               tracing.PER_LAYER}
    extra = {'untraced_s': (untraced.timed_s, 's'),
             'traced_s': (result.timed_s, 's')}
    failed = untraced.failed + sum(r.failed for _, r, _ in layers)
    problems = untraced.problems + [p for _, r, _ in layers
                                    for p in r.problems]
    problems += [('determinism', ['%s differs between traced passes' % n])
                 for n in drift]
    attempted = untraced.attempted + sum(r.attempted for _, r, _ in layers)
    return attempted, failed, problems, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, 'unserial', '__init__.py')):
        print('library sources not found under %s' % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup_s, ops, expected = setup(args.workload, args.seed)
    lib = workloads.Library()
    if not lib.storesim.__file__.startswith(SRC + os.sep):
        print('unserial imported from outside %s' % SRC, file=sys.stderr)
        return 2

    if args.trace:
        attempted, failed, problems, metrics, extra = traced(
            lib, ops, expected, args.workload)
    else:
        result, metrics, extra = end_to_end(lib, ops, expected, args.seconds,
                                            setup_s, Clock())
        attempted, failed, problems = (result.attempted, result.failed,
                                       result.problems)
        if args.workload == 'fuzz-weak':
            runs, crashes, illegal = workloads.run_defect_probe(lib)
            print('known defect (fuzz legality on multi-read transactions): '
                  '%d crashes and %d illegal histories in %d smallbank-lite '
                  'runs' % (crashes, illegal, runs))

    for key, msgs in problems:
        print('FAILED %s: %s' % (key, '; '.join(msgs)))
    print('%s seed=%d ops/pass=%d attempted=%d failed=%d' % (
        args.workload, args.seed, len(ops), attempted, failed))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print('  %-34s %14.6g %s' % (name, value, unit))
    correct = not problems
    print(json.dumps({
        'correct': correct, 'attempted': attempted, 'failed': failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
