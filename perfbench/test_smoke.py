"""Smoke test of the benchmark: one tiny operation per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), 'src'))

import unserial  # noqa: E402,F401
import run  # noqa: E402
from clock import Clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    'exact-cegar': workloads.Op('deposit-deposit', 2, 1, 0, 'causal',
                                'exact-strict'),
    'approx-rank': workloads.Op('deposit-deposit', 2, 1, 0, 'rc',
                                'approx-relaxed'),
    'fuzz-weak': workloads.Op('voter', 2, 2, 0, 'causal', None),
}
TINY_EXPECTED = {TINY['exact-cegar'].key: 'unsat',
                 TINY['approx-rank'].key: 'sat'}


def _originals():
    """(owner, attribute, original) of everything the tracer replaces."""
    installed = tracing.install(tracing.Tracer())
    saved = list(installed.saved)
    installed.remove()
    return saved


def _assert_restored(saved):
    for owner, attr, orig in saved:
        assert owner.__dict__[attr] is orig, attr


def _run(workload, tracer=None):
    lib = workloads.Library()
    return run.run_pass(lib, [TINY[workload]], TINY_EXPECTED, run.Pass(),
                        tracer)


def test_untraced_pass_checks_every_operation():
    saved = _originals()
    _assert_restored(saved)
    for workload in TINY:
        result = _run(workload)
        assert (result.attempted, result.failed) == (1, 0), result.problems
        assert list(result.ok_times) == [0]
        _assert_restored(saved)


def test_end_to_end_reports_every_benchmark_metric():
    with open(os.path.join(os.path.dirname(HERE), 'BENCHMARK.json')) as f:
        names = {m['name'] for m in json.load(f)['end_to_end']}
    op = TINY['fuzz-weak']
    _, metrics, _ = run.end_to_end(workloads.Library(), [op, op], {}, 0, 0.01,
                                   Clock())
    assert set(metrics) == names
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_pass_records_spans_and_restores_wrappers():
    saved = _originals()
    for workload in TINY:
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            installed = tracing.install(tracer)
            try:
                result = _run(workload, tracer)
            finally:
                installed.remove()
            assert result.failed == 0, result.problems
            _assert_restored(saved)
            m = tracing.layer_metrics(tracer, result.approx_ops,
                                      workload == 'fuzz-weak')
            counts.append({n: m[n] for n in tracing.DETERMINISTIC if n in m})
            roots = [s for s in tracer.spans if s.parent is None]
            assert [s.name for s in roots] == ['op']
            for s in tracer.spans:
                assert s.op == 0 and s.end >= s.start
                assert s.self_s >= -1e-9
        assert counts[0] == counts[1]
        if workload == 'fuzz-weak':
            assert m['storesim.legal_writers.calls'] > 0
        else:
            assert m['predictor.predict_s'] > 0
            assert m['checker.serializable.calls'] > 0


def test_wrong_verdict_is_a_failure():
    op = TINY['exact-cegar']
    result = run.run_pass(workloads.Library(), [op], {op.key: 'sat'},
                          run.Pass())
    assert result.failed == 1
    assert 'expected sat' in result.problems[0][1][0]


def test_generated_inputs_repeat_per_seed():
    for workload in workloads.WORKLOADS:
        ops = workloads.generate(workload, 3)
        assert ops == workloads.generate(workload, 3)
        assert len(ops) >= 40
    expected = workloads.load_expected()
    for workload in ('exact-cegar', 'approx-rank'):
        for op in workloads.generate(workload, 3):
            assert op.key in expected
