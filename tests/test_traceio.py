"""Trace grammar: parse/emit round trips, errors, DOT rendering."""

import pytest
from hypothesis import given, settings, strategies as st

import unserial as u
from unserial import storesim as ss, traceio

from conftest import make_history


SAMPLE = """\
# deposit example
session 1
txn 1
r acc 1 0 0
w acc 2 50
commit
session 2
txn 2
r acc 1 1 50
w acc 2 60
commit
"""


def test_parse_emit_round_trip_fixed():
    trace = u.parse_trace(SAMPLE)
    text = u.emit_trace(trace)
    assert u.emit_trace(u.parse_trace(text)) == text
    assert [sid for sid, _ in trace.sessions] == [1, 2]
    assert trace.sessions[1][1][0].ops[0] == u.Event('r', 'acc', 1, 50, 1)


def test_comments_and_blank_lines_ignored():
    noisy = '\n\n# header\n' + SAMPLE.replace('commit', 'commit  # done')
    assert u.emit_trace(u.parse_trace(noisy)) == u.emit_trace(
        u.parse_trace(SAMPLE))


def test_boundary_and_schedule_lines():
    text = SAMPLE + 'boundary 1 2\nboundary 2 inf\n'
    trace = u.parse_trace(text)
    assert trace.boundaries == {1: 2, 2: traceio.INF}
    assert u.emit_trace(trace).endswith('boundary 1 2\nboundary 2 inf\n')
    # the schedule directive is gone: nothing produced or read it
    with pytest.raises(traceio.ParseError):
        u.parse_trace(text + 'schedule 1 2\n')


def test_abort_terminator():
    trace = u.parse_trace('session 1\ntxn 1\nw x 1 5\nabort\n')
    assert trace.sessions[0][1][0].terminator == 'abort'


@pytest.mark.parametrize('text, exc', [
    ('txn 1\ncommit\n', traceio.ParseError),          # txn outside session
    ('session 0\n', traceio.ParseError),              # non-positive sid
    ('session 1\ntxn 0\ncommit\n', traceio.ParseError),   # reserved tid
    ('session 1\ntxn\ncommit\n', traceio.ParseError),     # bare txn
    ('session 1\nw x 1 5\n', traceio.ParseError),     # event outside txn
    ('session 1\ntxn 1\nr x 1 0\ncommit\n', traceio.ParseError),  # arity
    ('session 1\ntxn 1\nw x z 5\ncommit\n', traceio.ParseError),  # bad int
    ('session 1\ncommit\n', traceio.ParseError),      # commit outside txn
    ('session 1\nfrobnicate\n', traceio.ParseError),  # unknown directive
    ('session 1\ntxn 1\ncommit\ntxn 1\ncommit\n', traceio.SemanticError),
    ('session 1\ntxn 1\nw x 2 5\nw y 1 6\ncommit\n', traceio.SemanticError),
    # unterminated txn, cut by the next txn, the next session or the end
    ('session 1\ntxn 1\nw x 1 5\ntxn 2\ncommit\n', traceio.ParseError),
    ('session 1\ntxn 1\nw x 1 5\nsession 2\ntxn 2\ncommit\n',
     traceio.ParseError),
    ('session 1\ntxn 1\ncommit\ntxn 2\nw x 1 5\n', traceio.ParseError),
])
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        u.parse_trace(text)


def test_parse_error_carries_line_number():
    with pytest.raises(traceio.ParseError) as ei:
        u.parse_trace('session 1\ntxn 1\nbogus\n')
    assert ei.value.line_no == 3
    assert 'line 3' in str(ei.value)


# --- generated round trips ------------------------------------------------

@st.composite
def traces(draw):
    trace = traceio.Trace()
    tid = 0
    for sid in range(1, draw(st.integers(1, 3)) + 1):
        records = []
        pos = 0
        for _ in range(draw(st.integers(1, 2))):
            tid += 1
            rec = traceio.TxnRecord(tid)
            for _ in range(draw(st.integers(0, 3))):
                key = draw(st.sampled_from(['x', 'y']))
                pos += 1
                value = draw(st.integers(0, 99))
                if draw(st.booleans()):
                    rec.ops.append(u.Event('r', key, pos, value,
                                           draw(st.integers(0, tid))))
                else:
                    rec.ops.append(u.Event('w', key, pos, value))
            rec.terminator = draw(st.sampled_from(['commit', 'abort']))
            records.append(rec)
        trace.sessions.append((sid, records))
    if draw(st.booleans()):
        trace.boundaries = {sid: draw(st.sampled_from([1, 2, traceio.INF]))
                            for sid, _ in trace.sessions}
    return trace


@settings(max_examples=200, deadline=None)
@given(traces())
def test_round_trip_generated(trace):
    text = u.emit_trace(trace)
    again = u.parse_trace(text)
    assert u.emit_trace(again) == text


def test_history_to_trace_round_trip(tmp_path):
    trace, history = ss.run_workload(ss.WorkloadProgram('deposit-deposit'),
                                     2, 1, 0,
                                     ss.ReadPolicy(ss.LATEST_WRITER))
    rebuilt = u.build_history(u.parse_trace(u.emit_trace(trace)))
    assert rebuilt.wr == history.wr
    assert rebuilt.sessions == history.sessions
    # history -> trace -> history is stable too
    t2 = u.history_to_trace(rebuilt)
    assert u.build_history(t2).wr == rebuilt.wr


def test_random_weak_runs_round_trip():
    # every event field survives emit/parse and history_to_trace, on
    # runs whose reads name writers other than the latest one
    for name in ss.BUILTIN_WORKLOADS:
        for level in ('causal', 'rc'):
            for seed in range(4):
                trace, history = ss.run_workload(
                    ss.WorkloadProgram(name), 3, 2, seed,
                    ss.ReadPolicy(ss.RANDOM_WEAK, level, rng_seed=seed))
                parsed = u.parse_trace(u.emit_trace(trace))
                assert u.build_history(parsed).txns == history.txns
                text = u.emit_trace(u.history_to_trace(history))
                assert u.emit_trace(u.parse_trace(text)) == text


# --- DOT ------------------------------------------------------------------

def test_emit_dot_basic():
    h = make_history({
        1: (1, [('w', 'x', 1, 5)]),
        2: (2, [('r', 'x', 1, 5, 1)]),
    })
    dot = u.emit_dot(h)
    assert dot.startswith('digraph history {')
    assert 't1 -> t2 [label="wr_x"];' in dot
    assert 't0 [shape=box' in dot
    assert u.emit_dot(h) == dot  # deterministic


def test_emit_dot_highlight_and_values():
    h = make_history({
        1: (1, [('w', 'x', 1, 5)]),
        2: (2, [('r', 'x', 1, 5, 1), ('w', 'x', 2, 6)]),
    })
    dot = u.emit_dot(h, highlight=[(1, 2, 'rw'), (2, 1, 'ww')], values=True)
    assert 'color=red' in dot
    assert 'style=dashed' in dot      # ww edge is not a drawn wr/so edge
    assert 'W(x)@1=5' in dot
