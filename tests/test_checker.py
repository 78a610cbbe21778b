"""Isolation checks against known fixtures and the brute-force oracle."""

import pytest

import unserial as u
from unserial import checker, storesim as ss

from conftest import make_history, random_history


def lost_update():
    # two counter increments both reading the initial value
    return make_history({
        1: (1, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 1)]),
        2: (2, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 1)]),
    })


def serial_chain():
    return make_history({
        1: (1, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 1)]),
        2: (2, [('r', 'x', 1, 1, 1), ('w', 'x', 2, 2)]),
    })


def causal_gap():
    # t3 sees t2's write of y but misses t1's session-earlier write of x
    return make_history({
        1: (1, [('w', 'x', 1, 1)]),
        2: (1, [('w', 'y', 2, 2)]),
        3: (2, [('r', 'y', 1, 2, 2), ('r', 'x', 2, 0, 0)]),
    })


def fuzzed_histories():
    """RANDOM_WEAK runs of every built-in program, small enough for the
    oracle."""
    for program in ss.BUILTIN_WORKLOADS:
        for sessions, txns in ((2, 2), (3, 2), (4, 2)):
            for level in (u.CAUSAL, u.READ_COMMITTED):
                for seed in range(4):
                    _, h = ss.run_workload(
                        ss.WorkloadProgram(program), sessions, txns, seed,
                        ss.ReadPolicy(ss.RANDOM_WEAK, level, seed))
                    yield (program, sessions, txns, level, seed), h


def lost_update_plus_independent(n):
    # the lost update beside n one-transaction sessions that touch their
    # own keys: unserializable, and every frontier of the n sessions is
    # reachable, so the search visits 2**n states
    spec = {1: (1, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 1)]),
            2: (2, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 2)])}
    for i in range(n):
        spec[3 + i] = (3 + i, [('w', 'k%d' % i, 1, 1)])
    return make_history(spec)


def assert_replays(h, order, label):
    assert sorted(order) == h.committed(), label
    assert order[0] == u.T0, label
    last = {}
    for t in order:
        for e in h.txns[t].events:
            if e.kind == 'r':
                assert last.get(e.key, u.T0) == e.writer, (label, t)
        for e in h.txns[t].events:
            if e.kind == 'w':
                last[e.key] = t


def test_lost_update_unserializable():
    v = checker.check_serializable(lost_update())
    assert v.kind == 'unserializable'
    assert not v


def test_serial_chain_serializable():
    v = checker.check_serializable(serial_chain())
    assert v.kind == 'serializable'
    assert v.order == [0, 1, 2]


def test_empty_and_singleton_histories():
    h = make_history({1: (1, [('w', 'x', 1, 1)])})
    v = checker.check_serializable(h)
    assert v.kind == 'serializable'
    assert v.order == [0, 1]


def test_observed_runs_are_serializable(dd_observed, dw_observed):
    for _, h in (dd_observed, dw_observed):
        assert checker.check_serializable(h).kind == 'serializable'


def test_witness_order_replays(dd_observed):
    # the returned commit order must actually explain every read
    for seed in range(1000):
        h = random_history(seed)
        v = checker.check_serializable(h)
        if v.kind == 'serializable':
            assert_replays(h, v.order, seed)
    for label, h in fuzzed_histories():
        v = checker.check_serializable(h)
        if v.kind == 'serializable':
            assert_replays(h, v.order, label)


def test_oracle_equivalence_sample():
    kinds = set()
    for seed in range(1000):
        h = random_history(seed)
        kind = checker.check_serializable(h).kind
        assert kind == checker.oracle_serializable(h).kind, seed
        kinds.add(kind)
    for label, h in fuzzed_histories():
        kind = checker.check_serializable(h).kind
        assert kind == checker.oracle_serializable(h).kind, label
        kinds.add(kind)
    assert kinds == {'serializable', 'unserializable'}


def test_read_from_two_writers_unserializable():
    # a transaction reading one key from two different writers cannot be
    # placed after both of them
    h = make_history({
        1: (1, [('w', 'x', 1, 1)]),
        2: (2, [('r', 'x', 1, 1, 1), ('r', 'x', 2, 0, 0)]),
    })
    assert checker.check_serializable(h).kind == 'unserializable'


def test_read_from_session_successor_unserializable():
    h = make_history({
        1: (1, [('r', 'x', 1, 2, 2)]),
        2: (1, [('w', 'x', 2, 2)]),
    })
    assert checker.check_serializable(h).kind == 'unserializable'


def test_state_cap_reports_unknown(monkeypatch):
    h = lost_update_plus_independent(6)
    assert checker.check_serializable(h).kind == 'unserializable'
    monkeypatch.setattr(checker, 'STATE_CAP', 10)
    with pytest.raises(u.SolverUnknown) as exc:
        checker.check_serializable(h)
    assert exc.value.reason == 'state-cap'


def test_state_cap_admits_sixteen_sessions():
    # 2**16 states: the search finishes under the default cap
    h = lost_update_plus_independent(16)
    assert checker.check_serializable(h).kind == 'unserializable'


def test_timeout_reports_unknown():
    h = lost_update_plus_independent(12)
    with pytest.raises(u.SolverUnknown) as exc:
        checker.check_serializable(h, timeout=0)
    assert exc.value.reason == 'timeout'


def test_causal_gap_verdicts():
    h = causal_gap()
    assert checker.check_serializable(h).kind == 'unserializable'
    v = checker.check_causal(h)
    assert v.kind == 'violates'
    assert not v
    assert v.cycle, 'causal violation must carry a witness cycle'
    assert checker.check_rc(h).kind == 'conforms'


def test_violation_cycle_is_closed():
    for h in (causal_gap(), lost_update()):
        for check in (checker.check_causal, checker.check_rc):
            v = check(h)
            if v.cycle is None:
                continue
            for (a, b, _label), (c, _d, _l2) in zip(v.cycle,
                                                    v.cycle[1:] + v.cycle[:1]):
                assert b == c, 'cycle edges must chain'


def test_rc_violation_exists():
    # a read-committed violation: one transaction reads x twice, observing
    # the newer write first (fractured read order within the txn)
    h = make_history({
        1: (1, [('w', 'x', 1, 1)]),
        2: (2, [('r', 'x', 1, 1, 1), ('r', 'x', 2, 0, 0)]),
    })
    assert checker.check_rc(h).kind == 'violates'
    assert checker.check_causal(h).kind == 'violates'


def test_isolation_monotonicity_sample():
    for seed in range(150):
        h = random_history(seed)
        ser = bool(checker.check_serializable(h))
        causal = bool(checker.check_causal(h))
        rc = bool(checker.check_rc(h))
        assert not (ser and not causal), seed
        assert not (causal and not rc), seed


def test_ww_edge_helpers_are_subsets():
    for seed in range(60):
        h = random_history(seed)
        hb = h.hb()
        for (a, b) in checker.ww_causal_edges(h):
            assert a in h.committed() and b in h.committed()
            assert a != b
        # rc arbitration is implied by causal arbitration premises being
        # weaker, so rc edges are also valid transaction pairs
        for (a, b) in checker.ww_rc_edges(h):
            assert a != b
