"""History construction, normalization, and derived relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unserial as u
from unserial.history import normalize_events

from conftest import make_history, random_history


def hb_oracle(history):
    """Transitive closure of so union wr by boolean matrix powering."""
    tids = history.committed()
    idx = {t: i for i, t in enumerate(tids)}
    n = len(tids)
    adj = np.zeros((n, n), dtype=bool)
    for a, b in history.so_pairs() | history.wr_pairs():
        adj[idx[a], idx[b]] = True
    closed = adj.copy()
    while True:
        nxt = closed | (closed @ closed)
        if (nxt == closed).all():
            break
        closed = nxt
    return frozenset((tids[i], tids[j])
                     for i in range(n) for j in range(n)
                     if closed[i, j] and i != j)


def test_hb_matches_matrix_oracle():
    for seed in range(150):
        h = random_history(seed)
        assert h.hb() == hb_oracle(h), 'hb mismatch at seed %d' % seed


def test_t0_precedes_everything():
    h = random_history(7)
    for t in h.committed():
        if t != u.T0:
            assert (u.T0, t) in h.hb()
            assert h.so(u.T0, t)


def test_so_within_session_only():
    h = make_history({
        1: (1, [('w', 'x', 1, 1)]),
        2: (1, [('w', 'x', 1, 2)]),
        3: (2, [('w', 'x', 1, 3)]),
    })
    assert h.so(1, 2)
    assert not h.so(2, 1)
    assert not h.so(1, 3)
    assert not h.so(3, 1)
    assert not h.so(1, 1)


def test_position_indexes():
    h = make_history({
        1: (1, [('w', 'x', 1, 5), ('r', 'y', 2, 0, 0), ('w', 'y', 3, 6)]),
    })
    assert h.wrpos_k(1, 'x') == 1
    assert h.wrpos_k(1, 'y') == 3
    assert h.wrpos_k(1, 'z') is None
    assert h.last_pos(1) == 3
    assert h.max_pos() == 3


def test_read_sites_order():
    h = make_history({
        1: (1, [('r', 'x', 1, 0, 0)]),
        2: (2, [('r', 'x', 1, 0, 0), ('w', 'x', 2, 9)]),
    })
    assert h.read_sites() == [(1, 1, 1, 'x', 0), (2, 1, 2, 'x', 0)]


def test_writers_of_includes_t0():
    h = make_history({1: (1, [('w', 'x', 1, 1), ('r', 'y', 2, 0, 0)])})
    assert h.writers_of('x') == [0, 1]
    assert h.writers_of('y') == [0]


# --- normalization -------------------------------------------------------

def test_normalize_drops_self_reads_and_shadowed_writes():
    events = [
        u.Event('w', 'x', 1, 1),
        u.Event('r', 'x', 2, 1, 5),   # self-satisfied read
        u.Event('w', 'x', 3, 2),
        u.Event('r', 'y', 4, 0, 0),
    ]
    out = normalize_events(5, events)
    assert [(e.kind, e.key, e.pos) for e in out] == [
        ('w', 'x', 3), ('r', 'y', 4)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from('rw'), st.sampled_from('xy'),
                          st.integers(0, 3)), max_size=8))
def test_normalize_properties(raw):
    events = []
    for i, (kind, key, writer) in enumerate(raw):
        if kind == 'r':
            events.append(u.Event('r', key, i + 1, 0, writer))
        else:
            events.append(u.Event('w', key, i + 1, 7))
    out = normalize_events(9, events)
    # at most one write per key survives
    wkeys = [e.key for e in out if e.kind == 'w']
    assert len(wkeys) == len(set(wkeys))
    # no surviving read names the transaction itself
    assert all(e.writer != 9 for e in out if e.kind == 'r')
    # relative order is preserved
    positions = [e.pos for e in out]
    assert positions == sorted(positions)
    # idempotent
    assert normalize_events(9, out) == out


# --- build_history validation --------------------------------------------

def _trace(text):
    return u.parse_trace(text)


def test_build_history_drops_aborted():
    h = u.build_history(_trace(
        'session 1\ntxn 1\nw x 1 5\ncommit\n'
        'txn 2\nw x 2 6\nabort\n'))
    assert 2 not in h.txns
    assert h.sessions[1] == [1]


def test_build_history_rejects_dangling_writer():
    with pytest.raises(u.MalformedTrace):
        u.build_history(_trace(
            'session 1\ntxn 1\nr x 1 9 5\ncommit\n'))


def test_build_history_rejects_aborted_writer():
    with pytest.raises(u.MalformedTrace):
        u.build_history(_trace(
            'session 1\ntxn 1\nw x 1 5\nabort\n'
            'session 2\ntxn 2\nr x 1 1 5\ncommit\n'))


def test_build_history_rejects_wrong_key_writer():
    with pytest.raises(u.MalformedTrace):
        u.build_history(_trace(
            'session 1\ntxn 1\nw y 1 5\ncommit\n'
            'session 2\ntxn 2\nr x 1 1 5\ncommit\n'))


def test_position_regression_rejected_at_parse():
    with pytest.raises(u.SemanticError):
        _trace('session 1\ntxn 1\nw x 2 5\nw y 1 6\ncommit\n')


def test_build_history_synthesizes_t0():
    h = u.build_history(_trace('session 1\ntxn 1\nw x 1 5\ncommit\n'))
    t0 = h.txns[u.T0]
    assert [(e.kind, e.key, e.value) for e in t0.events] == [('w', 'x', 0)]
