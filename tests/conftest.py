"""Shared fixtures and small history builders for the test suite."""

import random

import pytest

import unserial as u
from unserial import storesim as ss
from unserial.history import normalize_events


def make_history(spec):
    """Build an ExecutionHistory from {tid: (sid, [event tuples])}.

    Event tuples are ('w', key, pos, value) or ('r', key, pos, value,
    writer).  Sessions are inferred; tids within a session are ordered by
    ascending tid.  ExecutionHistory synthesizes t0.
    """
    txns = {}
    sessions = {}
    for tid in sorted(spec):
        sid, raw = spec[tid]
        events = tuple(u.Event(*e) for e in raw)
        txns[tid] = u.Transaction(tid, sid, events)
        sessions.setdefault(sid, []).append(tid)
    return u.ExecutionHistory(txns, sessions)


def rank_trap_history():
    # Two independent writers of one key plus a reader of the second
    # writer; the minimal shape on which self-justifying ww/pco edges
    # would wrongly certify a cycle.
    return make_history({
        1: (1, [('w', 'k', 1, 1)]),
        2: (2, [('w', 'k', 1, 2)]),
        3: (3, [('r', 'k', 1, 2, 2)]),
    })


def random_history(seed):
    """A random well-formed history with at most 6 committed transactions.

    Reads may observe any writer of their key, including session-later
    ones, so the sample covers unserializable shapes as well.
    """
    rng = random.Random(seed)
    nsess = rng.randint(1, 3)
    keys = ['x', 'y'][:rng.randint(1, 2)]
    pending = []
    tid = 0
    for s in range(1, nsess + 1):
        pos = 0
        for _ in range(rng.randint(1, 2)):
            tid += 1
            events = []
            for _ in range(rng.randint(1, 3)):
                k = rng.choice(keys)
                pos += 1
                if rng.random() < 0.5:
                    events.append(('r', k, pos))
                else:
                    events.append(u.Event('w', k, pos, tid))
            pending.append((tid, s, events))
    writers = {k: [0] for k in keys}
    for (t, _s, events) in pending:
        for e in events:
            if not isinstance(e, tuple):
                writers[e.key].append(t)
    txns = {}
    sessions = {}
    for (t, s, events) in pending:
        out = []
        for e in events:
            if isinstance(e, tuple):
                _, k, pos = e
                w = rng.choice([w for w in writers[k] if w != t])
                out.append(u.Event('r', k, pos, 0, w))
            else:
                out.append(e)
        txns[t] = u.Transaction(t, s, normalize_events(t, out))
        sessions.setdefault(s, []).append(t)
    return u.ExecutionHistory(txns, sessions)


@pytest.fixture(scope='session')
def dd_observed():
    """Observed serializable deposit-deposit run (two sessions, one txn)."""
    trace, history = ss.run_workload(ss.WorkloadProgram('deposit-deposit'),
                                     2, 1, 0,
                                     ss.ReadPolicy(ss.LATEST_WRITER))
    return trace, history


@pytest.fixture(scope='session')
def dw_observed():
    """Observed deposit-withdraw run whose schedule interleaves the
    withdraw between the two deposits (seed 4)."""
    trace, history = ss.run_workload(ss.WorkloadProgram('deposit-withdraw'),
                                     2, 2, 4,
                                     ss.ReadPolicy(ss.LATEST_WRITER))
    return trace, history
