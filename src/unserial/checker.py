"""Isolation checks for a fixed history.

Serializability is decided by a search over session frontiers (Biswas &
Enea, "On the Complexity of Checking Transactional Consistency", OOPSLA
2019).  A state is the tuple of per-session prefix lengths already placed
in the serial order; a transaction may be placed next when its session
predecessor and every writer it reads from are placed, and, for each key
it writes, every reader of an already-placed writer of that key is placed.
Whether the rest can be placed depends only on the placed set, so dead
states are memoised and the search is polynomial for a bounded number of
sessions.  Past STATE_CAP states it raises SolverUnknown instead of
running on.  Causal and read-committed conformance collapse to cycle
detection because the arbitration relations ww_causal and ww_rc are fully
determined once the history is fixed.
"""

import time
from dataclasses import dataclass

from .history import T0
from .solver import SolverUnknown

# frontier states the serializability search may visit before it gives up
STATE_CAP = 1 << 18


class TooLarge(Exception):
    pass


@dataclass
class Verdict:
    kind: str  # 'serializable' | 'unserializable' | 'conforms' | 'violates'
    order: list | None = None   # CommitOrder for 'serializable'
    cycle: list | None = None   # edge list for 'violates'

    def __bool__(self):
        return self.kind in ('serializable', 'conforms')


def check_serializable(history, timeout=None):
    """Serial order explaining every read, or 'unserializable'.

    Raises SolverUnknown('state-cap') past STATE_CAP frontier states and
    SolverUnknown('timeout') once `timeout` seconds have passed.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    sessions = [history.sessions[s] for s in sorted(history.sessions)]
    where = {}      # tid -> (session index, index in session)
    for i, ts in enumerate(sessions):
        for j, t in enumerate(ts):
            where[t] = (i, j)
    # per transaction: (session index, index) of each writer it reads from
    # other than t0, and (key, own wr pairs on key) for each key it writes
    sources = {t: set() for t in where}
    own = {t: {} for t in where}
    readers = {}    # (writer, key) -> number of readers
    for key, pairs in history.wr.items():
        for (w, r) in pairs:
            if w != T0:
                sources[r].add(where[w])
            own[r][key] = own[r].get(key, 0) + 1
            readers[(w, key)] = readers.get((w, key), 0) + 1
    writes = {t: [(k, own[t].get(k, 0)) for k in sorted(
        {e.key for e in history.txns[t].events if e.kind == 'w'})]
        for t in where}
    # blocked[k]: wr pairs on k whose writer is placed and reader is not
    blocked = {k: readers.get((T0, k), 0) for k in history.keys}
    frontier = [0] * len(sessions)
    # a state is the frontier in mixed radix, session i having weight
    # stride[i]
    stride = [1] * len(sessions)
    for i in range(1, len(sessions)):
        stride[i] = stride[i - 1] * (len(sessions[i - 1]) + 1)

    def ready(t):
        return (all(frontier[i] > j for (i, j) in sources[t])
                and all(blocked[k] == n for (k, n) in writes[t]))

    def place(t, sign):
        for k, n in own[t].items():
            blocked[k] -= sign * n
        for k, _ in writes[t]:
            blocked[k] += sign * readers.get((t, k), 0)
        frontier[where[t][0]] += sign

    order = []
    state = 0
    seen = {state}
    next_session = [0]      # per depth: next session index to try
    while len(order) < len(where):
        i = next_session[-1]
        while i < len(sessions):
            j = frontier[i]
            if (j < len(sessions[i]) and state + stride[i] not in seen
                    and ready(sessions[i][j])):
                break
            i += 1
        if i < len(sessions):
            state += stride[i]
            seen.add(state)
            if len(seen) > STATE_CAP:
                raise SolverUnknown('state-cap')
            if (deadline is not None and len(seen) % 1024 == 0
                    and time.monotonic() > deadline):
                raise SolverUnknown('timeout')
            t = sessions[i][frontier[i]]
            next_session[-1] = i + 1
            next_session.append(0)
            place(t, 1)
            order.append(t)
        else:
            next_session.pop()
            if not order:
                return Verdict('unserializable')
            t = order.pop()
            place(t, -1)
            state -= stride[where[t][0]]
    return Verdict('serializable', order=[T0] + order)


def oracle_serializable(history):
    """Brute-force serial-execution search, independent of the frontier
    search of `check_serializable`."""
    txns = [t for t in history.committed() if t != T0]
    if len(txns) > 9:
        raise TooLarge('%d committed transactions exceed the oracle guard'
                       % len(txns))

    sess_pred = {}
    for ts in history.sessions.values():
        for a, b in zip(ts, ts[1:]):
            sess_pred[b] = a

    last_writer = {k: T0 for k in history.keys}

    def place(remaining, placed, last_writer, order):
        if not remaining:
            return list(order)
        for t in sorted(remaining):
            pred = sess_pred.get(t)
            if pred is not None and pred not in placed:
                continue
            txn = history.txns[t]
            ok = True
            for e in txn.events:
                if e.kind == 'r' and last_writer[e.key] != e.writer:
                    ok = False
                    break
            if not ok:
                continue
            undo = {}
            for e in txn.events:
                if e.kind == 'w':
                    undo.setdefault(e.key, last_writer[e.key])
                    last_writer[e.key] = t
            placed.add(t)
            order.append(t)
            found = place(remaining - {t}, placed, last_writer, order)
            order.pop()
            placed.remove(t)
            for k, w in undo.items():
                last_writer[k] = w
            if found is not None:
                return found
        return None

    found = place(set(txns), set(), last_writer, [])
    if found is None:
        return Verdict('unserializable')
    return Verdict('serializable', order=[T0] + found)


def _shortest_cycle(edges):
    """Shortest cycle by edge count, ties by smallest lexicographic edge.

    edges: dict (a, b) -> label.  Returns a list of (a, b, label) or None.
    """
    succ = {}
    for (a, b) in edges:
        succ.setdefault(a, []).append(b)
    for s in succ.values():
        s.sort()
    best = None
    for start in sorted(succ):
        # BFS back to start
        parents = {start: None}
        queue = [start]
        qi = 0
        found = None
        while qi < len(queue):
            n = queue[qi]
            qi += 1
            for m in succ.get(n, ()):
                if m == start:
                    found = n
                    qi = len(queue)
                    break
                if m not in parents:
                    parents[m] = n
                    queue.append(m)
        if found is None:
            continue
        path = [start]
        n = found
        rev = []
        while n != start:
            rev.append(n)
            n = parents[n]
        path.extend(reversed(rev))
        cyc = [(path[i], path[(i + 1) % len(path)]) for i in range(len(path))]
        key = (len(cyc), sorted(cyc))
        if best is None or key < best[0]:
            best = (key, cyc)
    if best is None:
        return None
    return [(a, b, edges[(a, b)]) for (a, b) in best[1]]


def _conformance(history, ww_edges):
    edges = {}
    for (a, b) in history.so_pairs():
        edges[(a, b)] = 'so'
    for key in history.keys:
        for (a, b) in history.wr.get(key, ()):
            edges[(a, b)] = 'wr_%s' % key
    for (a, b), label in ww_edges.items():
        edges.setdefault((a, b), label)
    cycle = _shortest_cycle(edges)
    if cycle is None:
        return Verdict('conforms')
    return Verdict('violates', cycle=cycle)


def ww_causal_edges(history):
    hb = history.hb()
    edges = {}
    for key in history.keys:
        writers = history.writers_of(key)
        readers = sorted(history.wr.get(key, ()))
        for (t2, t3) in readers:
            for t1 in writers:
                if t1 in (t2, t3):
                    continue
                if (t1, t3) in hb:
                    edges[(t1, t2)] = 'ww'
    return edges


def ww_rc_edges(history):
    edges = {}
    for t3 in history.committed():
        txn = history.txns[t3]
        reads = txn.reads()
        for i, beta in enumerate(reads):
            for alpha in reads[i + 1:]:
                t1, t2 = beta.writer, alpha.writer
                if t1 == t2:
                    continue
                k = alpha.key
                if history.wrpos_k(t1, k) is None:
                    continue
                edges[(t1, t2)] = 'ww'
    return edges


def check_causal(history):
    return _conformance(history, ww_causal_edges(history))


def check_rc(history):
    return _conformance(history, ww_rc_edges(history))


def conforms(history, level):
    """The conformance Verdict of history at level 'causal' or 'rc'."""
    if level == 'causal':
        return check_causal(history)
    if level == 'rc':
        return check_rc(history)
    raise ValueError('unknown isolation level %r' % (level,))
