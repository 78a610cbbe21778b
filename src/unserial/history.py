"""Execution histories: committed transactions, session order, write-read.

A history is the triple (T, so, wr): the committed transactions including
the initial-state transaction t0, the per-session order, and the per-key
write-read relation recorded at each read site.  Everything downstream
(checker, predictor, store simulator) consumes the derived relations and
position indexes computed here.
"""

from dataclasses import dataclass, field

T0 = 0  # reserved TxnId of the initial-state transaction


class MalformedTrace(Exception):
    pass


@dataclass(frozen=True)
class Event:
    kind: str  # 'r' or 'w'
    key: str
    pos: int
    value: int
    writer: int | None = None  # reads only

    def __post_init__(self):
        if self.kind not in ('r', 'w'):
            raise ValueError('event kind must be r or w')
        if self.kind == 'r' and self.writer is None:
            raise ValueError('read events carry a writer')


@dataclass(frozen=True)
class Transaction:
    tid: int
    sid: int
    events: tuple
    status: str = 'committed'  # or 'aborted'

    def reads(self):
        return [e for e in self.events if e.kind == 'r']

    def writes(self):
        return [e for e in self.events if e.kind == 'w']

    def last_pos(self):
        return self.events[-1].pos if self.events else 0


class ExecutionHistory:
    """Immutable committed history including the synthesized t0."""

    def __init__(self, txns, sessions):
        # txns: dict tid -> Transaction (committed, normalized, incl t0)
        # sessions: dict sid -> ordered list of tids (so order), no t0
        self.txns = dict(txns)
        self.sessions = {s: list(ts) for s, ts in sessions.items()}
        self.session_of = {t: s for s, ts in self.sessions.items() for t in ts}
        self.session_of[T0] = 0
        self.keys = sorted({e.key for t in self.txns.values() for e in t.events})
        self._index()
        self._hb = None

    def _index(self):
        self.wr = {}            # key -> set of (writer, reader)
        self._writers = {}      # key -> sorted list of writer tids
        for t in self.committed():
            txn = self.txns[t]
            for e in txn.events:
                if e.kind == 'w':
                    self._writers.setdefault(e.key, []).append(t)
                else:
                    self.wr.setdefault(e.key, set()).add((e.writer, t))
        for k in self._writers:
            self._writers[k] = sorted(set(self._writers[k]))

    def committed(self):
        return sorted(self.txns)

    def writers_of(self, key):
        return list(self._writers.get(key, []))

    def so(self, t1, t2):
        if t1 == t2:
            return False
        if t1 == T0:
            return True
        if t2 == T0:
            return False
        s1, s2 = self.session_of[t1], self.session_of[t2]
        if s1 != s2:
            return False
        order = self.sessions[s1]
        return order.index(t1) < order.index(t2)

    def so_pairs(self):
        pairs = set()
        for t in self.committed():
            if t != T0:
                pairs.add((T0, t))
        for ts in self.sessions.values():
            for i, a in enumerate(ts):
                for b in ts[i + 1:]:
                    pairs.add((a, b))
        return pairs

    def wr_pairs(self):
        pairs = set()
        for edges in self.wr.values():
            pairs |= edges
        return pairs

    def hb(self):
        """(so ∪ wr)+, reflexive pairs excluded."""
        if self._hb is None:
            succ = {t: set() for t in self.committed()}
            for a, b in self.so_pairs() | self.wr_pairs():
                succ[a].add(b)
            closed = {}
            for t in self.committed():
                seen = set()
                stack = list(succ[t])
                while stack:
                    x = stack.pop()
                    if x in seen:
                        continue
                    seen.add(x)
                    stack.extend(succ[x])
                closed[t] = seen
            self._hb = frozenset(
                (a, b) for a, bs in closed.items() for b in bs if a != b)
        return self._hb

    # per-transaction position indexes
    def wrpos_k(self, tid, key):
        pos = None
        for e in self.txns[tid].events:
            if e.kind == 'w' and e.key == key:
                pos = e.pos
        return pos

    def last_pos(self, tid):
        return self.txns[tid].last_pos()

    def max_pos(self):
        return max((t.last_pos() for t in self.txns.values()), default=0)

    def read_sites(self):
        """All read sites of committed non-t0 txns: (sid, pos, tid, key, writer)."""
        sites = []
        for sid in sorted(self.sessions):
            for tid in self.sessions[sid]:
                for e in self.txns[tid].events:
                    if e.kind == 'r':
                        sites.append((sid, e.pos, tid, e.key, e.writer))
        return sites


def normalize_events(tid, events):
    """Drop self-satisfied reads; keep only the last write per key."""
    last_write = {}
    for e in events:
        if e.kind == 'w':
            last_write[e.key] = e.pos
    out = []
    for e in events:
        if e.kind == 'r':
            if e.writer == tid:
                continue
            out.append(e)
        else:
            if last_write[e.key] == e.pos:
                out.append(e)
    return tuple(out)


def build_history(trace):
    """Build the committed, normalized ExecutionHistory from a Trace.

    Aborted transactions are dropped; t0 is synthesized with a write of
    value 0 to every key appearing anywhere in the trace.
    """
    committed = {}
    sessions = {}
    status = {}
    wrote = {}  # tid -> set of keys written (pre-normalization)
    all_keys = set()
    for sid, records in trace.sessions:
        last = 0
        for rec in records:
            if rec.tid in status:
                raise MalformedTrace('duplicate tid %d' % rec.tid)
            status[rec.tid] = rec.terminator
            events = []
            keys_written = set()
            for op in rec.ops:
                if op[0] == 'r':
                    _, key, pos, writer, value = op
                    ev = Event('r', key, pos, value, writer)
                else:
                    _, key, pos, value = op
                    ev = Event('w', key, pos, value)
                    keys_written.add(key)
                if ev.pos <= last:
                    raise MalformedTrace(
                        'position regression at %d in session %d' % (ev.pos, sid))
                last = ev.pos
                all_keys.add(ev.key)
                events.append(ev)
            wrote[rec.tid] = keys_written
            if rec.terminator == 'commit':
                committed[rec.tid] = (sid, events)
                sessions.setdefault(sid, []).append(rec.tid)

    # validate read references against committed writers
    for tid, (sid, events) in committed.items():
        for e in events:
            if e.kind != 'r' or e.writer == tid:
                continue
            if e.writer == T0:
                continue
            if e.writer not in committed:
                raise MalformedTrace(
                    'read in txn %d names missing/aborted writer %d' % (tid, e.writer))
            if e.key not in wrote.get(e.writer, ()):
                raise MalformedTrace(
                    'txn %d reads %s from %d which never wrote it' % (tid, e.key, e.writer))

    txns = {}
    for tid, (sid, events) in committed.items():
        txns[tid] = Transaction(tid, sid, normalize_events(tid, events))
    t0_events = tuple(Event('w', k, 0, 0) for k in sorted(all_keys))
    txns[T0] = Transaction(T0, 0, t0_events)
    return ExecutionHistory(txns, sessions)
