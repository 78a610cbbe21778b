"""In-memory transactional key-value store simulator.

Transactions execute serially (whole transactions, no intra-transaction
interleaving); scheduling nondeterminism comes only from the seeded
scheduler.  Reads are resolved by a pluggable policy: the latest committed
writer (observation), a random writer legal under a weak isolation level
(fuzzing), or directed replay of a predicted history (validation).
"""

import random
from dataclasses import dataclass, field

from .history import T0, Event, Transaction, ExecutionHistory, build_history
from . import checker, traceio
from .solver import SolverUnknown

LATEST_WRITER = 'latest-writer'
RANDOM_WEAK = 'random-weak'

class ReplayMismatch(Exception):
    pass


class _Abort(Exception):
    pass


@dataclass
class ReadPolicy:
    kind: str                  # LATEST_WRITER or RANDOM_WEAK
    level: str | None = None   # RANDOM_WEAK only
    rng_seed: int = 0

    def __post_init__(self):
        self._rng = random.Random(self.rng_seed)

    def choose(self, run, sid, tid, key, reads):
        """Writer for a read of key; reads are the txn's earlier reads."""
        if self.kind == LATEST_WRITER:
            return run.latest_writer(key)
        legal = sorted(legal_writers(run.partial_history(tid, reads), sid,
                                     key, self.level, tid=tid))
        return self._rng.choice(legal)


class KVStore:
    """Append-only committed versions per key."""

    def __init__(self):
        self.versions = {}   # key -> [(tid, value)], committed only

    def last_value_of(self, tid, key):
        for t, v in reversed(self.versions.get(key, [])):
            if t == tid:
                return v
        return 0 if tid == T0 else None

    def apply(self, tid, writes):
        for key, value in writes:
            self.versions.setdefault(key, []).append((tid, value))


class _Run:
    """State of one serial execution: store, trace and history so far."""

    def __init__(self, policy):
        self.store = KVStore()
        self.policy = policy
        self.txns = {}       # committed tid -> Transaction
        self.sessions = {}   # sid -> [committed tids]
        self.records = {}    # sid -> [TxnRecord], committed and aborted
        self.pos = {}        # sid -> last used position
        self.keys = set()
        self.next_tid = 1
        self.statuses = {}   # tid -> 'commit' | 'abort'
        self.order = {}      # tid -> (sid, txn index within session program)

    def latest_writer(self, key):
        vs = self.store.versions.get(key)
        return vs[-1][0] if vs else T0

    def partial_history(self, cur_tid, extra_reads=()):
        """Committed history so far plus the in-flight txn's reads."""
        txns = dict(self.txns)
        sessions = {s: list(ts) for s, ts in self.sessions.items()}
        keys = set(self.keys)
        for e in extra_reads:
            keys.add(e.key)
        if extra_reads:
            sid = self._cur_sid
            txns[cur_tid] = Transaction(cur_tid, sid, tuple(extra_reads))
            sessions.setdefault(sid, []).append(cur_tid)
        txns[T0] = Transaction(T0, 0, tuple(
            Event('w', k, 0, 0) for k in sorted(keys)))
        return ExecutionHistory(txns, sessions)

    def run_txn(self, sid, body, txn_index, read_hook=None):
        tid = self.next_tid
        self.next_tid += 1
        self._cur_sid = sid
        self.pos.setdefault(sid, 0)
        ctx = TxnCtx(self, sid, tid, read_hook)
        rec = traceio.TxnRecord(tid)
        try:
            body(ctx)
        except _Abort:
            rec.terminator = 'abort'
        rec.ops = ctx.ops
        self.records.setdefault(sid, []).append(rec)
        self.statuses[tid] = rec.terminator
        self.order[tid] = (sid, txn_index)
        self.keys |= {op[1] for op in ctx.ops}
        if rec.terminator == 'commit':
            self.store.apply(tid, ctx.writes)
            events = []
            for op in ctx.ops:
                if op[0] == 'r':
                    events.append(Event('r', op[1], op[2], op[4], op[3]))
                else:
                    events.append(Event('w', op[1], op[2], op[3]))
            last = {}
            for e in events:
                if e.kind == 'w':
                    last[e.key] = e.pos
            events = tuple(e for e in events
                           if e.kind == 'r' or last[e.key] == e.pos)
            self.txns[tid] = Transaction(tid, sid, events)
            self.sessions.setdefault(sid, []).append(tid)
        return tid

    def trace(self):
        t = traceio.Trace()
        for sid in sorted(self.records):
            t.sessions.append((sid, self.records[sid]))
        return t

    def final_state(self):
        return {k: vs[-1][1] for k, vs in sorted(self.store.versions.items())}


class TxnCtx:
    """Transaction context handed to workload bodies."""

    def __init__(self, run, sid, tid, read_hook=None):
        self.run = run
        self.sid = sid
        self.tid = tid
        self.pending = {}
        self.writes = []   # ordered (key, value)
        self.ops = []
        self.reads = []    # Events, for partial histories
        self.read_hook = read_hook

    def _next_pos(self):
        self.run.pos[self.sid] += 1
        return self.run.pos[self.sid]

    def get(self, key):
        if key in self.pending:
            return self.pending[key]
        if self.read_hook is not None:
            writer = self.read_hook(self, key)
        else:
            writer = self.run.policy.choose(self.run, self.sid, self.tid, key,
                                            self.reads)
        value = self.run.store.last_value_of(writer, key)
        pos = self._next_pos()
        self.ops.append(('r', key, pos, writer, value))
        self.reads.append(Event('r', key, pos, value, writer))
        return value

    def put(self, key, value):
        self.pending[key] = value
        self.writes.append((key, value))
        self.ops.append(('w', key, self._next_pos(), value))

    def abort(self):
        raise _Abort()


# workload programs

@dataclass
class WorkloadProgram:
    name: str
    scripts: list | None = None   # Scripted: [(sid, [txn bodies])]

    def session_bodies(self, sessions, txns_per_session):
        """Per-session lists of transaction bodies."""
        if self.scripts is not None:
            return [(sid, list(bodies)) for sid, bodies in self.scripts]
        builder = _BUILTINS[self.name]
        return builder(sessions, txns_per_session)


def _deposit(amount):
    def body(ctx):
        balance = ctx.get('acc')
        ctx.put('acc', balance + amount)
    return body


def _withdraw(amount):
    def body(ctx):
        balance = ctx.get('acc')
        if balance < amount:
            ctx.abort()
        ctx.put('acc', balance - amount)
    return body


def _vote(ctx):
    votes = ctx.get('votes')
    if votes < 1:
        ctx.put('votes', 1)


def _deposit_deposit(sessions, txns):
    out = []
    k = 0
    for s in range(1, sessions + 1):
        bodies = []
        for _ in range(txns):
            bodies.append(_deposit(50 + 10 * k))
            k += 1
        out.append((s, bodies))
    return out


def _deposit_withdraw(sessions, txns):
    if sessions < 2:
        raise ValueError('deposit-withdraw needs at least 2 sessions')
    out = _deposit_deposit(sessions - 1, txns)
    out.append((sessions, [_withdraw(40)]))
    return out


def _voter(sessions, txns):
    return [(s, [_vote] * txns) for s in range(1, sessions + 1)]


def _smallbank_txn(k):
    cust = k % 2
    kind = k % 3
    checking = 'checking%d' % cust
    savings = 'savings%d' % cust
    other = 'checking%d' % (1 - cust)
    if kind == 0:
        def body(ctx):
            ctx.put(checking, ctx.get(checking) + 30 + 10 * k)
    elif kind == 1:
        def body(ctx):
            ctx.put(savings, ctx.get(savings) + 20 + 10 * k)
    else:
        def body(ctx):
            total = ctx.get(savings) + ctx.get(checking)
            ctx.put(savings, 0)
            ctx.put(other, ctx.get(other) + total)
    return body


def _smallbank(sessions, txns):
    out = []
    k = 0
    for s in range(1, sessions + 1):
        bodies = []
        for _ in range(txns):
            bodies.append(_smallbank_txn(k))
            k += 1
        out.append((s, bodies))
    return out


_BUILTINS = {
    'deposit-deposit': _deposit_deposit,
    'deposit-withdraw': _deposit_withdraw,
    'voter': _voter,
    'smallbank-lite': _smallbank,
}
BUILTIN_WORKLOADS = tuple(sorted(_BUILTINS))


# scripted workloads

class ScriptError(Exception):
    pass


def _parse_expr(tokens, line_no):
    """var | int, combined with + and - left to right."""
    def term(tok):
        try:
            return ('const', int(tok))
        except ValueError:
            return ('var', tok)

    if not tokens or tokens[0] in '+-':
        raise ScriptError('line %d: bad expression' % line_no)
    expr = [('+', term(tokens[0]))]
    i = 1
    while i < len(tokens):
        if tokens[i] not in '+-' or i + 1 >= len(tokens):
            raise ScriptError('line %d: bad expression' % line_no)
        expr.append((tokens[i], term(tokens[i + 1])))
        i += 2
    return expr


def _eval_expr(expr, env, line_no):
    total = 0
    for sign, (kind, v) in expr:
        val = v if kind == 'const' else env.get(v)
        if val is None:
            raise ScriptError('line %d: unbound variable %r' % (line_no, v))
        total += val if sign == '+' else -val
    return total


def _scripted_body(ops):
    def body(ctx):
        env = {}
        for (line_no, op) in ops:
            if op[0] == 'get':
                env[op[2]] = ctx.get(op[1])
            elif op[0] == 'put':
                ctx.put(op[1], _eval_expr(op[2], env, line_no))
            elif op[0] == 'abort_if':
                lhs = env.get(op[1])
                if lhs is None:
                    raise ScriptError('line %d: unbound variable %r'
                                      % (line_no, op[1]))
                if lhs < op[2]:
                    ctx.abort()
    return body


def parse_script(text):
    """Scripted workload file: session / txn / get / put / abort_if / commit.

        session <sid>
        txn
        get <key> -> <var>
        put <key> <expr>           # expr: var|int (+|- var|int)*
        abort_if <var> < <int>
        commit
    """
    scripts = []
    cur_ops = None
    cur_bodies = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == 'session':
            if len(toks) != 2 or not toks[1].isdigit() or int(toks[1]) <= 0:
                raise ScriptError('line %d: session takes a positive id'
                                  % line_no)
            cur_bodies = []
            scripts.append((int(toks[1]), cur_bodies))
            cur_ops = None
        elif kw == 'txn':
            if cur_bodies is None:
                raise ScriptError('line %d: txn outside session' % line_no)
            cur_ops = []
            cur_bodies.append(_scripted_body(cur_ops))
        elif cur_ops is None:
            raise ScriptError('line %d: %s outside txn' % (line_no, kw))
        elif kw == 'get':
            if len(toks) != 4 or toks[2] != '->':
                raise ScriptError('line %d: get takes "key -> var"' % line_no)
            cur_ops.append((line_no, ('get', toks[1], toks[3])))
        elif kw == 'put':
            if len(toks) < 3:
                raise ScriptError('line %d: put takes key and expression'
                                  % line_no)
            cur_ops.append((line_no,
                            ('put', toks[1], _parse_expr(toks[2:], line_no))))
        elif kw == 'abort_if':
            if (len(toks) != 4 or toks[2] != '<'
                    or not toks[3].lstrip('-').isdigit()):
                raise ScriptError('line %d: abort_if takes "var < int"'
                                  % line_no)
            cur_ops.append((line_no, ('abort_if', toks[1], int(toks[3]))))
        elif kw == 'commit':
            cur_ops = None
        else:
            raise ScriptError('line %d: unknown directive %r' % (line_no, kw))
    if not scripts:
        raise ScriptError('script defines no sessions')
    return WorkloadProgram('scripted', scripts=scripts)


def run_workload(program, sessions, txns_per_session, seed, policy):
    """Seeded serial execution; returns (Trace, committed ExecutionHistory)."""
    if sessions < 1:
        raise ValueError('sessions must be at least 1')
    if txns_per_session < 1:
        raise ValueError('txns per session must be at least 1')
    bodies = program.session_bodies(sessions, txns_per_session)
    rng = random.Random(seed)
    run = _Run(policy)
    queues = {sid: list(bs) for sid, bs in bodies}
    done = {sid: 0 for sid in queues}
    while True:
        ready = sorted(s for s in queues if done[s] < len(queues[s]))
        if not ready:
            break
        sid = rng.choice(ready)
        run.run_txn(sid, queues[sid][done[sid]], done[sid])
        done[sid] += 1
    trace = run.trace()
    return trace, build_history(trace)


def legal_writers(partial_history, session, key, level, tid=None):
    """Committed writers of key whose choice keeps `level` conformance.

    The candidate read is tentatively appended to the in-flight transaction
    of `session` in partial_history (created there if absent) and the
    level checker is re-run.  t0 counts as a writer of every key.
    """
    h = partial_history
    check = checker.check_causal if level == 'causal' else checker.check_rc
    cur = tid
    if cur is None:
        cur = max(h.txns) + 1
    writers = set(h.writers_of(key)) | {T0}
    writers.discard(cur)
    legal = set()
    for w in sorted(writers):
        txns = dict(h.txns)
        sessions = {s: list(ts) for s, ts in h.sessions.items()}
        old = txns.get(cur)
        pos = (old.events[-1].pos + 1) if old is not None and old.events \
            else h.max_pos() + 1
        ev = Event('r', key, pos, 0, w)
        if old is not None:
            txns[cur] = Transaction(cur, session, old.events + (ev,))
        else:
            txns[cur] = Transaction(cur, session, (ev,))
            sessions.setdefault(session, []).append(cur)
        if key not in h.keys:
            t0 = txns[T0]
            txns[T0] = Transaction(T0, 0, t0.events + (Event('w', key, 0, 0),))
        if check(ExecutionHistory(txns, sessions)):
            legal.add(w)
    return legal


@dataclass
class ValidationReport:
    outcome: str               # ValidatedUnserializable | Serializable | Unknown
    diverged: bool
    sites: list                # (tid, key, reason)
    validating_history: ExecutionHistory
    validating_trace: traceio.Trace
    final_state: dict


def _boundary_txns(predicted):
    """Last included transaction of each session in the predicted prefix."""
    out = {}
    for sid, tids in predicted.history.sessions.items():
        if tids:
            out[sid] = tids[-1]
    return out


def validate(predicted, program, sessions, txns_per_session, seed, level):
    """Replay the predicted history against the program and judge it."""
    obs_trace, obs_history = run_workload(
        program, sessions, txns_per_session, seed,
        ReadPolicy(LATEST_WRITER))

    # map tids to (sid, txn index) via the observed skeleton
    obs_index = {}
    for sid, records in obs_trace.sessions:
        for i, rec in enumerate(records):
            obs_index[rec.tid] = (sid, i)
    for sid, tids in predicted.history.sessions.items():
        committed = obs_history.sessions.get(sid, [])
        if tids != committed[:len(tids)]:
            raise ReplayMismatch(
                'predicted session %d does not prefix the observed run' % sid)

    boundary = _boundary_txns(predicted)
    hb = predicted.history.hb()
    targets = set(boundary.values())
    for t in predicted.history.committed():
        if t != T0 and any((t, b) in hb for b in boundary.values()):
            targets.add(t)

    # run sessions up to their last needed program index, in an order
    # consistent with the predicted hb (smallest ready tid first)
    cutoff = {}
    for t in targets:
        sid, i = obs_index[t]
        cutoff[sid] = max(cutoff.get(sid, -1), i)
    bodies = dict(program.session_bodies(sessions, txns_per_session))
    plan = {sid: [(rec.tid, bodies[sid][i])
                  for i, rec in enumerate(records) if i <= cutoff.get(sid, -1)]
            for sid, records in obs_trace.sessions}

    run = _Run(ReadPolicy(LATEST_WRITER))
    run.next_tid = 0  # tids are forced below
    sites = []
    pred_txns = predicted.history.txns

    def ready_order():
        heads = {s: q[0][0] for s, q in plan.items() if q}
        out = []
        for s, t in heads.items():
            if all((u, t) not in hb for u in heads.values() if u != t):
                out.append((t, s))
        return sorted(out)

    while any(plan.values()):
        order = ready_order()
        if not order:  # hb among heads is acyclic, but be safe
            order = sorted((q[0][0], s) for s, q in plan.items() if q)
        tid, sid = order[0]
        _, body = plan[sid].pop(0)
        pred = pred_txns.get(tid)
        cursor = list(pred.reads()) if pred is not None else []

        def read_hook(ctx, key, _tid=tid, _cursor=cursor):
            want = _cursor.pop(0) if _cursor else None
            reason = None
            if want is None:
                writer = None
            elif want.key != key:
                reason = 'key-mismatch'
                writer = None
            else:
                writer = want.writer
                wrote = (writer == T0 and key in ctx.run.keys | {key}) or \
                    ctx.run.store.last_value_of(writer, key) is not None
                if writer != T0 and not wrote:
                    reason, writer = 'writer-missing', None
            legal = legal_writers(
                ctx.run.partial_history(ctx.tid, ctx.reads), ctx.sid,
                key, level, tid=ctx.tid)
            if writer is not None and writer not in legal:
                reason, writer = 'isolation-illegal', None
            if reason is not None:
                sites.append((ctx.tid, key, reason))
            if writer is None:
                writer = min(legal)
            return writer

        run.next_tid = tid
        run.run_txn(sid, body, obs_index[tid][1], read_hook=read_hook)
        obs_status = 'commit' if tid in obs_history.txns else 'abort'
        val_status = run.statuses[tid]
        if val_status != obs_status or (pred is not None
                                        and val_status == 'abort'):
            sites.append((tid, None,
                          'abort-rewind' if val_status == 'abort'
                          else 'commit-flip'))

    val_trace = run.trace()
    val_history = build_history(val_trace)
    try:
        verdict = checker.check_serializable(val_history)
        outcome = ('Serializable' if verdict
                   else 'ValidatedUnserializable')
    except SolverUnknown:
        outcome = 'Unknown'
    return ValidationReport(outcome, bool(sites), sites, val_history,
                            val_trace, run.final_state())
