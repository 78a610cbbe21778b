"""In-memory transactional key-value store simulator.

Transactions execute serially (whole transactions, no intra-transaction
interleaving); scheduling nondeterminism comes only from the seeded
scheduler.  Reads are resolved by a pluggable policy: the latest committed
writer (observation), a random writer legal under a weak isolation level
(fuzzing), or directed replay of a predicted history (validation).  A run
keeps its committed transactions once and reads each value from its
writer's write events there; `ExecutionHistory` adds t0 when a read asks
for its legal writers.
"""

import random
from dataclasses import dataclass

from .history import (T0, Event, Transaction, ExecutionHistory,
                      build_history, normalize_events)
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
        if self.kind not in (LATEST_WRITER, RANDOM_WEAK):
            raise ValueError('unknown read policy %r' % (self.kind,))
        if self.kind == RANDOM_WEAK and self.level not in ('causal', 'rc'):
            raise ValueError('unknown isolation level %r' % (self.level,))
        self._rng = random.Random(self.rng_seed)

    def choose(self, ctx, key):
        """Writer for the read of key by the transaction of ctx."""
        if self.kind == LATEST_WRITER:
            return ctx.run.latest.get(key, T0)
        return self._rng.choice(sorted(ctx.legal_writers(key, self.level)))


class _Run:
    """State of one serial execution: its trace and committed history."""

    def __init__(self, policy):
        self.policy = policy
        self.txns = {}       # committed tid -> Transaction
        self.sessions = {}   # sid -> [committed tids]
        self.latest = {}     # key -> last committed writer
        self.records = {}    # sid -> [TxnRecord], committed and aborted
        self.pos = {}        # sid -> last used position
        self.next_tid = 1

    def value_of(self, writer, key):
        """The value writer committed to key: 0 for t0, None if none."""
        if writer == T0:
            return 0
        txn = self.txns.get(writer)
        e = None if txn is None else txn.write(key)
        return None if e is None else e.value

    def run_txn(self, sid, body, read_hook=None):
        """Run body as the next transaction of sid; returns its terminator."""
        tid = self.next_tid
        self.next_tid += 1
        self.pos.setdefault(sid, 0)
        ctx = TxnCtx(self, sid, tid, read_hook)
        rec = traceio.TxnRecord(tid, ctx.ops)
        try:
            body(ctx)
        except _Abort:
            rec.terminator = 'abort'
        self.records.setdefault(sid, []).append(rec)
        if rec.terminator == 'commit':
            self.txns[tid] = Transaction(tid, sid,
                                         normalize_events(tid, ctx.ops))
            self.sessions.setdefault(sid, []).append(tid)
            self.latest.update((e.key, tid) for e in ctx.ops
                               if e.kind == 'w')
        return rec.terminator

    def trace(self):
        t = traceio.Trace()
        for sid in sorted(self.records):
            t.sessions.append((sid, self.records[sid]))
        return t

    def final_state(self):
        return {k: self.value_of(w, k) for k, w in sorted(self.latest.items())}


class TxnCtx:
    """Transaction context handed to workload bodies."""

    def __init__(self, run, sid, tid, read_hook=None):
        self.run = run
        self.sid = sid
        self.tid = tid
        self.pending = {}
        self.ops = []      # Events, reads and writes
        self.read_hook = read_hook

    def _next_pos(self):
        self.run.pos[self.sid] += 1
        return self.run.pos[self.sid]

    def get(self, key):
        if key in self.pending:
            return self.pending[key]
        writer = (self.read_hook or self.run.policy.choose)(self, key)
        value = self.run.value_of(writer, key)
        self.ops.append(Event('r', key, self._next_pos(), value, writer))
        return value

    def legal_writers(self, key, level):
        """Writers of key that this transaction may read at level."""
        h = ExecutionHistory(self.run.txns, self.run.sessions)
        reads = [e for e in self.ops if e.kind == 'r']
        if reads:   # else legal_writers adds the transaction itself
            h = h.extended(self.tid, self.sid, reads)
        return legal_writers(h, self.sid, key, level, tid=self.tid)

    def put(self, key, value):
        self.pending[key] = value
        self.ops.append(Event('w', key, self._next_pos(), value))

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


def _bound_var(name, bound, line_no):
    if name not in bound:
        raise ScriptError('line %d: unbound variable %r' % (line_no, name))
    return name


def _parse_expr(tokens, line_no, bound):
    """var | int, combined with + and - left to right."""
    def term(tok):
        try:
            return ('const', int(tok))
        except ValueError:
            return ('var', _bound_var(tok, bound, line_no))

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


def _eval_expr(expr, env):
    total = 0
    for sign, (kind, v) in expr:
        val = v if kind == 'const' else env[v]
        total += val if sign == '+' else -val
    return total


def _scripted_body(ops):
    def body(ctx):
        env = {}
        for op in ops:
            if op[0] == 'get':
                env[op[2]] = ctx.get(op[1])
            elif op[0] == 'put':
                ctx.put(op[1], _eval_expr(op[2], env))
            elif env[op[1]] < op[2]:    # abort_if
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
            bound = set()   # a txn is straight-line: get binds, abort_if ends
            cur_bodies.append(_scripted_body(cur_ops))
        elif cur_ops is None:
            raise ScriptError('line %d: %s outside txn' % (line_no, kw))
        elif kw == 'get':
            if len(toks) != 4 or toks[2] != '->':
                raise ScriptError('line %d: get takes "key -> var"' % line_no)
            cur_ops.append(('get', toks[1], toks[3]))
            bound.add(toks[3])
        elif kw == 'put':
            if len(toks) < 3:
                raise ScriptError('line %d: put takes key and expression'
                                  % line_no)
            cur_ops.append(('put', toks[1],
                            _parse_expr(toks[2:], line_no, bound)))
        elif kw == 'abort_if':
            if (len(toks) != 4 or toks[2] != '<'
                    or not toks[3].lstrip('-').isdigit()):
                raise ScriptError('line %d: abort_if takes "var < int"'
                                  % line_no)
            cur_ops.append(('abort_if', _bound_var(toks[1], bound, line_no),
                            int(toks[3])))
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
        run.run_txn(sid, queues[sid][done[sid]])
        done[sid] += 1
    trace = run.trace()
    return trace, build_history(trace)


def legal_writers(partial_history, session, key, level, tid=None):
    """Committed writers of key whose choice keeps `level` conformance.

    The candidate read is tentatively appended to the in-flight transaction
    `tid` of `session` in partial_history (created there if absent) and
    the level checker is re-run.  t0 counts as a writer of every key.
    """
    h = partial_history
    cur = max(h.txns) + 1 if tid is None else tid
    pos = h.max_pos() + 1   # last in its txn; conformance ignores positions
    return {w for w in sorted((set(h.writers_of(key)) | {T0}) - {cur})
            if checker.conforms(
                h.extended(cur, session, (Event('r', key, pos, 0, w),)),
                level)}


@dataclass
class ValidationReport:
    outcome: str               # ValidatedUnserializable | Serializable | Unknown
    diverged: bool
    sites: list                # (tid, key, reason)
    validating_history: ExecutionHistory
    validating_trace: traceio.Trace
    final_state: dict


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

    # run each session up to its last predicted transaction, in an order
    # consistent with the predicted hb (smallest ready tid first); an
    # hb-predecessor of a predicted transaction is itself predicted
    cutoff = {sid: obs_index[tids[-1]][1]
              for sid, tids in predicted.history.sessions.items() if tids}
    hb = predicted.history.hb()
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
                if ctx.run.value_of(writer, key) is None:
                    reason, writer = 'writer-missing', None
            legal = ctx.legal_writers(key, level)
            if writer is not None and writer not in legal:
                reason, writer = 'isolation-illegal', None
            if reason is not None:
                sites.append((ctx.tid, key, reason))
            if writer is None:
                writer = min(legal)
            return writer

        run.next_tid = tid
        val_status = run.run_txn(sid, body, read_hook=read_hook)
        obs_status = 'commit' if tid in obs_history.txns else 'abort'
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
