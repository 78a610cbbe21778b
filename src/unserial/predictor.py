"""Candidate enumeration and prediction of unserializable executions.

From an observed (serializable) history we search for an alternative
write-read assignment, cut off at per-session boundaries, that is valid
under the requested weak isolation level yet unserializable.

One engine serves every strategy.  A candidate is a boundary per session
and a writer per read.  Canonical pinning leaves free only the reads at
their session's boundary; every other read keeps its observed writer, and
an in-boundary read may only see a write inside its writer's boundary.
`gen_feasibility` lists these candidates directly.  Each candidate's
in-boundary prefix must conform to the level (`checker.check_causal` or
`checker.check_rc`, cycle checks once the history is fixed: Biswas &
Enea, OOPSLA 2019) and is then decided by the strategy's oracle:

  - approx-strict:  strict read-event boundaries + the approximate
    unserializability condition, a provable partial-commit-order cycle,
    decided by the least fixpoint of the so/wr/ww/rw/transitivity rules
    over the prefix (`_pco_cycle`);
  - approx-relaxed: the same condition with transaction-final boundaries;
  - exact-strict:   strict boundaries with the exact serializability check
    (`checker.check_serializable`) of the candidate prefix.

Candidates come out in lexicographic order: boundaries ascending in
session order, then each free read in order keeping its observed writer
if it can, else taking the lowest writer tid.  So the first hit is the
canonical prediction: the earliest cuts, then the fewest and lowest
rewirings.
"""

import itertools
import logging
import time
from dataclasses import dataclass

from .history import T0, Event, Transaction, ExecutionHistory, build_history
from . import checker, traceio
from .solver import SolverUnknown

log = logging.getLogger(__name__)

CAUSAL = 'causal'
READ_COMMITTED = 'rc'

EXACT_STRICT = 'exact-strict'
APPROX_STRICT = 'approx-strict'
APPROX_RELAXED = 'approx-relaxed'
STRATEGIES = (EXACT_STRICT, APPROX_STRICT, APPROX_RELAXED)


class Unknown:
    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return 'Unknown(%r)' % self.reason


@dataclass
class PredictedHistory:
    history: ExecutionHistory          # in-boundary prefix, wr rewired
    boundaries: dict                   # sid -> position, None means infinity
    changed_reads: list                # (tid, pos, key, obs_writer, new_writer)
    witness_cycle: list | None         # mutual pco pair, Approx only
    level: str
    strategy: str

    def to_trace(self):
        bs = {s: (traceio.INF if b is None else b)
              for s, b in self.boundaries.items()}
        return traceio.history_to_trace(self.history, bs)


def predicted_from_trace(trace, level, strategy=None):
    """Rebuild a PredictedHistory from a predicted-history file."""
    if trace.boundaries is None:
        raise ValueError('predicted-history file lacks boundary lines')
    hist = build_history(trace)
    bs = {s: (None if b == traceio.INF else b)
          for s, b in trace.boundaries.items()}
    for sid in hist.sessions:
        bs.setdefault(sid, None)
    return PredictedHistory(hist, bs, [], None, level, strategy)


class PredictionVars:
    """The candidate space over an observed history.

    One read site per read and one list of boundary options per session,
    ascending with no cut (`inf`) last.  Each site's domain lists the
    observed writer first, then the other writers by ascending tid, so an
    observed read is kept before it is rewired.
    """

    def __init__(self, history, boundary_mode):
        if boundary_mode not in ('strict', 'relaxed'):
            raise ValueError(boundary_mode)
        self.history = history
        self.mode = boundary_mode
        self.inf = history.max_pos() + 1
        self.sites = []       # (sid, pos, tid, key, obs_writer, domain)
        for (sid, pos, tid, key, obs) in history.read_sites():
            domain = [obs] + [w for w in history.writers_of(key)
                              if w not in (tid, obs)]
            self.sites.append((sid, pos, tid, key, obs, domain))
        self.options = {sid: self._boundary_options(sid)
                        for sid in sorted(history.sessions)}

    def _boundary_options(self, sid):
        h = self.history
        if self.mode == 'strict':
            opts = {e.pos for t in h.sessions[sid]
                    for e in h.txns[t].events if e.kind == 'r'}
        else:
            opts = {h.last_pos(t) for t in h.sessions[sid] if h.txns[t].events}
        return sorted(opts) + [self.inf]

    def pin_pos(self, site):
        (sid, pos, tid, key, obs, domain) = site
        if self.mode == 'strict':
            return pos
        return self.history.last_pos(tid)

    def visible(self, t1, key, bound):
        """Writer inclusion: t1's last write of key is within t1's boundary.

        Strict boundaries sit on read events, so the write must precede the
        boundary strictly; relaxed boundaries sit on transaction-final
        events and include the boundary transaction's own writes.
        """
        if t1 == T0:
            return True
        wp = self.history.wrpos_k(t1, key)
        b = bound[self.history.session_of[t1]]
        return wp < b if self.mode == 'strict' else wp <= b


def gen_feasibility(obs_history, vars):
    """Yield every feasible candidate (bound, writer) in lexicographic order.

    bound maps each session to a boundary position (`vars.inf` for no
    cut), and writer maps each read site (sid, pos) to a writer tid.  A
    read whose pin position is its session's boundary is free: it takes,
    in domain order, each writer visible under bound.  Every other read
    keeps its observed writer, which must be visible when the read is
    inside its boundary.
    """
    sids = list(vars.options)
    for bvec in itertools.product(*vars.options.values()):
        bound = dict(zip(sids, bvec))
        pinned = {}
        free = []       # ((sid, pos), visible writers) per free read
        for site in vars.sites:
            (sid, pos, tid, key, obs, domain) = site
            if vars.pin_pos(site) == bound[sid]:
                ws = [w for w in domain if vars.visible(w, key, bound)]
                if not ws:
                    break
                free.append(((sid, pos), ws))
            else:
                if pos <= bound[sid] and not vars.visible(obs, key, bound):
                    break
                pinned[(sid, pos)] = obs
        else:
            at = [s for s, _ in free]
            for choice in itertools.product(*(ws for _, ws in free)):
                writer = dict(pinned)
                writer.update(zip(at, choice))
                yield bound, writer


def gen_isolation(obs_history, vars, level):
    """Retired: isolation is no longer encoded.

    `predict` checks each candidate prefix with `checker.check_causal` or
    `checker.check_rc`.  The name stays only because perfbench/tracing.py
    wraps it by name; remove it together with `gen_unser_approx`.
    """
    raise NotImplementedError('isolation is checked on each candidate '
                              'prefix; call predict()')


def gen_unser_approx(obs_history, vars):
    """Retired: the approximate condition is no longer encoded.

    `_pco_cycle` decides it per candidate.  The name stays only because
    perfbench/tracing.py wraps it by name; remove the two together.
    """
    raise NotImplementedError('the approximate condition is decided by '
                              '_pco_cycle; call predict()')


def extract_predicted_history(candidate, obs_history, vars, level=None,
                              strategy=None):
    """The in-boundary prefix of a (bound, writer) candidate, rewired."""
    bound, writer = candidate
    h = obs_history
    boundaries = {sid: None if b == vars.inf else b
                  for sid, b in bound.items()}

    changed = []
    txns = {}
    sessions = {}
    for sid in sorted(h.sessions):
        b = bound[sid]
        for tid in h.sessions[sid]:
            evs = []
            for e in h.txns[tid].events:
                if e.pos > b:
                    continue
                if e.kind == 'r':
                    w = writer[(sid, e.pos)]
                    if w != e.writer:
                        changed.append((tid, e.pos, e.key, e.writer, w))
                    evs.append(Event('r', e.key, e.pos,
                                     h.txns[w].write(e.key).value, w))
                else:
                    evs.append(e)
            if evs:
                txns[tid] = Transaction(tid, sid, tuple(evs))
                sessions.setdefault(sid, []).append(tid)
    prefix = ExecutionHistory(txns, sessions)
    return PredictedHistory(prefix, boundaries, changed, None,
                            level, strategy)


def _pco_cycle(history):
    """Mutual pco pair of a candidate prefix, if any.

    The approximate oracle.  pco is the least fixpoint of so and wr, closed
    under the ww and rw rules and transitivity; a least fixpoint admits no
    self-justifying edge, since each derived edge rests on edges of earlier
    rounds.  The prefix holds exactly the in-boundary events, so every
    writer it lists is visible.  A mutual pair is a pco cycle, which proves
    the prefix unserializable.
    """
    h = history
    txns = h.committed()
    pco = h.so_pairs() | h.wr_pairs()
    while True:
        new = set()
        for key, pairs in h.wr.items():
            writers = h.writers_of(key)
            for (w, r) in pairs:
                for t in writers:
                    if t in (w, r):
                        continue
                    # ww: t also wrote key and provably precedes the reader
                    if (t, w) not in pco and (t, r) in pco:
                        new.add((t, w))
                    # rw: a writer after r's writer comes after r
                    if (r, t) not in pco and (w, t) in pco:
                        new.add((r, t))
        for (t1, t3) in list(pco):
            for t2 in txns:
                if t2 not in (t1, t3) and (t3, t2) in pco \
                        and (t1, t2) not in pco:
                    new.add((t1, t2))
        if not new:
            break
        pco |= new

    for (t1, t2) in sorted(pco):
        if t1 < t2 and (t2, t1) in pco:
            return (t1, t2)
    return None


def _approx_oracle(cand, deadline):
    pair = _pco_cycle(cand.history)
    if pair is None:
        return False
    cand.witness_cycle = [(pair[0], pair[1], 'pco'),
                          (pair[1], pair[0], 'pco')]
    return True


def _exact_oracle(cand, deadline):
    timeout = None if deadline is None else deadline - time.monotonic()
    verdict = checker.check_serializable(cand.history, timeout=timeout)
    return verdict.kind == 'unserializable'


def predict(obs_history, level, strategy, timeout=None, stats=None):
    """Returns PredictedHistory, None (no prediction), or Unknown.

    The prediction is the lexicographically first candidate whose prefix
    conforms to the level and that the strategy's oracle accepts.  timeout
    is a deadline for the whole call, checked before each candidate.  When
    given, stats is filled with candidates (the number enumerated) and
    search_s (seconds spent enumerating and deciding them).
    """
    if strategy not in STRATEGIES:
        raise ValueError('unknown strategy %r' % strategy)
    if level not in (CAUSAL, READ_COMMITTED):
        raise ValueError('unknown isolation level %r' % level)
    if stats is None:
        stats = {}
    stats.update(candidates=0, search_s=0.0)
    if len(obs_history.committed()) < 2:
        return None
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        if checker.check_serializable(obs_history,
                                      timeout=timeout).kind != 'serializable':
            log.warning('observed history is not serializable')
    except SolverUnknown:
        log.warning('could not verify the observed history is serializable')

    mode = 'relaxed' if strategy == APPROX_RELAXED else 'strict'
    oracle = _exact_oracle if strategy == EXACT_STRICT else _approx_oracle
    t0 = time.monotonic()
    vars = PredictionVars(obs_history, mode)
    try:
        for candidate in gen_feasibility(obs_history, vars):
            if deadline is not None and time.monotonic() >= deadline:
                return Unknown('timeout')
            stats['candidates'] += 1
            cand = extract_predicted_history(candidate, obs_history, vars,
                                             level=level, strategy=strategy)
            try:
                if (checker.conforms(cand.history, level)
                        and oracle(cand, deadline)):
                    return cand
            except SolverUnknown as e:
                return Unknown(e.reason)
        return None
    finally:
        stats['search_s'] = time.monotonic() - t0
