"""Constraint generation and prediction of unserializable executions.

From an observed (serializable) history we search for an alternative
write-read assignment, cut off at per-session boundaries, that is valid
under the requested weak isolation level yet unserializable.

One engine serves every strategy.  The constraint program holds only
feasibility and isolation; `solver.Incremental` enumerates its (boundary,
choice) candidates, each is decided by the strategy's oracle, and a miss
blocks the whole assignment (lazy SMT, DPLL(T): Nieuwenhuis, Oliveras &
Tinelli, JACM 2006).  The oracles are:

  - approx-strict:  strict read-event boundaries + the approximate
    unserializability condition, a provable partial-commit-order cycle,
    decided by the least fixpoint of the guarded so/wr/ww/rw/transitivity
    rules (`_pco_cycle`);
  - approx-relaxed: the same condition with transaction-final boundaries;
  - exact-strict:   strict boundaries with the exact serializability check
    (`checker.check_serializable`) of the candidate prefix.

Candidates come out in lexicographic order: boundaries ascending in
session order, then each read site in order keeping its observed writer if
it can, else taking the lowest writer tid.  So the first hit is the
canonical prediction: the earliest cuts, then the fewest and lowest
rewirings, whatever path the search took to it.
"""

import logging
import time
from dataclasses import dataclass, field

from .history import T0, Event, Transaction, ExecutionHistory, build_history
from . import checker, solver, traceio
from .solver import conj, disj, eq, implies, le, lt, TRUE

log = logging.getLogger(__name__)

CAUSAL = 'causal'
READ_COMMITTED = 'rc'

EXACT_STRICT = 'exact-strict'
APPROX_STRICT = 'approx-strict'
APPROX_RELAXED = 'approx-relaxed'
STRATEGIES = (EXACT_STRICT, APPROX_STRICT, APPROX_RELAXED)

CEGAR_CAP = 10000


class InconsistentModel(Exception):
    pass


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
    """Grounded variables over an observed history.

    One choice variable per read site, one boundary per session, and
    boolean variables for the wr/hb relations on transaction pairs;
    commit-order witnesses are order-only integers.  Each choice domain
    lists the observed writer first, then the other writers by ascending
    tid, so the solver tries to keep an observed read before rewiring it.
    """

    def __init__(self, history, boundary_mode):
        if boundary_mode not in ('strict', 'relaxed'):
            raise ValueError(boundary_mode)
        self.history = history
        self.mode = boundary_mode
        self.program = solver.Program()
        self.inf = history.max_pos() + 1
        self.sites = []       # (sid, pos, tid, key, obs_writer, domain)
        self.choice = {}      # (sid, pos) -> Var
        self.boundary = {}    # sid -> Var
        self.wrk = {}         # (key, t1, t2) -> Var
        self.wr = {}          # (t1, t2) -> Var
        self.hb = {}          # (t1, t2) -> Var
        self.ww_level = {}    # (t1, t2) -> Var (ww_causal or ww_rc)
        self.co = {}          # tid -> Var

        for (sid, pos, tid, key, obs) in history.read_sites():
            domain = [obs] + [w for w in history.writers_of(key)
                              if w not in (tid, obs)]
            v = self.program.enum_var('choice[%d][%d]' % (sid, pos), domain)
            self.sites.append((sid, pos, tid, key, obs, domain))
            self.choice[(sid, pos)] = v
        for sid in sorted(history.sessions):
            self.boundary[sid] = self.program.enum_var(
                'boundary[%d]' % sid, self._boundary_options(sid))
        # branch on boundaries first (they pin most choices), then choices;
        # a candidate is this assignment, and blocking forbids it whole
        self.symbols = [v.name for v in self.boundary.values()] + \
            [v.name for v in self.choice.values()]
        self.program.metadata['decide_first'] = self.symbols

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

    def wr_guard(self, t1, key):
        """Writer inclusion: t1's last write of key is within t1's boundary.

        Strict boundaries sit on read events, so the write must precede the
        boundary strictly; relaxed boundaries sit on transaction-final
        events and include the boundary transaction's own writes.
        """
        if t1 == T0:
            return TRUE
        s1 = self.history.session_of[t1]
        wp = self.history.wrpos_k(t1, key)
        if self.mode == 'strict':
            return lt(wp, self.boundary[s1])
        return le(wp, self.boundary[s1])


def gen_feasibility(obs_history, vars, boundary_mode=None):
    h = obs_history
    prog = vars.program
    if boundary_mode is not None and boundary_mode != vars.mode:
        raise ValueError('boundary mode mismatch')

    for site in vars.sites:
        (sid, pos, tid, key, obs, domain) = site
        c = vars.choice[(sid, pos)]
        b = vars.boundary[sid]
        pin = vars.pin_pos(site)
        # pre-boundary fidelity, and canonical pinning beyond the boundary
        prog.add(implies(lt(pin, b), eq(c, obs)))
        prog.add(implies(lt(b, pin), eq(c, obs)))
        # in-boundary reads only see writes before the writer's boundary
        for t1 in domain:
            if t1 == T0:
                continue
            prog.add(implies(conj(eq(c, t1), le(pos, b)),
                             vars.wr_guard(t1, key)))

    # wr_k and wr as definitional equalities over the choices
    by_reader = {}
    for site in vars.sites:
        (sid, pos, tid, key, obs, domain) = site
        by_reader.setdefault((key, tid), []).append(site)
    for (key, t2), sites in sorted(by_reader.items()):
        for t1 in h.writers_of(key):
            if t1 == t2:
                continue
            ds = []
            for (sid, pos, _tid, _key, _obs, domain) in sites:
                if t1 in domain:
                    ds.append(conj(eq(vars.choice[(sid, pos)], t1),
                                   le(pos, vars.boundary[sid])))
            if not ds:
                continue
            v = prog.bool_var('wr[%s][%d][%d]' % (key, t1, t2))
            vars.wrk[(key, t1, t2)] = v
            prog.add(eq(v, disj(ds)))
    pairs = {}
    for (key, t1, t2), v in vars.wrk.items():
        pairs.setdefault((t1, t2), []).append(v)
    for (t1, t2), vs in sorted(pairs.items()):
        v = prog.bool_var('wrany[%d][%d]' % (t1, t2))
        vars.wr[(t1, t2)] = v
        prog.add(eq(v, disj(vs)))
    return prog


def _base(vars, t1, t2):
    """so constant or wr variable disjuncts for the pair, if any."""
    ds = []
    if vars.history.so(t1, t2):
        ds.append(TRUE)
    if (t1, t2) in vars.wr:
        ds.append(vars.wr[(t1, t2)])
    return ds


def gen_isolation(obs_history, vars, level):
    h = obs_history
    prog = vars.program
    txns = h.committed()

    # hb as the closure of so and the chosen wr
    for t1 in txns:
        for t2 in txns:
            if t1 == t2 or t2 == T0:
                continue
            vars.hb[(t1, t2)] = prog.bool_var('hb[%d][%d]' % (t1, t2))
    for (t1, t2), v in vars.hb.items():
        ds = _base(vars, t1, t2)
        for t3 in txns:
            if t3 in (t1, t2, T0):
                continue
            tail = _base(vars, t3, t2)
            if not tail:
                continue
            ds.append(conj(vars.hb[(t1, t3)], disj(tail)))
        prog.add(eq(v, disj(ds)))

    writes = {t: {e.key for e in h.txns[t].writes()} for t in txns}
    if level == CAUSAL:
        for t1 in txns:
            for t2 in txns:
                if t1 == t2:
                    continue
                ds = []
                for key in sorted(writes[t1] & writes[t2]):
                    for t3 in txns:
                        if t3 in (t1, t2) or (key, t2, t3) not in vars.wrk:
                            continue
                        ds.append(conj(vars.wrk[(key, t2, t3)],
                                       vars.hb[(t1, t3)],
                                       vars.wr_guard(t1, key)))
                if ds:
                    v = prog.bool_var('wwc[%d][%d]' % (t1, t2))
                    vars.ww_level[(t1, t2)] = v
                    prog.add(eq(v, disj(ds)))
        co_name = 'co_causal'
    elif level == READ_COMMITTED:
        pair_disjuncts = {}
        for t3 in txns:
            if t3 == T0:
                continue
            rsites = [site for site in vars.sites if site[2] == t3]
            for j, sj in enumerate(rsites):
                (sid, jpos, _t, k, _o, jdom) = sj
                for si in rsites[:j]:
                    (sid_i, ipos, _ti, _ki, _oi, idom) = si
                    for t2 in jdom:
                        for t1 in idom:
                            if t1 == t2 or k not in writes[t1]:
                                continue
                            d = conj(eq(vars.choice[(sid_i, ipos)], t1),
                                     eq(vars.choice[(sid, jpos)], t2),
                                     le(jpos, vars.boundary[sid]))
                            pair_disjuncts.setdefault((t1, t2), []).append(d)
        for (t1, t2), ds in sorted(pair_disjuncts.items()):
            v = prog.bool_var('wwrc[%d][%d]' % (t1, t2))
            vars.ww_level[(t1, t2)] = v
            prog.add(eq(v, disj(ds)))
        co_name = 'co_rc'
    else:
        raise ValueError('unknown isolation level %r' % level)

    for t in txns:
        vars.co[t] = prog.int_var('%s[%d]' % (co_name, t))
    for t1 in txns:
        for t2 in txns:
            if t1 == t2:
                continue
            ds = []
            if (t1, t2) in vars.hb:
                ds.append(vars.hb[(t1, t2)])
            if (t1, t2) in vars.ww_level:
                ds.append(vars.ww_level[(t1, t2)])
            if ds:
                prog.add(implies(disj(ds), lt(vars.co[t1], vars.co[t2])))
    return prog


def gen_unser_approx(obs_history, vars):
    """Retired: the approximate condition is no longer encoded.

    `_pco_cycle` decides it per candidate.  The name stays only because
    perfbench/tracing.py wraps it by name; remove the two together.
    """
    raise NotImplementedError('the approximate condition is decided by '
                              '_pco_cycle; call predict()')


def extract_predicted_history(model, obs_history, vars, level=None,
                              strategy=None):
    h = obs_history
    bnum = {}
    boundaries = {}
    for sid, bv in vars.boundary.items():
        val = model[bv]
        bnum[sid] = val
        boundaries[sid] = None if val == vars.inf else val

    changed = []
    txns = {}
    sessions = {}
    keys = set()
    for sid in sorted(h.sessions):
        b = bnum[sid]
        for tid in h.sessions[sid]:
            evs = []
            for e in h.txns[tid].events:
                if e.pos > b:
                    continue
                if e.kind == 'r':
                    w = model[vars.choice[(sid, e.pos)]]
                    if w != e.writer:
                        changed.append((tid, e.pos, e.key, e.writer, w))
                    val = 0
                    wp = h.wrpos_k(w, e.key)
                    if w != T0 and wp is not None:
                        for we in h.txns[w].events:
                            if we.kind == 'w' and we.key == e.key:
                                val = we.value
                    evs.append(Event('r', e.key, e.pos, val, w))
                else:
                    evs.append(Event('w', e.key, e.pos, e.value))
                keys.add(e.key)
            if evs:
                txns[tid] = Transaction(tid, sid, tuple(evs))
                sessions.setdefault(sid, []).append(tid)
    txns[T0] = Transaction(T0, 0, tuple(
        Event('w', k, 0, 0) for k in sorted(keys)))
    prefix = ExecutionHistory(txns, sessions)

    # invariant checks: any violation signals an encoding bug
    for site in vars.sites:
        (sid, pos, tid, key, obs, domain) = site
        w = model[vars.choice[(sid, pos)]]
        if vars.pin_pos(site) < bnum[sid] and w != obs:
            raise InconsistentModel('pre-boundary read rewired at %d/%d'
                                    % (sid, pos))
        if pos <= bnum[sid] and w != T0:
            ws = h.session_of[w]
            wp = h.wrpos_k(w, key)
            ok = wp is not None and (wp < bnum[ws] if vars.mode == 'strict'
                                     else wp <= bnum[ws])
            if not ok:
                raise InconsistentModel('writer %d not visible for %d/%d'
                                        % (w, sid, pos))
    if level is not None:
        check = checker.check_causal if level == CAUSAL else checker.check_rc
        if check(prefix).kind != 'conforms':
            raise InconsistentModel('prefix violates %s' % level)
    return PredictedHistory(prefix, boundaries, changed, None,
                            level, strategy)


def _guard_value(history, mode, t1, key, bnum):
    """Concrete value of wr_guard under fixed boundaries."""
    if t1 == T0:
        return True
    wp = history.wrpos_k(t1, key)
    if wp is None:
        return False
    b = bnum[history.session_of[t1]]
    return wp < b if mode == 'strict' else wp <= b


def _pco_cycle(history, model, vars):
    """Mutual pco pair under a fixed (choice, boundary) assignment, if any.

    The approximate oracle.  pco is the least fixpoint of so and the chosen
    wr, closed under the guarded ww and rw rules and transitivity; a least
    fixpoint admits no self-justifying edge, since each derived edge rests
    on edges of earlier rounds.  A mutual pair is a pco cycle, which proves
    the prefix unserializable.
    """
    h = history
    txns = h.committed()
    bnum = {sid: model[bv] for sid, bv in vars.boundary.items()}
    wrk = {}
    for (key, t1, t2), v in vars.wrk.items():
        if model[v]:
            wrk.setdefault(key, set()).add((t1, t2))
    writes = {t: {e.key for e in h.txns[t].writes()} for t in txns}
    reads = {t: {e.key for e in h.txns[t].reads()} for t in txns}

    pco = set()
    for t1 in txns:
        for t2 in txns:
            if t1 != t2 and h.so(t1, t2):
                pco.add((t1, t2))
    for pairs in wrk.values():
        pco |= pairs

    while True:
        new = set()
        for key, pairs in wrk.items():
            for (t2, t3) in pairs:
                # ww: t1 also wrote key and provably precedes the reader t3
                for t1 in h.writers_of(key):
                    if t1 in (t2, t3) or key not in writes[t1]:
                        continue
                    if (t1, t2) not in pco and (t1, t3) in pco \
                            and _guard_value(h, vars.mode, t1, key, bnum):
                        new.add((t1, t2))
            for (t3, t1) in pairs:
                # rw: t1 read key from t3; later writers t2 come after t1
                if key not in reads[t1]:
                    continue
                for t2 in h.writers_of(key):
                    if t2 in (t1, t3):
                        continue
                    if (t1, t2) not in pco and (t3, t2) in pco \
                            and _guard_value(h, vars.mode, t2, key, bnum):
                        new.add((t1, t2))
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


def _approx_oracle(obs_history, model, vars, level, strategy, deadline):
    pair = _pco_cycle(obs_history, model, vars)
    if pair is None:
        return None
    pred = extract_predicted_history(model, obs_history, vars, level=level,
                                     strategy=strategy)
    pred.witness_cycle = [(pair[0], pair[1], 'pco'),
                          (pair[1], pair[0], 'pco')]
    return pred


def _exact_oracle(obs_history, model, vars, level, strategy, deadline):
    cand = extract_predicted_history(model, obs_history, vars, level=level,
                                     strategy=strategy)
    timeout = None if deadline is None else deadline - time.monotonic()
    verdict = checker.check_serializable(cand.history, timeout=timeout)
    return cand if verdict.kind == 'unserializable' else None


def predict(obs_history, level, strategy, timeout=None, stats=None):
    """Returns PredictedHistory, None (no prediction), or Unknown.

    The prediction is the lexicographically first candidate that the
    strategy's oracle accepts.  timeout is a deadline for the whole call,
    checked before each candidate.  When given, stats is filled with gen_s,
    solve_s and literals.
    """
    if strategy not in STRATEGIES:
        raise ValueError('unknown strategy %r' % strategy)
    if stats is None:
        stats = {}
    stats.update(gen_s=0.0, solve_s=0.0, literals=0)
    if len(obs_history.committed()) < 2:
        return None
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        if checker.check_serializable(obs_history,
                                      timeout=timeout).kind != 'serializable':
            log.warning('observed history is not serializable')
    except solver.SolverUnknown:
        log.warning('could not verify the observed history is serializable')

    mode = 'relaxed' if strategy == APPROX_RELAXED else 'strict'
    oracle = _exact_oracle if strategy == EXACT_STRICT else _approx_oracle
    t0 = time.monotonic()
    vars = PredictionVars(obs_history, mode)
    gen_feasibility(obs_history, vars)
    gen_isolation(obs_history, vars, level)
    stats['gen_s'] = time.monotonic() - t0
    inc = solver.Incremental(vars.program)
    for _ in range(CEGAR_CAP):
        left = None if deadline is None else deadline - time.monotonic()
        if left is not None and left <= 0:
            return Unknown('timeout')
        res = inc.check(timeout=left)
        stats['solve_s'] += res.stats['solve_s']
        stats['literals'] = max(stats['literals'], res.stats['literals'])
        if res.status == 'unknown':
            return Unknown(res.reason)
        if res.status == 'unsat':
            return None
        try:
            pred = oracle(obs_history, res.model, vars, level, strategy,
                          deadline)
        except solver.SolverUnknown as e:
            return Unknown(e.reason)
        if pred is not None:
            return pred
        inc.block(vars.symbols, res.model)
    return Unknown('iteration-cap')
