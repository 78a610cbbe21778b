"""Predictor: canonical fixtures, boundary semantics, and soundness samples."""

import itertools
import time

import pytest

import unserial as u
from unserial import checker, predictor, storesim as ss

from conftest import rank_trap_history, make_history


ALL = [(level, strat) for level in (u.CAUSAL, u.READ_COMMITTED)
       for strat in u.STRATEGIES]


def observed(workload, sessions, txns, seed):
    _, h = ss.run_workload(ss.WorkloadProgram(workload), sessions, txns,
                           seed, ss.ReadPolicy(ss.LATEST_WRITER))
    return h


# --- deposit-deposit (the motivating lost-update shape) --------------------

def test_dd_relaxed_prediction(dd_observed):
    _, h = dd_observed
    for level in (u.CAUSAL, u.READ_COMMITTED):
        r = u.predict(h, level, u.APPROX_RELAXED)
        assert isinstance(r, u.PredictedHistory)
        # t2's read of acc is rewired from t1 to the initial state
        assert r.changed_reads == [(2, 1, 'acc', 1, 0)]
        assert r.boundaries == {1: 2, 2: 2}
        assert ('acc' in r.history.wr
                and (0, 2) in r.history.wr['acc']
                and (0, 1) in r.history.wr['acc'])
        # the predicted prefix is genuinely unserializable
        assert checker.oracle_serializable(r.history).kind == 'unserializable'


def test_dd_strict_unsat(dd_observed):
    # under strict boundaries t2's own write falls outside the prefix, so
    # no unserializable prefix exists; both strict strategies agree
    _, h = dd_observed
    for level in (u.CAUSAL, u.READ_COMMITTED):
        assert u.predict(h, level, u.APPROX_STRICT) is None
        assert u.predict(h, level, u.EXACT_STRICT) is None


# --- deposit-withdraw (boundary semantics) ----------------------------------

def test_dw_causal_strict_vs_relaxed(dw_observed):
    _, h = dw_observed
    assert u.predict(h, u.CAUSAL, u.APPROX_STRICT) is None
    r = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    assert isinstance(r, u.PredictedHistory)
    assert r.boundaries == {1: 2, 2: 2}
    assert r.changed_reads == [(2, 1, 'acc', 1, 0)]
    # the second deposit (t3) lies past session 1's boundary
    assert sorted(r.history.txns) == [0, 1, 2]
    assert checker.oracle_serializable(r.history).kind == 'unserializable'


def test_dw_rc_strict_sat(dw_observed):
    # read committed admits a strict prediction the causal level forbids:
    # t3 rereads acc from the initial state behind t2's committed write
    _, h = dw_observed
    r = u.predict(h, u.READ_COMMITTED, u.APPROX_STRICT)
    assert isinstance(r, u.PredictedHistory)
    assert (3, 3, 'acc', 2, 0) in r.changed_reads
    assert checker.oracle_serializable(r.history).kind == 'unserializable'
    e = u.predict(h, u.READ_COMMITTED, u.EXACT_STRICT)
    assert isinstance(e, u.PredictedHistory)


# --- self-justification regression -------------------------------------------

@pytest.mark.parametrize('level,strategy', ALL)
def test_rank_trap_never_unserializable(level, strategy):
    # self-justifying ww/pco edges would wrongly certify a cycle here
    assert u.predict(rank_trap_history(), level, strategy) is None


def test_witness_cycle_is_mutual_pco(dd_observed):
    _, h = dd_observed
    r = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    assert r.witness_cycle is not None
    (a, b, la), (c, d, lb) = r.witness_cycle
    assert (a, b) == (d, c)
    assert la == lb == 'pco'


# --- structural properties of predictions ------------------------------------

def sample_runs():
    runs = []
    for i, (workload, sessions, txns) in enumerate([
            ('deposit-deposit', 2, 1), ('deposit-deposit', 3, 2),
            ('deposit-withdraw', 2, 2), ('deposit-withdraw', 3, 1),
            ('voter', 2, 2), ('voter', 3, 2),
            ('smallbank-lite', 2, 2), ('smallbank-lite', 3, 1)]):
        for seed in (0, 1):
            runs.append(observed(workload, sessions, txns, seed))
    return runs


def test_prediction_structure_sample():
    for h in sample_runs():
        for level, strategy in ALL:
            r = u.predict(h, level, strategy)
            if not isinstance(r, u.PredictedHistory):
                continue
            # in-boundary prefix: every predicted txn is within its
            # session boundary, aside from t0
            for tid, txn in r.history.txns.items():
                if tid == u.T0:
                    continue
                b = r.boundaries.get(txn.sid)
                if b is not None:
                    if strategy == u.APPROX_RELAXED:
                        assert txn.last_pos() <= b, (tid, strategy)
            # changed reads really differ and appear in the prediction
            for (tid, pos, key, old, new) in r.changed_reads:
                assert old != new
                ev = [e for e in r.history.txns[tid].events
                      if e.kind == 'r' and e.pos == pos and e.key == key]
                assert ev and ev[0].writer == new
            # the prediction's point is an unserializable prefix
            assert (checker.oracle_serializable(r.history).kind
                    == 'unserializable'), (level, strategy)


def test_strategy_ordering_sample():
    for h in sample_runs():
        for level in (u.CAUSAL, u.READ_COMMITTED):
            s = u.predict(h, level, u.APPROX_STRICT)
            if isinstance(s, u.PredictedHistory):
                assert isinstance(u.predict(h, level, u.EXACT_STRICT),
                                  u.PredictedHistory)
                assert isinstance(u.predict(h, level, u.APPROX_RELAXED),
                                  u.PredictedHistory)


# --- canonical predictions -----------------------------------------------------

def _candidates(h, mode):
    """Every feasible (boundaries, writers), in lexicographic order, by brute
    force and independent of the predictor's engine.

    Boundaries run ascending in session order, no cut (infinity) last;
    then the free reads, those at their session's boundary, each over its
    observed writer first and then ascending tid.  Every other read keeps
    its observed writer.  A candidate is feasible when each in-boundary
    read's writer wrote its key inside the writer's own boundary.  The
    writers map each read site (sid, pos) to a tid.
    """
    inf = h.max_pos() + 1
    sids = sorted(h.sessions)
    options = []
    for sid in sids:
        if mode == 'strict':
            opts = {e.pos for t in h.sessions[sid]
                    for e in h.txns[t].events if e.kind == 'r'}
        else:
            opts = {h.last_pos(t) for t in h.sessions[sid]
                    if h.txns[t].events}
        options.append(sorted(opts) + [inf])
    sites = h.read_sites()
    for bvec in itertools.product(*options):
        bound = dict(zip(sids, bvec))
        free = [i for i, (sid, pos, tid, key, obs) in enumerate(sites)
                if (pos if mode == 'strict' else h.last_pos(tid))
                == bound[sid]]
        domains = [[sites[i][4]] + [w for w in h.writers_of(sites[i][3])
                                    if w not in (sites[i][2], sites[i][4])]
                   for i in free]
        for choice in itertools.product(*domains):
            writer = [site[4] for site in sites]
            for i, w in zip(free, choice):
                writer[i] = w
            if all(_visible(h, mode, bound, w, key)
                   for (sid, pos, _t, key, _o), w in zip(sites, writer)
                   if pos <= bound[sid]):
                yield bound, {(sid, pos): w
                              for (sid, pos, *_), w in zip(sites, writer)}


def _visible(h, mode, bound, w, key):
    if w == u.T0:
        return True
    wp = h.wrpos_k(w, key)
    b = bound[h.session_of[w]]
    return wp is not None and (wp < b if mode == 'strict' else wp <= b)


def _prefix(h, bound, chosen):
    """The in-boundary history with the chosen writers, and the changed
    reads in read-site order."""
    spec, changed = {}, []
    for sid in sorted(h.sessions):
        for tid in h.sessions[sid]:
            evs = []
            for e in h.txns[tid].events:
                if e.pos > bound[sid]:
                    continue
                if e.kind == 'w':
                    evs.append(('w', e.key, e.pos, e.value))
                    continue
                w = chosen[(sid, e.pos)]
                if w != e.writer:
                    changed.append((tid, e.pos, e.key, e.writer, w))
                evs.append(('r', e.key, e.pos, 0, w))
            if evs:
                spec[tid] = (sid, evs)
    return make_history(spec), changed


def _accepts(strategy, prefix):
    if strategy == u.EXACT_STRICT:
        return checker.oracle_serializable(prefix).kind == 'unserializable'
    return predictor._pco_cycle(prefix) is not None


def lex_runs():
    # 3x2 runs cost the brute-force reference the most, so only two join
    # the sample
    runs = [observed(w, s, t, seed)
            for w in ('deposit-deposit', 'deposit-withdraw', 'voter',
                      'smallbank-lite')
            for (s, t) in ((2, 1), (2, 2), (3, 1))
            for seed in range(5)]
    runs += [observed(w, 3, 2, 0) for w in ('deposit-withdraw', 'voter')]
    assert len(runs) >= 60
    return runs


def test_enumeration_is_the_brute_force_sequence():
    # the whole candidate sequence, not only the first hit, follows the
    # lexicographic order
    for i, h in enumerate(lex_runs()):
        for mode in ('strict', 'relaxed'):
            vars = predictor.PredictionVars(h, mode)
            got = list(predictor.gen_feasibility(h, vars))
            assert got == list(_candidates(h, mode)), (i, mode)


def test_predictions_are_the_lexicographic_minimum():
    hits = 0
    for i, h in enumerate(lex_runs()):
        inf = h.max_pos() + 1
        for level in (u.CAUSAL, u.READ_COMMITTED):
            conforms = (checker.check_causal if level == u.CAUSAL
                        else checker.check_rc)
            for mode in ('strict', 'relaxed'):
                strategies = ([u.EXACT_STRICT, u.APPROX_STRICT]
                              if mode == 'strict' else [u.APPROX_RELAXED])
                first = {}
                for bound, chosen in _candidates(h, mode):
                    prefix, changed = _prefix(h, bound, chosen)
                    if not conforms(prefix):
                        continue
                    for strategy in strategies:
                        if (strategy not in first
                                and _accepts(strategy, prefix)):
                            first[strategy] = (bound, changed)
                    if len(first) == len(strategies):
                        break
                for strategy in strategies:
                    pred = u.predict(h, level, strategy)
                    label = (i, level, strategy)
                    if strategy not in first:
                        assert pred is None, label
                        continue
                    hits += 1
                    bound, changed = first[strategy]
                    assert pred.boundaries == {
                        sid: None if b == inf else b
                        for sid, b in bound.items()}, label
                    assert pred.changed_reads == changed, label
    assert hits >= 60


@pytest.mark.parametrize('strategy', [u.APPROX_RELAXED, u.EXACT_STRICT])
def test_timeout_is_a_hard_deadline(strategy):
    # voter 4x6 under causal enumerates candidates for several seconds
    # before it answers "no prediction"; a 0.5 s deadline must end the
    # call within 1 s
    h = observed('voter', 4, 6, 0)
    t0 = time.monotonic()
    r = u.predict(h, u.CAUSAL, strategy, timeout=0.5)
    elapsed = time.monotonic() - t0
    assert isinstance(r, u.Unknown) and r.reason == 'timeout'
    assert elapsed < 1.0, elapsed


def test_predict_determinism(dw_observed):
    _, h = dw_observed
    for level, strategy in ALL:
        a = u.predict(h, level, strategy)
        b = u.predict(h, level, strategy)
        if a is None:
            assert b is None
            continue
        assert u.emit_trace(a.to_trace()) == u.emit_trace(b.to_trace())
        assert a.boundaries == b.boundaries
        assert a.changed_reads == b.changed_reads


def test_stats_reported(dd_observed):
    _, h = dd_observed
    stats = {}
    u.predict(h, u.CAUSAL, u.APPROX_RELAXED, stats=stats)
    assert stats['candidates'] > 0
    assert stats['search_s'] >= 0.0


def test_predicted_from_trace_round_trip(dd_observed):
    _, h = dd_observed
    r = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    trace = r.to_trace()
    again = u.predicted_from_trace(u.parse_trace(u.emit_trace(trace)),
                                   u.CAUSAL)
    assert again.history.wr == r.history.wr
    assert again.boundaries == r.boundaries


def test_bad_strategy_rejected(dd_observed):
    _, h = dd_observed
    with pytest.raises(ValueError):
        u.predict(h, u.CAUSAL, 'quantum')


def test_unknown_level_rejected(dd_observed):
    _, h = dd_observed
    with pytest.raises(ValueError):
        u.predict(h, 'snapshot', u.APPROX_RELAXED)
    # the level is checked before the trivial-history shortcut
    trivial = make_history({1: (1, [('w', 'x', 1, 1)])})
    with pytest.raises(ValueError):
        u.predict(trivial, 'snapshot', u.EXACT_STRICT)


def test_trivial_history_has_no_prediction():
    h = make_history({1: (1, [('w', 'x', 1, 1)])})
    assert u.predict(h, u.CAUSAL, u.APPROX_RELAXED) is None
