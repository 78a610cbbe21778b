"""Store simulator: workloads, read policies, scripts, and validation."""

import pytest

import unserial as u
from unserial import checker, storesim as ss


def run(workload, sessions, txns, seed, policy=None):
    policy = policy or ss.ReadPolicy(ss.LATEST_WRITER)
    return ss.run_workload(ss.WorkloadProgram(workload), sessions, txns,
                           seed, policy)


# --- observed (latest-writer) runs ------------------------------------------

def test_latest_writer_runs_are_serializable():
    for workload in ss.BUILTIN_WORKLOADS:
        sessions = 3 if workload == 'deposit-withdraw' else 2
        for seed in range(4):
            _, h = run(workload, sessions, 2, seed)
            assert checker.check_serializable(h), (workload, seed)


def test_deposit_deposit_serial_balance():
    # two deposits of 50 and 60 on top of 0 always end at 110 serially
    _, h = run('deposit-deposit', 2, 1, 0)
    values = [e.value for t in h.txns.values() for e in t.events
              if e.kind == 'w' and e.key == 'acc']
    assert 110 in values


def test_run_workload_deterministic():
    for workload in ss.BUILTIN_WORKLOADS:
        a, _ = run(workload, 2, 2, 7)
        b, _ = run(workload, 2, 2, 7)
        assert u.emit_trace(a) == u.emit_trace(b)
    # and the seed actually matters for the interleaving
    traces = {u.emit_trace(run('deposit-deposit', 3, 2, s)[0])
              for s in range(8)}
    assert len(traces) > 1


def test_run_workload_argument_validation():
    with pytest.raises(ValueError):
        run('deposit-deposit', 0, 1, 0)
    with pytest.raises(ValueError):
        run('deposit-deposit', 2, 0, 0)
    with pytest.raises(ValueError):
        run('deposit-withdraw', 1, 1, 0)


# --- weak read policies -------------------------------------------------------

def test_random_weak_is_deterministic_per_seed():
    pol = lambda s: ss.ReadPolicy(ss.RANDOM_WEAK, u.CAUSAL, rng_seed=s)
    a, _ = run('deposit-deposit', 2, 1, 0, pol(3))
    b, _ = run('deposit-deposit', 2, 1, 0, pol(3))
    assert u.emit_trace(a) == u.emit_trace(b)


def test_random_weak_reads_are_level_legal():
    # every read a weak policy serves must keep the partial history
    # conforming at the policy's level
    for level, check in ((u.CAUSAL, checker.check_causal),
                         (u.READ_COMMITTED, checker.check_rc)):
        for seed in range(6):
            _, h = run('deposit-deposit', 3, 2, 1,
                       ss.ReadPolicy(ss.RANDOM_WEAK, level, rng_seed=seed))
            assert check(h), (level, seed)


def test_random_weak_multi_read_runs_conform():
    # smallbank-lite transactions read several keys; each read must be
    # judged together with the transaction's earlier reads
    for level in (u.CAUSAL, u.READ_COMMITTED):
        check = checker.check_causal if level == u.CAUSAL else checker.check_rc
        for sessions, txns in ((2, 2), (3, 2), (4, 3)):
            for seed in range(40):
                _, h = run('smallbank-lite', sessions, txns, seed,
                           ss.ReadPolicy(ss.RANDOM_WEAK, level, seed))
                assert check(h), (level, sessions, txns, seed)


def test_random_weak_finds_anomalies():
    # under causal consistency the two deposits can both read 0; the final
    # balances across seeds must include a lost update
    finals = set()
    for seed in range(20):
        _, h = run('deposit-deposit', 2, 1, 0,
                   ss.ReadPolicy(ss.RANDOM_WEAK, u.CAUSAL, rng_seed=seed))
        values = {e.value for t in h.txns.values() for e in t.events
                  if e.kind == 'w' and e.key == 'acc'}
        finals |= values
    assert finals & {50, 60}, 'no weak-read anomaly in 20 seeds'


def test_legal_writers_conform_and_include_latest():
    _, h = run('deposit-deposit', 2, 1, 0)
    for level in (u.CAUSAL, u.READ_COMMITTED):
        legal = ss.legal_writers(h, 1, 'acc', level)
        assert legal, 'legal writer set must not be empty'
        for w in legal:
            assert w == u.T0 or w in h.writers_of('acc')


def test_unknown_read_policy_or_level_is_rejected():
    # an unknown level used to fuzz at read committed without a word
    for level in (None, 'Causal', 'serializability'):
        with pytest.raises(ValueError):
            ss.ReadPolicy(ss.RANDOM_WEAK, level, rng_seed=3)
    with pytest.raises(ValueError):
        ss.ReadPolicy('latest')
    _, h = run('deposit-deposit', 2, 1, 0)
    for level in ('Causal', 'serializability'):
        with pytest.raises(ValueError):
            ss.legal_writers(h, 1, 'acc', level)
        with pytest.raises(ValueError):
            checker.conforms(h, level)


# --- scripted workloads -------------------------------------------------------

SCRIPT = """\
# transfer with a guard
session 1
txn
get a -> x
abort_if x < 10
put a x - 10
put b 10
commit
session 2
txn
get a -> y
get b -> z
put total y + z
commit
"""


def test_scripted_workload_runs():
    prog = ss.parse_script(SCRIPT)
    trace, h = ss.run_workload(prog, 2, 1, 0,
                               ss.ReadPolicy(ss.LATEST_WRITER))
    # the guard aborts the transfer: initial a is 0 < 10
    terms = {rec.tid: rec.terminator
             for _, recs in trace.sessions for rec in recs}
    assert 'abort' in terms.values()
    assert checker.check_serializable(h)


def test_scripted_guard_commits_when_funded():
    text = 'session 1\ntxn\nput a 50\ncommit\n' + SCRIPT.replace(
        'session 1', 'session 2').replace('session 2\ntxn\nget a -> y',
        'session 3\ntxn\nget a -> y')
    prog = ss.parse_script(text)
    trace, h = ss.run_workload(prog, 3, 1, 0,
                               ss.ReadPolicy(ss.LATEST_WRITER))
    assert checker.check_serializable(h)


@pytest.mark.parametrize('text', [
    '',                                       # no sessions
    'txn\ncommit\n',                          # txn outside session
    'session 0\n',                            # bad sid
    'session 1\nget a -> x\n',                # op outside txn
    'session 1\ntxn\nget a x\ncommit\n',      # missing arrow
    'session 1\ntxn\nput a\ncommit\n',        # missing expression
    'session 1\ntxn\nput a + 3\ncommit\n',    # leading operator
    'session 1\ntxn\nabort_if x > 3\ncommit\n',   # only < supported
    'session 1\ntxn\nfrob a\ncommit\n',       # unknown directive
    'session 1\ntxn\nput a x + 1\ncommit\n',  # unbound variable
    'session 1\ntxn\nabort_if x < 3\ncommit\n',   # unbound guard
    'session 1\ntxn\nget a -> x\ncommit\ntxn\nput a x\ncommit\n',  # per txn
])
def test_script_errors(text):
    with pytest.raises(ss.ScriptError):
        ss.parse_script(text)


# --- validation ---------------------------------------------------------------

def test_validate_dd_prediction(dd_observed):
    _, h = dd_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    report = ss.validate(pred, ss.WorkloadProgram('deposit-deposit'),
                         2, 1, 0, u.CAUSAL)
    assert report.outcome == 'ValidatedUnserializable'
    assert report.diverged is False
    assert report.sites == []
    assert report.final_state['acc'] in (50, 60)


def test_validate_dw_prediction_diverges(dw_observed):
    _, h = dw_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    report = ss.validate(pred, ss.WorkloadProgram('deposit-withdraw'),
                         2, 2, 4, u.CAUSAL)
    assert report.outcome == 'Serializable'
    assert report.diverged is True
    assert 'abort-rewind' in {reason for (_t, _k, reason) in report.sites}
    assert report.final_state['acc'] == 50


def test_validate_report_is_deterministic(dd_observed):
    _, h = dd_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    args = (pred, ss.WorkloadProgram('deposit-deposit'), 2, 1, 0, u.CAUSAL)
    a = ss.validate(*args)
    b = ss.validate(*args)
    assert u.emit_trace(a.validating_trace) == u.emit_trace(b.validating_trace)
    assert a.final_state == b.final_state


def test_validate_reports_unknown_only_for_solver_unknown(dd_observed,
                                                         monkeypatch):
    _, h = dd_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    args = (pred, ss.WorkloadProgram('deposit-deposit'), 2, 1, 0, u.CAUSAL)

    def capped(history, timeout=None):
        raise u.SolverUnknown('state-cap')
    monkeypatch.setattr(checker, 'check_serializable', capped)
    assert ss.validate(*args).outcome == 'Unknown'

    def broken(history, timeout=None):
        raise KeyError('bug')
    monkeypatch.setattr(checker, 'check_serializable', broken)
    with pytest.raises(KeyError):
        ss.validate(*args)


def test_validate_rejects_mismatched_replay(dd_observed):
    # replaying against a run whose sessions cannot contain the predicted
    # transactions is refused outright
    _, h = dd_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    with pytest.raises(ss.ReplayMismatch):
        ss.validate(pred, ss.WorkloadProgram('deposit-deposit'),
                    1, 1, 0, u.CAUSAL)


def test_validate_flags_key_mismatch_divergence(dd_observed):
    # same session shape, different program: the replayed reads touch a
    # different key, so every predicted read site diverges
    _, h = dd_observed
    pred = u.predict(h, u.CAUSAL, u.APPROX_RELAXED)
    report = ss.validate(pred, ss.WorkloadProgram('voter'), 2, 1, 0,
                         u.CAUSAL)
    assert report.diverged is True
    assert 'key-mismatch' in {r for (_t, _k, r) in report.sites}
