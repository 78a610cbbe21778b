"""Command-line interface: exit codes, JSON output, determinism."""

import json
import random
import time

import pytest

from unserial import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def observe(capsys, tmp_path, name='obs.trace', workload='deposit-deposit',
            sessions='2', txns='1', seed='0'):
    path = tmp_path / name
    code, _ = run_cli(capsys, 'observe', '--workload', workload,
                      '--sessions', sessions, '--txns', txns,
                      '--seed', seed, '--out', str(path))
    assert code == 0
    return path


def test_observe_writes_trace(capsys, tmp_path):
    path = observe(capsys, tmp_path)
    text = path.read_text()
    assert text.startswith('session 1')
    assert 'commit' in text


def test_full_pipeline(capsys, tmp_path):
    obs = observe(capsys, tmp_path)
    pred = tmp_path / 'pred.trace'

    code, out = run_cli(capsys, 'predict', str(obs), '--isolation', 'causal',
                        '--strategy', 'approx-relaxed', '--out', str(pred))
    assert code == 0
    summary = json.loads(out)
    assert summary['status'] == 'sat'
    assert summary['boundaries'] == {'1': 2, '2': 2}
    assert summary['changed_reads'] == [
        {'tid': 2, 'pos': 1, 'key': 'acc', 'observed': 1, 'predicted': 0}]
    assert summary['candidates'] > 0
    assert 'boundary' in pred.read_text()

    code, out = run_cli(capsys, 'validate', str(pred),
                        '--workload', 'deposit-deposit',
                        '--sessions', '2', '--txns', '1', '--seed', '0',
                        '--isolation', 'causal')
    assert code == 0
    report = json.loads(out)
    assert report['outcome'] == 'ValidatedUnserializable'
    assert report['diverged'] is False
    assert report['final_state']['acc'] in (50, 60)


def test_predict_unsat_exit_code(capsys, tmp_path):
    obs = observe(capsys, tmp_path)
    code, out = run_cli(capsys, 'predict', str(obs),
                        '--strategy', 'approx-strict')
    assert code == 1
    assert json.loads(out)['status'] == 'unsat'


def test_check_levels(capsys, tmp_path):
    obs = observe(capsys, tmp_path)
    for level in ('serializability', 'causal', 'rc'):
        code, out = run_cli(capsys, 'check', str(obs), '--level', level)
        assert code == 0
        assert json.loads(out)['verdict'] in ('serializable', 'conforms')

    bad = tmp_path / 'bad.trace'
    bad.write_text('session 1\ntxn 1\nr x 1 0 0\nw x 2 1\ncommit\n'
                   'session 2\ntxn 2\nr x 1 0 0\nw x 2 1\ncommit\n')
    code, out = run_cli(capsys, 'check', str(bad))
    assert code == 1
    verdict = json.loads(out)
    assert verdict['verdict'] == 'unserializable'


def test_check_violating_trace_has_cycle(capsys, tmp_path):
    bad = tmp_path / 'frac.trace'
    bad.write_text('session 1\ntxn 1\nw x 1 1\ncommit\n'
                   'session 2\ntxn 2\nr x 1 1 1\nr x 2 0 0\ncommit\n')
    code, out = run_cli(capsys, 'check', str(bad), '--level', 'rc')
    assert code == 1
    verdict = json.loads(out)
    assert verdict['verdict'] == 'violates'
    assert verdict['cycle']


@pytest.mark.parametrize('argv', [
    ('observe', '--workload', 'deposit-deposit', '--sessions', '0'),
    ('observe', '--workload', 'deposit-deposit', '--txns', '0'),
    ('observe', '--script', '/nonexistent/script'),
    ('observe',),                      # no workload given
    ('predict', '/nonexistent/trace'),
    ('bogus-command',),
])
def test_config_errors_exit_2(capsys, argv):
    code, _ = run_cli(capsys, *argv)
    assert code == 2


def test_bad_trace_content_exit_2(capsys, tmp_path):
    bad = tmp_path / 'bad.trace'
    bad.write_text('session 1\ntxn 1\nr x 1 9 0\ncommit\n')
    code, _ = run_cli(capsys, 'predict', str(bad))
    assert code == 2


def test_validate_missing_writer_exit_2(capsys, tmp_path):
    pred = tmp_path / 'pred.trace'
    pred.write_text('session 1\ntxn 1\nr acc 1 7 0\nw acc 2 50\ncommit\n'
                    'boundary 1 inf\n')
    code, _ = run_cli(capsys, 'validate', str(pred),
                      '--workload', 'deposit-deposit')
    assert code == 2


def _mutate(rng, text):
    """Delete, duplicate or rewrite one token of a trace."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = rng.choice(spots)
    action = rng.choice(('delete', 'duplicate', 'rewrite'))
    if action == 'delete':
        del lines[i][j]
    elif action == 'duplicate':
        lines[i].insert(j, lines[i][j])
    else:
        lines[i][j] = rng.choice(('0', '1', '2', '3', '-1', '99', 'inf',
                                  'acc', 'txn', 'commit', 'boundary', 'x'))
    return '\n'.join(' '.join(toks) for toks in lines) + '\n'


def test_mutated_traces_never_raise(capsys, tmp_path):
    # every command ends in an exit code, whatever one-token damage the
    # observed or predicted trace took
    obs = observe(capsys, tmp_path, txns='2')
    pred = tmp_path / 'pred.trace'
    code, _ = run_cli(capsys, 'predict', str(obs), '--out', str(pred))
    assert code == 0
    workload = ('--workload', 'deposit-deposit', '--sessions', '2',
                '--txns', '2', '--seed', '0')
    rng = random.Random(1)
    bad = tmp_path / 'mutated.trace'
    codes = []
    for source in (obs, pred) * 100:
        bad.write_text(_mutate(rng, source.read_text()))
        for argv in (('predict', str(bad), '--timeout', '2'),
                     ('check', str(bad)),
                     ('render', str(bad)),
                     ('validate', str(bad)) + workload):
            code, _ = run_cli(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, bad.read_text())
            codes.append(code)
    assert 2 in codes and 0 in codes


def test_bad_timeout_env_exit_2(capsys, tmp_path, monkeypatch):
    obs = observe(capsys, tmp_path)
    monkeypatch.setenv(cli.TIMEOUT_ENV, 'soon')
    code, _ = run_cli(capsys, 'predict', str(obs))
    assert code == 2


def test_fuzz_zero_runs(capsys):
    code, out = run_cli(capsys, 'fuzz', '--workload', 'deposit-deposit',
                        '--runs', '0')
    assert code == 0
    stats = json.loads(out)
    assert stats == {'runs': [], 'unserializable': 0, 'total': 0,
                     'unserializable_rate': 0.0}


def test_fuzz_reports_anomalies(capsys):
    code, out = run_cli(capsys, 'fuzz', '--workload', 'deposit-deposit',
                        '--runs', '20', '--isolation', 'causal')
    assert code == 0
    stats = json.loads(out)
    assert stats['total'] == 20
    assert stats['unserializable'] == sum(
        1 for r in stats['runs'] if r['verdict'] == 'unserializable')
    assert stats['unserializable_rate'] > 0


def test_fuzz_timeout_bounds_the_command(capsys):
    # 200 runs take about 1 s untimed; a 0.1 s deadline ends the whole
    # command early and reports the runs completed before it
    t0 = time.monotonic()
    code, out = run_cli(capsys, 'fuzz', '--workload', 'deposit-deposit',
                        '--sessions', '4', '--txns', '3', '--runs', '200',
                        '--timeout', '0.1')
    elapsed = time.monotonic() - t0
    assert code == 3
    stats = json.loads(out)
    assert stats['reason'] == 'timeout'
    assert stats['total'] == len(stats['runs']) < 200
    assert [r['seed'] for r in stats['runs']] == list(range(stats['total']))
    assert elapsed < 0.5, elapsed


def test_render_dot(capsys, tmp_path):
    obs = observe(capsys, tmp_path)
    code, out = run_cli(capsys, 'render', str(obs))
    assert code == 0
    assert out.startswith('digraph history {')


def test_pipeline_outputs_are_deterministic(capsys, tmp_path):
    outputs = []
    for tag in ('a', 'b'):
        obs = observe(capsys, tmp_path, name='obs_%s.trace' % tag)
        pred = tmp_path / ('pred_%s.trace' % tag)
        _, pjson = run_cli(capsys, 'predict', str(obs), '--out', str(pred))
        _, vjson = run_cli(capsys, 'validate', str(pred),
                           '--workload', 'deposit-deposit',
                           '--sessions', '2', '--txns', '1', '--seed', '0')
        # wall-clock timings are reported but are not part of the result
        summary = {k: v for k, v in json.loads(pjson).items()
                   if k != 'search_ms'}
        outputs.append((obs.read_text(), pred.read_text(), summary,
                        json.loads(vjson)))
    assert outputs[0] == outputs[1]
