"""Command-line front end.

Subcommands: observe, predict, validate, check, fuzz, render.  Exit codes:
0 success (sat for predict), 1 no prediction / violation found, 2 bad
configuration or input, 3 unknown: a timeout, or the serializability
search's state cap.
"""

import argparse
import json
import sys
import time

from . import checker, predictor, storesim, traceio
from .history import build_history, MalformedTrace
from .solver import SolverUnknown

EXIT_OK = 0
EXIT_NO = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN = 3


class ConfigError(Exception):
    pass


def _program(args):
    """The workload program of a command with workload arguments."""
    if args.sessions < 1:
        raise ConfigError('--sessions must be at least 1')
    if args.txns < 1:
        raise ConfigError('--txns must be at least 1')
    if args.script is not None:
        try:
            with open(args.script) as f:
                return storesim.parse_script(f.read())
        except OSError as e:
            raise ConfigError('cannot read script: %s' % e)
        except storesim.ScriptError as e:
            raise ConfigError('bad script: %s' % e)
    if args.workload not in storesim.BUILTIN_WORKLOADS:
        raise ConfigError('unknown workload %r' % args.workload)
    return storesim.WorkloadProgram(args.workload)


def _emit(text, path):
    if path is None or path == '-':
        sys.stdout.write(text)
    else:
        with open(path, 'w') as f:
            f.write(text)


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_trace(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError('cannot read trace: %s' % e)
    try:
        return traceio.parse_trace(text)
    except (traceio.ParseError, traceio.SemanticError) as e:
        raise ConfigError('bad trace: %s' % e)


def _load_history(path):
    try:
        return build_history(_load_trace(path))
    except MalformedTrace as e:
        raise ConfigError('bad trace: %s' % e)


def cmd_observe(args):
    trace, _history = storesim.run_workload(
        _program(args), args.sessions, args.txns, args.seed,
        storesim.ReadPolicy(storesim.LATEST_WRITER))
    _emit(traceio.emit_trace(trace), args.out)
    return EXIT_OK


def cmd_predict(args):
    history = _load_history(args.trace)
    stats = {}
    result = predictor.predict(history, args.isolation, args.strategy,
                               timeout=args.timeout, stats=stats)
    summary = {
        'status': 'sat',
        'level': args.isolation,
        'strategy': args.strategy,
        'candidates': stats['candidates'],
        'search_ms': round(stats['search_s'] * 1000.0, 3),
    }
    if isinstance(result, predictor.Unknown):
        summary['status'] = 'unknown'
        summary['reason'] = result.reason
        _print_json(summary)
        return EXIT_UNKNOWN
    if result is None:
        summary['status'] = 'unsat'
        _print_json(summary)
        return EXIT_NO
    summary['boundaries'] = {
        str(s): ('inf' if b is None else b)
        for s, b in sorted(result.boundaries.items())}
    summary['changed_reads'] = [
        {'tid': t, 'pos': p, 'key': k, 'observed': o, 'predicted': n}
        for (t, p, k, o, n) in result.changed_reads]
    _print_json(summary)
    if args.out is not None:
        _emit(traceio.emit_trace(result.to_trace()), args.out)
    if args.dot is not None:
        _emit(traceio.emit_dot(result.history,
                               highlight=result.witness_cycle), args.dot)
    return EXIT_OK


def cmd_validate(args):
    program = _program(args)
    try:
        predicted = predictor.predicted_from_trace(
            _load_trace(args.predicted), args.isolation)
    except MalformedTrace as e:
        raise ConfigError('bad predicted history: %s' % e)
    try:
        report = storesim.validate(predicted, program, args.sessions,
                                   args.txns, args.seed, args.isolation)
    except storesim.ReplayMismatch as e:
        raise ConfigError(str(e))
    _print_json({
        'outcome': report.outcome,
        'diverged': report.diverged,
        'divergences': [{'tid': t, 'key': k, 'reason': r}
                        for (t, k, r) in report.sites],
        'final_state': report.final_state,
    })
    if args.dot is not None:
        _emit(traceio.emit_dot(report.validating_history, values=True),
              args.dot)
    if args.out is not None:
        _emit(traceio.emit_trace(report.validating_trace), args.out)
    return EXIT_OK


def cmd_check(args):
    history = _load_history(args.trace)
    level = args.level
    try:
        if level == 'serializability':
            verdict = checker.check_serializable(history,
                                                 timeout=args.timeout)
        else:
            verdict = checker.conforms(history, level)
    except SolverUnknown as e:
        _print_json({'level': level, 'verdict': 'unknown', 'reason': str(e)})
        return EXIT_UNKNOWN
    out = {'level': level, 'verdict': verdict.kind}
    if verdict.order is not None:
        out['order'] = verdict.order
    if verdict.cycle is not None:
        out['cycle'] = [{'from': a, 'to': b, 'label': l}
                        for (a, b, l) in verdict.cycle]
    _print_json(out)
    if args.dot is not None:
        _emit(traceio.emit_dot(history, highlight=verdict.cycle), args.dot)
    return EXIT_OK if verdict else EXIT_NO


def cmd_fuzz(args):
    program = _program(args)
    if args.runs < 0:
        raise ConfigError('--runs must not be negative')
    deadline = (None if args.timeout is None
                else time.monotonic() + args.timeout)
    runs = []
    bad = 0
    for i in range(args.runs):
        if deadline is not None and time.monotonic() >= deadline:
            break
        seed = args.seed + i
        policy = storesim.ReadPolicy(storesim.RANDOM_WEAK, args.isolation,
                                     rng_seed=args.policy_seed + i)
        _, history = storesim.run_workload(program, args.sessions, args.txns,
                                           seed, policy)
        left = None if deadline is None else deadline - time.monotonic()
        try:
            verdict = checker.check_serializable(history, timeout=left).kind
        except SolverUnknown as e:
            if e.reason == 'timeout':
                break
            verdict = 'unknown'
        if verdict == 'unserializable':
            bad += 1
        runs.append({'seed': seed, 'verdict': verdict})
    total = len(runs)
    summary = {'runs': runs, 'unserializable': bad, 'total': total,
               'unserializable_rate': (bad / total) if total else 0.0}
    if total < args.runs:
        # the deadline passed: the runs completed before it are reported
        summary['reason'] = 'timeout'
    _print_json(summary)
    return EXIT_UNKNOWN if total < args.runs else EXIT_OK


def cmd_render(args):
    history = _load_history(args.trace)
    _emit(traceio.emit_dot(history, values=args.values), args.dot)
    return EXIT_OK


def _add_workload_args(p):
    p.add_argument('--workload', choices=storesim.BUILTIN_WORKLOADS)
    p.add_argument('--script', help='scripted workload file')
    p.add_argument('--sessions', type=int, default=2)
    p.add_argument('--txns', type=int, default=1,
                   help='transactions per session')
    p.add_argument('--seed', type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog='unserial',
        description='predict and validate unserializable executions '
                    'under weak isolation')
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('observe', help='run a workload serializably')
    _add_workload_args(p)
    p.add_argument('--out', default='-', help='trace output path')
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser('predict', help='predict an unserializable execution')
    p.add_argument('trace', help='observed trace file')
    p.add_argument('--isolation', choices=(predictor.CAUSAL,
                                           predictor.READ_COMMITTED),
                   default=predictor.CAUSAL)
    p.add_argument('--strategy', choices=predictor.STRATEGIES,
                   default=predictor.APPROX_RELAXED)
    p.add_argument('--timeout', type=float, help='seconds')
    p.add_argument('--out', help='predicted-history output path')
    p.add_argument('--dot')
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser('validate', help='replay a prediction and judge it')
    p.add_argument('predicted', help='predicted-history file')
    _add_workload_args(p)
    p.add_argument('--isolation', choices=(predictor.CAUSAL,
                                           predictor.READ_COMMITTED),
                   default=predictor.CAUSAL)
    p.add_argument('--out', help='validating trace output path')
    p.add_argument('--dot')
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser('check', help='check a trace against a level')
    p.add_argument('trace')
    p.add_argument('--level', choices=('serializability', 'causal', 'rc'),
                   default='serializability')
    p.add_argument('--timeout', type=float, help='seconds')
    p.add_argument('--dot')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser('fuzz', help='random weak executions, checked')
    _add_workload_args(p)
    p.add_argument('--runs', type=int, default=10)
    p.add_argument('--isolation', choices=(predictor.CAUSAL,
                                           predictor.READ_COMMITTED),
                   default=predictor.CAUSAL)
    p.add_argument('--policy-seed', dest='policy_seed', type=int, default=0)
    p.add_argument('--timeout', type=float, help='seconds')
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser('render', help='render a trace as DOT')
    p.add_argument('trace')
    p.add_argument('--dot', default='-', help='DOT output path')
    p.add_argument('--values', action='store_true')
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print('error: %s' % e, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print('error: %s' % e, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == '__main__':
    sys.exit(main())
