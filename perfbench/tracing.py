"""Spans around the library's public functions, installed from outside.

`install` replaces each traced function on its module (or class) with a
wrapper that records a span, and returns a handle whose `remove` puts every
original back.  Nothing in `src/` changes.  Consecutive calls of one
function under the same parent coalesce into one span that counts its calls
and sums its busy time, so hot callees (the model re-check, conformance
checks inside `legal_writers`) stay cheap to record and small to keep.

A span holds: name, start, end, busy seconds, calls, parent span and
operation id.  Self time is busy time minus the busy time of child spans.
"""

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

perf = time.perf_counter


class Span:
    __slots__ = ('id', 'name', 'start', 'end', 'busy', 'calls', 'parent',
                 'op', 'child_busy', 'last_child', '_t')

    def __init__(self, id, name, parent, op, now):
        self.id = id
        self.name = name
        self.start = now
        self.end = now
        self.busy = 0.0
        self.calls = 0
        self.parent = parent
        self.op = op
        self.child_busy = 0.0
        self.last_child = None
        self._t = now

    @property
    def self_s(self):
        return self.busy - self.child_busy

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class Tracer:
    """In-memory span recorder; records only while an operation is open."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        # (conflicts, decisions, clauses, literals, budget_exhausted) per
        # solver call
        self.solves = []
        self._inc_prev = weakref.WeakKeyDictionary()

    def enter(self, name):
        now = perf()
        parent = self.stack[-1]
        last = parent.last_child
        if last is not None and last.name == name:
            span = last
            span._t = now
        else:
            span = Span(len(self.spans), name, parent, self.op, now)
            self.spans.append(span)
            parent.last_child = span
        self.stack.append(span)
        return span

    def exit(self, span):
        now = perf()
        d = now - span._t
        span.busy += d
        span.calls += 1
        span.end = now
        self.stack.pop()
        span.parent.child_busy += d

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        root = Span(len(self.spans), 'op', None, op_id, perf())
        self.spans.append(root)
        self.stack = [root]
        return root

    def end_op(self, root):
        now = perf()
        root.busy = now - root.start
        root.end = now
        root.calls = 1
        self.stack = []
        self.op = None

    def note_solve(self, stats, exhausted, incremental=None):
        conflicts, decisions = stats['conflicts'], stats['decisions']
        if incremental is not None:
            # Incremental results report totals since construction
            pc, pd = self._inc_prev.get(incremental, (0, 0))
            self._inc_prev[incremental] = (conflicts, decisions)
            conflicts, decisions = conflicts - pc, decisions - pd
        self.solves.append((conflicts, decisions, stats['clauses'],
                            stats['literals'], exhausted))

    def write(self, path):
        with open(path, 'w') as f:
            for s in self.spans:
                f.write(json.dumps({
                    'id': s.id, 'name': s.name, 'op': s.op,
                    'parent': None if s.parent is None else s.parent.id,
                    'start': s.start, 'end': s.end, 'busy': s.busy,
                    'calls': s.calls, 'self': s.self_s}) + '\n')


def _limited(kwargs):
    return (kwargs.get('conflict_limit') is not None
            or kwargs.get('decision_limit') is not None)


def _wrapper(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


class Installed:
    """Handle for installed wrappers; `remove` restores every original."""

    def __init__(self):
        self.saved = []    # (owner, attribute, original)

    def put(self, owner, attr, new):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []


def install(tracer):
    """Wrap the traced public functions of every library module."""
    solver = sys.modules['unserial.solver']
    checker = sys.modules['unserial.checker']
    predictor = sys.modules['unserial.predictor']
    storesim = sys.modules['unserial.storesim']
    history = sys.modules['unserial.history']
    traceio = sys.modules['unserial.traceio']
    h = Installed()

    def wrap(owner, attr, name, after=None):
        h.put(owner, attr, _wrapper(tracer, name, owner.__dict__[attr], after))

    def after_check_sat(args, kwargs, res):
        tracer.note_solve(res.stats,
                          res.status == 'unknown' and _limited(kwargs))

    def after_inc_check(args, kwargs, res):
        tracer.note_solve(res.stats,
                          res.status == 'unknown' and _limited(kwargs),
                          incremental=args[0])

    wrap(solver, 'check_sat', 'solver.check_sat', after_check_sat)
    wrap(solver.Incremental, '__init__', 'solver.Incremental.__init__')
    wrap(solver.Incremental, 'check', 'solver.Incremental.check',
         after_inc_check)
    wrap(solver.Incremental, 'block', 'solver.Incremental.block')

    # evaluate recurses through its module global: only the outermost call
    # is a span, and the recursion runs unwrapped
    evaluate = solver.evaluate

    def outer_evaluate(f, model):
        if tracer.op is None:
            return evaluate(f, model)
        solver.evaluate = evaluate
        span = tracer.enter('solver.evaluate')
        try:
            return evaluate(f, model)
        finally:
            tracer.exit(span)
            solver.evaluate = outer_evaluate
    h.put(solver, 'evaluate', outer_evaluate)

    for fn in ('check_serializable', 'check_causal', 'check_rc'):
        wrap(checker, fn, 'checker.' + fn)
    for fn in ('predict', 'gen_feasibility', 'gen_isolation',
               'gen_unser_approx', 'extract_predicted_history'):
        wrap(predictor, fn, 'predictor.' + fn)
    wrap(predictor.PredictionVars, '__init__',
         'predictor.PredictionVars.__init__')
    for fn in ('run_workload', 'legal_writers', 'validate'):
        wrap(storesim, fn, 'storesim.' + fn)
    # storesim calls the build_history it imported by name
    wrap(storesim, 'build_history', 'history.build_history')
    wrap(history, 'build_history', 'history.build_history')
    wrap(history.ExecutionHistory, 'hb', 'history.ExecutionHistory.hb')
    wrap(traceio, 'emit_trace', 'traceio.emit_trace')
    wrap(traceio, 'parse_trace', 'traceio.parse_trace')
    return h


# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ('solver.check_sat.calls', 'count', 'lower'),
    ('solver.check_sat.self_s', 's', 'lower'),
    ('solver.incremental.compile_s', 's', 'lower'),
    ('solver.incremental.checks', 'count', 'lower'),
    ('solver.incremental.self_s', 's', 'lower'),
    ('solver.recheck_s', 's', 'lower'),
    ('solver.conflicts', 'count', 'lower'),
    ('solver.decisions', 'count', 'lower'),
    ('solver.clauses.max', 'count', 'lower'),
    ('solver.literals.max', 'count', 'lower'),
    ('solver.budget_exhausted', 'count', 'lower'),
    ('checker.serializable.calls', 'count', 'lower'),
    ('checker.serializable.self_s', 's', 'lower'),
    ('checker.serializable.total_s', 's', 'lower'),
    ('checker.conformance.calls', 'count', 'lower'),
    ('checker.conformance_s', 's', 'lower'),
    ('predictor.predict_s', 's', 'lower'),
    ('predictor.encode_s', 's', 'lower'),
    ('predictor.extract.calls', 'count', 'lower'),
    ('predictor.extract_s', 's', 'lower'),
    ('predictor.candidates', 'count', 'lower'),
    ('predictor.blocks', 'count', 'lower'),
    ('predictor.fallback_ops', 'count', 'lower'),
    ('predictor.minimise_solves', 'count', 'lower'),
    ('storesim.observe_s', 's', 'lower'),
    ('storesim.fuzz_run.self_s', 's', 'lower'),
    ('storesim.legal_writers.calls', 'count', 'lower'),
    ('storesim.legal_writers.self_s', 's', 'lower'),
    ('storesim.validate.calls', 'count', 'lower'),
    ('storesim.validate_s', 's', 'lower'),
    ('storesim.validated', 'count', 'higher'),
    ('storesim.fuzz_unserializable', 'count', 'higher'),
    ('storesim.fuzz_crashes', 'count', 'lower'),
    ('storesim.fuzz_illegal', 'count', 'lower'),
    ('history.build_s', 's', 'lower'),
    ('history.hb_s', 's', 'lower'),
    ('traceio.emit_s', 's', 'lower'),
    ('traceio.parse_s', 's', 'lower'),
    ('trace.spans', 'count', 'lower'),
    ('trace.overhead_s', 's', 'lower'),
]

# counters that must repeat exactly between two traced passes
DETERMINISTIC = ('solver.conflicts', 'solver.decisions',
                 'predictor.candidates', 'checker.serializable.calls',
                 'storesim.fuzz_unserializable', 'storesim.fuzz_crashes',
                 'storesim.fuzz_illegal')


def layer_metrics(tracer, approx_ops, fuzz):
    """Per-layer metrics of one traced pass, from its spans and solves.

    approx_ops: ids of operations that ran an approximate strategy.
    fuzz: whether the top-level `run_workload` calls are fuzz runs.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += s.calls
        busy[s.name] += s.busy
        self_s[s.name] += s.self_s

    def under(span, prefix):
        return any(a.name.startswith(prefix) for a in span.ancestors())

    top_runs = [s for s in tracer.spans if s.name == 'storesim.run_workload'
                and s.parent.name == 'op']
    fallback = {s.op for s in tracer.spans
                if s.name == 'solver.Incremental.__init__'}
    solved = set()   # approx operations whose first solve was seen
    minimise = 0
    for s in tracer.spans:
        if (s.name == 'solver.check_sat' and s.op in approx_ops
                and under(s, 'predictor.predict')
                and not under(s, 'checker.')):
            minimise += s.calls - (s.op not in solved)
            solved.add(s.op)
    incremental = ('solver.Incremental.check', 'solver.Incremental.block')
    return {
        'solver.check_sat.calls': calls['solver.check_sat'],
        'solver.check_sat.self_s': self_s['solver.check_sat'],
        'solver.incremental.compile_s': busy['solver.Incremental.__init__'],
        'solver.incremental.checks': calls['solver.Incremental.check'],
        'solver.incremental.self_s': sum(self_s[n] for n in incremental),
        'solver.recheck_s': busy['solver.evaluate'],
        'solver.conflicts': sum(x[0] for x in tracer.solves),
        'solver.decisions': sum(x[1] for x in tracer.solves),
        'solver.clauses.max': max((x[2] for x in tracer.solves), default=0),
        'solver.literals.max': max((x[3] for x in tracer.solves), default=0),
        'solver.budget_exhausted': sum(x[4] for x in tracer.solves),
        'checker.serializable.calls': calls['checker.check_serializable'],
        'checker.serializable.self_s': self_s['checker.check_serializable'],
        'checker.serializable.total_s': busy['checker.check_serializable'],
        'checker.conformance.calls': (calls['checker.check_causal']
                                      + calls['checker.check_rc']),
        'checker.conformance_s': (busy['checker.check_causal']
                                  + busy['checker.check_rc']),
        'predictor.predict_s': busy['predictor.predict'],
        'predictor.encode_s': sum(busy[n] for n in (
            'predictor.PredictionVars.__init__', 'predictor.gen_feasibility',
            'predictor.gen_isolation', 'predictor.gen_unser_approx')),
        'predictor.extract.calls': calls['predictor.extract_predicted_history'],
        'predictor.extract_s': busy['predictor.extract_predicted_history'],
        'predictor.candidates': sum(
            s.calls for s in tracer.spans
            if s.name == 'solver.Incremental.check'
            and under(s, 'predictor.predict')),
        'predictor.blocks': sum(
            s.calls for s in tracer.spans
            if s.name == 'solver.Incremental.block'
            and under(s, 'predictor.predict')),
        'predictor.fallback_ops': len(fallback & set(approx_ops)),
        'predictor.minimise_solves': minimise,
        'storesim.observe_s': 0.0 if fuzz else sum(s.busy for s in top_runs),
        'storesim.fuzz_run.self_s': (sum(s.self_s for s in top_runs)
                                     if fuzz else 0.0),
        'storesim.legal_writers.calls': calls['storesim.legal_writers'],
        'storesim.legal_writers.self_s': self_s['storesim.legal_writers'],
        'storesim.validate.calls': calls['storesim.validate'],
        'storesim.validate_s': busy['storesim.validate'],
        'history.build_s': busy['history.build_history'],
        'history.hb_s': busy['history.ExecutionHistory.hb'],
        'traceio.emit_s': busy['traceio.emit_trace'],
        'traceio.parse_s': busy['traceio.parse_trace'],
        'trace.spans': len(tracer.spans),
    }
