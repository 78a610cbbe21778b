"""Finite-domain constraint programs and a native backend.

The constraint language is quantifier-free: Bool variables and Enum
variables over small finite integer domains (writer choices, boundaries),
which are compared only against integer constants.  The callers ground
everything eagerly, so the backend only ever sees propositional structure.

The backend compiles programs to CNF (enum variables one-hot encoded,
comparisons against constants expanded over the domain) and runs a CDCL
search with watched literals, 1UIP learning, VSIDS, and restarts.  Every
Sat model is re-checked by the independent evaluator below before it is
returned.
"""

import time

BOOL = 'bool'


class SolverError(Exception):
    pass


class SolverUnknown(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# terms and formulas


class Var:
    __slots__ = ('name', 'sort')

    def __init__(self, name, sort):
        self.name = name
        self.sort = sort  # BOOL or tuple of ints (enum domain)

    def __repr__(self):
        return 'Var(%s)' % self.name


class Formula:
    __slots__ = ('op', 'args')

    def __init__(self, op, args):
        self.op = op
        self.args = args

    def __repr__(self):
        return '(%s %s)' % (self.op, ' '.join(repr(a) for a in self.args))


TRUE = Formula('true', ())
FALSE = Formula('false', ())


def conj(*fs):
    fs = _flat(fs)
    return Formula('and', tuple(fs))


def disj(*fs):
    fs = _flat(fs)
    return Formula('or', tuple(fs))


def _flat(fs):
    if len(fs) == 1 and isinstance(fs[0], (list, tuple)) and not isinstance(fs[0], Formula):
        return tuple(fs[0])
    return fs


def neg(f):
    return Formula('not', (f,))


def implies(a, b):
    return Formula('implies', (a, b))


def eq(a, b):
    return Formula('eq', (a, b))


def lt(a, b):
    return Formula('lt', (a, b))


def le(a, b):
    return Formula('le', (a, b))


def _is_arith(x):
    return isinstance(x, int) or (isinstance(x, Var) and x.sort != BOOL)


class Program:
    """Declarations, asserted formulas, and symbol metadata."""

    def __init__(self):
        self.vars = {}
        self.assertions = []
        self.metadata = {}

    def _declare(self, name, sort):
        if name in self.vars:
            raise SolverError('duplicate declaration: %s' % name)
        v = Var(name, sort)
        self.vars[name] = v
        return v

    def bool_var(self, name):
        return self._declare(name, BOOL)

    def enum_var(self, name, domain):
        domain = tuple(domain)
        if not domain:
            raise SolverError('empty enum domain for %s' % name)
        return self._declare(name, domain)

    def add(self, formula):
        self.assertions.append(formula)


class Model:
    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        if isinstance(key, Var):
            key = key.name
        return self.values[key]

    def get(self, key, default=None):
        if isinstance(key, Var):
            key = key.name
        return self.values.get(key, default)


class Result:
    def __init__(self, status, model=None, reason=None, stats=None):
        self.status = status  # 'sat' | 'unsat' | 'unknown'
        self.model = model
        self.reason = reason
        self.stats = stats or {}


# ---------------------------------------------------------------------------
# independent model evaluator


def _aeval(x, model):
    if isinstance(x, int):
        return x
    if isinstance(x, Var):
        return model[x.name]
    raise SolverError('bad arithmetic term %r' % (x,))


def evaluate(f, model):
    """Truth value of f; model maps variable names to values (a Model or
    a plain dict)."""
    if isinstance(f, Var):
        return bool(model[f.name])
    op = f.op
    # plain loops: this runs over every assertion on each sat result
    if op == 'and':
        for a in f.args:
            if not evaluate(a, model):
                return False
        return True
    if op == 'or':
        for a in f.args:
            if evaluate(a, model):
                return True
        return False
    if op == 'true':
        return True
    if op == 'false':
        return False
    if op == 'not':
        return not evaluate(f.args[0], model)
    if op == 'implies':
        return (not evaluate(f.args[0], model)) or evaluate(f.args[1], model)
    if op == 'eq':
        a, b = f.args
        if _is_arith(a) and _is_arith(b):
            return _aeval(a, model) == _aeval(b, model)
        return evaluate(a, model) == evaluate(b, model)
    if op == 'lt':
        return _aeval(f.args[0], model) < _aeval(f.args[1], model)
    if op == 'le':
        return _aeval(f.args[0], model) <= _aeval(f.args[1], model)
    raise SolverError('unknown op %s' % op)


# ---------------------------------------------------------------------------
# CDCL core


class _Sat:
    def __init__(self):
        self.nvars = 0
        self.assign = []      # var -> 1 true, 0 false, -1 undef
        self.level = []
        self.reason = []
        self.phase = []
        self.activity = []
        self.heap = []        # indexed max-heap of vars by activity
        self.heap_pos = []
        self.watches = []     # lit -> list of clauses
        self.clauses = []
        self.literals = 0     # sum of clause lengths, kept by add_clause
        self.learnts = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self._seen = []
        self.var_inc = 1.0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.decidable = []   # gates are implied, never decided or heaped
        self.decide_first = []  # vars tried before the activity heap
        self.first_free = 0     # decide_first[:first_free] are assigned

    def new_var(self, decidable=True):
        v = self.nvars
        self.nvars += 1
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(False)
        self.activity.append(0.0)
        self.heap_pos.append(-1)
        self._seen.append(False)
        self.decidable.append(decidable)
        self.watches.append([])
        self.watches.append([])
        if decidable:
            self._heap_insert(v)
        return v

    # --- activity heap -----------------------------------------------------
    def _heap_swap(self, i, j):
        h = self.heap
        h[i], h[j] = h[j], h[i]
        self.heap_pos[h[i]] = i
        self.heap_pos[h[j]] = j

    def _heap_up(self, i):
        h, act = self.heap, self.activity
        while i > 0:
            p = (i - 1) >> 1
            if act[h[i]] > act[h[p]] or (act[h[i]] == act[h[p]] and h[i] < h[p]):
                self._heap_swap(i, p)
                i = p
            else:
                break

    def _heap_down(self, i):
        h, act = self.heap, self.activity
        n = len(h)
        while True:
            l, r = 2 * i + 1, 2 * i + 2
            best = i
            if l < n and (act[h[l]] > act[h[best]] or
                          (act[h[l]] == act[h[best]] and h[l] < h[best])):
                best = l
            if r < n and (act[h[r]] > act[h[best]] or
                          (act[h[r]] == act[h[best]] and h[r] < h[best])):
                best = r
            if best == i:
                break
            self._heap_swap(i, best)
            i = best

    def _heap_insert(self, v):
        if self.heap_pos[v] != -1:
            return
        self.heap.append(v)
        self.heap_pos[v] = len(self.heap) - 1
        self._heap_up(len(self.heap) - 1)

    def _heap_pop(self):
        h = self.heap
        v = h[0]
        last = h.pop()
        self.heap_pos[v] = -1
        if h:
            h[0] = last
            self.heap_pos[last] = 0
            self._heap_down(0)
        return v

    def bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(self.nvars):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        if self.heap_pos[v] != -1:
            self._heap_up(self.heap_pos[v])

    # --- clauses -----------------------------------------------------------
    def add_clause(self, lits):
        if not self.ok:
            return
        out = []
        seen = set()
        for l in lits:
            if l in seen:
                continue
            if l ^ 1 in seen:
                return  # tautology
            val = self._lit_value(l)
            if val == 1 and self.level[l >> 1] == 0:
                return  # satisfied at top level
            if val == 0 and self.level[l >> 1] == 0:
                continue  # falsified at top level
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            return
        self.clauses.append(out)
        self.literals += len(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    def add_blocking_clause(self, lits):
        """Add a clause that the assignment in hand falsifies.

        Backjumps only as far as the clause needs: to the level where it
        becomes unit, which it then propagates, or below its top level when
        two of its literals share that level.  An enumeration keeps the
        decisions below the level it blocks instead of redoing them.
        """
        if not self.ok:
            return
        level = self.level
        lits = sorted(set(lits), key=lambda l: level[l >> 1], reverse=True)
        second = level[lits[1] >> 1] if len(lits) > 1 else 0
        if second == 0 or any(self._lit_value(l) != 0 for l in lits):
            self._cancel_until(0)
            self.add_clause(lits)
            return
        top = level[lits[0] >> 1]
        self._cancel_until(top - 1 if second == top else second)
        self.clauses.append(lits)
        self.literals += len(lits)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)
        if second < top:
            self._enqueue(lits[0], lits)

    def _lit_value(self, l):
        a = self.assign[l >> 1]
        if a == -1:
            return -1
        return a ^ (l & 1)

    def _enqueue(self, l, reason):
        v = l >> 1
        if self.assign[v] != -1:
            return self._lit_value(l) == 1
        self.assign[v] = 1 - (l & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = not (l & 1)
        self.trail.append(l)
        return True

    def propagate(self):
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            falsified = p ^ 1
            ws = self.watches[falsified]
            i = 0
            j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self._lit_value(first) == 1:
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self._lit_value(c[k]) != 0:
                        c[1], c[k] = c[k], c[1]
                        self.watches[c[1]].append(c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if not self._enqueue(first, c):
                    # conflict: keep remaining watches, return clause
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    return c
            del ws[j:]
        return None

    # --- search ------------------------------------------------------------
    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            l = self.trail[i]
            v = l >> 1
            self.assign[v] = -1
            self.reason[v] = None
            if self.decidable[v]:
                self._heap_insert(v)
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.first_free = 0
        self.qhead = bound

    def _analyze(self, confl):
        learnt = [0]
        seen = self._seen
        touched = []
        counter = 0
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        lits = confl
        while True:
            for q in lits:
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    self.bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            plit = self.trail[index]
            v = plit >> 1
            index -= 1
            counter -= 1
            seen[v] = False
            if counter == 0:
                learnt[0] = plit ^ 1
                break
            # skip the implied literal (position 0 of its reason clause)
            lits = self.reason[v][1:]
        for v in touched:
            seen[v] = False
        if len(learnt) == 1:
            bt = 0
        else:
            # move a max-level literal to position 1
            mi = 1
            for i in range(2, len(learnt)):
                if self.level[learnt[i] >> 1] > self.level[learnt[mi] >> 1]:
                    mi = i
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bt = self.level[learnt[1] >> 1]
        return learnt, bt

    def _record(self, learnt):
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.learnts.append(learnt)
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    def _decide(self):
        """Next decision literal, or None when every variable is assigned.

        Listed atoms always go positive, whatever their saved phase: with a
        fixed order and polarity, the first model found (and, with blocking
        clauses, each next one) is the lexicographically first over them.
        """
        first, n = self.decide_first, len(self.decide_first)
        while self.first_free < n:
            v = first[self.first_free]
            if self.assign[v] == -1:
                return 2 * v
            self.first_free += 1
        while self.heap:
            v = self._heap_pop()
            if self.assign[v] == -1:
                return 2 * v + (0 if self.phase[v] else 1)
        return None

    def solve(self, deadline=None, conflict_limit=None, decision_limit=None):
        if not self.ok:
            return 'unsat'
        restart_base = self.conflicts
        restart_limit = 150
        restarts = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return 'unsat'
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record(learnt)
                self.var_inc /= 0.95
                if conflict_limit is not None and self.conflicts >= conflict_limit:
                    return 'unknown'
                if deadline is not None and self.conflicts % 128 == 0 \
                        and time.monotonic() > deadline:
                    return 'unknown'
                if self.conflicts - restart_base >= restart_limit * (restarts + 1):
                    restarts += 1
                    restart_limit = int(restart_limit * 1.3) + 1
                    self._cancel_until(0)
            else:
                lit = self._decide()
                if lit is None:
                    return 'sat'
                if decision_limit is not None and self.decisions >= decision_limit:
                    self._heap_insert(lit >> 1)
                    return 'unknown'
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)


# ---------------------------------------------------------------------------
# compilation


class _Compiler:
    def __init__(self, program):
        self.program = program
        self.sat = _Sat()
        t = self.sat.new_var()
        self.true_lit = 2 * t
        self.sat.add_clause([self.true_lit])
        self.false_lit = self.true_lit ^ 1
        self.bool_atom = {}
        self.enum_atom = {}
        self.cache = {}
        bias = 0.001
        n = len(program.vars)
        for i, v in enumerate(program.vars.values()):
            if v.sort == BOOL:
                self.bool_atom[v.name] = self.sat.new_var()
            else:
                ohs = []
                for val in v.sort:
                    sv = self.sat.new_var()
                    self.sat.activity[sv] = bias * (n - i)
                    self.sat._heap_up(self.sat.heap_pos[sv])
                    self.enum_atom[(v.name, val)] = sv
                    ohs.append(2 * sv)
                self.sat.add_clause(list(ohs))
                for x in range(len(ohs)):
                    for y in range(x + 1, len(ohs)):
                        self.sat.add_clause([ohs[x] ^ 1, ohs[y] ^ 1])
        # decision order hint: listed enum vars are branched on first, in
        # domain order with the value-atom always tried positively
        for name in program.metadata.get('decide_first', ()):
            v = program.vars.get(name)
            if v is None or v.sort == BOOL:
                continue
            self.sat.decide_first.extend(self.enum_atom[(name, val)]
                                         for val in v.sort)

    def _make_and(self, lits):
        out = []
        seen = set()
        for l in lits:
            if l == self.true_lit:
                continue
            if l == self.false_lit:
                return self.false_lit
            if l in seen:
                continue
            if l ^ 1 in seen:
                return self.false_lit
            seen.add(l)
            out.append(l)
        if not out:
            return self.true_lit
        if len(out) == 1:
            return out[0]
        key = ('and', tuple(sorted(out)))
        if key in self.cache:
            return self.cache[key]
        g = 2 * self.sat.new_var(decidable=False)
        for l in out:
            self.sat.add_clause([g ^ 1, l])
        self.sat.add_clause([g] + [l ^ 1 for l in out])
        self.cache[key] = g
        return g

    def _make_or(self, lits):
        return self._make_and([l ^ 1 for l in lits]) ^ 1

    def _arith_kind(self, x):
        if isinstance(x, int):
            return ('const', x)
        if isinstance(x, Var) and x.sort != BOOL:
            return ('enum', x)
        raise SolverError('bad arithmetic operand %r' % (x,))

    def _compile_lt(self, a, b):
        ka, va = self._arith_kind(a)
        kb, vb = self._arith_kind(b)
        if ka == 'const' and kb == 'const':
            return self.true_lit if va < vb else self.false_lit
        if ka == 'enum' and kb == 'const':
            return self._make_or([2 * self.enum_atom[(va.name, v)]
                                  for v in va.sort if v < vb])
        if ka == 'const' and kb == 'enum':
            return self._make_or([2 * self.enum_atom[(vb.name, v)]
                                  for v in vb.sort if v > va])
        raise SolverError('unsupported comparison %r < %r' % (a, b))

    def _compile_eq_arith(self, a, b):
        ka, va = self._arith_kind(a)
        kb, vb = self._arith_kind(b)
        if ka == 'const' and kb == 'const':
            return self.true_lit if va == vb else self.false_lit
        if ka == 'enum' and kb == 'const':
            sv = self.enum_atom.get((va.name, vb))
            return self.false_lit if sv is None else 2 * sv
        if ka == 'const' and kb == 'enum':
            return self._compile_eq_arith(b, a)
        raise SolverError('unsupported equality %r = %r' % (a, b))

    def compile(self, f):
        if isinstance(f, Var):
            if f.sort != BOOL:
                raise SolverError('%s used as a formula' % f.name)
            return 2 * self.bool_atom[f.name]
        op = f.op
        if op == 'true':
            return self.true_lit
        if op == 'false':
            return self.false_lit
        if op == 'not':
            return self.compile(f.args[0]) ^ 1
        if op == 'and':
            return self._make_and([self.compile(a) for a in f.args])
        if op == 'or':
            return self._make_or([self.compile(a) for a in f.args])
        if op == 'implies':
            return self._make_or([self.compile(f.args[0]) ^ 1,
                                  self.compile(f.args[1])])
        if op == 'eq':
            a, b = f.args
            if _is_arith(a) and _is_arith(b):
                return self._compile_eq_arith(a, b)
            la, lb = self.compile(a), self.compile(b)
            return self._make_and([self._make_or([la ^ 1, lb]),
                                   self._make_or([lb ^ 1, la])])
        if op == 'lt':
            return self._compile_lt(f.args[0], f.args[1])
        if op == 'le':
            return self._compile_lt(f.args[1], f.args[0]) ^ 1
        raise SolverError('unknown op %s' % op)

    def assert_all(self):
        stack = list(self.program.assertions)
        while stack:
            f = stack.pop()
            if isinstance(f, Formula) and f.op == 'and':
                stack.extend(f.args)
                continue
            self.sat.add_clause([self.compile(f)])

    def extract_model(self):
        sat = self.sat
        values = {}
        for name, v in self.program.vars.items():
            if v.sort == BOOL:
                values[name] = sat.assign[self.bool_atom[name]] == 1
            else:
                for val in v.sort:
                    if sat.assign[self.enum_atom[(name, val)]] == 1:
                        values[name] = val
                        break
                else:
                    raise SolverError('no value selected for %s' % name)
        return Model(values)


def _finish(comp, program, status, deadline, t0, blocked=None):
    stats = {
        'literals': comp.sat.literals,
        'clauses': len(comp.sat.clauses),
        'conflicts': comp.sat.conflicts,
        'decisions': comp.sat.decisions,
        'solve_s': time.monotonic() - t0,
    }
    if status == 'unknown':
        reason = 'timeout' if deadline is not None and \
            time.monotonic() > deadline else 'resource-limit'
        return Result('unknown', reason=reason, stats=stats)
    if status == 'unsat':
        return Result('unsat', stats=stats)
    model = comp.extract_model()
    values = model.values
    for f in program.assertions:
        if not evaluate(f, values):
            raise SolverError('model fails re-evaluation: %r' % (f,))
    for names, seen in (blocked or {}).items():
        if tuple(values[n] for n in names) in seen:
            raise SolverError('model repeats a blocked assignment to %s'
                              % (names,))
    return Result('sat', model=model, stats=stats)


def check_sat(program, timeout=None, conflict_limit=None, decision_limit=None,
              seed=0):
    """Solve a program.  Returns Result('sat'|'unsat'|'unknown', ...)."""
    t0 = time.monotonic()
    comp = _Compiler(program)
    comp.assert_all()
    deadline = None if timeout is None else t0 + timeout
    status = comp.sat.solve(deadline=deadline, conflict_limit=conflict_limit,
                            decision_limit=decision_limit)
    return _finish(comp, program, status, deadline, t0)


class Incremental:
    """Compile once, then solve repeatedly while adding constraints.

    Learned clauses, activities, and phases persist across calls, which
    makes model-enumeration loops (blocking clause per model) much cheaper
    than recompiling the program every round.  With a `decide_first` hint,
    the enumeration yields models in lexicographic order over the listed
    enum variables, each in its domain order.
    """

    def __init__(self, program):
        self.program = program
        self.comp = _Compiler(program)
        self.comp.assert_all()
        # symbol-name tuple -> set of blocked value tuples; the model
        # re-check looks a model up here instead of evaluating one
        # blocking formula per round
        self.blocked = {}

    def block(self, symbols, model):
        """Forbid the model's assignment to the given enum/bool symbols.

        Called right after the check that returned the model, it keeps the
        search state below the blocked decisions for the next check.
        """
        names = tuple(s if isinstance(s, str) else s.name for s in symbols)
        values = tuple(model[n] for n in names)
        self.blocked.setdefault(names, set()).add(values)
        comp = self.comp
        clause = []
        for n, val in zip(names, values):
            if self.program.vars[n].sort == BOOL:
                clause.append(2 * comp.bool_atom[n] ^ bool(val))
            else:
                clause.append(2 * comp.enum_atom[(n, val)] ^ 1)
        comp.sat.add_blocking_clause(clause)

    def check(self, timeout=None):
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        status = self.comp.sat.solve(deadline=deadline)
        return _finish(self.comp, self.program, status, deadline, t0,
                       self.blocked)
