"""Finite-domain constraint programs and a native backend.

The constraint language is quantifier-free: Bool variables, Int variables
constrained only by order comparisons (rank, commit orders), and Enum
variables over small finite integer domains (writer choices, boundaries).
Functions are grounded eagerly to one variable per argument tuple by the
callers, so the backend only ever sees propositional structure plus
comparisons.

The backend compiles programs to CNF (enum variables one-hot encoded,
comparisons against constants expanded over the domain) and runs a CDCL
search with watched literals, 1UIP learning, VSIDS, and restarts.  Order
comparisons between Int variables become theory atoms: asserted atoms form
a constraint graph whose strict cycles are conflicts, explained back to the
SAT core as learned clauses.  Every Sat model is re-checked by the
independent evaluator below before it is returned.
"""

import time

BOOL = 'bool'
INT = 'int'


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
        self.sort = sort  # BOOL, INT, or tuple of ints (enum domain)

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


def distinct(*vs):
    return Formula('distinct', tuple(_flat(vs)))


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

    def int_var(self, name):
        return self._declare(name, INT)

    def enum_var(self, name, domain):
        domain = tuple(domain)
        if not domain:
            raise SolverError('empty enum domain for %s' % name)
        return self._declare(name, domain)

    def add(self, formula):
        self.assertions.append(formula)

    def copy(self):
        p = Program()
        p.vars = dict(self.vars)
        p.assertions = list(self.assertions)
        p.metadata = dict(self.metadata)
        return p


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
    if isinstance(f, Var):
        return bool(model[f.name])
    op = f.op
    if op == 'true':
        return True
    if op == 'false':
        return False
    if op == 'not':
        return not evaluate(f.args[0], model)
    if op == 'and':
        return all(evaluate(a, model) for a in f.args)
    if op == 'or':
        return any(evaluate(a, model) for a in f.args)
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
    if op == 'distinct':
        vals = [_aeval(a, model) for a in f.args]
        return len(set(vals)) == len(vals)
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
        # theory: order atoms
        self.order_edge = {}  # var -> (a, b) meaning var true <=> a < b
        self.adj = {}         # node -> list of (dst, strict, lit)
        self.edge_src = {}    # var -> src node while in graph
        self.tqhead = 0

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

    # --- theory of integer order atoms --------------------------------------
    def theory_check(self):
        while self.tqhead < len(self.trail):
            l = self.trail[self.tqhead]
            self.tqhead += 1
            v = l >> 1
            pair = self.order_edge.get(v)
            if pair is None:
                continue
            a, b = pair
            if l & 1:
                src, dst, strict = b, a, False  # not(a<b)  =>  b <= a
            else:
                src, dst, strict = a, b, True
            confl = self._find_cycle(src, dst, strict, l)
            self.adj.setdefault(src, []).append((dst, strict, l))
            self.edge_src[v] = src
            if confl is not None:
                return confl
        return None

    def _find_cycle(self, src, dst, strict, lit):
        # a path dst -> src closes a cycle with the new edge; the cycle is a
        # conflict iff it contains a strict edge (integers cannot satisfy it)
        start = (dst, strict)
        parents = {start: None}
        queue = [start]
        qi = 0
        goal = None
        while qi < len(queue):
            node, s = queue[qi]
            qi += 1
            if node == src and s:
                goal = (node, s)
                break
            for (nxt, estrict, elit) in self.adj.get(node, ()):
                state = (nxt, s or estrict)
                if state not in parents:
                    parents[state] = ((node, s), elit)
                    queue.append(state)
        if goal is None:
            return None
        lits = [lit]
        state = goal
        while parents[state] is not None:
            state, elit = parents[state]
            lits.append(elit)
        return [x ^ 1 for x in lits]

    # --- search ------------------------------------------------------------
    def _cancel_until(self, lvl):
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            l = self.trail[i]
            v = l >> 1
            if v in self.edge_src:
                self.adj[self.edge_src.pop(v)].pop()
            self.assign[v] = -1
            self.reason[v] = None
            if self.decidable[v]:
                self._heap_insert(v)
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = bound
        if self.tqhead > bound:
            self.tqhead = bound

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
        for v in self.decide_first:
            if self.assign[v] == -1:
                return v
        while self.heap:
            v = self._heap_pop()
            if self.assign[v] == -1:
                return v
        return None

    def solve(self, deadline=None, conflict_limit=None, decision_limit=None):
        if not self.ok:
            return 'unsat'
        restart_base = self.conflicts
        restart_limit = 150
        restarts = 0
        while True:
            confl = self.propagate()
            if confl is None:
                confl = self.theory_check()
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
                v = self._decide()
                if v is None:
                    return 'sat'
                if decision_limit is not None and self.decisions >= decision_limit:
                    self._heap_insert(v)
                    return 'unknown'
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(2 * v + (0 if self.phase[v] else 1), None)


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
        self.order_vars = []
        self.cache = {}
        bias = 0.001
        n = len(program.vars)
        for i, v in enumerate(program.vars.values()):
            if v.sort == BOOL:
                self.bool_atom[v.name] = self.sat.new_var()
            elif v.sort == INT:
                self.order_vars.append(v.name)
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
        # domain order with the value-atom tried positively
        for name in program.metadata.get('decide_first', ()):
            v = program.vars.get(name)
            if v is None or v.sort in (BOOL, INT):
                continue
            for val in v.sort:
                sv = self.enum_atom[(name, val)]
                self.sat.decide_first.append(sv)
                self.sat.phase[sv] = True

    def _order_atom(self, a, b):
        key = (a, b)
        sat = self.sat
        if key in self.cache:
            return self.cache[key]
        sv = sat.new_var()
        sat.order_edge[sv] = (a, b)
        self.cache[key] = 2 * sv
        return 2 * sv

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
        if isinstance(x, Var):
            if x.sort == INT:
                return ('order', x.name)
            if x.sort != BOOL:
                return ('enum', x)
        raise SolverError('bad arithmetic operand %r' % (x,))

    def _compile_lt(self, a, b):
        ka, va = self._arith_kind(a)
        kb, vb = self._arith_kind(b)
        if ka == 'const' and kb == 'const':
            return self.true_lit if va < vb else self.false_lit
        if ka == 'order' and kb == 'order':
            return self._order_atom(va, vb)
        if ka == 'enum' and kb == 'const':
            return self._make_or([2 * self.enum_atom[(va.name, v)]
                                  for v in va.sort if v < vb])
        if ka == 'const' and kb == 'enum':
            return self._make_or([2 * self.enum_atom[(vb.name, v)]
                                  for v in vb.sort if v > va])
        if ka == 'enum' and kb == 'enum':
            lits = []
            for x in va.sort:
                for y in vb.sort:
                    if x < y:
                        lits.append(self._make_and(
                            [2 * self.enum_atom[(va.name, x)],
                             2 * self.enum_atom[(vb.name, y)]]))
            return self._make_or(lits)
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
        if ka == 'enum' and kb == 'enum':
            lits = []
            for v in va.sort:
                if v in vb.sort:
                    lits.append(self._make_and(
                        [2 * self.enum_atom[(va.name, v)],
                         2 * self.enum_atom[(vb.name, v)]]))
            return self._make_or(lits)
        if ka == 'order' and kb == 'order':
            return self._make_and([self._order_atom(va, vb) ^ 1,
                                   self._order_atom(vb, va) ^ 1])
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
        if op == 'distinct':
            lits = []
            args = f.args
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    lits.append(self._compile_eq_arith(args[i], args[j]) ^ 1)
            return self._make_and(lits)
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
            elif v.sort == INT:
                values[name] = 0  # filled below
            else:
                for val in v.sort:
                    if sat.assign[self.enum_atom[(name, val)]] == 1:
                        values[name] = val
                        break
                else:
                    raise SolverError('no value selected for %s' % name)
        # order variables: longest-path levels over the asserted edges
        nodes = {n: 0 for n in self.order_vars}
        edges = []
        for src, lst in sat.adj.items():
            for (dst, strict, _lit) in lst:
                edges.append((src, dst, strict))
                nodes.setdefault(src, 0)
                nodes.setdefault(dst, 0)
        for _ in range(len(nodes) * len(edges) + 2):
            changed = False
            for (u, w, strict) in edges:
                need = nodes[u] + 1 if strict else nodes[u]
                if nodes[w] < need:
                    nodes[w] = need
                    changed = True
            if not changed:
                break
        else:
            raise SolverError('order relaxation did not converge')
        for n in self.order_vars:
            values[n] = nodes[n]
        return Model(values)


def _finish(comp, program, status, deadline, t0):
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
    for f in program.assertions:
        if not evaluate(f, model):
            raise SolverError('model fails re-evaluation: %r' % (f,))
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
    than recompiling the program every round.
    """

    def __init__(self, program):
        self.program = program
        self.comp = _Compiler(program)
        self.comp.assert_all()

    def add(self, formula):
        self.program.add(formula)
        self.comp.sat._cancel_until(0)
        self.comp.sat.add_clause([self.comp.compile(formula)])

    def block(self, symbols, model):
        """Forbid the model's assignment to the given enum/bool symbols."""
        binds = []
        for s in symbols:
            v = self.program.vars[s] if isinstance(s, str) else s
            val = model[v.name]
            if v.sort == BOOL:
                binds.append(eq(v, TRUE if val else FALSE))
            else:
                binds.append(eq(v, int(val)))
        self.add(neg(conj(*binds)))

    def check(self, timeout=None, conflict_limit=None, decision_limit=None):
        t0 = time.monotonic()
        sat = self.comp.sat
        sat._cancel_until(0)
        deadline = None if timeout is None else t0 + timeout
        status = sat.solve(
            deadline=deadline,
            conflict_limit=None if conflict_limit is None
            else sat.conflicts + conflict_limit,
            decision_limit=None if decision_limit is None
            else sat.decisions + decision_limit)
        return _finish(self.comp, self.program, status, deadline, t0)


# ---------------------------------------------------------------------------
# SMT-LIB2 debug dump


def _smt_term(x):
    if isinstance(x, int):
        return str(x) if x >= 0 else '(- %d)' % -x
    if isinstance(x, Var):
        return '|%s|' % x.name
    op = x.op
    if op == 'true':
        return 'true'
    if op == 'false':
        return 'false'
    names = {'and': 'and', 'or': 'or', 'not': 'not', 'implies': '=>',
             'eq': '=', 'lt': '<', 'le': '<=', 'distinct': 'distinct'}
    return '(%s %s)' % (names[op], ' '.join(_smt_term(a) for a in x.args))


def to_smtlib(program):
    lines = ['(set-logic QF_LIA)']
    for v in program.vars.values():
        if v.sort == BOOL:
            lines.append('(declare-const |%s| Bool)' % v.name)
        else:
            lines.append('(declare-const |%s| Int)' % v.name)
            if v.sort != INT:
                dom = ' '.join('(= |%s| %d)' % (v.name, d) for d in v.sort)
                lines.append('(assert (or %s))' % dom)
    for f in program.assertions:
        lines.append('(assert %s)' % _smt_term(f))
    lines.append('(check-sat)')
    return '\n'.join(lines) + '\n'
