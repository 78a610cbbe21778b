"""Native solver: CDCL core, enum comparisons, incremental use.

The fuzz test cross-checks random Boolean programs against brute-force
enumeration of their assignments.
"""

import itertools
import random

import pytest

from unserial import solver
from unserial.solver import (conj, disj, neg, implies, eq, lt, evaluate,
                             TRUE, FALSE)


def test_trivial_sat_unsat():
    p = solver.Program()
    a = p.bool_var('a')
    p.add(a)
    assert solver.check_sat(p).status == 'sat'
    p.add(neg(a))
    assert solver.check_sat(p).status == 'unsat'


def test_duplicate_declaration_rejected():
    p = solver.Program()
    p.bool_var('a')
    with pytest.raises(solver.SolverError):
        p.bool_var('a')


def test_enum_one_hot():
    p = solver.Program()
    e = p.enum_var('e', (10, 20, 30))
    p.add(neg(eq(e, 10)))
    p.add(neg(eq(e, 30)))
    res = solver.check_sat(p)
    assert res.status == 'sat'
    assert res.model['e'] == 20
    p.add(neg(eq(e, 20)))
    assert solver.check_sat(p).status == 'unsat'


def test_enum_order_against_constant():
    p = solver.Program()
    e = p.enum_var('e', (1, 2, 3))
    p.add(lt(e, 3))
    p.add(lt(1, e))
    res = solver.check_sat(p)
    assert res.status == 'sat'
    assert res.model['e'] == 2


def test_implication_and_gates():
    p = solver.Program()
    a, b, c = (p.bool_var(n) for n in 'abc')
    p.add(implies(a, conj(b, c)))
    p.add(a)
    res = solver.check_sat(p)
    assert res.status == 'sat'
    assert res.model['b'] and res.model['c']
    p.add(disj(neg(b), neg(c)))
    assert solver.check_sat(p).status == 'unsat'


def test_resource_limits_report_unknown():
    # pigeonhole: 6 pigeons in 5 holes, hard enough to exceed a tiny budget
    p = solver.Program()
    holes = 5
    occ = [[p.bool_var('p%d_%d' % (i, j)) for j in range(holes)]
           for i in range(holes + 1)]
    for row in occ:
        p.add(disj(*row))
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                p.add(disj(neg(occ[i1][j]), neg(occ[i2][j])))
    res = solver.check_sat(p, conflict_limit=3)
    assert res.status == 'unknown'
    assert res.reason == 'resource-limit'
    res = solver.check_sat(p, decision_limit=2)
    assert res.status == 'unknown'
    # and without limits it is genuinely unsat
    assert solver.check_sat(p).status == 'unsat'


def test_timeout_reports_unknown():
    p = solver.Program()
    holes = 9
    occ = [[p.bool_var('p%d_%d' % (i, j)) for j in range(holes)]
           for i in range(holes + 1)]
    for row in occ:
        p.add(disj(*row))
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                p.add(disj(neg(occ[i1][j]), neg(occ[i2][j])))
    res = solver.check_sat(p, timeout=0.05)
    assert res.status == 'unknown'
    assert res.reason == 'timeout'


# --- random cross-check against brute force --------------------------------

def _random_formula(rng, bools, depth):
    if depth == 0 or rng.random() < 0.3:
        if bools and rng.random() < 0.7:
            return rng.choice(bools)
        return TRUE if rng.random() < 0.5 else FALSE
    op = rng.choice(['and', 'or', 'not', 'implies'])
    sub = lambda: _random_formula(rng, bools, depth - 1)
    if op == 'and':
        return conj(sub(), sub())
    if op == 'or':
        return disj(sub(), sub())
    if op == 'not':
        return neg(sub())
    return implies(sub(), sub())


def _brute_force_sat(program):
    bool_names = list(program.vars)
    for bvals in itertools.product([False, True], repeat=len(bool_names)):
        model = solver.Model(dict(zip(bool_names, bvals)))
        if all(evaluate(f, model) for f in program.assertions):
            return True
    return False


def test_fuzz_against_brute_force():
    for seed in range(300):
        rng = random.Random(seed)
        p = solver.Program()
        bools = [p.bool_var('b%d' % i) for i in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 5)):
            p.add(_random_formula(rng, bools, 2))
        res = solver.check_sat(p)
        expected = _brute_force_sat(p)
        if res.status == 'sat':
            assert expected, 'seed %d: solver sat, brute force unsat' % seed
            # the model must actually satisfy every assertion
            for f in p.assertions:
                assert evaluate(f, res.model), 'seed %d: bad model' % seed
        else:
            assert res.status == 'unsat', seed
            assert not expected, 'seed %d: solver unsat, model exists' % seed


# --- incremental interface --------------------------------------------------

def _differ(a, b):
    """a != b for two enum variables, as comparisons against constants."""
    return conj(*(neg(conj(eq(a, v), eq(b, v)))
                  for v in a.sort if v in b.sort))


def test_incremental_model_enumeration():
    p = solver.Program()
    a = p.enum_var('a', (0, 1, 2))
    b = p.enum_var('b', (0, 1, 2))
    p.add(_differ(a, b))
    inc = solver.Incremental(p)
    seen = set()
    while True:
        res = inc.check()
        if res.status != 'sat':
            break
        seen.add((res.model['a'], res.model['b']))
        inc.block((p.vars['a'], p.vars['b']), res.model)
    assert res.status == 'unsat'
    assert seen == {(x, y) for x in range(3) for y in range(3) if x != y}


def _gated_program():
    p = solver.Program()
    es = [p.enum_var('e%d' % i, (0, 1, 2)) for i in range(3)]
    bs = [p.bool_var('b%d' % i) for i in range(3)]
    for i in range(3):
        p.add(disj(conj(eq(es[i], 1), bs[i]),
                   conj(neg(bs[i]), neg(eq(es[(i + 1) % 3], 0)))))
    return p, es + bs


def test_gates_never_enter_the_heap():
    p, symbols = _gated_program()
    inc = solver.Incremental(p)
    sat = inc.comp.sat
    assert not all(sat.decidable), 'program must compile to some gates'
    for _ in range(6):
        res = inc.check()
        if res.status != 'sat':
            break
        # block() backtracks to level 0, putting unassigned vars back
        inc.block(symbols, res.model)
        assert sat.heap
        for pos, v in enumerate(sat.heap):
            assert sat.decidable[v], v
            assert sat.heap_pos[v] == pos
        assert all(sat.heap_pos[v] == -1
                   for v in range(sat.nvars) if not sat.decidable[v])


def test_literal_stat_tracks_clauses():
    p, symbols = _gated_program()
    inc = solver.Incremental(p)
    rounds = 0
    while rounds < 6:
        res = inc.check()
        sat = inc.comp.sat
        assert res.stats['literals'] == sum(len(c) for c in sat.clauses)
        assert res.stats['clauses'] == len(sat.clauses)
        if res.status != 'sat':
            break
        inc.block(symbols, res.model)
        rounds += 1
    assert rounds >= 3


def test_decide_first_hint_preserves_answers():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        p = solver.Program()
        e = p.enum_var('e', (0, 1, 2))
        bools = [p.bool_var('b%d' % i) for i in range(2)]
        for _ in range(3):
            p.add(_random_formula(rng, bools, 2))
        p.add(disj(eq(e, 1), eq(e, 2)))
        plain = solver.check_sat(p).status
        p.metadata['decide_first'] = ['e']
        assert solver.check_sat(p).status == plain


# --- canonical enumeration order ---------------------------------------------

def _enumerate(inc, symbols):
    models = []
    while (res := inc.check()).status == 'sat':
        models.append(tuple(res.model[v] for v in symbols))
        inc.block(symbols, res.model)
    assert res.status == 'unsat'
    return models


def _index_key(domains):
    return lambda m: tuple(d.index(v) for d, v in zip(domains, m))


def test_blocking_enumerates_in_lexicographic_order():
    # four pairwise-distinct enums; x2 taking its third value leaves four
    # clauses over two free bools, which unit propagation cannot refute,
    # so the very first check runs into a conflict and learns from it
    domain = (2, 0, 3, 1)
    p = solver.Program()
    xs = [p.enum_var('x%d' % i, domain) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            p.add(_differ(xs[i], xs[j]))
    b, c = p.bool_var('b'), p.bool_var('c')
    for lb in (b, neg(b)):
        for lc in (c, neg(c)):
            p.add(implies(eq(xs[2], domain[2]), disj(lb, lc)))
    p.metadata['decide_first'] = [x.name for x in xs]
    inc = solver.Incremental(p)
    first = inc.check()
    assert inc.comp.sat.conflicts > 0, 'the first check must learn a clause'
    models = [tuple(first.model[x] for x in xs)]
    inc.block(xs, first.model)
    models += _enumerate(inc, xs)
    expected = sorted((m for m in itertools.permutations(domain)
                       if m[2] != domain[2]), key=_index_key([domain] * 4))
    assert models[0] == (2, 0, 1, 3)
    assert models == expected


def test_blocking_order_is_lexicographic_on_random_programs():
    # domain order, not numeric order, defines the lexicographic order
    learned = 0
    for seed in range(60):
        rng = random.Random(7000 + seed)
        p = solver.Program()
        domains = [tuple(rng.sample(range(4), rng.randint(2, 4)))
                   for _ in range(3)]
        es = [p.enum_var('e%d' % i, d) for i, d in enumerate(domains)]
        b = p.bool_var('b')
        for _ in range(rng.randint(2, 5)):
            e1, e2 = rng.sample(range(3), 2)
            clause = [neg(eq(es[e1], rng.choice(domains[e1]))),
                      neg(eq(es[e2], rng.choice(domains[e2])))]
            if rng.random() < 0.5:
                clause.append(b if rng.random() < 0.5 else neg(b))
            p.add(disj(*clause))
        p.metadata['decide_first'] = [e.name for e in es]
        inc = solver.Incremental(p)
        models = _enumerate(inc, es)
        learned += inc.comp.sat.conflicts > 0
        key = _index_key(domains)
        assert models == sorted(models, key=key), seed
        assert models == sorted(
            (m for m in itertools.product(*domains)
             if any(_brute_force_extends(p, es, m, bv)
                    for bv in (False, True))), key=key), seed
    assert learned > 0


def _brute_force_extends(program, es, values, bval):
    model = solver.Model({e.name: v for e, v in zip(es, values)} | {'b': bval})
    return all(evaluate(f, model) for f in program.assertions)


def test_blocked_assignments_are_not_program_assertions():
    p = solver.Program()
    a = p.enum_var('a', (0, 1, 2))
    p.add(neg(eq(a, 1)))
    inc = solver.Incremental(p)
    assert sorted(_enumerate(inc, [a])) == [(0,), (2,)]
    assert len(p.assertions) == 1
    assert inc.blocked == {('a',): {(0,), (2,)}}


def test_recheck_rejects_a_blocked_model():
    p = solver.Program()
    a = p.enum_var('a', (0, 1))
    inc = solver.Incremental(p)
    res = inc.check()
    # a blocked assignment recorded without its clause reaching the core
    inc.blocked[('a',)] = {(res.model['a'],)}
    with pytest.raises(solver.SolverError):
        inc.check()
