"""Native solver: CDCL core, integer ordering theory, incremental use.

The fuzz test cross-checks against brute-force enumeration over a bounded
integer range; order-only constraints over n integer variables are
satisfiable over the integers iff they are satisfiable over 0..n-1.
"""

import itertools
import random

import pytest

from unserial import solver
from unserial.solver import (conj, disj, neg, implies, eq, lt, le, distinct,
                             evaluate, TRUE, FALSE)


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
        p.int_var('a')


def test_ordering_chain_with_distinct():
    # regression: watched-literal bookkeeping once made this spuriously unsat
    p = solver.Program()
    a, b, c = (p.int_var(n) for n in 'abc')
    p.add(lt(a, b))
    p.add(lt(b, c))
    p.add(lt(a, c))
    p.add(distinct(a, b, c))
    res = solver.check_sat(p)
    assert res.status == 'sat'
    m = res.model
    assert m['a'] < m['b'] < m['c']


def test_ordering_cycle_unsat():
    p = solver.Program()
    a, b, c = (p.int_var(n) for n in 'abc')
    p.add(lt(a, b))
    p.add(lt(b, c))
    p.add(lt(c, a))
    assert solver.check_sat(p).status == 'unsat'


def test_le_antisymmetry_gives_equality():
    p = solver.Program()
    a, b = p.int_var('a'), p.int_var('b')
    p.add(le(a, b))
    p.add(le(b, a))
    res = solver.check_sat(p)
    assert res.status == 'sat'
    assert res.model['a'] == res.model['b']
    p.add(neg(eq(a, b)))
    assert solver.check_sat(p).status == 'unsat'


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

def _random_formula(rng, bools, ints, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(['bvar', 'cmp', 'const'])
        if kind == 'bvar' and bools:
            return rng.choice(bools)
        if kind == 'cmp' and len(ints) >= 2:
            op = rng.choice([lt, le, eq])
            a, b = rng.sample(ints, 2)
            return op(a, b)
        return TRUE if rng.random() < 0.5 else FALSE
    op = rng.choice(['and', 'or', 'not', 'implies', 'distinct'])
    if op == 'distinct' and len(ints) >= 2:
        k = rng.randint(2, len(ints))
        return distinct(*rng.sample(ints, k))
    sub = lambda: _random_formula(rng, bools, ints, depth - 1)
    if op == 'and':
        return conj(sub(), sub())
    if op == 'or':
        return disj(sub(), sub())
    if op == 'not':
        return neg(sub())
    return implies(sub(), sub())


def _brute_force_sat(program, nb, ni):
    bool_names = [n for n, v in program.vars.items() if v.sort == solver.BOOL]
    int_names = [n for n, v in program.vars.items() if v.sort == solver.INT]
    rng_hi = max(len(int_names), 1)
    for bvals in itertools.product([False, True], repeat=len(bool_names)):
        for ivals in itertools.product(range(rng_hi), repeat=len(int_names)):
            model = solver.Model(dict(zip(bool_names, bvals))
                                 | dict(zip(int_names, ivals)))
            if all(evaluate(f, model) for f in program.assertions):
                return True
    return False


def test_fuzz_against_brute_force():
    for seed in range(300):
        rng = random.Random(seed)
        p = solver.Program()
        bools = [p.bool_var('b%d' % i) for i in range(rng.randint(0, 3))]
        ints = [p.int_var('i%d' % i) for i in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 5)):
            p.add(_random_formula(rng, bools, ints, 2))
        res = solver.check_sat(p)
        expected = _brute_force_sat(p, len(bools), len(ints))
        if res.status == 'sat':
            assert expected, 'seed %d: solver sat, brute force unsat' % seed
            # the model must actually satisfy every assertion
            for f in p.assertions:
                assert evaluate(f, res.model), 'seed %d: bad model' % seed
        else:
            assert res.status == 'unsat', seed
            assert not expected, 'seed %d: solver unsat, model exists' % seed


# --- incremental interface --------------------------------------------------

def test_incremental_model_enumeration():
    p = solver.Program()
    a = p.enum_var('a', (0, 1, 2))
    b = p.enum_var('b', (0, 1, 2))
    p.add(neg(eq(a, b)))
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


def test_incremental_add_tightens():
    p = solver.Program()
    x, y = p.int_var('x'), p.int_var('y')
    p.add(le(x, y))
    inc = solver.Incremental(p)
    assert inc.check().status == 'sat'
    inc.add(lt(y, x))
    assert inc.check().status == 'unsat'


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
        ints = [p.int_var('i%d' % i) for i in range(2)]
        for _ in range(3):
            p.add(_random_formula(rng, bools, ints, 2))
        p.add(disj(eq(e, 1), eq(e, 2)))
        plain = solver.check_sat(p).status
        hinted = p.copy()
        hinted.metadata['decide_first'] = ['e']
        assert solver.check_sat(hinted).status == plain


def test_to_smtlib_smoke():
    p = solver.Program()
    a = p.int_var('a')
    b = p.bool_var('b')
    p.add(implies(b, lt(a, 3)))
    text = solver.to_smtlib(p)
    assert 'declare-const' in text and '|a|' in text
    assert '(check-sat)' in text
