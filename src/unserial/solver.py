"""`SolverUnknown`, and stubs of the retired constraint solver.

`predictor.gen_feasibility` lists prediction candidates directly and
`checker` judges fixed histories, so no constraint solver is left.
`check_sat`, `evaluate` and `Incremental` only raise NotImplementedError.
They stay because perfbench/tracing.py wraps them by name.
"""

_RETIRED = 'the constraint solver is retired; call predictor.predict()'


class SolverUnknown(Exception):
    """A check gave up before a verdict: 'timeout' or 'state-cap'."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def check_sat(*args, **kwargs):
    raise NotImplementedError(_RETIRED)


def evaluate(*args, **kwargs):
    raise NotImplementedError(_RETIRED)


class Incremental:
    def __init__(self, *args, **kwargs):
        raise NotImplementedError(_RETIRED)

    def check(self, *args, **kwargs):
        raise NotImplementedError(_RETIRED)

    def block(self, *args, **kwargs):
        raise NotImplementedError(_RETIRED)
