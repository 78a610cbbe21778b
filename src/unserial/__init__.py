"""Predictive detection of unserializable executions under weak isolation.

Given a trace of a serializable execution, the predictor searches for an
alternative write-read assignment that a causally consistent or
read-committed store could have produced but that no serial order explains;
the store simulator then replays the prediction to validate it.
"""

from .history import (T0, Event, Transaction, ExecutionHistory,
                      build_history, MalformedTrace)
from .traceio import (Trace, TxnRecord, parse_trace, emit_trace,
                      history_to_trace, emit_dot, ParseError, SemanticError)
from .checker import (Verdict, check_serializable, check_causal, check_rc,
                      oracle_serializable)
from .predictor import (CAUSAL, READ_COMMITTED, EXACT_STRICT, APPROX_STRICT,
                        APPROX_RELAXED, STRATEGIES, PredictedHistory,
                        predicted_from_trace, predict, Unknown)
from .storesim import (ReadPolicy, WorkloadProgram, ValidationReport,
                       BUILTIN_WORKLOADS, LATEST_WRITER, RANDOM_WEAK,
                       run_workload, legal_writers, validate, parse_script,
                       ReplayMismatch, ScriptError)
from .solver import SolverUnknown

__all__ = [
    'T0', 'Event', 'Transaction', 'ExecutionHistory', 'build_history',
    'MalformedTrace',
    'Trace', 'TxnRecord', 'parse_trace', 'emit_trace', 'history_to_trace',
    'emit_dot', 'ParseError', 'SemanticError',
    'Verdict', 'check_serializable', 'check_causal', 'check_rc',
    'oracle_serializable',
    'CAUSAL', 'READ_COMMITTED', 'EXACT_STRICT', 'APPROX_STRICT',
    'APPROX_RELAXED', 'STRATEGIES', 'PredictedHistory',
    'predicted_from_trace', 'predict', 'Unknown',
    'ReadPolicy', 'WorkloadProgram', 'ValidationReport',
    'BUILTIN_WORKLOADS', 'LATEST_WRITER', 'RANDOM_WEAK', 'run_workload',
    'legal_writers', 'validate', 'parse_script', 'ReplayMismatch',
    'ScriptError',
    'SolverUnknown',
]

__version__ = '0.1.0'
