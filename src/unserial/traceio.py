"""Line-based trace format and DOT rendering.

Grammar (UTF-8, one directive per line, '#' starts a comment):

    session <sid>
    txn <tid>
    r <key> <pos> <writer-tid> <value>
    w <key> <pos> <value>
    commit | abort
    boundary <sid> <pos|inf>        # predicted-history files only
"""

from dataclasses import dataclass, field

from .history import T0

INF = 'inf'


class ParseError(Exception):
    def __init__(self, line_no, msg):
        super().__init__('line %d: %s' % (line_no, msg))
        self.line_no = line_no


class SemanticError(Exception):
    pass


@dataclass
class TxnRecord:
    tid: int
    ops: list = field(default_factory=list)
    terminator: str = 'commit'


@dataclass
class Trace:
    sessions: list = field(default_factory=list)  # [(sid, [TxnRecord])]
    boundaries: dict | None = None  # sid -> pos or INF (predicted files)


def _int(tok, line_no, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, 'bad %s: %r' % (what, tok))


def parse_trace(text):
    trace = Trace()
    cur_session = None
    cur_txn = None
    seen_tids = set()
    last_pos = {}

    def close_txn():
        nonlocal cur_txn
        cur_txn = None

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == 'session':
            if len(toks) != 2:
                raise ParseError(line_no, 'session takes one argument')
            sid = _int(toks[1], line_no, 'session id')
            if sid <= 0:
                raise ParseError(line_no, 'session ids are positive')
            close_txn()
            cur_session = (sid, [])
            trace.sessions.append(cur_session)
            last_pos.setdefault(sid, 0)
        elif kw == 'txn':
            if cur_session is None:
                raise ParseError(line_no, 'txn outside session')
            if len(toks) != 2:
                raise ParseError(line_no, 'txn takes one argument')
            tid = _int(toks[1], line_no, 'txn id')
            if tid in seen_tids:
                raise SemanticError('duplicate tid %d' % tid)
            if tid == T0:
                raise ParseError(line_no, 'tid 0 is reserved')
            seen_tids.add(tid)
            cur_txn = TxnRecord(tid)
            cur_session[1].append(cur_txn)
        elif kw in ('r', 'w'):
            if cur_txn is None:
                raise ParseError(line_no, 'event outside txn')
            sid = cur_session[0]
            if kw == 'r':
                if len(toks) != 5:
                    raise ParseError(line_no, 'r takes key pos writer value')
                key, pos = toks[1], _int(toks[2], line_no, 'pos')
                writer = _int(toks[3], line_no, 'writer')
                value = _int(toks[4], line_no, 'value')
                op = ('r', key, pos, writer, value)
            else:
                if len(toks) != 4:
                    raise ParseError(line_no, 'w takes key pos value')
                key, pos = toks[1], _int(toks[2], line_no, 'pos')
                value = _int(toks[3], line_no, 'value')
                op = ('w', key, pos, value)
            if pos <= last_pos[sid]:
                raise SemanticError(
                    'position regression at %d in session %d' % (pos, sid))
            last_pos[sid] = pos
            cur_txn.ops.append(op)
        elif kw in ('commit', 'abort'):
            if cur_txn is None:
                raise ParseError(line_no, '%s outside txn' % kw)
            cur_txn.terminator = kw
            close_txn()
        elif kw == 'boundary':
            if len(toks) != 3:
                raise ParseError(line_no, 'boundary takes sid and pos|inf')
            sid = _int(toks[1], line_no, 'session id')
            if trace.boundaries is None:
                trace.boundaries = {}
            trace.boundaries[sid] = INF if toks[2] == INF else _int(
                toks[2], line_no, 'boundary pos')
        else:
            raise ParseError(line_no, 'unknown directive %r' % kw)
    return trace


def emit_trace(trace):
    out = []
    for sid, records in sorted(trace.sessions, key=lambda s: s[0]):
        out.append('session %d' % sid)
        for rec in records:
            out.append('txn %d' % rec.tid)
            for op in rec.ops:
                if op[0] == 'r':
                    out.append('r %s %d %d %d' % op[1:])
                else:
                    out.append('w %s %d %d' % op[1:])
            out.append(rec.terminator)
    if trace.boundaries is not None:
        for sid in sorted(trace.boundaries):
            b = trace.boundaries[sid]
            out.append('boundary %d %s' % (sid, b if b == INF else '%d' % b))
    return '\n'.join(out) + '\n' if out else ''


def history_to_trace(history, boundaries=None):
    """Rebuild a Trace from a (possibly predicted) history.  t0 is implicit."""
    trace = Trace()
    for sid in sorted(history.sessions):
        records = []
        for tid in history.sessions[sid]:
            rec = TxnRecord(tid)
            for e in history.txns[tid].events:
                if e.kind == 'r':
                    rec.ops.append(('r', e.key, e.pos, e.writer, e.value))
                else:
                    rec.ops.append(('w', e.key, e.pos, e.value))
            records.append(rec)
        trace.sessions.append((sid, records))
    if boundaries is not None:
        trace.boundaries = dict(boundaries)
    return trace


def _node_label(txn, values):
    parts = []
    for e in txn.events:
        if e.kind == 'r':
            s = 'R(%s)@%d' % (e.key, e.pos)
        else:
            s = 'W(%s)@%d' % (e.key, e.pos)
        if values:
            s += '=%d' % e.value
        parts.append(s)
    body = '\\n'.join(parts) if parts else 'init'
    return 't%d\\n%s' % (txn.tid, body)


def emit_dot(history, highlight=None, values=False):
    """Deterministic DOT rendering; highlight is an optional edge list.

    Highlight edges may be (t1, t2) pairs or (t1, t2, label) triples; they
    are drawn in red with their label (pco component: ww/rw) when given.
    """
    hi = {}
    for edge in (highlight or []):
        if len(edge) == 3:
            hi[(edge[0], edge[1])] = edge[2]
        else:
            hi[(edge[0], edge[1])] = 'pco'
    lines = ['digraph history {']
    for tid in history.committed():
        lines.append('  t%d [shape=box, label="%s"];'
                     % (tid, _node_label(history.txns[tid], values)))
    drawn = set()
    for ts in sorted(history.sessions.values()):
        for a, b in zip(ts, ts[1:]):
            lines.append('  t%d -> t%d [label="so"];' % (a, b))
            drawn.add((a, b))
    for key in history.keys:
        for a, b in sorted(history.wr.get(key, ())):
            attrs = 'label="wr_%s"' % key
            if (a, b) in hi:
                attrs += ', color=red, fontcolor=red'
            lines.append('  t%d -> t%d [%s];' % (a, b, attrs))
            drawn.add((a, b))
    for (a, b), label in sorted(hi.items()):
        if (a, b) not in drawn:
            lines.append('  t%d -> t%d [label="%s", color=red, '
                         'fontcolor=red, style=dashed];' % (a, b, label))
    lines.append('}')
    return '\n'.join(lines) + '\n'
