"""Graph and subgraph text formats and deterministic report serialization.

Graph files: a header line "n m" followed by m lines "tail head length",
whitespace separated.  Subgraph files: lines "tail head", each naming an
edge of the graph.  In both, '#' starts a comment anywhere and blank lines
are ignored.  Lengths may be integers or decimals.
"""

from __future__ import annotations

import math
import re

from .errors import BadSpec, GraphSyntaxError
from .graph import build_graph


def _data_lines(text):
    """(1-based line number, text) of every line that holds data once its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _endpoints(parts, line, lineno):
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphSyntaxError(f"endpoints must be integers, got {line!r}", line=lineno) from None


def parse_graph(text):
    data = list(_data_lines(text))
    if not data:
        raise GraphSyntaxError("no header line", line=1)
    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphSyntaxError(f"header must be 'n m', got {header!r}", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphSyntaxError(f"header must hold two integers, got {header!r}", line=lineno) from None
    body = data[1:]
    if len(body) != m:
        where = body[-1][0] if body else lineno
        raise GraphSyntaxError(f"header announces {m} edges but {len(body)} data lines follow", line=where)
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise GraphSyntaxError(f"edge line must be 'tail head length', got {line!r}", line=lineno)
        tail, head = _endpoints(parts, line, lineno)
        try:
            length = float(parts[2])
        except ValueError:
            raise GraphSyntaxError(f"length must be a number, got {parts[2]!r}", line=lineno) from None
        edges.append((tail, head, length))
    return build_graph(n, edges)


def parse_subgraph(g, text):
    """The edge indices of g that a subgraph file's 'tail head' lines select."""
    chosen = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphSyntaxError(f"subgraph line must be 'tail head', got {line!r}", line=lineno)
        tail, head = _endpoints(parts, line, lineno)
        if (tail, head) not in g.edge_index:
            raise BadSpec(f"subgraph edge ({tail}, {head}) is not an edge of the graph")
        chosen.append(g.edge_index[(tail, head)])
    return frozenset(chosen)


def _length_text(val):
    if val == int(val) and abs(val) < 2**53:
        return str(int(val))
    return repr(val)


def serialize_graph(g):
    lines = [f"{g.n} {g.m}"]
    for tail, head, length in g.edges:
        lines.append(f"{tail} {head} {_length_text(length)}")
    return "\n".join(lines) + "\n"


def _float_text(val):
    if math.isinf(val) or math.isnan(val):
        raise ValueError(f"report cannot serialize {val}")
    text = format(val, ".17g")
    # keep the value recognizably a float in the output
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(_escape(key))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"report cannot serialize {type(obj).__name__}")


# the short escapes, and \u00XX for every other control character
_ESCAPES = {chr(c): f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES.update({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"})
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s):
    return '"' + _NEEDS_ESCAPE.sub(lambda m: _ESCAPES[m.group()], s) + '"'


def dumps_report(obj):
    """JSON text with floats at 17 significant digits, byte-stable per input."""
    out = []
    _emit(obj, out)
    return "".join(out)
