"""Reference workspace reader: the Cayley-table reader `fileformat` replaced.

This is the parser as it stood when every table row was tokenized: each
significant line split into tokens once, and a row of canonical tokens
mapped through a lookup dict to `bytes` (order up to 256) or a tuple, any
other row read by `int()`.  `fileformat` now tokenizes only the rows that
generate the table and confirms the others by their printed text; the
tests give both readers the same files and compare what they load or
raise.  Only tests import this module.
"""

from collections import deque

from preordgrp import fgabelian as ab
from preordgrp import fileformat as ff
from preordgrp import finitegroup as fg
from preordgrp import preord as po
from preordgrp.errors import ParseError


def _significant_lines(text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _ints(tokens, lineno, expected=None):
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(tokens)!r}", lineno)
    if expected is not None and len(values) != expected:
        raise ParseError(f"expected {expected} integers, got {len(values)}", lineno)
    return values


def _keyword_int(cur: deque, keyword: str, header_line: int):
    """(lineno, n) from the next line, which must read '<keyword> <n>'."""
    lineno, tokens = cur.popleft() if cur else (header_line, [])
    if tokens[:1] != [keyword] or len(tokens) != 2:
        raise ParseError(f"expected '{keyword} <n>'", lineno)
    return lineno, _ints(tokens[1:], lineno, 1)[0]


def _parse_abelian_object(cur: deque, header_line: int):
    lineno, rank = _keyword_int(cur, "rank", header_line)
    if rank < 0:
        raise ParseError("rank must be nonnegative", lineno)
    rels, cone = [], []
    while cur and cur[0][1][0] in ("rel", "cone"):
        lineno, tokens = cur.popleft()
        row = _ints(tokens[1:], lineno, rank)
        (rels if tokens[0] == "rel" else cone).append(row)
    return po.make_object(ab.make_group(rank, rels), cone)


def _parse_finite_object(cur: deque, header_line: int, cap):
    lineno, order = _keyword_int(cur, "order", header_line)
    if order < 1:
        raise ParseError("order must be positive", lineno)
    if not cur or cur[0][1] != ["table"]:
        raise ParseError("expected 'table'", lineno)
    cur.popleft()
    # Fast path: a row of `order` canonical tokens "0" .. str(order - 1) maps
    # through one lookup, to bytes up to order 256, else to a tuple; any other
    # row ("07", "+3", "1_0", a bad token or length, an entry out of range)
    # goes through _ints, so through int().  The lookup stops at the order
    # cap, which make_finite_group enforces.
    lookup = {str(a): a for a in range(min(order, cap))}
    as_row = bytes if order <= 256 else tuple
    rows = []
    for _ in range(order):
        if not cur:
            raise ParseError(f"table needs {order} rows", lineno)
        row_lineno, row_tokens = cur.popleft()
        try:
            row = as_row(map(lookup.__getitem__, row_tokens))
        except KeyError:
            row = ()
        rows.append(row if len(row) == order else _ints(row_tokens, row_lineno, order))
    cone = []
    while cur and cur[0][1][0] == "cone":
        lineno, tokens = cur.popleft()
        cone.extend(_ints(tokens[1:], lineno))
    return po.make_object(fg.make_finite_group(rows, cap), cone)


def _parse_object(cur: deque, header_line: int, cap):
    if not cur:
        raise ParseError("expected 'universe abelian|finite'", header_line)
    lineno, tokens = cur.popleft()
    if tokens[0] != "universe" or len(tokens) != 2:
        raise ParseError("expected 'universe abelian|finite'", lineno)
    if tokens[1] == "abelian":
        return _parse_abelian_object(cur, lineno)
    if tokens[1] == "finite":
        return _parse_finite_object(cur, lineno, cap)
    raise ParseError(f"unknown universe {tokens[1]!r}", lineno)


def _parse_morphism(cur: deque, header, header_line: int, ws: ff.Workspace):
    if len(header) != 6 or header[2] != ":" or header[4] != "->":
        raise ParseError("expected 'morphism <name> : <dom> -> <cod>'", header_line)
    name, dom_name, cod_name = header[1], header[3], header[5]
    for ref in (dom_name, cod_name):
        if ref not in ws.objects:
            raise ParseError(f"unknown object {ref!r}", header_line)
    dom, cod = ws.objects[dom_name], ws.objects[cod_name]
    if not cur:
        raise ParseError("expected 'matrix' or 'map ...'", header_line)
    lineno, tokens = cur.popleft()
    if tokens == ["matrix"]:
        if dom.universe != po.ABELIAN or cod.universe != po.ABELIAN:
            raise ParseError("'matrix' needs abelian endpoints", lineno)
        # Rows into a rank-0 codomain are empty and print as blank lines,
        # which are not significant; no row lines follow then.
        rows = [] if cod.group.rank else [[]] * dom.group.rank
        while len(rows) < dom.group.rank:
            if not cur:
                raise ParseError(f"matrix needs {dom.group.rank} rows", lineno)
            row_lineno, row_tokens = cur.popleft()
            rows.append(_ints(row_tokens, row_lineno, cod.group.rank))
        mapping = rows
    elif tokens[0] == "map":
        if dom.universe != po.FINITE or cod.universe != po.FINITE:
            raise ParseError("'map' needs finite endpoints", lineno)
        mapping = tuple(_ints(tokens[1:], lineno, dom.group.order))
    else:
        raise ParseError("expected 'matrix' or 'map ...'", lineno)
    return name, dom_name, cod_name, po.make_morphism(dom, cod, mapping)


def parse_workspace(text: str, universe_cap: int = fg.ORDER_CAP) -> ff.Workspace:
    """Parse a workspace file; raises ParseError or ValidationError."""
    ws = ff.Workspace()
    cur = deque(_significant_lines(text))
    while cur:
        lineno, tokens = cur.popleft()
        if tokens[0] == "object":
            if len(tokens) != 2:
                raise ParseError("expected 'object <name>'", lineno)
            name = tokens[1]
            if name in ws.objects:
                raise ParseError(f"duplicate object {name!r}", lineno)
            ws.objects[name] = _parse_object(cur, lineno, universe_cap)
        elif tokens[0] == "morphism":
            name, dom_name, cod_name, mor = _parse_morphism(cur, tokens, lineno, ws)
            if name in ws.morphisms:
                raise ParseError(f"duplicate morphism {name!r}", lineno)
            ws.morphisms[name] = mor
            ws.endpoints[name] = (dom_name, cod_name)
        else:
            raise ParseError(f"expected 'object' or 'morphism', got {tokens[0]!r}", lineno)
    return ws
