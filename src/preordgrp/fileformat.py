"""Line-oriented workspace files: parsing and printing.

Grammar, one declaration per line, whitespace-separated decimal
integers, "#" starts a comment:

    object <name>
    universe abelian
    rank <n>
    rel <n integers>        zero or more relation rows
    cone <n integers>       zero or more cone generators

    object <name>
    universe finite
    order <n>
    table                   followed by n rows of n indices
    cone <indices>          zero or more lines of generator indices

    morphism <name> : <dom> -> <cod>
    matrix                  abelian: followed by one row per domain rank,
                            no row lines when the codomain has rank 0
    map <indices>           finite: image of every element in order

Every printed block re-loads to a structurally equal entity.

A table as `format_object` prints it is read from the rows that generate
it: row g.w is row w read through row g, so only the rows that row 0 and
the rows read so far do not reach are tokenized.  The rows stand if each
of the n lines equals the printed text of its row, as the printed form is
injective; on any other table `_ints` reads every row, in order.
"""

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from . import fgabelian as ab
from . import finitegroup as fg
from . import preord as po
from .errors import ParseError


@dataclass
class Workspace:
    """Named objects and morphisms loaded from one file."""

    objects: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    endpoints: dict = field(default_factory=dict)  # morphism -> (dom, cod) names


def _significant_lines(text: str):
    """(lineno, text before any "#") per line with a token, split when read."""
    bodies = enumerate((raw.partition("#")[0] for raw in text.splitlines()), start=1)
    return [(lineno, body) for lineno, body in bodies if body and not body.isspace()]


def _tokens(cur: deque):
    lineno, body = cur.popleft()
    return lineno, body.split()


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
    lineno, tokens = _tokens(cur) if cur else (header_line, [])
    if tokens[:1] != [keyword] or len(tokens) != 2:
        raise ParseError(f"expected '{keyword} <n>'", lineno)
    return lineno, _ints(tokens[1:], lineno, 1)[0]


def _parse_abelian_object(cur: deque, header_line: int):
    lineno, rank = _keyword_int(cur, "rank", header_line)
    if rank < 0:
        raise ParseError("rank must be nonnegative", lineno)
    rels, cone = [], []
    while cur and cur[0][1].split(None, 1)[0] in ("rel", "cone"):
        lineno, tokens = _tokens(cur)
        row = _ints(tokens[1:], lineno, rank)
        (rels if tokens[0] == "rel" else cone).append(row)
    return po.make_object(ab.make_group(rank, rels), cone)


def _predicted_rows(lines, n: int, cap):
    """The n table rows if each line prints as its predicted row, else None."""
    if n > cap or len(lines) != n:
        return None
    if n <= 256:  # a row padded to 256 bytes is a translation table
        as_row, pad, through = bytes, bytes(256 - n), bytes.translate
    else:
        as_row, pad, through = tuple, (), lambda row, g: itemgetter(*row)(g)
    rows = [as_row(range(n))] + [None] * (n - 1)
    known, gens = [0], []
    for a in range(1, n):
        if rows[a] is None:  # not reached: tokenize row a
            try:
                row = as_row(map(int, lines[a][1].split()))
            except ValueError:  # a token int() refuses, or bytes() past 255
                return None
            if len(row) != n or row[0] != a or min(row) < 0 or max(row) >= n:
                return None  # with a . 0 = a, the closure starts by filling row a
            gens.append(row + pad)
            new = len(known)
            for i, w in enumerate(known):  # appended to while read
                for g in gens if i >= new else gens[-1:]:
                    x = g[w]  # g . w
                    if rows[x] is None:
                        rows[x] = through(rows[w], g)
                        known.append(x)
    return rows if [body for _, body in lines] == _row_texts(rows, n) else None


def _parse_finite_object(cur: deque, header_line: int, cap):
    lineno, order = _keyword_int(cur, "order", header_line)
    if order < 1:
        raise ParseError("order must be positive", lineno)
    if not cur or _tokens(cur)[1] != ["table"]:
        raise ParseError("expected 'table'", lineno)
    # predicted rows, or else every row by _ints: make_finite_group checks either
    lines = [cur.popleft() for _ in range(min(order, len(cur)))]
    rows = _predicted_rows(lines, order, cap) or [_ints(b.split(), at, order) for at, b in lines]
    if len(rows) < order:
        raise ParseError(f"table needs {order} rows", lineno)
    cone = []
    while cur and cur[0][1].split(None, 1)[0] == "cone":
        lineno, tokens = _tokens(cur)
        cone.extend(_ints(tokens[1:], lineno))
    return po.make_object(fg.make_finite_group(rows, cap), cone)


def _parse_object(cur: deque, header_line: int, cap):
    if not cur:
        raise ParseError("expected 'universe abelian|finite'", header_line)
    lineno, tokens = _tokens(cur)
    if tokens[0] != "universe" or len(tokens) != 2:
        raise ParseError("expected 'universe abelian|finite'", lineno)
    if tokens[1] == "abelian":
        return _parse_abelian_object(cur, lineno)
    if tokens[1] == "finite":
        return _parse_finite_object(cur, lineno, cap)
    raise ParseError(f"unknown universe {tokens[1]!r}", lineno)


def _parse_morphism(cur: deque, header, header_line: int, ws: Workspace):
    if len(header) != 6 or header[2] != ":" or header[4] != "->":
        raise ParseError("expected 'morphism <name> : <dom> -> <cod>'", header_line)
    name, dom_name, cod_name = header[1], header[3], header[5]
    for ref in (dom_name, cod_name):
        if ref not in ws.objects:
            raise ParseError(f"unknown object {ref!r}", header_line)
    dom, cod = ws.objects[dom_name], ws.objects[cod_name]
    if not cur:
        raise ParseError("expected 'matrix' or 'map ...'", header_line)
    lineno, tokens = _tokens(cur)
    if tokens == ["matrix"]:
        if dom.universe != po.ABELIAN or cod.universe != po.ABELIAN:
            raise ParseError("'matrix' needs abelian endpoints", lineno)
        # Rows into a rank-0 codomain are empty and print as blank lines,
        # which are not significant; no row lines follow then.
        rows = [] if cod.group.rank else [[]] * dom.group.rank
        while len(rows) < dom.group.rank:
            if not cur:
                raise ParseError(f"matrix needs {dom.group.rank} rows", lineno)
            row_lineno, row_tokens = _tokens(cur)
            rows.append(_ints(row_tokens, row_lineno, cod.group.rank))
        mapping = rows
    elif tokens[0] == "map":
        if dom.universe != po.FINITE or cod.universe != po.FINITE:
            raise ParseError("'map' needs finite endpoints", lineno)
        mapping = tuple(_ints(tokens[1:], lineno, dom.group.order))
    else:
        raise ParseError("expected 'matrix' or 'map ...'", lineno)
    return name, dom_name, cod_name, po.make_morphism(dom, cod, mapping)


def parse_workspace(text: str, universe_cap: int = fg.ORDER_CAP) -> Workspace:
    """Parse a workspace file; raises ParseError or ValidationError."""
    ws = Workspace()
    cur = deque(_significant_lines(text))
    while cur:
        lineno, tokens = _tokens(cur)
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


# --- printing ----------------------------------------------------------------


def _int_line(keyword: str, values) -> str:
    if not values:
        return keyword
    return keyword + " " + " ".join([str(v) for v in values])


def _row_texts(rows, n: int) -> list:
    """Rows of an order-n table as printed: entries joined by single spaces."""
    names = [str(a) for a in range(n)]  # at n = 1 each gather below is "0"
    return [" ".join(itemgetter(*row)(names)) for row in rows]


def format_object(name: str, obj: po.PreOrdObj) -> str:
    lines = [f"object {name}"]
    if obj.universe == po.ABELIAN:
        lines.append("universe abelian")
        lines.append(f"rank {obj.group.rank}")
        for i in range(obj.group.relations.rows):
            lines.append(_int_line("rel", obj.group.relations.row(i)))
        for i in range(obj.cone.rows):
            lines.append(_int_line("cone", obj.cone.row(i)))
    else:
        lines.append("universe finite")
        lines.append(f"order {obj.group.order}")
        lines.append("table")
        n, table = obj.group.order, obj.group.table
        lines += _row_texts((table[i : i + n] for i in range(0, n * n, n)), n)
        lines.append(_int_line("cone", sorted(obj.cone)))
    return "\n".join(lines)


def format_morphism(name: str, mor: po.PreOrdMor, dom_name: str, cod_name: str) -> str:
    lines = [f"morphism {name} : {dom_name} -> {cod_name}"]
    if mor.dom.universe == po.ABELIAN:
        lines.append("matrix")
        for i in range(mor.map.matrix.rows):
            lines.append(" ".join([str(v) for v in mor.map.matrix.row(i)]))
    else:
        lines.append(_int_line("map", mor.map.mapping))
    return "\n".join(lines)


def format_workspace(ws: Workspace) -> str:
    blocks = [format_object(name, obj) for name, obj in ws.objects.items()]
    blocks += [
        format_morphism(name, mor, *ws.endpoints[name])
        for name, mor in ws.morphisms.items()
    ]
    return "\n\n".join(blocks) + "\n"
