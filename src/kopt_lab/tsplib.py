"""TSPLIB subset reader/writer for instances and tours.

Supported keywords: NAME, TYPE, COMMENT, DIMENSION, EDGE_WEIGHT_TYPE,
NODE_COORD_SECTION (1-based node ids in any order; integer coordinates
in 2-D, finite float coordinates in EUC_3D), TOUR_SECTION, EOF.
A TOUR_SECTION may hold a collection of tours, each ended by -1; the
reader returns the first, which is empty if the section starts with -1.
Non-Euclidean p is encoded as EDGE_WEIGHT_TYPE: SPECIAL plus a
"PNORM=<p>" comment; 3-D instances use EUC_3D.

The readers accept in bulk and diagnose per line.  The per-line loop
(`_scan_instance`, `_scan_tour`) reads the header, up to the first section
keyword.  If that keyword is a line of its own and the lines after it are
a run of "\n"-ended lines of ASCII integers of at most 18 digits (so
below 2**63), separated by spaces or tabs, one match of one compiled
pattern checks the run and its end, one `np.fromstring` parses it and one
`bincount` checks its ids.  A 2-D coordinate run must end the file, but
for an EOF line; the first tour must be ended by a -1 line.  Any other
file, or one whose run fails a check, is read whole by the per-line loop,
which gives the same result or names the fault; the loop and the checks
after it are the only raisers.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import TextIO

import numpy as np

from .geometry import PNorm, Point3, pt
from .tour import Instance, Tour


class TsplibError(ValueError):
    pass


def _number(kind, token: str, lineno: int, raw: str):
    """kind(token) for kind int or float; a bad token is a TsplibError naming its line."""
    try:
        return kind(token)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise TsplibError(f"line {lineno}: {token!r} is not {noun} in {raw.strip()!r}") from None


# The gates of the bulk readers: a section's lines, group 1, then its end.
# At most 18 digits keeps each value below 2**63, past which np.fromstring
# would clamp it without a word.  The line repeat is possessive: a greedy
# one, or an atomic group, keeps a backtracking frame a line, about 800
# bytes, 2.3 MB over the 2,916 lines of the (1, 3) file.
_INT = r"[+-]?[0-9]{1,18}"
_COORD_GATE = re.compile(rf"((?:[ \t]*{_INT}[ \t]+{_INT}[ \t]+{_INT}[ \t]*\n)*+)(?:EOF\n?)?\Z")
_TOUR_GATE = re.compile(r"((?:[ \t]*\+?[0-9]{1,18}[ \t]*\n)*+)[ \t]*-1[ \t]*(?:\n|\Z)")


def _section(text: str, keyword: str, gate: re.Pattern) -> tuple[int, np.ndarray] | None:
    """Where the lines after `keyword` begin, and their integers, if `gate` matches them.

    Only the first occurrence of `keyword` counts, and it must be a "\\n"-ended line.
    """
    at = text.find(keyword)
    start = at + len(keyword) + 1
    if at < 0 or (at and text[at - 1] != "\n") or not text.startswith("\n", start - 1):
        return None
    gated = gate.match(text, start)
    return None if gated is None else (start, np.fromstring(gated[1], np.int64, sep=" "))


def _is_permutation(ids: np.ndarray) -> bool:
    """Are the 1-based `ids` a permutation of 1..len(ids)?  One bincount; ids out of range fill no bin."""
    n = len(ids)
    return bool((np.bincount(ids.clip(0, n + 1), minlength=n + 2)[1:n + 1] == 1).all())


def _lines(fmt: str, *columns) -> str:
    """One `fmt` line per node: its 1-based id, then its value in each column, by one %-format."""
    n, width = len(columns[0]), len(columns) + 1
    values = [None] * (width * n)
    values[0::width] = range(1, n + 1)
    for k, column in enumerate(columns, 1):
        values[k::width] = column
    return (fmt * n) % tuple(values)


def write_instance(f: TextIO, inst: Instance):
    """The instance as one TSPLIB file, written whole once every coordinate has passed its check.

    2-D coordinates must be integral: a Fraction one raises TsplibError
    before anything is written.
    """
    head = [f"NAME : {inst.name or 'instance'}", "TYPE : TSP"]
    if inst.dim == 3:
        head += ["DIMENSION : %d" % inst.n, "EDGE_WEIGHT_TYPE : EUC_3D"]
        section = _lines("%d %r %r %r\n", *_axes(inst.points, 3))
    else:
        if inst._columns is None:
            xs, ys = _axes(inst.points, 2)
            if not set(map(operator.attrgetter("denominator"), itertools.chain(xs, ys))) <= {1}:
                raise TsplibError("TSPLIB subset supports integer coordinates only")
        else:
            xs, ys = (col.tolist() for col in inst._columns)
        if not inst.norm.is_two:
            p = inst.norm.p  # an integral p as an int, any other as the float that reads back
            head.append(f"COMMENT : PNORM={int(p) if p == int(p) else repr(float(p))}")
        head += ["DIMENSION : %d" % inst.n, "EDGE_WEIGHT_TYPE : %s" % ("EUC_2D" if inst.norm.is_two else "SPECIAL")]
        # %s writes an int, or a Fraction of denominator 1, as f"{v}" does.
        section = _lines("%d %s %s\n", xs, ys)
    # One write: a fresh io.StringIO keeps the str itself, and getvalue() returns it uncopied.
    f.write("\n".join(head) + "\nNODE_COORD_SECTION\n" + section + "EOF\n")


def _axes(points: list, dim: int) -> list:
    """The points' coordinates as `dim` tuples, one an axis; empty tuples for no points."""
    return list(zip(*points)) or [()] * dim


def read_instance(f: TextIO) -> Instance:
    """The instance of a TSPLIB file; node i of its NODE_COORD_SECTION becomes vertex i - 1.

    Node ids may come in any order; each must lie in 1..DIMENSION and occur
    once.  A 2-D file whose coordinates fit int64 becomes an
    `Instance.from_xy` instance, which builds no `Point` until one is read;
    an EUC_3D file, or one with larger coordinates, becomes `Instance(points)`.
    """
    text = f.read()
    inst = _bulk_instance(text)
    return _instance_lines(text) if inst is None else inst


def _bulk_instance(text: str) -> Instance | None:
    """`_instance_lines(text)` read in bulk, or None where only the per-line loop can tell.

    The loop reads the header, up to the first NODE_COORD_SECTION line, and
    raises what it would raise there.  The coordinate lines must pass the
    gate, and only an EOF line may follow them.
    """
    section = _section(text, "NODE_COORD_SECTION", _COORD_GATE)
    if section is None:
        return None
    start, values = section
    name, dim, ewt, pnorm, _ = _scan_instance(text[:start].splitlines())
    if dim is None or ewt in (None, "EUC_3D") or (ewt == "SPECIAL" and pnorm is None):
        return None
    rows = values.reshape(-1, 3)
    if len(rows) != dim or not _is_permutation(rows[:, 0]):
        return None
    xy = np.empty((dim, 2), np.int64)
    xy[rows[:, 0] - 1] = rows[:, 1:]
    try:
        return Instance.from_xy(xy[:, 0], xy[:, 1], pnorm if ewt == "SPECIAL" else PNorm(2), name)
    except ValueError:  # duplicate points
        return None


def _scan_instance(lines) -> tuple:
    """The per-line loop of `read_instance`: (name, DIMENSION, EDGE_WEIGHT_TYPE, PNorm, nodes).

    `nodes` holds (id, coordinates, line number, line) in file order.  A
    malformed line raises a TsplibError naming it.
    """
    name, dim, ewt, pnorm = "", None, None, None
    nodes = []
    in_coords = False
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line == "EOF":
            in_coords = False
            continue
        if in_coords:
            parts = line.split()
            if len(parts) != size:
                raise TsplibError(f"malformed {what} line: {raw!r}")
            try:
                node, coords = int(parts[0]), tuple(map(kind, parts[1:]))
            except ValueError:  # name the first bad token: coordinates, then the id
                coords = tuple(_number(kind, v, lineno, raw) for v in parts[1:])
                node = _number(int, parts[0], lineno, raw)
            if kind is float and not all(map(math.isfinite, coords)):  # nan, inf or 1e400
                token = next(v for v, c in zip(parts[1:], coords) if not math.isfinite(c))
                raise TsplibError(f"line {lineno}: {token!r} is not a finite number in {line!r}")
            nodes.append((node, coords, lineno, raw))
            continue
        if line == "NODE_COORD_SECTION":
            in_coords = True
            kind, size, what = (float, 4, "3-D coord") if ewt == "EUC_3D" else (int, 3, "coord")
            continue
        if ":" in line:
            key, _, val = line.partition(":")
            key, val = key.strip().upper(), val.strip()
            if key == "NAME":
                name = val
            elif key == "TYPE":
                if val.upper() != "TSP":
                    raise TsplibError(f"unsupported TYPE {val}")
            elif key == "DIMENSION":
                dim = _number(int, val, lineno, raw)
            elif key == "EDGE_WEIGHT_TYPE":
                ewt = val.upper()
                if ewt not in ("EUC_2D", "EUC_3D", "SPECIAL"):
                    raise TsplibError(f"unsupported EDGE_WEIGHT_TYPE {val}")
            elif key == "COMMENT" and val.upper().startswith("PNORM="):
                p = _number(float, val[6:], lineno, raw)
                try:
                    pnorm = PNorm(int(p) if p.is_integer() else p)
                except ValueError as err:  # inf, nan or below 1
                    raise TsplibError(f"line {lineno}: {val[6:]!r} is not a p-norm in {raw.strip()!r}: "
                                      f"{err}") from None
        else:
            raise TsplibError(f"unrecognized line: {raw!r}")
    return name, dim, ewt, pnorm, nodes


def _instance_lines(text: str) -> Instance:
    """`read_instance` by the per-line loop, for any file: the instance or the error naming its fault."""
    name, dim, ewt, pnorm, nodes = _scan_instance(text.splitlines())
    if ewt is None or dim is None:
        raise TsplibError("missing DIMENSION or EDGE_WEIGHT_TYPE")
    if len(nodes) != dim:
        raise TsplibError(f"DIMENSION {dim} but {len(nodes)} coordinates")
    coords = [None] * dim
    for node, c, lineno, raw in nodes:
        if not 1 <= node <= dim:
            raise TsplibError(f"line {lineno}: node id {node} is outside 1..{dim} in {raw.strip()!r}")
        if coords[node - 1] is not None:
            raise TsplibError(f"line {lineno}: node id {node} is repeated in {raw.strip()!r}")
        coords[node - 1] = c
    if ewt == "SPECIAL" and pnorm is None:
        raise TsplibError("SPECIAL edge weights require a PNORM comment")
    norm = pnorm if ewt == "SPECIAL" else PNorm(2)
    xy = None
    if ewt != "EUC_3D":
        try:
            xy = np.fromiter(itertools.chain.from_iterable(coords), np.int64, 2 * dim).reshape(dim, 2)
        except OverflowError:  # a coordinate outside int64
            pass
    try:
        if xy is not None:
            return Instance.from_xy(xy[:, 0], xy[:, 1], norm, name)
        point = Point3 if ewt == "EUC_3D" else pt
        return Instance([point(*c) for c in coords], norm, name)
    except ValueError:
        raise TsplibError("duplicate points") from None


def write_tour(f: TextIO, *tours: Tour, name: str = "tour"):
    """One TOUR file, in one write; several tours share its TOUR_SECTION, each ended by -1."""
    if not tours or len({t.n for t in tours}) != 1:
        raise TsplibError("need one or more tours of the same dimension")
    section = "".join(("%d\n" * tour.n + "-1\n") % tuple(map((1).__add__, tour.entries())) for tour in tours)
    f.write(f"NAME : {name}\nTYPE : TOUR\nDIMENSION : {tours[0].n}\nTOUR_SECTION\n{section}EOF\n")


def read_tour(f: TextIO) -> Tour:
    """The first tour of the file's TOUR_SECTION; its length must match a given DIMENSION."""
    text = f.read()
    tour = _bulk_tour(text)
    return _tour_lines(text) if tour is None else tour


def _bulk_tour(text: str) -> Tour | None:
    """`_tour_lines(text)` read in bulk, or None where only the per-line loop can tell.

    The loop reads the header, up to the first TOUR_SECTION line, and raises
    what it would raise there.  The first tour's entries must pass the gate
    and be ended by a -1 line.
    """
    section = _section(text, "TOUR_SECTION", _TOUR_GATE)
    if section is None:
        return None
    start, entries = section
    dim, _, _ = _scan_tour(text[:start].splitlines())
    if (dim is not None and len(entries) != dim) or not _is_permutation(entries):
        return None
    entries -= 1
    return Tour(entries)


def _scan_tour(lines) -> tuple:
    """The per-line loop of `read_tour`: (DIMENSION or None, the first tour's entries, in_section).

    The entries are 0-based; `in_section` tells whether a TOUR_SECTION line
    was met.  An entry that is not an integer raises a TsplibError naming
    its line.
    """
    order, dim, in_section = [], None, False
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line == "TOUR_SECTION":
            in_section = True
            continue
        if in_section:
            if line == "-1":
                break
            order.append(_number(int, line, lineno, raw) - 1)
        elif ":" in line:
            key, _, val = line.partition(":")
            if key.strip().upper() == "DIMENSION":
                dim = _number(int, val.strip(), lineno, raw)
    return dim, order, in_section


def _tour_lines(text: str) -> Tour:
    """`read_tour` by the per-line loop, for any file: the tour or the error naming its fault."""
    dim, order, in_section = _scan_tour(text.splitlines())
    if not in_section:
        raise TsplibError("no TOUR_SECTION found")
    if dim is not None and len(order) != dim:
        raise TsplibError(f"DIMENSION {dim} but the first tour has {len(order)} entries")
    if sorted(order) != list(range(len(order))):
        raise TsplibError("tour section is not a permutation")
    return Tour(tuple(order))
