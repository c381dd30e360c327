import functools
import hashlib
import io
import random
from fractions import Fraction

import numpy as np
import pytest

from kopt_lab import lowerbound, tsplib
from kopt_lab.geometry import PNorm, pt
from kopt_lab.harness import gen_random
from kopt_lab.lowerbound import generate_3d_instance
from kopt_lab.tour import Instance, Tour, tour_length

from memory import traced


def roundtrip(inst):
    buf = io.StringIO()
    tsplib.write_instance(buf, inst)
    return tsplib.read_instance(io.StringIO(buf.getvalue()))


def outcome(read, text: str):
    """What `read` makes of `text`: a view of the Instance or Tour, down to types and form, or the error."""
    try:
        got = read(text)
    except tsplib.TsplibError as err:
        return "error", str(err)
    if isinstance(got, Tour):
        return "tour", got.order, {type(v) for v in got.order}
    cols = got._columns
    return ("instance", got.n, got.dim, got.norm, got.name, got.exact, "points" in vars(got),
            None if cols is None else [(c.dtype.str, c.flags.writeable, c.tolist()) for c in cols],
            [(type(c), c) for point in got.points for c in point])


# {file kind: (its reader, its per-line reader)}
READERS = {"instance": (tsplib.read_instance, tsplib._instance_lines),
           "tour": (tsplib.read_tour, tsplib._tour_lines)}


def both_outcomes(text: str, kind: str = "instance"):
    """(what the reader makes of `text`, what the per-line reader makes of it)."""
    read, lines = READERS[kind]
    return outcome(lambda t: read(io.StringIO(t)), text), outcome(lines, text)


@pytest.fixture()
def both_paths_agree(monkeypatch):
    """Every file a test reads is also read by the per-line reader, which must agree to the message."""
    for kind, (read, _) in READERS.items():
        def checked(f, read=read, kind=kind):
            text = f.read()
            got, expected = both_outcomes(text, kind)
            assert got == expected
            return read(io.StringIO(text))
        monkeypatch.setattr(tsplib, read.__name__, checked)


@pytest.mark.usefixtures("both_paths_agree")
class TestInstanceIO:
    def test_euclidean_roundtrip(self):
        inst = Instance([pt(0, 0), pt(3, 4), pt(7, 1)], PNorm(2), name="tri")
        back = roundtrip(inst)
        assert back.points == inst.points
        assert back.norm == PNorm(2)
        assert back.name == "tri"

    def test_pnorm_roundtrip(self):
        inst = Instance([pt(0, 0), pt(3, 4), pt(7, 1)], PNorm(3), name="tri3")
        back = roundtrip(inst)
        assert back.norm == PNorm(3)

    def test_pnorm_roundtrip_keeps_every_digit(self):
        """A non-integral p is written by `repr`, so it reads back as the same float; an integral p as an int."""
        inst = gen_random(5, 1000, seed=1, p=1.23456789)
        assert roundtrip(inst).norm == PNorm(1.23456789)
        buf = io.StringIO()
        tsplib.write_instance(buf, Instance([pt(0, 0), pt(3, 4), pt(7, 1)], PNorm(3.0)))
        assert "COMMENT : PNORM=3\n" in buf.getvalue()

    @pytest.mark.parametrize("p", ["inf", "1e400", "nan", "0.5"])
    def test_pnorm_outside_the_norms_rejected(self, p):
        text = (
            f"TYPE : TSP\nCOMMENT : PNORM={p}\nDIMENSION : 2\n"
            "EDGE_WEIGHT_TYPE : SPECIAL\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        )
        with pytest.raises(ValueError, match="p must be a finite number at least 1"):
            tsplib.read_instance(io.StringIO(text))

    def test_manhattan_roundtrip(self):
        inst = Instance([pt(0, 0), pt(3, 4), pt(7, 1)], PNorm(1))
        assert roundtrip(inst).norm == PNorm(1)

    def test_3d_roundtrip(self):
        inst = generate_3d_instance(2).as_instance()
        back = roundtrip(inst)
        assert back.points == inst.points
        assert back.dim == 3

    def test_written_keywords(self):
        inst = Instance([pt(0, 0), pt(3, 4), pt(7, 1)], PNorm(2), name="x")
        buf = io.StringIO()
        tsplib.write_instance(buf, inst)
        text = buf.getvalue()
        assert "TYPE : TSP" in text
        assert "DIMENSION : 3" in text
        assert "EDGE_WEIGHT_TYPE : EUC_2D" in text
        assert text.rstrip().endswith("EOF")

    def test_special_requires_pnorm_comment(self):
        text = (
            "NAME : bad\nTYPE : TSP\nDIMENSION : 2\n"
            "EDGE_WEIGHT_TYPE : SPECIAL\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        )
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_instance(io.StringIO(text))

    def test_dimension_mismatch_rejected(self):
        text = (
            "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        )
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_instance(io.StringIO(text))

    def test_duplicate_points_rejected(self):
        text = (
            "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            "NODE_COORD_SECTION\n1 5 5\n2 5 5\nEOF\n"
        )
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_instance(io.StringIO(text))

    def test_unsupported_type_rejected(self):
        text = "TYPE : ATSP\nDIMENSION : 1\nEDGE_WEIGHT_TYPE : EUC_2D\nEOF\n"
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_instance(io.StringIO(text))

    @pytest.mark.parametrize("text, lineno, token", [
        ("TYPE : TSP\nDIMENSION : 1.5\nEDGE_WEIGHT_TYPE : EUC_2D\nEOF\n", 2, "1.5"),
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
         "NODE_COORD_SECTION\n1 0 0\n2 1.5 1\nEOF\n", 6, "1.5"),
        ("TYPE : TSP\nDIMENSION : 1\nEDGE_WEIGHT_TYPE : EUC_3D\n"
         "NODE_COORD_SECTION\n1 0 zero 0\nEOF\n", 5, "zero"),
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
         "NODE_COORD_SECTION\n1 0 0\nb 1 1\nEOF\n", 6, "b"),
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
         "NODE_COORD_SECTION\n1 0 0\nb 1 y\nEOF\n", 6, "y"),
        *((f"TYPE : TSP\nCOMMENT : PNORM={p}\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : SPECIAL\n"
           "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n", 2, p) for p in ("inf", "nan", "0.5")),
        *(("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_3D\n"
           f"NODE_COORD_SECTION\n1 0 0 0\n2 1 {x} 1\nEOF\n", 6, x) for x in ("nan", "inf", "1e400")),
    ], ids=["dimension", "coordinate", "3d-coordinate", "node-id", "coordinate-before-id",
            "pnorm-inf", "pnorm-nan", "pnorm-0.5", "3d-nan", "3d-inf", "3d-1e400"])
    def test_bad_number_names_its_line(self, text, lineno, token):
        with pytest.raises(tsplib.TsplibError, match=f"line {lineno}: '{token}' is not"):
            tsplib.read_instance(io.StringIO(text))

    @pytest.mark.parametrize("text, message", [
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : GEO\nEOF\n", "unsupported EDGE_WEIGHT_TYPE GEO"),
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\nDISPLAY_DATA_SECTION\nEOF\n",
         "unrecognized line: 'DISPLAY_DATA_SECTION'"),
        ("TYPE : TSP\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n",
         "missing DIMENSION or EDGE_WEIGHT_TYPE"),
        ("TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1\nEOF\n",
         "malformed coord line: '2 1'"),
    ], ids=["edge-weight-type", "unrecognized-line", "no-dimension", "short-coordinate-line"])
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(tsplib.TsplibError, match=f"^{message}$"):
            tsplib.read_instance(io.StringIO(text))

    def test_fraction_coordinates_not_written(self):
        inst = Instance([pt(0, 0), pt(Fraction(1, 2), 4), pt(7, 1)], PNorm(2))
        buf = io.StringIO()
        with pytest.raises(tsplib.TsplibError, match="integer coordinates only"):
            tsplib.write_instance(buf, inst)
        assert buf.getvalue() == ""  # every coordinate is checked before anything is written


@pytest.mark.usefixtures("both_paths_agree")
class TestCoordinateArrays:
    """Integer 2-D files read into `Instance.from_xy`; larger coordinates into `Instance(points)`."""

    def test_integer_file_builds_no_points(self):
        inst = Instance([pt(4, -1), pt(0, 0), pt(9, 3)], PNorm(1), name="three")
        back = roundtrip(inst)
        assert back._columns is not None and "points" not in vars(back)
        assert (back.n, back.norm, back.name, back.exact) == (3, PNorm(1), "three", True)
        assert back.points == inst.points
        assert all(type(c) is int for p in back.points for c in p)

    @pytest.mark.parametrize("big", [2**63, 2**70, -(2**63) - 1])
    def test_coordinates_outside_int64_roundtrip(self, big):
        inst = Instance([pt(big, 0), pt(0, 1), pt(5, big + 3)], PNorm(1), name="huge")
        back = roundtrip(inst)
        assert back._columns is None
        assert back.points == inst.points and back.exact
        assert all(type(c) is int for p in back.points for c in p)
        assert all(col.dtype == object for col in back._xy)
        t = Tour((0, 1, 2))
        assert tour_length(back, t) == tour_length(inst, t)

    def test_duplicate_points_outside_int64_rejected(self):
        text = coord_file(f"1 {2**70} 5\n2 {2**70} 5\n", dim=2)
        with pytest.raises(tsplib.TsplibError, match="^duplicate points$"):
            tsplib.read_instance(io.StringIO(text))


def coord_file(section: str, dim: int = 3, ewt: str = "EUC_2D", end: str = "EOF\n") -> str:
    return (f"TYPE : TSP\nDIMENSION : {dim}\nEDGE_WEIGHT_TYPE : {ewt}\n"
            f"NODE_COORD_SECTION\n{section}{end}")


@pytest.mark.usefixtures("both_paths_agree")
class TestNodeIds:
    def test_ids_out_of_order(self):
        inst = tsplib.read_instance(io.StringIO(coord_file("3 0 0\n1 5 0\n2 0 7\n")))
        assert inst.points == [pt(5, 0), pt(0, 7), pt(0, 0)]
        tour = tsplib.read_tour(io.StringIO("TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n3\n1\n2\n-1\n"))
        assert [inst.points[v] for v in tour.order] == [pt(0, 0), pt(5, 0), pt(0, 7)]

    def test_3d_ids_out_of_order(self):
        inst = tsplib.read_instance(io.StringIO(coord_file("2 1 0 0\n1 0 0 1\n", 2, "EUC_3D")))
        assert [tuple(p) for p in inst.points] == [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]

    def test_repeated_id_rejected(self):
        with pytest.raises(tsplib.TsplibError, match="line 7: node id 1 is repeated"):
            tsplib.read_instance(io.StringIO(coord_file("3 0 0\n1 5 0\n1 0 7\n")))

    @pytest.mark.parametrize("node", [0, 4, -1])
    def test_id_outside_dimension_rejected(self, node):
        with pytest.raises(tsplib.TsplibError, match=f"line 6: node id {node} is outside 1..3"):
            tsplib.read_instance(io.StringIO(coord_file(f"1 0 0\n{node} 5 0\n2 0 7\n")))

    def test_writer_output_reads_back_unchanged(self):
        inst = Instance([pt(4, 1), pt(0, 0), pt(9, 3), pt(2, 8)], PNorm(1), name="four")
        buf = io.StringIO()
        tsplib.write_instance(buf, inst)
        back = tsplib.read_instance(io.StringIO(buf.getvalue()))
        assert back.points == inst.points
        out = io.StringIO()
        tsplib.write_instance(out, back)
        assert out.getvalue() == buf.getvalue()


@pytest.mark.usefixtures("both_paths_agree")
class TestTourIO:
    def test_roundtrip(self):
        buf = io.StringIO()
        tsplib.write_tour(buf, Tour((0, 2, 1, 3)), name="t")
        back = tsplib.read_tour(io.StringIO(buf.getvalue()))
        assert back.order == (0, 2, 1, 3)

    def test_one_based_with_terminator(self):
        buf = io.StringIO()
        tsplib.write_tour(buf, Tour((0, 2, 1)))
        lines = buf.getvalue().splitlines()
        section = lines[lines.index("TOUR_SECTION") + 1 :]
        assert section[:4] == ["1", "3", "2", "-1"]

    def test_non_permutation_rejected(self):
        text = "TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n1\n1\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_tour(io.StringIO(text))

    def test_collection_of_tours_reads_first(self):
        buf = io.StringIO()
        tsplib.write_tour(buf, Tour((0, 2, 1, 3)), Tour((3, 2, 1, 0)), name="ts")
        text = buf.getvalue()
        assert text.count("TOUR_SECTION") == 1 and text.count("-1\n") == 2
        assert tsplib.read_tour(io.StringIO(text)).order == (0, 2, 1, 3)

    def test_non_permutation_first_tour_rejected(self):
        text = "TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n1\n1\n-1\n1\n2\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError):
            tsplib.read_tour(io.StringIO(text))

    def test_bad_entry_names_its_line(self):
        text = "TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n1\n2.0\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError, match="line 5: '2.0' is not an integer"):
            tsplib.read_tour(io.StringIO(text))

    def test_first_tour_shorter_than_dimension_rejected(self):
        text = "TYPE : TOUR\nDIMENSION : 5\nTOUR_SECTION\n1\n2\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError, match="DIMENSION 5 but the first tour has 3"):
            tsplib.read_tour(io.StringIO(text))

    def test_tour_without_dimension_reads(self):
        text = "TYPE : TOUR\nTOUR_SECTION\n1\n3\n2\n-1\nEOF\n"
        assert tsplib.read_tour(io.StringIO(text)).order == (0, 2, 1)

    def test_tour_without_section_rejected(self):
        text = "TYPE : TOUR\nDIMENSION : 3\n1\n2\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError, match="no TOUR_SECTION found"):
            tsplib.read_tour(io.StringIO(text))

    def test_empty_tour_roundtrip(self):
        buf = io.StringIO()
        tsplib.write_tour(buf, Tour(()), name="e")
        assert "DIMENSION : 0\nTOUR_SECTION\n-1\nEOF\n" in buf.getvalue()
        assert tsplib.read_tour(io.StringIO(buf.getvalue())) == Tour(())

    @pytest.mark.parametrize("text", ["TYPE : TOUR\nTOUR_SECTION\n-1\nEOF\n", "TOUR_SECTION\n"])
    def test_empty_first_tour_without_dimension_reads(self, text):
        assert tsplib.read_tour(io.StringIO(text)) == Tour(())

    def test_empty_first_tour_against_a_dimension_rejected(self):
        text = "TYPE : TOUR\nDIMENSION : 3\nTOUR_SECTION\n-1\n1\n2\n3\n-1\nEOF\n"
        with pytest.raises(tsplib.TsplibError, match="^DIMENSION 3 but the first tour has 0 entries$"):
            tsplib.read_tour(io.StringIO(text))

    def test_tours_of_different_sizes_rejected(self):
        with pytest.raises(tsplib.TsplibError):
            tsplib.write_tour(io.StringIO(), Tour((0, 1, 2)), Tour((0, 1, 2, 3)))


def test_an_array_tour_is_written_and_read_as_its_tuple(no_tuple_build):
    """The writer emits an array-born tour's bytes as the tuple's, and neither the writer nor the reader builds its tuple."""
    order = tuple(random.Random(2).sample(range(50), 50))
    want, got = io.StringIO(), io.StringIO()
    tsplib.write_tour(want, Tour(order), Tour(order[::-1]), name="a")
    tsplib.write_tour(got, Tour(np.array(order)), Tour(np.array(order[::-1], dtype=np.int32)), name="a")
    back = tsplib.read_tour(io.StringIO(got.getvalue()))
    assert got.getvalue() == want.getvalue()
    assert back.n == 50 and back == Tour(order)


def shuffled_lines(text: str, seed: int) -> str:
    """`text` with the lines of its NODE_COORD_SECTION in a seeded random order, ids and all."""
    head, _, rest = text.partition("NODE_COORD_SECTION\n")
    section, _, tail = rest.partition("EOF\n")
    lines = section.splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    return f"{head}NODE_COORD_SECTION\n{''.join(lines)}EOF\n{tail}"


@functools.cache
def layered_files() -> tuple:
    """The (1, 3) layered instance, relabelled by seed 11, and its hand-built tour, as TSPLIB text."""
    lb = lowerbound.generate_lb_instance(2, 1, 3)
    inst, order = lb.as_instance(), lowerbound.build_lb_tour(lb).order
    relabel = list(range(inst.n))
    random.Random(11).shuffle(relabel)
    points = [None] * inst.n
    for old, new in enumerate(relabel):
        points[new] = inst.points[old]
    inst_buf, tour_buf = io.StringIO(), io.StringIO()
    tsplib.write_instance(inst_buf, Instance(points, inst.norm, inst.name))
    tsplib.write_tour(tour_buf, Tour(tuple(relabel[v] for v in order)))
    return inst_buf.getvalue(), tour_buf.getvalue()


def tour_file(section: str, dim: int | None = 3) -> str:
    return "NAME : t\nTYPE : TOUR\n" + ("" if dim is None else f"DIMENSION : {dim}\n") + section


BIG = 2**63 - 1
HEADER_ERROR = "header error"  # the per-line loop raises on a header line before the bulk reader decides
# (file, does the bulk reader accept it?)
THREE = "1 0 0\n2 5 0\n3 0 7\n"
INSTANCE_CASES = {
    "plain": (coord_file(THREE), True),
    "no-eof": (coord_file(THREE, end=""), True),
    "eof-without-newline": (coord_file(THREE, end="EOF"), True),
    "spaces-and-tabs": (coord_file("  1 \t 0  0\t\n2\t5\t\t0\n 3 0 7 \n"), True),
    "signs-and-zeros": (coord_file("+1 -0 +000\n002 -05 0\n3 +0 07\n"), True),
    "ids-out-of-order": (coord_file("3 0 7\n1 0 0\n2 5 0\n"), True),
    "18-digits": (coord_file(f"1 {10**18 - 1} 0\n2 -{10**18 - 1} 3\n3 0 7\n"), True),
    "19-digits": (coord_file(f"1 {10**18} 0\n2 5 0\n3 0 7\n"), False),
    "int64-extremes": (coord_file(f"1 {BIG} {-BIG}\n2 {-BIG - 1} 0\n3 0 7\n"), False),
    "beyond-int64": (coord_file(f"1 {BIG + 1} 0\n2 5 {-BIG - 2}\n3 0 {10**30}\n"), False),
    "underscore": (coord_file("1 1_000 0\n2 5 0\n3 0 7\n"), False),
    "non-ascii-digit": (coord_file("1 \u0661 0\n2 5 0\n3 0 7\n"), False),
    "non-ascii-space": (coord_file("1 4\u00a00\n2 5 0\n3 0 7\n"), False),
    "one-crlf-line": (coord_file("1 0 0\n2 5 0\r\n3 0 7\n"), False),
    "crlf-file": (coord_file(THREE).replace("\n", "\r\n"), False),
    "blank-line-in-section": (coord_file("1 0 0\n\n2 5 0\n3 0 7\n"), False),
    "header-after-eof": (coord_file(THREE, end="EOF\nNAME : later\n"), False),
    "coordinates-after-eof": (coord_file("1 0 0\n2 5 0\n", end="EOF\n3 0 7\n"), False),
    "second-section": (coord_file("1 0 0\n2 5 0\n", end="EOF\nNODE_COORD_SECTION\n3 0 7\nEOF\n"), False),
    "indented-keyword": (coord_file(THREE).replace("\nNODE", "\n NODE"), False),
    "keyword-in-name": ("NAME : NODE_COORD_SECTION\n" + coord_file(THREE), False),
    "short-line": (coord_file("1 0 0\n2 5\n3 0 7\n"), False),
    "long-line": (coord_file("1 0 0 4\n2 5 0\n3 0 7\n"), False),
    "too-few-lines": (coord_file("1 0 0\n2 5 0\n"), False),
    "too-many-lines": (coord_file(THREE + "4 1 1\n"), False),
    "id-zero": (coord_file("0 0 0\n2 5 0\n3 0 7\n"), False),
    "id-above-dimension": (coord_file("1 0 0\n4 5 0\n3 0 7\n"), False),
    "id-negative": (coord_file("1 0 0\n-2 5 0\n3 0 7\n"), False),
    "id-repeated": (coord_file("1 0 0\n1 5 0\n3 0 7\n"), False),
    "duplicate-points": (coord_file("1 0 0\n2 5 0\n3 5 0\n"), False),
    "special-without-pnorm": (coord_file(THREE, ewt="SPECIAL"), False),
    "special-with-pnorm": ("NAME : p\nCOMMENT : PNORM=1.5\n" + coord_file(THREE, ewt="SPECIAL"), True),
    "no-dimension": (coord_file("1 0 0\n").replace("DIMENSION : 3\n", ""), False),
    "bad-type": (coord_file(THREE).replace("TYPE : TSP", "TYPE : ATSP"), HEADER_ERROR),
    "bad-dimension": (coord_file(THREE).replace("DIMENSION : 3", "DIMENSION : 3.0"), HEADER_ERROR),
    "negative-dimension": (coord_file("", dim=-1), False),
    "empty": (coord_file("", dim=0), True),
    "3d": (coord_file("1 0 0 0\n2 5 0 1\n3 0 7 2\n", ewt="EUC_3D"), False),
    "3d-nan": (coord_file("1 0 0 0\n2 5 0 nan\n3 0 7 2\n", ewt="EUC_3D"), False),
}

TOUR_CASES = {
    "plain": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\nEOF\n"), True),
    "no-eof": (tour_file("TOUR_SECTION\n1\n3\n2\n-1"), True),
    "no-dimension": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\nEOF\n", dim=None), True),
    "signs-and-zeros": (tour_file("TOUR_SECTION\n+1\n003\n+02\n-1\nEOF\n"), True),
    "spaces-and-tabs": (tour_file("TOUR_SECTION\n 1\t\n\t3 \n2\n  -1 \nEOF\n"), True),
    "second-tour": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\n3\n2\n1\n-1\nEOF\n"), True),
    "broken-second-tour": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\nx\n-1\nEOF\n"), True),
    "empty": (tour_file("TOUR_SECTION\n-1\nEOF\n", dim=0), True),
    "empty-against-dimension": (tour_file("TOUR_SECTION\n-1\nEOF\n"), False),
    "missing-terminator": (tour_file("TOUR_SECTION\n1\n3\n2\nEOF\n"), False),
    "missing-terminator-at-end": (tour_file("TOUR_SECTION\n1\n3\n2\n"), False),
    "non-integer-entry": (tour_file("TOUR_SECTION\n1\n3.0\n2\n-1\nEOF\n"), False),
    "word-entry": (tour_file("TOUR_SECTION\n1\nthree\n2\n-1\nEOF\n"), False),
    "underscore-entry": (tour_file("TOUR_SECTION\n1\n0_3\n2\n-1\nEOF\n"), False),
    "negative-entry": (tour_file("TOUR_SECTION\n1\n-3\n2\n-1\nEOF\n"), False),
    "entry-zero": (tour_file("TOUR_SECTION\n1\n0\n2\n-1\nEOF\n"), False),
    "entry-above-n": (tour_file("TOUR_SECTION\n1\n4\n2\n-1\nEOF\n"), False),
    "repeated-entry": (tour_file("TOUR_SECTION\n1\n1\n2\n-1\nEOF\n"), False),
    "19-digit-entry": (tour_file(f"TOUR_SECTION\n1\n{10**18}\n2\n-1\nEOF\n"), False),
    "too-short": (tour_file("TOUR_SECTION\n1\n2\n-1\nEOF\n"), False),
    "blank-line-in-section": (tour_file("TOUR_SECTION\n1\n\n3\n2\n-1\nEOF\n"), False),
    "one-crlf-line": (tour_file("TOUR_SECTION\n1\n3\r\n2\n-1\nEOF\n"), False),
    "crlf-file": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\nEOF\n").replace("\n", "\r\n"), False),
    "terminator-with-text": (tour_file("TOUR_SECTION\n1\n3\n2\n-1 x\nEOF\n"), False),
    "no-section": (tour_file("1\n3\n2\n-1\nEOF\n"), False),
    "keyword-in-name": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\n").replace("NAME : t", "NAME : TOUR_SECTION"),
                        False),
    "indented-keyword": (tour_file(" TOUR_SECTION\n1\n3\n2\n-1\n"), False),
    "early-indented-section": (tour_file(" TOUR_SECTION\n-1\nTOUR_SECTION\n1\n3\n2\n-1\n", dim=None), False),
    "bad-dimension": (tour_file("TOUR_SECTION\n1\n3\n2\n-1\n").replace("DIMENSION : 3", "DIMENSION : x"),
                      HEADER_ERROR),
}


def bulk_verdict(bulk, text: str):
    """Does the bulk reader accept `text` (True), leave it to the per-line reader (False), or raise?"""
    try:
        return bulk(text) is not None
    except tsplib.TsplibError:
        return HEADER_ERROR


class TestBothPathsAgree:
    """`read_instance` and `read_tour` equal their per-line readers: the same object, or the same error."""

    @pytest.mark.parametrize("name", INSTANCE_CASES)
    def test_instance_case(self, name):
        text, bulk = INSTANCE_CASES[name]
        got, expected = both_outcomes(text)
        assert got == expected
        assert bulk_verdict(tsplib._bulk_instance, text) == bulk

    @pytest.mark.parametrize("name", TOUR_CASES)
    def test_tour_case(self, name):
        text, bulk = TOUR_CASES[name]
        got, expected = both_outcomes(text, "tour")
        assert got == expected
        assert bulk_verdict(tsplib._bulk_tour, text) == bulk

    @pytest.mark.parametrize("seed, p", [(1, 2), (2, 1), (3, 1.5), (4, 3)])
    def test_random_instance_with_shuffled_ids(self, seed, p):
        buf = io.StringIO()
        tsplib.write_instance(buf, gen_random(40, 10**6, seed=seed, p=p))
        text = shuffled_lines(buf.getvalue(), seed)
        got, expected = both_outcomes(text)
        assert got == expected and got[0] == "instance"
        assert tsplib._bulk_instance(text) is not None
        order = list(range(40))
        random.Random(seed).shuffle(order)
        tours = io.StringIO()
        tsplib.write_tour(tours, Tour(tuple(order)))
        assert both_outcomes(tours.getvalue(), "tour") == (("tour", tuple(order), {int}),) * 2

    def test_layered_files_with_shuffled_ids(self):
        inst_text, tour_text = layered_files()
        text = shuffled_lines(inst_text, 5)
        assert text != inst_text
        got, expected = both_outcomes(text)
        assert got == expected and got[:3] == ("instance", 2916, 2)
        assert tsplib._bulk_instance(text) is not None
        got, expected = both_outcomes(tour_text, "tour")
        assert got == expected and got[0] == "tour"


class TestBulkPath:
    """The writers' files take the bulk path; a file off the gate is read by the per-line reader."""

    def test_layered_files_skip_the_per_line_loop(self, monkeypatch):
        inst_text, tour_text = layered_files()
        expected = outcome(tsplib._instance_lines, inst_text), outcome(tsplib._tour_lines, tour_text)

        def refuse(text):
            raise AssertionError("the per-line reader ran")
        monkeypatch.setattr(tsplib, "_instance_lines", refuse)
        monkeypatch.setattr(tsplib, "_tour_lines", refuse)
        scanned = []
        for name in ("_scan_instance", "_scan_tour"):
            scan = getattr(tsplib, name)
            monkeypatch.setattr(tsplib, name,
                                lambda lines, scan=scan: scanned.append(len(lines)) or scan(lines))
        got = (outcome(lambda t: tsplib.read_instance(io.StringIO(t)), inst_text),
               outcome(lambda t: tsplib.read_tour(io.StringIO(t)), tour_text))
        assert got == expected
        assert scanned == [6, 4]  # the loop reads the header lines and its section keyword, no more

    def test_one_crlf_line_takes_the_per_line_reader(self, monkeypatch):
        inst_text, tour_text = layered_files()
        at = inst_text.index("\n", inst_text.index("NODE_COORD_SECTION\n") + 100)
        text = inst_text[:at] + "\r" + inst_text[at:]
        calls = []
        lines = tsplib._instance_lines
        monkeypatch.setattr(tsplib, "_instance_lines", lambda t: calls.append(t) or lines(t))
        assert outcome(lambda t: tsplib.read_instance(io.StringIO(t)), text) == outcome(lines, inst_text)
        assert calls == [text]


def gate_files(lines: int) -> tuple:
    """An instance file and a tour file, each with `lines` lines in its section."""
    coords = "".join(f"{i} {i} {2 * i}\n" for i in range(1, lines + 1))
    entries = "".join(f"{i}\n" for i in range(lines, 0, -1))
    return coord_file(coords, dim=lines), tour_file(f"TOUR_SECTION\n{entries}-1\nEOF\n", dim=lines)


class TestBoundedGates:
    """The gates match a section in runs of at most `_GATE_LINES` lines; where a run ends changes no verdict."""

    @pytest.mark.parametrize("lines", [tsplib._GATE_LINES, tsplib._GATE_LINES + 1])
    def test_one_run_and_one_line_more_are_read_in_bulk(self, lines):
        inst_text, tour_text = gate_files(lines)
        assert tsplib._bulk_instance(inst_text) is not None and tsplib._bulk_tour(tour_text) is not None
        assert outcome(tsplib._bulk_instance, inst_text) == outcome(tsplib._instance_lines, inst_text)
        assert outcome(tsplib._bulk_tour, tour_text) == outcome(tsplib._tour_lines, tour_text)
        assert outcome(tsplib._bulk_instance, inst_text)[:2] == ("instance", lines)

    def test_a_bad_token_opening_the_second_run_is_named_by_the_per_line_reader(self):
        g = tsplib._GATE_LINES
        inst_text, tour_text = gate_files(g + 1)
        # Section line g + 1 follows the four header lines of either file; its entry is 1 in the tour.
        inst_text = inst_text.replace(f"\n{g + 1} {g + 1} ", f"\n{g + 1} {g + 1}x ")
        tour_text = tour_text.replace("\n1\n-1\n", "\n1x\n-1\n")
        assert tsplib._bulk_instance(inst_text) is None and tsplib._bulk_tour(tour_text) is None
        with pytest.raises(tsplib.TsplibError, match=f"^line {g + 5}: '{g + 1}x' is not an integer"):
            tsplib.read_instance(io.StringIO(inst_text))
        with pytest.raises(tsplib.TsplibError, match=f"^line {g + 5}: '1x' is not an integer"):
            tsplib.read_tour(io.StringIO(tour_text))

    def test_reading_the_layered_files_peaks_below_16_bytes_a_character(self):
        """One repetition over the whole section kept a frame a line: 64 and 87 bytes a character."""
        inst_text, tour_text = layered_files()
        for read, text in ((tsplib.read_instance, inst_text), (tsplib.read_tour, tour_text)):
            f = io.StringIO(text)
            _, _, peak = traced(lambda: read(f))
            assert peak <= 16 * len(text)


def written_sha256(write, *args) -> str:
    buf = io.StringIO()
    write(buf, *args)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestWrittenBytes:
    """Each writer formats a section in one go; the bytes are those the line-by-line writers wrote."""

    def test_layered_files(self):
        lb = lowerbound.generate_lb_instance(2, 1, 3)
        inst, tour = lb.as_instance(), lowerbound.build_lb_tour(lb)
        for written in (inst, Instance(inst.points, inst.norm, inst.name)):  # from the arrays, from the points
            assert written_sha256(tsplib.write_instance, written) == (
                "559619900b5f965fb0797eb809624a3cb62cc553687e08a42a701a54663caa73")
        for written in (tour, Tour(tour.order)):  # array-born, tuple-born
            assert written_sha256(tsplib.write_tour, written) == (
                "d6a54eed29b83a32e40ba3d8968980779d6cdb44865b11d8e2f2bbfb261124a2")

    def test_3d_file(self):
        assert written_sha256(tsplib.write_instance, generate_3d_instance(4).as_instance()) == (
            "c54e96b231edbc29770a5bb8a3d23e61a943cc83a574c6f93f999c303440fc99")
