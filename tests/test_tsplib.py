import io
from fractions import Fraction

import pytest

from kopt_lab import tsplib
from kopt_lab.geometry import PNorm, pt
from kopt_lab.harness import gen_random
from kopt_lab.lowerbound import generate_3d_instance
from kopt_lab.tour import Instance, Tour, tour_length


def roundtrip(inst):
    buf = io.StringIO()
    tsplib.write_instance(buf, inst)
    return tsplib.read_instance(io.StringIO(buf.getvalue()))


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
    ], ids=["dimension", "coordinate", "3d-coordinate", "node-id", "coordinate-before-id",
            "pnorm-inf", "pnorm-nan", "pnorm-0.5"])
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
        with pytest.raises(tsplib.TsplibError, match="integer coordinates only"):
            tsplib.write_instance(io.StringIO(), inst)


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


def coord_file(section: str, dim: int = 3, ewt: str = "EUC_2D") -> str:
    return (f"TYPE : TSP\nDIMENSION : {dim}\nEDGE_WEIGHT_TYPE : {ewt}\n"
            f"NODE_COORD_SECTION\n{section}EOF\n")


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

    def test_tours_of_different_sizes_rejected(self):
        with pytest.raises(tsplib.TsplibError):
            tsplib.write_tour(io.StringIO(), Tour((0, 1, 2)), Tour((0, 1, 2, 3)))
