from fractions import Fraction

import pytest

from kopt_lab.geometry import (
    Cross,
    Disjoint,
    Overlap,
    PNorm,
    Point,
    Segment,
    SharedEndpoint,
    Touch,
    orientation,
    pdist,
    pdist3,
    pt,
    segment_relation,
)
from kopt_lab.geometry import Point3

from planar_helpers import bounding_box, perimeter_lower_bound
from reference_predicates import NonSimplePolygonError, is_simple_polygon, point_in_polygon


class TestExactCoordinates:
    def test_integral_coordinates_are_ints(self):
        p = pt(3, 4)
        assert type(p.x) is int and type(p.y) is int
        q = pt(Fraction(6, 3), 4.0)
        assert type(q.x) is int and type(q.y) is int

    def test_rational_coordinate_stays_fraction(self):
        p = pt(Fraction(1, 2), 0)
        assert type(p.x) is Fraction and p.x == Fraction(1, 2)
        assert type(p.y) is int

    def test_int_and_fraction_points_are_interchangeable(self):
        a, b = pt(3, 4), Point(Fraction(3), Fraction(4))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_crossing_of_int_segments_is_exact(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(3, 1)), Segment(pt(1, 1), pt(2, -1))
        )
        assert isinstance(rel, Cross)
        assert all(isinstance(c, (int, Fraction)) for c in rel.point)
        assert rel.point == Point(Fraction(9, 7), Fraction(3, 7))

    def test_point_in_polygon_exact_near_edge(self):
        # The ray from p meets the slanted edge at x = 10**17 + 1/3; floats
        # would round that crossing onto p itself.
        tri = [pt(0, 0), pt(3 * 10**17 + 1, 3), pt(0, 3)]
        assert point_in_polygon(pt(10**17, 1), tri) == "interior"


class TestPNorm:
    def test_euclidean(self):
        assert pdist(PNorm(2), pt(0, 0), pt(3, 4)) == 5.0

    def test_manhattan_is_exact(self):
        d = pdist(PNorm(1), pt(0, 0), pt(3, 4))
        assert d == 7
        assert isinstance(d, (int, Fraction))

    def test_general_p(self):
        d = pdist(PNorm(3), pt(0, 0), pt(1, 1))
        assert d == pytest.approx(2 ** (1 / 3), rel=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            PNorm(0.5)

    def test_3d(self):
        d = pdist3(Point3(0, 0, 0), Point3(1, 2, 2))
        assert d == pytest.approx(3.0, rel=1e-12)


class TestOrientation:
    def test_left_turn(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(1, 1)) > 0

    def test_right_turn(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(1, -1)) < 0

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(2, 2), pt(5, 5)) == 0


class TestSegmentRelation:
    def test_proper_cross(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(2, 2)), Segment(pt(0, 2), pt(2, 0))
        )
        assert rel == Cross(Point(Fraction(1), Fraction(1)))

    def test_cross_point_is_rational(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(3, 1)), Segment(pt(1, 1), pt(2, -1))
        )
        assert isinstance(rel, Cross)
        assert rel.point.x.denominator > 1 or rel.point.y.denominator > 1

    def test_shared_endpoint(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(1, 0)), Segment(pt(1, 0), pt(2, 1))
        )
        assert rel == SharedEndpoint(pt(1, 0))

    def test_touch_endpoint_on_interior(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(4, 0)), Segment(pt(2, 0), pt(2, 3))
        )
        assert rel == Touch(pt(2, 0))

    def test_collinear_overlap(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(4, 0)), Segment(pt(1, 0), pt(3, 0))
        )
        assert rel == Overlap(Segment(pt(1, 0), pt(3, 0)))

    def test_collinear_disjoint(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(1, 0)), Segment(pt(2, 0), pt(3, 0))
        )
        assert isinstance(rel, Disjoint)

    def test_parallel_disjoint(self):
        rel = segment_relation(
            Segment(pt(0, 0), pt(1, 0)), Segment(pt(0, 1), pt(1, 1))
        )
        assert isinstance(rel, Disjoint)

    @pytest.mark.parametrize("first", [True, False])
    def test_degenerate_segment_is_refused(self, first):
        point, proper = Segment(pt(1, 1), pt(1, 1)), Segment(pt(0, 0), pt(2, 1))
        with pytest.raises(ValueError, match="degenerate segment"):
            segment_relation(*((point, proper) if first else (proper, point)))


class TestPointInPolygon:
    square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]

    def test_interior(self):
        assert point_in_polygon(pt(1, 1), self.square) == "interior"

    def test_boundary_edge(self):
        assert point_in_polygon(pt(2, 1), self.square) == "boundary"

    def test_boundary_vertex(self):
        assert point_in_polygon(pt(0, 0), self.square) == "boundary"

    def test_exterior(self):
        assert point_in_polygon(pt(3, 3), self.square) == "exterior"

    def test_exterior_same_height_as_vertex(self):
        # ray through a polygon vertex must not double-count
        assert point_in_polygon(pt(-5, 2), self.square) == "exterior"

    def test_rational_point(self):
        p = Point(Fraction(1, 3), Fraction(1, 7))
        assert point_in_polygon(p, self.square) == "interior"

    def test_non_simple_rejected(self):
        bowtie = [pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)]
        assert not is_simple_polygon(bowtie)
        with pytest.raises(NonSimplePolygonError):
            point_in_polygon(pt(1, 1), bowtie)


class TestBoundingBox:
    def test_extents(self):
        assert bounding_box([pt(0, 0), pt(2, 1), pt(1, 5)]) == (2, 5)

    def test_perimeter_lower_bound_euclidean(self):
        # 3-4-5 right triangle: perimeter 12 >= 2 * diagonal 5 = 10
        tri = [pt(0, 0), pt(4, 0), pt(0, 3)]
        assert float(perimeter_lower_bound(tri, PNorm(2))) == pytest.approx(10.0)

    def test_perimeter_lower_bound_manhattan_exact(self):
        tri = [pt(0, 0), pt(4, 0), pt(0, 3)]
        assert perimeter_lower_bound(tri, PNorm(1)) == 14
