"""Built-in example geometries.

Five named covers with fibration data:

- ``elliptic-demo`` (alias ``elliptic``): circle covered by three arcs,
  trivial primitives.  The base of the slope-k line demos; chart 0
  starts at 0 so monomial bookkeeping stays integral around the loop.
- ``split-torus-2``: circle covered by four arcs, trivial primitives.
- ``split-torus-4``: two-torus covered by a 3x3 grid of boxes with
  translation transitions, trivial primitives.
- ``thurston-f1``: same 3x3 torus cover; quadratic primitives on the
  edges that wrap in the first coordinate.  Its obstruction cochain is
  not a coboundary, not even after forgetting the constants.
- ``thurston-f2``: 3x3 torus cover whose second-coordinate wrap is a
  unimodular shear instead of a translation; primitives vanish.

All interval endpoints are fixed rational numbers; every derived
polytope, transition and primitive is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .affine import IntegralAffineMap, IntegralAffinePolytope, PolyFunction
from .cover import FibrationData, _cover_from_charts

F = Fraction

_C3 = ((F(0), F(5, 12)), (F(1, 3), F(3, 4)), (F(2, 3), F(13, 12)))
_C4 = (
    (F(0), F(5, 16)),
    (F(1, 4), F(9, 16)),
    (F(1, 2), F(13, 16)),
    (F(3, 4), F(17, 16)),
)


def _circle_shift(count, a, c):
    """Deck shift taking arc a's coordinates to arc c's, None if the
    arcs do not overlap."""
    if (a, c) == (0, count - 1):
        return 1
    if (a, c) == (count - 1, 0):
        return -1
    if abs(a - c) <= 1:
        return 0
    return None


def _circle_cover(arcs):
    count = len(arcs)
    ids = tuple(str(i) for i in range(count))
    boxes = {i: IntegralAffinePolytope.from_box([arc]) for i, arc in enumerate(arcs)}
    faces = {(i,) for i in range(count)}
    transitions = {}
    for i in range(count):
        for j in range(i + 1, count):
            shift = _circle_shift(count, i, j)
            if shift is None:
                continue
            faces.add((i, j))
            transitions[(i, j)] = IntegralAffineMap([[1]], [shift])
    return _cover_from_charts(1, ids, boxes, faces, transitions)


def _torus_faces(count):
    faces = set()
    for a in range(count):
        for b in range(count):
            cells = sorted(
                count * x + y
                for x in (a, (a + 1) % count)
                for y in (b, (b + 1) % count)
            )
            for size in range(1, 5):
                for combo in combinations(cells, size):
                    faces.add(combo)
    return faces


def _torus_cover(arcs, shear_wrap=False):
    """3x3 product cover of the two-torus.

    Chart (a, b) has index 3a + b and box arc_a x arc_b.  With
    ``shear_wrap`` the deck move in the second coordinate also shears
    the first one, as in the second Thurston fibration.
    """
    count = len(arcs)
    ids = tuple(f"{a},{b}" for a in range(count) for b in range(count))
    boxes = {
        count * a + b: IntegralAffinePolytope.from_box([arcs[a], arcs[b]])
        for a in range(count)
        for b in range(count)
    }
    faces = _torus_faces(count)
    transitions = {}
    for face in faces:
        if len(face) != 2:
            continue
        i, j = face
        a, b = divmod(i, count)
        c, d = divmod(j, count)
        k = _circle_shift(count, a, c)
        m = _circle_shift(count, b, d)
        if k is None or m is None:
            raise AssertionError("declared edge between non-overlapping charts")
        if shear_wrap:
            linear = [[1, m], [0, 1]]
            translation = [F(m * (m - 1), 2) + k, m]
        else:
            linear = [[1, 0], [0, 1]]
            translation = [k, m]
        transitions[(i, j)] = IntegralAffineMap(linear, translation)
    return _cover_from_charts(2, ids, boxes, faces, transitions)


@lru_cache(maxsize=None)
def _translation_torus_cover():
    return _torus_cover(_C3, shear_wrap=False)


def _f1_primitives(cover):
    """x3^2/2 on every edge wrapping in the first coordinate."""
    quad = PolyFunction(2, {(0, 2): F(1, 2)})
    out = {}
    for edge in cover.faces_of_degree(1):
        i, j = edge
        if {i // 3, j // 3} == {0, 2}:
            out[edge] = quad
    return out


@lru_cache(maxsize=None)
def load_catalog(name):
    """Named FibrationData; raises KeyError for unknown names."""
    if name in ("elliptic-demo", "elliptic"):
        return FibrationData(_circle_cover(_C3), {})
    if name == "split-torus-2":
        return FibrationData(_circle_cover(_C4), {})
    if name == "split-torus-4":
        return FibrationData(_translation_torus_cover(), {})
    if name == "thurston-f1":
        cover = _translation_torus_cover()
        return FibrationData(cover, _f1_primitives(cover))
    if name == "thurston-f2":
        return FibrationData(_torus_cover(_C3, shear_wrap=True), {})
    raise KeyError(f"unknown catalog entry {name!r}")


CATALOG_DESCRIPTIONS = {
    "elliptic-demo": "circle, three arcs, trivial monodromy primitives",
    "split-torus-2": "circle, four arcs, trivial monodromy primitives",
    "split-torus-4": "two-torus, 3x3 boxes, translation wraps",
    "thurston-f1": "two-torus, 3x3 boxes, quadratic primitives on the "
    "first-coordinate wrap",
    "thurston-f2": "two-torus, 3x3 boxes, shear wrap in the second "
    "coordinate",
}


def catalog_ids():
    return tuple(sorted(CATALOG_DESCRIPTIONS))
