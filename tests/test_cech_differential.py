"""The Cech differential on ints against the checked body it replaced.

``AffCochain.differential`` puts a cochain's constants over one
denominator, moves the omitted-least-vertex term through the cover's
``edge_transports`` table and builds each nonzero value once.  The body
it replaced, which composed, added and negated checked AffineFunctions,
is kept here as the reference: values, key order and repr must come out
identical on the catalogs and on three catalog covers scaled to
fractional translations, at degrees 0, 1 and 2, and d o d must vanish.
"""

import random
from fractions import Fraction

import pytest

from mirrorforge.affine import AffineFunction, dot
from mirrorforge.cover import AffCochain
from test_sparse_solver import COVER_IDS, COVERS, cover_of

F = Fraction


def compose_with_map(fn, phi):
    """AffineFunction.compose_with_map as it stood: (fn o phi)(x) =
    fn(M x + tau), built through the checked constructor."""
    mt = tuple(zip(*phi.linear))
    linear = tuple(dot(row, fn.linear) for row in mt)
    return AffineFunction(linear, fn.constant + dot(fn.linear, phi.translation))


def reference_differential(cochain):
    """AffCochain.differential on checked affine arithmetic, as it stood."""
    cover = cochain.cover
    out = {}
    for face in cover.faces_of_degree(cochain.degree + 1):
        total = AffineFunction.zero(cover.dimension)
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            val = cochain.value(sub)
            if k == 0:
                val = compose_with_map(val, cover.transition(face[0], face[1]))
            total = total + (val if k % 2 == 0 else -val)
        out[face] = total
    return AffCochain(cover, cochain.degree + 1, out)


def seeded_cochain(cover, degree, rng):
    """About 30% of the faces left out, a few given the zero function,
    and constants over denominators 1 to 6."""
    values = {}
    for face in cover.faces_of_degree(degree):
        draw = rng.random()
        if draw < 0.3:
            continue
        if draw < 0.35:
            values[face] = AffineFunction.zero(cover.dimension)
            continue
        linear = tuple(rng.randrange(-4, 5) for _ in range(cover.dimension))
        values[face] = AffineFunction(linear, F(rng.randrange(-12, 13), rng.randint(1, 6)))
    return AffCochain(cover, degree, values)


def snapshot(cochain):
    """Degree, the values in key order with the types of their parts,
    and the reprs."""
    values = [
        (face, fn.linear, fn.constant, tuple(map(type, fn.linear)), type(fn.constant), repr(fn))
        for face, fn in cochain._values.items()
    ]
    return cochain.degree, values, repr(cochain)


@pytest.mark.parametrize("name, s", COVERS, ids=COVER_IDS)
def test_the_differential_matches_the_checked_body(name, s):
    cover = cover_of(name, s)
    rng = random.Random(2900 + sum(map(ord, name)) + (0 if s is None else s.denominator))
    nonzero = 0
    for degree in (0, 1, 2):
        for _ in range(30):
            cochain = seeded_cochain(cover, degree, rng)
            ours = cochain.differential()
            assert snapshot(ours) == snapshot(reference_differential(cochain))
            assert ours == reference_differential(cochain)
            assert ours.differential().is_zero()
            nonzero += not ours.is_zero()
    assert nonzero >= 20
    # the scaled covers are the ones with fractional translations
    taus = [cover.transition(*edge).translation for edge in cover.faces_of_degree(1)]
    assert any(x.denominator > 1 for tau in taus for x in tau) == (s is not None)

