"""The folded field kernel of :mod:`repro.crypto.ed25519` against the
``% p`` formulas it replaced.

The group law reduces its products modulo ``p = 2^255 - 19`` by folding
(``t = (t & M) + (t >> 255) * 19``), so a chain's coordinates are only
*partially* reduced: congruent to the true value, anywhere in
``(-2^256, 2^256)``.  Every folded function is pinned here against the
same formula with ``% p`` after every product, on inputs in every shape
a chain can hand it — negative, in ``[p, 2^256)``, 0, ``p - 1`` and the
seven non-identity torsion points — and so is ``(p-5)/8``'s addition
chain against the builtin ``pow``.  What reads bits, parity or
equality must see fully reduced values: the compressed encoding, point
equality and the affine table entries are pinned to be the same for
every representation of a point.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto import ed25519 as product
from repro.crypto.ed25519 import _D, _L, _P

from . import ed25519_reference as ref
from .test_ed25519_accel import small_order_encodings

BOUND = 2 ** 256
"""Every coordinate a folded function takes or returns lies strictly
within this of zero."""

_D2 = 2 * _D % _P

TORSION = [ref._point_decompress(encoding)
           for encoding in small_order_encodings()[1:]]
"""The seven small-order points other than the identity."""


# -- the % p formulas the kernel replaced ----------------------------------

def mod_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def mod_add_niels(p, q):
    x1, y1, z1, t1 = p
    y_plus_x, y_minus_x, xy2d = q
    a = (y1 - x1) * y_minus_x % _P
    b = (y1 + x1) * y_plus_x % _P
    c = t1 * xy2d % _P
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def mod_double(point):
    x, y, z, _ = point
    xx, yy = x * x, y * y
    h = xx + yy
    e = ((x + y) * (x + y) - h) % _P
    g = (yy - xx) % _P
    f = (2 * z * z - g) % _P
    h %= _P
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def niels(point):
    """The affine table entry of *point*, computed with ``% p``."""
    x, y, z, _ = point
    z_inv = pow(z, _P - 2, _P)
    x, y = x * z_inv % _P, y * z_inv % _P
    return (y + x) % _P, (y - x) % _P, _D2 * x * y % _P


def reduced(point):
    return tuple(coordinate % _P for coordinate in point)


def within_bound(point):
    return all(-BOUND < coordinate < BOUND for coordinate in point)


# -- strategies -------------------------------------------------------------

@st.composite
def curve_points(draw):
    """A point of the whole curve group — a multiple of B, a torsion
    point, the identity, or a sum — in extended coordinates with a
    random Z, fully reduced."""
    kind = draw(st.sampled_from(["multiple", "torsion", "mixed",
                                 "identity"]))
    if kind == "identity":
        point = ref._IDENTITY
    elif kind == "torsion":
        point = draw(st.sampled_from(TORSION))
    else:
        point = product._mul_base(draw(st.integers(0, _L - 1)))
        if kind == "mixed":
            point = ref._point_add(point, draw(st.sampled_from(TORSION)))
    scale = draw(st.integers(1, _P - 1))
    return tuple(coordinate * scale % _P for coordinate in point)


@st.composite
def representations(draw, point):
    """*point* with each coordinate shifted by -p, 0 or +p: negative
    values and values in ``[p, 2^256)``, as a chain hands them on."""
    return tuple(coordinate + draw(st.sampled_from([-_P, 0, _P]))
                 for coordinate in point)


@st.composite
def point_and_representation(draw):
    point = draw(curve_points())
    return point, draw(representations(point))


edge_values = st.sampled_from([0, 1, _P - 1, _P, _P + 1, 2 * _P - 1,
                               -1, -(_P - 1), BOUND - 1, -(BOUND - 1)])
"""Field values at the ends of the partially reduced range."""


# -- the group law -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(point_and_representation(), curve_points())
def test_niels_addition_matches_the_mod_p_formula(pair, other):
    point, shown = pair
    entry = niels(other)
    total = product._point_add_niels(shown, entry)
    assert within_bound(total)
    assert reduced(total) == mod_add_niels(point, entry)


@settings(max_examples=60, deadline=None)
@given(point_and_representation(), point_and_representation())
def test_addition_matches_the_mod_p_formula(first, second):
    total = product._point_add(first[1], second[1])
    assert within_bound(total)
    assert reduced(total) == mod_add(first[0], second[0])


@settings(max_examples=60, deadline=None)
@given(point_and_representation())
def test_doubling_matches_the_mod_p_formula(pair):
    point, shown = pair
    doubled = product._point_double(shown)
    assert within_bound(doubled)
    assert reduced(doubled) == mod_double(point)


@settings(max_examples=60, deadline=None)
@given(st.tuples(edge_values, edge_values, edge_values, edge_values),
       st.tuples(edge_values, edge_values, edge_values, edge_values),
       st.sampled_from(TORSION + [ref._IDENTITY]))
def test_extreme_coordinates_keep_the_bound_and_the_residue(first, second,
                                                            torsion):
    """The formulas are polynomials, so their residues agree on any
    integers, curve points or not; the bound must hold at the ends of
    the range, where a product is largest."""
    entry = niels(torsion)
    for folded, modular in (
            (product._point_add_niels(first, entry),
             mod_add_niels(reduced(first), entry)),
            (product._point_add(first, second),
             mod_add(reduced(first), reduced(second))),
            (product._point_double(first), mod_double(reduced(first)))):
        assert within_bound(folded)
        assert reduced(folded) == modular


@settings(max_examples=30, deadline=None)
@given(point_and_representation(),
       st.lists(st.tuples(st.sampled_from(["double", "niels", "add"]),
                          curve_points()), min_size=1, max_size=40))
def test_a_chain_stays_in_bound_and_on_the_residues(pair, steps):
    """Folded results fed back in, step after step, never leave the
    bound and stay congruent to the fully reduced chain."""
    point, shown = pair
    for operation, other in steps:
        if operation == "double":
            shown, point = product._point_double(shown), mod_double(point)
        elif operation == "niels":
            entry = niels(other)
            shown = product._point_add_niels(shown, entry)
            point = mod_add_niels(point, entry)
        else:
            shown, point = product._point_add(shown, other), \
                mod_add(point, other)
        assert within_bound(shown)
        assert reduced(shown) == point


# -- what reads bits, parity or equality -------------------------------------

@settings(max_examples=60, deadline=None)
@given(point_and_representation())
def test_encodings_equality_and_table_entries_see_reduced_values(pair):
    point, shown = pair
    encoding = product._point_compress(shown)
    assert encoding == product._point_compress(point) \
        == ref._point_compress(point)
    assert int.from_bytes(encoding, "little") & product._M < _P
    assert product._point_equal(shown, point)
    assert product._point_equal(point, shown)
    moved = product._point_add_niels(shown, niels(ref._BASE))
    assert not product._point_equal(shown, moved)
    entries = product._niels_rows([[shown]])[0]
    assert entries == product._niels_rows([[point]])[0]
    assert entries[0] == niels(point)
    assert all(0 <= value < _P for entry in entries for value in entry)


# -- the square root ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-(BOUND - 1), BOUND - 1), edge_values))
def test_root_chain_is_the_builtin_power(shown):
    power = product._pow22523(shown)
    assert within_bound((power,))
    assert power % _P == pow(shown % _P, (_P - 5) // 8, _P)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, _P - 1), edge_values.filter(
    lambda value: 0 <= value < _P)), st.integers(0, 1))
def test_recovered_x_is_the_oracle_s_and_fully_reduced(y, sign):
    try:
        expected = ref._recover_x(y, sign)
    except ValueError:
        expected = None
    try:
        x = product._recover_x(y, sign)
    except ValueError:
        x = None
    assert x == expected
    assert x is None or 0 <= x < _P


def test_torsion_points_decode_to_reduced_coordinates():
    for encoding in small_order_encodings():
        x, y, z, t = product._decompress(encoding)
        assert (x, y, z, t) == ref._point_decompress(encoding)
        assert all(0 <= value < _P for value in (x, y, z, t))
