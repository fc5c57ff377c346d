import inspect
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from vexpf import polycore
from vexpf.polycore import (
    FAMILIES,
    ExponentOverflow,
    NotDivisible,
    Polynomial,
    dyadic,
    exact_divide,
    series_inverse,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def X(i):
    return Polynomial.variable("x", i)


def Y(i):
    return Polynomial.variable("y", i)


def T(i):
    return Polynomial.variable("t", i)


def power(family, index, e):
    """v^e as a one-term Polynomial; e may be negative."""
    return Polynomial({(((family, index), e),): 1})


class TestCoefficients:
    def test_canonical_form(self):
        two = dyadic(Fraction(4, 2))
        assert two == 2 and type(two) is int
        assert dyadic(Fraction(-3, 4)) == Fraction(-3, 4)
        assert Polynomial.const(Fraction(6, 2)).terms == {(): 3}

    def test_division(self):
        with pytest.raises(NotDivisible):
            dyadic(Fraction(1, 3))
        assert exact_divide(6 * X(1), 4 * X(1)) == Polynomial.const(Fraction(3, 2))
        with pytest.raises(NotDivisible):
            exact_divide(X(1), Polynomial.const(3))
        with pytest.raises(NotDivisible):
            series_inverse(3 + X(1), 2)

    def test_rejects_inexact_values(self):
        with pytest.raises(TypeError):
            dyadic(0.5)
        with pytest.raises(TypeError):
            Polynomial.const(0.5)

    def test_equality_with_other_types(self):
        # a value that is no Polynomial and no exact number compares unequal
        x = Polynomial.variable("x", 1)
        assert (x == None) is False  # noqa: E711
        assert x != "x1" and x in [None, x]
        assert Polynomial.const(Fraction(1, 2)) == Fraction(2, 4) != x

    def test_equality_with_a_non_dyadic_number(self):
        # no Polynomial has the value 1/3: unequal, where it used to raise
        assert (Polynomial.const(2) == Fraction(1, 3)) is False
        assert Polynomial.const(2) != Fraction(2, 3)
        assert (Polynomial() == Fraction(1, 3)) is False


class TestPolynomial:
    def test_difference_of_squares(self):
        assert (X(1) + Y(1)) * (X(1) - Y(1)) == X(1) ** 2 - Y(1) ** 2

    def test_mul_identity(self):
        p = X(1) * Y(2) + 3 * T(1)
        assert p * Polynomial.const(1) == p

    def test_expand_product(self):
        lhs = (1 + T(1)) * (1 + T(2))
        rhs = 1 + T(1) + T(2) + T(1) * T(2)
        assert lhs == rhs

    def test_substitute(self):
        p = 1 + T(1)
        assert p.substitute({("t", 1): X(1)}) == 1 + X(1)
        q = X(1) ** 2
        assert q.substitute({("x", 1): -X(1)}) == q
        e2 = T(1) * T(2)
        assert e2.substitute({("t", 1): X(1), ("t", 2): Y(1)}) == X(1) * Y(1)

    def test_star(self):
        assert star(1 + X(1)) == 1 - X(1)
        p = 1 + T(1) + T(1) * T(2)
        assert star(p) == 1 - T(1) + T(1) * T(2)
        assert star(star(p)) == p

    def test_laurent_exponents_cancel(self):
        # h1 * h1^-1 lands on the key (), with no h1^0 left behind
        h1 = Polynomial.variable("h", 1)
        h1_inv = Polynomial({((("h", 1), -1),): 1})
        assert (h1 * h1_inv).terms == {(): 1}
        assert (X(1) * h1_inv * h1).terms == X(1).terms

    def test_constructor_sorts_monomials(self):
        # the caller's variable order must not make a second key for x1*y1
        yx = Polynomial({((("y", 1), 1), (("x", 1), 1)): 1})
        assert yx == X(1) * Y(1)
        assert str(yx + X(1) * Y(1)) == "2*x1*y1"

    def test_constructor_merges_a_repeated_variable(self):
        # exponents of a variable given twice add, and a cancelling pair drops
        x1_x1 = Polynomial({((("x", 1), 1), (("x", 1), 1)): 1})
        assert x1_x1 == X(1) ** 2
        assert str(x1_x1 + X(1) ** 2) == "2*x1^2"
        h1 = (("h", 1), 1)
        assert Polynomial({(h1, (("x", 2), 1), (("h", 1), -1)): 3}) == 3 * X(2)

    def test_exact_divide(self):
        assert exact_divide(X(1) ** 2 - X(2) ** 2, X(1) - X(2)) == X(1) + X(2)
        assert exact_divide(Polynomial.const(0), X(1)) == Polynomial.const(0)
        assert exact_divide(2 * X(1) * Y(1), -2 * X(1)) == -Y(1)
        with pytest.raises(NotDivisible):
            exact_divide(X(1) + Y(1), X(1) - Y(1))

    def test_exact_divide_fails_after_quotient_terms(self):
        # x1 and then -1 go into the quotient before the remainder 2 shows
        # that x1 + 1 does not divide
        with pytest.raises(NotDivisible):
            exact_divide(X(1) ** 2 + 1, X(1) + 1)

    def test_exact_divide_skips_cancelled_remainder_terms(self):
        # dividing by x1 - x2, the quotient term x2 brings +x2^3 into the
        # remainder, cancelling the -x2^3 still waiting in the heap
        d = X(1) - X(2)
        q = X(1) ** 2 + X(1) * X(2) + X(2) ** 2
        assert exact_divide(X(1) ** 3 - X(2) ** 3, d) == q
        q = X(1) + X(2) - 3 * Y(1)
        assert exact_divide(q * d * (X(1) + X(2)), d * (X(1) + X(2))) == q

    def test_exact_divide_by_a_divisor_without_x(self):
        # the divisor's leading monomial is in y, and then only in t
        assert exact_divide(Y(1) ** 2 - T(1) ** 2, Y(1) - T(1)) == Y(1) + T(1)
        assert exact_divide(T(1) ** 2 - 4 * T(2) ** 2, T(1) + 2 * T(2)) == T(1) - 2 * T(2)

    def test_parts_and_degree(self):
        p = 1 + X(1) + X(1) * X(2)
        assert p.degree() == 2
        assert p.part(1) == X(1)
        assert p.truncate(1) == 1 + X(1)

    def test_str_deterministic(self):
        p = X(1) - Y(1) + Fraction(1, 2) * T(2) ** 3
        assert str(p) == "1/2*t2^3 + x1 - y1"

    def test_series_inverse(self):
        p = 1 + X(1)
        inv = series_inverse(p, 4)
        assert (p * inv).truncate(4) == Polynomial.const(1)
        # geometric series
        assert inv == 1 - X(1) + X(1) ** 2 - X(1) ** 3 + X(1) ** 4


# -- randomized ring-axiom checks -------------------------------------------

coeffs = st.integers(min_value=-8, max_value=8)


@st.composite
def polynomials(draw, maxdeg=3):
    nterms = draw(st.integers(0, 5))
    p = Polynomial()
    for _ in range(nterms):
        c = draw(coeffs)
        term = Polynomial.const(c)
        for _ in range(draw(st.integers(0, maxdeg))):
            fam = draw(st.sampled_from(["x", "y", "t"]))
            idx = draw(st.integers(1, 3))
            term = term * Polynomial.variable(fam, idx)
        p = p + term
    return p


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (b + c) == (a + b) + c


@given(polynomials(), polynomials())
def test_star_multiplicative(a, b):
    assert star(a * b) == star(a) * star(b)
    assert star(star(a)) == a


@given(polynomials(), polynomials())
def test_exact_divide_roundtrip(q, d):
    if not d:
        return
    assert exact_divide(q * d, d) == q


@given(polynomials(), polynomials(), polynomials(maxdeg=2))
def test_exact_divide_rejects_a_low_degree_remainder(q, d, r):
    # r = (q' - q) d would need deg r >= deg d
    assume(r and r.degree() < d.degree())
    with pytest.raises(NotDivisible):
        exact_divide(q * d + r, d)


# -- the tuple-monomial reference --------------------------------------------
# A monomial is a tuple of ((family, index), exponent) pairs sorted by
# variable, exponents nonzero; a polynomial is a dict {monomial: coefficient}.
# This is the representation the packed kernel replaced, kept as an oracle.


def _ref_sorted(exps: dict) -> tuple:
    pairs = [(v, e) for v, e in exps.items() if e]
    return tuple(sorted(pairs, key=lambda p: (FAMILIES.index(p[0][0]), p[0][1])))


def ref_mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return _ref_sorted(exps)


def _ref_add(acc: dict, m, c):
    c += acc.get(m, 0)
    if c:
        acc[m] = c
    else:
        acc.pop(m, None)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _ref_add(out, ref_mono_mul(m1, m2), c1 * c2)
    return out


def ref_pow(a: dict, n: int) -> dict:
    out = {(): 1}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def _ref_degree(m) -> int:
    return sum(e for _, e in m)


def ref_part(a: dict, d: int) -> dict:
    return {m: c for m, c in a.items() if _ref_degree(m) == d}


def star(p: Polynomial) -> Polynomial:
    """p with its degree-d component times (-1)^d, read off the packed
    monomials: the low bit of one is the parity of its degree."""
    return Polynomial.from_packed({m: -c if m & 1 else c for m, c in p.packed.items()}, p.e)


def ref_star(a: dict) -> dict:
    return {m: -c if _ref_degree(m) % 2 else c for m, c in a.items()}


def ref_truncate(a: dict, d: int) -> dict:
    return {m: c for m, c in a.items() if _ref_degree(m) <= d}


def ref_split(a: dict, v) -> dict:
    out = {}
    for m, c in a.items():
        e = dict(m).get(v, 0)
        out.setdefault(e, {})[tuple(p for p in m if p[0] != v)] = c
    return out


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        _ref_add(out, m, sign * c)
    return out


def ref_substitute(a: dict, mapping: dict) -> dict:
    """Term by term, each power as repeated products of the image."""
    out = {}
    for mono, coeff in a.items():
        term = {(): coeff}
        for v, e in mono:
            if v in mapping:
                image = Polynomial.of(mapping[v]).terms
                if e < 0:
                    # only a unit monomial +-w has an inverse, +-w^-1
                    [(w, c)] = image.items()
                    assert c in (1, -1)
                    image = {tuple((u, -k) for u, k in w): c}
                for _ in range(abs(e)):
                    term = ref_mul(term, image)
            else:
                term = ref_mul(term, {((v, e),): 1})
        for m, c in term.items():
            _ref_add(out, m, c)
    return out


_PLAIN = [("x", 1), ("x", 2), ("x", 3), ("y", 1), ("y", 2), ("t", 1), ("z", 2), ("u", 1)]
_LAURENT = [("h", 1), ("h", 2)]
_REF_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
# n/2^k, 0 <= k <= 6
_DYADIC_COEFFS = st.builds(lambda n, k: Fraction(n, 1 << k),
                           st.integers(-40, 40), st.integers(0, 6))


@st.composite
def ref_polynomials(draw, max_terms=5, laurent=True, coeffs=_REF_COEFFS):
    """A reference polynomial with up to max_terms terms; h exponents may
    be negative."""
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(st.sampled_from(_PLAIN), st.integers(1, 3), max_size=3))
        if laurent:
            exps.update(draw(st.dictionaries(st.sampled_from(_LAURENT), st.integers(-3, 3),
                                             max_size=2)))
        _ref_add(out, _ref_sorted(exps), draw(coeffs))
    return out


def dyadic_refs(max_terms=5, laurent=True):
    return ref_polynomials(max_terms, laurent, _DYADIC_COEFFS)


@given(dyadic_refs())
def test_graded_terms_in_lowest_terms(a):
    # each term's num / 2^k is its coefficient, reduced, read off the int
    # and the shared exponent
    terms = polycore.graded_terms(Polynomial(a))
    assert {mono: Fraction(n, 1 << k) for mono, n, k in terms} == a
    assert all(k == 0 or n & 1 for _, n, k in terms)


def test_render_dyadic_coefficients():
    p = Fraction(-3, 4) * X(1) + Fraction(6, 4) * Y(1) ** 2 + Fraction(1, 8)
    assert polycore.render_terms(p) == "3/2*y1^2 - 3/4*x1 + 1/8"
    assert polycore.render_terms(p, latex=True) == (
        "\\frac{3}{2} y_{1}^{2} + \\frac{-3}{4} x_{1} + \\frac{1}{8}"
    )


_VARIABLES = [("x", 1), ("x", 2), ("x", 3), ("y", 1), ("t", 1)]


def merges_at_most_two(pairs: dict) -> bool:
    """Whether the renaming {v: (w, sign)} adds at most two exponents into
    any one field: those of the v sent to w, and w's own unless w is
    renamed too."""
    sent = Counter(w for w, _ in pairs.values())
    return all(count + (w not in pairs) <= 2 for w, count in sent.items())


def renamings(keys, targets):
    """Maps v -> +-w, v in keys and w in targets, that `substitute` takes."""
    return st.dictionaries(
        st.sampled_from(keys),
        st.tuples(st.sampled_from(targets), st.sampled_from([1, -1])),
    ).filter(merges_at_most_two).map(
        lambda pairs: {v: s * Polynomial.variable(*w) for v, (w, s) in pairs.items()})


signed_renamings = renamings(_VARIABLES + _LAURENT, _VARIABLES + _PLAIN + _LAURENT)


@st.composite
def laurent_polynomials(draw):
    """A sum of up to three polynomials(), each times an h1^k, -2 <= k <= 2."""
    p = Polynomial()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(-2, 2))
        p = p + draw(polynomials()) * Polynomial({(((("h", 1), k),) if k else ()): 1})
    return p


@given(laurent_polynomials(), renamings(_VARIABLES, _VARIABLES))
@example(3 * X(1) ** 2 * X(2) - X(2) + Y(1), {("x", 1): X(2), ("x", 2): X(2)})
def test_substitute_matches_naive(p, mapping):
    assert p.substitute(mapping).terms == ref_substitute(p.terms, mapping)


def is_signed_variable(p) -> bool:
    """Whether p is +-w for a variable w."""
    terms = Polynomial.of(p).terms
    return len(terms) == 1 and all(abs(c) == 1 and len(m) == 1 and m[0][1] == 1
                                   for m, c in terms.items())


def general_images(coeffs, refs):
    """Maps v -> image, at least one image not +-w, that `substitute` refuses."""
    image = st.one_of(
        coeffs,
        st.sampled_from([2 * X(1), X(2) - Y(1), 1 + X(1), X(1) ** 2,
                         Polynomial.const(Fraction(1, 2))]),
        refs(max_terms=3, laurent=False).map(Polynomial),
    )
    return st.dictionaries(st.sampled_from(_VARIABLES), image, min_size=1).filter(
        lambda mapping: not all(map(is_signed_variable, mapping.values())))


def assert_refused(a: dict, mapping: dict):
    """`substitute` refuses a non-renaming image and leaves its polynomial as it was."""
    p = Polynomial(a)
    with pytest.raises(ValueError, match="renames variables"):
        p.substitute(mapping)
    assert p.terms == Polynomial(a).terms


@pytest.mark.parametrize("mapping", [
    {("h", 1): X(1), ("h", 2): X(1)},
    {("x", 1): X(3), ("x", 2): -X(3)},
    {("x", 1): Y(1), ("x", 2): Y(1), ("y", 1): Y(1)},
])
def test_substitute_rejects_a_merge_of_three(mapping):
    # three exponents in one field are more than `_check` vouches for, so
    # the renaming is refused whatever the polynomial
    for p in (Polynomial(), X(1) * Y(1), power("h", 1, -2) * power("h", 2, 1) * X(1)):
        with pytest.raises(ValueError, match="more than two exponents"):
            p.substitute(mapping)


def assert_normalized(p):
    """int coefficients over 2^e, e >= 0, and e == 0 or some coefficient odd."""
    assert p.e >= 0 and all(type(c) is int and c for c in p.packed.values())
    assert p.e == 0 or any(c & 1 for c in p.packed.values())


# -- swap_difference: p - p|v<->w in one pass ---------------------------------

_SWAP_VARS = _VARIABLES + _LAURENT + [("z", 2), ("u", 1)]


@st.composite
def edge_polynomials(draw):
    """q + r * q|v<->w for random q, r and a pair v, w, so that swapped
    partners meet; coefficients n/2^k, 0 <= k <= 6, and exponents that
    reach the field edges -256 and 255."""
    v, w = draw(st.sampled_from(_SWAP_VARS)), draw(st.sampled_from(_SWAP_VARS))
    out = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = draw(st.dictionaries(st.sampled_from(_SWAP_VARS),
                                    st.sampled_from([-256, -2, -1, 1, 2, 3, 255]), max_size=3))
        _ref_add(out, _ref_sorted(exps), draw(_DYADIC_COEFFS))
    q = Polynomial(out)
    swapped = q.substitute({v: Polynomial.variable(*w), w: Polynomial.variable(*v)})
    return q + draw(_DYADIC_COEFFS) * swapped, v, w


@given(edge_polynomials())
# a cancellation that leaves every coefficient even renormalizes to e == 0
@example(((3 * X(1) + X(2)) * Polynomial.const(Fraction(1, 2)), ("x", 1), ("x", 2)))
@example((power("h", 1, -256) * power("h", 2, 255) - X(1), ("h", 1), ("h", 2)))
def test_swap_difference_matches_substitute(case):
    p, v, w = case
    got = p.swap_difference(v, w)
    assert got == p - p.substitute({v: Polynomial.variable(*w), w: Polynomial.variable(*v)})
    assert_normalized(got)


def test_swap_difference_edges():
    p = power("h", 1, -256) * power("h", 2, 255) * Polynomial.const(Fraction(3, 64))
    got = p.swap_difference(("h", 1), ("h", 2))
    assert got.terms == {((("h", 1), -256), (("h", 2), 255)): Fraction(3, 64),
                         ((("h", 1), 255), (("h", 2), -256)): Fraction(-3, 64)}


def test_swap_difference_with_a_variable_never_interned():
    # ("z", 97) and ("z", 98) appear in no other test
    fresh, other = ("z", 97), ("z", 98)
    assert fresh not in polycore._UNIT and other not in polycore._UNIT
    p = X(1) ** 2 * Y(1) - 3 * X(2) + Polynomial.const(Fraction(5, 8))
    got = p.swap_difference(("x", 1), fresh)
    z = Polynomial.variable(*fresh)
    assert got == p - p.substitute({("x", 1): z, fresh: X(1)})
    assert got == X(1) ** 2 * Y(1) - z ** 2 * Y(1)
    assert not p.swap_difference(other, ("z", 99))


# -- exact_divide by +-(v - w): quotients as geometric sums --------------------

_DIVISOR_PAIRS = [(("x", 1), ("x", 2)), (("x", 3), ("x", 2)), (("y", 1), ("t", 1)),
                  (("z", 2), ("x", 1)), (("u", 1), ("y", 2))]


@given(ref_polynomials(coeffs=st.one_of(_REF_COEFFS, _DYADIC_COEFFS)),
       st.sampled_from(_DIVISOR_PAIRS), st.sampled_from([1, -1]))
@example({((("x", 1), 3), (("y", 1), 1)): Fraction(3, 8), ((("x", 2), 2),): 5},
         (("x", 1), ("x", 2)), 1)
def test_exact_divide_of_a_swap_difference(f, pair, sign):
    v, w = pair
    p = Polynomial(f).swap_difference(v, w)
    d = sign * (Polynomial.variable(*v) - Polynomial.variable(*w))
    q = exact_divide(p, d)
    assert q * d == p
    assert_normalized(q)
    # the numerator is alternating, so the geometric sums give q
    assert polycore._alternating_quotient(p, polycore._unit(v), polycore._unit(w)) is not None


def test_exact_divide_by_a_difference_of_variables_otherwise():
    v, w = X(1), X(2)
    # divisible but not alternating: the heap loop
    units = polycore._unit(("x", 1)), polycore._unit(("x", 2))
    assert polycore._alternating_quotient((v - w) * v, *units) is None
    assert exact_divide((v - w) * v, v - w) == v
    assert exact_divide((v - w) * (v + 3 * Y(1)), w - v) == -v - 3 * Y(1)
    # not divisible, and not alternating: a term fixed by the swap, a term
    # with no partner, or a partner with the wrong coefficient
    for p in (v ** 2 - w, v - w + v * w, v - w - w ** 2, v - 2 * w, v + w):
        with pytest.raises(NotDivisible):
            exact_divide(p, v - w)
    assert exact_divide(Polynomial(), v - w) == Polynomial()
    # a negative exponent in v or w keeps the heap loop's answer
    with pytest.raises(NotDivisible):
        exact_divide(power("h", 1, -1) - power("h", 2, -1), power("h", 1, 1) - power("h", 2, 1))
    # unit coefficients only: 2(v - w) and (v - w)/2 take the heap loop
    assert exact_divide(v ** 2 - w ** 2, 2 * v - 2 * w) == Fraction(1, 2) * (v + w)
    assert exact_divide(v ** 2 - w ** 2, Fraction(1, 2) * (v - w)) == 2 * (v + w)


# -- divided_difference: (p - p|v<->w)/(v - w) in one pass --------------------


@given(ref_polynomials(coeffs=st.one_of(_REF_COEFFS, _DYADIC_COEFFS)),
       st.sampled_from(_DIVISOR_PAIRS))
@example({((("x", 1), 3), (("y", 1), 1)): Fraction(3, 8), ((("x", 2), 2),): 5},
         (("x", 1), ("x", 2)))
def test_divided_difference_matches_the_division(f, pair):
    v, w = pair
    p = Polynomial(f)
    got = p.divided_difference(v, w)
    assert got == exact_divide(p.swap_difference(v, w),
                               Polynomial.variable(*v) - Polynomial.variable(*w))
    assert_normalized(got)


@given(edge_polynomials())
@example((power("h", 1, -256) * power("h", 2, 255) - X(1), ("h", 1), ("h", 2)))
@example((power("h", 1, -1) - power("h", 2, -1), ("h", 1), ("h", 2)))
def test_divided_difference_of_laurent_polynomials(case):
    # a negative exponent of v or w sends `exact_divide` to its heap loop,
    # which may give up; the geometric sums still hold
    p, v, w = case
    got = p.divided_difference(v, w)
    assert got * (Polynomial.variable(*v) - Polynomial.variable(*w)) == p.swap_difference(v, w)
    assert_normalized(got)


def test_divided_difference_with_a_variable_never_interned():
    # ("z", 95) and ("z", 96) appear in no other test
    fresh, other = ("z", 95), ("z", 96)
    assert fresh not in polycore._UNIT and other not in polycore._UNIT
    p = X(1) ** 2 * Y(1) - 3 * X(2) + Polynomial.const(Fraction(5, 8))
    assert p.divided_difference(fresh, other) == Polynomial()
    # one of the two never seen: x1^2 y1 - z^2 y1 over x1 - z
    got = p.divided_difference(("x", 1), fresh)
    assert got == (X(1) + Polynomial.variable(*fresh)) * Y(1)


@given(edge_polynomials())
def test_divided_difference_of_a_symmetric_polynomial(case):
    q, v, w = case
    p = q + q.substitute({v: Polynomial.variable(*w), w: Polynomial.variable(*v)})
    assert p.divided_difference(v, w) == Polynomial()


def test_divided_difference_at_the_field_edges():
    h1, h2 = power("h", 1, 1), power("h", 2, 1)
    p = power("h", 1, 255) * power("h", 2, -256) * Polynomial.const(Fraction(3, 64))
    for v, w, sign in ((("h", 1), ("h", 2), 1), (("h", 2), ("h", 1), -1)):
        got = p.divided_difference(v, w)
        # the run h1^j h2^(254 - j) / (h1 h2)^256, j = 0 .. 510
        assert got == Polynomial({((("h", 1), j - 256), (("h", 2), 254 - j)): sign * Fraction(3, 64)
                                  for j in range(511)})
        assert got * (h1 - h2) == sign * p.swap_difference(("h", 1), ("h", 2))


class TestOracle:
    """The packed kernel against the tuple-monomial reference."""

    @given(ref_polynomials(), ref_polynomials())
    def test_mul(self, a, b):
        assert (Polynomial(a) * Polynomial(b)).terms == ref_mul(a, b)

    @given(ref_polynomials(max_terms=3), st.integers(0, 4))
    def test_pow(self, a, n):
        assert (Polynomial(a) ** n).terms == ref_pow(a, n)

    @given(ref_polynomials(), st.integers(-4, 6))
    def test_part_and_star(self, a, d):
        p = Polynomial(a)
        assert p.part(d).terms == ref_part(a, d)
        assert star(p).terms == ref_star(a)
        assert p.degree() == max(map(_ref_degree, a), default=-1)

    @given(ref_polynomials(laurent=False), ref_polynomials(max_terms=3, laurent=False))
    def test_exact_divide(self, q, d):
        assume(d)
        assert exact_divide(Polynomial(ref_mul(q, d)), Polynomial(d)).terms == q

    @given(ref_polynomials(), signed_renamings)
    @example({((("x", 1), 2), (("h", 1), -2)): 1, ((("x", 2), 1),): 3},
             {("x", 1): Polynomial.variable("x", 2), ("x", 2): Polynomial.variable("x", 1)})
    @example({((("x", 1), 3), (("h", 2), -1)): 1}, {("x", 1): -Polynomial.variable("x", 1)})
    @example({((("h", 1), -2), (("h", 2), 1), (("x", 1), 1)): 1},
             {("h", 1): Polynomial.variable("x", 1), ("h", 2): -Polynomial.variable("h", 1)})
    def test_substitute_renaming_and_sign(self, a, mapping):
        # a mapped h^-k moves to the inverse of its image
        assert Polynomial(a).substitute(mapping).terms == ref_substitute(a, mapping)

    @given(ref_polynomials(), general_images(st.integers(-3, 3), ref_polynomials))
    @example({((("x", 2), 1),): 1}, {("x", 2): 2 * X(1)})
    @example({((("x", 2), 1),): 1}, {("x", 2): X(1) ** 2})
    @example({((("x", 2), 1),): 1}, {("x", 2): 0})
    @example({((("x", 1), 1),): 1}, {("x", 1): X(2), ("x", 2): 1 + X(1)})
    def test_substitute_general(self, a, mapping):
        # only renamings are taken: any other image is refused
        assert_refused(a, mapping)

    def test_laurent_exponent_cancels_to_zero(self):
        a = {((("x", 1), 1), (("h", 1), 2)): 1}
        b = {((("h", 1), -2), (("y", 1), 1)): 3}
        assert (Polynomial(a) * Polynomial(b)).terms == ref_mul(a, b) == {
            ((("x", 1), 1), (("y", 1), 1)): 3}

    @given(ref_polynomials(max_terms=1), st.integers(0, 4))
    def test_power_of_a_unit_monomial(self, a, n):
        assume(len(a) == 1 and set(a.values()) <= {1, -1})
        assert (Polynomial(a) ** n).terms == ref_pow(a, n)

    @given(dyadic_refs(max_terms=3), st.integers(-4, -1))
    @example({((("x", 1), 1),): 1}, -1)
    @example({(): 1}, -1)
    def test_negative_power(self, a, n):
        # no power is an inverse, not even of a unit monomial or of 1
        with pytest.raises(ValueError, match="negative power"):
            Polynomial(a) ** n

    def test_negative_power_of_a_sum(self):
        with pytest.raises(ValueError, match="negative power"):
            (1 + Polynomial.variable("x", 1)) ** -1
        with pytest.raises(ValueError, match="negative power"):
            (2 * Polynomial.variable("x", 1)) ** -1

    # -- coefficients n/2^k against a dict of Fractions ---------------------

    @given(dyadic_refs(), dyadic_refs())
    @example({(): Fraction(1, 2)}, {(): Fraction(1, 2)})
    @example({((("x", 1), 1),): Fraction(3, 4)}, {((("x", 1), 1),): Fraction(1, 4), (): 2})
    def test_dyadic_sum_difference_product(self, a, b):
        pa, pb = Polynomial(a), Polynomial(b)
        for out, ref in [(pa + pb, ref_add(a, b)), (pa - pb, ref_add(a, b, -1)),
                         (pa * pb, ref_mul(a, b)), (-pa, ref_add({}, a, -1))]:
            assert_normalized(out)
            assert out.terms == ref
        assert_normalized(pa)

    @given(dyadic_refs(max_terms=3), st.integers(0, 4))
    def test_dyadic_pow(self, a, n):
        out = Polynomial(a) ** n
        assert_normalized(out)
        assert out.terms == ref_pow(a, n)

    @given(dyadic_refs(), signed_renamings)
    @example({((("x", 1), 1),): Fraction(1, 2), ((("x", 2), 1),): Fraction(1, 2)},
             {("x", 1): Polynomial.variable("x", 2)})
    def test_dyadic_substitute_renaming(self, a, mapping):
        # x1/2 + x2/2 with x1 -> x2 merges into x2 and leaves e = 0
        out = Polynomial(a).substitute(mapping)
        assert_normalized(out)
        assert out.terms == ref_substitute(a, mapping)

    @given(dyadic_refs(), general_images(_DYADIC_COEFFS, dyadic_refs))
    @example({((("x", 1), 1),): Fraction(1, 2), (): Fraction(1, 4)},
             {("x", 1): Polynomial.const(Fraction(1, 2))})
    @example({((("x", 2), 1),): 1}, {("x", 2): Fraction(1, 2) * X(1)})
    def test_dyadic_substitute_general(self, a, mapping):
        assert_refused(a, mapping)

    @given(dyadic_refs(), st.integers(-4, 6), st.sampled_from(_VARIABLES + _LAURENT))
    @example({((("x", 1), 1),): Fraction(1, 2), ((("x", 1), 2),): 3}, 2, ("x", 1))
    def test_dyadic_filters(self, a, d, v):
        # keeping only 3*x1^2 of x1/2 + 3*x1^2 leaves e = 0
        p = Polynomial(a)
        pieces = p.split(v)
        assert set(pieces) == set(ref_split(a, v))
        checks = [(p.part(d), ref_part(a, d)), (p.truncate(d), ref_truncate(a, d)),
                  (star(p), ref_star(a))]
        checks += [(pieces[k], ref) for k, ref in ref_split(a, v).items()]
        for out, ref in checks:
            assert_normalized(out)
            assert out.terms == ref

    @given(dyadic_refs(laurent=False), ref_polynomials(max_terms=3, laurent=False),
           st.sampled_from([1, -1, 2, -2, 4, -4, 3]))
    def test_dyadic_exact_divide(self, q, d, lead):
        assume(d)
        d = dict(d)
        # the kernel's leading monomial of d gets the coefficient lead
        [key] = Polynomial.from_packed({max(Polynomial(d).packed): 1}).terms
        d[key] = lead
        out = exact_divide(Polynomial(ref_mul(q, d)), Polynomial(d))
        assert_normalized(out)
        assert out.terms == q

    @given(dyadic_refs(laurent=False), ref_polynomials(max_terms=3, laurent=False))
    def test_dyadic_exact_divide_by_three(self, q, d):
        # q d / (3 d) = q / 3 has a coefficient that is not dyadic
        assume(d and any(Fraction(c).numerator % 3 for c in q.values()))
        with pytest.raises(NotDivisible):
            exact_divide(Polynomial(ref_mul(q, d)), Polynomial({m: 3 * c for m, c in d.items()}))

    def test_renaming_of_a_laurent_power(self):
        # a renaming is a ring automorphism of the Laurent polynomials
        h = Polynomial({((("h", 1), -2), (("x", 1), 1)): 1})
        out = h.substitute({("h", 1): Polynomial.variable("h", 2)})
        assert out.terms == {((("x", 1), 1), (("h", 2), -2)): 1}


_INTERNING_SCRIPT = """
import sys
from vexpf.polycore import Polynomial, exact_divide
""" + inspect.getsource(star) + """
order = sys.argv[1:]
for name in order:
    Polynomial.variable(name[0], int(name[1:]))
X = lambda i: Polynomial.variable("x", i)
Y = lambda i: Polynomial.variable("y", i)
h = Polynomial({((("h", 1), -1),): 1})
p = (X(1) - Y(2) + h) * (1 + X(2) * Y(1)) ** 2
d = X(1) - X(2)
print(p)
print(sorted(p.terms.items()))
print(exact_divide(p * d, d) == p, star(p), p.part(2), p.degree())
print(p.substitute({("x", 1): X(2), ("x", 2): X(1)}), p.substitute({("y", 2): -Y(1), ("h", 1): X(2)}))
"""


def test_interning_order_changes_no_result():
    """Slots follow the order variables are first used; run the same
    computations after interning the variables in three orders."""
    outputs = set()
    for order in (["x1", "x2", "y1", "y2", "h1"], ["h1", "y2", "y1", "x2", "x1"],
                  ["y1", "h1", "x2", "y2", "x1"]):
        run = subprocess.run([sys.executable, "-c", _INTERNING_SCRIPT, *order],
                             capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
                             check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1


# -- field overflow ----------------------------------------------------------


class TestOverflow:
    """Every way a monomial can leave its fields raises, and none wraps."""

    @pytest.mark.parametrize("fam, e1, e2", [("x", 200, 100), ("h", -200, -100), ("h", 255, 1)])
    def test_product(self, fam, e1, e2):
        a = power(fam, 1, e1)
        b = power(fam, 1, e2) * (1 + Polynomial.variable("y", 1))
        with pytest.raises(ExponentOverflow):
            a * b

    @pytest.mark.parametrize("fam, e, n", [("x", 2, 200), ("h", -3, 100), ("x", 1, 256)])
    def test_power(self, fam, e, n):
        with pytest.raises(ExponentOverflow):
            power(fam, 1, e) ** n

    def test_inverse(self):
        # h^-256 is in range and its inverse h^256 is not, but no exponent
        # is formed: a negative power is refused first
        with pytest.raises(ValueError, match="negative power"):
            power("h", 1, -256) ** -1

    def test_in_range_edges(self):
        # the extreme exponents themselves are in range, and decode as given
        top = power("x", 1, 127) * power("x", 1, 128)
        assert top.terms == {((("x", 1), 255),): 1}
        low = power("h", 1, -128) ** 2
        assert low.terms == {((("h", 1), -256),): 1}
        assert (top * power("x", 1, -255)).terms == {(): 1}

    def test_constructor(self):
        with pytest.raises(ExponentOverflow):
            Polynomial({((("x", 1), 256),): 1})
        with pytest.raises(ExponentOverflow):
            Polynomial({((("x", 1), 200), (("x", 1), 100)): 1})
        with pytest.raises(ExponentOverflow):
            power("h", 1, -257)

    def test_substitute_merging_two_fields(self):
        x1, x2 = power("x", 1, 200), power("x", 2, 100)
        with pytest.raises(ExponentOverflow):
            (x1 * x2).substitute({("x", 1): Polynomial.variable("x", 2),
                                  ("x", 2): Polynomial.variable("x", 2)})

    def test_substitute_merging_many_fields(self):
        # four exponents of 200 would add up to 800, one field above its
        # range, where the guard bit is clear again: such a renaming is
        # refused before any term moves
        p = Polynomial.const(1)
        for i in range(1, 5):
            p = p * power("x", i, 200)
        with pytest.raises(ValueError, match="more than two exponents"):
            p.substitute({("x", i): Polynomial.variable("x", 5) for i in range(1, 5)})

    def test_exact_divide_quotient(self):
        with pytest.raises(ExponentOverflow):
            exact_divide(power("h", 1, 200), power("h", 1, -100))

    def test_degree_field(self):
        # 70 variables at exponent 120 keep every exponent field in range
        # while the degree, 16800, leaves its own
        script = (
            "from vexpf.polycore import Polynomial, ExponentOverflow\n"
            "m = Polynomial.const(1)\n"
            "for i in range(1, 71):\n"
            "    m = m * Polynomial({((('z', i), 60),): 1})\n"
            "try:\n"
            "    m * m * m * m\n"
            "except ExponentOverflow:\n"
            "    print('product')\n"
            "try:\n"
            "    Polynomial({tuple((('z', i), 240) for i in range(1, 71)): 1})\n"
            "except ExponentOverflow:\n"
            "    print('constructor')\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={"PYTHONPATH": str(SRC)}, check=True)
        assert run.stdout.split() == ["product", "constructor"]

    def test_divided_difference_degree_field(self):
        # degree -16384, the bottom of its range, with every exponent in
        # range: each quotient monomial would have degree -16385, whether
        # the term has a > b or a < b
        script = (
            "from vexpf.polycore import Polynomial, ExponentOverflow\n"
            "rest = tuple((('h', i), -256) for i in range(3, 65)) + ((('h', 65), -1),)\n"
            "for a, b in ((-255, -256), (-256, -255)):\n"
            "    p = Polynomial({((('h', 1), a), (('h', 2), b)) + rest: 1})\n"
            "    try:\n"
            "        p.divided_difference(('h', 1), ('h', 2))\n"
            "    except ExponentOverflow:\n"
            "        print('overflow')\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={"PYTHONPATH": str(SRC)}, check=True)
        assert run.stdout.split() == ["overflow", "overflow"]

    def test_exact_divide_degree_field(self):
        # p = (x1 - x2) R has degree -16384 and every exponent in range, but
        # R, of degree -16385, does not fit: the alternating path must
        # raise as the kernel does, not wrap to degree 49151
        script = (
            "from vexpf.polycore import Polynomial, ExponentOverflow, exact_divide\n"
            "rest = tuple((('h', i), -256) for i in range(3, 67)) + ((('h', 67), -1),)\n"
            "p = Polynomial({((('x', 1), 1),) + rest: 1, ((('x', 2), 1),) + rest: -1})\n"
            "d = Polynomial({((('x', 1), 1),): 1, ((('x', 2), 1),): -1})\n"
            "for divide in (lambda: exact_divide(p, d), lambda: p.divided_difference(('x', 1), ('x', 2))):\n"
            "    try:\n"
            "        print(divide().degree())\n"
            "    except ExponentOverflow:\n"
            "        print('overflow')\n"
        )
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={"PYTHONPATH": str(SRC)}, check=True)
        assert run.stdout.split() == ["overflow", "overflow"]
