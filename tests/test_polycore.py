from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from vexpf.polycore import (
    NotDivisible,
    Polynomial,
    dyadic,
    exact_divide,
    series_inverse,
)


def X(i):
    return Polynomial.variable("x", i)


def Y(i):
    return Polynomial.variable("y", i)


def T(i):
    return Polynomial.variable("t", i)


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
        assert (1 + X(1)).star() == 1 - X(1)
        p = 1 + T(1) + T(1) * T(2)
        assert p.star() == 1 - T(1) + T(1) * T(2)
        assert p.star().star() == p

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
    assert (a * b).star() == a.star() * b.star()
    assert a.star().star() == a


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


_VARIABLES = [("x", 1), ("x", 2), ("x", 3), ("y", 1), ("t", 1)]


def naive_substitute(p, mapping):
    """Term by term, each power as repeated products."""
    out = Polynomial()
    for mono, coeff in p.terms.items():
        term = Polynomial.const(coeff)
        for v, e in mono:
            if v in mapping:
                for _ in range(e):
                    term = term * Polynomial.of(mapping[v])
            else:
                term = term * Polynomial({((v, e),): 1})
        out = out + term
    return out


@st.composite
def laurent_polynomials(draw):
    """A sum of up to three polynomials(), each times an h1^k, -2 <= k <= 2."""
    p = Polynomial()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(-2, 2))
        p = p + draw(polynomials()) * Polynomial({(((("h", 1), k),) if k else ()): 1})
    return p


images = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.sampled_from([X(1), X(2), -X(1), X(2) - Y(1)]),
    polynomials(maxdeg=2),
)


@given(laurent_polynomials(), st.dictionaries(st.sampled_from(_VARIABLES), images))
@example(3 * X(1) ** 2 * X(2) - X(2) + Y(1), {("x", 1): X(2), ("x", 2): X(2)})
def test_substitute_matches_naive(p, mapping):
    assert p.substitute(mapping) == naive_substitute(p, mapping)
