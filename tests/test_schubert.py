import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vexpf.polycore import Polynomial, divided_differences, exact_divide
from vexpf.gamma import GammaElement, apply_symmetry, specialize_oracle
from vexpf.weyl import SignedPermutation, all_elements, length, reduced_word
from vexpf.triples import Triple, lambda_of, plus_map, triple_of_w, enumerate_triples, validate
from vexpf.multischur import p_family, q_family, r_family
from vexpf import schubert as schubert_module
from vexpf.schubert import (
    divided_difference,
    expand_coeffs,
    formula_rows,
    schubert,
    swap_xy,
    top_class,
    vexillary_polynomial,
)

from oracles import (
    branch_term_by_term,
    degeneracy_formula,
    localization_failures,
    symfun_series,
    top_term,
)
from random_routes import schubert_by_random_route


def x(i):
    return Polynomial.variable("x", i)


def y(i):
    return Polynomial.variable("y", i)


class TestOperators:
    def test_basic_a(self):
        assert divided_difference(1, x(1), "A") == Polynomial.const(1)
        assert divided_difference(1, x(1) * x(2), "A") == Polynomial()

    def test_d0_type_c(self):
        got = divided_difference(0, GammaElement.basis((2,)), "C")
        assert got == GammaElement({(1,): 1, (): x(1)})
        # sum_{j} x_1^{j-1} Q_{k-j} in general
        for k in range(1, 5):
            got = divided_difference(0, GammaElement.basis((k,)), "C")
            expect = GammaElement.zero()
            for j in range(1, k + 1):
                lam = (k - j,) if k - j else ()
                expect = expect + GammaElement({lam: x(1) ** (j - 1)})
            assert got == expect

    def test_d0_type_b_doubles_c(self):
        e = GammaElement.basis((3, 1))
        assert divided_difference(0, e, "B") == divided_difference(0, e, "C") * 2

    def test_d0_type_d(self):
        # on half-generators: 2 sum_{j<k} v_{j-1} P_{k-j} + v_{k-1}
        half = Polynomial.const(Fraction(1, 2))

        def v(m):
            out = Polynomial()
            for a in range(m + 1):
                out = out + x(1) ** a * x(2) ** (m - a)
            return out

        for k in (2, 3):
            got = divided_difference(0, GammaElement.basis((k,)) * half, "D")
            # 2 sum_{j<k} v_{j-1} P_{k-j} + v_{k-1}, written over the Q basis
            expect = GammaElement({(): v(k - 1)})
            for j in range(1, k):
                expect = expect + GammaElement({(k - j,): v(j - 1)})
            assert got == expect

    @pytest.mark.parametrize("wtype,i", [("C", 0), ("C", 1), ("B", 0), ("D", 0)])
    def test_squares_to_zero(self, wtype, i):
        e = GammaElement({(2, 1): x(1), (3,): 1})
        once = divided_difference(i, e, wtype)
        assert not divided_difference(i, once, wtype)

    def test_y_side_via_swap(self):
        e = GammaElement({(2,): y(1)})
        got = swap_xy(divided_difference(1, swap_xy(e), "C"))
        assert got == GammaElement({(2,): Polynomial.const(1)})
        e = GammaElement({(2,): y(1) * y(2)})
        assert not swap_xy(divided_difference(1, swap_xy(e), "C"))

    def test_swap_xy_involution(self):
        e = GammaElement({(2,): x(1) + 2 * y(2), (): x(3) * y(1)})
        assert swap_xy(swap_xy(e)) == e
        assert swap_xy(x(1) - y(1)) == y(1) - x(1)


# -- operator identities on random inputs --------------------------------------
# Each side is built from products, sums and `substitute` alone, so the
# checks are independent of how `divided_difference` forms f - s_i f.

_A_VARS = [("x", 1), ("x", 2), ("x", 3), ("x", 4), ("y", 1), ("y", 2)]
_COEFFS = st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-5, 5), st.integers(0, 3))


@st.composite
def type_a_polynomials(draw, max_terms=4):
    """Up to max_terms terms in x_1..x_4, y_1, y_2, coefficients n/2^k."""
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(st.sampled_from(_A_VARS), st.integers(1, 3), max_size=3))
        terms.append((tuple(exps.items()), draw(_COEFFS)))
    return Polynomial(terms)


gamma_elements = st.dictionaries(
    st.sampled_from([(), (1,), (2,), (2, 1), (3, 1)]), type_a_polynomials(3), max_size=3
).map(GammaElement)
operands = st.one_of(type_a_polynomials(), gamma_elements)


def dd(i, f):
    return divided_difference(i, f, "C" if isinstance(f, GammaElement) else "A")


def s_i(i, f):
    """s_i by `substitute`: swap x_i and x_{i+1} in f or in each coefficient."""
    sub = {("x", i): x(i + 1), ("x", i + 1): x(i)}
    if isinstance(f, GammaElement):
        return f.map_coeffs(lambda c: c.substitute(sub))
    return f.substitute(sub)


def times(f, g):
    """f * g for a Polynomial f and a Polynomial or GammaElement g."""
    return g * f if isinstance(g, GammaElement) else f * g


class TestOperatorIdentities:
    @settings(deadline=None)
    @given(st.integers(1, 3), operands)
    def test_square_is_zero(self, i, f):
        assert not dd(i, dd(i, f))

    @settings(deadline=None)
    @given(st.integers(1, 3), operands)
    def test_definition(self, i, f):
        # (x_i - x_{i+1}) partial_i f = f - s_i f
        assert times(x(i) - x(i + 1), dd(i, f)) == f - s_i(i, f)

    @settings(deadline=None)
    @given(st.integers(1, 3), type_a_polynomials(), operands)
    def test_leibniz(self, i, f, g):
        lhs = dd(i, times(f, g))
        assert lhs == times(dd(i, f), g) + times(s_i(i, f), dd(i, g))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 2), operands)
    def test_braid(self, i, f):
        j = i + 1
        assert dd(i, dd(j, dd(i, f))) == dd(j, dd(i, dd(j, f)))

    @settings(deadline=None)
    @given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 6),
           st.sampled_from([(), (2, 1)]), _COEFFS)
    def test_closed_sum(self, i, a, b, lam, c):
        # partial_i x_i^a x_{i+1}^b = sum_{k < a-b} x_i^(a-1-k) x_{i+1}^(b+k)
        # for a >= b, and minus its mirror image for a < b
        hi, lo = max(a, b), min(a, b)
        expect = Polynomial()
        for k in range(hi - lo):
            expect = expect + x(i) ** (hi - 1 - k) * x(i + 1) ** (lo + k)
        if a < b:
            expect = -expect
        rest = y(1) * x(i + 2) * Polynomial.const(c)
        f = GammaElement({lam: x(i) ** a * x(i + 1) ** b * rest})
        assert dd(i, f) == GammaElement({lam: expect * rest})
        assert dd(i, f.coefficient(lam)) == expect * rest


class TestGeneratorZeroIdentities:
    """The relations of generator 0 with d_1 and d_2 on random elements whose
    coefficients are n/2^k of mixed k; in type D, generator 0 is s1hat."""

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from("BCD"), gamma_elements)
    def test_square_is_zero(self, wtype, f):
        assert not divided_difference(0, divided_difference(0, f, wtype), wtype)

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from("BC"), gamma_elements)
    def test_braid_with_d1(self, wtype, f):
        def d(i, g):
            return divided_difference(i, g, wtype)

        assert d(0, d(1, d(0, d(1, f)))) == d(1, d(0, d(1, d(0, f))))

    @settings(deadline=None, max_examples=30)
    @given(gamma_elements)
    def test_type_d_braid_with_d2(self, f):
        def d(i, g):
            return divided_difference(i, g, "D")

        assert d(0, d(2, d(0, f))) == d(2, d(0, d(2, f)))

    @settings(deadline=None, max_examples=30)
    @given(gamma_elements)
    def test_type_d_commutes_with_d1(self, f):
        def d(i, g):
            return divided_difference(i, g, "D")

        assert d(0, d(1, f)) == d(1, d(0, f))


def d0_by_division(f, wtype):
    """Generator 0 of types B and C written from its definition: subtract
    s0 f and divide each coefficient by -x1 (B) or -2 x1 (C), divisors that
    take `exact_divide`'s heap loop."""
    denom = -x(1) if wtype == "B" else -2 * x(1)
    return (f - apply_symmetry(f)).map_coeffs(lambda c: exact_divide(c, denom))


class TestBCGeneratorZero:
    """`divided_difference(0, f, "B"|"C")`, written from the strips of the
    branching rule, against the subtraction and division it replaces."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("wtype", ["B", "C"])
    def test_matches_division_on_every_class(self, wtype, n):
        for w in all_elements(n, wtype):
            f = schubert(w, wtype)
            assert divided_difference(0, f, wtype) == d0_by_division(f, wtype), repr(w)

    @pytest.mark.parametrize("wtype", ["B", "C"])
    def test_matches_division_on_the_w5_top_class(self, wtype):
        f = top_class(5, "C")
        assert divided_difference(0, f, wtype) == d0_by_division(f, wtype)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from("BC"), gamma_elements)
    def test_matches_division(self, wtype, f):
        assert divided_difference(0, f, wtype) == d0_by_division(f, wtype)

    @pytest.mark.parametrize("wtype", ["B", "C"])
    def test_makes_no_division(self, wtype, monkeypatch):
        def refuse(*args):
            raise AssertionError("generator 0 divided")

        monkeypatch.setattr(schubert_module, "exact_divide", refuse)
        assert divided_difference(0, top_class(3, "C"), wtype)


def d0_type_d_by_division(f):
    """Type D's generator-0 step with s1hat applied directly: rename
    x1 -> -x2 and x2 -> -x1, add x1 and then x2 to the alphabet of Q term
    by term, subtract, and divide each coefficient by -x1 - x2, a divisor
    that takes `exact_divide`'s heap loop."""
    f = GammaElement.of(f)
    image = f.map_coeffs(lambda c: c.substitute({("x", 1): -x(2), ("x", 2): -x(1)}))
    image = branch_term_by_term(branch_term_by_term(image, x(1)), x(2))
    return (f - image).map_coeffs(lambda c: exact_divide(c, -x(1) - x(2)))


def signed_permutations(n):
    """Every signed permutation of size n: both cosets of W_n type D."""
    return all_elements(n, "C")


class TestTypeDGeneratorZero:
    """s0 partial_1 s0 against the division by -x1 - x2 it replaces, and
    the d_zero top classes against the s0 images of the other ones."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_division_on_both_cosets(self, n):
        for w in signed_permutations(n):
            f = schubert(w, "D")
            assert divided_difference(0, f, "D") == d0_type_d_by_division(f), repr(w)

    @settings(deadline=None, max_examples=40)
    @given(gamma_elements)
    def test_matches_division(self, f):
        assert divided_difference(0, f, "D") == d0_type_d_by_division(f)

    @pytest.mark.parametrize("n", [3, 4])
    def test_odd_coset_is_s0_image(self, n):
        for w in all_elements(n, "D"):
            assert schubert(w.right_gen(0, "C"), "D") == apply_symmetry(schubert(w, "D")), repr(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_d_zero_top_is_s0_image(self, n):
        assert top_class(n, "D", d_zero=True) == apply_symmetry(top_class(n, "D"))


def newton(i, f):
    """partial_i term by term: x_i^a x_{i+1}^b goes to
    sum_{k<a-b} x_i^{a-1-k} x_{i+1}^{b+k} for a > b, to minus the mirror
    image for a < b, and to 0 for a = b; written out without division or
    substitution."""
    vi, vj = ("x", i), ("x", i + 1)
    out = []
    for mono, coeff in f.terms.items():
        exps = dict(mono)
        a, b = exps.pop(vi, 0), exps.pop(vj, 0)
        rest = list(exps.items())
        sign = 1 if a > b else -1
        hi, lo = max(a, b), min(a, b)
        for k in range(hi - lo):
            e_hi, e_lo = hi - 1 - k, lo + k
            if a < b:
                e_hi, e_lo = e_lo, e_hi
            out.append((tuple(rest + [(vi, e_hi), (vj, e_lo)]), sign * coeff))
    return Polynomial(out)


class TestNewtonOracle:
    def test_newton_rule(self):
        assert newton(1, x(1) ** 3 * y(2)) == (x(1) ** 2 + x(1) * x(2) + x(2) ** 2) * y(2)
        assert newton(1, x(2) ** 2) == -x(1) - x(2)
        assert newton(2, x(2) * x(3)) == Polynomial()

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_type_a_top_class(self, i):
        top = top_class(5, "A")
        assert divided_difference(i, top, "A") == newton(i, top)

    @pytest.mark.parametrize("wtype", ["C", "D"])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_signed_top_class_per_coefficient(self, wtype, i):
        top = top_class(4, wtype)
        got = divided_difference(i, top, wtype)
        expect = {lam: newton(i, c) for lam, c in top.combo.items()}
        assert got.combo == {lam: c for lam, c in expect.items() if c}


class TestSignedOnePass:
    """Signed steps i >= 1, and the partial_1 inside type D's generator 0,
    write each quotient in one pass: no numerator, no division."""

    @pytest.mark.parametrize("wtype", ["B", "C", "D"])
    def test_makes_no_numerator_or_division(self, wtype, monkeypatch):
        def refuse(*args):
            raise AssertionError("a signed step built a numerator or divided")

        top = top_class(4, wtype)

        def by_newton(i, f):
            return GammaElement({lam: newton(i, c) for lam, c in f.combo.items()})

        expect = {i: by_newton(i, top) for i in (1, 2, 3)}
        if wtype == "D":
            expect[0] = apply_symmetry(by_newton(1, apply_symmetry(top)))
        monkeypatch.setattr(schubert_module, "exact_divide", refuse)
        monkeypatch.setattr(Polynomial, "swap_difference", refuse)
        for i, want in expect.items():
            assert divided_difference(i, top, wtype) == want, i


# -- one kernel pass over every Q-basis coefficient ---------------------------

_KERNEL_PAIRS = [(("x", 1), ("x", 2)), (("x", 2), ("x", 3)), (("x", 3), ("x", 2)),
                 (("h", 1), ("h", 2))]
_KERNEL_VARS = [("x", 1), ("x", 2), ("x", 3), ("y", 1), ("h", 1), ("h", 2)]
_KERNEL_COEFFS = st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-9, 9), st.integers(0, 5))


@st.composite
def kernel_cases(draw):
    """A pair v, w and an element whose coefficients have coefficients
    n/2^k (so e > 0), h exponents of either sign, and, at some
    partitions, symmetry in v and w, whose quotient is zero."""
    v, w = draw(st.sampled_from(_KERNEL_PAIRS))
    swap = {v: Polynomial.variable(*w), w: Polynomial.variable(*v)}
    combo = {}
    lams = st.lists(st.sampled_from([(), (1,), (2,), (2, 1), (3, 1)]), unique=True, max_size=4)
    for lam in draw(lams):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            names = draw(st.lists(st.sampled_from(_KERNEL_VARS), unique=True, max_size=3))
            exps = [(u, draw(st.integers(-3, 3) if u[0] == "h" else st.integers(1, 3)))
                    for u in names]
            terms.append((tuple(exps), draw(_KERNEL_COEFFS)))
        c = Polynomial(terms)
        combo[lam] = c + c.substitute(swap) if draw(st.booleans()) else c
    return GammaElement(combo), v, w


def by_map_coeffs(i, f):
    """A signed step i >= 1 as it was before one pass took the whole
    combo: the one-coefficient kernel mapped over the coefficients."""
    return f.map_coeffs(lambda c: c.divided_difference(("x", i), ("x", i + 1)))


class TestKernelOverTheCombo:
    """`polycore.divided_differences` reads a whole Q-basis combo in one
    pass; the signed steps of `divided_difference` hand it theirs."""

    @given(kernel_cases())
    def test_matches_the_division_per_coefficient(self, case):
        e, v, w = case
        got = divided_differences(e.combo, v, w)
        d = Polynomial.variable(*v) - Polynomial.variable(*w)
        for lam, c in e.combo.items():
            diff = c.swap_difference(v, w)
            if not diff:
                assert lam not in got
                continue
            q = got[lam]
            assert q.e == 0 or any(n & 1 for n in q.packed.values())
            if v[0] == "h":  # a Laurent dividend, on which exact_divide may give up
                assert q * d == diff
            else:
                assert q == exact_divide(diff, d)
        assert set(got) <= set(e.combo) and all(got.values())

    @given(kernel_cases(), st.sampled_from(["B", "C", "D"]))
    def test_a_step_matches_the_map_coeffs_path(self, case, wtype):
        e, v, _ = case
        i = v[1] if v[0] == "x" else 1
        got = divided_difference(i, e, wtype)
        assert got == by_map_coeffs(i, e) and all(got.combo.values())

    @pytest.mark.parametrize("wtype", ["B", "C", "D"])
    def test_every_step_of_w3_matches_the_map_coeffs_path(self, wtype):
        for w in all_elements(3, wtype):
            e = schubert(w, wtype)
            for i in (1, 2):
                got = divided_difference(i, e, wtype)
                assert got == by_map_coeffs(i, e) and all(got.combo.values()), (repr(w), i)
            if wtype == "D":
                want = apply_symmetry(by_map_coeffs(1, apply_symmetry(e)))
                assert divided_difference(0, e, "D") == want, repr(w)


class TestTopClasses:
    def test_type_a(self):
        assert top_class(2, "A") == x(1) - y(1)
        assert top_class(1, "A") == Polynomial.const(1)

    def test_type_c_n1(self):
        assert top_class(1, "C") == GammaElement.basis((1,))

    def test_type_b_n1(self):
        assert top_class(1, "B") == GammaElement.basis((1,)) * Polynomial.const(Fraction(1, 2))

    def test_type_d_variants(self):
        plain = top_class(2, "D")
        zero = top_class(2, "D", d_zero=True)
        assert plain.degree() == 2 and zero.degree() == 2
        assert plain != zero
        half = Fraction(1, 2)
        assert zero == GammaElement({(2,): half, (1,): half * (x(1) + y(1))})

    def test_degrees(self):
        assert top_class(3, "C").degree() == 9
        assert top_class(3, "D").degree() == 6
        assert top_class(3, "D", d_zero=True).degree() == 6
        assert top_class(2, "D").degree() == 2


def _coset(n, wtype, parity):
    """The fixed points of a coset: all of W_n in B and C; in D, the
    signed permutations whose number of bars has the given parity."""
    return [v for v in all_elements(n, "C") if wtype != "D" or v.num_barred() % 2 == parity]


def _localization_failures(e, n, wtype, parity=0):
    points = _coset(n, wtype, parity)
    top = max(points, key=lambda v: length(v, wtype))
    return localization_failures(e, top, reduced_word(top, wtype), points, wtype)


class TestLocalization:
    """Each top class restricts to Billey's product of roots at the top of
    its coset and to 0 at every other fixed point: a check of the closed
    formula that builds it, by a route that shares none of its code."""

    @pytest.mark.parametrize("wtype", ["B", "C"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_top_class(self, wtype, n):
        assert _localization_failures(top_class(n, wtype), n, wtype) == []

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_type_d_top_class(self, n, parity):
        # the class at the top of the coset with this parity of bars, as
        # `schubert` starts its descent there
        e = top_class(n, "D", d_zero=(n % 2 == parity))
        assert _localization_failures(e, n, "D", parity) == []

    def test_a_sign_flip_fails(self):
        e = top_class(2, "C")
        lam = min(e.combo)
        coeff = e.combo[lam]
        mono, c = next(iter(coeff.terms.items()))
        combo = dict(e.combo)
        combo[lam] = coeff - 2 * Polynomial({mono: c})
        assert _localization_failures(GammaElement(combo), 2, "C")


class TestSchubert:
    @pytest.mark.parametrize("wtype", ["A", "B", "C", "D"])
    def test_identity_is_one(self, wtype):
        w = SignedPermutation.identity(2)
        got = schubert(w, wtype)
        one = Polynomial.const(1) if wtype == "A" else GammaElement.one()
        assert got == one

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_degree_is_length(self, wtype):
        for w in all_elements(3 if wtype != "A" else 4, wtype):
            assert schubert(w, wtype).degree() == length(w, wtype)

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_theorem_equivalence_w3(self, wtype):
        for w in all_elements(3, wtype):
            t = triple_of_w(w, wtype)
            if t is None:
                continue
            assert vexillary_polynomial(t) == schubert(w, wtype), repr(w)

    def test_theorem_equivalence_type_a_s4(self):
        for w in all_elements(4, "A"):
            t = triple_of_w(w, "A")
            if t is None:
                continue
            assert vexillary_polynomial(t) == schubert(w, "A"), repr(w)

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_well_definedness_random_routes(self, wtype):
        rng = random.Random(7)
        for w in all_elements(3, wtype):
            assert schubert(w, wtype) == schubert_by_random_route(w, wtype, rng), repr(w)

    @pytest.mark.parametrize("wtype", ["A", "B", "C", "D"])
    def test_stability(self, wtype):
        for w in all_elements(2, wtype):
            assert schubert(w, wtype, n=2) == schubert(w.embed(3), wtype, n=3), repr(w)

    def test_b_scaling(self):
        for w in all_elements(3, "B"):
            scale = Polynomial.const(Fraction(1, 1 << w.num_barred()))
            assert schubert(w, "B") == schubert(w, "C") * scale, repr(w)

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_inverse_swap(self, wtype):
        for w in all_elements(3, wtype):
            assert swap_xy(schubert(w, wtype)) == schubert(w.inverse(), wtype), repr(w)

    def test_inverse_swap_odd_coset_d(self):
        for w in all_elements(3, "C"):
            if w.num_barred() % 2 == 0:
                continue
            assert swap_xy(schubert(w, "D")) == schubert(w.inverse(), "D"), repr(w)

    def test_nonvexillary_witness_top_term(self):
        w = SignedPermutation.parse("-3 2 -1")
        e = schubert(w, "C")
        assert top_term(e, length(w, "C")) == GammaElement({(3, 2): 1, (4, 1): 1})

    def test_p_basis_integrality(self):
        # D classes have integer coefficients over the half-generator basis
        for w in all_elements(3, "D"):
            for lam, c in expand_coeffs(schubert(w, "D"), basis="P").items():
                assert all(v.denominator == 1 for v in c.terms.values()), (repr(w), lam)

    def test_d_descent_keeps_int_coefficients(self):
        # the 2^-r of a type-D class lives in each coefficient's shared
        # exponent, so its divided differences run on plain ints
        scaled = 0
        for w in sorted(all_elements(3, "D"), key=lambda v: v.values)[:12]:
            for c in schubert(w, "D").combo.values():
                assert all(type(v) is int for v in c.packed.values()), repr(w)
                scaled += c.e > 0
        assert scaled


def _plus_partition(mu, r):
    if len(mu) == r:
        return tuple(m + 1 for m in mu)
    if len(mu) == r - 1:
        return tuple(m + 1 for m in mu) + (1,)
    return None


class TestFamilies:
    @pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)])
    def test_p_is_half_q(self, lam):
        scale = Polynomial.const(Fraction(1, 1 << len(lam)))
        assert p_family(lam) == q_family(lam) * scale

    @pytest.mark.parametrize("lam", [(1,), (2, 0), (2, 1), (3, 1), (3, 2, 0)])
    def test_r_vs_p_shift(self, lam):
        r = len(lam)
        rc = expand_coeffs(r_family(lam), basis="P")
        pc = expand_coeffs(p_family(tuple(m + 1 for m in lam)), basis="P")
        mapped = {}
        for mu, c in rc.items():
            key = _plus_partition(mu, r)
            assert key is not None, (lam, mu)
            mapped[key] = c
        assert mapped == pc

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_triple_shift_identity(self, wtype):
        # compare the D triple expansion with the shifted B expansion
        for t in enumerate_triples("D", 2):
            r = t.k[-1]
            rc = expand_coeffs(vexillary_polynomial(t), basis="P")
            shifted = vexillary_polynomial(plus_map(t), wtype="B")
            pc = expand_coeffs(shifted, basis="P")
            mapped = {}
            for mu, c in rc.items():
                key = _plus_partition(mu, r)
                assert key is not None, (t, mu)
                mapped[key] = c
            assert mapped == pc, repr(t)


def test_lambda_of_extended_reads_the_redundant_columns():
    # reducing a redundant triple keeps every column's pin, so the
    # partition can be read straight off the unreduced columns
    count = 0
    for wtype in ("A", "C", "D"):
        for t in enumerate_triples(wtype, 4, allow_redundant=True):
            if validate(t) != "redundant":
                continue
            count += 1
            pins = []
            for k in range(1, t.k[-1] + 1):
                i = next(j for j in range(t.s) if t.k[j] >= k)
                if wtype == "A":
                    pins.append(t.p[i] - t.q[i] + t.k[i])
                else:
                    pins.append(t.p[i] + t.q[i] - (wtype == "C") + t.k[i] - k)
            assert lambda_of(t) == tuple(pins), repr(t)
    assert count == 4971


class TestFormulaGuards:
    """The Pfaffians check that each row multiplier has degree below its
    index (at most its index in type D) and, in type D, that c(i) divides
    c(i-1).  Every triple meets both, strict or redundant: p and q weakly
    decrease along its steps, and reduction drops only steps of zero
    slack."""

    @pytest.mark.parametrize("wtype", ["B", "C", "D"])
    def test_every_triple_to_n3_passes(self, wtype):
        for t in enumerate_triples("D" if wtype == "D" else "C", 3, allow_redundant=True):
            assert vexillary_polynomial(t, wtype), t

    @pytest.mark.parametrize("wtype, redundant", [("C", 962), ("D", 3558)])
    def test_every_triple_to_n4_meets_the_guards(self, wtype, redundant):
        count = 0
        for t in enumerate_triples(wtype, 4, allow_redundant=True):
            count += validate(t) == "redundant"
            lam, rows = formula_rows(t, wtype)
            cs = [d.multiplier for d in rows]
            slack = 0 if wtype == "D" else 1
            assert all(c.degree() + slack <= k for k, c in zip(lam, cs)), t
            if wtype == "D":
                for c, c2 in zip(cs, cs[1:]):
                    exact_divide(c, c2)
        assert count == redundant


class TestVanishingSpecialization:
    def test_pair_vanishes(self):
        from vexpf.gamma import GeneratorSeries, q_pair

        def series(k):
            mult = Polynomial.const(1)
            for j in range(1, k):
                mult = mult * (1 + Polynomial.variable("t", j))
            return GeneratorSeries(mult)

        for k in range(2, 5):
            for l in range(1, k):
                pair = q_pair(k, l, series(k), series(l))
                for r in range(1, 4):
                    for nu in itertools.combinations(range(4, 0, -1), r):
                        nu2 = nu[1] if len(nu) > 1 else 0
                        if not (nu[0] < k or nu2 < l):
                            continue
                        img = specialize_oracle(pair, nu)
                        assert not img, (k, l, nu)


class TestDegeneracy:
    def test_identity_substitution(self):
        t = Triple((1, 2), (2, 1), (2, 1), "C")
        assert degeneracy_formula(t) == vexillary_polynomial(t)

    def test_trivial_multipliers_give_basis(self):
        # constant-corank data: the class is the plain basis symbol
        p, m, k = 2, 1, 2
        t = Triple(
            tuple(range(1, k + 1)),
            tuple(p + k - i for i in range(1, k + 1)),
            (m + 1,) * k,
            "C",
        )
        lam = tuple(p + m + k - i for i in range(1, k + 1))
        ones = [Polynomial.const(1)] * t.s
        assert degeneracy_formula(t, multipliers=ones) == GammaElement.basis(lam)

    def test_concrete_series_substitution(self):
        t = Triple((1,), (1,), (1,), "C")
        series = symfun_series(2, 3)
        got = degeneracy_formula(t, q_series=series)
        assert got == series.part(1)

    @pytest.mark.parametrize(
        "t", [Triple((1, 2), (2, 1), (2, 1), "C"), Triple((1,), (1,), (0,), "D")], ids=["C", "D"]
    )
    def test_multiplier_without_unit_constant_term(self, t):
        t1 = Polynomial.variable("t", 1)
        with pytest.raises(ValueError, match="constant term 1"):
            degeneracy_formula(t, multipliers=[2 + t1] * t.s)

    def test_d_scaling_present(self):
        t = Triple((1,), (1,), (0,), "D")
        e = degeneracy_formula(t)
        # 1/2 (Q_1 + 2 x_1) = P_1 + x_1
        assert e == GammaElement({(1,): Fraction(1, 2), (): x(1)})
