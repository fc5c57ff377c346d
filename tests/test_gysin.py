import itertools
import random
from fractions import Fraction

import pytest

from vexpf import gysin
from vexpf.polycore import Polynomial
from vexpf.gamma import GammaElement, GeneratorSeries, series_coeff
from vexpf.multischur import r_rows
from vexpf.gysin import (
    WindowTooSmall,
    epsilon,
    f_index,
    f_index_identity,
    f_pair,
    f_tilde_border,
    f_tilde_pair,
    h_power,
    lemma_A1_check,
    prop_A1_check,
    prop_A2_check,
    plain_pushforward_check,
    pushforward,
    restrict,
    sgn,
    substitute_q,
    u_power,
)

from oracles import Q_SERIES, substitute_q_by_monomials

ONE = Polynomial.const(1)


def h(i, e=1):
    return h_power(i, e)


def u(i, e=1):
    return u_power(i, e)


def z(j):
    return Polynomial.variable("z", j)


class TestLaurent:
    def test_window_truncation(self):
        a = h(1, 2)
        assert not restrict(a * a, 3)  # exponent 4 leaves the window
        assert restrict(a * h(1, -2), 3) == ONE

    def test_cancelling_exponents_merge(self):
        # h1 * h1^-1 must land on the constant monomial, not a phantom h1^0
        prod = h(1) * h(1, -1)
        assert prod == ONE
        assert (prod - ONE).terms == {}

    def test_u_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            u(1, -1)

    def test_str_prints_negative_powers(self):
        e = h(1, -1) * u(2) * Fraction(-3, 2) + h(2, 2) + 1
        assert str(e) == "h2^2 - 3/2*h1^-1*u2 + 1"

    def test_restrict(self):
        e = h(1, 3) + h(1, 1) + h(2, -3) * u(1, 5)
        assert restrict(e, 2) == h(1, 1)
        assert restrict(e, 3) == e


class TestFPair:
    def test_skew(self):
        assert not (f_pair(1, 2, 6) + f_pair(2, 1, 6))

    def test_degree_one_truncation(self):
        assert f_pair(1, 2, 1) == ONE - h(1) * h(2, -1) * 2

    def test_singletons_trivial(self):
        assert f_index((5,), 4) == ONE
        assert f_index((), 4) == ONE

    @pytest.mark.parametrize("I", [(1, 2), (1, 2, 3), (1, 2, 3, 4), (2, 3, 5, 6)])
    def test_product_identity(self, I):
        assert f_index_identity(I)

    def test_window_guard(self):
        # the window 8 serves |I| <= 4
        with pytest.raises(WindowTooSmall):
            f_index_identity((1, 2, 3, 4, 5))


class TestSigns:
    def test_empty_subset(self):
        assert sgn((1, 2, 3), ()) == 1

    def test_first_element_is_odd(self):
        assert epsilon(2, (2, 5, 9)) == -1
        assert epsilon(5, (2, 5, 9)) == 1

    def test_lemma_small(self):
        assert lemma_A1_check((1, 2, 3))

    def test_lemma_exhaustive_to_six(self):
        for s in range(7):
            for K in itertools.combinations(range(1, 7), s):
                assert lemma_A1_check(K), K


class TestOperators:
    def test_deformed_entry_skew(self):
        lam = (2, 1)
        assert f_tilde_pair(2, 1, lam) == -f_tilde_pair(1, 2, lam)

    def test_border_on_one(self):
        # zeta_1 is marked by z_1
        assert f_tilde_border(1, (3,)) == h(1, 3) + u(1, 3) * z(1)


class TestPropA1:
    def test_single_index(self):
        assert prop_A1_check((3,), (1,))

    def test_pair(self):
        assert prop_A1_check((2, 1), (1, 2))

    def test_triple(self):
        assert prop_A1_check((3, 2, 1), (1, 2, 3))

    def test_sub_index_set(self):
        assert prop_A1_check((4, 2, 1), (1, 3))

    def test_flipped_sign_fails(self, monkeypatch):
        # sgn negated for |J| = 1 flips the coefficient of every zeta_j, j in K
        sgn0 = gysin.sgn
        monkeypatch.setattr(gysin, "sgn", lambda K, J: -sgn0(K, J) if len(J) == 1 else sgn0(K, J))
        for lam, K in [((3,), (1,)), ((2, 1), (1, 2)), ((4, 2, 1), (1, 3)), ((3, 2, 1), (1, 2, 3))]:
            assert not prop_A1_check(lam, K), (lam, K)

    def test_dropped_marker_fails(self, monkeypatch):
        # without its z_k, a border's u_k^{lam_k} zeta_k lands on zeta_{}
        monkeypatch.setattr(gysin, "f_tilde_border", lambda k, lam: h(k, lam[k - 1]) + u(k, lam[k - 1]))
        for lam, K in [((3,), (1,)), ((2, 1), (1, 2)), ((4, 2, 1), (1, 3)), ((3, 2, 1), (1, 2, 3))]:
            assert not prop_A1_check(lam, K), (lam, K)

    def test_empty_index_set(self):
        # both sides are 1
        assert prop_A1_check((3, 2), ())


class TestPropA2:
    def test_r1_direct(self):
        # one step: half the border entry d_l + g_l
        lam = (2,)
        rows = r_rows(lam)
        lhs = pushforward(lam, rows, paired=True)
        d = rows[0]
        expect = (series_coeff(d, 2) + GammaElement.of(d.multiplier.part(2))).halve(1)
        assert lhs == expect

    def test_paired_differs_from_plain(self):
        lam = (2, 1)
        rows = r_rows(lam)
        assert pushforward(lam, rows, paired=True) != pushforward(lam, rows)

    def test_one_series_per_index(self):
        for series in ([Q_SERIES], [Q_SERIES] * 3):
            with pytest.raises(ValueError):
                pushforward((2, 1), series)
            with pytest.raises(ValueError):
                pushforward((2, 1), series, paired=True)

    @pytest.mark.parametrize(
        "lam", [(1,), (2, 0), (2, 1), (3, 1), (3, 2, 0), (3, 2, 1), (4, 3, 2, 1), (4, 2, 1, 0)]
    )
    def test_pfaffian_equality(self, lam):
        assert prop_A2_check(lam)


class TestPlainPushforward:
    def test_simple_shift(self):
        assert plain_pushforward_check((2,), [Q_SERIES], (1,))
        assert plain_pushforward_check((3, 1), [Q_SERIES, Q_SERIES], (0, 1))

    def test_matches_type_c_pipeline(self):
        from vexpf.triples import Triple
        from vexpf.polycore import ones_product
        from vexpf.schubert import formula_columns

        t = Triple((1, 2), (2, 1), (2, 1), "C")
        lam, factors = formula_columns(t, "C")
        series = [GeneratorSeries(ones_product("x", p) * ones_product("y", q)) for p, q in factors]
        for m in [(0, 0), (1, 0), (0, 1), (2, 1)]:
            assert plain_pushforward_check(lam, series, m), m


class TestSubstituteQ:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_generator_monomials(self, seed):
        # every strict lambda with parts <= 7 and at most 4 of them, under a
        # random series whose constant term need not be 1
        rng = random.Random(seed)
        t1, t2 = Polynomial.variable("t", 1), Polynomial.variable("t", 2)
        series = sum(
            (t1 ** a * t2 ** b * rng.randint(-3, 3) for a in range(14) for b in range(14 - a)),
            Polynomial(),
        )
        for r in range(5):
            for lam in itertools.combinations(range(7, 0, -1), r):
                e = GammaElement({lam: 1})
                assert substitute_q(e, series) == substitute_q_by_monomials(e, series), lam
