import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vexpf.polycore import Polynomial, rational_series
from vexpf.gamma import GammaElement, GeneratorSeries, Q_SERIES, q_pair, series_coeff
from vexpf.gysin import default_a2_data
from vexpf.multischur import (
    DivisibilityFailed,
    SkewCheckFailed,
    StarRelationFailed,
    multischur_det,
    multischur_pf,
    multischur_pf_d,
    pfaffian,
)
from vexpf.schubert import formula_rows
from vexpf.triples import enumerate_triples


def tvar(i):
    return Polynomial.variable("t", i)


def q_times(poly):
    return GeneratorSeries(True, poly)


E2 = (1 + tvar(1)) * (1 + tvar(2))


class TestDet:
    def test_schur_21_two_vars(self):
        x1 = Polynomial.variable("x", 1)
        x2 = Polynomial.variable("x", 2)
        h = rational_series([], [1 - x1, 1 - x2], 6)
        got = multischur_det((2, 1), [h, h])
        assert got == x1 * x2 * (x1 + x2)

    def test_schur_2_two_vars(self):
        x1 = Polynomial.variable("x", 1)
        x2 = Polynomial.variable("x", 2)
        h = rational_series([], [1 - x1, 1 - x2], 6)
        assert multischur_det((2,), [h]) == x1**2 + x1 * x2 + x2**2

    def test_elementary_column(self):
        # det with an elementary-symmetric series row: e_2 in two vars
        x1 = Polynomial.variable("x", 1)
        x2 = Polynomial.variable("x", 2)
        e = (1 + x1) * (1 + x2)
        assert multischur_det((2,), [e]) == x1 * x2

    def test_empty(self):
        assert multischur_det((), []) == Polynomial.const(1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_leibniz_sum(self, r):
        # row i has the degree-d part t_(16i+d) x1^(d-1), so the r x r
        # entries are distinct monomials and no cancellation hides a sign
        x1 = Polynomial.variable("x", 1)
        series = [
            1 + sum((tvar(16 * i + d) * x1 ** (d - 1) for d in range(1, 3 * r)), Polynomial())
            for i in range(r)
        ]
        lam = tuple(range(2 * r, r, -1))
        entry = lambda i, j: series[i].part(lam[i] + j - i)
        expect = Polynomial()
        for perm in itertools.permutations(range(r)):
            inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(r), 2))
            term = Polynomial.const(-1 if inversions % 2 else 1)
            for i, j in enumerate(perm):
                term = term * entry(i, j)
            expect = expect + term
        assert len(expect.terms) == len(list(itertools.permutations(range(r))))
        assert multischur_det(lam, series) == expect


class TestExpander:
    """pfaffian() on a generic skew matrix a_ij = t_(6i+j+1), border b_i = u_(i+1)."""

    @staticmethod
    def counted(calls):
        def entry(i, j):
            calls.append((i, j))
            return tvar(6 * i + j + 1)

        def border(i):
            calls.append(i)
            return Polynomial.variable("u", i + 1)

        return entry, border

    def test_even_size(self):
        entry, _ = self.counted([])
        a = lambda i, j: tvar(6 * i + j + 1)
        expect = a(0, 1) * a(2, 3) - a(0, 2) * a(1, 3) + a(0, 3) * a(1, 2)
        assert pfaffian(4, entry, Polynomial.const(1)) == expect

    def test_odd_size_expands_along_the_border(self):
        entry, border = self.counted([])
        a = lambda i, j: tvar(6 * i + j + 1)
        b = lambda i: Polynomial.variable("u", i + 1)
        expect = b(0) * a(1, 2) - b(1) * a(0, 2) + b(2) * a(0, 1)
        assert pfaffian(3, entry, Polynomial.const(1), border=border) == expect
        with pytest.raises(ValueError):
            pfaffian(3, entry, Polynomial.const(1))

    @pytest.mark.parametrize("size, entries, borders", [(6, 15, 0), (5, 10, 5), (0, 0, 0)])
    def test_each_entry_computed_once(self, size, entries, borders):
        calls = []
        entry, border = self.counted(calls)
        pfaffian(size, entry, Polynomial.const(1), border=border)
        assert len(calls) == len(set(calls)) == entries + borders
        assert sum(1 for c in calls if isinstance(c, int)) == borders


class TestPfBC:
    @pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 1), (4, 2, 1), (3, 2, 1)])
    def test_plain_series_gives_basis(self, lam):
        got = multischur_pf(lam, [Q_SERIES] * len(lam))
        assert got == GammaElement.basis(lam)

    def test_skew_check(self):
        with pytest.raises(SkewCheckFailed):
            multischur_pf((1,), [q_times(1 + tvar(1))])

    def test_alternating_indices(self):
        c1 = q_times(1 + tvar(1))
        c2 = Q_SERIES
        a = multischur_pf((3, 1), [c1, c2], check=False)
        b = multischur_pf((1, 3), [c2, c1], check=False)
        assert a == -b

    def test_equal_indices_vanish(self):
        c = q_times(1 + tvar(1))
        assert not multischur_pf((2, 2), [c, c], check=False)
        assert not multischur_pf((3, 3, 2, 1), [c, c, c, Q_SERIES], check=False)

    def test_redundancy_invariance(self):
        # consecutive indices sharing a series absorb a (1+z) factor
        c = q_times(1 + tvar(1))
        base = multischur_pf((3, 2), [c, c])
        fat = multischur_pf(
            (3, 2), [q_times((1 + tvar(1)) * (1 + Polynomial.variable("z", 1))), c], check=False
        )
        assert base == fat

    def test_redundancy_needs_staircase(self):
        # with a gap between the indices the extra factor does change it
        c = q_times(1 + tvar(1))
        base = multischur_pf((4, 2), [c, c])
        fat = multischur_pf(
            (4, 2), [q_times((1 + tvar(1)) * (1 + Polynomial.variable("z", 1))), c], check=False
        )
        assert base != fat

    def test_odd_size_border(self):
        # Pf_(k1,k2,k3) = c1_k1 q(2,3) - c2_k2 q(1,3) + c3_k3 q(1,2)
        lam = (5, 3, 2)
        cs = [q_times(E2), q_times(1 + tvar(1)), Q_SERIES]
        b = lambda i: series_coeff(cs[i], lam[i])
        q = lambda i, j: q_pair(lam[i], lam[j], cs[i], cs[j])
        expect = b(0) * q(1, 2) - b(1) * q(0, 2) + b(2) * q(0, 1)
        assert multischur_pf(lam, cs) == expect

    def test_leading_term(self):
        c1 = q_times((1 + tvar(1)) * (1 + tvar(2)))
        c2 = q_times(1 + tvar(1))
        got = multischur_pf((3, 2), [c1, c2])
        assert got.coefficient((3, 2)) == Polynomial.const(1)
        # everything lives in a single degree
        assert all(c == c.part(5 - sum(lam)) for lam, c in got.combo.items())


class TestPfD:
    def test_index_zero_alone(self):
        got = multischur_pf_d((0,), [(Polynomial.const(1), Q_SERIES)])
        assert got == GammaElement.of(2)

    def test_single_index(self):
        # half of this should be P_2 + e_1 P_1 + e_2
        got = multischur_pf_d((2,), [(E2, q_times(E2))])
        e1 = tvar(1) + tvar(2)
        e2 = tvar(1) * tvar(2)
        expect = GammaElement({(2,): 1, (1,): e1, (): 2 * e2})
        assert got == expect

    def test_k_zero_pair(self):
        # the (k, 0) entry drops the degree-k multiplier coefficient
        got = multischur_pf_d((2, 0), [(E2, q_times(E2)), (Polynomial.const(1), Q_SERIES)])
        e1 = tvar(1) + tvar(2)
        expect = GammaElement({(2,): 2, (1,): 2 * e1})
        assert got == expect

    def test_reduces_to_plain_pfaffian(self):
        c = 1 + tvar(1)
        pair = (c, q_times(c))
        got = multischur_pf_d((4, 2), [pair, pair])
        plain = multischur_pf((4, 2), [q_times(c), q_times(c)])
        assert got == plain

    def test_two_rows_written_out(self):
        # (d1_k1 - c1_k1)(d2_k2 + c2_k2) + 2 sum_m (-1)^m d1_{k1+m} d2_{k2-m},
        # with c1_k1 and c2_k2 both nonzero
        c1, c2 = E2 * (1 + tvar(3)), E2
        d1, d2 = q_times(c1), q_times(c2)
        k1, k2 = 3, 2
        d = series_coeff
        expect = (d(d1, k1) - GammaElement.of(c1.part(k1))) * (
            d(d2, k2) + GammaElement.of(c2.part(k2))
        )
        for m in range(1, k2 + 1):
            expect = expect + d(d1, k1 + m) * d(d2, k2 - m) * (2 * (-1) ** m)
        assert multischur_pf_d((k1, k2), [(c1, d1), (c2, d2)]) == expect

    def test_star_relation_guard(self):
        good = (1 + tvar(1), q_times(1 + tvar(1)))
        bad = (1 + tvar(2), q_times((1 + tvar(2)) * (1 - tvar(1))))
        with pytest.raises((StarRelationFailed, DivisibilityFailed)):
            multischur_pf_d((3, 1), [good, bad])

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityFailed):
            multischur_pf_d(
                (3, 1),
                [(1 + tvar(1), q_times(1 + tvar(1))), (1 + tvar(2), q_times(1 + tvar(2)))],
            )

    def test_degree_guard(self):
        with pytest.raises(SkewCheckFailed):
            multischur_pf_d((1,), [(E2, q_times(E2))])


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_pf_pair_matches_basis_shift(a, gap):
    # Pf with plain series on any strict pair reproduces the basis symbol
    lam = (a + gap, a)
    assert multischur_pf(lam, [Q_SERIES, Q_SERIES]) == GammaElement.basis(lam)


# ---------------------------------------------------------------------------
# the Q-basis fold against the Pfaffian of written-out entries
# ---------------------------------------------------------------------------


def written_coeff(c, m):
    """c_m = sum_a g_a Q_{m-a} from basis symbols (Q_0 = 1, Q_k = 0 for
    k < 0); a plain series gives g_m."""
    g = c.multiplier
    if not c.has_q:
        return GammaElement.of(g.part(m))
    out = GammaElement.zero()
    for a in range(max(m + 1, 0)):
        sym = GammaElement.basis((m - a,)) if m > a else GammaElement.one()
        out = out + sym * g.part(a)
    return out


def written_pair(ki, kj, ci, cj):
    """c(i)_ki c(j)_kj + 2 sum_m (-1)^m c(i)_{ki+m} c(j)_{kj-m}, multiplied
    out through GammaElement products."""
    out = written_coeff(ci, ki) * written_coeff(cj, kj)
    for m in range(1, kj + 1):
        out = out + written_coeff(ci, ki + m) * written_coeff(cj, kj - m) * (2 * (-1) ** m)
    return out


def written_pf(lam, series):
    return pfaffian(
        len(lam),
        lambda i, j: written_pair(lam[i], lam[j], series[i], series[j]),
        GammaElement.one(),
        border=lambda i: written_coeff(series[i], lam[i]),
    )


def written_pf_d(lam, pairs):
    """The paired Pfaffian with entry pair + d_i c_j - d_j c_i - c_i c_j and
    border d_i + c_i, c_i standing for the scalar c(i)_{k_i}."""
    d = [written_coeff(dd, k) for k, (_, dd) in zip(lam, pairs)]
    c = [Polynomial.of(cc).part(k) for k, (cc, _) in zip(lam, pairs)]

    def entry(i, j):
        pair = written_pair(lam[i], lam[j], pairs[i][1], pairs[j][1])
        return pair + d[i] * c[j] - d[j] * c[i] - GammaElement.of(c[i] * c[j])

    return pfaffian(len(lam), entry, GammaElement.one(), border=lambda i: d[i] + GammaElement.of(c[i]))


class TestFold:
    def test_basis_pfaffians(self):
        # every integer vector of length 1-4 with entries -3..4
        for size in range(1, 5):
            for alpha in itertools.product(range(-3, 5), repeat=size):
                rows = [Q_SERIES] * size
                assert multischur_pf(alpha, rows, check=False) == written_pf(alpha, rows), alpha

    @pytest.fixture(scope="class")
    def triples(self):
        """Every C and D triple with n <= 3, redundant ones included."""
        return sorted(
            {t for n in (1, 2, 3) for wtype in ("C", "D")
             for t in enumerate_triples(wtype, n, allow_redundant=True)},
            key=str,
        )

    def test_formula_rows(self, triples):
        for t in triples:
            lam, rows = formula_rows(t, "C")
            assert multischur_pf(lam, rows, check=False) == written_pf(lam, rows), t

    def test_paired_formula_rows(self, triples):
        # Written out, the paired Pfaffians of the larger triples take about a
        # minute, so both sides take the rows through the graded ring map
        # x_j -> (2j + 1) z_1, y_j -> -2j z_1: each side is a polynomial in
        # the row coefficients, so the map commutes with both.
        z1 = Polynomial.variable("z", 1)
        point = {("x", j): (2 * j + 1) * z1 for j in (1, 2, 3)}
        point.update({("y", j): -2 * j * z1 for j in (1, 2, 3)})
        for t in triples:
            lam, rows = formula_rows(t, "D")
            rows = [(c.substitute(point), q_times(d.multiplier.substitute(point))) for c, d in rows]
            assert multischur_pf_d(lam, rows, check=False) == written_pf_d(lam, rows), t

    @pytest.mark.parametrize(
        "lam", [(1,), (2,), (2, 0), (2, 1), (3, 1), (3, 2, 0), (3, 2, 1)]
    )
    def test_plain_paired_rows(self, lam):
        pairs = default_a2_data(lam)
        assert multischur_pf_d(lam, pairs, check=False) == written_pf_d(lam, pairs)

    def test_mixed_rows_raise(self):
        with pytest.raises(ValueError):
            multischur_pf((2, 1), [Q_SERIES, GeneratorSeries(False, 1)], check=False)
