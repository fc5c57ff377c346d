import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vexpf.polycore import ExponentOverflow, Polynomial, exact_divide, rational_series
from vexpf import gamma, gysin, multischur, polycore, schubert, triples
from vexpf.gamma import (
    GammaElement,
    GeneratorSeries,
    _iadd,
    lift_row,
    pf_rows,
    q_pair,
    series_coeff,
    series_rows,
)
from vexpf.multischur import (
    DivisibilityFailed,
    SkewCheckFailed,
    multischur_det,
    multischur_pf,
    multischur_pf_d,
    p_family,
    paired_rows,
    pfaffian,
    q_family,
    r_family,
    r_rows,
)
from vexpf.schubert import formula_rows, top_class, vexillary_polynomial
from vexpf.triples import InvalidTriple, Triple, enumerate_triples, triple_of_w
from vexpf.weyl import all_elements

from oracles import Q_SERIES, dict_rows


def tvar(i):
    return Polynomial.variable("t", i)


def q_times(poly):
    return GeneratorSeries(poly)


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
        assert got == GammaElement({lam: 1})

    def test_skew_check(self):
        with pytest.raises(SkewCheckFailed):
            multischur_pf((1,), [q_times(1 + tvar(1))])

    def test_alternating_indices(self):
        c1 = q_times(1 + tvar(1))
        c2 = Q_SERIES
        a = pf_rows(series_rows((3, 1), [c1, c2]))
        b = pf_rows(series_rows((1, 3), [c2, c1]))
        assert a == -b

    def test_equal_indices_vanish(self):
        c = q_times(1 + tvar(1))
        assert not pf_rows(series_rows((2, 2), [c, c]))
        assert not pf_rows(series_rows((3, 3, 2, 1), [c, c, c, Q_SERIES]))

    def test_redundancy_invariance(self):
        # consecutive indices sharing a series absorb a (1+z) factor
        c = q_times(1 + tvar(1))
        base = multischur_pf((3, 2), [c, c])
        fat = pf_rows(
            series_rows((3, 2), [q_times((1 + tvar(1)) * (1 + Polynomial.variable("z", 1))), c])
        )
        assert base == fat

    def test_redundancy_needs_staircase(self):
        # with a gap between the indices the extra factor does change it
        c = q_times(1 + tvar(1))
        base = multischur_pf((4, 2), [c, c])
        fat = pf_rows(
            series_rows((4, 2), [q_times((1 + tvar(1)) * (1 + Polynomial.variable("z", 1))), c])
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
        assert got.combo.get((3, 2), Polynomial()) == Polynomial.const(1)
        # everything lives in a single degree
        assert all(c == c.part(5 - sum(lam)) for lam, c in got.combo.items())


class TestPfD:
    def test_index_zero_alone(self):
        got = multischur_pf_d((0,), [Q_SERIES])
        assert got == GammaElement.of(2)

    def test_single_index(self):
        # half of this should be P_2 + e_1 P_1 + e_2
        got = multischur_pf_d((2,), [q_times(E2)])
        e1 = tvar(1) + tvar(2)
        e2 = tvar(1) * tvar(2)
        expect = GammaElement({(2,): 1, (1,): e1, (): 2 * e2})
        assert got == expect

    def test_k_zero_pair(self):
        # the (k, 0) entry drops the degree-k multiplier coefficient
        got = multischur_pf_d((2, 0), [q_times(E2), Q_SERIES])
        e1 = tvar(1) + tvar(2)
        expect = GammaElement({(2,): 2, (1,): 2 * e1})
        assert got == expect

    def test_reduces_to_plain_pfaffian(self):
        rows = [q_times(1 + tvar(1))] * 2
        got = multischur_pf_d((4, 2), rows)
        plain = multischur_pf((4, 2), rows)
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
        assert multischur_pf_d((k1, k2), [d1, d2]) == expect

    def test_divisibility_guard(self):
        with pytest.raises(DivisibilityFailed):
            multischur_pf_d((3, 1), [q_times(1 + tvar(1)), q_times(1 + tvar(2))])

    def test_divisibility_is_checked_once_per_pair(self, monkeypatch):
        # the shared rows of r_family ask about each pair once per process,
        # and a failing pair keeps failing
        calls = []

        def counting(p, d):
            calls.append((p, d))
            return exact_divide(p, d)

        monkeypatch.setattr(multischur, "exact_divide", counting)
        multischur._divides.cache_clear()
        pairs = {(4, 2), (2, 1)}
        first = r_family((4, 2, 1))
        assert len(calls) == len(pairs)
        assert r_family((4, 2, 1)) == first and len(calls) == len(pairs)
        r_family((2, 1))
        assert len(calls) == len(pairs)
        bad = [q_times(1 + tvar(1)), q_times(1 + tvar(2))]
        for _ in range(2):
            with pytest.raises(DivisibilityFailed):
                multischur_pf_d((3, 1), bad)
        assert len(calls) == len(pairs) + 1

    def test_degree_guard(self):
        with pytest.raises(SkewCheckFailed):
            multischur_pf_d((1,), [q_times(E2)])


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
)
def test_pf_pair_matches_basis_shift(a, gap):
    # Pf with plain series on any strict pair reproduces the basis symbol
    lam = (a + gap, a)
    assert multischur_pf(lam, [Q_SERIES, Q_SERIES]) == GammaElement({lam: 1})


# ---------------------------------------------------------------------------
# the Q-basis fold against the Pfaffian of written-out entries
# ---------------------------------------------------------------------------


def written_coeff(c, m):
    """c_m = sum_a g_a Q_{m-a} from basis symbols (Q_0 = 1, Q_k = 0 for
    k < 0)."""
    g = c.multiplier
    out = GammaElement()
    for a in range(max(m + 1, 0)):
        sym = GammaElement({(m - a,): 1}) if m > a else GammaElement.of(1)
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
        GammaElement.of(1),
        border=lambda i: written_coeff(series[i], lam[i]),
    )


def written_pf_d(lam, pairs):
    """The paired Pfaffian of (c, d) pairs, with entry pair + d_i c_j - d_j c_i
    - c_i c_j and border d_i + c_i, c_i standing for the scalar c(i)_{k_i}."""
    d = [written_coeff(dd, k) for k, (_, dd) in zip(lam, pairs)]
    c = [Polynomial.of(cc).part(k) for k, (cc, _) in zip(lam, pairs)]

    def entry(i, j):
        pair = written_pair(lam[i], lam[j], pairs[i][1], pairs[j][1])
        return pair + d[i] * c[j] - d[j] * c[i] - GammaElement.of(c[i] * c[j])

    return pfaffian(len(lam), entry, GammaElement.of(1), border=lambda i: d[i] + GammaElement.of(c[i]))


def paired(rows):
    """The (c, d) pairs of rows d = Q * c, for `written_pf_d`."""
    return [(d.multiplier, d) for d in rows]


def graded_map(p: Polynomial, point: dict) -> Polynomial:
    """p with each variable v of point replaced by the polynomial point[v]:
    term by term, each power a product of images."""
    out = Polynomial()
    for mono, coeff in p.terms.items():
        term = Polynomial.const(coeff)
        for v, e in mono:
            term = term * (point[v] ** e if v in point else Polynomial({((v, e),): 1}))
        out = out + term
    return out


class TestFold:
    def test_basis_pfaffians(self):
        # every integer vector of length 1-4 with entries -3..4
        for size in range(1, 5):
            for alpha in itertools.product(range(-3, 5), repeat=size):
                rows = [Q_SERIES] * size
                assert pf_rows(series_rows(alpha, rows)) == written_pf(alpha, rows), alpha

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
            assert pf_rows(series_rows(lam, rows)) == written_pf(lam, rows), t

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
            rows = [q_times(graded_map(d.multiplier, point)) for d in rows]
            assert pf_rows(paired_rows(lam, rows)) == written_pf_d(lam, paired(rows)), t

    @pytest.mark.parametrize(
        "lam", [(1,), (2,), (2, 0), (2, 1), (3, 1), (3, 2, 0), (3, 2, 1)]
    )
    def test_plain_paired_rows(self, lam):
        # the Appendix A.2 data: c(i) = prod_{j<=lam_i}(1+t_j), d(i) = Q*c(i)
        rows = r_rows(lam)
        assert multischur_pf_d(lam, rows) == written_pf_d(lam, paired(rows))


# ---------------------------------------------------------------------------
# the packed fold against the same fold over Polynomial coefficients
# ---------------------------------------------------------------------------


def insert_by_recursion(memo: dict, prefix: tuple, m: int) -> dict:
    """The reference straightening of Q_(prefix, m), {strictly decreasing:
    int}, by Schur's alternation at the prefix's last entry a, recursing
    on Q_(.., m, a), with memo the caller's."""
    if (prefix, m) not in memo:
        a = prefix[-1] if prefix else m + 1
        if a > m:
            out = {prefix + (m,): 1}
        elif a == m:
            out = {prefix[:-1]: 1} if m == 0 else {}
        else:
            out = {}
            for v, c in insert_by_recursion(memo, prefix[:-1], m).items():
                for w, c2 in insert_by_recursion(memo, v, a).items():
                    _iadd(out, w, -c * c2)
            if a + m == 0:
                _iadd(out, prefix[:-1], -2 if a % 2 else 2)
        memo[prefix, m] = out
    return memo[prefix, m]


def prepend_by_recursion(memo: dict, m: int, suffix: tuple) -> dict:
    """The reference straightening of Q_(m, suffix), {strictly decreasing:
    int}, by Schur's alternation at the suffix's first entry b, recursing
    on Q_(b, m, ..), with memo the caller's: the mirror of
    `insert_by_recursion`."""
    if (m, suffix) not in memo:
        b = suffix[0] if suffix else m - 1
        if m > b:
            out = {(m,) + suffix: 1}
        elif m == b:
            out = {suffix[1:]: 1} if m == 0 else {}
        else:
            out = {}
            for v, c in prepend_by_recursion(memo, m, suffix[1:]).items():
                for w, c2 in prepend_by_recursion(memo, b, v).items():
                    _iadd(out, w, -c * c2)
            if m + b == 0:
                _iadd(out, suffix[1:], -2 if m % 2 else 2)
        memo[m, suffix] = out
    return memo[m, suffix]


def pf_rows_term_by_term(rows):
    """`pf_rows` with a Polynomial for every state coefficient: one product
    coeff * g and one Polynomial sum per (state, m, target).  It folds from
    the first row down, appending each row's symbol to a prefix, so it
    does not share `pf_rows`'s direction or straightening table."""
    memo = {}
    state = {((), False): Polynomial.const(1)}
    for row in rows:
        acc = {}
        for (prefix, f), coeff in state.items():
            for m, g in row.items():
                term = coeff * g
                if m is None:
                    _iadd(acc, (prefix, not f), -term if f else term)
                    continue
                for v, c in insert_by_recursion(memo, prefix, m).items():
                    _iadd(acc, (v, f), term * (-c if f else c))
        state = acc
    combo = {}
    for (v, _), coeff in state.items():
        if v and v[-1] == 0:
            v = v[:-1]
        if not (v and v[-1] < 0):
            _iadd(combo, v, coeff)
    return GammaElement(combo)


_DYADIC = st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-6, 6), st.integers(0, 4))
_ROW_VARS = [("x", 1), ("x", 2), ("y", 1), ("t", 1)]


@st.composite
def dyadic_polynomials(draw, max_terms=3):
    """Up to max_terms terms in x_1, x_2, y_1, t_1 with coefficients n/2^k,
    k <= 4, so the polynomials of one row mostly differ in e."""
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(st.sampled_from(_ROW_VARS), st.integers(1, 2), max_size=2))
        terms.append((tuple(exps.items()), draw(_DYADIC)))
    return Polynomial(terms)


@st.composite
def row_lists(draw):
    """1-4 rows, each a few symbols e_m (m in -2..5) and maybe f (None)."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        keys = draw(st.lists(st.one_of(st.integers(-2, 5), st.none()), min_size=1, max_size=4, unique=True))
        rows.append({m: draw(dyadic_polynomials()) for m in keys})
    return rows


X1, X2 = Polynomial.variable("x", 1), Polynomial.variable("x", 2)
MIXED_ROWS = [
    {3: Fraction(1, 2) * X1, 2: Polynomial.const(1), None: Fraction(3, 8) * X2},
    {2: Fraction(3, 4) + X2, 0: X1 * X2},
    {1: Fraction(1, 16) * X1, -1: Polynomial.const(5), None: Polynomial()},
]


def fold_rows(lam, series, wtype):
    """The rows multischur_pf and multischur_pf_d fold, d_k + c_k f in type D."""
    return (paired_rows if wtype == "D" else series_rows)(lam, series)


def unlifted(rows):
    """Lifted rows (e, ((m, packed), ...)) as rows {m: Polynomial} of the
    same values, for the term-by-term fold."""
    return [{m: Polynomial.from_packed(dict(g), e) for m, g in entries} for e, entries in rows]


class TestPackedFold:
    @settings(deadline=None, max_examples=80)
    @given(row_lists())
    @example(MIXED_ROWS)
    def test_matches_term_by_term(self, rows):
        got = pf_rows([lift_row(row) for row in rows])
        assert got == pf_rows_term_by_term(rows)
        for c in got.combo.values():
            assert c and (c.e == 0 or any(n & 1 for n in c.packed.values()))

    def test_exponent_overflow(self):
        # the entry Q_1 Q_0 = Q_1 of the two rows carries x1^200 x1^200
        rows = [{1: X1**200}, {0: X1**200}]
        for fold in (lambda: pf_rows([lift_row(row) for row in rows]), lambda: pf_rows_term_by_term(rows)):
            with pytest.raises(ExponentOverflow):
                fold()
        # a fold after one that raised is right
        assert pf_rows([lift_row({1: X1**200}), lift_row({0: X1**55})]) == GammaElement({(1,): X1**255})

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_formula_rows(self, wtype):
        for t in enumerate_triples(wtype, 3):
            lam, series = formula_rows(t, wtype)
            rows = fold_rows(lam, series, wtype)
            assert pf_rows(rows) == pf_rows_term_by_term(dict_rows(lam, series, wtype == "D")), t

    @pytest.mark.parametrize(
        "wtype, d_zero", [("B", False), ("C", False), ("D", False), ("D", True)]
    )
    def test_top_class_rows(self, wtype, d_zero, monkeypatch):
        # the rows that top_class(4, T) folds, against the fold from the
        # first row down; type D's 3 rows (d_zero False) are an odd size
        folded = []

        def recording(rows):
            folded.append(list(rows))
            return pf_rows(folded[-1])

        monkeypatch.setattr(multischur, "pf_rows", recording)
        top_class(4, wtype, d_zero)
        [rows] = folded
        assert len(rows) == (3 if wtype == "D" and not d_zero else 4)
        assert pf_rows(rows) == pf_rows_term_by_term(unlifted(rows))

    @pytest.mark.parametrize("lam", [(1,), (3, 2, 1), (4, 2, 0), (5, 4, 2, 1, 0)])
    def test_odd_size_paired_rows(self, lam):
        # odd r_family shapes, with and without a trailing 0: f passes a
        # suffix of either parity (the odd W_3 formulas are in
        # test_formula_rows[D])
        rows = fold_rows(lam, r_rows(lam), "D")
        assert pf_rows(rows) == pf_rows_term_by_term(dict_rows(lam, r_rows(lam), True))

    def test_fold_cost(self, monkeypatch):
        # the products of state terms and row terms of three top classes,
        # folded from the last row up: 859, 48 641 and 91 759 (2 270,
        # 108 567 and 136 835 from the first row down; 134 142 in type D
        # when a trailing 0 is kept apart from a pending f)
        products = [0]

        def counting(targets, a, b):
            products[0] += len(a) * len(b)
            return fma(targets, a, b)

        fma = gamma._fma
        monkeypatch.setattr(gamma, "_fma", counting)
        for n, wtype, bound in [(4, "C", 1000), (5, "C", 50000), (5, "D", 100000)]:
            products[0] = 0
            top_class(n, wtype)
            assert 0 < products[0] <= bound, (n, wtype)

    def test_folds_share_no_maps(self):
        # two folds of the same two rows are right and own their packed
        # maps (only a state of the last row, which no later row replaces,
        # keeps a row's map); r_family's last state holds (v, f) pairs that
        # merge into one Q_v
        rows = [{3: X1, 1: Polynomial.const(1)}, {2: Polynomial.const(1)}]
        paired = dict_rows((2, 1), r_rows((2, 1)), True)
        for fold, expect in [
            (lambda: pf_rows([lift_row(row) for row in rows]), pf_rows_term_by_term(rows)),
            (lambda: r_family((2, 1)), pf_rows_term_by_term(paired).halve(2)),
        ]:
            first, second = fold(), fold()
            assert first == second == expect
            assert not {id(c.packed) for c in first.combo.values()} & {
                id(c.packed) for c in second.combo.values()
            }

    def test_folds_leave_no_reference_cycles(self):
        # a fold's states are freed at return, not by the collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            r_family((2, 1))
            assert gc.collect() == 0
            top_class(4, "D")
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_pfaffian_leaves_no_reference_cycles(self):
        # `pfaffian`'s sub-Pfaffian memo is freed at return, as the fold's is
        x1 = Polynomial.variable("x", 1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            gysin.prop_A1_check((3, 2, 1), (1, 2, 3))
            assert gc.collect() == 0
            gysin.f_index((1, 2, 3, 4))
            assert gc.collect() == 0
            multischur_det((2, 1), [1 + x1, 1 + x1 + x1**2])
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


# ---------------------------------------------------------------------------
# the tables that every fold of a process shares
# ---------------------------------------------------------------------------


def lifted_maps(row) -> tuple:
    """A copy of a lifted row (e, ((m, packed), ...)), each packed map copied."""
    e, entries = row
    return e, [(m, dict(g)) for m, g in entries]


def series_maps(series) -> list:
    """Copies of the packed maps of each series' multiplier and its parts by degree."""
    return [(dict(c.multiplier.packed), [dict(g.packed) for g in c.parts.values()]) for c in series]


class TestSharedTables:
    def test_straightening_table_matches_the_recursion(self):
        # every strictly decreasing suffix of entries in -8..8, of length
        # <= 4, and every -8 <= m <= 8: m + b = 0, m = 0 and a negative
        # last entry all occur
        memo = {}
        for size in range(5):
            for suffix in itertools.combinations(range(8, -9, -1), size):
                for m in range(-8, 9):
                    got = gamma._prepend(m, suffix)
                    assert dict(got) == prepend_by_recursion(memo, m, suffix), (m, suffix)
                    assert len(dict(got)) == len(got)

    def test_shared_row_maps_stay_read_only(self):
        # the cached series are shared by every fold: each fold multiplies
        # in every row, and none may write into them
        triples = [(t, wtype) for wtype in ("C", "D") for t in enumerate_triples(wtype, 3)]
        folds = [lambda: r_family((1,))] + [lambda t=t: vexillary_polynomial(t) for t, _ in triples]
        expect = []
        for fold in folds:
            gamma.ones_series.cache_clear()
            expect.append(fold())
        gamma.ones_series.cache_clear()
        series = r_rows((1,)) + [c for t, wtype in triples for c in formula_rows(t, wtype)[1]]
        before = series_maps(series)
        for _ in range(2):
            assert [fold() for fold in folds] == expect
        assert series_maps(series) == before
        assert r_rows((1,))[0] is series[0]
        assert r_family((1,)) == GammaElement({(1,): Fraction(1, 2), (): tvar(1)})


# ---------------------------------------------------------------------------
# work bounds: what a formula on warm series, or a descent step, still computes
# ---------------------------------------------------------------------------

W4_TOPS = [("B", False), ("C", False), ("D", False), ("D", True)]


class TestWorkBounds:
    def test_warm_formulas_scan_no_multiplier(self, monkeypatch):
        # each series recorded its multiplier's degree and split when it was
        # built, so no skew guard and no paired row calls Polynomial.degree
        # (a scan of every term) or Polynomial.part (a scan and a new
        # Polynomial) once the series are warm
        formulas = [lambda: r_family((3, 2, 1)), lambda: p_family((4, 3, 2))] + [
            lambda wtype=wtype, d_zero=d_zero: top_class(4, wtype, d_zero)
            for wtype, d_zero in W4_TOPS
        ]
        expect = [fold() for fold in formulas]
        calls = dict.fromkeys(("degree", "part"), 0)
        for name in calls:

            def counting(self, *args, name=name, method=getattr(Polynomial, name)):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(Polynomial, name, counting)
        assert [fold() for fold in formulas] == expect
        assert calls == {"degree": 0, "part": 0}

    # the `_fma` calls of a formula on warm series, a bound declared with
    # the fold: the last row seeds the state with none (3, 5, 29, 29, 78
    # and 46 before, when it folded from the unit state)
    FMA_CALLS = [
        ("q_family(3)", lambda: q_family((3,)), 0),
        ("p_family(5,4,3,2,1)", lambda: p_family((5, 4, 3, 2, 1)), 4),
        ("top_class(4, B)", lambda: top_class(4, "B"), 28),
        ("top_class(4, C)", lambda: top_class(4, "C"), 28),
        ("top_class(4, D)", lambda: top_class(4, "D"), 74),
        ("top_class(4, D, d_zero)", lambda: top_class(4, "D", True), 44),
    ]

    @pytest.mark.parametrize("name, fold, bound", FMA_CALLS, ids=[case[0] for case in FMA_CALLS])
    def test_fma_calls(self, monkeypatch, name, fold, bound):
        # counted by a wrapper here, so the program carries no counter
        expect = fold()
        calls = [0]
        fma = gamma._fma

        def counting(targets, a, b):
            calls[0] += 1
            return fma(targets, a, b)

        monkeypatch.setattr(gamma, "_fma", counting)
        assert fold() == expect
        assert calls[0] <= bound, name

    # the family shapes of the pfaffian benchmark: r_family(lam) and
    # p_family(lam + 1) for each strict lam with parts <= 4
    FAMILY_SHAPES = [lam for size in range(1, 6) for lam in itertools.combinations(range(4, -1, -1), size)]

    def test_rows_lifted_once_per_series(self, monkeypatch):
        # every W_4 formula of types C and D and the families, from cold
        # series: each of the 68 (series, index, paired) rows they ask for
        # is lifted once, in the first pass, and none is written after it
        # is lifted
        formulas = [
            lambda t=t: vexillary_polynomial(t)
            for wtype in ("C", "D")
            for t in filter(None, (triple_of_w(w, wtype) for w in all_elements(4, wtype)))
        ]
        for lam in self.FAMILY_SHAPES:
            formulas += [lambda lam=lam: r_family(lam), lambda lam=lam: p_family(tuple(m + 1 for m in lam))]
        assert len(formulas) == 183 + 87 + 62  # C, D, families
        lift, lifted, asked = gamma.lift_row, [], set()

        def lifting(row):
            out = lift(row)
            lifted.append((out, lifted_maps(out)))
            return out

        monkeypatch.setattr(gamma, "lift_row", lifting)
        for name in ("row", "paired_row"):

            def asking(self, k, name=name, method=getattr(GeneratorSeries, name)):
                asked.add((self, k, name == "paired_row"))
                return method(self, k)

            monkeypatch.setattr(GeneratorSeries, name, asking)
        gamma.ones_series.cache_clear()
        expect = [fold() for fold in formulas]
        stored = {(c, k, False) for c, _, _ in asked for k in c.rows}
        stored |= {(c, k, True) for c, _, _ in asked for k in c.paired_rows}
        assert len(lifted) == len(asked) == len(stored) == 68 and asked == stored
        assert [fold() for fold in formulas] == expect
        assert len(lifted) == 68
        for row, maps in lifted:
            assert lifted_maps(row) == maps

    @pytest.mark.parametrize("wtype, d_zero", W4_TOPS)
    def test_one_validate_per_formula(self, monkeypatch, wtype, d_zero):
        # the W_4 top-class formula validates its triple once, in
        # `triples.lambda_columns`; a type-D triple is validated as it
        # stands, with no inner call on plus_map(t)
        validate, calls = triples.validate, [0]

        def counting(t):
            calls[0] += 1
            return validate(t)

        for module in (triples, schubert, multischur):  # wherever a module binds it
            if getattr(module, "validate", None) is validate:
                monkeypatch.setattr(module, "validate", counting)
        top_class(4, wtype, d_zero)
        calls[0] = 0
        top_class(4, wtype, d_zero)
        assert calls[0] == 1

    @pytest.mark.parametrize(
        "t",
        [
            Triple(tuple(range(1, 9)), (7, 7, 6, 6, 5, 4, 3, 2), (4, 5, 6, 7, 7, 7, 9, 9), "A"),
            Triple((1, 2, 3), (3, 3, 2), (3, 2, 2), "C"),
            Triple((1, 2, 3), (2, 2, 1), (2, 1, 1), "D"),
        ],
        ids=repr,
    )
    def test_one_validate_per_insertion(self, monkeypatch, t):
        # w_of_triple of a redundant triple validates it once, in
        # `triples.reduce_redundant`, which drops every zero slack in one pass
        validate, calls = triples.validate, [0]

        def counting(t):
            calls[0] += 1
            return validate(t)

        monkeypatch.setattr(triples, "validate", counting)
        assert validate(t) == "redundant"
        triples.w_of_triple(t)
        assert calls[0] == 1

    # the classes `_descend` builds over all of W_4 from a cold memo, and
    # the generator-0 steps among them: the sweep takes generator 0 only
    # where no i >= 1 ascent exists, schubert() wherever it is an ascent
    SWEEP_W4 = {"B": (384, 15), "C": (384, 15), "D": (192, 7)}
    SMALLEST_ASCENT_W4 = {"B": (384, 192), "C": (384, 192), "D": (192, 96)}

    @pytest.mark.parametrize("wtype", ["B", "C", "D"])
    def test_classes_built_and_generator_zero_steps(self, monkeypatch, wtype):
        routes = [
            (lambda: list(schubert.sweep(4, wtype)), self.SWEEP_W4[wtype]),
            (lambda: [schubert.schubert(w, wtype) for w in all_elements(4, wtype)],
             self.SMALLEST_ASCENT_W4[wtype]),
        ]
        for build, bound in routes:
            monkeypatch.setattr(schubert, "_CACHE", {})
            built, zero = schubert.classes_built, schubert.zero_steps
            build()
            assert (schubert.classes_built - built, schubert.zero_steps - zero) == bound

    # the terms of every basis coefficient the i >= 1 kernel reads while
    # building all of W_4 from a cold memo, a bound declared with the
    # kernel
    KERNEL_TERMS_W4 = {"C": 19435, "D": 21893}

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_one_kernel_pass_per_step(self, monkeypatch, wtype):
        # every i >= 1 step, type D's partial_1 inside generator 0
        # included, is one divided_differences pass over the whole combo
        step = schubert.divided_difference
        steps = [0]

        def counting(i, f, t):
            steps[0] += i >= 1
            return step(i, f, t)

        monkeypatch.setattr(schubert, "divided_difference", counting)
        monkeypatch.setattr(schubert, "_CACHE", {})
        passes, read = polycore.dd_passes, polycore.dd_terms_read
        for w in all_elements(4, wtype):
            schubert.schubert(w, wtype)
        assert steps[0] == 191
        assert polycore.dd_passes - passes == steps[0]
        assert polycore.dd_terms_read - read <= self.KERNEL_TERMS_W4[wtype]

    @pytest.mark.parametrize(
        "t",
        [
            Triple((2,), (3,), (1,), "A"),
            Triple((2, 1), (1, 1), (1, 1), "C"),
            Triple((2, 1), (1, 1), (1, 1), "D"),
            Triple((), (1,), (), "C"),
        ],
        ids=["A", "C", "D", "C-empty-k"],
    )
    def test_invalid_triples_raise(self, t):
        assert triples.validate(t) == "invalid"
        with pytest.raises(InvalidTriple):
            vexillary_polynomial(t)
