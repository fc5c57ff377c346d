import importlib
import itertools
import pkgutil
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import vexpf
from vexpf.polycore import ExponentOverflow, Polynomial
from vexpf.gamma import (
    GammaElement,
    GeneratorSeries,
    _branch,
    _gens,
    _iadd,
    _raw_mul,
    apply_symmetry,
    lift_row,
    ones_series,
    pair_expansion,
    pf_expansion,
    pf_rows,
    q_pair,
    series_coeff,
    series_rows,
    straighten_monomial,
)
from vexpf.gysin import negt_series, specialize_oracle
from vexpf.multischur import paired_rows, q_family
from vexpf.schubert import divided_difference, formula_rows, top_class
from vexpf.triples import enumerate_triples

from oracles import (
    Q_SERIES,
    TruncationTooSmall,
    branch_term_by_term,
    dict_rows,
    pf_rows_from_unit_state,
    specialize_symfun,
)

X1, X2 = Polynomial.variable("x", 1), Polynomial.variable("x", 2)


def swap12(e):
    """s1: swap x1 and x2 in every coefficient; it fixes every Q_lambda."""
    return e.map_coeffs(lambda c: c.substitute({("x", 1): X2, ("x", 2): X1}))


def s1hat(e):
    """Type D's generator-0 symmetry as the conjugate s0 s1 s0."""
    return apply_symmetry(swap12(apply_symmetry(e)))


# s0 and s1hat as the oracles write them: (renaming of the coefficients,
# variables added to the alphabet of Q)
S0 = ({("x", 1): -X1}, (X1,))
S1HAT = ({("x", 1): -X2, ("x", 2): -X1}, (X1, X2))


def symmetry(op, e):
    """op as the program applies it: s0 by apply_symmetry, s1hat as s0 s1 s0."""
    return apply_symmetry(e) if op is S0 else s1hat(e)


def ge(mono_coeffs):
    return GammaElement.from_raw(
        {m: Polynomial.const(c) for m, c in mono_coeffs.items()}
    )


def to_raw(e):
    """e as generator monomials: each Q_lambda by its defining Pfaffian."""
    raw = {}
    for lam, coeff in e.combo.items():
        for mono, c in pf_expansion(lam).items():
            raw[mono] = raw.get(mono, Polynomial()) + coeff * c
    return raw


def raw_symmetry(op, e):
    """Reference for s0 and s1hat: substitute the coefficients, map every
    generator through its image and straighten back.
      s0:    Q_a -> Q_a + 2 sum_{j=1}^{a} x1^j Q_{a-j}
      s1hat: Q_a -> Q_a + 2 (x1+x2) sum_{j=1}^{a} h_{j-1}(x1, x2) Q_{a-j}"""
    x1, x2 = Polynomial.variable("x", 1), Polynomial.variable("x", 2)
    sub = op[0]
    if op is S0:
        step = lambda j: 2 * x1**j
    else:
        h = lambda m: sum((x1**i * x2 ** (m - i) for i in range(m + 1)), Polynomial())
        step = lambda j: 2 * (x1 + x2) * h(j - 1)
    out = {}
    for mono, coeff in to_raw(e).items():
        term = {(): coeff.substitute(sub)}
        for a in mono:
            image = {(a - j,) if j < a else (): step(j) for j in range(1, a + 1)}
            term = _raw_mul(term, {(a,): 1, **image})
        for m, c in term.items():
            out[m] = out.get(m, Polynomial()) + c
    return GammaElement.from_raw(out)


_RELATION_MEMO = {}


def straighten_by_relations(mono):
    """Reference straightening of a generator monomial, {strict partition:
    int}, written with the ring's defining relations and no Pieri rule:
    sort it weakly decreasing, rewrite an equal adjacent pair by
    Q_a^2 = -2 sum_{j=1}^{a} (-1)^j Q_{a+j} Q_{a-j}, and peel a strictly
    decreasing one off its defining Pfaffian, whose other terms are higher
    in dominance order."""
    mono = _gens(mono)
    if mono not in _RELATION_MEMO:
        pair = next((i for i in range(len(mono) - 1) if mono[i] == mono[i + 1]), None)
        out = {mono: 1} if pair is None else {}
        if pair is not None:
            a, rest = mono[pair], mono[:pair] + mono[pair + 2 :]
            for j in range(1, a + 1):
                for lam, c in straighten_by_relations(rest + (a + j, a - j)).items():
                    _iadd(out, lam, -2 * (-1) ** j * c)
        elif len(mono) > 1:
            for m, c in pf_expansion(mono).items():
                if m != mono:
                    for lam, c2 in straighten_by_relations(m).items():
                        _iadd(out, lam, -c * c2)
        _RELATION_MEMO[mono] = out
    return _RELATION_MEMO[mono]


def _vexpf_caches():
    """Every functools.lru_cache wrapper in a vexpf module, at module level
    or in a class, found by scanning rather than listed."""
    found = {}
    for info in pkgutil.iter_modules(vexpf.__path__):
        module = importlib.import_module(f"vexpf.{info.name}")
        for obj in vars(module).values():
            for item in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                item = getattr(item, "__func__", item)  # staticmethod, classmethod
                if hasattr(item, "cache_parameters") and item.__module__.startswith("vexpf"):
                    found[id(item)] = item
    return list(found.values())


class TestStraighten:
    def test_square_relation(self):
        # Q_1 * Q_1 = 2 Q_(2)
        assert ge({(1, 1): 1}) == GammaElement({(2,): 2})

    def test_two_row(self):
        # Q_2 Q_1 = Q_(2,1) + 2 Q_(3)
        assert ge({(2, 1): 1}) == GammaElement({(2, 1): 1, (3,): 2})

    def test_basis_element_passthrough(self):
        assert ge({(5,): 1}) == GammaElement({(5,): 1})
        assert straighten_monomial((5,)) == {(5,): 1}

    def test_raw_roundtrip(self):
        e = ge({(3, 2): 1, (4, 1): 2})
        assert GammaElement.from_raw(to_raw(e)) == e

    def test_matches_the_defining_relations(self):
        # every generator monomial of weight <= 10: 139 of them
        monos = [mono for w in range(11) for mono in _partitions(w)]
        assert len(monos) == 139
        for mono in monos:
            assert straighten_monomial(mono) == straighten_by_relations(mono), mono

    def test_product_matches_both_factor_expansion(self):
        # Q_lam * Q_mu, lam with parts <= 5 and mu with parts <= 4 (at most
        # 3 and 2 parts), against both factors expanded into generator monomials
        pairs = itertools.product(_strict_partitions_bounded(5, 3), _strict_partitions_bounded(4, 2))
        for lam, mu in pairs:
            expect = {}
            for mono, c in _raw_mul(pf_expansion(lam), pf_expansion(mu)).items():
                for nu, c2 in straighten_by_relations(mono).items():
                    _iadd(expect, nu, c * c2)
            assert GammaElement({lam: 1}) * GammaElement({mu: 1}) == GammaElement(expect), (lam, mu)

    @pytest.mark.parametrize("cached", _vexpf_caches(), ids=lambda f: f.__name__)
    def test_cache_is_bounded(self, cached):
        maxsize = cached.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize == cached.cache_parameters()["maxsize"]

    def test_cache_scan_finds_the_gamma_caches(self):
        names = {f.__name__ for f in _vexpf_caches()}
        gamma_caches = {"straighten_monomial", "pair_expansion", "pf_expansion", "_prepend", "ones_series"}
        assert gamma_caches | {"_divides"} <= names

    def test_constructor_normalizes_its_combo(self):
        # keys become tuples, int and Fraction coefficients Polynomials, and zeros drop
        e = GammaElement({range(2, 0, -1): 3, (1,): Fraction(1, 2), (3,): 0, (4,): Polynomial()})
        assert e.combo == {(2, 1): Polynomial.const(3), (1,): Polynomial.const(Fraction(1, 2))}
        assert all(type(lam) is tuple and type(c) is Polynomial for lam, c in e.combo.items())

    def test_equality_with_other_types(self):
        # a value that is no element and no coefficient compares unequal
        q1 = GammaElement({(1,): 1})
        assert (q1 == None) is False  # noqa: E711
        assert q1 != "Q(1)" and q1 in [None, q1]
        assert GammaElement({(): 1}) == 1 == GammaElement.of(Polynomial.const(1))

    def test_equality_with_a_non_dyadic_number(self):
        # no element has the value 1/3: unequal, where it used to raise
        assert (GammaElement.of(1) == Fraction(1, 3)) is False
        assert GammaElement({(1,): 1}) != Fraction(1, 3)

    @pytest.mark.parametrize(
        "lam", [(2, 1), (3, 1), (3, 2, 1), (4, 2), (4, 3, 2, 1), (5, 3, 1)]
    )
    def test_pfaffian_roundtrip(self, lam):
        # the defining expansion of Q_lambda must straighten back to itself
        assert ge(pf_expansion(lam)) == GammaElement({lam: 1})

    def test_gamma_prime_relation(self):
        # P_k^2 + 2 sum_{j<k} (-1)^j P_{k+j}P_{k-j} + (-1)^k P_(2k) = 0
        half = Polynomial.const(Fraction(1, 2))
        for k in range(1, 7):
            acc = ge({(k, k): 1}) * (half * half)
            for j in range(1, k):
                acc = acc + ge({(k + j, k - j): 1}) * (
                    half * half * (2 * (-1) ** j)
                )
            p_2k = GammaElement({(2 * k,): 1}) * Polynomial.const(Fraction(1, 2))
            acc = acc + p_2k * Polynomial.const((-1) ** k)
            assert not acc, f"relation fails at k={k}"


class TestSeries:
    def test_plain_q_coeff(self):
        assert series_coeff(Q_SERIES, 3) == GammaElement({(3,): 1})
        assert series_coeff(Q_SERIES, 0) == GammaElement.of(1)

    def test_multiplier_coeff(self):
        t1 = Polynomial.variable("t", 1)
        c = GeneratorSeries(1 + t1)
        expect = GammaElement({(2,): 1, (1,): t1})
        assert series_coeff(c, 2) == expect

    def test_elementary_symmetric(self):
        t1 = Polynomial.variable("t", 1)
        t2 = Polynomial.variable("t", 2)
        c = GeneratorSeries((1 + t1) * (1 + t2))
        assert series_coeff(c, 2) == GammaElement({(2,): 1, (1,): t1 + t2, (): t1 * t2})

    @pytest.mark.parametrize("mult", [2 + Polynomial.variable("t", 1), 0, Polynomial.variable("t", 1)])
    def test_multiplier_needs_unit_constant_term(self, mult):
        with pytest.raises(ValueError, match="constant term 1"):
            GeneratorSeries(mult)

    def test_series_record_their_multiplier(self):
        # every shared row of a W_4 formula (B, C, D) and of the families
        # with parts <= 5: the degree the skew guards read and the split
        # that rows and type D's paired scalar read
        series = {ones_series(("t", k)) for k in range(6)}
        for t in enumerate_triples("C", 4):
            series.update(formula_rows(t, "B")[1] + formula_rows(t, "C")[1])
        for t in enumerate_triples("D", 4):
            series.update(formula_rows(t, "D")[1])
        assert len(series) > 6
        for c in series:
            g = c.multiplier
            assert c.degree == g.degree(), c
            assert list(c.parts) == sorted(c.parts)
            for k in range(-1, g.degree() + 2):
                assert c.parts.get(k, Polynomial()) == g.part(k), (c, k)


_MONOS = [next(iter(m.packed)) for m in (Polynomial.const(1), X1, X2, X1 * X2, X1**3)]


@st.composite
def halvable_elements(draw):
    """Elements whose coefficients are n 2^shift / 2^e over a few
    monomials, normalized by `from_packed`: shift >= 1 at e == 0 keeps an
    all-even coefficient, and shift >= 1 at e > 0 normalizes down."""
    combo = {}
    for lam in draw(st.lists(st.sampled_from([(), (1,), (2, 1), (3, 1)]), unique=True, max_size=4)):
        shift = draw(st.integers(0, 3))
        terms = draw(st.dictionaries(st.sampled_from(_MONOS), st.integers(-5, 5).filter(bool), min_size=1, max_size=4))
        combo[lam] = Polynomial.from_packed({m: n << shift for m, n in terms.items()}, draw(st.integers(0, 3)))
    return GammaElement(combo)


class TestHalve:
    @settings(deadline=None, max_examples=150)
    @given(halvable_elements(), st.integers(0, 4))
    @example(GammaElement({(1,): Polynomial.from_packed({_MONOS[1]: 2, _MONOS[0]: 4})}), 1)
    @example(GammaElement({(2, 1): Polynomial.from_packed({_MONOS[1]: 4, _MONOS[0]: 8}, 2)}), 3)
    @example(GammaElement({(): Polynomial.from_packed({_MONOS[2]: 3}, 2)}), 0)
    def test_matches_the_normalizing_path(self, e, r):
        got = e.halve(r)
        assert got.combo == {lam: Polynomial.from_packed(c.packed, c.e + r) for lam, c in e.combo.items()}
        for c in got.combo.values():
            assert c.e == 0 or any(n & 1 for n in c.packed.values())


class TestQPair:
    def test_diagonal_vanishes(self):
        # needs the proper q(k) = Q * prod_{j<k} (1+t_j): the multiplier
        # degree must stay below the index for skew-symmetry to hold
        for k in range(1, 4):
            mult = Polynomial.const(1)
            for j in range(1, k):
                mult = mult * (1 + Polynomial.variable("t", j))
            c = GeneratorSeries(mult)
            assert not q_pair(k, k, c, c)

    def test_antisymmetry(self):
        c2 = GeneratorSeries(1 + Polynomial.variable("t", 1))
        c3 = GeneratorSeries((1 + Polynomial.variable("t", 1)) * (1 + Polynomial.variable("t", 2)))
        a = q_pair(3, 2, c3, c2)
        b = q_pair(2, 3, c2, c3)
        assert a == -b

    def test_plain_pair_is_basis(self):
        assert q_pair(2, 1, Q_SERIES, Q_SERIES) == GammaElement({(2, 1): 1})


# ---------------------------------------------------------------------------
# the fold seeded by its last row, against the fold from the unit state
# ---------------------------------------------------------------------------

Y1 = Polynomial.variable("y", 1)
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@st.composite
def dyadic_rows(draw):
    """0-4 rows, each 0-4 symbols e_m (m in -3..5) and maybe f (None),
    with polynomials in x_1, x_2, y_1 over 2^0..2^3, zero ones included,
    so a row's entries mostly differ in exponent."""
    monos = [Polynomial.const(1), X1, X2, Y1, X1 * X2, X1 * Y1]
    entry = st.builds(
        lambda terms, k: sum((Fraction(n, 1 << k) * m for m, n in terms), Polynomial()),
        st.lists(st.tuples(st.sampled_from(monos), st.integers(-4, 4)), max_size=3),
        st.integers(0, 3),
    )
    keys = st.lists(st.one_of(st.integers(-3, 5), st.none()), max_size=4, unique=True)
    return [{m: draw(entry) for m in draw(keys)} for _ in range(draw(st.integers(0, 4)))]


def fold_shape(e):
    """Everything of a fold's result that any output can see: each basis
    symbol in order, with its exponent and its terms in order."""
    return [(lam, c.e, list(c.packed.items())) for lam, c in e.combo.items()]


def row_maps(rows):
    """Copies of each lifted row's exponent and entries, each packed map
    copied."""
    return [(e, [(m, dict(g)) for m, g in entries]) for e, entries in rows]


def series_maps(series):
    """Copies of each series' multiplier and parts, exponent and packed map."""
    return [
        ((c.multiplier.e, dict(c.multiplier.packed)), {a: (g.e, dict(g.packed)) for a, g in c.parts.items()})
        for c in series
    ]


class TestSeededFold:
    @settings(deadline=None, max_examples=300)
    @given(dyadic_rows())
    @example([])  # no rows: 1
    @example([{3: X1 * QUARTER + 1}])  # one row
    @example([{}])  # one empty row: 0
    @example([{2: X1}, {}])  # an empty last row
    @example([{}, {1: X2}])  # an empty first row
    @example([{2: Polynomial.const(1)}, {0: X1, None: -X1}])  # e_0 and f cancel in the last row
    @example([{0: X1, None: -X1}])
    @example([{3: X2}, {0: X1 * HALF, None: X2 + QUARTER}])  # e_0 and f merge, lifted
    @example([{2: X1 * HALF, 1: Polynomial.const(1), None: X2 * QUARTER}])  # lifted last row
    @example([{1: X1, -1: X2}, {-2: Y1, 3: Polynomial(), 0: X1 * QUARTER}])  # negative m, a zero entry
    @example([{3: Polynomial.const(1), None: X1}, {2: X2, None: Polynomial.const(HALF)}, {1: Y1}])  # f in inner rows
    @example([{1: X1}, {1: X1}])  # Q_(1,1) = 0: the state empties after a later row
    def test_matches_the_unit_state_fold(self, rows):
        got = pf_rows([lift_row(row) for row in rows])
        assert fold_shape(got) == fold_shape(pf_rows_from_unit_state(rows))
        for c in got.combo.values():
            assert c and (c.e == 0 or any(n & 1 for n in c.packed.values()))

    @pytest.mark.parametrize("wtype", ["C", "D"])
    def test_formulas_match_the_unit_state_fold(self, wtype):
        for t in enumerate_triples(wtype, 3):
            lam, series = formula_rows(t, wtype)
            got = pf_rows((paired_rows if wtype == "D" else series_rows)(lam, series))
            expect = pf_rows_from_unit_state(dict_rows(lam, series, wtype == "D"))
            assert fold_shape(got) == fold_shape(expect), t

    def test_the_fold_writes_no_row_and_no_series(self):
        # the rows of the W_3 formulas and of the t families, and the
        # series they are read from, against copies taken before the fold
        # and before the results are added, halved, mapped and divided
        series, rows = [], []
        for wtype in ("C", "D"):
            for t in enumerate_triples(wtype, 3):
                lam, cs = formula_rows(t, wtype)
                series += cs
                rows.append((paired_rows if wtype == "D" else series_rows)(lam, cs))
        for lam in [(1,), (3,), (3, 1), (4, 2, 1)]:
            cs = [ones_series(("t", k - 1)) for k in lam]
            series += cs
            rows.append(series_rows(lam, cs))
        rows += [[c.row(m)] for c in series[:40] for m in range(4)]
        before_rows, before_series = [row_maps(r) for r in rows], series_maps(series)
        results = [pf_rows(r) for r in rows]
        for e in results:
            e + e
            e.halve(2)
            e.map_coeffs(lambda c: c * X1)
            divided_difference(1, e, "C")
            divided_difference(2, e, "D")
        assert [row_maps(r) for r in rows] == before_rows
        assert series_maps(series) == before_series

    @pytest.mark.parametrize(
        "fold, series",
        [
            (lambda: q_family((3,)), lambda: ones_series(("t", 2))),
            (lambda: series_coeff(ones_series(("x", 2), ("y", 1)), 3), lambda: ones_series(("x", 2), ("y", 1))),
        ],
        ids=["q_family(3)", "x-series row 3"],
    )
    def test_one_row_results_share_the_series_and_leave_it(self, fold, series):
        # a one-row Pfaffian returns the series' own maps; every operation
        # on the result builds new maps
        e, c = fold(), series()
        shared = {id(g.packed) for g in c.parts.values()}
        assert {id(p.packed) for p in e.combo.values()} & shared
        snapshot, element = series_maps([c]), fold_shape(e)
        results = [e + e, e + 1, e - e, -e, e.halve(1), e.map_coeffs(lambda p: p * X2)]
        results += [divided_difference(i, e, "C") for i in (1, 2, 3)]
        assert series_maps([c]) == snapshot
        assert fold_shape(e) == element
        assert fold_shape(results[2]) == []


class TestSymmetries:
    def test_s0_on_q1(self):
        x1 = Polynomial.variable("x", 1)
        got = apply_symmetry(GammaElement({(1,): 1}))
        assert got == GammaElement({(1,): 1, (): 2 * x1})

    def test_si_fixes_q(self):
        # s1 renames the coefficients alone; conjugated by s0 it is s1hat,
        # which sends the scalars x1 and x2 to -x2 and -x1
        assert swap12(GammaElement({(2,): X1})) == GammaElement({(2,): X2})
        assert s1hat(GammaElement.of(X1 + 3 * X2)) == GammaElement.of(-X2 - 3 * X1)

    @pytest.mark.parametrize("lam", [(1,), (2,), (3,), (2, 1)])
    def test_s0_involution(self, lam):
        e = GammaElement({lam: 1})
        assert apply_symmetry(apply_symmetry(e)) == e

    @pytest.mark.parametrize("lam", [(1,), (2,), (3,), (2, 1)])
    def test_s1hat_involution(self, lam):
        e = GammaElement({lam: 1})
        assert s1hat(s1hat(e)) == e

    @pytest.mark.parametrize("op, max_weight", [(S0, 22), (S1HAT, 14)])
    def test_matches_generator_images(self, op, max_weight):
        # every strict lambda with parts <= 7 and at most 4 parts, up to max_weight
        x1, y1, x2 = (Polynomial.variable(*v) for v in (("x", 1), ("y", 1), ("x", 2)))
        coeff = x1 * y1 + x2
        for lam in _strict_partitions_bounded(7, 4):
            if sum(lam) <= max_weight:
                e = GammaElement({lam: coeff})
                assert symmetry(op, e) == raw_symmetry(op, e), lam

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("wtype, op", [("C", S0), ("D", S1HAT)])
    def test_top_class_matches_generator_images(self, n, wtype, op):
        e = top_class(n, wtype)
        assert symmetry(op, e) == raw_symmetry(op, e)

    def test_s0_multiplicative(self):
        a = GammaElement({(2,): 1})
        b = GammaElement({(1,): 1})
        lhs = apply_symmetry(a * b)
        rhs = apply_symmetry(a) * apply_symmetry(b)
        assert lhs == rhs


_DYADIC = st.builds(lambda n, k: Fraction(n, 1 << k), st.integers(-6, 6), st.integers(0, 4))
_BRANCH_VARS = [("x", 1), ("x", 2), ("y", 1), ("t", 1)]


@st.composite
def dyadic_polynomials(draw, max_terms=4):
    """Up to max_terms terms in x_1, x_2, y_1, t_1 with coefficients n/2^k,
    k <= 4, so the coefficients of one element mostly differ in e."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        exps = draw(st.dictionaries(st.sampled_from(_BRANCH_VARS), st.integers(1, 3), max_size=3))
        terms.append((tuple(exps.items()), draw(_DYADIC)))
    return Polynomial(terms)


mixed_elements = st.dictionaries(
    st.sampled_from([lam for r in range(4) for lam in itertools.combinations(range(5, 0, -1), r)]),
    dyadic_polynomials(),
    max_size=4,
).map(GammaElement)
MIXED = GammaElement({
    (4, 2, 1): Fraction(3, 2) * Polynomial.variable("y", 1),
    (3, 1): Fraction(1, 8) * X1 + Fraction(5, 4),
    (2,): X2 + 1,
})


class TestPackedBranch:
    @settings(deadline=None, max_examples=60)
    @given(mixed_elements)
    @example(MIXED)
    def test_matches_term_by_term(self, e):
        got = _branch(e)
        assert got == branch_term_by_term(e, X1)
        for c in got.combo.values():
            assert c and (c.e == 0 or any(n & 1 for n in c.packed.values()))

    @settings(deadline=None, max_examples=30)
    @given(mixed_elements)
    @example(MIXED)
    def test_generator_zero_matches_term_by_term(self, e):
        for op in (S0, S1HAT):
            sub, added = op
            expect = e.map_coeffs(lambda c: c.substitute(sub))
            for v in added:
                expect = branch_term_by_term(expect, v)
            assert symmetry(op, e) == expect

    def test_exponent_overflow(self):
        # s0 on x1^250 Q_8 reaches x1^258 at mu = (): beyond the x1 field
        e = GammaElement({(8,): X1**250})
        with pytest.raises(ExponentOverflow):
            apply_symmetry(e)
        with pytest.raises(ExponentOverflow):
            branch_term_by_term(e, X1)
        with pytest.raises(ExponentOverflow):
            _branch(GammaElement({(300,): 1}))
        # a strip past the whole x1 field raises too
        with pytest.raises(ExponentOverflow):
            _branch(GammaElement({(800,): 1}))
        # the top of the field still fits: 2 x1^8 x1^247 at mu = ()
        assert _branch(GammaElement({(8,): X1**247})).combo.get((), Polynomial()) == 2 * X1**255
        # generator 0 shifts by up to x1^7 here: x1^257 raises, x1^255 fits
        with pytest.raises(ExponentOverflow):
            divided_difference(0, e, "C")
        got = divided_difference(0, GammaElement({(8,): X1**248}), "C")
        assert got.combo.get((), Polynomial()) == X1**255


class TestOracle:
    def test_constant(self):
        assert specialize_symfun(GammaElement.of(1), 2, 3) == 1

    def test_q1_image(self):
        z1 = Polynomial.variable("z", 1)
        z2 = Polynomial.variable("z", 2)
        got = specialize_symfun(GammaElement({(1,): 1}), 2, 1)
        assert got == 2 * z1 + 2 * z2

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            specialize_symfun(GammaElement({(3,): 1}), 3, 2)

    def test_oracle_is_ring_hom(self):
        # compare product in Gamma against product of oracle images
        a = GammaElement({(2,): 1})
        b = GammaElement({(2, 1): 1})
        lhs = specialize_symfun(a * b, 5, 5)
        rhs = specialize_symfun(a, 5, 5) * specialize_symfun(b, 5, 5)
        assert lhs == rhs.truncate(5)

    def test_negt_bound_covers_pair_generators(self):
        # the Pfaffian of Q_(5,4) uses generators up to Q_9, past lambda_1 = 5
        e = GammaElement({(5, 4): Polynomial.variable("x", 1), (2,): 1})
        nu = (1, 3)
        a = negt_series(nu, 9)
        q54 = a.part(5) * a.part(4) + sum(
            (a.part(5 + j) * a.part(4 - j) * (2 * (-1) ** j) for j in range(1, 5)), Polynomial()
        )
        expect = Polynomial.variable("x", 1) * q54 + a.part(2)
        assert specialize_oracle(e, nu) == expect

    def test_basis_independence_low_degree(self):
        # distinct strict partitions of weight <= 6 get distinct images
        lams = [
            lam
            for w in range(0, 7)
            for lam in _strict_partitions(w)
        ]
        images = {}
        for lam in lams:
            img = specialize_symfun(GammaElement({lam: 1}), 6, 6)
            key = str(img)
            assert key not in images, f"{lam} collides with {images.get(key)}"
            images[key] = lam


def _strict_partitions(weight, maxpart=None):
    if maxpart is None:
        maxpart = weight
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, maxpart), 0, -1):
        for rest in _strict_partitions(weight - first, first - 1):
            yield (first,) + rest


def _partitions(weight, maxpart=None):
    """Every partition of weight, weakly decreasing: the generator monomials."""
    if maxpart is None:
        maxpart = weight
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, maxpart), 0, -1):
        for rest in _partitions(weight - first, first):
            yield (first,) + rest


def _strict_partitions_bounded(maxpart, maxlen):
    """Every strict partition with parts <= maxpart and at most maxlen parts."""
    for r in range(maxlen + 1):
        yield from itertools.combinations(range(maxpart, 0, -1), r)


class TestStrips:
    def test_pieri_matches_the_symfun_specialization(self):
        # every (mu, r) with |mu| <= 8 and 1 <= r <= 5, in N = len(mu) + 1
        # variables: every lam of Q_mu Q_r has at most N parts, and the
        # Q_lam(z_1, ..., z_N) of those lam are linearly independent
        image = lru_cache(maxsize=None)(lambda lam, n: specialize_symfun(GammaElement({lam: 1}), n, sum(lam)))
        for mu in (mu for w in range(9) for mu in _strict_partitions(w)):
            n = len(mu) + 1
            for r in range(1, 6):
                got = sum((image(lam, n) * c for lam, c in straighten_monomial((r,), mu).items()), Polynomial())
                assert got == image(mu, n) * image((r,), n), (mu, r)


strict_parts = st.sampled_from([(1,), (2,), (3,), (2, 1), (3, 1), (4,)])


@settings(max_examples=20, deadline=None)
@given(strict_parts, strict_parts)
def test_product_matches_oracle(lam, mu):
    prod = GammaElement({lam: 1}) * GammaElement({mu: 1})
    d = sum(lam) + sum(mu)
    # N = 4 is not enough variables for a complete check at these degrees,
    # but any true identity must still specialize to an equality
    lhs = specialize_symfun(prod, 4, d)
    rhs = (
        specialize_symfun(GammaElement({lam: 1}), 4, d) * specialize_symfun(GammaElement({mu: 1}), 4, d)
    ).truncate(d)
    assert lhs == rhs
