import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from vexpf import triples
from vexpf.weyl import SignedPermutation, all_elements, length
from vexpf.triples import (
    InvalidTriple,
    Triple,
    WrongType,
    enumerate_triples,
    lambda_of,
    minus_map,
    plus_map,
    reduce_redundant,
    triple_of_w,
    type_a_l,
    validate,
    w_of_triple,
)

WORKED_C = Triple((2, 3, 5, 8), (8, 6, 6, 2), (6, 5, 2, 2), "C")
WORKED_C_W = "1 -9 -8 -4 10 -5 -3 -7 -6 -2"
WORKED_A = Triple((2, 6, 8), (7, 4, 2), (5, 7, 9), "A")
WORKED_A_W = "1 10 8 9 2 3 6 4 5 7"


class TestValueSemantics:
    """Triple is a value: equal, hashed and copied as (k, p, q, wtype)."""

    TRIPLES = [
        WORKED_A,
        WORKED_C,
        Triple((1, 2, 3), (2, 1, 0), (2, 1, 0), "D"),
        Triple((), (), (), "C"),
    ]

    def test_hash_is_the_tuple_hash(self):
        for t in self.TRIPLES + list(enumerate_triples("D", 3, allow_redundant=True)):
            assert hash(t) == hash((t.k, t.p, t.q, t.wtype))

    def test_equal_triples_dedupe(self):
        same = {Triple([2, 3], [4, 1], [3, 1], "C"), Triple((2, 3), (4, 1), (3, 1), "C")}
        assert len(same) == 1
        assert Triple((1,), (1,), (1,), "C") != Triple((1,), (1,), (1,), "D")

    def test_never_equal_to_a_tuple(self):
        for t in self.TRIPLES:
            key = (t.k, t.p, t.q, t.wtype)
            assert t != key and key != t
            assert len({t, key}) == 2

    def test_immutable(self):
        t = Triple((1,), (2,), (2,), "C")
        for name in ("k", "p", "q", "wtype", "s", "extra"):
            with pytest.raises(AttributeError):
                setattr(t, name, (3,))
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert t == Triple((1,), (2,), (2,), "C")
        assert not hasattr(t, "__dict__")

    def test_copies_are_equal(self):
        for t in self.TRIPLES:
            assert copy.copy(t) == t and copy.deepcopy(t) == t
            assert pickle.loads(pickle.dumps(t)) == t

    def test_repr(self):
        assert repr(WORKED_A) == "k=2,6,8;p=7,4,2;q=5,7,9;type=A"
        assert repr(WORKED_C) == "k=2,3,5,8;p=8,6,6,2;q=6,5,2,2;type=C"
        assert repr(self.TRIPLES[2]) == "k=1,2,3;p=2,1,0;q=2,1,0;type=D"
        assert str(WORKED_C) == repr(WORKED_C)


class TestValidate:
    def test_worked_examples_strict(self):
        assert validate(WORKED_C) == "strict"
        assert validate(WORKED_A) == "strict"

    def test_b_is_c(self):
        b = Triple((1, 3), (4, 2), (3, 1), "B")
        assert b.wtype == "C"
        assert b == Triple((1, 3), (4, 2), (3, 1), "C")
        assert hash(b) == hash(Triple((1, 3), (4, 2), (3, 1), "C"))

    def test_invalid(self):
        assert validate(Triple((2, 1), (2, 1), (2, 1), "C")) == "invalid"
        assert validate(Triple((1, 2), (1, 2), (2, 1), "C")) == "invalid"
        # zero entries are fine in D, not in C
        assert validate(Triple((1,), (0,), (1,), "C")) == "invalid"
        assert validate(Triple((1,), (0,), (1,), "D")) == "strict"

    def test_redundant_c(self):
        # equality in the gap condition
        t = Triple((1, 2), (2, 2), (2, 1), "C")
        assert validate(t) == "redundant"

    def test_redundant_a_example(self):
        t = Triple(
            tuple(range(1, 9)),
            (7, 7, 6, 6, 5, 4, 3, 2),
            (4, 5, 6, 7, 7, 7, 9, 9),
            "A",
        )
        assert validate(t) == "redundant"
        assert reduce_redundant(t) == WORKED_A
        assert w_of_triple(t) == w_of_triple(WORKED_A)


class TestLambda:
    def test_worked_c(self):
        assert lambda_of(WORKED_C) == (14, 13, 10, 8, 7, 5, 4, 3)

    def test_worked_a(self):
        assert type_a_l(WORKED_A) == (4, 3, 1)
        assert lambda_of(WORKED_A) == (4, 4, 3, 3, 3, 3, 1, 1)

    def test_top_c(self):
        n = 3
        top = Triple((1, 2, 3), (3, 2, 1), (3, 2, 1), "C")
        assert lambda_of(top) == (5, 3, 1)

    def test_top_d(self):
        even = Triple((1, 2, 3), (2, 1, 0), (2, 1, 0), "D")
        assert lambda_of(even) == (4, 2, 0)
        odd = Triple((1, 2), (2, 1), (2, 1), "D")
        assert lambda_of(odd) == (4, 2)


class TestInsertion:
    def test_worked_c(self):
        assert w_of_triple(WORKED_C) == SignedPermutation.parse(WORKED_C_W)

    def test_worked_a(self):
        assert w_of_triple(WORKED_A) == SignedPermutation.parse(WORKED_A_W)

    def test_top_c_is_longest(self):
        for n in (2, 3, 4):
            top = Triple(
                range(1, n + 1), range(n, 0, -1), range(n, 0, -1), "C"
            )
            assert w_of_triple(top) == SignedPermutation(
                -i for i in range(1, n + 1)
            )

    def test_top_d_pair(self):
        n = 4
        odd_bars = Triple(
            range(1, n), range(n - 1, 0, -1), range(n - 1, 0, -1), "D"
        )
        w = w_of_triple(odd_bars)
        assert w == SignedPermutation([1] + [-i for i in range(2, n + 1)])
        even_bars = Triple(
            range(1, n + 1), range(n - 1, -1, -1), range(n - 1, -1, -1), "D"
        )
        assert w_of_triple(even_bars) == SignedPermutation(
            -i for i in range(1, n + 1)
        )

    def test_degree_matches_length(self):
        for t in enumerate_triples("C", 3):
            w = w_of_triple(t)
            assert length(w, "C") == sum(lambda_of(t))
        for t in enumerate_triples("D", 3):
            w = w_of_triple(t)
            assert length(w, "D") == sum(lambda_of(t))

    def test_invalid_raises(self):
        with pytest.raises(InvalidTriple):
            w_of_triple(Triple((2, 1), (1, 1), (1, 1), "C"))

    @pytest.mark.parametrize("t,a", [(WORKED_C, 0), (WORKED_A, 1)], ids=["C", "A"])
    def test_rank_check_refuses_a_wrong_insertion(self, monkeypatch, t, a):
        # an insertion that returns a signed permutation, but the wrong one:
        # the values at positions a + 1 and a + 2 swapped, across the last
        # step's p, so its rank drops by one
        right = triples._insert

        def swapped(steps):
            values = right(steps)
            return values[:a] + (values[a + 1], values[a]) + values[a + 2:]

        assert SignedPermutation(swapped(triples._steps(t))) != w_of_triple(t)
        monkeypatch.setattr(triples, "_insert", swapped)
        with pytest.raises(AssertionError, match="broke the rank condition"):
            w_of_triple(t)

    def test_type_d_rank_conditions(self):
        # type D's conditions written out, not through plus_map:
        # #{a > p_i : w(a) < -q_i} = k_i at every step, redundant triples included
        triples_d = list(enumerate_triples("D", 4, allow_redundant=True))
        assert any(validate(t) == "redundant" for t in triples_d)
        for t in triples_d:
            w = w_of_triple(t)
            for k, p, q in zip(t.k, t.p, t.q):
                assert sum(1 for a in range(p + 1, w.n + 1) if w(a) < -q) == k, t


class TestReconstruction:
    def test_worked_c_roundtrip(self):
        w = SignedPermutation.parse(WORKED_C_W)
        assert triple_of_w(w, "C") == WORKED_C

    def test_worked_a_roundtrip(self):
        w = SignedPermutation.parse(WORKED_A_W)
        assert triple_of_w(w, "A") == WORKED_A

    def test_identity(self):
        w = SignedPermutation.identity(3)
        for wtype in ("A", "C", "D"):
            t = triple_of_w(w, wtype)
            assert t.s == 0

    def test_nonvexillary_witness(self):
        assert triple_of_w(SignedPermutation.parse("-3 2 -1"), "C") is None

    def test_2143_not_vexillary(self):
        assert triple_of_w(SignedPermutation.parse("2 1 4 3"), "A") is None

    def test_type_a_wants_unsigned(self):
        with pytest.raises(WrongType):
            triple_of_w(SignedPermutation.parse("-1 2"), "A")

    @pytest.mark.parametrize("wtype,n", [("C", 3), ("D", 3), ("A", 3)])
    def test_roundtrip_all_enumerated(self, wtype, n):
        seen = {}
        for t in enumerate_triples(wtype, n):
            w = w_of_triple(t)
            key = repr(w.embed(w.n + 1))
            # uniqueness: distinct strict triples give distinct elements
            assert key not in seen or seen[key] == t
            seen[key] = t
            assert triple_of_w(w, wtype) == t

    def test_census_counts(self):
        vex_c = sum(
            1 for w in all_elements(3, "C") if triple_of_w(w, "C") is not None
        )
        assert vex_c == 33
        vex_d = sum(
            1 for w in all_elements(3, "D") if triple_of_w(w, "D") is not None
        )
        assert vex_d == 18

    def test_vexillary_closed_under_inverse(self):
        for w in all_elements(3, "C"):
            a = triple_of_w(w, "C") is not None
            b = triple_of_w(w.inverse(), "C") is not None
            assert a == b


def _exhaustive_index(wtype, n):
    """The reference detector: every strict triple with entries <= n,
    indexed by the W_n element it inserts to."""
    index = {}
    for t in enumerate_triples(wtype, n):
        w = w_of_triple(t)
        if w.n <= n:
            index[w.embed(n)] = t
    index[SignedPermutation.identity(n)] = Triple((), (), (), wtype)
    return index


def _avoids_2143(values):
    return not any(
        values[j] < values[i] < values[l] < values[k]
        for i, j, k, l in itertools.combinations(range(len(values)), 4)
    )


def _rank_oracle(w, p, q):
    """r(p, q) = #{a >= p : w(a) <= -q}, counted through w(a)."""
    return sum(1 for a in range(p, w.n + 1) if w(a) <= -q)


def _corners_c_oracle(w):
    """The corners of the type-C rank function, cell by cell through
    w(a) and the rank, as detection first read them."""
    at = {-v: a for a, v in enumerate(w.values, start=1) if v < 0}
    return [
        (_rank_oracle(w, p, q), p, q)
        for p in range(1, w.n + 1)
        for q in range(1, w.n + 1)
        if w(p) <= -q
        and at.get(q, 0) >= p
        and (p == 1 or w(p - 1) > -q)
        and (q == 1 or at.get(q - 1, 0) < p)
    ]


def _corners_a_oracle(w):
    """The corners of r(p, q) = #{a > p : w(a) <= q}, cell by cell, with
    the corners k = max(0, q - p) left out."""
    at = {v: a for a, v in enumerate(w.values, start=1)}
    n = w.n
    corners = [
        (sum(1 for a in range(p + 1, n + 1) if w(a) <= q), p, q)
        for p in range(n)
        for q in range(1, n + 1)
        if w(p + 1) <= q
        and at[q] > p
        and (p == 0 or w(p) > q)
        and (q == n or at[q + 1] <= p)
    ]
    return [(k, p, q) for k, p, q in corners if k > max(0, q - p)]


class TestDirectDetection:
    @pytest.mark.parametrize(
        "wtype,n", [("C", n) for n in range(1, 6)]
        + [("D", n) for n in range(2, 6)]
        + [("A", n) for n in range(1, 6)],
    )
    def test_matches_exhaustive_search(self, wtype, n):
        index = _exhaustive_index(wtype, n)
        for w in all_elements(n, wtype):
            assert triple_of_w(w, wtype) == index.get(w), str(w)

    @pytest.mark.parametrize(
        "wtype,n", [("C", n) for n in range(1, 6)] + [("A", n) for n in range(1, 7)]
    )
    def test_corners_match_cell_by_cell(self, wtype, n):
        # the corner steps, mapped back to each type's own coordinates and
        # sorted, as detection sorts them (type C's q loop runs from -q = w(p)
        # up, so its corners come in the reverse order of q)
        oracle = {"C": _corners_c_oracle, "A": _corners_a_oracle}[wtype]
        back = (lambda k, p, q: (k, p, q)) if wtype == "A" else (lambda k, p, q: (k, p + 1, -q))
        for w in all_elements(n, wtype):
            got = [back(*step) for step in triples._corners(w.values, wtype)]
            assert sorted(got) == sorted(oracle(w)), str(w)

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_fixed_points_past_the_window(self, wtype):
        # detection compares the insertion with w.values padded by fixed
        # points, so embedding w changes nothing
        for w in all_elements(4, wtype):
            assert triple_of_w(w.embed(6), wtype) == triple_of_w(w, wtype), str(w)

    def test_type_a_is_2143_avoidance(self):
        counts = []
        for n in range(1, 8):
            vex = 0
            for w in all_elements(n, "A"):
                found = triple_of_w(w, "A") is not None
                assert found == _avoids_2143(w.values), str(w)
                vex += found
            counts.append(vex)
        assert counts == [1, 2, 6, 23, 103, 513, 2761]

    def test_never_enumerates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("detection enumerated triples")

        monkeypatch.setattr(triples, "enumerate_triples", refuse)
        for wtype, n in (("C", 4), ("D", 4), ("A", 5)):
            for w in all_elements(n, wtype):
                triple_of_w(w, wtype)


def dual(t: Triple) -> Triple:
    """The dual of a strict type-A triple: (reversed l, reversed q, reversed p)."""
    return Triple(tuple(reversed(type_a_l(t))), tuple(reversed(t.q)), tuple(reversed(t.p)), "A")


class TestDualAndShift:
    def test_dual_example(self):
        d = dual(WORKED_A)
        assert d == Triple((1, 3, 4), (9, 7, 5), (2, 4, 7), "A")

    def test_dual_inverse_and_conjugate(self):
        for t in enumerate_triples("A", 3):
            d = dual(t)
            assert validate(d) == "strict"
            assert dual(d) == t
            assert w_of_triple(d) == w_of_triple(t).inverse()
            assert lambda_of(d) == _conjugate(lambda_of(t))

    def test_plus_map(self):
        for t in enumerate_triples("D", 3):
            tc = plus_map(t)
            assert validate(tc) == "strict"
            assert minus_map(tc) == t
            assert w_of_triple(tc) == w_of_triple(t)
            lam_d, lam_c = lambda_of(t), lambda_of(tc)
            assert lam_c == tuple(x + 1 for x in lam_d)


def _conjugate(lam):
    if not lam:
        return ()
    return tuple(
        sum(1 for x in lam if x >= j) for j in range(1, lam[0] + 1)
    )


@st.composite
def random_triples(draw):
    """Triples of every type with entries up to 10, beyond the range the
    exhaustive tests reach; strict or redundant, or None if invalid."""
    wtype = draw(st.sampled_from("ACD"))
    low = 0 if wtype == "D" else 1
    s = draw(st.integers(min_value=1, max_value=4))
    k = sorted(draw(st.sets(st.integers(1, 10), min_size=s, max_size=s)))
    entries = st.lists(st.integers(low, 10), min_size=s, max_size=s)
    p = sorted(draw(entries), reverse=True)
    q = sorted(draw(entries), reverse=(wtype != "A"))
    t = Triple(k, p, q, wtype)
    return None if validate(t) == "invalid" else t


@settings(max_examples=150, deadline=None)
@given(random_triples())
def test_random_strict_triples_roundtrip(t):
    if t is None:
        return
    w = w_of_triple(t)
    assert triple_of_w(w, t.wtype) == reduce_redundant(t)


def _gaps_oracle(t):
    """The slack between consecutive steps, type by type:
    (p_i - p_{i+1}) + (q_i - q_{i+1}) - (k_{i+1} - k_i) in types C and D,
    and l_i - l_{i+1}, the same with q's difference negated, in type A."""
    sign = -1 if t.wtype == "A" else 1
    k, p, q = t.k, t.p, t.q
    return [
        p[i] - p[i + 1] + sign * (q[i] - q[i + 1]) - (k[i + 1] - k[i])
        for i in range(len(k) - 1)
    ]


def _validate_oracle(t):
    """The classification written type by type, in each type's own
    coordinates: p weakly decreasing, q weakly decreasing in C and D and
    weakly increasing in A, and entries >= 0 in D (through plus_map)."""
    if t.wtype == "D":
        return _validate_oracle(plus_map(t))
    k, p, q = t.k, t.p, t.q
    if len(k) == 0:
        return "strict"
    if not all(a < b for a, b in zip(k, k[1:])) or k[0] < 1 or any(x < 1 for x in p + q):
        return "invalid"
    if not all(a >= b for a, b in zip(p, p[1:])):
        return "invalid"
    if t.wtype == "A":
        if not all(a <= b for a, b in zip(q, q[1:])):
            return "invalid"
        if any(ki > qi for ki, qi in zip(k, q)) or p[-1] - q[-1] + k[-1] < 1:
            return "invalid"
    elif not all(a >= b for a, b in zip(q, q[1:])):
        return "invalid"
    gaps = _gaps_oracle(t)
    if all(g > 0 for g in gaps):
        return "strict"
    return "redundant" if all(g >= 0 for g in gaps) else "invalid"


def _reduce_oracle(t):
    """Drop the first step with zero slack until none is left."""
    while _validate_oracle(t) == "redundant":
        drop = _gaps_oracle(t).index(0)
        keep = [i for i in range(t.s) if i != drop]
        t = Triple([t.k[i] for i in keep], [t.p[i] for i in keep], [t.q[i] for i in keep], t.wtype)
    return t


def _lambda_oracle(t):
    """lambda of a strict triple, type by type."""
    out = []
    for k, i in enumerate(triples.column_steps(t), start=1):
        if t.wtype == "A":
            out.append(t.p[i] - t.q[i] + t.k[i])
        elif t.wtype == "C":
            out.append(t.p[i] + t.q[i] - 1 + t.k[i] - k)
        else:
            out.append(t.p[i] + t.q[i] + t.k[i] - k)
    return tuple(out)


class TestSignedLine:
    """Type C read as type A at (p - 1, -q): the one slack rule and the
    one rank against the rules written in each type's own coordinates."""

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_slack_rule_matches_the_typewise_rules(self, wtype):
        # every (k, p, q) with s <= 3 and entries 0..3, invalid ones included
        counts = {"strict": 0, "redundant": 0, "invalid": 0}
        for s in range(4):
            rows = list(itertools.product(range(4), repeat=s))
            for k, p, q in itertools.product(rows, repeat=3):
                t = Triple(k, p, q, wtype)
                status = validate(t)
                assert status == _validate_oracle(t), repr(t)
                counts[status] += 1
                if status == "strict":
                    assert lambda_of(t) == _lambda_oracle(t), repr(t)
                if status != "invalid":
                    assert reduce_redundant(t) == _reduce_oracle(t), repr(t)
        assert sum(counts.values()) == 1 + 4**3 + 4**6 + 4**9
        assert all(counts.values())

    def test_rank_is_type_a_on_the_signed_line(self):
        for n in range(1, 6):
            for w in all_elements(n, "C"):
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        assert triples._rank(w.values, p - 1, -q) == _rank_oracle(w, p, q), (str(w), p, q)
