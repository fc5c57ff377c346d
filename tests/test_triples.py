import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vexpf import triples
from vexpf.weyl import SignedPermutation, all_elements, length
from vexpf.triples import (
    InvalidTriple,
    Triple,
    WrongType,
    dual,
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


class TestValidate:
    def test_worked_examples_strict(self):
        assert validate(WORKED_C) == "strict"
        assert validate(WORKED_A) == "strict"

    def test_parse_repr(self):
        t = Triple.parse("k=2,3,5,8;p=8,6,6,2;q=6,5,2,2;type=C")
        assert t == WORKED_C
        assert Triple.parse(repr(t)) == t

    def test_b_is_c(self):
        assert Triple((1,), (2,), (2,), "B").wtype == "C"

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


class TestDirectDetection:
    @pytest.mark.parametrize(
        "wtype,n", [("C", n) for n in range(1, 6)]
        + [("D", n) for n in range(2, 5)]
        + [("A", n) for n in range(1, 6)],
    )
    def test_matches_exhaustive_search(self, wtype, n):
        index = _exhaustive_index(wtype, n)
        for w in all_elements(n, wtype):
            assert triple_of_w(w, wtype) == index.get(w), str(w)

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
