import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vexpf.weyl import (
    SignedPermutation,
    SizeMismatch,
    all_elements,
    descents,
    first_ascent,
    generators,
    length,
    longest_element,
    reduced_word,
)
from vexpf.triples import enumerate_triples, w_of_triple


def rank(w, p, q):
    """The rank function r(p, q) = #{a >= p : w(a) <= -q}; detection
    counts it on the one-line tuple as `triples._rank(w.values, p - 1, -q)`."""
    return sum(1 for a, v in enumerate(w.values, start=1) if a >= p and v <= -q)


def from_word(word, n: int, wtype: str) -> SignedPermutation:
    """The product s_{i_1} ... s_{i_l} of a word, built from the identity."""
    w = SignedPermutation.identity(n)
    for g in word:
        w = w.right_gen(g, wtype)
    return w


class TestBasics:
    def test_parse_repr_roundtrip(self):
        text = "1 -9 -8 -4 10 -5 -3 -7 -6 -2"
        w = SignedPermutation.parse(text)
        assert repr(w) == text
        assert w.num_barred() == 8

    def test_call_extension(self):
        w = SignedPermutation([-2, 1, 3])
        assert w(1) == -2
        assert w(-1) == 2
        assert w(7) == 7

    def test_inverse(self):
        w = SignedPermutation.parse("-3 2 -1")
        assert w * w.inverse() == SignedPermutation.identity(3)
        assert w.inverse() * w == SignedPermutation.identity(3)

    @pytest.mark.parametrize("values", [(1, 1), (0,), (2,), (1, 3), (1, -1), (2, -2, 3)])
    def test_invalid_tuples_raise(self, values):
        with pytest.raises(ValueError, match="not a signed permutation"):
            SignedPermutation(values)
        with pytest.raises(ValueError, match="not a signed permutation"):
            SignedPermutation.parse(" ".join(map(str, values)))

    def test_all_elements_are_valid(self):
        for wtype in ("A", "B", "C", "D"):
            for n in range(5):
                assert all(_passes_the_public_check(w) for w in all_elements(n, wtype))

    def test_mul_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            SignedPermutation.identity(2) * SignedPermutation.identity(3)

    def test_rank_example(self):
        w = SignedPermutation.parse("1 -9 -8 -4 10 -5 -3 -7 -6 -2")
        assert rank(w, 8, 6) == 2
        assert rank(w, 2, 2) == 8
        assert rank(w, 6, 5) == 3
        assert rank(w, 6, 2) == 5


class TestLength:
    def test_known_values(self):
        assert length(SignedPermutation.parse("-3 2 -1"), "C") == 5
        assert length(SignedPermutation.identity(3), "C") == 0
        assert length(SignedPermutation.parse("-1 2"), "B") == 1
        assert length(SignedPermutation.parse("-1 -2"), "D") == 2
        assert length(SignedPermutation.parse("1 -2"), "D") == 2

    @pytest.mark.parametrize("wtype", ["B", "C", "D"])
    def test_exchange_property(self, wtype):
        for w in all_elements(3, wtype):
            lw = length(w, wtype)
            for g in generators(3, wtype):
                ws = w.right_gen(g, wtype)
                assert abs(length(ws, wtype) - lw) == 1

    def test_exchange_property_d_odd_coset(self):
        # the length formula is also used on signed permutations with an
        # odd number of bars; generators still move it by exactly 1
        for w in all_elements(3, "C"):
            if w.num_barred() % 2 == 0:
                continue
            lw = length(w, "D")
            for g in generators(3, "D"):
                ws = w.right_gen(g, "D")
                assert abs(length(ws, "D") - lw) == 1

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_reduced_word_length(self, wtype):
        for w in all_elements(3, wtype):
            word = reduced_word(w, wtype)
            assert len(word) == length(w, wtype)
            assert from_word(word, 3, wtype) == w

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    def test_stability_under_embedding(self, wtype):
        for w in all_elements(3, wtype):
            w4 = w.embed(4)
            assert length(w4, wtype) == length(w, wtype)
            for p in range(1, 4):
                for q in range(1, 4):
                    assert rank(w4, p, q) == rank(w, p, q)


class TestCensusAndLongest:
    def test_group_orders(self):
        assert sum(1 for _ in all_elements(3, "B")) == 48
        assert sum(1 for _ in all_elements(3, "C")) == 48
        assert sum(1 for _ in all_elements(3, "D")) == 24
        assert sum(1 for _ in all_elements(3, "A")) == 6

    @pytest.mark.parametrize("wtype", ["A", "C", "D"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_longest_element_is_longest(self, wtype, n):
        w0 = longest_element(n, wtype)
        l0 = length(w0, wtype)
        for w in all_elements(n, wtype):
            assert length(w, wtype) <= l0
            if length(w, wtype) == l0:
                assert w == w0

    def test_longest_c2_word(self):
        w0 = longest_element(2, "C")
        word = reduced_word(w0, "C")
        assert len(word) == 4

    def test_longest_d3(self):
        assert longest_element(3, "D") == SignedPermutation.parse("1 -2 -3")

    @pytest.mark.parametrize("n, group, wtype", [
        (5, "A", "A"), (4, "B", "B"), (4, "C", "C"),
        # all of W_4 in type C: both cosets of type D
        (4, "C", "D"),
    ])
    def test_descents_match_length(self, n, group, wtype):
        count = 0
        for w in all_elements(n, group):
            lw = length(w, wtype)
            want = [g for g in generators(n, wtype) if length(w.right_gen(g, wtype), wtype) < lw]
            assert descents(w, wtype) == want, w
            count += 1
        assert count == {"A": 120, "B": 384, "C": 384}[group]

    def test_no_descents_only_identity(self):
        for wtype in ("A", "C", "D"):
            for w in all_elements(3, wtype):
                if not descents(w, wtype):
                    assert length(w, wtype) == 0


class TestFirstAscent:
    @pytest.mark.parametrize("zero_last", [False, True])
    @pytest.mark.parametrize("group, wtype", [
        ("A", "A"), ("B", "B"), ("C", "C"),
        # all of W_n in type C: both cosets of type D
        ("C", "D"),
    ])
    def test_first_generator_not_a_descent(self, group, wtype, zero_last):
        for n in range(2 if wtype == "D" else 0, 6):
            order = generators(n, wtype)
            if zero_last and wtype != "A":
                order = order[1:] + order[:1]
            tops = []
            for w in all_elements(n, group):
                down = descents(w, wtype)
                want = next((g for g in order if g not in down), None)
                assert first_ascent(w, wtype, zero_last) == want, w
                if want is None:
                    tops.append(w)
            w0 = longest_element(n, wtype)
            want_tops = [w0]
            if wtype == "D":
                # the top of the odd coset: w0 with its first entry's bar flipped
                want_tops.append(SignedPermutation((-w0.values[0],) + w0.values[1:]))
            assert sorted(tops, key=lambda w: w.values) == sorted(want_tops, key=lambda w: w.values)

    def test_a_one_entry_type_d_word_is_a_size_mismatch(self):
        # s_1hat needs two entries, as in `descents`
        w = SignedPermutation((-1,))
        for zero_last in (False, True):
            with pytest.raises(SizeMismatch, match="s_1hat needs n >= 2"):
                first_ascent(w, "D", zero_last)
        with pytest.raises(SizeMismatch, match="s_1hat needs n >= 2"):
            descents(w, "D")


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 5))), st.lists(st.booleans(), min_size=4, max_size=4))
def test_length_additivity_with_inverse(perm, bars):
    vals = [-v if b else v for v, b in zip(perm, bars)]
    w = SignedPermutation(vals)
    for wtype in ("B", "C"):
        assert length(w, wtype) == length(w.inverse(), wtype)


def _passes_the_public_check(w) -> bool:
    return type(w.values) is tuple and SignedPermutation(w.values) == w


def test_the_program_builds_without_the_check(monkeypatch):
    # the constructor checks values from outside; what all_elements and the
    # insertion build is a signed permutation by construction, so they skip
    # the check and this test makes it instead
    calls = []
    check = SignedPermutation.__init__
    monkeypatch.setattr(SignedPermutation, "__init__", lambda w, values: calls.append(values) or check(w, values))
    built = [w for n in range(1, 5) for wtype in "BCD" for w in all_elements(n, wtype)]
    built += [w for n in range(1, 6) for w in all_elements(n, "A")]
    built += [w_of_triple(t) for wtype in "ACD" for n in (1, 2, 3) for t in enumerate_triples(wtype, n)]
    assert calls == []
    monkeypatch.undo()
    assert all(_passes_the_public_check(w) for w in built)


@st.composite
def signed_permutations(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    bars = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return SignedPermutation([-v if b else v for v, b in zip(perm, bars)])


@settings(max_examples=100, deadline=None)
@given(signed_permutations(), signed_permutations(), st.integers(0, 3))
def test_operations_build_valid_permutations(w, v, extra):
    # the operations skip the public check; every result must pass it
    n = w.n
    results = [w.inverse(), w.embed(n + extra), w * w.inverse(), SignedPermutation.identity(n)]
    if v.n == n:
        results.append(w * v)
    for wtype in ("A", "B", "C", "D"):
        if wtype == "A" and not w.is_unsigned():
            continue
        if wtype != "D" or n >= 2:
            results.append(longest_element(n, wtype))
            results.extend(w.right_gen(g, wtype) for g in generators(n, wtype))
    assert all(_passes_the_public_check(r) for r in results)
