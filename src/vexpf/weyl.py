"""Signed permutations and the Weyl groups of types B/C and D.

A signed permutation is stored in one-line notation as a tuple of
nonzero integers whose absolute values are a permutation of 1..n; a
negative entry is a "barred" value.  Types B and C share the same group
(they differ only in downstream scaling conventions); type D restricts
generator words to {s_1hat, s_1, ..., s_{n-1}} but we keep full signed
permutations and track the parity of barred entries, since the odd
coset is needed too.

Generator encoding: for types B/C the index 0 means s_0 (negate the
first entry); for type D the index 0 means s_1hat (swap and negate the
first two entries); positive i means the adjacent transposition s_i.
"""

from __future__ import annotations

import itertools


class SizeMismatch(ValueError):
    pass


class SignedPermutation:
    """A signed permutation.  The constructor and `parse` check values
    from outside the program; everything the program builds is one by
    construction, so it builds through `_of`, which checks nothing."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        if sorted(abs(v) for v in values) != list(range(1, len(values) + 1)):
            raise ValueError(f"not a signed permutation: {values}")
        self.values = values

    @staticmethod
    def _of(values: tuple) -> "SignedPermutation":
        w = object.__new__(SignedPermutation)
        w.values = values
        return w

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation._of(tuple(range(1, n + 1)))

    @staticmethod
    def parse(text: str) -> "SignedPermutation":
        """Parse one-line notation, e.g. "1 -9 -8 -4 10 -5 -3 -7 -6 -2"."""
        return SignedPermutation(int(tok) for tok in text.split())

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, a: int) -> int:
        """Value at a, extended by w(a) = a beyond the stored window
        and by w(-a) = -w(a)."""
        if a < 0:
            return -self(-a)
        if a == 0:
            raise ValueError("positions are nonzero")
        if a > len(self.values):
            return a
        return self.values[a - 1]

    def __eq__(self, other):
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return " ".join(str(v) for v in self.values)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """(w * v)(i) = w(v(i))."""
        if self.n != other.n:
            raise SizeMismatch(f"{self.n} vs {other.n}")
        return SignedPermutation._of(tuple([self(v) for v in other.values]))

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n
        for a, v in enumerate(self.values, start=1):
            if v > 0:
                out[v - 1] = a
            else:
                out[-v - 1] = -a
        return SignedPermutation._of(tuple(out))

    def embed(self, m: int) -> "SignedPermutation":
        if m < self.n:
            raise SizeMismatch(f"cannot shrink W_{self.n} element to W_{m}")
        return SignedPermutation._of(self.values + tuple(range(self.n + 1, m + 1)))

    def num_barred(self) -> int:
        return sum(1 for v in self.values if v < 0)

    def is_unsigned(self) -> bool:
        return all(v > 0 for v in self.values)

    def right_gen(self, i: int, wtype: str) -> "SignedPermutation":
        """Multiply on the right by a generator (acts on positions)."""
        vals = list(self.values)
        if i == 0:
            if wtype == "D":
                if self.n < 2:
                    raise SizeMismatch("s_1hat needs n >= 2")
                vals[0], vals[1] = -vals[1], -vals[0]
            elif wtype in ("B", "C"):
                vals[0] = -vals[0]
            else:
                raise ValueError("generator 0 undefined in type A")
        else:
            if i >= self.n:
                raise SizeMismatch(f"s_{i} needs n > {i}")
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        return SignedPermutation._of(tuple(vals))


def length(w: SignedPermutation, wtype: str) -> int:
    """Coxeter length, by the closed inversion-count formulas."""
    vals = w.values
    inv = sum(
        1
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
        if vals[i] > vals[j]
    )
    if wtype == "A":
        if not w.is_unsigned():
            raise ValueError("type A wants an unsigned permutation")
        return inv
    if wtype in ("B", "C"):
        return inv + sum(-v for v in vals if v < 0)
    if wtype == "D":
        return inv + sum(-v - 1 for v in vals if v < 0)
    raise ValueError(f"unknown type {wtype}")


def generators(n: int, wtype: str):
    if wtype == "A":
        return list(range(1, n))
    return list(range(0, n))


def descents(w: SignedPermutation, wtype: str):
    """Right descent set: generators g with length(w * s_g) < length(w),
    read off the one-line notation in O(1) per generator (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, 8.1-8.2): i >= 1 is a descent when
    w(i) > w(i+1); generator 0 when w(1) < 0 in types B and C, and when
    w(1) + w(2) < 0 in type D.  The rule holds on both type-D cosets."""
    if wtype == "A":
        if not w.is_unsigned():
            raise ValueError("type A wants an unsigned permutation")
    elif wtype not in ("B", "C", "D"):
        raise ValueError(f"unknown type {wtype}")
    if wtype == "D" and w.n == 1:
        raise SizeMismatch("s_1hat needs n >= 2")
    vals = w.values
    out = [i for i in range(1, len(vals)) if vals[i - 1] > vals[i]]
    if wtype != "A" and (w(1) + w(2) if wtype == "D" else w(1)) < 0:
        out.insert(0, 0)
    return out


def first_ascent(w: SignedPermutation, wtype: str, zero_last: bool = False):
    """The first generator of `generators` (with zero_last, of 1..n-1
    then 0) that is not in `descents(w)`, by the same rule in one scan;
    None only at the top of w's coset, either type-D coset included."""
    vals = w.values
    zero = wtype != "A" and vals != () and (vals[0] + vals[1] if wtype == "D" else vals[0]) > 0
    if zero and not zero_last:
        return 0
    for i in range(1, len(vals)):
        if vals[i - 1] < vals[i]:
            return i
    return 0 if zero else None


def reduced_word(w: SignedPermutation, wtype: str):
    """A reduced word [i_1, ..., i_l] with s_{i_1} ... s_{i_l} = w,
    chosen deterministically (smallest available descent, peeled from
    the right)."""
    word = []
    while True:
        ds = descents(w, wtype)
        if not ds:
            break
        g = ds[0]
        w = w.right_gen(g, wtype)
        word.append(g)
    word.reverse()
    return word


def longest_element(n: int, wtype: str) -> SignedPermutation:
    if wtype in ("B", "C"):
        return SignedPermutation._of(tuple(range(-1, -n - 1, -1)))
    if wtype == "A":
        return SignedPermutation._of(tuple(range(n, 0, -1)))
    if wtype == "D":
        if n < 2:
            raise ValueError("type D wants n >= 2")
        if n % 2 == 0:
            return SignedPermutation._of(tuple(range(-1, -n - 1, -1)))
        # -identity has an odd number of bars when n is odd; keep the
        # first value positive instead
        return SignedPermutation._of((1,) + tuple(range(-2, -n - 1, -1)))
    raise ValueError(f"unknown type {wtype}")


def all_elements(n: int, wtype: str):
    """All elements of W_n (for D: the even-coset group of order 2^{n-1} n!)."""
    if wtype == "A":
        for perm in itertools.permutations(range(1, n + 1)):
            yield SignedPermutation._of(perm)
        return
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if wtype == "D" and signs.count(-1) % 2 != 0:
                continue
            yield SignedPermutation._of(tuple(s * v for s, v in zip(signs, perm)))
