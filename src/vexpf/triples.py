"""Triples (k, p, q) encoding vexillary (signed) permutations.

Three flavors share the shape "k strictly increasing, p/q monotone":

  type C (= B): p, q weakly decreasing, entries >= 1, and
      (p_i - p_{i+1}) + (q_i - q_{i+1}) > k_{i+1} - k_i;
  type D: the same with entries >= 0;
  type A: q weakly increasing with k_i <= q_i; internally we use
      l_i = p_i - q_i + k_i, and validity means l_1 > ... > l_s > 0
      with l_i <= p_i.

Replacing the strict inequalities by weak ones gives a *redundant*
triple, reducible without changing the associated permutation.

Type C is type A on the signed line: a type-C step (k; p; q) pins the
rank #{a >= p : w(a) <= -q}, which is type A's #{a > p' : w(a) <= q'} at
(p', q') = (p - 1, -q), and its gap condition is type A's
l_i > l_{i+1}.  Internally every step is read in these coordinates
(`_steps`; a type-D triple as the type-C triple plus_map(t)), so one
shape and slack rule (`_classify`), one insertion (`_insert`), one rank
and one corner reader (`_corners`) serve every type, and `Triple` keeps
the paper's coordinates.  Detection reads a type-D element's corners as
type C's and moves the triple by minus_map.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .weyl import SignedPermutation


class InvalidTriple(ValueError):
    pass


class WrongType(TypeError):
    pass


def _norm_type(wtype: str) -> str:
    if wtype in ("B", "C", "BC"):
        return "C"
    if wtype in ("A", "D"):
        return wtype
    raise ValueError(f"unknown triple type {wtype}")


class Triple:
    """An immutable triple (k, p, q) of type "A", "C" (covers B) or "D",
    equal and hashed as the tuple (k, p, q, wtype)."""

    __slots__ = ("k", "p", "q", "wtype")

    def __init__(self, k, p, q, wtype):
        _fill(self, tuple(k), tuple(p), tuple(q), _norm_type(wtype))

    def __setattr__(self, name, value):
        raise AttributeError(f"Triple is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Triple is immutable: cannot delete {name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.p, self.q, self.wtype) == (other.k, other.p, other.q, other.wtype)

    def __hash__(self):
        return hash((self.k, self.p, self.q, self.wtype))

    def __reduce__(self):
        return (Triple, (self.k, self.p, self.q, self.wtype))

    @property
    def s(self) -> int:
        return len(self.k)

    def __repr__(self):
        fmt = lambda xs: ",".join(map(str, xs))
        return f"k={fmt(self.k)};p={fmt(self.p)};q={fmt(self.q)};type={self.wtype}"


def _fill(t: Triple, k: tuple, p: tuple, q: tuple, wtype: str) -> Triple:
    """Set t's fields to tuples and a normalized type, with no copy and no
    check; detection builds its triples as _fill(object.__new__(Triple), ...)."""
    for name, value in zip(Triple.__slots__, (k, p, q, wtype)):
        object.__setattr__(t, name, value)
    return t


def validate(t: Triple) -> str:
    """Classify as "strict", "redundant", or "invalid"."""
    if t.wtype == "D":
        return validate(plus_map(t))
    k, p, q = t.k, t.p, t.q
    if not (len(k) == len(p) == len(q)):
        return "invalid"
    if k and (k[0] < 1 or min(p + q) < 1):
        return "invalid"
    # type A's own bounds: k_i <= q_i (l_i <= p_i) and l_s >= 1
    if t.wtype == "A" and k and (any(a > b for a, b in zip(k, q)) or type_a_l(t)[-1] < 1):
        return "invalid"
    return _classify(_steps(t))


def _steps(t: Triple) -> list:
    """The steps of t on the signed line: (k, p, q) in type A and
    (k, p - 1, -q) in type C; a type-D triple is read as plus_map(t)."""
    if t.wtype == "A":
        return list(zip(t.k, t.p, t.q))
    if t.wtype == "D":
        t = plus_map(t)
    return [(k, p - 1, -q) for k, p, q in zip(t.k, t.p, t.q)]


def _classify(steps: list) -> str:
    """"strict", "redundant" or "invalid" from the shape of the steps: k
    strictly increasing, p weakly decreasing, q weakly increasing, and
    every slack l_i - l_{i+1}, with l_i = p_i - q_i + k_i, positive
    (strict) or non-negative (redundant)."""
    status = "strict"
    for (k1, p1, q1), (k2, p2, q2) in zip(steps, steps[1:]):
        if k1 >= k2 or p1 < p2 or q1 > q2:
            return "invalid"
        gap = p1 - q1 + k1 - (p2 - q2 + k2)
        if gap < 0:
            return "invalid"
        if not gap:
            status = "redundant"
    return status


def type_a_l(t: Triple) -> tuple:
    if t.wtype != "A":
        raise WrongType("l-sequence is a type A notion")
    return tuple(pi - qi + ki for ki, pi, qi in zip(t.k, t.p, t.q))


def reduce_redundant(t: Triple) -> Triple:
    """Drop terms at which equality holds, leaving a strict triple with the
    same permutation."""
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    while status == "redundant":
        ls = [p - q + k for k, p, q in _steps(t)]
        drop = next(i for i in range(t.s - 1) if ls[i] == ls[i + 1])  # the first zero slack
        t = Triple(*([x for i, x in enumerate(xs) if i != drop] for xs in (t.k, t.p, t.q)), t.wtype)
        status = validate(t)
    return t


def column_steps(t: Triple) -> list:
    """For each column k = 1..k_s, the step governing it: the least i
    with k_i >= k, so step i governs the k_i - k_(i-1) columns after
    k_(i-1) (k_0 = 0).  Read in one pass over (k_(i-1), k_i), which
    assumes a valid triple, with k strictly increasing: `validate`
    guarantees it, and every caller passes one."""
    return [i for i, (a, b) in enumerate(zip((0,) + t.k, t.k)) for _ in range(b - a)]


def lambda_of(t: Triple) -> tuple:
    """The partition pinned by the triple, of length k_s: lambda_k = l_i in
    type A (weakly decreasing), l_i - k in type C (strict) and one less
    than type C's value at plus_map(t) in type D (strict, possibly ending
    in 0), with i the step governing column k.  A redundant triple is
    reduced first: reduction drops only steps whose columns carry the
    same pins."""
    t = reduce_redundant(t)
    ls = [p - q + k for k, p, q in _steps(t)]
    if t.wtype == "A":
        return tuple(ls[i] for i in column_steps(t))
    shift = 1 if t.wtype == "D" else 0
    return tuple(ls[i] - k - shift for k, i in enumerate(column_steps(t), start=1))


# ---------------------------------------------------------------------------
# triple -> permutation (the insertion algorithm)
# ---------------------------------------------------------------------------


def w_of_triple(t: Triple) -> SignedPermutation:
    """The permutation of a triple, inserted step by step on the signed
    line and checked against every step's rank."""
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    if status == "redundant":
        t = reduce_redundant(t)
    if t.s == 0:
        return SignedPermutation.identity(1)
    steps = _steps(t)
    values = _insert(steps)
    for k, p, q in steps:
        got = _rank(values, p, q)
        if got != k:
            raise AssertionError(
                f"insertion broke the rank condition for {t}: "
                f"expected {k} at the step (p={p}, q={q}), got {got}"
            )
    return SignedPermutation._of(values)


def _insert(steps: list) -> tuple:
    """The one-line tuple of a strict triple's steps.  At each step
    (k, p, q), take the largest values <= q whose absolute values are
    unused, and place them in increasing order in the free positions > p:
    barred values in type C, where q < 0.  The values left over fill the
    free positions unbarred, in increasing order."""
    # positions stay below p + k_s + 1 and absolute values below |q| + k_s + 1:
    # in strict steps p falls and q rises, so the ends hold the largest
    size = steps[-1][0] + max(steps[0][1], -steps[0][2], steps[-1][2]) + 1
    line = [0] * size  # line[a]: the value at position a, 0 while free
    used = [False] * size  # used[|v|]
    prev = 0
    for k, p, q in steps:
        vals = []
        for _ in range(k - prev):
            while used[abs(q)]:
                q -= 1
            used[abs(q)] = True
            vals.append(q)
            q -= 1
        prev = k
        for v in reversed(vals):
            p += 1
            while line[p]:
                p += 1
            line[p] = v
    n = size - 1
    while not (line[n] or used[n]):
        n -= 1
    v = 1
    for a in range(1, n + 1):
        if not line[a]:
            while used[v]:
                v += 1
            line[a] = v
            v += 1
    return tuple(line[1:n + 1])


def _rank(values: tuple, p: int, q: int) -> int:
    """The rank #{a > p : w(a) <= q} a step (k, p, q) pins to k, counted
    on a one-line tuple.  Positions past the tuple are fixed points and
    never count."""
    return sum(1 for v in values[p:] if v <= q)


# ---------------------------------------------------------------------------
# permutation -> triple
# ---------------------------------------------------------------------------


def triple_of_w(w: SignedPermutation, wtype: str):
    """The unique strict triple t with w_of_triple(t) = w, or None if w is
    not vexillary.  The candidate steps are read off the corners (the
    essential set) of w's rank function and round-trip checked: in the
    order `_corners` reads them they must be strict (a vexillary w's are),
    and their insertion must be w.values padded by fixed points, so a
    non-vexillary w never passes.  Every corner meets validate's bounds,
    so only the shape of the steps is checked.  Type D reads type C's
    steps and returns minus_map of type C's triple."""
    wtype = _norm_type(wtype)
    if wtype == "A" and not w.is_unsigned():
        raise WrongType("type A wants an unsigned permutation")
    values = w.values
    steps = _corners(values, wtype)
    if _classify(steps) != "strict" or not _same_element(_insert(steps) if steps else (), values):
        return None
    k, p, q = zip(*steps) if steps else ((), (), ())
    if wtype == "C":
        p, q = tuple([x + 1 for x in p]), tuple([-x for x in q])
    elif wtype == "D":  # minus_map of the type-C triple (k, p + 1, -q)
        q = tuple([-x - 1 for x in q])
    return _fill(object.__new__(Triple), k, p, q, wtype)


def _same_element(u: tuple, v: tuple) -> bool:
    """Whether two one-line tuples are the same element once the shorter
    is padded with fixed points."""
    if len(u) < len(v):
        u, v = v, u
    m = len(v)
    return u[:m] == v and u[m:] == tuple(range(m + 1, len(u) + 1))


def _corners(values: tuple, wtype: str):
    """The steps (k, p, q) at the corners of r(p, q) = #{a > p : w(a) <= q}:
    r drops from (p, q) to (p + 1, q) (w(p + 1) <= q) and to (p, q - 1)
    (q sits after p), and is the same at (p - 1, q) (w(p) > q) and at
    (p, q + 1) (q + 1 sits at or before p, or is no value of w).  Types C
    and D read only q < 0.  The corners with k = max(0, q - p), which
    every permutation has, are left out (k >= 1 at every corner); a
    type-C corner is never one.  Row p keeps the values after p sorted,
    and k is q's place among them.  Rows run from the last, and q up, the
    order of a strict triple's steps: a vexillary w's come sorted by k."""
    n = len(values)
    cap = n + 1 if wtype == "A" else 0
    corners = []
    after = [n + 2]  # values[p:], sorted, and a bound above every q
    for p in range(n - 1, -1, -1):
        q = values[p]
        j = bisect_left(after, q)
        after.insert(j, q)
        top = values[p - 1] if p else n + 1  # w(p); at p = 0 no q is refused
        if top > cap:
            top = cap
        while q < top:
            j += 1  # r(p, q)
            if after[j] != q + 1 and j > q - p:
                corners.append((j, p, q))
            q = after[j]
    return corners


def enumerate_triples(wtype: str, n: int, allow_redundant: bool = False):
    """All strict triples with k_s <= n and p, q entries <= n."""
    wtype = _norm_type(wtype)
    low = 0 if wtype == "D" else 1
    for s in range(1, n + 1):
        for k in itertools.combinations(range(1, n + 1), s):
            if wtype == "A":
                p_seqs = _monotone(range(n, 0, -1), s)
                q_seqs = _monotone(range(1, n + 1), s)
            else:
                p_seqs = _monotone(range(n, low - 1, -1), s)
                q_seqs = _monotone(range(n, low - 1, -1), s)
            for p in p_seqs:
                for q in q_seqs:
                    t = Triple(k, p, q, wtype)
                    status = validate(t)
                    if status == "strict" or (allow_redundant and status == "redundant"):
                        yield t


def _monotone(domain, s):
    """Weakly monotone length-s sequences drawn from an ordered domain."""
    return [
        tuple(seq) for seq in itertools.combinations_with_replacement(domain, s)
    ]


# ---------------------------------------------------------------------------
# the D <-> C shift
# ---------------------------------------------------------------------------


def plus_map(t: Triple) -> Triple:
    """The type D -> type C shift: add 1 to every p_i and q_i."""
    if t.wtype != "D":
        raise WrongType("plus_map wants a type D triple")
    return Triple(t.k, [p + 1 for p in t.p], [q + 1 for q in t.q], "C")


def minus_map(t: Triple) -> Triple:
    if t.wtype != "C":
        raise WrongType("minus_map wants a type C triple")
    return Triple(t.k, [p - 1 for p in t.p], [q - 1 for q in t.q], "D")
