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
slack rule, one insertion, one rank and one corner reader serve every
type, and `Triple` keeps the paper's coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Triple:
    k: tuple
    p: tuple
    q: tuple
    wtype: str  # "A", "C" (covers B), or "D"

    def __init__(self, k, p, q, wtype):
        object.__setattr__(self, "k", tuple(k))
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "q", tuple(q))
        object.__setattr__(self, "wtype", _norm_type(wtype))

    @property
    def s(self) -> int:
        return len(self.k)

    def __repr__(self):
        fmt = lambda xs: ",".join(map(str, xs))
        return f"k={fmt(self.k)};p={fmt(self.p)};q={fmt(self.q)};type={self.wtype}"

    @staticmethod
    def parse(text: str) -> "Triple":
        """Parse "k=2,3,5,8;p=8,6,6,2;q=6,5,2,2;type=C"."""
        fields = {}
        for chunk in text.split(";"):
            key, _, val = chunk.partition("=")
            fields[key.strip()] = val.strip()
        ints = lambda s: tuple(int(x) for x in s.split(",")) if s else ()
        return Triple(
            ints(fields["k"]), ints(fields["p"]), ints(fields["q"]),
            fields.get("type", "C"),
        )


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
    every slack positive (strict) or non-negative (redundant)."""
    for (k1, p1, q1), (k2, p2, q2) in zip(steps, steps[1:]):
        if k1 >= k2 or p1 < p2 or q1 > q2:
            return "invalid"
    gaps = _gaps(steps)
    if all(g > 0 for g in gaps):
        return "strict"
    if all(g >= 0 for g in gaps):
        return "redundant"
    return "invalid"


def _gaps(steps: list) -> list:
    """The slack l_i - l_{i+1} between consecutive steps, with
    l_i = p_i - q_i + k_i; positive in a strict triple."""
    ls = [p - q + k for k, p, q in steps]
    return [a - b for a, b in zip(ls, ls[1:])]


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
        drop = _gaps(_steps(t)).index(0)
        t = Triple(*([x for i, x in enumerate(xs) if i != drop] for xs in (t.k, t.p, t.q)), t.wtype)
        status = validate(t)
    return t


def column_steps(t: Triple) -> list:
    """For each column k = 1..k_s, the step governing it: the least i
    with k_i >= k."""
    if t.s == 0:
        return []
    return [next(i for i in range(t.s) if t.k[i] >= k) for k in range(1, t.k[-1] + 1)]


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
    return SignedPermutation(values)


def _insert(steps: list) -> tuple:
    """The one-line tuple of a strict triple's steps.  At each step
    (k, p, q), take the largest values <= q whose absolute values are
    unused, and place them in increasing order in the free positions > p:
    barred values in type C, where q < 0.  The values left over fill the
    free positions unbarred, in increasing order."""
    placed = {}  # position -> value
    used = set()  # absolute values placed
    prev_k = 0
    for k, p, q in steps:
        vals = []
        v = q
        while len(vals) < k - prev_k:
            if abs(v) not in used:
                vals.append(v)
            v -= 1
        prev_k = k
        pos = p + 1
        for val in reversed(vals):
            while pos in placed:
                pos += 1
            placed[pos] = val
            used.add(abs(val))
    n = max(max(placed), max(used))
    remaining = iter(v for v in range(1, n + 1) if v not in used)
    return tuple(placed.get(a) or next(remaining) for a in range(1, n + 1))


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
    essential set) of w's rank function and round-trip checked, so a
    non-vexillary w never passes.  Candidate steps that are not strict
    are refused: the corners of a vexillary w give its strict triple,
    never a redundant one.  Every corner meets validate's bounds, so only
    the shape of the steps is checked."""
    wtype = _norm_type(wtype)
    if wtype == "A" and not w.is_unsigned():
        raise WrongType("type A wants an unsigned permutation")
    if wtype == "D":
        tc = triple_of_w(w, "C")
        return None if tc is None else minus_map(tc)
    values = w.values
    steps = sorted(_corners(values, wtype))
    if _classify(steps) != "strict" or not _same_element(_insert(steps) if steps else (), values):
        return None
    k, p, q = zip(*steps) if steps else ((), (), ())
    if wtype == "C":
        p, q = [x + 1 for x in p], [-x for x in q]
    return Triple(k, p, q, wtype)


def _same_element(u: tuple, v: tuple) -> bool:
    """Whether two one-line tuples are the same element once the shorter
    is padded with fixed points."""
    if len(u) < len(v):
        u, v = v, u
    m = len(v)
    return u[:m] == v and all(x == a for a, x in enumerate(u[m:], start=m + 1))


def _corners(values: tuple, wtype: str):
    """The steps (k, p, q) at the corners of r(p, q) = #{a > p : w(a) <= q}:
    r drops from (p, q) to (p + 1, q) (w(p + 1) <= q) and to (p, q - 1)
    (q sits after p), and is the same at (p - 1, q) (w(p) > q) and at
    (p, q + 1) (q + 1 sits at or before p, or is no value of w).  Type C
    reads only q < 0.  The corners with k = max(0, q - p), which every
    permutation has, are left out; a type-C corner is never one."""
    n = len(values)
    at = [0] * (2 * n + 2)  # at[v]: the position of v, 0 if v is no value; v < 0 counts from the end
    for a, v in enumerate(values, start=1):
        at[v] = a
    cap = n + 1 if wtype == "A" else 0
    corners = []
    before = n + 1  # w(p); at p = 0 no q is refused
    for p, v in enumerate(values):
        for q in range(v, min(before, cap)):
            if at[q] > p and at[q + 1] <= p:
                k = _rank(values, p, q)
                if k > max(0, q - p):
                    corners.append((k, p, q))
        before = v
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
