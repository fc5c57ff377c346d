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
    if len(k) == 0:
        return "strict"
    if not all(a < b for a, b in zip(k, k[1:])) or k[0] < 1 or any(x < 1 for x in p + q):
        return "invalid"
    if not all(a >= b for a, b in zip(p, p[1:])):
        return "invalid"
    if t.wtype == "A":
        if not all(a <= b for a, b in zip(q, q[1:])):
            return "invalid"
        # k_i <= q_i is l_i <= p_i
        if any(ki > qi for ki, qi in zip(k, q)) or type_a_l(t)[-1] < 1:
            return "invalid"
    elif not all(a >= b for a, b in zip(q, q[1:])):
        return "invalid"
    gaps = _gaps(t)
    if all(g > 0 for g in gaps):
        return "strict"
    if all(g >= 0 for g in gaps):
        return "redundant"
    return "invalid"


def _gaps(t: Triple) -> list:
    """The slack between consecutive steps, positive in a strict triple:
    (p_i - p_{i+1}) + (q_i - q_{i+1}) - (k_{i+1} - k_i) in types C and D,
    and l_i - l_{i+1}, the same with q's difference negated, in type A."""
    sign = -1 if t.wtype == "A" else 1
    k, p, q = t.k, t.p, t.q
    return [
        p[i] - p[i + 1] + sign * (q[i] - q[i + 1]) - (k[i + 1] - k[i])
        for i in range(len(k) - 1)
    ]


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
        drop = _gaps(t).index(0)
        keep = [i for i in range(t.s) if i != drop]
        t = Triple(
            [t.k[i] for i in keep],
            [t.p[i] for i in keep],
            [t.q[i] for i in keep],
            t.wtype,
        )
        status = validate(t)
    return t


def column_steps(t: Triple) -> list:
    """For each column k = 1..k_s, the step governing it: the least i
    with k_i >= k."""
    if t.s == 0:
        return []
    return [next(i for i in range(t.s) if t.k[i] >= k) for k in range(1, t.k[-1] + 1)]


def lambda_of(t: Triple) -> tuple:
    """The partition pinned by the triple: strict (types C/D, possibly
    ending in 0 for D) or weakly decreasing (type A), of length k_s."""
    if validate(t) != "strict":
        raise InvalidTriple(f"need a strict triple, got {t}")
    out = []
    for k, i in enumerate(column_steps(t), start=1):
        if t.wtype == "A":
            out.append(type_a_l(t)[i])
        elif t.wtype == "C":
            out.append(t.p[i] + t.q[i] - 1 + t.k[i] - k)
        else:
            out.append(t.p[i] + t.q[i] + t.k[i] - k)
    return tuple(out)


# ---------------------------------------------------------------------------
# triple -> permutation (the insertion algorithm)
# ---------------------------------------------------------------------------


def w_of_triple(t: Triple) -> SignedPermutation:
    """The permutation of a triple.  A type-D triple is the type-C triple
    `plus_map(t)`: its insertion and ranks are type C's at (p + 1, q + 1)."""
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    if t.wtype == "D":
        t = plus_map(t)
    if status == "redundant":
        t = reduce_redundant(t)
    if t.s == 0:
        return SignedPermutation.identity(1)
    values = _insert(t)
    _check_ranks(values, t)
    return SignedPermutation(values)


def _insert(t: Triple) -> tuple:
    """The one-line tuple of a strict type-A or type-C triple."""
    return _insert_type_a(t) if t.wtype == "A" else _insert_signed(t)


def _insert_signed(t: Triple) -> tuple:
    """Type C.  At step i, bar the smallest unused values that are >= q_i
    and drop them, largest first, into the free positions >= p_i, left to
    right."""
    placed = {}  # position -> value (negative = barred)
    used = set()
    prev_k = 0
    for ki, pi, qi in zip(t.k, t.p, t.q):
        count = ki - prev_k
        prev_k = ki
        vals = []
        v = qi
        while len(vals) < count:
            if v not in used:
                vals.append(v)
            v += 1
        pos = pi
        slots = []
        while len(slots) < count:
            if pos not in placed:
                slots.append(pos)
            pos += 1
        for slot, val in zip(slots, sorted(vals, reverse=True)):
            placed[slot] = -val
            used.add(val)
    n = max(max(placed), max(used))
    remaining = iter(v for v in range(1, n + 1) if v not in used)
    return tuple(placed.get(a) or next(remaining) for a in range(1, n + 1))


def _insert_type_a(t: Triple) -> tuple:
    """Type A.  At step i, take the largest unused values <= q_i and place
    them in increasing order in the free positions > p_i."""
    placed = {}
    used = set()
    prev_k = 0
    for ki, pi, qi in zip(t.k, t.p, t.q):
        count = ki - prev_k
        prev_k = ki
        vals = []
        v = qi
        while len(vals) < count:
            if v < 1:
                raise InvalidTriple(f"ran out of values at step k={ki} of {t}")
            if v not in used:
                vals.append(v)
            v -= 1
        pos = pi + 1
        slots = []
        while len(slots) < count:
            if pos not in placed:
                slots.append(pos)
            pos += 1
        for slot, val in zip(slots, sorted(vals)):
            placed[slot] = val
            used.add(val)
    n = max(max(placed), max(used))
    remaining = iter(v for v in range(1, n + 1) if v not in used)
    return tuple(placed.get(a) or next(remaining) for a in range(1, n + 1))


def _rank(values: tuple, p: int, q: int, wtype: str) -> int:
    """The rank a step (k; p; q) pins to k, counted on a one-line tuple:
    #{a > p : w(a) <= q} in type A, #{a >= p : w(a) <= -q} in type C.
    Positions past the tuple are fixed points and never count."""
    if wtype == "A":
        return sum(1 for v in values[p:] if v <= q)
    return sum(1 for v in values[p - 1:] if v <= -q)


def _check_ranks(values: tuple, t: Triple):
    for ki, pi, qi in zip(t.k, t.p, t.q):
        got = _rank(values, pi, qi, t.wtype)
        if got != ki:
            raise AssertionError(
                f"insertion broke the rank condition for {t}: "
                f"expected {ki} at (p={pi}, q={qi}), got {got}"
            )


# ---------------------------------------------------------------------------
# permutation -> triple
# ---------------------------------------------------------------------------


def triple_of_w(w: SignedPermutation, wtype: str):
    """The unique strict triple t with w_of_triple(t) = w, or None if w is
    not vexillary.  The candidate is read off the corners (the essential
    set) of w's rank function and round-trip checked, so a non-vexillary w
    never passes.  A candidate that is not strict is refused: the corners
    of a vexillary w give its strict triple, never a redundant one."""
    wtype = _norm_type(wtype)
    if wtype == "A" and not w.is_unsigned():
        raise WrongType("type A wants an unsigned permutation")
    if wtype == "D":
        tc = triple_of_w(w, "C")
        return None if tc is None else minus_map(tc)
    values = w.values
    corners = sorted(_corners_a(values) if wtype == "A" else _corners_c(values))
    t = Triple(*zip(*corners), wtype) if corners else Triple((), (), (), wtype)
    if validate(t) != "strict":
        return None
    back = _insert(t) if t.s else ()
    return t if _same_element(back, values) else None


def _same_element(u: tuple, v: tuple) -> bool:
    """Whether two one-line tuples are the same element once the shorter
    is padded with fixed points."""
    if len(u) < len(v):
        u, v = v, u
    m = len(v)
    return u[:m] == v and all(x == a for a, x in enumerate(u[m:], start=m + 1))


def _corners_c(values: tuple):
    """(k, p, q) at the corners of r(p, q) = #{a >= p : w(a) <= -q}: r
    drops from (p, q) to (p + 1, q) (w(p) <= -q) and to (p, q + 1) (-q sits
    at or after p), and is the same at (p - 1, q) (w(p - 1) > -q) and at
    (p, q - 1) (q = 1, or -(q - 1) sits before p)."""
    at = [0] * (len(values) + 1)  # at[b]: the position of -b, 0 if b is unbarred
    for a, v in enumerate(values, start=1):
        if v < 0:
            at[-v] = a
    corners = []
    before = len(values) + 1  # w(p - 1); at p = 1 no q is refused
    for p, v in enumerate(values, start=1):
        for q in range(max(1, 1 - before), 1 - v):
            if at[q] >= p and at[q - 1] < p:
                corners.append((_rank(values, p, q, "C"), p, q))
        before = v
    return corners


def _corners_a(values: tuple):
    """(k, p, q) at the corners of r(p, q) = #{a > p : w(a) <= q}: r
    drops from (p, q) to (p + 1, q) (w(p + 1) <= q) and to (p, q - 1) (q
    sits after p), and is the same at (p - 1, q) (w(p) > q) and at
    (p, q + 1) (q = n, or q + 1 sits at or before p).  The corners with
    k = max(0, q - p), which every permutation has, are left out."""
    n = len(values)
    at = [0] * (n + 2)  # at[v]: the position of v; at[n + 1] = 0
    for a, v in enumerate(values, start=1):
        at[v] = a
    corners = []
    before = n + 1  # w(p); at p = 0 no q is refused
    for p, v in enumerate(values):
        for q in range(v, before):
            if at[q] > p and at[q + 1] <= p:
                k = _rank(values, p, q, "A")
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
