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
    k, p, q = t.k, t.p, t.q
    if not (len(k) == len(p) == len(q)):
        return "invalid"
    if len(k) == 0:
        return "strict"
    if not all(a < b for a, b in zip(k, k[1:])) or k[0] < 1:
        return "invalid"
    if t.wtype == "A":
        if any(x < 1 for x in p + q):
            return "invalid"
        if not all(a >= b for a, b in zip(p, p[1:])):
            return "invalid"
        if not all(a <= b for a, b in zip(q, q[1:])):
            return "invalid"
        if any(ki > qi for ki, qi in zip(k, q)):
            return "invalid"
        l = type_a_l(t)
        if any(li > pi for li, pi in zip(l, p)) or l[-1] < 1:
            return "invalid"
        if all(a > b for a, b in zip(l, l[1:])):
            return "strict"
        if all(a >= b for a, b in zip(l, l[1:])):
            return "redundant"
        return "invalid"
    # types C and D
    low = 1 if t.wtype == "C" else 0
    if any(x < low for x in p + q):
        return "invalid"
    if not all(a >= b for a, b in zip(p, p[1:])):
        return "invalid"
    if not all(a >= b for a, b in zip(q, q[1:])):
        return "invalid"
    gaps = [
        (p[i] - p[i + 1]) + (q[i] - q[i + 1]) - (k[i + 1] - k[i])
        for i in range(len(k) - 1)
    ]
    if all(g > 0 for g in gaps):
        return "strict"
    if all(g >= 0 for g in gaps):
        return "redundant"
    return "invalid"


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
        if t.wtype == "A":
            l = type_a_l(t)
            drop = next(i for i in range(t.s - 1) if l[i] == l[i + 1])
        else:
            drop = next(
                i
                for i in range(t.s - 1)
                if (t.p[i] - t.p[i + 1]) + (t.q[i] - t.q[i + 1])
                == t.k[i + 1] - t.k[i]
            )
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
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    if status == "redundant":
        t = reduce_redundant(t)
    if t.s == 0:
        return SignedPermutation.identity(1)
    if t.wtype == "A":
        w = _insert_type_a(t)
    else:
        w = _insert_signed(t, strict=(t.wtype == "D"))
    _check_ranks(w, t)
    return w


def _insert_signed(t: Triple, strict: bool) -> SignedPermutation:
    """Types C and D.  At step i, bar the smallest unused values that are
    >= q_i (> q_i for D) and drop them, largest first, into the free
    positions >= p_i (> p_i for D), left to right."""
    shift = 1 if strict else 0
    placed = {}  # position -> value (negative = barred)
    used = set()
    prev_k = 0
    for ki, pi, qi in zip(t.k, t.p, t.q):
        count = ki - prev_k
        prev_k = ki
        vals = []
        v = qi + shift
        while len(vals) < count:
            if v not in used:
                vals.append(v)
            v += 1
        pos = pi + shift
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
    vals = [placed.get(a) or next(remaining) for a in range(1, n + 1)]
    return SignedPermutation(vals)


def _insert_type_a(t: Triple) -> SignedPermutation:
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
    vals = [placed.get(a) or next(remaining) for a in range(1, n + 1)]
    return SignedPermutation(vals)


def rank_of_triple_term(w: SignedPermutation, pi: int, qi: int, wtype: str) -> int:
    wtype = _norm_type(wtype)
    if wtype == "A":
        return sum(1 for a in range(pi + 1, w.n + 1) if 0 < w(a) <= qi)
    return w.rank(pi, qi, strict=(wtype == "D"))


def _check_ranks(w: SignedPermutation, t: Triple):
    for ki, pi, qi in zip(t.k, t.p, t.q):
        got = rank_of_triple_term(w, pi, qi, t.wtype)
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
    corners = sorted(_corners_a(w) if wtype == "A" else _corners_c(w))
    t = Triple(*zip(*corners), wtype) if corners else Triple((), (), (), wtype)
    if validate(t) != "strict":
        return None
    back = w_of_triple(t)
    n = max(back.n, w.n)
    return t if back.embed(n) == w.embed(n) else None


def _corners_c(w: SignedPermutation):
    """(k, p, q) at the corners of r(p, q) = #{a >= p : w(a) <= -q}: r
    drops from (p, q) to (p + 1, q) (w(p) <= -q) and to (p, q + 1) (-q sits
    at or after p), and is the same at (p - 1, q) and at (p, q - 1)."""
    at = {-v: a for a, v in enumerate(w.values, start=1) if v < 0}
    return [
        (w.rank(p, q), p, q)
        for p in range(1, w.n + 1)
        for q in range(1, w.n + 1)
        if w(p) <= -q
        and at.get(q, 0) >= p
        and (p == 1 or w(p - 1) > -q)
        and (q == 1 or at.get(q - 1, 0) < p)
    ]


def _corners_a(w: SignedPermutation):
    """(k, p, q) at the corners of r(p, q) = #{a > p : w(a) <= q}: r
    drops from (p, q) to (p + 1, q) (w(p + 1) <= q) and to (p, q - 1) (q
    sits after p), and is the same at (p - 1, q) and at (p, q + 1).  The
    conditions k = max(0, q - p), which every permutation meets, are left
    out."""
    at = {v: a for a, v in enumerate(w.values, start=1)}
    n = w.n
    corners = [
        (rank_of_triple_term(w, p, q, "A"), p, q)
        for p in range(n)
        for q in range(1, n + 1)
        if w(p + 1) <= q
        and at[q] > p
        and (p == 0 or w(p) > q)
        and (q == n or at[q + 1] <= p)
    ]
    return [(k, p, q) for k, p, q in corners if k > max(0, q - p)]


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
# duality and the D <-> C shift
# ---------------------------------------------------------------------------


def dual(t: Triple) -> Triple:
    if t.wtype != "A":
        raise WrongType("duality is a type A operation")
    if validate(t) != "strict":
        raise InvalidTriple(str(t))
    l = type_a_l(t)
    return Triple(tuple(reversed(l)), tuple(reversed(t.q)), tuple(reversed(t.p)), "A")


def plus_map(t: Triple) -> Triple:
    """The type D -> type C shift: add 1 to every p_i and q_i."""
    if t.wtype != "D":
        raise WrongType("plus_map wants a type D triple")
    return Triple(t.k, [p + 1 for p in t.p], [q + 1 for q in t.q], "C")


def minus_map(t: Triple) -> Triple:
    if t.wtype != "C":
        raise WrongType("minus_map wants a type C triple")
    return Triple(t.k, [p - 1 for p in t.p], [q - 1 for q in t.q], "D")
