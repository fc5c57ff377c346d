"""The ring Gamma = Z[Q_1, Q_2, ...]/(Q_k^2 + 2 sum_j (-1)^j Q_{k+j} Q_{k-j}).

Elements are kept in canonical form as combinations of the basis symbols
Q_lambda, lambda a strict partition, with Polynomial coefficients;
P_lambda = 2^-r Q_lambda is Q_lambda with a dyadic coefficient.

`pf_rows` folds the rows of the closed formulas' Pfaffians straight into
the Q basis.  Every other map of the Q basis runs on one rule, the
horizontal strips of `_strips`: s0 (`apply_symmetry`) and generator 0 of
types B and C (`s0_quotient`) are one `_strip_fold` each, and the Pieri
product `_pieri` serves the product of two elements.  Both folds keep
each coefficient as one packed map, added into by `polycore._fma` and
wrapped once at the end.  What depends only on integers (`_prepend`,
`_pieri`, `straighten_monomial`, `ones_series`) is built once per
process in a bounded `lru_cache` and only read by the folds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .polycore import (
    _HALF,
    NotDivisible,
    Polynomial,
    _add_into,
    _fma,
    _overflow,
    _settle,
    _wrap,
    exponent,
    ones_product,
    rational_series,
    render_terms,
)


def is_strict(parts) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:])) and all(a > 0 for a in parts)


# ---------------------------------------------------------------------------
# generator-monomial expansions (integer coefficients)
# ---------------------------------------------------------------------------
# A "raw" element is a dict mapping generator monomials -- tuples of
# positive ints, sorted weakly decreasing -- to coefficients.  () is 1.
# The caches of this module are bounded.  The whole test suite in one
# process fills at most about half of each (_prepend's leaving out one
# oracle test that walks tens of thousands of entries), and one fold uses
# at most 1 149 _prepend entries (top_class(6, "D") from a cold table),
# so the recursion never evicts an entry the same fold still needs.


def _gens(indices):
    return tuple(sorted((a for a in indices if a), reverse=True))


def _iadd(acc: dict, key, coeff):
    cur = acc.get(key)
    coeff = coeff if cur is None else cur + coeff
    if coeff:
        acc[key] = coeff
    elif cur is not None:
        del acc[key]


def _raw_mul(r1: dict, r2: dict) -> dict:
    out = {}
    for m1, c1 in r1.items():
        for m2, c2 in r2.items():
            _iadd(out, _gens(m1 + m2), c1 * c2)
    return out


@lru_cache(maxsize=1024)
def pair_expansion(a: int, b: int) -> dict:
    """Q_{a b} (a > b >= 0) as a sum of generator monomials.

    Q_{a b} = Q_a Q_b + 2 sum_{j=1}^{b} (-1)^j Q_{a+j} Q_{b-j}.
    """
    if not a > b >= 0:
        raise ValueError("pair_expansion wants a > b >= 0")
    out = {}
    _iadd(out, _gens((a, b)), 1)
    for j in range(1, b + 1):
        _iadd(out, _gens((a + j, b - j)), 2 * (-1) ** j)
    return out


@lru_cache(maxsize=1024)
def pf_expansion(lam: tuple) -> dict:
    """The defining Pfaffian of the basis symbol Q_lambda, expanded into
    generator monomials.  Odd lengths are handled by appending a 0 part."""
    if not is_strict(lam):
        raise ValueError(f"{lam} is not a strict partition")
    idx = lam if len(lam) % 2 == 0 else lam + (0,)
    return _pf_of_pairs(idx)


def _pf_of_pairs(idx: tuple) -> dict:
    if not idx:
        return {(): 1}
    # expand along the first row
    out = {}
    first, rest = idx[0], idx[1:]
    for j, b in enumerate(rest):
        sub = _pf_of_pairs(rest[:j] + rest[j + 1 :])
        term = _raw_mul(pair_expansion(first, b), sub)
        sign = (-1) ** j
        for m, c in term.items():
            _iadd(out, m, sign * c)
    return out


# ---------------------------------------------------------------------------
# horizontal strips: the one rule of the Q basis
# ---------------------------------------------------------------------------


def _strips(lam: tuple):
    """The horizontal strips lam/mu below a strict partition lam, as
    (mu, k, a): each strict mu with lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...,
    k = |lam/mu| and a = a(lam/mu) of `_strip_a`.  The one rule of the Q
    basis (Macdonald III §5 and (8.15)): it adds a variable to the
    alphabet of Q (`_strip_fold`) and multiplies by a generator (`_pieri`)."""
    for mu in itertools.product(*(range(l, b - 1, -1) for l, b in zip(lam, lam[1:] + (0,)))):
        mu = mu[:-1] if mu and not mu[-1] else mu
        if is_strict(mu):
            yield mu, sum(lam) - sum(mu), _strip_a(lam, mu)


def _strip_a(lam: tuple, mu: tuple) -> int:
    """a(lam/mu) of a horizontal strip, len(mu) <= len(lam) <= len(mu) + 1:
    the columns i of lam/mu whose column i+1 is empty, one per row j with
    a box and no box in column lam_j + 1, which holds one exactly when
    mu_{j-1} = lam_j."""
    return sum(m < l and not (j and mu[j - 1] == l) for j, (m, l) in enumerate(zip(mu + (0,), lam)))


@lru_cache(maxsize=4096)
def _pieri(mu: tuple, r: int) -> dict:
    """Q_mu Q_r (r >= 1) as {strict partition: int}: by Macdonald III
    (8.15), P_mu q_r = sum 2^a P_lam, so Q_mu Q_r = sum 2^(l(mu) + a - l(lam))
    Q_lam over the lam with (mu, r, a) in `_strips(lam)`.  lam/mu is a
    horizontal strip exactly when nu = (lam_2, lam_3, ...) has mu/nu one
    and lam_1 >= mu_1, so those lam are the strict (k + r, nu) over the
    strips (nu, k, _) of `_strips(mu)` with k + r >= mu_1."""
    out = {}
    for nu, k, _ in _strips(mu):
        lam = (k + r,) + nu
        if k + r >= (mu[0] if mu else 0) and is_strict(lam):
            out[lam] = 1 << (len(mu) + _strip_a(lam, mu) - len(lam))
    return out


@lru_cache(maxsize=4096)
def straighten_monomial(mono: tuple, lam: tuple = ()) -> dict:
    """Q_lam Q_{a_1} ... Q_{a_m} as {strict partition: int}, for a strict
    partition lam and a generator monomial (a_1, ..., a_m): a chain of
    `_pieri` products, which shares its prefixes through the cache."""
    if not mono:
        return {lam: 1}
    out = {}
    for nu, c in straighten_monomial(mono[:-1], lam).items():
        for kappa, c2 in _pieri(nu, mono[-1]).items():
            _iadd(out, kappa, c * c2)
    return out


# ---------------------------------------------------------------------------
# GammaElement
# ---------------------------------------------------------------------------


class GammaElement:
    """A finite combination sum_lambda f_lambda(x,y,t,...) Q_lambda."""

    __slots__ = ("combo",)

    def __init__(self, combo=None):
        self.combo = {}
        if combo:
            for lam, coeff in combo.items():
                coeff = Polynomial.of(coeff)
                if coeff:
                    self.combo[tuple(lam)] = coeff

    @staticmethod
    def zero():
        return GammaElement()

    @staticmethod
    def one():
        return GammaElement({(): 1})

    @staticmethod
    def basis(lam) -> "GammaElement":
        lam = tuple(lam)
        if not is_strict(lam):
            raise ValueError(f"{lam} is not a strict partition")
        return GammaElement({lam: 1})

    @staticmethod
    def of(value) -> "GammaElement":
        if isinstance(value, GammaElement):
            return value
        return GammaElement({(): Polynomial.of(value)})

    @staticmethod
    def from_raw(raw: dict) -> "GammaElement":
        """Straighten a dict {generator monomial: Polynomial coefficient}."""
        combo = {}
        for mono, coeff in raw.items():
            for lam, c in straighten_monomial(_gens(mono)).items():
                _iadd(combo, lam, coeff * c)
        return GammaElement(combo)

    def __bool__(self):
        return bool(self.combo)

    def __eq__(self, other):
        if not isinstance(other, (GammaElement, Polynomial, int, Fraction)):
            return NotImplemented
        try:
            other = GammaElement.of(other)
        except NotDivisible:
            return False  # no element has a value that is not dyadic
        return self.combo == other.combo

    def __neg__(self):
        return GammaElement({lam: -c for lam, c in self.combo.items()})

    def __add__(self, other):
        other = GammaElement.of(other)
        combo = dict(self.combo)
        for lam, c in other.combo.items():
            cur = combo.get(lam)
            c = c if cur is None else cur + c
            if c:
                combo[lam] = c
            else:
                combo.pop(lam, None)
        out = GammaElement()
        out.combo = combo
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-GammaElement.of(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = Polynomial.of(other)
            return GammaElement({lam: c * other for lam, c in self.combo.items()})
        # other by its defining Pfaffians, each monomial a Pieri chain on self
        combo = {}
        for lam, coeff in self.combo.items():
            for mu, d in GammaElement.of(other).combo.items():
                cd = coeff * d
                for mono, c in pf_expansion(mu).items():
                    for nu, n in straighten_monomial(mono, lam).items():
                        _iadd(combo, nu, cd * (c * n))
        return GammaElement(combo)

    __rmul__ = __mul__

    def halve(self, r: int) -> "GammaElement":
        """self / 2^r: r added to each coefficient's shared exponent.  A
        coefficient with e > 0 already has an odd integer in its map, so it
        stays normalized as it is; only one with e == 0 goes through
        `from_packed`."""
        out = GammaElement()
        out.combo = {
            lam: _wrap(c.packed, c.e + r) if c.e else Polynomial.from_packed(c.packed, r)
            for lam, c in self.combo.items()
        }
        return out

    def map_coeffs(self, fn) -> "GammaElement":
        return GammaElement({lam: fn(c) for lam, c in self.combo.items()})

    def degree(self) -> int:
        """Total degree, counting Q_k as degree k."""
        if not self.combo:
            return -1
        return max(sum(lam) + max(c.degree(), 0) for lam, c in self.combo.items())

    def coefficient(self, lam) -> Polynomial:
        return self.combo.get(tuple(lam), Polynomial())

    def __str__(self):
        return render_combo(self.combo)

    __repr__ = __str__


def render_combo(combo: dict, latex: bool = False, basis: str = "Q") -> str:
    """Text form of a map {strict partition: Polynomial}, largest partition
    first: "3*Q(2,1) + (x1 - y1)*Q(1) + 1", or Q_{(2,1)} in latex."""
    bits = []
    for lam in sorted(combo, reverse=True):
        body = render_terms(combo[lam], latex)
        if lam:
            parts = ",".join(str(m) for m in lam)
            sym = f"{basis}_{{({parts})}}" if latex else f"{basis}({parts})"
            if body == "1":
                bits.append(sym)
            elif "+" in body or "- " in body or body.startswith("-"):
                bits.append(f"({body})" + ("" if latex else "*") + sym)
            else:
                bits.append(body + ("" if latex else "*") + sym)
        else:
            bits.append(body if ("+" not in body) else f"({body})")
    return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# generator series c = Q * g and the Pfaffian of their rows
# ---------------------------------------------------------------------------


class GeneratorSeries:
    """A coefficient series c = Q * g, g a finite polynomial with constant
    term 1.  Every Pfaffian row is one: a concrete series F with F F* = 1
    stands for Q, since Q Q* = 1 in Gamma.  Type B's P * g is no separate
    kind: its Pfaffian is 2^-r times the one of Q * g.

    g is read once, when the series is built: `parts`, g split by degree
    {a: g_a} in increasing a, which `row` re-keys and
    `multischur.paired_rows` reads, and `degree`, which the skew guards
    of `multischur` read, so a shared series is never scanned again."""

    __slots__ = ("multiplier", "parts", "degree")

    def __init__(self, multiplier=1):
        multiplier = Polynomial.of(multiplier)
        if multiplier.constant_term() != 1:
            raise ValueError("series multiplier must have constant term 1")
        self.multiplier = multiplier
        self.parts = dict(sorted(multiplier.parts().items()))
        self.degree = max(self.parts)

    def row(self, k: int) -> dict:
        """The degree-k coefficient sum_a g_a Q_{k-a} as a row {k - a: g_a}."""
        return {k - a: g for a, g in self.parts.items()}

    def __repr__(self):
        return f"Q*({self.multiplier})"


Q_SERIES = GeneratorSeries(1)


@lru_cache(maxsize=1024)
def ones_series(*factors) -> GeneratorSeries:
    """Q * prod ones_product(family, count) over the (family, count)
    factors: the rows of the closed formulas, Q prod (1+x_j) prod (1+y_j),
    and of Kazarian's families, Q prod (1+t_j).  The series is shared, so
    nothing may write into it."""
    g = ones_product(*factors[0])
    for family, count in factors[1:]:
        g = g * ones_product(family, count)
    return GeneratorSeries(g)


def series_rows(lam, series):
    """The rows c(i).row(lam_i) of `pf_rows`."""
    return [c.row(k) for k, c in zip(lam, series)]


def series_coeff(c: GeneratorSeries, m: int) -> GammaElement:
    return pf_rows([c.row(m)])


def q_pair(k: int, l: int, c_k: GeneratorSeries, c_l: GeneratorSeries) -> GammaElement:
    """The pair element  c(k)_k c(l)_l + 2 sum_{j=1}^{l} (-1)^j c(k)_{k+j} c(l)_{l-j}."""
    return pf_rows(series_rows((k, l), (c_k, c_l)))


# The row e_0, whose Pfaffian (the border Q_0) is 1: `pf_rows` folds it
# in place of no rows.
_UNIT_ROW = {0: Polynomial.const(1)}


def pf_rows(rows) -> GammaElement:
    """The Pfaffian of `rows`, straight in the Q basis.

    Row i is a combination {m: Polynomial} of symbols e_m, m any integer,
    plus in type D a scalar on one more symbol f (key None).  The entries
    are B(e_a, e_b) = Q_a Q_b + 2 sum_{j>=1} (-1)^j Q_{a+j} Q_{b-j} (Q_0 = 1,
    Q_m = 0 for m < 0), B(e_m, f) = Q_m = -B(f, e_m) and B(f, f) = -1; an
    odd size takes the border e_m -> Q_m, f -> 1.  A Pfaffian term uses
    each row once, so this is a sum of basis Pfaffians Q_alpha, alpha in
    Z^r, straightened by Schur's alternation relation (Macdonald III §8)
    at the first adjacent a <= b,
        Q_(.., a, b, ..) = -Q_(.., b, a, ..) + [a + b = 0] 2 (-1)^a Q_(.., ..),
    and, once all rows are in, at the ends: a negative last entry gives 0
    and a trailing 0 (the odd border) drops.

    The rows fold from the last one up, over a state {(strictly
    decreasing suffix, pending f): packed map} over one shared 2^-e, so
    equal suffixes merge before the next row multiplies in.  Prepending
    e_m straightens Q_(m, suffix) at the suffix's first entry (`_prepend`);
    prepending f moves it past the suffix to the end of the symbol, a
    sign (-1)^len(suffix), and -1 more onto a pending f (f f = -1).  A
    last e_0 pairs with every symbol in front of it as a last f does, and
    B(e_0, f) = 1, so a suffix never ends in 0: (.., 0) is (.., f) and
    (.., 0, f) is (..), which merges type D's states.  A formula's row
    indices decrease, so a prepended entry mostly lands in front with no
    alternation, and the states stay as small as the last rows until the
    largest row comes in.

    The last row seeds the state with no product (`_seed`), and no rows
    fold as the one row e_0 (`_UNIT_ROW`); in every later row each product
    of a state term and a row term goes once into every target through
    `polycore._fma`.  Nothing is kept between calls: nearly all of a
    formula's term products fall in its first row.  The rows, whose series
    may be shared, are never written, and a returned map may be a row's
    own, since no Polynomial's map is written once wrapped.
    """
    e, state = 0, None
    for row in reversed(list(rows) or [_UNIT_ROW]):
        top = max((g.e for g in row.values()), default=0)
        e += top
        lifted = [
            (m, g.packed if g.e == top else {mono: c << (top - g.e) for mono, c in g.packed.items()})
            for m, g in row.items()
            if g
        ]
        if state is None:
            state = _seed(lifted)
            continue
        acc = {}
        for (suffix, f), packed in state.items():
            for m, g in lifted:
                if m is None:
                    sign = -1 if (len(suffix) & 1) ^ f else 1
                    _fma(((acc.setdefault((suffix, not f), {}), sign),), packed, g)
                    continue
                targets = _prepend(m, suffix)
                if len(targets) == 1:
                    ((v, c),) = targets
                    key = (v[:-1], not f) if v and not v[-1] else (v, f)
                    _fma(((acc.setdefault(key, {}), c),), packed, g)
                elif targets:
                    _fma(
                        [
                            (acc.setdefault((v[:-1], not f) if v and not v[-1] else (v, f), {}), c)
                            for v, c in targets
                        ],
                        packed,
                        g,
                    )
        state = {}
        for pair, packed in acc.items():
            packed = _settle(packed)
            if packed:
                state[pair] = packed
    combo = {}
    for (v, _), packed in state.items():
        if v and v[-1] < 0:
            continue
        if v in combo:
            combo[v] = merged = dict(combo[v])
            _add_into(merged, packed)
        else:
            combo[v] = packed
    out = GammaElement()
    out.combo = {lam: Polynomial.from_packed(p, e) for lam, p in combo.items() if p}
    return out


def _seed(lifted) -> dict:
    """The state of `pf_rows` after its last row, from the row's lifted
    entries (m, map) with no product formed: e_m (m != 0) is ((m,), no f),
    and e_0 and f are both ((), pending f).  Each map is taken as it
    stands; e_0 and f together merge into a fresh map, dropped if it
    cancels."""
    state = {}
    for m, g in lifted:
        key = ((m,), False) if m else ((), True)
        if key in state:
            merged = dict(state[key])
            _add_into(merged, g)
            if merged:
                state[key] = merged
            else:
                del state[key]
        else:
            state[key] = g
    return state


@lru_cache(maxsize=4096)
def _prepend(m: int, suffix: tuple) -> tuple:
    """Q_(m, suffix) for a strictly decreasing suffix, as pairs (strictly
    decreasing, int): Schur's alternation of `pf_rows` at the suffix's
    first entry b.  With m < b, Q_(m, b, ..) = -Q_(b, m, ..) + [m + b = 0]
    2 (-1)^m Q_(..), and b lands in front of each symbol of Q_(m, ..),
    whose entries are all below it, so no two targets meet.  A table of
    integers shared by every fold of the process."""
    if not suffix or m > suffix[0]:
        return (((m,) + suffix, 1),)
    b, rest = suffix[0], suffix[1:]
    if m == b:
        return ((rest, 1),) if m == 0 else ()
    out = tuple(((b,) + v, -c) for v, c in _prepend(m, rest))
    if m + b == 0:
        out += ((rest, -2 if m % 2 else 2),)
    return out


# ---------------------------------------------------------------------------
# ring symmetries
# ---------------------------------------------------------------------------


_X1 = Polynomial.variable("x", 1)
_S0 = {("x", 1): -_X1}


def _strip_fold(e: GammaElement, drop: int, shift_e: int) -> GammaElement:
    """sum 2^a x_1^(k - drop) c_lambda Q_mu / 2^shift_e over each
    c_lambda Q_lambda of e and each (mu, k, a) of `_strips(lambda)` with
    k >= drop; with drop = 1, plus 2 (odd part of c_mu in x_1) / x_1 Q_mu
    / 2^shift_e for each mu.  Each target mu accumulates into one packed
    map over 2^top, top the largest exponent among the coefficients, by
    one-term shifts through `_fma`."""
    [x1] = _X1.packed
    if any(lam and lam[0] >= _HALF for lam in e.combo):  # a shift out of range
        raise _overflow()
    top = max((c.e for c in e.combo.values()), default=0)
    acc = {}
    for lam, coeff in e.combo.items():
        lift = top - coeff.e
        for mu, k, a in _strips(lam):
            if k >= drop:
                _fma([(acc.setdefault(mu, {}), 1 << (a + lift))], {(k - drop) * x1: 1}, coeff.packed)
        if drop:
            odd = {m: c for m, c in coeff.packed.items() if exponent(m, ("x", 1)) & 1}
            _fma([(acc.setdefault(lam, {}), 2 << lift)], {-x1: 1}, odd)
    return _settled(acc, top + shift_e)


def _settled(acc: dict, e: int) -> GammaElement:
    """The element of a fold's {mu: packed map over 2^e}: one `_settle`
    and one wrap per mu."""
    out = GammaElement()
    for mu, packed in acc.items():
        packed = _settle(packed)
        if packed:
            out.combo[mu] = Polynomial.from_packed(packed, e)
    return out


def _branch(e: GammaElement) -> GammaElement:
    """Add x_1 to the alphabet of Q (Macdonald III §5 and §8):
    Q_lambda(X, x_1) = sum 2^a x_1^k Q_mu(X) over the (mu, k, a) of
    `_strips(lambda)`."""
    return _strip_fold(e, 0, 0)


def s0_quotient(e: GammaElement, wtype: str) -> GammaElement:
    """Generator 0 of types B and C with no division: (e - s0 e)/(-2 x_1)
    in type C, and twice that in type B.  With g_lambda = c_lambda at
    x_1 -> -x_1, s0 e = sum g_lambda Q_lambda(X, x_1), whose strips of no
    box give back g_mu Q_mu; a strip with a box has a >= 1.  So the
    type-C coefficient of Q_mu is (odd part of g_mu in x_1) / x_1 +
    sum 2^(a-1) x_1^(k-1) g_lambda over the (mu, k, a) of
    `_strips(lambda)` with k >= 1: one `_strip_fold` of g."""
    return _strip_fold(e.map_coeffs(lambda c: c.substitute(_S0)), 1, wtype == "C")


def apply_symmetry(e: GammaElement) -> GammaElement:
    """s0, the ring symmetry of generator 0 in every signed type (type D's
    s1hat is s0 s1 s0): negate x_1 in every coefficient by
    `Polynomial.substitute`, then add x_1 to the alphabet of Q."""
    return _branch(e.map_coeffs(lambda c: c.substitute(_S0)))


# ---------------------------------------------------------------------------
# the specialization of lemma25
# ---------------------------------------------------------------------------


def substitute_q(e: GammaElement, series: Polynomial) -> Polynomial:
    """Substitute a concrete power series A (with A A* = 1 where it matters)
    for Q: each generator Q_m in the defining Pfaffian of a basis symbol
    becomes the degree-m part of A."""
    out = Polynomial()
    for lam, coeff in e.combo.items():
        image = Polynomial()
        for mono, c in pf_expansion(lam).items():
            image = image + math.prod(map(series.part, mono), start=Polynomial.const(c))
        out = out + coeff * image
    return out


def negt_series(nu, bound: int) -> Polynomial:
    """prod_i (1 - t_{nu_i})/(1 + t_{nu_i}), truncated at total degree `bound`."""
    t = [Polynomial.variable("t", i) for i in nu]
    return rational_series([1 - ti for ti in t], [1 + ti for ti in t], bound)


def specialize_oracle(e: GammaElement, nu) -> Polynomial:
    """e under the ring map Q -> prod_i (1-t_{nu_i})/(1+t_{nu_i}) of
    Gamma, which `verify lemma25` applies to Kazarian's pairs."""
    # the defining Pfaffian of Q_lambda uses generators up to lambda_1 + lambda_2
    bound = max((sum(lam[:2]) for lam in e.combo), default=0)
    return substitute_q(e, negt_series(nu, bound))
