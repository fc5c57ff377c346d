"""Operator calculus behind the pushforward Pfaffian formula.

Two layers:

  * Laurent polynomials in the h variables -- plain polycore
    Polynomials whose h exponents may be negative -- together with
    formal operators built from the substitutions zeta_J : h_i -> 0 for
    i in J.  The identities relating the rational functions
    f[i,j] = (1 - h_i/h_j)/(1 + h_i/h_j) and their deformations are
    checked on canonical forms: an operator sum_J a_J zeta_J is fixed by
    how it acts, so the two sides of the operator identity are compared
    coefficient by coefficient.  The sign lemma is checked exhaustively;

  * the algebraic pushforward maps phi_k eliminating h_k one at a time,
    whose composite (`pushforward`) is the paired multi-Schur Pfaffian
    of `multischur.r_family` (prop_A2_check), with a plain single-series
    degeneration (paired=False) matching the even simpler Pfaffian
    shift rule.
    Every series is a row Q * g, so Appendix A.2 is checked in the basis
    ring itself: Q Q* = 1 there, and a concrete series F with F F* = 1
    is an image of Q.

Series in f[i,j] are always expanded in powers of h_i/h_j for i < j,
so skew-symmetry holds on the nose.  The series are cut at a window D:
f[i,j] keeps the h exponents in [-D, D].  Arithmetic itself is exact
and never drops a term, so a window is an explicit `restrict` wherever a
comparison needs one.  A Pfaffian needs none: each h_i sits in exactly
one entry of each of its terms, so no term leaves the window.  A product
of f[i,j] sharing an index does leave it and is restricted after every
factor, matching the truncation of the Pfaffian side; coefficients near
the boundary are not trustworthy, so the operator identity compares on
a smaller window.
"""

from __future__ import annotations

import itertools
import math

from .polycore import Polynomial, exponent, rational_series
from .gamma import GammaElement, GeneratorSeries, _iadd, series_coeff
from .multischur import multischur_pf, pfaffian, r_family, r_rows


class WindowTooSmall(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laurent polynomials in h
# ---------------------------------------------------------------------------


def h_power(i: int, e: int) -> Polynomial:
    """h_i^e for any integer e."""
    return Polynomial({((("h", i), e),): 1})


def u_power(i: int, e: int) -> Polynomial:
    if e < 0:
        raise ValueError("u exponents are nonnegative")
    return Polynomial({((("u", i), e),): 1})


def restrict(f: Polynomial, bound: int) -> Polynomial:
    """Keep only the terms with all |h exponents| <= bound."""
    hs = [v for v in f.variables() if v[0] == "h"]
    return Polynomial.from_packed(
        {m: c for m, c in f.packed.items() if all(abs(exponent(m, v)) <= bound for v in hs)}, f.e
    )


def zeta(f: Polynomial, J) -> Polynomial:
    """The ring map h_i -> 0 for i in J (u and everything else fixed)."""
    J = frozenset(J)
    hs = [("h", j) for j in sorted(J)]
    out = {}
    for m, c in f.packed.items():
        hit = next(((v, e) for v in hs if (e := exponent(m, v))), None)
        if hit is None:
            out[m] = c
        elif hit[1] < 0:
            raise ValueError(f"zeta_{set(J)} hits a negative power of h{hit[0][1]}")
    return Polynomial.from_packed(out, f.e)


# ---------------------------------------------------------------------------
# the rational functions f[i,j] and their Pfaffians
# ---------------------------------------------------------------------------


def _pair_series(i: int, j: int, a: int, b: int, window: int) -> Polynomial:
    """2 sum_{k>=1} (-1)^k h_i^{a+k} h_j^{b-k}, cut where an h exponent
    would leave [-window, window]."""
    return Polynomial(
        {((("h", i), a + k), (("h", j), b - k)): 2 * (-1) ** k
         for k in range(1, min(window - a, window + b) + 1)}
    )


def f_pair(i: int, j: int, window: int = 8) -> Polynomial:
    """(1 - h_i/h_j)/(1 + h_i/h_j), expanded in powers of h_i/h_j when
    i < j up to h_i^window; f[j,i] = -f[i,j] by expanding in the same region."""
    if i == j:
        raise ValueError("f[i,i] is undefined")
    if i > j:
        return -f_pair(j, i, window)
    return _pair_series(i, j, 0, 0, window) + 1


def f_index(I, window: int = 8) -> Polynomial:
    """The Pfaffian f[I] of the matrix (f[i,j]) with border entries 1."""
    I = tuple(sorted(I))
    one = Polynomial.const(1)
    return pfaffian(len(I), lambda a, b: f_pair(I[a], I[b], window), one, border=lambda a: one)


def f_index_identity(I) -> bool:
    """Does f[I] (the Pfaffian) equal the product of f[i,j] over pairs?

    Both sides are cut at the window 8, which serves |I| <= 4.
    Exponents grow monotonically along the index chain, so restricting
    the product to the window after every factor reproduces the
    truncation of the Pfaffian side on the nose."""
    I = tuple(sorted(I))
    if len(I) > 4:
        raise WindowTooSmall(f"window 8 too small for |I| = {len(I)}")
    rhs = Polynomial.const(1)
    for i, j in itertools.combinations(I, 2):
        rhs = restrict(rhs * f_pair(i, j), 8)
    return f_index(I) == rhs


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------


def epsilon(k: int, K) -> int:
    """-1 when k sits in an odd position of the sorted set K, +1 when even."""
    K = sorted(K)
    pos = K.index(k) + 1
    return -1 if pos % 2 == 1 else 1


def sgn(K, J) -> int:
    """(-1)^{|J| |K|} times (-1)^{number of odd-position elements of J}."""
    K = sorted(K)
    odd = sum(1 for j in J if (K.index(j) + 1) % 2 == 1)
    return (-1) ** (len(J) * len(K)) * (-1) ** odd


def lemma_A1_check(K) -> bool:
    """Exhaustive verification of both sign identities over all J subset K."""
    K = tuple(sorted(K))
    s = len(K)
    for t in range(s + 1):
        for J in itertools.combinations(K, t):
            if sgn(K, J) != (-1) ** (s // 2) * sgn(K, tuple(x for x in K if x not in J)):
                return False
            if s % 2 == 1:
                total = 0
                for p, jp in enumerate(J, start=1):
                    Kj = tuple(x for x in K if x != jp)
                    Jj = tuple(x for x in J if x != jp)
                    term = -epsilon(jp, K) * sgn(Kj, Jj)
                    if term != (-1) ** (p - 1) * sgn(K, J):
                        return False
                    total += term
                expect = sgn(K, J) if len(J) % 2 == 1 else 0
                if total != expect:
                    return False
    return True


# ---------------------------------------------------------------------------
# indexed operators and the deformed entries
# ---------------------------------------------------------------------------


class IndexedOperator:
    """A formal sum  sum_J  a_J zeta_J  with Laurent coefficients a_J.

    Composition uses  (a zeta_J)(b zeta_K) = a zeta_J(b) zeta_{J u K};
    for the disjoint index sets arising here this is commutative."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for J, coeff in (terms or {}).items():
            _iadd(self.terms, frozenset(J), coeff)

    @staticmethod
    def scalar(f: Polynomial) -> "IndexedOperator":
        return IndexedOperator({frozenset(): f})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, IndexedOperator) and self.terms == other.terms

    def __neg__(self):
        out = IndexedOperator()
        out.terms = {J: -c for J, c in self.terms.items()}
        return out

    def __add__(self, other):
        out = IndexedOperator()
        out.terms = dict(self.terms)
        for J, c in other.terms.items():
            _iadd(out.terms, J, c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = IndexedOperator()
        for J1, c1 in self.terms.items():
            for J2, c2 in other.terms.items():
                _iadd(out.terms, J1 | J2, c1 * zeta(c2, J1))
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for J in sorted(self.terms, key=sorted):
            tag = "".join(f" z{j}" for j in sorted(J))
            bits.append(f"({self.terms[J]}){tag}")
        return " + ".join(bits)


def f_tilde_border(k: int, lam) -> IndexedOperator:
    """h_k^{lam_k} + u_k^{lam_k} zeta_k  (lam is indexed by position, so
    lam[k-1] is the exponent attached to index k)."""
    lk = lam[k - 1]
    return IndexedOperator({frozenset(): h_power(k, lk), frozenset({k}): u_power(k, lk)})


def f_tilde_pair(i: int, j: int, lam, window: int = 8) -> IndexedOperator:
    """The deformed entry
    (h_i^{lam_i} - u_i^{lam_i} zeta_i)(h_j^{lam_j} + u_j^{lam_j} zeta_j)
      + 2 sum_{k>0} (-1)^k h_i^{lam_i+k} h_j^{lam_j-k},   for i < j,
    the sum cut where an h exponent would leave [-window, window]."""
    if i == j:
        raise ValueError("diagonal entry")
    if i > j:
        return -f_tilde_pair(j, i, lam, window)
    li, lj = lam[i - 1], lam[j - 1]
    left = IndexedOperator({frozenset(): h_power(i, li), frozenset({i}): -u_power(i, li)})
    tail = _pair_series(i, j, li, lj, window)
    return left * f_tilde_border(j, lam) + IndexedOperator.scalar(tail)


def prop_A1_check(lam, K) -> bool:
    """Does the Pfaffian of the deformed entries equal the operator

        sum_{I u J = K}  sgn(K, J) h^I u^J f[I] zeta_J ?

    An operator sum_J a_J zeta_J is fixed by how it acts (apply it to each
    prod_{j in S} h_j and invert over S), so the two sides are compared
    coefficient by coefficient.  lam must supply an exponent for every
    index in K (lam[k-1] for index k).  The series are cut at the window
    sum(lam over K) + 5, and the coefficients are compared on the h
    exponents of absolute value at most 4, away from the boundary where
    the truncated series are inexact."""
    K = tuple(sorted(K))
    window = sum(lam[k - 1] for k in K) + 5

    lhs = pfaffian(
        len(K),
        lambda a, b: f_tilde_pair(K[a], K[b], lam, window),
        IndexedOperator.scalar(Polynomial.const(1)),
        border=lambda a: f_tilde_border(K[a], lam),
    )

    rhs = {}
    for t in range(len(K) + 1):
        for J in itertools.combinations(K, t):
            I = tuple(k for k in K if k not in J)
            powers = [h_power(i, lam[i - 1]) for i in I] + [u_power(j, lam[j - 1]) for j in J]
            rhs[frozenset(J)] = math.prod(powers, start=f_index(I, window) * sgn(K, J))

    return all(
        restrict(lhs.terms.get(J, Polynomial()), 4) == restrict(rhs.get(J, Polynomial()), 4)
        for J in lhs.terms.keys() | rhs.keys()
    )


# ---------------------------------------------------------------------------
# the algebraic pushforward maps
# ---------------------------------------------------------------------------


def _push_element(state: GammaElement, k: int, image) -> GammaElement:
    """Apply the linear map h_k^m -> image(m) coefficient-wise, leaving
    the other variables (and basis symbols) alone."""
    combo = {}
    for lam, coeff in state.combo.items():
        for m, sub in coeff.split(("h", k)).items():
            for nu, c in (GammaElement({lam: sub}) * image(m)).combo.items():
                _iadd(combo, nu, c)
    out = GammaElement()
    out.combo = combo
    return out


def pushforward(lam, series, exponents=None, paired=False) -> GammaElement:
    """(phi_1)_* ... (phi_r)_* applied to h_1^{m_1} ... h_r^{m_r} (to 1
    without exponents), one series c(k) = Q * g per index.  Step k is

        h_k^m -> (Q * g H)_{lam_k + m},   H = prod_{i<k} (1 - h_i)/(1 + h_i),

    H truncated at degree sum(lam) + sum(exponents) + 1; the convolution
    sum_j H_j c(k)_{n-j} is one coefficient since (Q * g) H = Q * (g H).
    The paired map, for the rows of multischur_pf_d, halves it and at
    m = 0 adds (-1)^{r-k} g_{lam_k} / 2."""
    lam = tuple(lam)
    r = len(lam)
    if len(series) != r:
        raise ValueError("need one series per index")
    exponents = tuple(exponents or (0,) * r)
    bound = sum(lam) + sum(exponents) + 1
    state = GammaElement.of(Polynomial({tuple((("h", k), m) for k, m in enumerate(exponents, 1)): 1}))
    for k in range(r, 0, -1):
        lk, g = lam[k - 1], series[k - 1].multiplier
        h = [Polynomial.variable("h", i) for i in range(1, k)]
        gH = GeneratorSeries(g * rational_series([1 - hi for hi in h], [1 + hi for hi in h], bound))
        extra = GammaElement.of(g.part(lk) * (-1) ** (r - k))

        def image(m):
            img = series_coeff(gH, lk + m)
            if paired:
                img = (img + extra if m == 0 else img).halve(1)
            return img

        state = _push_element(state, k, image)
    return state


def prop_A2_check(lam) -> bool:
    """Composite pushforward of 1 against the paired Pfaffian, scaled by
    2^-r, on the rows of `multischur.r_family`: d(k) = Q*g(k) with
    g(k) = prod_{j<=lam_k}(1+t_j).  The check runs in the basis ring
    itself, where Q Q* = 1 holds exactly, so it covers every concrete
    series F with F F* = 1 standing for Q."""
    lam = tuple(lam)
    return pushforward(lam, r_rows(lam), paired=True) == r_family(lam)


def plain_pushforward_check(lam, series, exponents) -> bool:
    """The degenerate (u = 0, g = 1, no halves) composite reproduces the
    index-shifted plain Pfaffian Pf_{lam + m}(c(1), ..., c(s))."""
    lhs = pushforward(lam, series, exponents)
    shifted = tuple(l + m for l, m in zip(lam, exponents))
    return lhs == multischur_pf(shifted, series)
