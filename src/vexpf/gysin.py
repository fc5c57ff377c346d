"""Operator calculus behind the pushforward Pfaffian formula.

Two layers:

  * Laurent polynomials in the h variables -- plain polycore
    Polynomials whose h exponents may be negative -- together with
    formal operators built from the substitutions zeta_J : h_i -> 0 for
    i in J.  The identities relating the rational functions
    f[i,j] = (1 - h_i/h_j)/(1 + h_i/h_j), their deformations, and the
    sign bookkeeping are verified extensionally on test monomials;

  * the algebraic pushforward maps phi_k eliminating h_k one at a time,
    whose composite is a paired multi-Schur Pfaffian
    (prop_A2_check), with a plain single-series degeneration
    (pushforward_plain) matching the even simpler Pfaffian shift rule.
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
from fractions import Fraction

from .polycore import Polynomial, exponent, rational_series
from .gamma import GammaElement, GeneratorSeries, _iadd, series_coeff
from .multischur import multischur_pf, multischur_pf_d, pfaffian, r_rows


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


def f_pair(i: int, j: int, window: int = 8) -> Polynomial:
    """(1 - h_i/h_j)/(1 + h_i/h_j), expanded in powers of h_i/h_j when
    i < j up to h_i^window; f[j,i] = -f[i,j] by expanding in the same region."""
    if i == j:
        raise ValueError("f[i,i] is undefined")
    if i > j:
        return -f_pair(j, i, window)
    terms = {((("h", i), k), (("h", j), -k)): 2 * (-1) ** k for k in range(1, window + 1)}
    return Polynomial(terms) + 1


def f_index(I, window: int = 8) -> Polynomial:
    """The Pfaffian f[I] of the matrix (f[i,j]) with border entries 1."""
    I = tuple(sorted(I))
    one = Polynomial.const(1)
    return pfaffian(len(I), lambda a, b: f_pair(I[a], I[b], window), one, border=lambda a: one)


def f_index_identity(I, window: int = 8) -> bool:
    """Does f[I] (the Pfaffian) equal the product of f[i,j] over pairs?

    Exponents grow monotonically along the index chain, so restricting
    the product to the window after every factor reproduces the
    truncation of the Pfaffian side on the nose."""
    I = tuple(sorted(I))
    if window < 2 * max(len(I), 1):
        raise WindowTooSmall(f"window {window} too small for |I| = {len(I)}")
    rhs = Polynomial.const(1)
    for i, j in itertools.combinations(I, 2):
        rhs = restrict(rhs * f_pair(i, j, window), window)
    return f_index(I, window) == rhs


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

    def apply(self, f: Polynomial) -> Polynomial:
        out = Polynomial()
        for J, coeff in self.terms.items():
            out = out + coeff * zeta(f, J)
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
    tail = Polynomial(
        {((("h", i), li + k), (("h", j), lj - k)): 2 * (-1) ** k
         for k in range(1, min(window - li, window + lj) + 1)}
    )
    return left * f_tilde_border(j, lam) + IndexedOperator.scalar(tail)


def _default_monomials(K):
    K = tuple(sorted(K))
    monos = [Polynomial.const(1)]
    for k in K:
        monos.append(h_power(k, 1))
        monos.append(u_power(k, 1))
    if K:
        monos.append(h_power(K[0], 2))
    if len(K) >= 2:
        monos.append(h_power(K[0], 1) * h_power(K[1], 1))
        monos.append(h_power(K[0], 1) * u_power(K[-1], 1))
    if len(K) >= 3:
        monos.append(h_power(K[0], 1) * h_power(K[1], 1) * u_power(K[2], 1))
    return monos


def prop_A1_check(lam, K, monomials=None, window: int = None) -> bool:
    """Extensional check that the Pfaffian of the deformed entries equals

        sum_{I u J = K}  sgn(K, J) h^I u^J f[I] zeta_J

    on each test monomial.  lam must supply an exponent for every index
    in K (lam[k-1] for index k).  Both sides are compared on the h
    exponents of absolute value at most window - sum(lam over K) - 1,
    away from the boundary where the truncated series are inexact."""
    K = tuple(sorted(K))
    needed = sum(lam[k - 1] for k in K)
    if monomials is None:
        monomials = _default_monomials(K)
    required = needed + max((f.degree() if f else 0 for f in monomials), default=0) + 2
    if window is None:
        window = required
    elif window < required:
        raise WindowTooSmall(f"window {window} < required {required}")

    lhs = pfaffian(
        len(K),
        lambda a, b: f_tilde_pair(K[a], K[b], lam, window),
        IndexedOperator.scalar(Polynomial.const(1)),
        border=lambda a: f_tilde_border(K[a], lam),
    )

    rhs = IndexedOperator()
    for t in range(len(K) + 1):
        for J in itertools.combinations(K, t):
            I = tuple(k for k in K if k not in J)
            coeff = f_index(I, window) * sgn(K, J)
            for i in I:
                coeff = coeff * h_power(i, lam[i - 1])
            for j in J:
                coeff = coeff * u_power(j, lam[j - 1])
            rhs = rhs + IndexedOperator({frozenset(J): coeff})

    bound = window - needed - 1
    return all(
        restrict(lhs.apply(f), bound) == restrict(rhs.apply(f), bound) for f in monomials
    )


# ---------------------------------------------------------------------------
# the algebraic pushforward maps
# ---------------------------------------------------------------------------


def _push_element(state: GammaElement, k: int, image) -> GammaElement:
    """Apply the linear map h_k^m -> image(m) coefficient-wise, leaving
    the other variables (and basis symbols) alone."""
    out = GammaElement.zero()
    for lam, coeff in state.combo.items():
        for m, sub in coeff.split(("h", k)).items():
            img = image(m)
            if img:
                out = out + GammaElement({lam: sub}) * img
    return out


def _h_convolution(k: int, lam_k: int, c: GeneratorSeries, bound: int):
    """m -> sum_j H^(k)_j c_{lam_k + m - j}, with H^(k) the series
    prod_{i<k} (1 - h_i)/(1 + h_i) truncated at degree bound."""
    h = [Polynomial.variable("h", i) for i in range(1, k)]
    H = rational_series([1 - hi for hi in h], [1 + hi for hi in h], bound)

    def image(m):
        acc = GammaElement.zero()
        for j in range(0, lam_k + m + 1):
            hj = H.part(j)
            if hj:
                acc = acc + series_coeff(c, lam_k + m - j) * hj
        return acc

    return image


def pushforward_plain(state: GammaElement, k: int, lam_k: int, c: GeneratorSeries,
                      bound: int) -> GammaElement:
    """The single-series elimination of h_k:
    h_k^m -> sum_j H^(k)_j c_{lam_k + m - j}."""
    return _push_element(GammaElement.of(state), k, _h_convolution(k, lam_k, c, bound))


def pushforward_paired(state: GammaElement, k: int, lam_k: int, d: GeneratorSeries,
                       r: int, bound: int) -> GammaElement:
    """The paired elimination of h_k, g the multiplier of d = Q * g:
    h_k^m -> 1/2 sum_j H^(k)_j d_{lam_k+m-j}  +  1/2 (-1)^{r-k} delta_{m,0} g_{lam_k}."""
    convolution = _h_convolution(k, lam_k, d, bound)
    half = Fraction(1, 2)

    def image(m):
        acc = convolution(m).scale(half)
        if m == 0:
            extra = d.multiplier.part(lam_k) * (half if (r - k) % 2 == 0 else -half)
            acc = acc + GammaElement.of(extra)
        return acc

    return _push_element(GammaElement.of(state), k, image)


def pushforward_compose(lam, series) -> GammaElement:
    """(phi_1)_* ... (phi_r)_* applied to 1, for the rows of
    multischur_pf_d: one series d = Q * g per index."""
    lam = tuple(lam)
    r = len(lam)
    if len(series) != r:
        raise ValueError("need one series per index")
    bound = sum(lam) + 1
    state = GammaElement.one()
    for k in range(r, 0, -1):
        state = pushforward_paired(state, k, lam[k - 1], series[k - 1], r, bound)
    return state


def pushforward_compose_plain(lam, series, exponents=None) -> GammaElement:
    """The single-series composite: h^m |-> the value of
    (phi_1)_* ... (phi_s)_* on h_1^{m_1} ... h_s^{m_s}."""
    lam = tuple(lam)
    s = len(lam)
    if len(series) != s:
        raise ValueError("need one series per index")
    exponents = tuple(exponents) if exponents else (0,) * s
    bound = sum(lam) + sum(exponents) + 1
    start = Polynomial.const(1)
    for k in range(1, s + 1):
        start = start * Polynomial.variable("h", k) ** exponents[k - 1]
    state = GammaElement.of(start)
    for k in range(s, 0, -1):
        state = pushforward_plain(state, k, lam[k - 1], series[k - 1], bound)
    return state


def prop_A2_check(lam) -> bool:
    """Composite pushforward of 1 against the paired Pfaffian, scaled by
    2^-r, on the rows of `multischur.r_family`: d(k) = Q*g(k) with
    g(k) = prod_{j<=lam_k}(1+t_j).  The check runs in the basis ring
    itself, where Q Q* = 1 holds exactly, so it covers every concrete
    series F with F F* = 1 standing for Q."""
    lam = tuple(lam)
    series = r_rows(lam)
    lhs = pushforward_compose(lam, series)
    rhs = multischur_pf_d(lam, series, check=False).halve(len(lam))
    return lhs == rhs


def plain_pushforward_check(lam, series, exponents) -> bool:
    """The degenerate (u = 0, g = 1, no halves) composite reproduces the
    index-shifted plain Pfaffian Pf_{lam + m}(c(1), ..., c(s))."""
    lam = tuple(lam)
    exponents = tuple(exponents)
    lhs = pushforward_compose_plain(lam, series, exponents)
    shifted = tuple(l + m for l, m in zip(lam, exponents))
    rhs = multischur_pf(shifted, series, check=False)
    return lhs == rhs
