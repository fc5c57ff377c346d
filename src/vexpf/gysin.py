"""The paper's checks in the plain polynomial ring.

Appendix A.1 lives on Laurent polynomials in the h variables (plain
Polynomials whose h exponents may be negative): the sign lemma, the
Pfaffian/product identity of the rational functions
f[i,j] = (1 - h_i/h_j)/(1 + h_i/h_j), and the deformed operator
identity, where an operator sum_J a_J zeta_J, zeta_J : h_i -> 0 for i
in J, is the Polynomial sum_J a_J z^J.  Appendix A.2 is the composite of
the pushforward maps phi_k, each eliminating one h_k (`pushforward`),
against the paired Pfaffian of `multischur.r_family`, checked in the
basis ring itself.  Lemma 2.5's specialization (`substitute_q`) sends
each Q_lambda to its defining Pfaffian in a concrete series.  Every
Pfaffian of polynomial entries here goes through `multischur.pfaffian`.

f[i,j] is expanded in powers of h_i/h_j for i < j, so skew-symmetry
holds on the nose, and keeps the h exponents in a window [-D, D].
Arithmetic is exact, so a comparison that needs a window `restrict`s.
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
    """The Pfaffian f[I] of the matrix (f[i,j]) with border entries 1.  It
    needs no `restrict`: each h_i sits in one entry of each of its terms."""
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
# the deformed entries, zeta_j marked by z_j
# ---------------------------------------------------------------------------


def f_tilde_border(k: int, lam) -> Polynomial:
    """h_k^{lam_k} + u_k^{lam_k} z_k  (lam is indexed by position, so
    lam[k-1] is the exponent attached to index k)."""
    lk = lam[k - 1]
    return h_power(k, lk) + u_power(k, lk) * Polynomial.variable("z", k)


def f_tilde_pair(i: int, j: int, lam, window: int = 8) -> Polynomial:
    """The deformed entry
    (h_i^{lam_i} - u_i^{lam_i} z_i)(h_j^{lam_j} + u_j^{lam_j} z_j)
      + 2 sum_{k>0} (-1)^k h_i^{lam_i+k} h_j^{lam_j-k},   for i < j,
    the sum cut where an h exponent would leave [-window, window]."""
    if i == j:
        raise ValueError("diagonal entry")
    if i > j:
        return -f_tilde_pair(j, i, lam, window)
    li = lam[i - 1]
    left = h_power(i, li) - u_power(i, li) * Polynomial.variable("z", i)
    return left * f_tilde_border(j, lam) + _pair_series(i, j, li, lam[j - 1], window)


def prop_A1_check(lam, K) -> bool:
    """Does the Pfaffian of the deformed entries equal the operator
    sum_{I u J = K} sgn(K, J) h^I u^J f[I] zeta_J?  An operator
    sum_J a_J zeta_J is fixed by how it acts, and is written here as the
    Polynomial sum_J a_J z^J.  The markers are exact: a Pfaffian term
    uses each index once, so no zeta_j meets an h_j or a z_j of another
    entry.  The Pfaffian is split by its z exponents and compared z^J
    coefficient by coefficient.  lam supplies lam[k-1] for each index k
    in K.  The series are cut at the window sum(lam over K) + 5 and
    compared on |h exponents| <= 4, away from the boundary where the
    truncated series are inexact."""
    K = tuple(sorted(K))
    window = sum(lam[k - 1] for k in K) + 5
    lhs = {(): pfaffian(
        len(K),
        lambda a, b: f_tilde_pair(K[a], K[b], lam, window),
        Polynomial.const(1),
        border=lambda a: f_tilde_border(K[a], lam),
    )}
    for k in K:
        lhs = {J + (k,) * e: c for J, f in lhs.items() for e, c in f.split(("z", k)).items()}

    rhs = {}
    for t in range(len(K) + 1):
        for J in itertools.combinations(K, t):
            I = tuple(k for k in K if k not in J)
            powers = [h_power(i, lam[i - 1]) for i in I] + [u_power(j, lam[j - 1]) for j in J]
            rhs[J] = math.prod(powers, start=f_index(I, window) * sgn(K, J))

    return all(
        restrict(lhs.get(J, Polynomial()), 4) == restrict(rhs.get(J, Polynomial()), 4)
        for J in lhs.keys() | rhs.keys()
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
    return GammaElement._of(combo)


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


# ---------------------------------------------------------------------------
# the specialization of lemma25
# ---------------------------------------------------------------------------


def substitute_q(e: GammaElement, series: Polynomial) -> Polynomial:
    """Substitute a concrete power series A (with A A* = 1 where it matters)
    for Q: each basis symbol Q_lambda becomes its defining Pfaffian, with
    entries A_a A_b + 2 sum_{j=1}^{b} (-1)^j A_{a+j} A_{b-j} and border
    A_a, A_m the degree-m part of A and A_0 = 1, as Q_0 = 1."""
    parts, one = series.parts(), Polynomial.const(1)

    def part(m):
        return parts.get(m, Polynomial()) if m else one

    def entry(a, b):
        tail = (part(a + j) * part(b - j) * (2 * (-1) ** j) for j in range(1, b + 1))
        return sum(tail, part(a) * part(b))

    out = Polynomial()
    for lam, coeff in e.combo.items():
        image = pfaffian(len(lam), lambda i, j: entry(lam[i], lam[j]), one, border=lambda i: part(lam[i]))
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
