"""Operator calculus behind the pushforward Pfaffian formula.

Two layers:

  * windowed Laurent arithmetic in the h variables (exponents confined
    to [-D, D]) together with formal operators built from the
    substitutions zeta_J : h_i -> 0 for i in J.  The identities relating
    the rational functions f[i,j] = (1 - h_i/h_j)/(1 + h_i/h_j), their
    deformations, and the sign bookkeeping are verified extensionally on
    test monomials;

  * the algebraic pushforward maps phi_k eliminating h_k one at a time,
    whose composite is a paired multi-Schur Pfaffian
    (prop_A2_check), with a plain single-series degeneration
    (pushforward_plain) matching the even simpler Pfaffian shift rule.

Series in f[i,j] are always expanded in powers of h_i/h_j for i < j,
so skew-symmetry holds on the nose.  Comparisons stay away from the
window boundary: multiplication silently drops out-of-window terms, so
coefficients within a margin of the boundary are not trustworthy and
equality checks restrict to a smaller window.
"""

from __future__ import annotations

import itertools

from .polycore import (
    Dyadic,
    Polynomial,
    _mono_degree,
    _mono_mul,
    _var_key,
    render_terms,
)
from .gamma import GammaElement, GeneratorSeries, series_coeff
from .multischur import multischur_pf, multischur_pf_d, pfaffian, rational_series


class WindowTooSmall(ValueError):
    pass


class RelationViolated(ValueError):
    pass


# ---------------------------------------------------------------------------
# windowed Laurent elements
# ---------------------------------------------------------------------------


def _window_ok(mono, window):
    return all(abs(e) <= window for v, e in mono if v[0] == "h")


def _laurent_mono_mul(m1, m2):
    # like polycore's monomial product, but cancelling exponents (from
    # negative powers) must drop out entirely
    return tuple(p for p in _mono_mul(m1, m2) if p[1])


class LaurentElement:
    """Sparse Laurent polynomial: h variables may carry negative
    exponents, everything else stays polynomial.  Terms whose h
    exponents leave [-window, window] are dropped by multiplication."""

    __slots__ = ("terms", "window")

    def __init__(self, terms=None, window=8):
        self.window = window
        self.terms = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
                coeff = Dyadic.of(coeff)
                mono = tuple(sorted((p for p in mono if p[1]), key=lambda p: _var_key(p[0])))
                if not coeff or not _window_ok(mono, window):
                    continue
                acc = self.terms.get(mono)
                coeff = coeff if acc is None else acc + coeff
                if coeff:
                    self.terms[mono] = coeff
                else:
                    del self.terms[mono]

    @staticmethod
    def const(c, window=8) -> "LaurentElement":
        return LaurentElement({(): c}, window)

    @staticmethod
    def h_power(i: int, e: int, window=8) -> "LaurentElement":
        return LaurentElement({((("h", i), e),): 1}, window)

    @staticmethod
    def u_power(i: int, e: int, window=8) -> "LaurentElement":
        if e < 0:
            raise ValueError("u exponents are nonnegative")
        return LaurentElement({((("u", i), e),): 1}, window)

    @staticmethod
    def from_poly(p: Polynomial, window=8) -> "LaurentElement":
        return LaurentElement(dict(p.terms), window)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        out = LaurentElement(window=self.window)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other):
        out = LaurentElement(window=min(self.window, other.window))
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.terms.get(m)
            c = c if acc is None else acc + c
            if c:
                out.terms[m] = c
            else:
                out.terms.pop(m, None)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Dyadic)):
            other = LaurentElement.const(other, self.window)
        window = min(self.window, other.window)
        out = LaurentElement(window=window)
        acc = out.terms
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _laurent_mono_mul(m1, m2)
                if not _window_ok(m, window):
                    continue
                c = c1 * c2
                old = acc.get(m)
                c = c if old is None else old + c
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return out

    __rmul__ = __mul__

    def zeta(self, J) -> "LaurentElement":
        """The ring map h_i -> 0 for i in J (u and everything else fixed)."""
        J = frozenset(J)
        out = LaurentElement(window=self.window)
        for mono, coeff in self.terms.items():
            killed = False
            for v, e in mono:
                if v[0] == "h" and v[1] in J:
                    if e < 0:
                        raise ValueError(
                            f"zeta_{set(J)} hits a negative power of h{v[1]}"
                        )
                    killed = True
                    break
            if not killed:
                out.terms[mono] = coeff
        return out

    def restrict(self, bound: int) -> "LaurentElement":
        """Keep only terms with all |h exponents| <= bound."""
        out = LaurentElement(window=self.window)
        out.terms = {m: c for m, c in self.terms.items() if _window_ok(m, bound)}
        return out

    def __str__(self):
        return render_terms(self.terms)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the rational functions f[i,j] and their Pfaffians
# ---------------------------------------------------------------------------


def f_pair(i: int, j: int, window: int = 8) -> LaurentElement:
    """(1 - h_i/h_j)/(1 + h_i/h_j), expanded in powers of h_i/h_j when
    i < j; f[j,i] = -f[i,j] by expanding in the same region."""
    if i == j:
        raise ValueError("f[i,i] is undefined")
    if i > j:
        return -f_pair(j, i, window)
    out = LaurentElement.const(1, window)
    for k in range(1, window + 1):
        out = out + LaurentElement(
            {((("h", i), k), (("h", j), -k)): 2 * (-1) ** k}, window
        )
    return out


def f_index(I, window: int = 8) -> LaurentElement:
    """The Pfaffian f[I] of the matrix (f[i,j]) with border entries 1."""
    I = tuple(sorted(I))
    one = LaurentElement.const(1, window)
    return pfaffian(len(I), lambda a, b: f_pair(I[a], I[b], window), one, border=lambda a: one)


def f_index_identity(I, window: int = 8) -> bool:
    """Does f[I] (the Pfaffian) equal the product of f[i,j] over pairs?

    Exponents grow monotonically along the index chain, so the two
    truncations agree on the nose and the comparison is exact."""
    I = tuple(sorted(I))
    if window < 2 * max(len(I), 1):
        raise WindowTooSmall(f"window {window} too small for |I| = {len(I)}")
    lhs = f_index(I, window)
    rhs = LaurentElement.const(1, window)
    for i, j in itertools.combinations(I, 2):
        rhs = rhs * f_pair(i, j, window)
    return lhs == rhs


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


def sign_functions(K, J, k):
    return epsilon(k, K), sgn(K, J)


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
        if terms:
            for J, coeff in terms.items():
                if coeff:
                    J = frozenset(J)
                    acc = self.terms.get(J)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff:
                        self.terms[J] = coeff
                    else:
                        del self.terms[J]

    @staticmethod
    def scalar(le: LaurentElement) -> "IndexedOperator":
        return IndexedOperator({frozenset(): le})

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
            acc = out.terms.get(J)
            c = c if acc is None else acc + c
            if c:
                out.terms[J] = c
            else:
                out.terms.pop(J, None)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = IndexedOperator()
        for J1, c1 in self.terms.items():
            for J2, c2 in other.terms.items():
                coeff = c1 * c2.zeta(J1)
                key = J1 | J2
                acc = out.terms.get(key)
                coeff = coeff if acc is None else acc + coeff
                if coeff:
                    out.terms[key] = coeff
                else:
                    out.terms.pop(key, None)
        return out

    def apply(self, f: LaurentElement) -> LaurentElement:
        out = LaurentElement(window=f.window)
        for J, coeff in self.terms.items():
            out = out + coeff * f.zeta(J)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for J in sorted(self.terms, key=sorted):
            tag = "".join(f" z{j}" for j in sorted(J))
            bits.append(f"({self.terms[J]}){tag}")
        return " + ".join(bits)


def f_tilde_border(k: int, lam, window: int = 8) -> IndexedOperator:
    """h_k^{lam_k} + u_k^{lam_k} zeta_k  (lam is indexed by position, so
    lam[k-1] is the exponent attached to index k)."""
    lk = lam[k - 1]
    return IndexedOperator(
        {
            frozenset(): LaurentElement.h_power(k, lk, window),
            frozenset({k}): LaurentElement.u_power(k, lk, window),
        }
    )


def f_tilde_pair(i: int, j: int, lam, window: int = 8) -> IndexedOperator:
    """The deformed entry
    (h_i^{lam_i} - u_i^{lam_i} zeta_i)(h_j^{lam_j} + u_j^{lam_j} zeta_j)
      + 2 sum_{k>0} (-1)^k h_i^{lam_i+k} h_j^{lam_j-k},   for i < j."""
    if i == j:
        raise ValueError("diagonal entry")
    if i > j:
        return -f_tilde_pair(j, i, lam, window)
    li, lj = lam[i - 1], lam[j - 1]
    left = IndexedOperator(
        {
            frozenset(): LaurentElement.h_power(i, li, window),
            frozenset({i}): -LaurentElement.u_power(i, li, window),
        }
    )
    out = left * f_tilde_border(j, lam, window)
    tail = LaurentElement(window=window)
    for k in range(1, min(window - li, window + lj) + 1):
        tail = tail + LaurentElement(
            {((("h", i), li + k), (("h", j), lj - k)): 2 * (-1) ** k}, window
        )
    return out + IndexedOperator.scalar(tail)


def _default_monomials(K, window):
    K = tuple(sorted(K))
    monos = [LaurentElement.const(1, window)]
    for k in K:
        monos.append(LaurentElement.h_power(k, 1, window))
        monos.append(LaurentElement.u_power(k, 1, window))
    monos.append(LaurentElement.h_power(K[0], 2, window))
    if len(K) >= 2:
        monos.append(
            LaurentElement.h_power(K[0], 1, window)
            * LaurentElement.h_power(K[1], 1, window)
        )
        monos.append(
            LaurentElement.h_power(K[0], 1, window)
            * LaurentElement.u_power(K[-1], 1, window)
        )
    if len(K) >= 3:
        monos.append(
            LaurentElement.h_power(K[0], 1, window)
            * LaurentElement.h_power(K[1], 1, window)
            * LaurentElement.u_power(K[2], 1, window)
        )
    return monos


def prop_A1_check(lam, K, monomials=None, window: int = None) -> bool:
    """Extensional check that the Pfaffian of the deformed entries equals

        sum_{I u J = K}  sgn(K, J) h^I u^J f[I] zeta_J

    on each test monomial.  lam must supply an exponent for every index
    in K (lam[k-1] for index k)."""
    K = tuple(sorted(K))
    needed = sum(lam[k - 1] for k in K)
    if monomials is None:
        monomials = _default_monomials(K, window or (needed + 4))
    maxdeg = max(
        (max((_mono_degree(m) for m in f.terms), default=0) for f in monomials),
        default=0,
    )
    required = needed + maxdeg + 2
    if window is None:
        window = required
    elif window < required:
        raise WindowTooSmall(f"window {window} < required {required}")

    lhs = pfaffian(
        len(K),
        lambda a, b: f_tilde_pair(K[a], K[b], lam, window),
        IndexedOperator.scalar(LaurentElement.const(1, window)),
        border=lambda a: f_tilde_border(K[a], lam, window),
    )

    rhs = IndexedOperator()
    for t in range(len(K) + 1):
        for J in itertools.combinations(K, t):
            I = tuple(k for k in K if k not in J)
            coeff = LaurentElement.const(sgn(K, J), window)
            for i in I:
                coeff = coeff * LaurentElement.h_power(i, lam[i - 1], window)
            for j in J:
                coeff = coeff * LaurentElement.u_power(j, lam[j - 1], window)
            coeff = coeff * f_index(I, window)
            rhs = rhs + IndexedOperator({frozenset(J): coeff})

    bound = window - needed - 1
    for f in monomials:
        if lhs.apply(f).restrict(bound) != rhs.apply(f).restrict(bound):
            return False
    return True


# ---------------------------------------------------------------------------
# the algebraic pushforward maps
# ---------------------------------------------------------------------------


def _h_factor_series(count: int, bound: int) -> Polynomial:
    """prod_{i=1}^{count} (1 - h_i)/(1 + h_i), truncated at degree bound."""
    num = [1 - Polynomial.variable("h", i) for i in range(1, count + 1)]
    den = [1 + Polynomial.variable("h", i) for i in range(1, count + 1)]
    return rational_series(num, den, bound)


def _split_h(poly: Polynomial, k: int):
    """Decompose by the exponent of h_k: {m: coefficient polynomial}."""
    out = {}
    for mono, coeff in poly.terms.items():
        m = 0
        rest = []
        for v, e in mono:
            if v == ("h", k):
                m = e
            else:
                rest.append((v, e))
        acc = out.setdefault(m, Polynomial())
        out[m] = acc + Polynomial({tuple(rest): coeff})
    return out


def _push_element(state: GammaElement, k: int, image) -> GammaElement:
    """Apply the linear map h_k^m -> image(m) coefficient-wise, leaving
    the other variables (and basis symbols) alone."""
    out = GammaElement.zero()
    for lam, coeff in state.combo.items():
        for m, sub in _split_h(coeff, k).items():
            img = image(m)
            if img:
                out = out + GammaElement({lam: sub}) * img
    return out


def pushforward_plain(state: GammaElement, k: int, lam_k: int, c: GeneratorSeries,
                      bound: int) -> GammaElement:
    """The single-series elimination of h_k:
    h_k^m -> sum_j H^(k)_j c_{lam_k + m - j}."""
    H = _h_factor_series(k - 1, bound)

    def image(m):
        acc = GammaElement.zero()
        for j in range(0, lam_k + m + 1):
            hj = H.part(j)
            if hj:
                acc = acc + series_coeff(c, lam_k + m - j) * hj
        return acc

    return _push_element(GammaElement.of(state), k, image)


def pushforward_paired(state: GammaElement, k: int, lam_k: int, g: Polynomial,
                       d: GeneratorSeries, r: int, bound: int) -> GammaElement:
    """The paired elimination of h_k:
    h_k^m -> 1/2 sum_j H^(k)_j d_{lam_k+m-j}  +  1/2 (-1)^{r-k} delta_{m,0} g_{lam_k}."""
    H = _h_factor_series(k - 1, bound)
    half = Dyadic(1, 1)

    def image(m):
        acc = GammaElement.zero()
        for j in range(0, lam_k + m + 1):
            hj = H.part(j)
            if hj:
                acc = acc + series_coeff(d, lam_k + m - j) * hj
        acc = acc.scale(half)
        if m == 0:
            extra = g.part(lam_k) * (half if (r - k) % 2 == 0 else -half)
            acc = acc + GammaElement.of(extra)
        return acc

    return _push_element(GammaElement.of(state), k, image)


def pushforward_compose(lam, pairs, start=None) -> GammaElement:
    """(phi_1)_* ... (phi_r)_* applied to `start` (default 1), for paired
    data like multischur_pf_d's: one (g, d) per index."""
    lam = tuple(lam)
    r = len(lam)
    if len(pairs) != r:
        raise ValueError("need one g|d pair per index")
    bound = sum(lam) + 1
    state = GammaElement.one() if start is None else GammaElement.of(start)
    for k in range(r, 0, -1):
        g, d = pairs[k - 1]
        state = pushforward_paired(state, k, lam[k - 1], Polynomial.of(g), d, r, bound)
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


def check_star_relations(pairs, bound: int):
    """d(i) d(j)* = g(i) g(j)* for all i < j, up to total degree bound."""
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gi, di = pairs[i]
            gj, dj = pairs[j]
            if di.has_q != dj.has_q:
                raise RelationViolated("mixed series types")
            lhs = (di.multiplier * dj.multiplier.star()).truncate(bound)
            rhs = (Polynomial.of(gi) * Polynomial.of(gj).star()).truncate(bound)
            if lhs != rhs:
                raise RelationViolated(
                    f"d({i+1}) d({j+1})* != g({i+1}) g({j+1})* below degree {bound}"
                )


def default_a2_data(lam, extra: int = 0):
    """Symbolic test data: g(k) = prod_{j<=lam_k}(1+t_j) and d(k) = F g(k)
    with F = (1+z_1)/(1-z_1) truncated -- so F F* = 1 holds exactly below
    the truncation degree."""
    lam = tuple(lam)
    bound = sum(lam) + extra + 1
    z = Polynomial.variable("z", 1)
    F = rational_series([1 + z], [1 - z], bound)
    pairs = []
    for k in lam:
        g = Polynomial.const(1)
        for j in range(1, k + 1):
            g = g * (1 + Polynomial.variable("t", j))
        d = GeneratorSeries(False, (F * g).truncate(bound))
        pairs.append((g, d))
    return pairs


def prop_A2_check(lam, pairs=None) -> bool:
    """Composite pushforward of 1 against the paired Pfaffian, scaled by
    2^-r.  The star relations are verified up to the consumed degree
    first (RelationViolated on failure)."""
    lam = tuple(lam)
    r = len(lam)
    if pairs is None:
        pairs = default_a2_data(lam)
    check_star_relations(pairs, sum(lam))
    lhs = pushforward_compose(lam, pairs)
    rhs = multischur_pf_d(lam, pairs, check=False).scale(Dyadic(1, r))
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
