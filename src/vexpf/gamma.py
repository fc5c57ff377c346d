"""The ring Gamma = Z[Q_1, Q_2, ...]/(Q_k^2 + 2 sum_j (-1)^j Q_{k+j} Q_{k-j}).

Elements are kept in canonical form as integer (or polynomial) linear
combinations of the basis symbols Q_lambda, lambda a strict partition.
The half-generators P_lambda = 2^{-r} Q_lambda are Q_lambda with a
dyadic coefficient, so one straightening engine serves both rings.

The straightening algorithm: sort a generator monomial weakly
decreasing; eliminate equal adjacent pairs with the defining relation;
a strictly decreasing monomial equals the basis symbol Q_lambda minus
the other terms of its Pfaffian expansion, which are strictly higher in
dominance order (at fixed degree), so the recursion terminates.
The symmetries s0 and s1hat add variables to the alphabet of Q; the
branching rule maps each basis symbol straight to basis symbols.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .polycore import Polynomial, rational_series, render_terms


class TruncationTooSmall(ValueError):
    pass


def is_strict(parts) -> bool:
    return all(a > b for a, b in zip(parts, parts[1:])) and all(a > 0 for a in parts)


# ---------------------------------------------------------------------------
# generator-monomial expansions (integer coefficients)
# ---------------------------------------------------------------------------
# A "raw" element is a dict mapping generator monomials -- tuples of
# positive ints, sorted weakly decreasing -- to coefficients.  () is 1.


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def straighten_monomial(mono: tuple) -> dict:
    """Expand a generator monomial Q_{a_1} ... Q_{a_m} in the Q_lambda basis.

    Returns a dict {strict partition: integer coefficient}.
    """
    mono = _gens(mono)
    if len(mono) <= 1:
        return {mono: 1}
    # equal adjacent pair: apply the defining relation
    for i in range(len(mono) - 1):
        if mono[i] == mono[i + 1]:
            a = mono[i]
            rest = mono[:i] + mono[i + 2 :]
            out = {}
            for j in range(1, a + 1):
                # Q_a^2 = -2 sum_{j=1}^{a} (-1)^j Q_{a+j} Q_{a-j}
                repl = _gens(rest + (a + j, a - j))
                for lam, c in straighten_monomial(repl).items():
                    _iadd(out, lam, -2 * (-1) ** j * c)
            return out
    # strictly decreasing: peel off the Pfaffian expansion of Q_mono
    out = {mono: 1}
    for m, c in pf_expansion(mono).items():
        if m == mono:
            continue
        for lam, c2 in straighten_monomial(m).items():
            _iadd(out, lam, -c * c2)
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
            coeff = Polynomial.of(coeff)
            if not coeff:
                continue
            for lam, c in straighten_monomial(_gens(mono)).items():
                _iadd(combo, lam, coeff * c)
        return GammaElement(combo)

    def __bool__(self):
        return bool(self.combo)

    def __eq__(self, other):
        return self.combo == GammaElement.of(other).combo

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
        raws = []
        for factor in (self, GammaElement.of(other)):
            raw = {}
            for lam, coeff in factor.combo.items():
                for mono, c in pf_expansion(lam).items():
                    _iadd(raw, mono, coeff * c)
            raws.append(raw)
        return GammaElement.from_raw(_raw_mul(*raws))

    __rmul__ = __mul__

    def scale(self, d) -> "GammaElement":
        return self * Polynomial.const(d)

    def map_coeffs(self, fn) -> "GammaElement":
        return GammaElement({lam: fn(c) for lam, c in self.combo.items()})

    def degree(self) -> int:
        """Total degree, counting Q_k as degree k."""
        if not self.combo:
            return -1
        return max(sum(lam) + max(c.degree(), 0) for lam, c in self.combo.items())

    def graded_part(self, d: int) -> "GammaElement":
        return GammaElement(
            {lam: c.part(d - sum(lam)) for lam, c in self.combo.items() if d >= sum(lam)}
        )

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
        body = render_terms(combo[lam].terms, latex)
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
# generator series c = (Q ·) g
# ---------------------------------------------------------------------------


class GeneratorSeries:
    """A coefficient series c = Q * g (has_q) or just g, with g a finite
    polynomial with constant term 1.

    The half-generator series P * g of type B is not a separate kind: a
    Pfaffian term uses each row once, so its Pfaffian is 2^-r times the
    one of Q * g.
    """

    __slots__ = ("has_q", "multiplier")

    def __init__(self, has_q: bool, multiplier=1):
        multiplier = Polynomial.of(multiplier)
        if multiplier.constant_term() != 1:
            raise ValueError("series multiplier must have constant term 1")
        self.has_q = has_q
        self.multiplier = multiplier

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorSeries)
            and self.has_q == other.has_q
            and self.multiplier == other.multiplier
        )

    def coeff_raw(self, m: int) -> dict:
        """Degree-m coefficient as a raw dict {generator monomial: Polynomial}."""
        if m < 0:
            return {}
        out = {}
        if self.has_q:
            for i in range(0, m + 1):
                g = self.multiplier.part(i)
                if g:
                    _iadd(out, (m - i,) if m - i > 0 else (), g)
        else:
            g = self.multiplier.part(m)
            if g:
                out[()] = g
        return out

    def __repr__(self):
        return f"Q*({self.multiplier})" if self.has_q else f"({self.multiplier})"


Q_SERIES = GeneratorSeries(True, 1)


def series_coeff(c: GeneratorSeries, m: int) -> GammaElement:
    return GammaElement.from_raw(c.coeff_raw(m))


def q_pair(k: int, l: int, c_k: GeneratorSeries, c_l: GeneratorSeries) -> GammaElement:
    """The pair element  c(k)_k c(l)_l + 2 sum_{j=1}^{l} (-1)^j c(k)_{k+j} c(l)_{l-j}."""
    return GammaElement.from_raw(q_pair_raw(k, l, c_k, c_l))


def q_pair_raw(k: int, l: int, c_k: GeneratorSeries, c_l: GeneratorSeries) -> dict:
    out = _raw_mul(c_k.coeff_raw(k), c_l.coeff_raw(l))
    for j in range(1, l + 1):
        term = _raw_mul(c_k.coeff_raw(k + j), c_l.coeff_raw(l - j))
        for m, c in term.items():
            _iadd(out, m, c * (2 * (-1) ** j))
    return out


# ---------------------------------------------------------------------------
# ring symmetries
# ---------------------------------------------------------------------------


def _branch(e: GammaElement, v: Polynomial) -> GammaElement:
    """Add the variable v to the alphabet of Q (Macdonald III §5 and §8):
    Q_lambda(X, v) = sum_mu 2^a v^|lambda/mu| Q_mu(X) over strict mu with
    lambda_1 >= mu_1 >= lambda_2 >= mu_2 >= ..., a counting the columns i
    of the horizontal strip lambda/mu whose column i+1 is empty (column
    lambda_j + 1 holds a box exactly when mu_{j-1} = lambda_j)."""
    combo = {}
    for lam, coeff in e.combo.items():
        for mu in itertools.product(*(range(l, b - 1, -1) for l, b in zip(lam, lam[1:] + (0,)))):
            a = sum(m < l and not (j and mu[j - 1] == l) for j, (m, l) in enumerate(zip(mu, lam)))
            mu = mu[:-1] if mu and not mu[-1] else mu
            if is_strict(mu):
                _iadd(combo, mu, coeff * (v ** (sum(lam) - sum(mu)) * (1 << a)))
    return GammaElement(combo)


def apply_symmetry(op, e: GammaElement) -> GammaElement:
    """Apply a ring symmetry.  op is one of
    ("s", i, fam) for i >= 1 -- swap fam_i and fam_{i+1}, fixing the Q_k;
    ("s0", fam)              -- negate fam_1 and add fam_1 to the alphabet of Q;
    ("s1hat",)               -- the type-D swap x_1 -> -x_2, x_2 -> -x_1,
                                adding x_1 and x_2 to the alphabet of Q.
    """
    kind = op[0]
    if kind == "s":
        _, i, fam = op
        sub = {
            (fam, i): Polynomial.variable(fam, i + 1),
            (fam, i + 1): Polynomial.variable(fam, i),
        }
        return e.map_coeffs(lambda c: c.substitute(sub))
    if kind == "s0":
        v = Polynomial.variable(op[1], 1)
        sub, added = {(op[1], 1): -v}, [v]
    elif kind == "s1hat":
        x1, x2 = Polynomial.variable("x", 1), Polynomial.variable("x", 2)
        sub, added = {("x", 1): -x2, ("x", 2): -x1}, [x1, x2]
    else:
        raise ValueError(f"unknown symmetry {op!r}")
    out = e.map_coeffs(lambda c: c.substitute(sub))
    for v in added:
        out = _branch(out, v)
    return out


# ---------------------------------------------------------------------------
# specialization oracles
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


def symfun_series(n_vars: int, bound: int) -> Polynomial:
    """prod_{i=1}^{N} (1+z_i)/(1-z_i), truncated at total degree `bound`."""
    z = [Polynomial.variable("z", i) for i in range(1, n_vars + 1)]
    return rational_series([1 + zi for zi in z], [1 - zi for zi in z], bound)


def negt_series(nu, bound: int) -> Polynomial:
    """prod_i (1 - t_{nu_i})/(1 + t_{nu_i}), truncated at total degree `bound`."""
    t = [Polynomial.variable("t", i) for i in nu]
    return rational_series([1 - ti for ti in t], [1 + ti for ti in t], bound)


def specialize_oracle(e: GammaElement, mode) -> Polynomial:
    """Faithful specializations of Gamma.

    mode = ("symfun", N, D): Q -> prod_{i<=N} (1+z_i)/(1-z_i) up to degree D;
    mode = ("negt", nu):     Q -> prod_i (1-t_{nu_i})/(1+t_{nu_i}).
    """
    if mode[0] == "symfun":
        _, n_vars, bound = mode
        if bound < e.degree():
            raise TruncationTooSmall(
                f"degree {e.degree()} element needs truncation >= that, got {bound}"
            )
        return substitute_q(e, symfun_series(n_vars, bound))
    if mode[0] == "negt":
        nu = mode[1]
        # the defining Pfaffian of Q_lambda uses generators up to lambda_1 + lambda_2
        bound = max((sum(lam[:2]) for lam in e.combo), default=0)
        return substitute_q(e, negt_series(nu, bound))
    raise ValueError(f"unknown specialization mode {mode!r}")
