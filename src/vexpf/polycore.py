"""Exact sparse multivariate polynomials over dyadic rationals.

Everything downstream (basis elements, Pfaffians, divided differences)
stores its scalars here.  Coefficients are dyadic rationals n/2^e: a
plain int, or a Fraction whose denominator is a power of 2.  Sums and
products of such values stay dyadic, so the arithmetic is Python's own;
`dyadic` checks a value only where a division or outside input can
bring in another denominator (the constructors, the quotients of
`exact_divide` and `series_inverse`), so an illegal division fails
early instead of silently producing a rational.

Variables come in six families, printed in the fixed order
x < y < t < z < h < u (then by index).  A variable is a plain tuple
``(family, index)`` with index >= 1.  The h variables may also carry
negative exponents: the Laurent polynomials of the gysin checks are
ordinary Polynomials.
"""

from __future__ import annotations

from fractions import Fraction

FAMILIES = ("x", "y", "t", "z", "h", "u")
_FAM_RANK = {f: i for i, f in enumerate(FAMILIES)}


class NotDivisible(ArithmeticError):
    """Raised when an exact division does not come out exact."""


def var(family: str, index: int) -> tuple[str, int]:
    if family not in _FAM_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if index < 1:
        raise ValueError("variable index must be >= 1")
    return (family, index)


def _var_key(v):
    return (_FAM_RANK[v[0]], v[1])


def dyadic(value):
    """value as a coefficient: an int when it is integral, else a Fraction
    over a power of 2.  Any other fraction raises NotDivisible, anything
    else (floats included) TypeError."""
    if isinstance(value, int):
        return value
    if not isinstance(value, Fraction):
        raise TypeError(f"{value!r} is not an exact dyadic value")
    den = value.denominator
    if den == 1:
        return value.numerator
    if den & (den - 1):
        raise NotDivisible(f"{value} is not dyadic")
    return value


# A monomial is a tuple of ((family, index), exponent) pairs, sorted by
# variable, with all exponents nonzero.  The empty tuple is 1.  Exponents
# are positive except for h, which may carry negative (Laurent) powers.


def _mono_sorted(pairs):
    return tuple(sorted(pairs, key=lambda p: _var_key(p[0])))


def _mono_degree(mono):
    return sum(e for _, e in mono)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        e += exps.get(v, 0)
        if e:
            exps[v] = e
        else:
            del exps[v]  # a Laurent exponent cancelled
    return _mono_sorted(exps.items())


def _mono_key(mono):
    """Graded-lex sort key (higher = bigger).

    Pairs are listed from the earliest variable outward with negated
    variable keys, so plain tuple comparison reproduces lex order even
    when the two monomials involve different variables.
    """
    return (
        _mono_degree(mono),
        tuple(((-_FAM_RANK[f], -i), e) for (f, i), e in mono),
    )


def render_terms(terms: dict, latex: bool = False) -> str:
    """Text form of a map {monomial: coefficient}, largest monomial first in
    graded-lex order: plain "3*x1^2*y2" or latex "3 x_{1}^{2} y_{2}".
    Every exponent other than 1 is printed, so negative (Laurent) powers
    render too."""
    sep = " " if latex else "*"
    bits = []
    for mono in sorted(terms, key=_mono_key, reverse=True):
        coeff = terms[mono]
        factors = []
        for v, e in mono:
            name = f"{v[0]}_{{{v[1]}}}" if latex else f"{v[0]}{v[1]}"
            if e != 1:
                name += f"^{{{e}}}" if latex else f"^{e}"
            factors.append(name)
        if latex and coeff.denominator != 1:
            c = f"\\frac{{{coeff.numerator}}}{{{coeff.denominator}}}"
        else:
            c = str(coeff)
        if factors and c == "1":
            body = ("" if latex else "*").join(factors)
        elif factors and c == "-1":
            body = "-" + sep.join(factors)
        else:
            body = c + (sep + sep.join(factors) if factors else "")
        bits.append(body)
    if not bits:
        return "0"
    return " + ".join(bits).replace("+ -", "- ")


class Polynomial:
    """Sparse polynomial: a map from monomials to nonzero dyadic coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
                coeff = dyadic(coeff)
                if coeff:
                    exps = {}  # a variable given twice adds its exponents
                    for v, e in mono:
                        exps[v] = exps.get(v, 0) + e
                    mono = _mono_sorted(p for p in exps.items() if p[1])
                    acc = self.terms.get(mono)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff:
                        self.terms[mono] = coeff
                    else:
                        del self.terms[mono]

    @staticmethod
    def const(c) -> "Polynomial":
        p = Polynomial()
        c = dyadic(c)
        if c:
            p.terms[()] = c
        return p

    @staticmethod
    def variable(family: str, index: int) -> "Polynomial":
        p = Polynomial()
        p.terms[((var(family, index), 1),)] = 1
        return p

    @staticmethod
    def of(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.const(value)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.terms == Polynomial.of(other).terms

    def __neg__(self):
        p = Polynomial()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __add__(self, other):
        other = Polynomial.of(other)
        p = Polynomial()
        p.terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = p.terms.get(m)
            c = c if acc is None else acc + c
            if c:
                p.terms[m] = c
            else:
                p.terms.pop(m, None)
        return p

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Polynomial.of(other))

    def __rsub__(self, other):
        return Polynomial.of(other) + (-self)

    def __mul__(self, other):
        other = Polynomial.of(other)
        p = Polynomial()
        acc = p.terms
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                old = acc.get(m)
                c = c if old is None else old + c
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def part(self, d: int) -> "Polynomial":
        """The homogeneous component of total degree d."""
        p = Polynomial()
        p.terms = {m: c for m, c in self.terms.items() if _mono_degree(m) == d}
        return p

    def truncate(self, d: int) -> "Polynomial":
        """Drop all terms of total degree > d."""
        p = Polynomial()
        p.terms = {m: c for m, c in self.terms.items() if _mono_degree(m) <= d}
        return p

    def star(self) -> "Polynomial":
        """Multiply the degree-d component by (-1)^d."""
        p = Polynomial()
        p.terms = {
            m: (c if _mono_degree(m) % 2 == 0 else -c) for m, c in self.terms.items()
        }
        return p

    def substitute(self, mapping) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        mapping: dict from (family, index) to Polynomial (or int).
        Unmapped variables pass through.
        """
        out = Polynomial()
        for mono, coeff in self.terms.items():
            term = Polynomial()
            term.terms[tuple(p for p in mono if p[0] not in mapping)] = coeff
            for v, e in mono:
                if v in mapping:
                    term = term * (Polynomial.of(mapping[v]) ** e)
            out = out + term
        return out

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def constant_term(self):
        return self.terms.get((), 0)

    def leading(self):
        mono = max(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    def __str__(self):
        return render_terms(self.terms)

    __repr__ = __str__


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Return q with q*d == p, or raise NotDivisible.

    Plain leading-term cancellation in graded-lex order; when an exact
    quotient exists this always finds it.
    """
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    q = Polynomial()
    rem = p
    d_mono, d_coeff = d.leading()
    d_exps = dict(d_mono)
    while rem:
        r_mono, r_coeff = rem.leading()
        r_exps = dict(r_mono)
        for v, e in d_exps.items():
            if r_exps.get(v, 0) < e:
                raise NotDivisible(f"({p}) is not divisible by ({d})")
        qterm = Polynomial()
        qm = tuple((v, e - d_exps.get(v, 0)) for v, e in r_mono if e != d_exps.get(v, 0))
        qterm.terms[qm] = dyadic(Fraction(r_coeff, d_coeff))
        q = q + qterm
        rem = rem - qterm * d
    return q


def series_inverse(p: Polynomial, bound: int) -> Polynomial:
    """Invert a series with unit constant term, truncated at total degree `bound`.

    Solves degree by degree: if p = c0 + p1 + p2 + ... then the degree-d
    piece of the inverse is -(1/c0) * sum_{j=1..d} p_j * inv_{d-j}.
    """
    c0 = p.constant_term()
    if not c0:
        raise NotDivisible("cannot invert a series with zero constant term")
    inv_c0 = dyadic(Fraction(1, c0))
    parts = {0: Polynomial.const(inv_c0)}
    p_parts = {d: p.part(d) for d in range(1, bound + 1)}
    for d in range(1, bound + 1):
        acc = Polynomial()
        for j in range(1, d + 1):
            pj = p_parts.get(j)
            if pj and pj.terms:
                acc = acc + pj * parts[d - j]
        parts[d] = Polynomial.const(-inv_c0) * acc
    total = Polynomial()
    for piece in parts.values():
        total = total + piece
    return total


def rational_series(num_factors, den_factors, bound: int) -> Polynomial:
    """prod(num_factors) / prod(den_factors) truncated at total degree bound.

    Each factor must have unit constant term.
    """
    num = Polynomial.const(1)
    for f in num_factors:
        num = num * Polynomial.of(f)
    den = Polynomial.const(1)
    for f in den_factors:
        den = den * Polynomial.of(f)
    if den == Polynomial.const(1):
        return num.truncate(bound)
    return (num * series_inverse(den, bound)).truncate(bound)


def ones_product(family: str, count: int) -> Polynomial:
    """prod_{j=1}^{count} (1 + v_j) over the variables v_j of one family."""
    out = Polynomial.const(1)
    for j in range(1, count + 1):
        out = out * (1 + Polynomial.variable(family, j))
    return out
