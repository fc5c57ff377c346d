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

Packed monomials.  Each variable is interned once, on first use, to a
slot k, and a monomial is one int

    m = deg + sum_k e_k * 2^(DEG_BITS + FIELD_BITS * k),

a DEG_BITS-bit total-degree field at the bottom and one FIELD_BITS-bit
exponent field per slot above it.  The fields are balanced: a negative
exponent borrows from the field above, so the map from exponent vectors
to ints is linear.  The monomial 1 is 0, a product of monomials is one
int addition, a quotient one subtraction, and `degree`, `part`,
`truncate` and `star` read the degree field alone.  An exponent must lie
in [-2^(FIELD_BITS-2), 2^(FIELD_BITS-2)), a degree in
[-2^(DEG_BITS-2), 2^(DEG_BITS-2)).  The bias _LOW adds a quarter of its
range to every field; a monomial in range then has every field
nonnegative and its top bit, the guard bit, clear.  A sum of two
monomials in range sets the guard bit of its lowest field that left the
range, in either direction, and cannot be mistaken for another sum, so
every product and power ends in one mask test over its result
(`_check`), which raises ExponentOverflow instead of wrapping.

Comparing the ints is lex order on the slots, the last interned slot
most significant; it is a monomial order (m < m' gives m + n < m' + n),
which is all `exact_divide` needs.  Nothing printed depends on it:
`graded_terms` orders decoded terms by the variables themselves.

`Polynomial.packed` is the map {packed monomial: coefficient} every
computation reads.  `Polynomial.terms` decodes it into the read-only view
{((family, index), exponent) pairs: coefficient} for the edges: text,
JSON and tests.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

FAMILIES = ("x", "y", "t", "z", "h", "u")
_FAM_RANK = {f: i for i, f in enumerate(FAMILIES)}

FIELD_BITS = 10
DEG_BITS = 16
_HALF = 1 << (FIELD_BITS - 2)  # exponents lie in [-_HALF, _HALF)
_FMASK = (1 << FIELD_BITS) - 1
_DHALF = 1 << (DEG_BITS - 2)  # degrees lie in [-_DHALF, _DHALF)
_DMASK = (1 << DEG_BITS) - 1

_VARS = []  # slot -> variable
_UNIT = {}  # variable -> its packed monomial v^1
_SHIFT = {}  # variable -> bit offset of its field
_TARGETS = {}  # packed monomial v^1 -> v
_LOW = _DHALF  # a quarter of the range of the degree field and of every slot
_GUARD = _DHALF << 1  # the top bit of each of those fields


class NotDivisible(ArithmeticError):
    """Raised when an exact division does not come out exact."""


class ExponentOverflow(OverflowError):
    """Raised when an exponent or a degree leaves the range of its field."""


def _overflow():
    return ExponentOverflow(
        f"exponents must lie in [{-_HALF}, {_HALF}) and degrees in [{-_DHALF}, {_DHALF})"
    )


def var(family: str, index: int) -> tuple[str, int]:
    if family not in _FAM_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if index < 1:
        raise ValueError("variable index must be >= 1")
    return (family, index)


def _var_key(v):
    return (_FAM_RANK[v[0]], v[1])


def _unit(v) -> int:
    """The packed monomial of the variable v, interning v on first use."""
    u = _UNIT.get(v)
    if u is None:
        global _LOW, _GUARD
        v = var(*v)
        shift = DEG_BITS + FIELD_BITS * len(_VARS)
        _VARS.append(v)
        _SHIFT[v] = shift
        u = _UNIT[v] = 1 + (1 << shift)
        _TARGETS[u] = v
        _LOW += _HALF << shift
        _GUARD += _HALF << (shift + 1)
    return u


def _encode(pairs) -> int:
    """Pack a monomial given as ((family, index), exponent) pairs; a
    variable given twice adds its exponents."""
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    m = deg = 0
    for v, e in exps.items():
        if not -_HALF <= e < _HALF:
            raise _overflow()
        m += e * _unit(v)
        deg += e
    if not -_DHALF <= deg < _DHALF:
        raise _overflow()
    return m


def _decode(m: int) -> tuple:
    """The ((family, index), exponent) pairs of a packed monomial, sorted
    by variable, zero exponents left out."""
    m = (m - ((m + _DHALF) & _DMASK) + _DHALF) >> DEG_BITS
    pairs = []
    k = 0
    while m:
        e = ((m + _HALF) & _FMASK) - _HALF
        if e:
            pairs.append((_VARS[k], e))
            m -= e
        m >>= FIELD_BITS
        k += 1
    pairs.sort(key=lambda p: _var_key(p[0]))
    return tuple(pairs)


def _check(monos) -> None:
    """Raise ExponentOverflow unless every packed monomial of monos, each
    a sum of two in range, is in range: one guard-bit mask test."""
    low = _LOW
    acc = 0
    for m in monos:
        acc |= m + low
    if acc & _GUARD:
        raise _overflow()


def exponent(mono: int, v) -> int:
    """The exponent of the variable v in the packed monomial mono."""
    shift = _SHIFT.get(v)
    if shift is None:
        return 0
    return (((mono + _LOW) >> shift) & _FMASK) - _HALF


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


def _mono_key(mono):
    """Graded-lex sort key of decoded pairs (higher = bigger).

    Pairs are listed from the earliest variable outward with negated
    variable keys, so plain tuple comparison reproduces lex order even
    when the two monomials involve different variables.
    """
    return (
        sum(e for _, e in mono),
        tuple(((-_FAM_RANK[f], -i), e) for (f, i), e in mono),
    )


def graded_terms(p: "Polynomial") -> list:
    """The decoded terms (pairs, coefficient) of p, largest monomial first
    in graded-lex order on the variables x < y < t < z < h < u: the one
    term order of everything printed or serialized."""
    terms = [(_decode(m), c) for m, c in p.packed.items()]
    terms.sort(key=lambda t: _mono_key(t[0]), reverse=True)
    return terms


def render_terms(p: "Polynomial", latex: bool = False) -> str:
    """Text form of p in `graded_terms` order: plain "3*x1^2*y2" or latex
    "3 x_{1}^{2} y_{2}".  Every exponent other than 1 is printed, so
    negative (Laurent) powers render too."""
    sep = " " if latex else "*"
    bits = []
    for mono, coeff in graded_terms(p):
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


def _add_into(acc: dict, terms: dict):
    """Add the map {monomial: coefficient} terms into acc in place."""
    for m, c in terms.items():
        old = acc.get(m)
        c = c if old is None else old + c
        if c:
            acc[m] = c
        else:
            del acc[m]


def _mul(a: dict, b: dict) -> dict:
    """The product of two packed maps, checked by `_check`."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        [(m1, c1)] = a.items()
        if not m1:
            return dict(b) if c1 == 1 else {m: c1 * c for m, c in b.items()}
        out = {m1 + m: c1 * c for m, c in b.items()}
    else:
        out = {}
        get = out.get
        items = b.items()
        for m1, c1 in a.items():
            for m2, c2 in items:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        if not all(out.values()):
            out = {m: c for m, c in out.items() if c}
    _check(out)
    return out


def _moves(images: dict):
    """The renaming of `Polynomial.substitute` when every image is +-w for
    a variable w: one (field shift, w - v, negate) per mapped v.  None
    when some image is anything else, or when some field of a result
    would add up more than two exponents, so that `_check` could not
    vouch for it."""
    moves = []
    sums = {}  # target unit -> exponents that add up in its field
    for v, image in images.items():
        if len(image.packed) != 1:
            return None
        [(w, c)] = image.packed.items()
        if (c != 1 and c != -1) or w not in _TARGETS:
            return None
        moves.append((_SHIFT[v], w - _UNIT[v], c == -1))
        sums[w] = sums.get(w, 0) + 1
    for w, count in sums.items():
        if count + (_TARGETS[w] not in images) > 2:
            return None
    return moves


class Polynomial:
    """Sparse polynomial: a map from packed monomials to nonzero dyadic
    coefficients."""

    __slots__ = ("packed",)

    def __init__(self, terms=None):
        """terms: a map (or pairs) {monomial: coefficient}, each monomial a
        tuple of ((family, index), exponent) pairs in any order."""
        packed = self.packed = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
                coeff = dyadic(coeff)
                if coeff:
                    m = _encode(mono)
                    acc = packed.get(m)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff:
                        packed[m] = coeff
                    else:
                        del packed[m]

    @staticmethod
    def from_packed(packed: dict) -> "Polynomial":
        """Wrap a map {packed monomial: nonzero coefficient} whose monomials
        are in range; the map is taken, not copied."""
        p = Polynomial.__new__(Polynomial)
        p.packed = packed
        return p

    @staticmethod
    def const(c) -> "Polynomial":
        c = dyadic(c)
        return Polynomial.from_packed({0: c} if c else {})

    @staticmethod
    def variable(family: str, index: int) -> "Polynomial":
        return Polynomial.from_packed({_unit(var(family, index)): 1})

    @staticmethod
    def of(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.const(value)

    @property
    def terms(self) -> dict:
        """The decoded view {((family, index), exponent) pairs: coefficient}."""
        return {_decode(m): c for m, c in self.packed.items()}

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        return self.packed == Polynomial.of(other).packed

    def __neg__(self):
        return Polynomial.from_packed({m: -c for m, c in self.packed.items()})

    def __add__(self, other):
        other = Polynomial.of(other)
        acc = dict(self.packed)
        _add_into(acc, other.packed)
        return Polynomial.from_packed(acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Polynomial.of(other))

    def __rsub__(self, other):
        return Polynomial.of(other) + (-self)

    def __mul__(self, other):
        other = other.packed if isinstance(other, Polynomial) else Polynomial.const(other).packed
        return Polynomial.from_packed(_mul(self.packed, other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n; n < 0 only for a unit monomial +-w, as (+-w^-1)^-n."""
        base = self
        if n < 0:
            if len(self.packed) != 1 or next(iter(self.packed.values())) not in (1, -1):
                raise ValueError("negative power of a polynomial other than +-monomial")
            [(m, c)] = self.packed.items()
            base = Polynomial.from_packed({-m: c})
            _check(base.packed)
            n = -n
        result = Polynomial.const(1)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self.packed:
            return -1
        return max((m + _DHALF) & _DMASK for m in self.packed) - _DHALF

    def part(self, d: int) -> "Polynomial":
        """The homogeneous component of total degree d."""
        field = d + _DHALF
        return Polynomial.from_packed(
            {m: c for m, c in self.packed.items() if (m + _DHALF) & _DMASK == field}
        )

    def truncate(self, d: int) -> "Polynomial":
        """Drop all terms of total degree > d."""
        field = d + _DHALF
        return Polynomial.from_packed(
            {m: c for m, c in self.packed.items() if (m + _DHALF) & _DMASK <= field}
        )

    def star(self) -> "Polynomial":
        """Multiply the degree-d component by (-1)^d: the low bit of a
        monomial is the parity of its degree."""
        return Polynomial.from_packed({m: -c if m & 1 else c for m, c in self.packed.items()})

    def split(self, v) -> dict:
        """Decompose by the exponent of the variable v: {e: the coefficient
        Polynomial of v^e}."""
        u = _UNIT.get(v)
        if u is None:
            return {0: self} if self else {}
        shift, low = _SHIFT[v], _LOW
        out = {}
        for m, c in self.packed.items():
            e = (((m + low) >> shift) & _FMASK) - _HALF
            out.setdefault(e, {})[m - e * u] = c
        return {e: Polynomial.from_packed(d) for e, d in out.items()}

    def substitute(self, mapping) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        mapping: dict from (family, index) to Polynomial (or int).
        Unmapped variables pass through.  When every image is a variable
        or its negative (a renaming such as x_i <-> x_{i+1}, a sign such
        as x_1 -> -x_1), each term moves by one int addition per mapped
        variable, negative exponents included.  Otherwise the images
        multiply in, each power mapping[v]**e computed once per call (for
        e < 0 the image must be a variable or its negative).
        The images of the terms are added into one dict, so the cost is
        linear in the terms produced.
        """
        # a variable never interned is in no monomial
        images = {v: Polynomial.of(image) for v, image in mapping.items() if v in _UNIT}
        moves = _moves(images)
        low = _LOW
        out = {}
        get = out.get
        if moves is not None:
            for m, c in self.packed.items():
                x = m + low
                for shift, delta, negate in moves:
                    e = ((x >> shift) & _FMASK) - _HALF
                    if e:
                        m += e * delta
                        if negate and e & 1:
                            c = -c
                out[m] = get(m, 0) + c
            _check(out)
        else:
            powers = {}
            for m, c in self.packed.items():
                x = m + low
                term = None
                for v, image in images.items():
                    e = ((x >> _SHIFT[v]) & _FMASK) - _HALF
                    if e:
                        m -= e * _UNIT[v]
                        power = powers.get((v, e))
                        if power is None:
                            power = powers[v, e] = (image**e).packed
                        term = power if term is None else _mul(term, power)
                if term is None:
                    out[m] = get(m, 0) + c
                    continue
                for m2, c2 in _mul({m: c}, term).items():
                    out[m2] = get(m2, 0) + c2
        if not all(out.values()):
            out = {m: c for m, c in out.items() if c}
        return Polynomial.from_packed(out)

    def variables(self):
        low = _LOW
        acc = 0
        for m in self.packed:
            acc |= (m + low) ^ low  # the fields of the nonzero exponents
        acc >>= DEG_BITS
        seen = set()
        for v in _VARS:
            if not acc:
                break
            if acc & _FMASK:
                seen.add(v)
            acc >>= FIELD_BITS
        return seen

    def constant_term(self):
        return self.packed.get(0, 0)

    def __str__(self):
        return render_terms(self)

    __repr__ = __str__


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Return q with q*d == p, or raise NotDivisible.

    Leading-term cancellation in the int order of packed monomials; when
    an exact quotient exists this always finds it, and since it is unique
    the order does not change the result.  The remainder is one dict,
    updated in place, and its monomials wait in a heap, largest first; an
    entry whose coefficient has cancelled is skipped.  A remainder
    monomial r is divisible by the leading monomial l of d when r - l has
    no negative exponent where l has a nonzero one: a mask test on the
    biased fields.  The cost is linear, up to the heap's log factor, in
    the terms the division touches.
    """
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    low, guard = _LOW, _GUARD
    lead = max(d.packed)
    d_coeff = d.packed[lead]
    # bit _HALF of each field where lead has an exponent: set in r - lead
    # + low exactly where that exponent of r - lead is >= 0
    support = 0
    fields = ((lead + low) ^ low) >> DEG_BITS
    shift = DEG_BITS
    while fields:
        if fields & _FMASK:
            support |= _HALF << shift
        fields >>= FIELD_BITS
        shift += FIELD_BITS
    test = support | guard
    d_tail = [(m, c) for m, c in d.packed.items() if m != lead]
    rem = dict(p.packed)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    q = {}
    while heap:
        r_mono = -pop(heap)
        r_coeff = rem.pop(r_mono, 0)
        if not r_coeff:
            continue
        qm = r_mono - lead
        biased = qm + low
        if biased & test != support:
            if biased & guard:
                raise _overflow()
            raise NotDivisible(f"({p}) is not divisible by ({d})")
        if d_coeff == 1:
            qc = dyadic(r_coeff)
        elif d_coeff == -1:
            qc = dyadic(-r_coeff)
        else:
            qc = dyadic(Fraction(r_coeff, d_coeff))
        q[qm] = qc
        for m, c in d_tail:
            m += qm
            old = rem.get(m)
            if old is None:
                rem[m] = -qc * c
                push(heap, -m)
            else:
                c = old - qc * c
                if c:
                    rem[m] = c
                else:
                    del rem[m]
    return Polynomial.from_packed(q)


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
            if pj:
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
