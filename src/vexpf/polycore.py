"""Exact sparse multivariate polynomials over dyadic rationals.

Every scalar of the package lives here.  A Polynomial holds int
coefficients and one shared exponent e >= 0, and its value is
packed / 2^e.  It is normalized when built (e == 0, or some coefficient
is odd), so equal polynomials have equal (e, packed).  A product needs
no normalizing pass: by Gauss's lemma over F_2, if each factor has an
odd coefficient so does the product.  `dyadic` is the one gate where a
value enters, and a quotient with another denominator raises
NotDivisible.  Fraction appears only in `terms` and `constant_term`.

A variable is a tuple (family, index), index >= 1, of six families
printed in the order x < y < t < z < h < u.  The h variables may carry
negative exponents: gysin's Laurent polynomials are Polynomials too.

Packed monomials.  Each variable is interned once, on first use, to a
slot k, and a monomial is one int

    m = deg + sum_k e_k * 2^(DEG_BITS + FIELD_BITS * k),

a DEG_BITS-bit total-degree field at the bottom and one FIELD_BITS-bit
exponent field per slot above it.  The fields are balanced: a negative
exponent borrows from the field above, so packing is linear, the
monomial 1 is 0, a product of monomials is one int addition, and
`degree`, `part` and `truncate` read the degree field alone.  An exponent must lie in [-2^(FIELD_BITS-2), 2^(FIELD_BITS-2)),
a degree in [-2^(DEG_BITS-2), 2^(DEG_BITS-2)).  The bias _LOW adds a
quarter of its range to every field, so a monomial in range has every
field nonnegative and its top bit, the guard bit, clear.  A sum of two
monomials in range sets the guard bit of its lowest field that left
the range, in either direction, so every product and power ends in one
mask test (`_check`), which raises ExponentOverflow instead of
wrapping.  Comparing the ints is lex order on the slots, a monomial
order, which is all `exact_divide` needs.
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


def _split(value) -> tuple:
    """dyadic(value) as (n, k) with value = n / 2^k, n odd when k > 0."""
    value = dyadic(value)
    if isinstance(value, int):
        return value, 0
    return value.numerator, value.denominator.bit_length() - 1


def _normal(packed: dict, e: int) -> tuple:
    """(packed, e) normalized: the power of 2 common to every coefficient,
    up to 2^e, moved out of e.  One early exit at the first odd one."""
    if e:
        acc = 0
        for c in packed.values():
            if c & 1:
                return packed, e
            acc |= c
        k = min(e, (acc & -acc).bit_length() - 1) if acc else e
        packed = {m: c >> k for m, c in packed.items()}
        e -= k
    return packed, e


def _mono_key(mono):
    """Graded-lex sort key of decoded pairs (higher = bigger): negated
    variable keys make tuple comparison lex order even when two monomials
    involve different variables."""
    return (
        sum(e for _, e in mono),
        tuple(((-_FAM_RANK[f], -i), e) for (f, i), e in mono),
    )


def graded_terms(p: "Polynomial") -> list:
    """The decoded terms (pairs, num, k) of p, each coefficient num / 2^k in
    lowest terms (num odd when k > 0), largest monomial first in graded-lex
    order on the variables x < y < t < z < h < u: the one term order of
    everything printed or serialized."""
    e = p.e
    if e:
        terms = []
        for m, c in p.packed.items():
            k = e - min(e, (c & -c).bit_length() - 1)
            terms.append((_decode(m), c >> (e - k), k))
    else:
        terms = [(_decode(m), c, 0) for m, c in p.packed.items()]
    terms.sort(key=lambda t: _mono_key(t[0]), reverse=True)
    return terms


def render_terms(p: "Polynomial", latex: bool = False) -> str:
    """Text form of p in `graded_terms` order: plain "3*x1^2*y2" or latex
    "3 x_{1}^{2} y_{2}".  Every exponent other than 1 is printed, so
    negative (Laurent) powers render too."""
    sep = " " if latex else "*"
    bits = []
    for mono, num, k in graded_terms(p):
        factors = []
        for v, e in mono:
            name = f"{v[0]}_{{{v[1]}}}" if latex else f"{v[0]}{v[1]}"
            if e != 1:
                name += f"^{{{e}}}" if latex else f"^{e}"
            factors.append(name)
        if not k:
            c = str(num)
        elif latex:
            c = f"\\frac{{{num}}}{{{1 << k}}}"
        else:
            c = f"{num}/{1 << k}"
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


def _add_into(acc: dict, terms: dict, sign: int = 1):
    """Add sign times the map {monomial: coefficient} terms into acc in
    place."""
    for m, c in terms.items():
        old = acc.get(m)
        c = sign * c if old is None else old + sign * c
        if c:
            acc[m] = c
        else:
            del acc[m]


def _fma(targets, a: dict, b: dict) -> None:
    """The multiply-accumulate of the kernel: add k * a * b, a and b packed
    maps, into acc in place for each (acc, k) of targets, forming each
    product of two terms once however many targets take it.  A monomial
    shift times an int is the case of an a with one term.  Coefficients
    that cancel stay in acc as zeros: the caller ends with `_settle`."""
    if len(a) > len(b):
        a, b = b, a
    items = b.items()
    if len(targets) == 1:
        [(acc, k)] = targets
        get = acc.get
        for m1, c1 in a.items():
            c1 *= k
            for m2, c2 in items:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        return
    for m1, c1 in a.items():
        for m2, c2 in items:
            m = m1 + m2
            c = c1 * c2
            for acc, k in targets:
                acc[m] = acc.get(m, 0) + k * c


def _settle(acc: dict) -> dict:
    """acc, filled by `_fma`, a renaming or the constructor, with its zero
    coefficients dropped and its monomials checked by `_check`."""
    if not all(acc.values()):
        acc = {m: c for m, c in acc.items() if c}
    _check(acc)
    return acc


def _moves(mapping: dict) -> list:
    """The renaming of `Polynomial.substitute`: one (field shift, w - v,
    negate) per mapped variable v that is interned.  ValueError
    when an image is not +-w for a variable w, or when some field of a
    result would add up more than two exponents, so that `_check` could
    not vouch for it."""
    moves = []
    sums = {}  # target unit -> exponents that add up in its field
    for v, image in mapping.items():
        image = Polynomial.of(image)
        w, c = next(iter(image.packed.items()), (None, 0))
        if len(image.packed) != 1 or image.e or (c != 1 and c != -1) or w not in _TARGETS:
            raise ValueError(f"substitute renames variables: {v} -> {image} is not +-w")
        sums[w] = sums.get(w, 0) + 1
        if v in _UNIT:  # a variable never interned is in no monomial
            moves.append((_SHIFT[v], w - _UNIT[v], c == -1))
    for w, count in sums.items():
        if count + (_TARGETS[w] not in mapping) > 2:
            raise ValueError(f"substitute adds more than two exponents into {_TARGETS[w]}")
    return moves


def _wrap(packed: dict, e: int = 0) -> "Polynomial":
    """The Polynomial packed / 2^e, taken as normalized."""
    p = Polynomial.__new__(Polynomial)
    p.packed = packed
    p.e = e
    return p


class Polynomial:
    """Sparse polynomial packed / 2^e: a map from packed monomials to
    nonzero int coefficients and one shared exponent e >= 0, normalized
    (e == 0 or some coefficient odd)."""

    __slots__ = ("packed", "e")

    def __init__(self, terms=None, e: int = 0):
        """terms: a map (or pairs) {monomial: coefficient}, each monomial a
        tuple of ((family, index), exponent) pairs in any order; the value
        is their sum over 2^e, e >= 0."""
        rows = []
        top = 0
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
                n, k = _split(coeff)
                if n:
                    rows.append((_encode(mono), n, k))
                    top = max(top, k)
        packed = {}
        for m, n, k in rows:
            packed[m] = packed.get(m, 0) + (n << top - k)
        self.packed, self.e = _normal(_settle(packed), top + e)

    @staticmethod
    def from_packed(packed: dict, e: int = 0) -> "Polynomial":
        """The Polynomial packed / 2^e, packed a map {packed monomial:
        nonzero int} whose monomials are in range; the map is taken, not
        copied, and normalized."""
        if e:
            packed, e = _normal(packed, e)
        return _wrap(packed, e)

    @staticmethod
    def const(c) -> "Polynomial":
        n, k = (c, 0) if type(c) is int else _split(c)
        return _wrap({0: n}, k) if n else _wrap({})

    @staticmethod
    def variable(family: str, index: int) -> "Polynomial":
        return _wrap({_unit(var(family, index)): 1})

    @staticmethod
    def of(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.const(value)

    @property
    def terms(self) -> dict:
        """The decoded view {((family, index), exponent) pairs: Fraction}."""
        den = 1 << self.e
        return {_decode(m): Fraction(c, den) for m, c in self.packed.items()}

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            try:
                other = Polynomial.const(other)
            except NotDivisible:
                return False  # no Polynomial has a value that is not dyadic
        return self.e == other.e and self.packed == other.packed

    def __neg__(self):
        return _wrap({m: -c for m, c in self.packed.items()}, self.e)

    def __add__(self, other, sign: int = 1):
        """self + sign * other, over the larger of the two exponents.  Only
        equal exponents renormalize: else the operand with the larger one
        has an odd coefficient, and the other one, scaled up to it, only
        even ones."""
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        shift = self.e - other.e
        if shift < 0:
            acc = {m: c << -shift for m, c in self.packed.items()}
            _add_into(acc, other.packed, sign)
            return _wrap(acc, other.e)
        acc = dict(self.packed)
        if shift:
            _add_into(acc, {m: c << shift for m, c in other.packed.items()}, sign)
            return _wrap(acc, self.e)
        _add_into(acc, other.packed, sign)
        return Polynomial.from_packed(acc, self.e)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return Polynomial.of(other).__add__(self, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(other)
        a, b, e = self.packed, other.packed, self.e + other.e
        if e:
            # Gauss's lemma over F_2: a factor with e > 0 has an odd
            # coefficient, so only a factor with e == 0 can leave the
            # product without one; move its power of 2 out first
            if not other.e:
                b, e = _normal(b, e)
            elif not self.e:
                a, e = _normal(a, e)
        if len(a) > len(b):
            a, b = b, a
        if len(a) != 1:
            out = {}
            _fma([(out, 1)], a, b)
            return _wrap(_settle(out), e)
        [(m1, c1)] = a.items()
        if not m1:
            return _wrap(dict(b) if c1 == 1 else {m: c1 * c for m, c in b.items()}, e)
        out = {m1 + m: c1 * c for m, c in b.items()}
        _check(out)
        return _wrap(out, e)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n for n >= 0, by repeated squaring."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        base = self
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
            {m: c for m, c in self.packed.items() if (m + _DHALF) & _DMASK == field}, self.e
        )

    def parts(self) -> dict:
        """Decompose by total degree in one pass: {d: the homogeneous
        component of degree d}."""
        out = {}
        for m, c in self.packed.items():
            out.setdefault(((m + _DHALF) & _DMASK) - _DHALF, {})[m] = c
        return {d: Polynomial.from_packed(t, self.e) for d, t in out.items()}

    def truncate(self, d: int) -> "Polynomial":
        """Drop all terms of total degree > d."""
        field = d + _DHALF
        return Polynomial.from_packed(
            {m: c for m, c in self.packed.items() if (m + _DHALF) & _DMASK <= field}, self.e
        )

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
        return {e: Polynomial.from_packed(d, self.e) for e, d in out.items()}

    def substitute(self, mapping) -> "Polynomial":
        """Rename variables all at once: mapping sends variables (family,
        index) to images +-w, w a variable, such as x_i <-> y_i or x_1 ->
        -x_1.  Each term moves by one int addition per mapped variable, so
        the cost is linear in the terms.  Any other image raises
        ValueError, and so does a renaming that would add three or more
        exponents into one field, for which `_check` cannot vouch."""
        moves = _moves(mapping)
        low = _LOW
        out = {}
        get = out.get
        for m, c in self.packed.items():
            x = m + low
            for shift, delta, negate in moves:
                e = ((x >> shift) & _FMASK) - _HALF
                if e:
                    m += e * delta
                    if negate and e & 1:
                        c = -c
            out[m] = get(m, 0) + c
        return Polynomial.from_packed(_settle(out), self.e)

    def swap_difference(self, v, w) -> "Polynomial":
        """self - self|v<->w in one pass: a term fixed by the swap cancels,
        and any other term m gives p[m] - p[swap m] at m, and -p[m] at
        swap m when that is no term.  A swap permutes two fields and keeps
        the degree, so every result is in range and needs no `_check`."""
        delta = _unit(w) - _unit(v)
        sv, sw = _SHIFT[v], _SHIFT[w]
        low = _LOW
        packed = self.packed
        get = packed.get
        out = {}
        for m, c in packed.items():
            x = m + low
            d = ((x >> sv) & _FMASK) - ((x >> sw) & _FMASK)
            if d:
                m2 = m + d * delta
                c2 = get(m2)
                if c2 is None:
                    out[m] = c
                    out[m2] = -c
                elif c != c2:
                    out[m] = c - c2
        # a cancellation can leave every coefficient even
        return Polynomial.from_packed(out, self.e)

    def divided_difference(self, v, w) -> "Polynomial":
        """(self - self|v<->w) / (v - w): the one-coefficient case of
        `divided_differences`."""
        return divided_differences({0: self}, v, w).get(0) or _wrap({})

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
        """The constant coefficient: an int, or a Fraction when e > 0."""
        c = self.packed.get(0, 0)
        return Fraction(c, 1 << self.e) if self.e else c

    def __str__(self):
        return render_terms(self)

    __repr__ = __str__


# The work of `divided_differences`: one pass per call, and the terms of
# every coefficient it reads, bumped once per call.
dd_passes = 0
dd_terms_read = 0


def divided_differences(coeffs: dict, v, w) -> dict:
    """{key: (c - c|v<->w) / (v - w)} for each Polynomial c of the map
    coeffs, such as a class's Q-basis combo, in one pass over their terms
    with no numerator built; a zero quotient is left out.  v == w raises
    ZeroDivisionError, as `exact_divide` by v - v does.

    A term v^a w^b R (a > b) with coefficient c and its partner v^b w^a R
    with c' give (c - c')(v^a w^b - v^b w^a) R, whose quotient is the run
    (c - c') R v^b w^b h_(a-b-1)(v, w), h_k(v, w) = v^k + v^(k-1) w + ...
    + w^k: a - b monomials, each one swap step from the last.  So a term
    with a > b reads its partner once and writes that run unless c == c';
    a term with a < b writes only when it has no partner, the run of its
    swapped monomial with coefficient -c; a term with a == b cancels.
    The rule holds for negative exponents too.  Every exponent of a run
    lies between b and a - 1, so only the degree, which falls by one, can
    leave its range, at the bottom edge, tested per run.  The units and
    shifts of v and w are read once per call, and `dd_passes` and
    `dd_terms_read` count the calls and the terms they read.
    """
    global dd_passes, dd_terms_read
    if v == w:
        raise ZeroDivisionError("division by the zero polynomial")
    u = _unit(v)
    delta = _unit(w) - u
    sv, sw = _SHIFT[v], _SHIFT[w]
    low, fmask = _LOW, _FMASK
    out = {}
    read = 0
    for key, p in coeffs.items():
        packed = p.packed
        read += len(packed)
        get = packed.get
        q = {}
        qget = q.get
        for m, c in packed.items():
            x = m + low
            k = ((x >> sv) & fmask) - ((x >> sw) & fmask)  # a - b
            if k > 0:
                c -= get(m + k * delta, 0)
                if not c:
                    continue
            elif k < 0:
                m += k * delta  # the swapped monomial, of the same degree
                if m in packed:
                    continue
                k = -k
                c = -c
            else:
                continue
            if not x & _DMASK:  # degree -_DHALF: the run would leave the range
                raise _overflow()
            m -= u  # the first monomial of the run, v^(a-1) w^b R
            if k == 1:
                q[m] = qget(m, 0) + c
                continue
            for _ in range(k):
                q[m] = qget(m, 0) + c
                m += delta
        if not all(q.values()):
            q = {m: c for m, c in q.items() if c}
        if q:
            # a cancellation can leave every coefficient even
            out[key] = _wrap(*_normal(q, p.e))
    dd_passes += 1
    dd_terms_read += read
    return out


def _alternating_quotient(p: Polynomial, v: int, w: int):
    """p / (v - w), v and w the packed monomials of two variables, as a
    packed map over 2^p.e, when p is alternating in v and w (no term is
    fixed by the swap, and each term's image is a term of the opposite
    coefficient) with no negative exponent in either; else None.  Each
    pair of terms gives one run of geometric sums, as in
    `divided_differences`."""
    sv, sw = _SHIFT[_TARGETS[v]], _SHIFT[_TARGETS[w]]
    delta = w - v
    low = _LOW
    packed = p.packed
    get = packed.get
    q = {}
    qget = q.get
    runs = 0
    for m, c in packed.items():
        x = m + low
        bw = (x >> sw) & _FMASK
        k = ((x >> sv) & _FMASK) - bw  # a - b
        if k > 0:
            # b < 0 (a Laurent dividend takes the heap), or no partner -c
            if bw < _HALF or get(m + k * delta) != -c:
                return None
            if not x & _DMASK:  # degree -_DHALF: the run would leave the range
                raise _overflow()
            runs += 1
            m -= v  # the first monomial of the run, v^(a-1) w^b R
            if k == 1:
                q[m] = qget(m, 0) + c
                continue
            for _ in range(k):
                q[m] = qget(m, 0) + c
                m += delta
        elif not k:
            return None
    # the swap is one to one, so when the terms with a < b are as many as
    # the runs, they are exactly the partners already checked
    if 2 * runs != len(packed):
        return None
    if not all(q.values()):
        q = {m: c for m, c in q.items() if c}
    return q


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Return q with q*d == p, or raise NotDivisible.

    A divisor +-(v - w) of two variables and a dividend alternating in
    them (type A's numerators f - s_i f) take `_alternating_quotient`, one
    linear pass.  Every other division is leading-term cancellation in
    the int order of packed monomials; in the program it serves only the
    type-D guard c(i) | c(i-1), since generator 0 divides in no type.  The
    remainder is one dict with its monomials in a heap, largest first,
    and a remainder monomial r is divisible by d's leading monomial l
    when r - l has no negative exponent where l has one: one mask test of
    the biased fields.  The cost is linear in the terms the division
    touches, up to the heap's log factor.  An exact quotient is unique,
    so both paths give the same q.

    Coefficients stay ints: with d's leading coefficient 2^s times an odd
    number, q is integral over 2^(p.e - d.e + s) (Gauss's lemma), so each
    of its coefficients is one exact int division.
    """
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(d.packed) == 2 and not d.e:
        (m1, c1), (m2, c2) = d.packed.items()
        if c1 + c2 == 0 and c1 * c1 == 1 and m1 in _TARGETS and m2 in _TARGETS:
            v, w = (m1, m2) if c1 == 1 else (m2, m1)
            q = _alternating_quotient(p, v, w)
            if q is not None:
                return Polynomial.from_packed(q, p.e)
    low, guard = _LOW, _GUARD
    lead = max(d.packed)
    d_coeff = d.packed[lead]
    s = (d_coeff & -d_coeff).bit_length() - 1
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
    if s and d_tail:
        rem = {m: c << s for m, c in p.packed.items()}
    else:
        rem = dict(p.packed)
        d_coeff >>= s
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
        qc, rest = divmod(r_coeff, d_coeff)
        if rest:
            raise NotDivisible(f"({p}) is not divisible by ({d})")
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
    e = p.e - d.e + s
    if e < 0:
        q = {m: c << -e for m, c in q.items()}
        e = 0
    return Polynomial.from_packed(q, e)


def series_inverse(p: Polynomial, bound: int) -> Polynomial:
    """Invert a series with unit constant term, truncated at total degree
    `bound`, degree by degree: inv_d = -(1/c0) sum_{j=1..d} p_j inv_{d-j}."""
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
    """prod(num_factors) / prod(den_factors) truncated at total degree
    bound; each factor must have unit constant term."""
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
    """prod_{j=1}^{count} (1 + v_j) over the variables v_j of one family:
    its 2^count squarefree monomials, each with coefficient 1."""
    monos = [0]
    for j in range(1, count + 1):
        u = _unit(var(family, j))
        monos += [m + u for m in monos]
    _check(monos)
    return _wrap(dict.fromkeys(monos, 1))
