"""Double Schubert polynomials for the classical types.

Type A polynomials live in Z[x, y]; the signed types live in the basis
ring with polynomial coefficients.  Everything descends from an explicit
top class by divided differences:

  * type A: top = prod_{i+j<=n} (x_i - y_j), partial_i = (f - s_i f)/(x_i - x_{i+1});
  * type C: partial_0 = (f - s_0 f)/(-2 x_1), s_0 negating x_1;
  * type B: partial_0 = (f - s_0 f)/(-x_1);
  * type D: partial_0 stands for the operator attached to the swap-negate
    generator, (f - s f)/(-x_1 - x_2).

Vexillary elements admit closed formulas instead: a multi-Schur
determinant (type A) or Pfaffian (signed types) built from the triple.
"""

from __future__ import annotations

import random

from .polycore import Dyadic, Polynomial, exact_divide
from .gamma import (
    GammaElement,
    GeneratorSeries,
    P_SERIES,
    Q_SERIES,
    apply_symmetry,
    substitute_q,
)
from .weyl import SignedPermutation, SizeMismatch, generators, length, longest_element
from .triples import InvalidTriple, Triple, column_steps, lambda_of, reduce_redundant, validate
from .multischur import (
    multischur_det,
    multischur_pf,
    multischur_pf_d,
    rational_series,
)


def _xvar(i):
    return Polynomial.variable("x", i)


def _yvar(i):
    return Polynomial.variable("y", i)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _swap_map(f, sub):
    if isinstance(f, GammaElement):
        return f.map_coeffs(lambda c: c.substitute(sub))
    return Polynomial.of(f).substitute(sub)


def swap_xy(f):
    """Exchange x_i and y_i throughout."""
    if isinstance(f, GammaElement):
        vars_ = set()
        for c in f.combo.values():
            vars_ |= c.variables()
    else:
        f = Polynomial.of(f)
        vars_ = f.variables()
    sub = {}
    for fam, i in vars_:
        if fam == "x":
            sub[(fam, i)] = _yvar(i)
        elif fam == "y":
            sub[(fam, i)] = _xvar(i)
    return _swap_map(f, sub)


def divided_difference(i: int, f, wtype: str, side: str = "x"):
    """The operator for generator i: (f - s_i(f)) / (linear form).

    i = 0 selects the type-dependent extra generator (undefined in type A).
    side = "y" conjugates by the x <-> y swap.
    """
    if side == "y":
        return swap_xy(divided_difference(i, swap_xy(f), wtype, "x"))
    if i == 0:
        if wtype == "C":
            op, denom = ("s0", "x"), -2 * _xvar(1)
        elif wtype == "B":
            op, denom = ("s0", "x"), -_xvar(1)
        elif wtype == "D":
            op, denom = ("s1hat",), -_xvar(1) - _xvar(2)
        else:
            raise ValueError("generator 0 undefined in type A")
        reflected = apply_symmetry(op, GammaElement.of(f))
        return (GammaElement.of(f) - reflected).map_coeffs(
            lambda c: exact_divide(c, denom)
        )
    denom = _xvar(i) - _xvar(i + 1)
    if isinstance(f, GammaElement):
        reflected = apply_symmetry(("s", i, "x"), f)
        return (f - reflected).map_coeffs(lambda c: exact_divide(c, denom))
    f = Polynomial.of(f)
    sub = {("x", i): _xvar(i + 1), ("x", i + 1): _xvar(i)}
    return exact_divide(f - f.substitute(sub), denom)


# ---------------------------------------------------------------------------
# vexillary formulas
# ---------------------------------------------------------------------------


def _steps(t: Triple):
    """(p_i, q_i) of the step governing each column k = 1..k_s."""
    return [(t.p[i], t.q[i]) for i in column_steps(t)]


def _ones_product(fam, count):
    out = Polynomial.const(1)
    for j in range(1, count + 1):
        out = out * (1 + Polynomial.variable(fam, j))
    return out


def vexillary_polynomial(t: Triple, wtype: str = None):
    """The closed multi-Schur formula for the triple's Schubert polynomial.

    wtype defaults to the triple's own type; pass "B" to evaluate a
    B/C triple with half-generators.
    """
    wtype = wtype or t.wtype
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    if t.s == 0:
        return Polynomial.const(1) if wtype == "A" else GammaElement.one()
    lam = lambda_of_extended(t)
    r = len(lam)
    if wtype == "A":
        bound = lam[0] + r
        series = [
            rational_series(
                [1 + _xvar(j) for j in range(1, p + 1)],
                [1 + _yvar(j) for j in range(1, q + 1)],
                bound,
            )
            for p, q in _steps(t)
        ]
        return multischur_det(lam, series)
    if wtype in ("B", "C"):
        base = P_SERIES if wtype == "B" else Q_SERIES
        series = [
            GeneratorSeries(
                True,
                _ones_product("x", p - 1) * _ones_product("y", q - 1),
                base.q_scale,
            )
            for p, q in _steps(t)
        ]
        return multischur_pf(lam, series, check=(status == "strict"))
    # type D
    pairs = []
    for p, q in _steps(t):
        c = _ones_product("x", p) * _ones_product("y", q)
        pairs.append((c, GeneratorSeries(True, c)))
    pf = multischur_pf_d(lam, pairs, check=(status == "strict"))
    return pf * Polynomial.const(Dyadic(1, r))


def lambda_of_extended(t: Triple):
    """lambda_of, also defined for redundant triples: reduction drops only
    steps whose columns carry the same pins, so the partition is kept."""
    return lambda_of(reduce_redundant(t))


# ---------------------------------------------------------------------------
# top classes and the divided-difference descent
# ---------------------------------------------------------------------------


def top_class(n: int, wtype: str, d_zero: bool = False):
    """The Schubert polynomial of the longest relevant element.

    For type D, d_zero selects the all-barred variant (partition ending
    in 0); otherwise the first entry stays unbarred.
    """
    if wtype == "A":
        out = Polynomial.const(1)
        for i in range(1, n + 1):
            for j in range(1, n + 1 - i):
                out = out * (_xvar(i) - _yvar(j))
        return out
    if wtype in ("B", "C"):
        t = Triple(range(1, n + 1), range(n, 0, -1), range(n, 0, -1), "C")
        return vexillary_polynomial(t, wtype)
    if wtype == "D":
        if n < 2:
            raise ValueError("type D wants n >= 2")
        if d_zero:
            t = Triple(range(1, n + 1), range(n - 1, -1, -1), range(n - 1, -1, -1), "D")
        else:
            t = Triple(range(1, n), range(n - 1, 0, -1), range(n - 1, 0, -1), "D")
        return vexillary_polynomial(t)
    raise ValueError(f"unknown type {wtype}")


def _top_element(n: int, wtype: str, barred_parity: int) -> SignedPermutation:
    w0 = longest_element(n, wtype)
    if wtype == "D" and w0.num_barred() % 2 != barred_parity:
        # the top of the odd type-D coset: flip the first entry's bar
        return SignedPermutation((-w0.values[0],) + w0.values[1:])
    return w0


_CACHE = {}


def schubert(w: SignedPermutation, wtype: str, n: int = None, rng: random.Random = None):
    """The double Schubert polynomial of w, computed by descending from
    the top class along ascents of w.  A seeded rng picks random ascent
    routes (bypassing the cache) for well-definedness checks.  n defaults
    to the size of w (at least 2 in type D); a smaller n raises
    SizeMismatch."""
    if wtype == "A" and not w.is_unsigned():
        raise ValueError("type A wants an unsigned permutation")
    least = max(w.n, 2) if wtype == "D" else w.n
    if n is None:
        n = least
    elif n < least:
        raise SizeMismatch(f"n = {n} is too small for the type {wtype} word '{w}': need n >= {least}")
    w = w.embed(n)
    return _descend(w, wtype, n, rng)


def _descend(w, wtype, n, rng):
    key = (wtype, n, w.values)
    if rng is None and key in _CACHE:
        return _CACHE[key]
    top = _top_element(n, wtype, w.num_barred() % 2)
    if w == top:
        if wtype == "D":
            out = top_class(n, "D", d_zero=(n % 2 == w.num_barred() % 2))
        else:
            out = top_class(n, wtype)
    else:
        lw = length(w, wtype)
        ascents = [
            i
            for i in generators(n, wtype)
            if length(w.right_gen(i, wtype), wtype) == lw + 1
        ]
        i = rng.choice(ascents) if rng else ascents[0]
        higher = _descend(w.right_gen(i, wtype), wtype, n, rng)
        out = divided_difference(i, higher, wtype)
    if rng is None:
        _CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# coefficient extraction and substitution recipes
# ---------------------------------------------------------------------------


def expand_coeffs(e: GammaElement, basis: str = "Q") -> dict:
    """Basis coefficients {lambda: Polynomial}; basis "P" rescales by
    2^len(lambda)."""
    if basis == "Q":
        return dict(e.combo)
    if basis == "P":
        return {
            lam: c * Polynomial.const(Dyadic(1 << len(lam)))
            for lam, c in e.combo.items()
        }
    raise ValueError(f"unknown basis {basis}")


def top_term(e: GammaElement, degree: int) -> GammaElement:
    """The sum of basis terms of full weight (constant coefficients)."""
    return GammaElement(
        {lam: c.part(0) for lam, c in e.combo.items() if sum(lam) == degree}
    )


def degeneracy_formula(t: Triple, q_series: Polynomial = None, multipliers=None):
    """The degeneracy-locus class of a triple with caller-supplied Chern data.

    multipliers: one finite series (constant term 1) per triple step,
    standing for the product of correction factors c(V/E_{p_i}) c(V/F_{q_i})
    (types C/B) or c(E/E_{p_i}) c(E/F_{q_i}...) (type D); defaults to the
    universal (1+x_j), (1+y_j) products.  q_series, if given, is a
    concrete truncated series substituted for the formal generator
    (e.g. the total Chern class c(V-E-F)); the result is then a plain
    Polynomial.
    """
    if t.wtype == "A":
        raise InvalidTriple("degeneracy data here is for the signed types")
    if multipliers is not None and len(multipliers) != t.s:
        raise ValueError("need one multiplier per triple step")
    if t.s == 0:
        e = GammaElement.one()
    else:
        lam = lambda_of_extended(t)
        per_col = []
        for i in column_steps(t):
            if multipliers is not None:
                per_col.append(Polynomial.of(multipliers[i]))
            elif t.wtype == "C":
                per_col.append(
                    _ones_product("x", t.p[i] - 1) * _ones_product("y", t.q[i] - 1)
                )
            else:
                per_col.append(
                    _ones_product("x", t.p[i]) * _ones_product("y", t.q[i])
                )
        if t.wtype == "C":
            series = [GeneratorSeries(True, g) for g in per_col]
            e = multischur_pf(lam, series, check=False)
        else:
            pairs = [(g, GeneratorSeries(True, g)) for g in per_col]
            e = multischur_pf_d(lam, pairs, check=False) * Polynomial.const(
                Dyadic(1, len(lam))
            )
    if q_series is None:
        return e
    return substitute_q(e, Polynomial.of(q_series))
