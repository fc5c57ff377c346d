"""Double Schubert polynomials for the classical types.

Type A polynomials live in Z[x, y]; the signed types live in the basis
ring with polynomial coefficients.  Everything descends from an explicit
top class by divided differences (`divided_difference` says how each
step is computed):

  * type A: top = prod_{i+j<=n} (x_i - y_j), partial_i = (f - s_i f)/(x_i - x_{i+1});
  * type C: partial_0 = (f - s_0 f)/(-2 x_1), s_0 negating x_1;
  * type B: partial_0 = (f - s_0 f)/(-x_1);
  * type D: partial_0 stands for the operator attached to the swap-negate
    generator s1hat = s0 s1 s0, (f - s1hat f)/(-x_1 - x_2) = s0 partial_1 s0.

Each class is built once, from the class of w s_i for an ascent i of w
(`weyl.first_ascent`); one with no ascent is the top of its coset.
`schubert()` on a single word takes the smallest ascent, as do the
theorem-equivalence and type-a gates and perfbench's `ascent_route`.
`sweep` builds all of W_n for the positivity, stability, b-scaling and
inverse-swap suites, generator 0 last: an i >= 1 step is one kernel
pass, a generator-0 step several.  `classes_built` and `zero_steps`
count the classes built, top classes included, and generator-0 steps.

Vexillary elements admit closed formulas instead: a multi-Schur
determinant (type A) or Pfaffian (signed types) built from the triple.
"""

from __future__ import annotations

from .polycore import Polynomial, divided_differences, exact_divide, rational_series
from .gamma import GammaElement, apply_symmetry, ones_series, s0_quotient
from .weyl import SignedPermutation, SizeMismatch, all_elements, first_ascent
from .triples import Triple, column_steps, lambda_of
from .multischur import multischur_det, multischur_pf, multischur_pf_d


def _xvar(i):
    return Polynomial.variable("x", i)


def _yvar(i):
    return Polynomial.variable("y", i)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def swap_xy(f):
    """Exchange x_i and y_i throughout: one renaming of the coefficients by
    `Polynomial.substitute`."""
    if isinstance(f, GammaElement):
        return f.map_coeffs(swap_xy)
    f = Polynomial.of(f)
    other = {"x": "y", "y": "x"}
    return f.substitute(
        {(fam, i): Polynomial.variable(other[fam], i) for fam, i in f.variables() if fam in other}
    )


def divided_difference(i: int, f, wtype: str):
    """The operator for generator i: (f - s_i(f)) / (linear form).

    For i >= 1, s_i swaps x_i and x_{i+1} and fixes every Q_lambda, so
    the operator acts on each basis coefficient as in type A.  In types
    B, C and D (the partial_1 of type D's s0 partial_1 s0 included) one
    pass over the element's whole combo, `polycore.divided_differences`,
    writes each quotient (c - s_i c)/(x_i - x_{i+1}) as geometric sums
    straight from c and leaves out the zero ones, so its map becomes
    the result's combo with no coefficient checked again; a plain
    Polynomial takes the kernel's one-coefficient case.  Type A still
    takes two: the numerator from `Polynomial.swap_difference`, then
    `exact_divide`, only because perfbench's type-A descent test counts
    its divisions.  i = 0 selects the
    type-dependent extra generator (undefined in type A): in types B and
    C, `s0_quotient` writes the quotient straight from the strips of the
    branching rule, with no division; in type D it is s0 partial_1 s0,
    since s1hat = s0 s1 s0.
    """
    if i == 0:
        f = GammaElement.of(f)
        if wtype == "D":
            return apply_symmetry(divided_difference(1, apply_symmetry(f), "D"))
        if wtype not in ("B", "C"):
            raise ValueError("generator 0 undefined in type A")
        return s0_quotient(f, wtype)
    v, w = ("x", i), ("x", i + 1)
    if wtype == "A":
        # two passes, kept only because perfbench's type-A descent test
        # asserts that these steps call exact_divide
        denom = _xvar(i) - _xvar(i + 1)

        def step(c):
            diff = c.swap_difference(v, w)
            return exact_divide(diff, denom) if diff else diff

    elif isinstance(f, GammaElement):
        # one pass over every coefficient, the combo taken as built
        out = GammaElement()
        out.combo = divided_differences(f.combo, v, w)
        return out
    else:

        def step(c):
            return c.divided_difference(v, w)

    return f.map_coeffs(step) if isinstance(f, GammaElement) else step(Polynomial.of(f))


# ---------------------------------------------------------------------------
# vexillary formulas
# ---------------------------------------------------------------------------


def column_factors(t: Triple, wtype: str):
    """Per column k = 1..k_s, the counts of factors (1+x_j) and (1+y_j) in
    its row: p_i and q_i of its step in types A and D, p_i-1 and q_i-1 in B/C."""
    low = 1 if wtype in ("B", "C") else 0
    return [(t.p[i] - low, t.q[i] - low) for i in column_steps(t)]


def formula_rows(t: Triple, wtype: str):
    """The indices lam and one row per column of the closed formula.

    Type A rows are the power series prod_{j<=p}(1+x_j) / prod_{j<=q}(1+y_j);
    signed rows are Q*g, with g = prod_{j<p}(1+x_j) prod_{j<q}(1+y_j) in
    types B/C and g = prod_{j<=p}(1+x_j) prod_{j<=q}(1+y_j) in type D.
    """
    lam = lambda_of(t)
    if not lam:
        return (), []
    if wtype == "A":
        bound = lam[0] + len(lam)
        return lam, [
            rational_series(
                [1 + _xvar(j) for j in range(1, p + 1)],
                [1 + _yvar(j) for j in range(1, q + 1)],
                bound,
            )
            for p, q in column_factors(t, wtype)
        ]
    return lam, [ones_series(("x", p), ("y", q)) for p, q in column_factors(t, wtype)]


def vexillary_polynomial(t: Triple, wtype: str = None):
    """The closed multi-Schur formula for the triple's Schubert polynomial.

    wtype defaults to the triple's own type; pass "B" to evaluate a
    B/C triple with half-generators.  The signed types take the Pfaffian
    of formula_rows: Pf_lam(Q*g) in type C, 2^-r times it in type B (the
    half-generator rows P*g), and 2^-r times the paired Pfaffian
    Pf_lam(g | Q*g) in type D.  Every valid triple, strict or redundant,
    passes the Pfaffians' guards; an invalid one raises InvalidTriple
    from `lambda_of`, which validates it once.
    """
    wtype = wtype or t.wtype
    lam, rows = formula_rows(t, wtype)
    if wtype == "A":
        return multischur_det(lam, rows)
    pf = (multischur_pf_d if wtype == "D" else multischur_pf)(lam, rows)
    return pf if wtype == "C" else pf.halve(len(lam))


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


_CACHE = {}
classes_built = 0
zero_steps = 0


def schubert(w: SignedPermutation, wtype: str, n: int = None):
    """The double Schubert polynomial of w, by the smallest-ascent route.
    n defaults to the size of w (at least 2 in type D); a smaller n
    raises SizeMismatch."""
    if wtype == "A" and not w.is_unsigned():
        raise ValueError("type A wants an unsigned permutation")
    least = max(w.n, 2) if wtype == "D" else w.n
    if n is None:
        n = least
    elif n < least:
        raise SizeMismatch(f"n = {n} is too small for the type {wtype} word '{w}': need n >= {least}")
    return _descend(w if w.n == n else w.embed(n), wtype, n)


def sweep(n: int, wtype: str):
    """(w, class) for each w of `all_elements(n, wtype)`, in its order, by
    the generator-0-last route; type D sizes W_1 up to 2, as `schubert` does."""
    size = max(n, 2) if wtype == "D" else n
    for w in all_elements(n, wtype):
        yield w, _descend(w.embed(size), wtype, size, True)


def _descend(w, wtype, n, zero_last=False):
    global classes_built, zero_steps
    key = (wtype, n, w.values)
    if key in _CACHE:
        return _CACHE[key]
    i = first_ascent(w, wtype, zero_last)
    if i is None:
        out = top_class(n, wtype, d_zero=wtype == "D" and n % 2 == w.num_barred() % 2)
    else:
        out = divided_difference(i, _descend(w.right_gen(i, wtype), wtype, n, zero_last), wtype)
        zero_steps += i == 0
    classes_built += 1
    _CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------


def expand_coeffs(e: GammaElement, basis: str = "Q") -> dict:
    """Basis coefficients {lambda: Polynomial}; basis "P" rescales by
    2^len(lambda)."""
    if basis == "Q":
        return dict(e.combo)
    if basis == "P":
        return {
            lam: c * Polynomial.const(1 << len(lam))
            for lam, c in e.combo.items()
        }
    raise ValueError(f"unknown basis {basis}")
