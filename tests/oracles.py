"""Oracles for the tests, kept out of the program since no command runs
them: the plain series Q (`Q_SERIES`), the substitution of a series for
Q through the generator-monomial expansion of each basis symbol, the
symmetric-function specialization of Gamma, the degeneracy-locus class
of a triple with caller-supplied Chern data, the branching rule and the
top-degree part of a class written term by term, the Pfaffian fold with
every row folded from the unit state and the rows it reads as dicts,
the partition of a triple read off its reduction, the reduction of a
redundant triple one dropped step at a time, and the restriction of a
class to a torus-fixed point with Billey's product of roots at the top.

    from oracles import degeneracy_formula, specialize_symfun
"""

import itertools
import math

from vexpf.gamma import GammaElement, GeneratorSeries, _prepend, is_strict, pf_expansion, pf_rows, series_rows
from vexpf.gysin import substitute_q
from vexpf.multischur import paired_rows
from vexpf.polycore import Polynomial, _add_into, _fma, _settle, rational_series
from vexpf.schubert import formula_rows
from vexpf.triples import InvalidTriple, Triple, _steps, column_steps, reduce_redundant, validate


Q_SERIES = GeneratorSeries(1)


class TruncationTooSmall(ValueError):
    pass


def symfun_series(n_vars: int, bound: int) -> Polynomial:
    """prod_{i=1}^{N} (1+z_i)/(1-z_i), truncated at total degree `bound`."""
    z = [Polynomial.variable("z", i) for i in range(1, n_vars + 1)]
    return rational_series([1 + zi for zi in z], [1 - zi for zi in z], bound)


def specialize_symfun(e, n_vars: int, bound: int) -> Polynomial:
    """e under Q -> prod_{i<=N} (1+z_i)/(1-z_i), up to total degree
    `bound`: Q_lambda goes to Q_lambda(z_1, ..., z_N), which is 0 for more
    than N parts, and the images of the Q_lambda with at most N parts are
    linearly independent (Macdonald III §8)."""
    if bound < e.degree():
        raise TruncationTooSmall(f"degree {e.degree()} element needs truncation >= that, got {bound}")
    return substitute_q(e, symfun_series(n_vars, bound))


def substitute_q_by_monomials(e: GammaElement, series: Polynomial) -> Polynomial:
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


def degeneracy_formula(t, q_series=None, multipliers=None):
    """The degeneracy-locus class of a signed-type triple with
    caller-supplied Chern data: the Pfaffian of `vexillary_polynomial`
    over other rows, folded by `pf_rows` with no guard, since the rows
    need not meet the Pfaffians' degree and divisibility conditions.

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
    lam, rows = formula_rows(t, t.wtype)
    if multipliers is not None:
        rows = [GeneratorSeries(multipliers[i]) for i in column_steps(t)]
    e = pf_rows((paired_rows if t.wtype == "D" else series_rows)(lam, rows))
    if t.wtype != "C":
        e = e.halve(len(lam))
    if q_series is None:
        return e
    return substitute_q(e, Polynomial.of(q_series))


def top_term(e, degree):
    """The sum of the basis terms of e of full weight, with their constant
    coefficients."""
    return GammaElement({lam: c.part(0) for lam, c in e.combo.items() if sum(lam) == degree})


def branch_term_by_term(e, v):
    """Add the variable v to the alphabet of Q by the branching rule
    Q_lambda(X, v) = sum_mu 2^a v^|lambda/mu| Q_mu(X), one Polynomial
    product per (lambda, mu), summed per mu."""
    combo = {}
    for lam, coeff in e.combo.items():
        for mu in itertools.product(*(range(l, b - 1, -1) for l, b in zip(lam, lam[1:] + (0,)))):
            a = sum(m < l and not (j and mu[j - 1] == l) for j, (m, l) in enumerate(zip(mu, lam)))
            mu = mu[:-1] if mu and not mu[-1] else mu
            if is_strict(mu):
                term = coeff * v ** (sum(lam) - sum(mu)) * (1 << a)
                combo[mu] = combo.get(mu, Polynomial()) + term
    return GammaElement(combo)


def dict_rows(lam, series, paired=False) -> list:
    """The rows of series at the indices lam as dicts {m: Polynomial}:
    c(i)_{lam_i} = {lam_i - a: g_a}, plus in type D (paired) the scalar
    g_{lam_i} on f (key None) where it is not 0.  They hold the same
    entries as `series_rows` and `paired_rows`, before `lift_row`."""
    rows = []
    for k, c in zip(lam, series):
        row = {k - a: g for a, g in c.parts.items()}
        if paired and k in c.parts:
            row[None] = c.parts[k]
        rows.append(row)
    return rows


def pf_rows_from_unit_state(rows) -> GammaElement:
    """`gamma.pf_rows` with no seeded last row, on rows {m: Polynomial}
    (`dict_rows`) that it lifts itself on every call: every row, the last
    one included, folds by `_fma` from the unit state {((), False): {0: 1}}
    into a fresh `acc` settled per row, so each map it returns is its
    own.  It shares the program's straightening table and direction, and
    so the order of its states and terms, which the seeded fold must
    reproduce exactly."""
    e, state = 0, {((), False): {0: 1}}
    for row in reversed(list(rows)):
        top = max((g.e for g in row.values()), default=0)
        e += top
        lifted = [
            (m, g.packed if g.e == top else {mono: c << (top - g.e) for mono, c in g.packed.items()})
            for m, g in row.items()
            if g
        ]
        acc = {}
        for (suffix, f), packed in state.items():
            for m, g in lifted:
                if m is None:
                    sign = -1 if (len(suffix) & 1) ^ f else 1
                    targets = [(acc.setdefault((suffix, not f), {}), sign)]
                else:
                    targets = [
                        (acc.setdefault((v[:-1], not f) if v and not v[-1] else (v, f), {}), c)
                        for v, c in _prepend(m, suffix)
                    ]
                    if not targets:
                        continue
                _fma(targets, packed, g)
        state = {}
        for pair, packed in acc.items():
            packed = _settle(packed)
            if packed:
                state[pair] = packed
    combo = {}
    for (v, _), packed in state.items():
        if v and v[-1] < 0:
            continue
        if v in combo:
            _add_into(combo[v], packed)
        else:
            combo[v] = packed
    out = GammaElement()
    out.combo = {lam: Polynomial.from_packed(p, e) for lam, p in combo.items() if p}
    return out


def lambda_by_reduction(t) -> tuple:
    """`triples.lambda_of` read off the reduced triple: a redundant triple
    is reduced first, then each column reads l_i of the step governing
    it."""
    t = reduce_redundant(t)
    ls = [p - q + k for k, p, q in _steps(t)]
    if t.wtype == "A":
        return tuple(ls[i] for i in column_steps(t))
    shift = 1 if t.wtype == "D" else 0
    return tuple(ls[i] - k - shift for k, i in enumerate(column_steps(t), start=1))


def reduce_stepwise(t):
    """`triples.reduce_redundant` one step at a time: drop the first zero
    slack and revalidate, until the triple is strict."""
    status = validate(t)
    if status == "invalid":
        raise InvalidTriple(str(t))
    while status == "redundant":
        ls = [p - q + k for k, p, q in _steps(t)]
        drop = next(i for i in range(t.s - 1) if ls[i] == ls[i + 1])  # the first zero slack
        t = Triple(*([x for i, x in enumerate(xs) if i != drop] for xs in (t.k, t.p, t.q)), t.wtype)
        status = validate(t)
    return t


# Localization (Billey, Duke 1999; the signed types after
# Ikeda-Mihalcea-Naruse, Adv. Math. 2011).  A class restricts to the
# fixed point v by a signed renaming of x and the negt form of Q on y,
# through `Polynomial.substitute` and `substitute_q`, never through
# `pf_rows` or the strip fold that build the classes.


def _y(j):
    return Polynomial.variable("y", j)


def restrict(e, v) -> Polynomial:
    """The class e restricted to the fixed point v: x_i -> -y_{v(i)},
    with y_{-j} = -y_j, and Q -> prod (1 - y_j)/(1 + y_j) over
    j = |v(i)| for the barred values v(i) < 0."""
    xs = {("x", i): _y(-a) if a < 0 else -_y(a) for i, a in enumerate(v.values, start=1)}
    e = e.map_coeffs(lambda c: c.substitute(xs))
    barred = [-a for a in v.values if a < 0]
    # the defining Pfaffian of Q_lambda uses generators up to lambda_1 + lambda_2
    bound = max((sum(lam[:2]) for lam in e.combo), default=0)
    q = rational_series([1 - _y(j) for j in barred], [1 + _y(j) for j in barred], bound)
    return substitute_q(e, q)


def _simple_root(i: int, wtype: str) -> Polynomial:
    """alpha_i = y_i - y_{i+1}; alpha_0 = -y_1 (B), -2 y_1 (C) or
    -(y_1 + y_2) (D)."""
    if i:
        return _y(i) - _y(i + 1)
    return {"B": -_y(1), "C": -2 * _y(1), "D": -_y(1) - _y(2)}[wtype]


def _reflect(i: int, wtype: str) -> dict:
    """s_i acting on y, as a renaming: y_i <-> y_{i+1}; s_0 sends
    y_1 -> -y_1 in B and C, and y_1 <-> -y_2 in D."""
    if i:
        return {("y", i): _y(i + 1), ("y", i + 1): _y(i)}
    if wtype == "D":
        return {("y", 1): -_y(2), ("y", 2): -_y(1)}
    return {("y", 1): -_y(1)}


def billey_top(word, wtype: str) -> Polynomial:
    """A class restricted at its own element, from a reduced word
    a_1 ... a_l of it: the product of the roots
    beta_j = s_{a_1} ... s_{a_{j-1}}(alpha_{a_j})."""
    out = Polynomial.const(1)
    for j, a in enumerate(word):
        root = _simple_root(a, wtype)
        for b in reversed(word[:j]):
            root = root.substitute(_reflect(b, wtype))
        out = out * root
    return out


def localization_failures(e, top, word, points, wtype: str) -> list:
    """The fixed points among `points` where e, a candidate class of the
    element `top` with reduced word `word`, does not restrict as a top
    class does: to Billey's product at `top` and to 0 everywhere else."""
    want = billey_top(word, wtype)
    return [v for v in points if restrict(e, v) != (want if v == top else 0)]
