"""Oracles for the tests, kept out of the program since no command runs
them: the symmetric-function specialization of Gamma, and the
degeneracy-locus class of a triple with caller-supplied Chern data.

    from oracles import degeneracy_formula, specialize_symfun
"""

from vexpf.gamma import GeneratorSeries, pf_rows, series_rows, substitute_q
from vexpf.multischur import paired_rows
from vexpf.polycore import Polynomial, rational_series
from vexpf.schubert import formula_rows
from vexpf.triples import InvalidTriple, column_steps


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
