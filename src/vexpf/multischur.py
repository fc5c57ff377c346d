"""Multi-Schur determinants and Pfaffians.

  * multischur_det -- type A, a Jacobi-Trudi style determinant in plain
    power series: the Pfaffian of [[0, A], [-A^T, 0]] through `pfaffian`,
    the memoized first-row expander that the gysin checks use as well;
  * multischur_pf -- types B/C, the Pfaffian with (i,j) entry
      c(i)_{k_i} c(j)_{k_j} + 2 sum_{m>=1} (-1)^m c(i)_{k_i+m} c(j)_{k_j-m}
    and, at odd sizes, border entries c(i)_{k_i}.  Type B (rows P*g) is
    2^-r times this Pfaffian for Q*g;
  * multischur_pf_d -- type D, the paired Pfaffian of a finite polynomial
    c(i) alongside each series d(i): the rows d(i)_{k_i} + c(i)_{k_i} f.

Both Pfaffians are one fold, `gamma.pf_rows`, straight in the Q basis.
Their matrices are skew exactly when each series multiplier has degree
below its index, which is verified up front (check=False evaluates any
integer index sequence).
"""

from __future__ import annotations

from fractions import Fraction

from .polycore import Polynomial, exact_divide, NotDivisible, ones_product
from .gamma import GammaElement, GeneratorSeries, pf_rows, series_rows


class SkewCheckFailed(ValueError):
    pass


class StarRelationFailed(ValueError):
    pass


class DivisibilityFailed(ValueError):
    pass


# ---------------------------------------------------------------------------
# type A
# ---------------------------------------------------------------------------


def multischur_det(lam, series) -> Polynomial:
    """det( a(i)_{lam_i + j - i} ) for 1 <= i, j <= r.

    lam: weakly decreasing nonnegative integers; series: one truncated
    power series (Polynomial) per row, truncated at degree >= lam_1 + r.
    The determinant is (-1)^{r(r-1)/2} Pf [[0, A], [-A^T, 0]]: each
    sub-Pfaffian of the first-row expansion keeps the rows below the
    current one and a subset of the columns, so it is the minor on those
    columns, computed once.
    """
    lam = tuple(lam)
    r = len(lam)
    if len(series) != r:
        raise ValueError("need one series per row")
    series = [Polynomial.of(a) for a in series]
    zero = Polynomial()

    def entry(i, j):
        if i < r <= j:
            return series[i].part(lam[i] + j - r - i)
        return zero

    pf = pfaffian(2 * r, entry, Polynomial.const(1))
    return -pf if r * (r - 1) // 2 % 2 else pf


def pfaffian(size: int, entry, one, border=None):
    """The Pfaffian of the skew matrix with entries entry(i, j), 0 <= i < j < size.

    Entries live in any ring with +, -, * and truthiness (polynomials,
    gysin's indexed operators); `one` is its unit.  An odd size
    needs border(i): it becomes an extra last column, so the result is the
    border expansion sum_i (-1)^i border(i) Pf(minor without i).  Expansion
    runs along the first row; each entry and each sub-Pfaffian is computed
    once, and zero entries are skipped.
    """
    odd = size % 2
    if odd and border is None:
        raise ValueError("an odd-size Pfaffian needs a border")
    entries = {}
    memo = {(): one}

    def pf(positions):
        if positions in memo:
            return memo[positions]
        first, rest = positions[0], positions[1:]
        acc = one - one
        for pos, j in enumerate(rest):
            if (first, j) not in entries:
                entries[first, j] = border(first) if j == size else entry(first, j)
            e = entries[first, j]
            if not e:
                continue
            term = e * pf(rest[:pos] + rest[pos + 1 :])
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[positions] = acc
        return acc

    return pf(tuple(range(size + odd)))


# ---------------------------------------------------------------------------
# types B / C
# ---------------------------------------------------------------------------


def multischur_pf(lam, series, check: bool = True) -> GammaElement:
    """The Pfaffian Pf_lam(c(1), ..., c(r)) as an element of the basis ring.

    lam: integers (a strict partition in the checked case); series: one
    GeneratorSeries per index.  With check=True, each multiplier must
    have degree < its index, which guarantees the matrix is genuinely
    skew; check=False evaluates the same Pfaffian for arbitrary integer
    sequences.
    """
    lam = tuple(lam)
    if len(series) != len(lam):
        raise ValueError("need one series per index")
    if check:
        for k, c in zip(lam, series):
            if c.multiplier.degree() >= max(k, 1):
                raise SkewCheckFailed(
                    f"multiplier degree {c.multiplier.degree()} too big for index {k}"
                )
    return pf_rows(*series_rows(lam, series))


# ---------------------------------------------------------------------------
# type D
# ---------------------------------------------------------------------------


def multischur_pf_d(lam, pairs, check: bool = True) -> GammaElement:
    """The paired Pfaffian Pf_lam(c(1)|d(1), ..., c(r)|d(r)), no power of 1/2 applied.

    lam: strictly decreasing nonnegative integers; pairs: one (c, d) per
    index, c a Polynomial with unit constant term, d a GeneratorSeries.
    With d_i = d(i)_{k_i} and c_i = c(i)_{k_i}, its (i,j) entry is the B/C
    entry of the d plus d_i c_j - d_j c_i - c_i c_j and its border entries
    are d_i + c_i: the Pfaffian of the rows d_i + c_i f of `pf_rows`.

    With check=True the defining invariants are verified: deg c(i) <=
    lam_i, c(i) divides d(i) and every earlier c(j) (j < i), and
    d(i) d(j)* = c(i) c(j)*.
    """
    lam = tuple(lam)
    if len(pairs) != len(lam):
        raise ValueError("need one c|d pair per index")
    cs = [Polynomial.of(c) for c, _ in pairs]
    ds = [d for _, d in pairs]
    if check:
        _check_paired(lam, cs, ds)
    rows, has_q = series_rows(lam, ds)
    for row, k, c in zip(rows, lam, cs):
        row[None] = c.part(k)
    return pf_rows(rows, has_q)


def _check_paired(lam, cs, ds):
    for k, c, d in zip(lam, cs, ds):
        if c.constant_term() != 1:
            raise ValueError("c series must have constant term 1")
        if c.degree() > k:
            raise SkewCheckFailed(f"deg c = {c.degree()} exceeds index {k}")
        try:
            exact_divide(d.multiplier, c)
        except NotDivisible:
            raise DivisibilityFailed(f"{c} does not divide {d!r}")
    for i in range(len(cs)):
        for j in range(i):
            try:
                exact_divide(cs[j], cs[i])
            except NotDivisible:
                raise DivisibilityFailed(f"c({i+1}) does not divide c({j+1})")
    failure = star_relation_failure(list(zip(cs, ds)))
    if failure:
        raise StarRelationFailed(failure)


def star_relation_failure(pairs, bound: int = None):
    """The first relation d(i) d(j)* = c(i) c(j)* (i < j) the (c, d) pairs
    break, compared below total degree bound if given, as a message; else None."""
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (ci, di), (cj, dj) = pairs[i], pairs[j]
            if di.has_q != dj.has_q:
                return "mixed series types"
            lhs = di.multiplier * dj.multiplier.star()
            rhs = Polynomial.of(ci) * Polynomial.of(cj).star()
            if bound is not None:
                lhs, rhs = lhs.truncate(bound), rhs.truncate(bound)
            if lhs != rhs:
                below = "" if bound is None else f" below degree {bound}"
                return f"d({i+1}) d({j+1})* != c({i+1}) c({j+1})*{below}"
    return None


# ---------------------------------------------------------------------------
# the deformed basis families in the t variables
# ---------------------------------------------------------------------------


def q_family(lam) -> GammaElement:
    """The deformed basis element with rows Q * prod_{j<lam_i}(1+t_j)."""
    lam = tuple(lam)
    series = [GeneratorSeries(True, ones_product("t", k - 1)) for k in lam]
    return multischur_pf(lam, series)


def p_family(lam) -> GammaElement:
    """Half-generator version of q_family: q_family / 2^len(lam)."""
    lam = tuple(lam)
    return q_family(lam) * Polynomial.const(Fraction(1, 1 << len(lam)))


def r_family(lam) -> GammaElement:
    """The even-orthogonal family: the paired Pfaffian with
    c(i) = prod_{j<=lam_i}(1+t_j), d(i) = Q*c(i), scaled by 2^-len(lam)."""
    lam = tuple(lam)
    cs = [ones_product("t", k) for k in lam]
    pairs = [(c, GeneratorSeries(True, c)) for c in cs]
    pf = multischur_pf_d(lam, pairs)
    return pf * Polynomial.const(Fraction(1, 1 << len(lam)))
