"""Multi-Schur determinants and Pfaffians.

The type-A determinant (`multischur_det`) is a Pfaffian of plain power
series through `pfaffian`, the memoized expander that the gysin checks
use as well.  The B/C Pfaffian (`multischur_pf`) and type D's paired one
(`multischur_pf_d`) are one fold, `gamma.pf_rows`, over rows of
`gamma.GeneratorSeries` Q * g, so type D's star relation
d(i) d(j)* = c(i) c(j)* holds exactly (Q Q* = 1).  Both check their
guards before they fold, and every triple, strict or redundant, passes
them: p and q weakly decrease along its steps.
"""

from __future__ import annotations

from functools import lru_cache

from .polycore import Polynomial, exact_divide, NotDivisible
from .gamma import GammaElement, GeneratorSeries, ones_series, pf_rows, series_rows


class SkewCheckFailed(ValueError):
    pass


class DivisibilityFailed(ValueError):
    pass


# ---------------------------------------------------------------------------
# type A
# ---------------------------------------------------------------------------


def multischur_det(lam, series) -> Polynomial:
    """det( a(i)_{lam_i + j - i} ) for 1 <= i, j <= r, lam weakly
    decreasing and one series (Polynomial) per row, truncated at degree
    >= lam_1 + r: (-1)^{r(r-1)/2} Pf [[0, A], [-A^T, 0]], whose
    sub-Pfaffians are the minors, each computed once."""
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
    """The Pfaffian of the skew matrix with entries entry(i, j), 0 <= i < j
    < size, in any ring with +, -, * and truthiness; `one` is its unit.
    An odd size needs border(i), an extra last column.  Expansion runs
    along the first row, each entry and sub-Pfaffian computed once."""
    odd = size % 2
    if odd and border is None:
        raise ValueError("an odd-size Pfaffian needs a border")
    entries = {}

    def cached(i, j):
        if (i, j) not in entries:
            entries[i, j] = border(i) if j == size else entry(i, j)
        return entries[i, j]

    return _pf(tuple(range(size + odd)), cached, {(): one})


def _pf(positions: tuple, entry, memo: dict):
    """The sub-Pfaffian of `pfaffian` on `positions`, by its first row; memo
    is the calling Pfaffian's, so nothing outlives it."""
    if positions not in memo:
        first, rest = positions[0], positions[1:]
        acc = memo[()] - memo[()]
        for pos, j in enumerate(rest):
            e = entry(first, j)
            if e:
                term = e * _pf(rest[:pos] + rest[pos + 1 :], entry, memo)
                acc = acc + (term if pos % 2 == 0 else -term)
        memo[positions] = acc
    return memo[positions]


# ---------------------------------------------------------------------------
# types B / C
# ---------------------------------------------------------------------------


def multischur_pf(lam, series) -> GammaElement:
    """The Pfaffian Pf_lam(c(1), ..., c(r)) as an element of the basis ring:
    (i,j) entry c(i)_{k_i} c(j)_{k_j} + 2 sum_{m>=1} (-1)^m c(i)_{k_i+m}
    c(j)_{k_j-m}, and border entries c(i)_{k_i} at odd sizes.

    lam: a strict partition; series: one GeneratorSeries per index, each
    multiplier of degree < its index, which makes the matrix skew.
    """
    lam = tuple(lam)
    if len(series) != len(lam):
        raise ValueError("need one series per index")
    for k, c in zip(lam, series):
        if c.degree >= max(k, 1):
            raise SkewCheckFailed(f"multiplier degree {c.degree} too big for index {k}")
    return pf_rows(series_rows(lam, series))


# ---------------------------------------------------------------------------
# type D
# ---------------------------------------------------------------------------


def multischur_pf_d(lam, series) -> GammaElement:
    """The paired Pfaffian Pf_lam(c(1)|d(1), ..., c(r)|d(r)), no power of
    1/2 applied: the Pfaffian of `paired_rows`.  lam strictly decreases
    and is nonnegative; series holds one GeneratorSeries d(i) = Q * c(i)
    per index, with deg c(i) <= lam_i and c(i) dividing c(i-1)."""
    lam = tuple(lam)
    if len(series) != len(lam):
        raise ValueError("need one series per index")
    for k, d in zip(lam, series):
        if d.degree > k:
            raise SkewCheckFailed(f"deg c = {d.degree} exceeds index {k}")
    for i in range(1, len(series)):
        if not _divides(series[i - 1], series[i]):
            raise DivisibilityFailed(f"c({i+1}) does not divide c({i})")
    return pf_rows(paired_rows(lam, series))


def paired_rows(lam, series):
    """The rows d_i + c_i f of the paired Pfaffian, with d_i = d(i)_{k_i}
    and c_i = c(i)_{k_i} the scalar on type D's extra symbol f, read from
    the series' split by degree (a zero c_i adds no entry)."""
    rows = series_rows(lam, series)
    for row, k, d in zip(rows, lam, series):
        if k in d.parts:
            row[None] = d.parts[k]
    return rows


@lru_cache(maxsize=1024)
def _divides(d: GeneratorSeries, d2: GeneratorSeries) -> bool:
    """Whether the multiplier of d2 divides that of d, by `exact_divide`,
    once per pair of series: the rows of `ones_series` are shared, so the
    formulas ask again and again about the same few pairs."""
    try:
        exact_divide(d.multiplier, d2.multiplier)
    except NotDivisible:
        return False
    return True


# ---------------------------------------------------------------------------
# the deformed basis families in the t variables
# ---------------------------------------------------------------------------


def q_family(lam) -> GammaElement:
    """The deformed basis element with rows Q * prod_{j<lam_i}(1+t_j)."""
    lam = tuple(lam)
    series = [ones_series(("t", k - 1)) for k in lam]
    return multischur_pf(lam, series)


def p_family(lam) -> GammaElement:
    """Half-generator version of q_family: q_family / 2^len(lam)."""
    lam = tuple(lam)
    return q_family(lam).halve(len(lam))


def r_rows(lam):
    """The rows of r_family: Q * prod_{j<=lam_i}(1+t_j)."""
    return [ones_series(("t", k)) for k in lam]


def r_family(lam) -> GammaElement:
    """The even-orthogonal family: the paired Pfaffian of `r_rows`,
    scaled by 2^-len(lam)."""
    lam = tuple(lam)
    pf = multischur_pf_d(lam, r_rows(lam))
    return pf.halve(len(lam))
