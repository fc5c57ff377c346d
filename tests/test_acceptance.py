"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -s  to see the lines as they go.
Criterion 12 is exploratory: findings are printed but never fail the gate.
Criteria that the `vexpf verify` suites cover run the suite itself, with
the parameters a bare `vexpf verify <suite>` uses unless stated; the rest
(random routes, the type-B inverse swap, skew pairs, the non-vexillary
witness) keep their own code.
"""

import random
import time

from vexpf.polycore import Polynomial
from vexpf.gamma import GammaElement, GeneratorSeries, q_pair
from vexpf.weyl import SignedPermutation, all_elements, length
from vexpf.schubert import (
    schubert,
    swap_xy,
    top_term,
)
from vexpf.cli import SUITES, build_parser


def report(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d}: {tag}" + (f" ({detail})" if detail else ""))
    return ok


def run_suite(name, *options):
    """SUITES[name] on the arguments of `vexpf verify name *options`:
    (pass, report lines)."""
    lines = []
    ok = SUITES[name](build_parser().parse_args(["verify", name, *options]), lines)
    return ok, "; ".join(lines)


def test_criterion_1_census():
    t0 = time.time()
    ok, detail = run_suite("census", "--n", "3")  # 33/48 C and 18/24 D are checked at n = 3
    elapsed = time.time() - t0
    assert report(1, ok and elapsed < 5, f"{detail}, {elapsed:.1f}s")


def test_criterion_2_theorem_equivalence():
    t0 = time.time()
    results = [run_suite("theorem-equivalence", "--type", t, "--n", "3") for t in "BCD"]
    elapsed = time.time() - t0
    ok = all(ok for ok, _ in results) and elapsed < 120
    detail = "; ".join(detail for _, detail in results)
    assert report(2, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_2_theorem_equivalence_w4():
    t0 = time.time()
    results = [run_suite("theorem-equivalence", "--type", t, "--n", "4") for t in "CD"]
    elapsed = time.time() - t0
    ok = all(ok for ok, _ in results) and elapsed < 1800
    detail = "; ".join(detail for _, detail in results)
    assert report(2, ok, f"W_4: {detail}, {elapsed:.1f}s")


def test_criterion_3_well_definedness_and_stability():
    rng = random.Random(11)
    ok, detail = run_suite("stability", "--n", "3")  # embedding W_3 into W_4
    for wtype in ("A", "B", "C", "D"):
        for w in all_elements(3, wtype):
            if schubert(w, wtype) != schubert(w, wtype, rng=rng):
                ok = False
    assert report(3, ok, f"random routes, all types; {detail}")


def test_criterion_4_b_scaling():
    ok, detail = run_suite("b-scaling", "--n", "3")
    assert report(4, ok, f"B = 2^-r C over W_3: {detail}")


def test_criterion_5_inverse_symmetry():
    ok = True
    for wtype in ("B", "C", "D"):
        for w in all_elements(3, wtype):
            if swap_xy(schubert(w, wtype)) != schubert(w.inverse(), wtype):
                ok = False
    assert report(5, ok, "x<->y swap = inverse, types B/C/D over W_3")


def _random_series(rng):
    mult = Polynomial.const(1)
    deg = rng.randrange(0, 3)
    for j in rng.sample(range(1, 5), deg):
        mult = mult * (1 + Polynomial.variable("t", j))
    return GeneratorSeries(True, mult)


def test_criterion_6_skew_symmetry_and_redundancy():
    rng = random.Random(23)
    ok = True
    for _ in range(100):
        c1, c2 = _random_series(rng), _random_series(rng)
        k = rng.randrange(c1.multiplier.degree() + 1, 6)
        l = rng.randrange(c2.multiplier.degree() + 1, 6)
        if q_pair(k, l, c1, c2) != -q_pair(l, k, c2, c1):
            ok = False
    ok_red, detail = run_suite("redundancy")
    assert report(6, ok and ok_red, f"100 skew pairs; {detail}")


def test_criterion_7_vanishing_specialization():
    ok, detail = run_suite("lemma25")
    assert report(7, ok, detail)


def test_criterion_8_shift_identities():
    ok, detail = run_suite("identity-2-3")  # max part 5, plus the W_3 type-D triples
    assert report(8, ok, detail)


def test_criterion_9_nonvexillary_witness():
    w = SignedPermutation.parse("-3 2 -1")
    got = top_term(schubert(w, "C"), length(w, "C"))
    ok = got == GammaElement({(3, 2): 1, (4, 1): 1})
    assert report(9, ok, "top term of the witness is Q(3,2) + Q(4,1)")


def test_criterion_10_type_a():
    ok, detail = run_suite("type-a", "--n", "4")
    assert report(10, ok, detail)


def test_criterion_11_appendix():
    ok_a1, detail_a1 = run_suite("appendix-a1")
    ok_a2, detail_a2 = run_suite("appendix-a2", "--r", "3")
    assert report(11, ok_a1 and ok_a2, f"{detail_a1}; {detail_a2}")


def test_criterion_12_positivity_exploratory():
    ok, detail = run_suite("positivity", "--n", "3")
    report(12, ok, "exploratory; " + detail)
    # non-blocking by design: findings are reported, never failed on
