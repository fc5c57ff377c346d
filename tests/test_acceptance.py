"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -s  to see the lines as they go.
Criterion 12 is exploratory: findings are printed but never fail the gate
(its pinned stdout does).
Criteria that the `vexpf verify` suites cover run the suite itself, with
the parameters a bare `vexpf verify <suite>` uses unless stated; the rest
(random routes, the type-B inverse swap, skew pairs, the non-vexillary
witness) keep their own code.  Each suite runs through `cli.main`, so
it passes the CLI's own option checks, and the stdout of the suite runs
that perfbench/reference.json does not pin is pinned here.
"""

import contextlib
import hashlib
import io
import random
import time

from vexpf.polycore import Polynomial
from vexpf.gamma import GammaElement, GeneratorSeries, q_pair
from vexpf.weyl import SignedPermutation, all_elements, length
from vexpf.schubert import schubert, swap_xy
from vexpf import cli

from oracles import top_term
from random_routes import schubert_by_random_route


def report(n, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {n:2d}: {tag}" + (f" ({detail})" if detail else ""))
    return ok


# SHA-256 of the plain stdout of `vexpf verify <key>`
VERIFY_STDOUT = {
    "theorem-equivalence": "a2b74afb53a29f04bf188deec2a7656847f5861ef288cd4fa8928ac7e09a87aa",
    "stability": "7e3417fff5641d3c6f10ea57bee64f36012c686d5dab0d142f1cf00c8b550da8",
    "stability --n 3": "cfca72a16aace1bf1560ec33ed0ad34ec21c973ee04336fe0e2b668cf286a85c",
    "b-scaling --n 3": "cf8a9619ef92a458183a4e9a65edd29840add8b4afa3e01a56da3084059dda46",
    "inverse-swap": "83f4918033fd601292380eb3deae3c419f969eb0a049764c17ff018b7c893c03",
    "redundancy": "864f82af9c8a40efda3d680a7efa3f25f57af1e27d4d1dcb7c68e8b5a1001e1b",
    "identity-2-3": "95815a9dfd6abd2b29d3b7b4fd21cbae15d716ed6fcadc0f689fa50af51489b6",
    "positivity --n 3": "2089429da5a6bd132ca2c93bfe756bb1d138b230ef153fde309b326ffe5cec13",
    "appendix-a2 --r 1": "f9794bd0dca9ba7d28fedcf2664491f2e92385c249d3c41046635d16d226dbbb",
    "appendix-a2 --r 2": "5348666414436b1f44735404b10a1dbe24502a1cc8132b75ba0062355ce54762",
}


def run_suite(name, *options):
    """`vexpf verify name *options`, run through `cli.main`: (pass, report
    lines), read from its exit code and stdout.  A run keyed in
    VERIFY_STDOUT must print the pinned stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", name, *options])
    assert code in (0, 1), f"verify {name} exited {code}"
    stdout = out.getvalue()
    key = " ".join((name, *options))
    if key in VERIFY_STDOUT:
        assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_STDOUT[key], f"verify {key}"
    return code == 0, "; ".join(stdout.splitlines()[:-1])


def test_criterion_1_census():
    t0 = time.time()
    ok, detail = run_suite("census", "--n", "3")  # 33/48 C and 18/24 D are checked at n = 3
    elapsed = time.time() - t0
    assert report(1, ok and elapsed < 5, f"{detail}, {elapsed:.1f}s")


def test_criterion_2_theorem_equivalence():
    t0 = time.time()
    results = [run_suite("theorem-equivalence", "--type", t, "--n", "3") for t in "BCD"]
    results.append(run_suite("theorem-equivalence"))  # type C, n = 2
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
    ok = run_suite("stability")[0] and ok  # W_2 into W_3
    for wtype in ("A", "B", "C", "D"):
        for w in all_elements(3, wtype):
            if schubert(w, wtype) != schubert_by_random_route(w, wtype, rng):
                ok = False
    assert report(3, ok, f"random routes, all types; {detail}")


def test_criterion_4_b_scaling():
    ok, detail = run_suite("b-scaling", "--n", "3")
    assert report(4, ok, f"B = 2^-r C over W_3: {detail}")


def test_criterion_5_inverse_symmetry():
    ok, detail = run_suite("inverse-swap")  # types C and D over W_3
    for w in all_elements(3, "B"):
        if swap_xy(schubert(w, "B")) != schubert(w.inverse(), "B"):
            ok = False
    assert report(5, ok, f"x<->y swap = inverse, type B over W_3; {detail}")


def _random_series(rng):
    mult = Polynomial.const(1)
    deg = rng.randrange(0, 3)
    for j in rng.sample(range(1, 5), deg):
        mult = mult * (1 + Polynomial.variable("t", j))
    return GeneratorSeries(mult)


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
    # the pinned smaller runs: one and two pushforward steps
    ok_small = all(run_suite("appendix-a2", "--r", r)[0] for r in ("1", "2"))
    assert report(11, ok_a1 and ok_a2 and ok_small, f"{detail_a1}; {detail_a2}")


def test_criterion_12_positivity_exploratory():
    ok, detail = run_suite("positivity", "--n", "3")
    report(12, ok, "exploratory; " + detail)
    # non-blocking by design: findings are reported, never failed on
