"""Command-line surface: compute classes, detect vexillarity, enumerate
group elements, and run the verification suites.

Output is deterministic: terms are emitted in a fixed canonical order,
so identical invocations are byte-identical.  JSON keeps big integers as
strings so any parser survives them.

Importing this module loads every vexpf module (perfbench's tracer finds
its hooks in `sys.modules`), but a standard-library module that one
command needs is imported in that command.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

from .polycore import ExponentOverflow, Polynomial, graded_terms, ones_product, render_terms
from .gamma import GammaElement, GeneratorSeries, q_pair, render_combo, specialize_oracle
from .weyl import SignedPermutation, SizeMismatch, all_elements, length
from .triples import (
    Triple,
    enumerate_triples,
    lambda_of,
    plus_map,
    reduce_redundant,
    triple_of_w,
    validate,
    w_of_triple,
)
from .multischur import multischur_det, p_family, r_family
from .schubert import (
    column_factors,
    expand_coeffs,
    formula_rows,
    schubert,
    swap_xy,
    vexillary_polynomial,
)
from . import gysin


class ParseError(ValueError):
    pass


class UnknownSuite(ValueError):
    pass


class BoundExceeded(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _dumps(obj) -> str:
    """Canonical JSON text; json is imported on first use, so a command that
    prints no JSON never loads it."""
    import json

    return json.dumps(obj, sort_keys=True)


def serialize_element(e) -> list:
    """Canonical term list: one entry per (basis symbol, monomial)."""
    if isinstance(e, Polynomial):
        combo = {(): e}
    else:
        combo = GammaElement.of(e).combo
    rows = []
    for lam in sorted(combo, reverse=True):
        poly = combo[lam]
        for mono, num, k in graded_terms(poly):
            rows.append(
                {
                    "q": list(lam),
                    "coeff": {"num": str(num), "log2den": k},
                    "mono": {f"{v[0]}{v[1]}": exp for v, exp in mono},
                }
            )
    return rows


def render(e, fmt: str, basis: str = "Q") -> str:
    """Text form of a class; basis P rescales signed-type coefficients."""
    if fmt == "json":
        return _dumps({"terms": serialize_element(e)})
    if isinstance(e, Polynomial):
        return render_terms(e, fmt == "latex")
    return render_combo(expand_coeffs(GammaElement.of(e), basis=basis), fmt == "latex", basis)


def _display_basis(wtype: str) -> str:
    return "P" if wtype in ("B", "D") else "Q"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_w(text: str, wtype: str) -> SignedPermutation:
    try:
        w = SignedPermutation.parse(text)
    except Exception as exc:
        raise ParseError(f"bad one-line word {text!r}: {exc}") from exc
    if wtype == "A" and not w.is_unsigned():
        raise ParseError(f"bad one-line word {text!r}: type A wants no barred values")
    return w


# The largest word `schubert` and `vexillary --expand` take, per type.
# On a 2-vCPU, 8 GB machine, end to end, `vexpf schubert --type D --w
# "2 1 -3 -4 -5 -6"` (1.5 M terms, 21 s and 490 MB to compute) took 52 s
# and 530 MB in plain text and 92 s and 2.3 GB with --format json, and
# top_class(7, "C") ran out of 3 GB after 260 s;
# in type A, the longest word of S_7 takes 17 s and 1.2 GB, and the
# top class of S_8 ran out of 2.4 GB after 66 s.
MAX_CLASS_SIZE = {"A": 7, "B": 6, "C": 6, "D": 6}

# The largest --n each `verify` suite takes; the other suites refuse --n.
# On the same machine each suite at its bound took at most 90 s and
# 1.2 GB (census 27 s and 18 MB, b-scaling 71 s and 1.2 GB, inverse-swap 85 s,
# identity-2-3 48 s), while stability --n 5 passed 2.8 GB in 150 s and
# type-a --n 7 and identity-2-3 --n 9 ran past 90 s.
MAX_VERIFY_N = {"census": 7, "theorem-equivalence": 5, "stability": 4, "b-scaling": 5,
                "inverse-swap": 5, "positivity": 5, "type-a": 6, "identity-2-3": 8}

# The suites that read --type, --r and --seed; the others refuse each.
VERIFY_READERS = {"type": ("theorem-equivalence",), "r": ("appendix-a2",), "seed": ("redundancy",)}


def _check_class_size(size: int, wtype: str):
    if size > MAX_CLASS_SIZE[wtype]:
        raise BoundExceeded(
            f"classes are desk-scale: type {wtype} words of size <= {MAX_CLASS_SIZE[wtype]}, got {size}"
        )


def cmd_schubert(args) -> int:
    w = _parse_w(args.w, args.type)
    _check_class_size(max(w.n, args.n or 0), args.type)
    e = schubert(w, args.type, n=args.n)
    print(render(e, args.format, _display_basis(args.type)))
    return 0


def _formula_rows(t: Triple):
    """One line per Pfaffian/determinant row: the index and its series."""
    rows = []
    for k, (p, q) in zip(lambda_of(t), column_factors(t, t.wtype)):
        xs = "".join(f"(1+x{j})" for j in range(1, p + 1))
        ys = "".join(f"(1+y{j})" for j in range(1, q + 1))
        if t.wtype == "A":
            rows.append(f"a_{k} from {xs or '1'}/{ys or '1'}")
        elif t.wtype == "D":
            rows.append(f"index {k}: c = {xs + ys or '1'}, d = Q*c")
        else:
            rows.append(f"index {k}: Q*{xs + ys or '1'}")
    return rows


def cmd_vexillary(args) -> int:
    w = _parse_w(args.w, args.type)
    if args.expand:
        _check_class_size(w.n, args.type)
    t = triple_of_w(w, args.type)
    if t is None:
        if args.format == "json":
            print(_dumps({"vexillary": False, "w": str(w)}))
        else:
            print("not vexillary")
        return 0
    lam = lambda_of(t) if t.s else ()
    payload = {
        "vexillary": True,
        "w": str(w),
        "triple": str(t),
        "lambda": list(lam),
        "formula": _formula_rows(t) if t.s else [],
    }
    if args.expand:
        e = vexillary_polynomial(t, "B" if args.type == "B" else None)
    if args.format == "json":
        if args.expand:
            payload["polynomial"] = serialize_element(e)
        print(_dumps(payload))
    else:
        print(f"triple: {t if t.s else '(empty)'}")
        print(f"lambda: {list(lam)}")
        for row in payload["formula"]:
            print(f"  {row}")
        if args.expand:
            print(f"polynomial: {render(e, args.format, _display_basis(args.type))}")
    return 0


def cmd_enumerate(args) -> int:
    if args.n > 5:
        raise BoundExceeded("enumeration is desk-scale: n <= 5")
    rows = []
    for w in all_elements(args.n, args.type):
        t = triple_of_w(w, args.type)
        if args.vexillary_only and t is None:
            continue
        rows.append(
            {
                "w": str(w),
                "length": length(w, args.type),
                "vexillary": t is not None,
                "triple": str(t) if t is not None and t.s else ("" if t is None else "(empty)"),
                "lambda": list(lambda_of(t)) if t is not None and t.s else [],
            }
        )
    if args.format == "json":
        print(_dumps(rows))
    else:
        for row in rows:
            vex = "vex" if row["vexillary"] else "  -"
            print(
                f"{row['w']:<16} len={row['length']:<3} {vex}  "
                f"{row['triple']}  {row['lambda'] if row['lambda'] else ''}".rstrip()
            )
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _vexillary_count(wtype, n):
    vex = total = 0
    for w in all_elements(n, wtype):
        total += 1
        vex += triple_of_w(w, wtype) is not None
    return vex, total


def suite_census(args, report):
    n = 3 if args.n is None else args.n
    c_vex, c_all = _vexillary_count("C", n)
    d_vex, d_all = _vexillary_count("D", n)
    report.append(f"C: {c_vex}/{c_all} vexillary, D: {d_vex}/{d_all}")
    if n == 3:
        return (c_vex, c_all, d_vex, d_all) == (33, 48, 18, 24)
    return True


def _formula_mismatches(wtype, n):
    """The size of W_n, its vexillary elements, and those whose closed
    formula differs from the class the descent gives."""
    size, vexillary, bad = 0, 0, []
    for w in all_elements(n, wtype):
        size += 1
        t = triple_of_w(w, wtype)
        if t is None:
            continue
        vexillary += 1
        if vexillary_polynomial(t, "B" if wtype == "B" else None) != schubert(w, wtype):
            bad.append(w)
    return size, vexillary, bad


def suite_theorem_equivalence(args, report):
    wtype = args.type or "C"
    n = 2 if args.n is None else args.n
    size, _, bad = _formula_mismatches(wtype, n)
    report.extend(f"mismatch at w = {w}" for w in bad)
    report.append(f"type {wtype}, n = {n}: {size} elements compared")
    return not bad


def suite_stability(args, report):
    n = 2 if args.n is None else args.n
    ok = True
    for wtype in ("A", "B", "C", "D"):
        # type D starts at size 2, so W_1 is compared at sizes 2 and 3
        size = max(n, 2) if wtype == "D" else n
        for w in all_elements(n, wtype):
            if schubert(w, wtype, n=size) != schubert(w.embed(size + 1), wtype, n=size + 1):
                report.append(f"instability: type {wtype}, w = {w}")
                ok = False
    line = f"all four types checked at n = {n} vs {n + 1}"
    report.append(line if n >= 2 else f"{line}, type D at n = 2 vs 3")
    return ok


def suite_b_scaling(args, report):
    n = 3 if args.n is None else args.n
    ok = True
    for w in all_elements(n, "B"):
        scale = Polynomial.const(Fraction(1, 1 << w.num_barred()))
        if schubert(w, "B") != schubert(w, "C") * scale:
            report.append(f"scaling fails at w = {w}")
            ok = False
    report.append(f"2^-r scaling verified on {2 ** n * 6} elements" if n == 3 else "done")
    return ok


def suite_inverse_swap(args, report):
    n = 3 if args.n is None else args.n
    ok = True
    for wtype in ("C", "D"):
        for w in all_elements(n, wtype):
            if swap_xy(schubert(w, wtype)) != schubert(w.inverse(), wtype):
                report.append(f"inverse symmetry fails: type {wtype}, w = {w}")
                ok = False
    report.append(f"x<->y inverse symmetry checked for C and D at n = {n}")
    return ok


# the paper's worked type-A triple, and a redundant triple that reduces to it
WORKED_A = Triple((2, 6, 8), (7, 4, 2), (5, 7, 9), "A")
FAT_A = Triple(tuple(range(1, 9)), (7, 7, 6, 6, 5, 4, 3, 2), (4, 5, 6, 7, 7, 7, 9, 9), "A")


def _worked_a_det_y0(t: Triple) -> Polynomial:
    # the x-only specialization keeps the series finite, so the big worked
    # example stays desk-scale; the double version is checked on small triples
    lam = lambda_of(t)
    bound = lam[0] + len(lam)
    series = [ones_product("x", p).truncate(bound) for p, _ in column_factors(t, "A")]
    return multischur_det(lam, series)


def suite_redundancy(args, report):
    ok = True
    # the worked type-A reduction
    slim = reduce_redundant(FAT_A)
    if _worked_a_det_y0(FAT_A) != _worked_a_det_y0(slim):
        report.append("type-A worked example: determinants differ at y = 0")
        ok = False
    report.append(f"type-A example reduces to {slim}")
    small_a = [
        t
        for t in enumerate_triples("A", 3, allow_redundant=True)
        if validate(t) == "redundant"
    ]
    for t in small_a:
        if vexillary_polynomial(t) != vexillary_polynomial(reduce_redundant(t)):
            report.append(f"type-A reduction changed the determinant: {t}")
            ok = False
    report.append(f"{len(small_a)} small type-A reductions checked in full")
    # randomized C/D redundant triples
    import random

    rng = random.Random(args.seed or 0)
    for wtype in ("C", "D"):
        reds = [
            t
            for t in enumerate_triples(wtype, 3, allow_redundant=True)
            if validate(t) == "redundant"
            and sum(lambda_of(t)) <= 10  # keep the Pfaffians desk-scale
        ]
        sample = rng.sample(reds, min(25, len(reds)))
        for t in sample:
            if vexillary_polynomial(t) != vexillary_polynomial(reduce_redundant(t)):
                report.append(f"redundancy not absorbed: {t}")
                ok = False
        report.append(f"type {wtype}: {len(sample)} redundant triples absorbed")
    return ok


def suite_lemma25(args, report):
    checked = 0
    ok = True
    for k in range(2, 5):
        for l in range(1, k):
            pair = q_pair(k, l, GeneratorSeries(ones_product("t", k - 1)),
                          GeneratorSeries(ones_product("t", l - 1)))
            for r in range(1, 4):
                for nu in itertools.combinations(range(4, 0, -1), r):
                    nu2 = nu[1] if len(nu) > 1 else 0
                    if not (nu[0] < k or nu2 < l):
                        continue
                    checked += 1
                    if specialize_oracle(pair, ("negt", nu)):
                        report.append(f"nonvanishing at k={k}, l={l}, nu={nu}")
                        ok = False
    report.append(f"{checked} vanishing specializations checked")
    return ok


def _plus_support(coeffs, r):
    """The P-basis coefficients of a type-D class re-indexed by the shift
    mu -> mu + 1 (mu of length r, or r - 1 with a part 1 appended); None
    when some support partition has another length."""
    mapped = {}
    for mu, c in coeffs.items():
        if len(mu) == r:
            mapped[tuple(m + 1 for m in mu)] = c
        elif len(mu) == r - 1:
            mapped[tuple(m + 1 for m in mu) + (1,)] = c
        else:
            return None
    return mapped


def suite_identity_2_3(args, report):
    ok = True
    max_part = 5 if args.n is None else args.n
    count = 0
    for size in range(1, max_part + 2):
        for lam in itertools.combinations(range(max_part, -1, -1), size):
            count += 1
            mapped = _plus_support(expand_coeffs(r_family(lam), basis="P"), len(lam))
            if mapped is None:
                report.append(f"unmappable support in lambda = {lam}")
                return False
            pc = expand_coeffs(p_family(tuple(m + 1 for m in lam)), basis="P")
            if mapped != pc:
                report.append(f"shift identity fails for lambda = {lam}")
                ok = False
    report.append(f"{count} deformed-family identities checked (max part {max_part})")
    # the same identity on actual type-D triples against the shifted B series
    tri_count = 0
    for t in enumerate_triples("D", 3):
        tri_count += 1
        mapped = _plus_support(expand_coeffs(vexillary_polynomial(t), basis="P"), t.k[-1])
        if mapped is None:
            report.append(f"unmappable support for triple {t}")
            return False
        pc = expand_coeffs(vexillary_polynomial(plus_map(t), wtype="B"), basis="P")
        if mapped != pc:
            report.append(f"triple shift identity fails for {t}")
            ok = False
    report.append(f"{tri_count} type-D triples compared against their shifts")
    return ok


def suite_appendix_a1(args, report):
    ok = True
    for s in range(7):
        for K in itertools.combinations(range(1, 7), s):
            if not gysin.lemma_A1_check(K):
                report.append(f"sign lemma fails for K = {K}")
                ok = False
    report.append("sign lemma exhausted over K within [6]")
    for size in range(1, 5):
        I = tuple(range(1, size + 1))
        if not gysin.f_index_identity(I, 8):
            report.append(f"product identity fails for I = {I}")
            ok = False
    report.append("Pfaffian/product identity checked for |I| <= 4")
    for lam, K in [((3,), (1,)), ((2, 1), (1, 2)), ((4, 2, 1), (1, 3)), ((3, 2, 1), (1, 2, 3))]:
        if not gysin.prop_A1_check(lam, K):
            report.append(f"operator identity fails for lam = {lam}, K = {K}")
            ok = False
    report.append("deformed operator identity checked for |K| <= 3")
    return ok


def suite_appendix_a2(args, report):
    ok = True
    r_max = 3 if args.r is None else args.r
    shapes = [s for s in [(1,), (2,), (2, 0), (2, 1), (3, 1), (3, 2, 0), (3, 2, 1)] if len(s) <= r_max]
    for lam in shapes:
        if not gysin.prop_A2_check(lam):
            report.append(f"pushforward Pfaffian fails for lam = {lam}")
            ok = False
    report.append(f"composite pushforward = 2^-r Pfaffian for {len(shapes)} shapes")
    # degenerate single-series case against the type-C pipeline
    lam, series = formula_rows(Triple((1, 2), (2, 1), (2, 1), "C"), "C")
    for m in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        if not gysin.plain_pushforward_check(lam, series, m):
            report.append(f"degenerate pushforward fails at exponents {m}")
            ok = False
    report.append("degenerate case matches the Pfaffian index shift")
    return ok


def suite_positivity(args, report):
    n = 3 if args.n is None else args.n
    findings = []
    for w in all_elements(n, "C"):
        for lam, c in expand_coeffs(schubert(w, "C")).items():
            for coeff in c.packed.values():
                if coeff < 0:
                    findings.append((str(w), lam))
    if findings:
        for w, lam in findings[:10]:
            report.append(f"negative coefficient: w = {w}, symbol {lam}")
        report.append(f"{len(findings)} negative terms (interpretation finding)")
        return False
    report.append(f"all basis coefficients nonnegative over W_{n} type C")
    return True


def suite_type_a(args, report):
    n = 4 if args.n is None else args.n
    _, count, bad = _formula_mismatches("A", n)
    report.extend(f"determinant mismatch at w = {w}" for w in bad)
    ok = not bad
    report.append(f"{count} vexillary permutations matched in S_{n}")
    if str(w_of_triple(WORKED_A)) != "1 10 8 9 2 3 6 4 5 7":
        report.append("worked triple produces the wrong permutation")
        ok = False
    if reduce_redundant(FAT_A) != WORKED_A:
        report.append("redundant example does not reduce to the worked triple")
        ok = False
    report.append("worked examples verified")
    return ok


SUITES = {
    "census": suite_census,
    "theorem-equivalence": suite_theorem_equivalence,
    "stability": suite_stability,
    "b-scaling": suite_b_scaling,
    "inverse-swap": suite_inverse_swap,
    "redundancy": suite_redundancy,
    "lemma25": suite_lemma25,
    "identity-2-3": suite_identity_2_3,
    "appendix-a1": suite_appendix_a1,
    "appendix-a2": suite_appendix_a2,
    "positivity": suite_positivity,
    "type-a": suite_type_a,
}


def format_report(suite: str, ok: bool, report: list, fmt: str = "plain") -> str:
    """The stdout of `vexpf verify suite`: the report lines and the verdict,
    or one JSON object."""
    if fmt == "json":
        return _dumps({"suite": suite, "pass": ok, "report": report}) + "\n"
    return "".join(f"{line}\n" for line in report) + f"{suite}: {'PASS' if ok else 'FAIL'}\n"


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    for flag, readers in dict(VERIFY_READERS, n=MAX_VERIFY_N).items():
        if getattr(args, flag) is not None and suite not in readers:
            raise ParseError(f"verify {suite} reads no --{flag}")
    if args.n is not None and args.n > MAX_VERIFY_N[suite]:
        raise BoundExceeded(f"verify {suite} is desk-scale: n <= {MAX_VERIFY_N[suite]}, got {args.n}")
    if args.r is not None and args.r > 3:  # appendix-a2's shapes have at most 3 parts
        raise BoundExceeded(f"verify {suite} is desk-scale: r <= 3, got {args.r}")
    report = []
    ok = SUITES[suite](args, report)
    print(format_report(suite, ok, report, args.format), end="")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vexpf")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "latex", "plain")):
        p.add_argument("--type", choices=["A", "B", "C", "D"], default="C")
        p.add_argument("--format", choices=formats, default="plain")

    p = sub.add_parser("schubert", help="double Schubert polynomial of a word")
    common(p)
    p.add_argument("--w", required=True, help='one-line word, e.g. "1 -3 2"')
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_schubert)

    p = sub.add_parser("vexillary", help="triple and Pfaffian formula of a word")
    common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--expand", action="store_true",
                   help="also expand the closed formula (can be large)")
    p.set_defaults(fn=cmd_vexillary)

    p = sub.add_parser("enumerate", help="list group elements with vexillarity data")
    common(p, ("json", "plain"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vexillary-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default=None)
    p.add_argument("--suite", dest="suite_flag", default=None)
    p.add_argument("--type", choices=["A", "B", "C", "D"], default=None)
    p.add_argument("--format", choices=["json", "plain"], default="plain")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def _check_sizes(args):
    for flag in ("n", "r"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ParseError(f"--{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        args.suite = args.suite or args.suite_flag
        if not args.suite:
            parser.error("verify needs a suite name")
    try:
        _check_sizes(args)
        return args.fn(args)
    except (ParseError, UnknownSuite, BoundExceeded, SizeMismatch, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
