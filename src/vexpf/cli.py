"""Command-line surface: compute classes, detect vexillarity, enumerate
group elements, and run the verification suites.  Terms come in one
canonical order, so identical invocations are byte-identical, and JSON
keeps big integers as strings.  Importing this module loads every vexpf
module (perfbench's tracer finds its hooks in `sys.modules`), but a
standard-library module that one command needs is imported there.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .polycore import ExponentOverflow, Polynomial, graded_terms, ones_product, render_terms
from .gamma import GammaElement, ones_series, q_pair, render_combo, specialize_oracle
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
    sweep,
    vexillary_polynomial,
)
from . import gysin


class UsageError(ValueError):
    """Bad input: a word that does not parse, an unknown suite or option,
    or a size past its bound.  `main` prints it and exits 2."""


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
        raise UsageError(f"bad one-line word {text!r}: {exc}") from exc
    if wtype == "A" and not w.is_unsigned():
        raise UsageError(f"bad one-line word {text!r}: type A wants no barred values")
    return w


# The largest word `schubert` and `vexillary --expand` take, per type.
# On a 2-vCPU, 8 GB machine, end to end, `vexpf schubert --type D --w
# "2 1 -3 -4 -5 -6"` (1.5 M terms, 21 s and 490 MB to compute) took 52 s
# and 530 MB in plain text and 92 s and 2.3 GB with --format json, and
# top_class(7, "C") took 856 s and 4.64 GB for its 29.8 M terms, and one
# generator-0 step on it would need about 9 GB for its output alone;
# in type A, the longest word of S_7 takes 17 s and 1.2 GB, and the
# top class of S_8 ran out of 2.4 GB after 66 s.
MAX_CLASS_SIZE = {"A": 7, "B": 6, "C": 6, "D": 6}


def _check_class_size(size: int, wtype: str):
    if size > MAX_CLASS_SIZE[wtype]:
        raise UsageError(
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
        e = vexillary_polynomial(t, args.type)
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
        raise UsageError("enumeration is desk-scale: n <= 5")
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

SUITES = {}  # name -> suite function, each named suite_* (perfbench traces them)
VERIFY_FLAGS = {}  # name -> {flag: (default, largest or None)}; other flags are refused


def _suite(name, **flags):
    """Register a `verify` suite with the flags it reads.  A largest --n
    keeps it desk-scale: on a 2-vCPU, 8 GB machine each suite at its bound
    took at most 90 s and 1.2 GB (census 12 s and 20 MB, b-scaling 71 s and
    1.2 GB, inverse-swap 85 s, identity-2-3 48 s), while stability --n 5 passed
    2.8 GB in 150 s and type-a --n 7 and identity-2-3 --n 9 ran past 90 s."""
    def register(fn):
        SUITES[name], VERIFY_FLAGS[name] = fn, flags
        return fn
    return register


class Report(list):
    """A suite's report lines and verdict; `fail(line)` adds a line and fails the run."""

    ok = True

    def fail(self, line):
        self.append(line)
        self.ok = False


def _vexillary_count(wtype, n):
    vex = total = 0
    for w in all_elements(n, wtype):
        total += 1
        vex += triple_of_w(w, wtype) is not None
    return vex, total


# The census's counts at every n it takes: (vexillary, all) in type C, then in type D
CENSUS_COUNTS = {1: (2, 2, 1, 1), 2: (7, 8, 3, 4), 3: (33, 48, 18, 24), 4: (183, 384, 87, 192),
                 5: (1118, 3840, 575, 1920), 6: (7281, 46080, 3573, 23040),
                 7: (49626, 645120, 25137, 322560)}


@_suite("census", n=(3, 7))
def suite_census(args, report):
    c_vex, c_all = _vexillary_count("C", args.n)
    d_vex, d_all = _vexillary_count("D", args.n)
    report.append(f"C: {c_vex}/{c_all} vexillary, D: {d_vex}/{d_all}")
    report.ok = (c_vex, c_all, d_vex, d_all) == CENSUS_COUNTS[args.n]


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
        if vexillary_polynomial(t, wtype) != schubert(w, wtype):
            bad.append(w)
    return size, vexillary, bad


@_suite("theorem-equivalence", type=("C", None), n=(2, 5))
def suite_theorem_equivalence(args, report):
    size, _, bad = _formula_mismatches(args.type, args.n)
    for w in bad:
        report.fail(f"mismatch at w = {w}")
    report.append(f"type {args.type}, n = {args.n}: {size} elements compared")


@_suite("stability", n=(2, 4))
def suite_stability(args, report):
    n = args.n
    for wtype in "ABCD":
        # type D starts at size 2, so W_1 is compared at sizes 2 and 3
        size = max(n, 2) if wtype == "D" else n
        for w, e in sweep(n, wtype):
            if e != schubert(w.embed(size + 1), wtype, n=size + 1):
                report.fail(f"instability: type {wtype}, w = {w}")
    line = f"all four types checked at n = {n} vs {n + 1}"
    report.append(line if n >= 2 else f"{line}, type D at n = 2 vs 3")


@_suite("b-scaling", n=(3, 5))
def suite_b_scaling(args, report):
    for (w, b), (_, c) in zip(sweep(args.n, "B"), sweep(args.n, "C")):
        if b != c.halve(w.num_barred()):
            report.fail(f"scaling fails at w = {w}")
    report.append(f"2^-r scaling verified on {2 ** args.n * 6} elements" if args.n == 3 else "done")


@_suite("inverse-swap", n=(3, 5))
def suite_inverse_swap(args, report):
    for wtype in "CD":
        classes = dict(sweep(args.n, wtype))
        for w, e in classes.items():
            if swap_xy(e) != classes[w.inverse()]:
                report.fail(f"inverse symmetry fails: type {wtype}, w = {w}")
    report.append(f"x<->y inverse symmetry checked for C and D at n = {args.n}")


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


@_suite("redundancy", seed=(0, None))
def suite_redundancy(args, report):
    # the worked type-A reduction
    slim = reduce_redundant(FAT_A)
    if _worked_a_det_y0(FAT_A) != _worked_a_det_y0(slim):
        report.fail("type-A worked example: determinants differ at y = 0")
    report.append(f"type-A example reduces to {slim}")
    small_a = [
        t
        for t in enumerate_triples("A", 3, allow_redundant=True)
        if validate(t) == "redundant"
    ]
    for t in small_a:
        if vexillary_polynomial(t) != vexillary_polynomial(reduce_redundant(t)):
            report.fail(f"type-A reduction changed the determinant: {t}")
    report.append(f"{len(small_a)} small type-A reductions checked in full")
    # randomized C/D redundant triples
    import random

    rng = random.Random(args.seed)
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
                report.fail(f"redundancy not absorbed: {t}")
        report.append(f"type {wtype}: {len(sample)} redundant triples absorbed")


@_suite("lemma25")
def suite_lemma25(args, report):
    checked = 0
    for k in range(2, 5):
        for l in range(1, k):
            pair = q_pair(k, l, ones_series(("t", k - 1)), ones_series(("t", l - 1)))
            for r in range(1, 4):
                for nu in itertools.combinations(range(4, 0, -1), r):
                    nu2 = nu[1] if len(nu) > 1 else 0
                    if not (nu[0] < k or nu2 < l):
                        continue
                    checked += 1
                    if specialize_oracle(pair, nu):
                        report.fail(f"nonvanishing at k={k}, l={l}, nu={nu}")
    report.append(f"{checked} vanishing specializations checked")


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


@_suite("identity-2-3", n=(5, 8))
def suite_identity_2_3(args, report):
    count = 0
    for size in range(1, args.n + 2):
        for lam in itertools.combinations(range(args.n, -1, -1), size):
            count += 1
            mapped = _plus_support(expand_coeffs(r_family(lam), basis="P"), len(lam))
            if mapped is None:
                return report.fail(f"unmappable support in lambda = {lam}")
            pc = expand_coeffs(p_family(tuple(m + 1 for m in lam)), basis="P")
            if mapped != pc:
                report.fail(f"shift identity fails for lambda = {lam}")
    report.append(f"{count} deformed-family identities checked (max part {args.n})")
    # the same identity on actual type-D triples against the shifted B series
    tri_count = 0
    for t in enumerate_triples("D", 3):
        tri_count += 1
        mapped = _plus_support(expand_coeffs(vexillary_polynomial(t), basis="P"), t.k[-1])
        if mapped is None:
            return report.fail(f"unmappable support for triple {t}")
        pc = expand_coeffs(vexillary_polynomial(plus_map(t), wtype="B"), basis="P")
        if mapped != pc:
            report.fail(f"triple shift identity fails for {t}")
    report.append(f"{tri_count} type-D triples compared against their shifts")


@_suite("appendix-a1")
def suite_appendix_a1(args, report):
    for s in range(7):
        for K in itertools.combinations(range(1, 7), s):
            if not gysin.lemma_A1_check(K):
                report.fail(f"sign lemma fails for K = {K}")
    report.append("sign lemma exhausted over K within [6]")
    for size in range(1, 5):
        I = tuple(range(1, size + 1))
        if not gysin.f_index_identity(I):
            report.fail(f"product identity fails for I = {I}")
    report.append("Pfaffian/product identity checked for |I| <= 4")
    for lam, K in [((3,), (1,)), ((2, 1), (1, 2)), ((4, 2, 1), (1, 3)), ((3, 2, 1), (1, 2, 3))]:
        if not gysin.prop_A1_check(lam, K):
            report.fail(f"operator identity fails for lam = {lam}, K = {K}")
    report.append("deformed operator identity checked for |K| <= 3")


@_suite("appendix-a2", r=(3, 3))  # its shapes have at most 3 parts
def suite_appendix_a2(args, report):
    shapes = [s for s in [(1,), (2,), (2, 0), (2, 1), (3, 1), (3, 2, 0), (3, 2, 1)] if len(s) <= args.r]
    for lam in shapes:
        if not gysin.prop_A2_check(lam):
            report.fail(f"pushforward Pfaffian fails for lam = {lam}")
    report.append(f"composite pushforward = 2^-r Pfaffian for {len(shapes)} shapes")
    # degenerate single-series case against the type-C pipeline
    lam, series = formula_rows(Triple((1, 2), (2, 1), (2, 1), "C"), "C")
    for m in [(0, 0), (1, 0), (0, 1), (2, 1)]:
        if not gysin.plain_pushforward_check(lam, series, m):
            report.fail(f"degenerate pushforward fails at exponents {m}")
    report.append("degenerate case matches the Pfaffian index shift")


@_suite("positivity", n=(3, 5))
def suite_positivity(args, report):
    findings = []
    for w, e in sweep(args.n, "C"):
        for lam, c in expand_coeffs(e).items():
            for coeff in c.packed.values():
                if coeff < 0:
                    findings.append((str(w), lam))
    for w, lam in findings[:10]:
        report.fail(f"negative coefficient: w = {w}, symbol {lam}")
    report.append(f"{len(findings)} negative terms (interpretation finding)" if findings
                  else f"all basis coefficients nonnegative over W_{args.n} type C")


@_suite("type-a", n=(4, 6))
def suite_type_a(args, report):
    _, count, bad = _formula_mismatches("A", args.n)
    for w in bad:
        report.fail(f"determinant mismatch at w = {w}")
    report.append(f"{count} vexillary permutations matched in S_{args.n}")
    if str(w_of_triple(WORKED_A)) != "1 10 8 9 2 3 6 4 5 7":
        report.fail("worked triple produces the wrong permutation")
    if reduce_redundant(FAT_A) != WORKED_A:
        report.fail("redundant example does not reduce to the worked triple")
    report.append("worked examples verified")


def format_report(suite: str, report: Report, fmt: str = "plain") -> str:
    """The stdout of `vexpf verify suite`: the report lines and the verdict,
    or one JSON object."""
    if fmt == "json":
        return _dumps({"suite": suite, "pass": report.ok, "report": report}) + "\n"
    return "".join(f"{line}\n" for line in report) + f"{suite}: {'PASS' if report.ok else 'FAIL'}\n"


def cmd_verify(args) -> int:
    suite = args.suite
    if not suite:
        raise UsageError("verify needs a suite name")
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    flags = VERIFY_FLAGS[suite]
    for flag in ("type", "r", "seed", "n"):
        if getattr(args, flag) is not None and flag not in flags:
            raise UsageError(f"verify {suite} reads no --{flag}")
    for flag, (default, largest) in flags.items():
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, default)
        elif largest is not None and value > largest:
            raise UsageError(f"verify {suite} is desk-scale: {flag} <= {largest}, got {value}")
    report = Report()
    SUITES[suite](args, report)
    print(format_report(suite, report, args.format), end="")
    return 0 if report.ok else 1


def _verify_epilog() -> str:
    """`verify --help`'s table: each suite with the flags it reads."""
    lines = ["suites and the flags each reads, with defaults and largest values:"]
    for name, flags in VERIFY_FLAGS.items():
        reads = [f"--{flag} {default}" + (f" (<= {largest})" if largest else "")
                 for flag, (default, largest) in flags.items()]
        lines.append(f"  {name:<20} {', '.join(reads) or 'no flags'}")
    return "\n".join(lines)


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

    p = sub.add_parser("verify", help="run a verification suite", epilog=_verify_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("suite", nargs="?", default=None)
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
            raise UsageError(f"--{flag} must be at least 1, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (UsageError, SizeMismatch, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`vexpf ... | head`); point the descriptor
        # at devnull so the flush at exit cannot raise again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
