"""The four workloads: seeded inputs, the ops that are timed, and the
checks run on their outputs afterwards.

A workload is built from its seed by `build(name, seed)`, which returns a
`Workload`: a list of `(label, op)` pairs, where each op is a
zero-argument callable, plus a `check(outputs, raised)` function returning
the indices of the ops whose output failed a check.  `raised` holds the
indices of the ops that raised instead of returning; their outputs are
not checked, nor compared with those of other ops.  Every check uses a
different path from the op it checks (a descent against a closed
formula, a pattern test against detection, a reference captured at the
seed commit against the CLI's stdout) or an invariant of the result
(homogeneous of degree l(w)).

The vexpf modules are used through their module attributes, so that a
traced pass (see tracer.py) sees every call an op makes.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from vexpf import cli, gamma, multischur, schubert, triples, weyl
from vexpf.polycore import Polynomial

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Outputs captured at the seed commit by make_reference.py: the SHA-256 of
# each CLI invocation's stdout, and the vexillary elements of W_4.
REFERENCE = HERE / "reference.json"

# Full-group vexillary counts at the seed commit (W_4 has 384 elements in
# type C and 192 in type D).
CENSUS_COUNTS = {"C": (183, 384), "D": (87, 192)}


class Workload:
    def __init__(self, ops, check, cache_counts=None):
        self.ops = ops
        self.check = check
        self.cache_counts = cache_counts or current_cache_counts


def current_cache_counts() -> dict:
    """Straightening-cache hits and misses and schubert memo entries, as
    the caches stand now."""
    info = gamma.straighten_monomial.cache_info()
    return {
        "straighten_hits": info.hits,
        "straighten_misses": info.misses,
        "memo_entries": len(schubert._CACHE),
    }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _degree_set(e) -> set:
    """Total degrees of the terms of a Polynomial or GammaElement (Q_k has
    degree k)."""
    if isinstance(e, Polynomial):
        combo = {(): e}
    else:
        combo = e.combo
    return {
        sum(lam) + sum(x for _, x in mono)
        for lam, poly in combo.items()
        for mono in poly.terms
    }


def homogeneous(e, degree: int) -> bool:
    return _degree_set(e) <= {degree} and bool(e)


def digest(out) -> str:
    """A stable fingerprint of an op's output, compared across passes."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bytes):
        text = f"{out[0]}:{hashlib.sha256(out[1]).hexdigest()}"
    else:
        text = str(out)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(elems):
    """Weyl group elements in the order of their one-line notation, so that
    a seeded draw does not depend on the order the program yields them in."""
    return sorted(elems, key=lambda w: w.values)


def _stratified(rng, items, key, strata, fixed=()):
    """One seeded pick from each stratum; a stratum is a set of key values.
    A stratum in `fixed` gives its first item, whatever the seed."""
    picks = []
    for stratum in strata:
        pool = [x for x in items if key(x) in stratum]
        if pool:
            picks.append(pool[0] if stratum in fixed else rng.choice(pool))
    return picks


def _vexillary_c_words(n: int):
    """(w, type-C triple) for every vexillary element of W_n, read off the
    strict triples by insertion (no detection), in the order of w."""
    out = {}
    for t in triples.enumerate_triples("C", n):
        w = triples.w_of_triple(t)
        if w.n <= n:
            out[w.embed(n)] = t
    return [(w, out[w]) for w in canonical(out)]


# ---------------------------------------------------------------------------
# pfaffian: closed formulas only
# ---------------------------------------------------------------------------

# criterion 8 (identity-2-3) shapes with max part <= 4
FAMILY_SHAPES = [
    lam
    for size in range(1, 6)
    for lam in itertools.combinations(range(4, -1, -1), size)
]
BIG_FAMILY = (5, 4, 3, 2, 1)
PFAFFIAN_STRATA = {
    "B": [range(1, 5), range(5, 8), range(8, 10), (10,), (11,), (12,), (13,)],
    "C": [range(1, 5), range(5, 8), range(8, 10), (10,), (11,), (12,), (13,)],
    "D": [range(1, 4), range(4, 6), (6,), (7,), (8,), (9,), (10,)],
}
# Bands holding formulas both cheaper and dearer than the workload's
# median op (4.4 ms at the seed commit; length 10 in B/C has one of 1.8 ms
# among 8-16 ms): which element a seed drew there moved op_ms_p50 by up to
# 10%, so these bands give the same element for every seed.
PFAFFIAN_FIXED = {
    "B": [range(8, 10), (10,)],
    "C": [range(8, 10), (10,)],
    "D": [(6,), (7,)],
}
PFAFFIAN_CHECKS_PER_TYPE = 2


def _plus_partition(mu, r):
    if len(mu) == r:
        return tuple(m + 1 for m in mu)
    if len(mu) == r - 1:
        return tuple(m + 1 for m in mu) + (1,)
    return None


def _shift_identity(r_elem, p_elem, r: int) -> bool:
    """r_family(lam) and p_family(lam + 1) agree in the P basis after the
    index shift mu -> mu + 1."""
    rc = schubert.expand_coeffs(r_elem, basis="P")
    pc = schubert.expand_coeffs(p_elem, basis="P")
    mapped = {}
    for mu, c in rc.items():
        key = _plus_partition(mu, r)
        if key is None:
            return False
        mapped[key] = c
    return mapped == pc


def pfaffian(seed: int) -> Workload:
    rng = random.Random(seed)
    c_words = _vexillary_c_words(4)
    by_type = {
        "B": [(w, t, weyl.length(w, "C")) for w, t in c_words],
        "C": [(w, t, weyl.length(w, "C")) for w, t in c_words],
        "D": [
            (w, triples.minus_map(t), weyl.length(w, "D"))
            for w, t in c_words
            if w.num_barred() % 2 == 0
        ],
    }
    # the families come first: they are the same for every seed, and so
    # is the cache they start from
    ops, meta = [], []
    for lam in FAMILY_SHAPES:
        ops.append((f"r_family{lam}", _call(multischur, "r_family", lam)))
        meta.append(("r_family", lam))
        plus = tuple(m + 1 for m in lam)
        ops.append((f"p_family{plus}", _call(multischur, "p_family", plus)))
        meta.append(("p_family", plus))
    ops.append((f"p_family{BIG_FAMILY}", _call(multischur, "p_family", BIG_FAMILY)))
    meta.append(("p_family", BIG_FAMILY))
    for wtype in ("B", "C", "D"):
        elems = by_type[wtype]
        top = max(elems, key=lambda e: e[2])
        drawn = _stratified(
            rng, elems, lambda e: e[2], PFAFFIAN_STRATA[wtype], PFAFFIAN_FIXED[wtype]
        )
        for w, t, ell in [top] + drawn:
            ops.append((f"{wtype} {w}", _formula_op(t, wtype)))
            meta.append(("formula", wtype, w, ell))

    # the theorem check descends from the top class, so it takes the cheap
    # end of the descent: the drawn elements nearest the top (index 0 of
    # each type is the top class itself)
    theorem_ix = []
    for wtype in ("B", "C", "D"):
        of_type = [i for i, m in enumerate(meta) if m[0] == "formula" and m[1] == wtype]
        of_type.sort(key=lambda i: -meta[i][3])
        theorem_ix += of_type[1:1 + PFAFFIAN_CHECKS_PER_TYPE]

    def check(outputs, raised):
        failed = set()
        for i, m in enumerate(meta):
            if i in raised:
                continue
            out = outputs[i]
            if m[0] == "formula":
                degree = m[3]
            else:
                degree = sum(m[1])
            if not homogeneous(out, degree):
                failed.add(i)
        for i in theorem_ix:
            if i in raised:
                continue
            _, wtype, w, _ = meta[i]
            if schubert.schubert(w, wtype) != outputs[i]:
                failed.add(i)
        for i, m in enumerate(meta):
            # each r_family(lam) op is followed by its p_family(lam + 1)
            if m[0] != "r_family" or raised & {i, i + 1}:
                continue
            if not _shift_identity(outputs[i], outputs[i + 1], len(m[1])):
                failed.update((i, i + 1))
        return failed

    return Workload(ops, check)


def _formula_op(t, wtype):
    as_type = "B" if wtype == "B" else None
    return lambda: schubert.vexillary_polynomial(t, as_type)


def _call(module, name, *args):
    return lambda: getattr(module, name)(*args)


# ---------------------------------------------------------------------------
# descent: divided differences from the top class
# ---------------------------------------------------------------------------

DESCENT_N = {"A": 5, "C": 4, "D": 4}
DESCENT_A_DEPTH = 4
DESCENT_A_FIRST = 2
# deepest element of W_4 (types C and D) whose route avoids generator 0
DESCENT_SIGNED_DEPTH = 6


def ascent_route(w, wtype: str):
    """The route schubert() takes from w up to the top class, always
    climbing by the smallest ascent: [(generator, element above), ...]."""
    route = []
    ell = weyl.length(w, wtype)
    while True:
        up = [
            i for i in weyl.generators(w.n, wtype)
            if weyl.length(w.right_gen(i, wtype), wtype) == ell + 1
        ]
        if not up:
            return route
        w, ell = w.right_gen(up[0], wtype), ell + 1
        route.append((up[0], w))


def descent(seed: int) -> Workload:
    """Elements below the top class and every element on their routes up,
    top first: with the memo, each op after the top class costs one
    divided difference.

    Type A draws two elements four steps down whose routes share the
    same first step (the four first steps from the S_5 top class differ
    2x in cost) and part only for their last step, so every seed times
    seven type-A ops.  Types C and D take every element whose route avoids
    generator 0 (23 below the top, the same for every seed): from a cold
    cache, the first generator-0 step on a W_4 top class costs 2-3 s (it
    fills the straightening cache), so routes with and without one would
    differ several-fold in cost.
    """
    rng = random.Random(seed)
    ops, meta = [], []
    for wtype in ("A", "C", "D"):
        n = DESCENT_N[wtype]
        lengths = {w: weyl.length(w, wtype) for w in weyl.all_elements(n, wtype)}
        top = max(lengths.values())
        depth = DESCENT_A_DEPTH if wtype == "A" else DESCENT_SIGNED_DEPTH
        routes = {
            w: ascent_route(w, wtype) for w, ell in lengths.items() if top - ell <= depth
        }
        if wtype == "A":
            deep = canonical(
                w for w, r in routes.items()
                if len(r) == DESCENT_A_DEPTH and r[-1][0] == DESCENT_A_FIRST
            )
            first = rng.choice(deep)
            # the routes part for the last step, so every seed times the
            # same number of type-A ops
            apart = [w for w in deep if routes[w][0][1] != routes[first][0][1]]
            picks = [first, rng.choice(apart)]
        else:
            picks = [w for w, r in routes.items() if all(g != 0 for g, _ in r)]
        chosen = set(picks)
        for w in picks:
            chosen.update(v for _, v in routes[w])
        for w in sorted(chosen, key=lambda v: (len(routes[v]), v.values)):
            ops.append((f"{wtype} {w}", _call(schubert, "schubert", w, wtype)))
            meta.append((wtype, w, lengths[w]))

    def check(outputs, raised):
        failed = set()
        seen = {}
        for i, (wtype, w, ell) in enumerate(meta):
            if i in raised:
                continue
            out = outputs[i]
            seen[wtype, w] = i
            if not homogeneous(out, ell):
                failed.add(i)
            if wtype == "A" and ell > 0:
                diag = {("y", j): Polynomial.variable("x", j) for j in range(1, 6)}
                if out.substitute(diag):
                    failed.add(i)
        for (wtype, w), i in seen.items():
            j = seen.get((wtype, w.inverse()))
            if j is not None and j != i:
                # S_{w^-1}(x; y) = S_w(y; x), with the sign (-1)^l(w) in type A
                sign = (-1) ** meta[i][2] if wtype == "A" else 1
                if schubert.swap_xy(outputs[i]) != outputs[j] * Polynomial.const(sign):
                    failed.update((i, j))
        return failed

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# census: vexillarity detection
# ---------------------------------------------------------------------------

# Elements drawn per type from each class: vexillary (direct
# reconstruction), unsigned and not vexillary (refused at once), signed and
# not vexillary (the exhaustive fallback).  The classes differ several
# hundred-fold in cost, so every seed draws the same mix.  Type A has no
# direct path: its classes are vexillary or not.
CENSUS_MIX = {"C": (8, 2, 20), "D": (4, 1, 10), "A": (6, 0, 3)}


def avoids_2143(values) -> bool:
    """Type-A vexillary: no i < j < k < l with w(j) < w(i) < w(l) < w(k)."""
    n = len(values)
    for i, j, k, l in itertools.combinations(range(n), 4):
        if values[j] < values[i] < values[l] < values[k]:
            return False
    return True


def _length_stratified_sample(rng, elems, wtype, size):
    """size elements drawn round-robin over the lengths, so every seed gets
    the same length profile."""
    by_len = {}
    for w in elems:
        by_len.setdefault(weyl.length(w, wtype), []).append(w)
    for pool in by_len.values():
        rng.shuffle(pool)
    out = []
    lengths = sorted(by_len)
    while len(out) < min(size, len(elems)):
        for ell in lengths:
            if by_len[ell] and len(out) < size:
                out.append(by_len[ell].pop())
    return out


def census_groups() -> dict:
    return {
        "C": canonical(weyl.all_elements(4, "C")),
        "D": canonical(weyl.all_elements(4, "D")),
        "A": canonical(weyl.all_elements(5, "A")),
    }


def census(seed: int) -> Workload:
    rng = random.Random(seed)
    reference = json.loads(REFERENCE.read_text())["census"]
    groups = census_groups()
    vexillary = {
        wtype: {w for w in group if avoids_2143(w.values)} if wtype == "A"
        else {w for w in group if str(w) in set(reference[wtype])}
        for wtype, group in groups.items()
    }
    ops, meta = [], []
    for wtype in ("C", "D", "A"):
        classes = (
            [w for w in groups[wtype] if w in vexillary[wtype]],
            [w for w in groups[wtype] if w not in vexillary[wtype] and w.is_unsigned()],
            [w for w in groups[wtype] if w not in vexillary[wtype] and not w.is_unsigned()],
        )
        if wtype == "A":
            classes = (classes[0], [], classes[1])
        sample = []
        for members, size in zip(classes, CENSUS_MIX[wtype]):
            sample += _length_stratified_sample(rng, members, wtype, size)
        for w in sample:
            ops.append((f"{wtype} {w}", _call(triples, "triple_of_w", w, wtype)))
            meta.append((wtype, w))

    def check(outputs, raised):
        failed = set()
        answers = {}
        for i, (wtype, w) in enumerate(meta):
            if i in raised:
                continue
            t = outputs[i]
            answers[wtype, w] = t
            if (t is not None) != (w in vexillary[wtype]):
                failed.add(i)
            if t is not None and not _round_trips(t, w):
                failed.add(i)
        # the full-group counts, reusing the sampled answers
        for wtype, (vex, total) in CENSUS_COUNTS.items():
            got = 0
            for w in groups[wtype]:
                try:
                    t = answers[wtype, w] if (wtype, w) in answers else triples.triple_of_w(w, wtype)
                except Exception:  # a detection that raises fails the count
                    got = -1
                    break
                if t is not None and not _round_trips(t, w):
                    got = -1
                    break
                got += t is not None
            if (got, len(groups[wtype])) != (vex, total):
                failed.update(i for i, m in enumerate(meta) if m[0] == wtype)
        return failed

    return Workload(ops, check)


def _round_trips(t, w) -> bool:
    back = triples.w_of_triple(t)
    n = max(back.n, w.n)
    return back.embed(n) == w.embed(n)


# ---------------------------------------------------------------------------
# verify: the CLI as users run it
# ---------------------------------------------------------------------------

VERIFY_FIXED = [
    ["verify", "theorem-equivalence", "--type", "B", "--n", "3"],
    ["verify", "theorem-equivalence", "--type", "C", "--n", "3"],
    ["verify", "theorem-equivalence", "--type", "D", "--n", "3"],
    ["verify", "appendix-a1"],
    ["verify", "appendix-a2", "--r", "3"],
    ["verify", "lemma25"],
    ["verify", "census", "--n", "3"],
    ["verify", "type-a", "--n", "4"],
]
# the seed picks one of each
VERIFY_SCHUBERT = [
    ["schubert", "--format", "json", "--type", "C", "--w", "-2 -1 3"],
    ["schubert", "--format", "json", "--type", "C", "--w", "-3 1 -2"],
    ["schubert", "--format", "json", "--type", "B", "--w", "2 -3 -1"],
    ["schubert", "--format", "json", "--type", "D", "--w", "-3 -2 1"],
    ["schubert", "--format", "json", "--type", "D", "--w", "-1 -3 2"],
    ["schubert", "--format", "json", "--type", "A", "--w", "4 2 3 1"],
]
VERIFY_VEXILLARY = [
    ["vexillary", "--expand", "--type", "C", "--w", "-2 -1 3"],
    ["vexillary", "--expand", "--type", "C", "--w", "1 -3 -2"],
    ["vexillary", "--expand", "--type", "B", "--w", "-2 1 -3"],
    ["vexillary", "--expand", "--type", "D", "--w", "-2 -1 3"],
    ["vexillary", "--expand", "--type", "D", "--w", "-3 -2 1"],
    ["vexillary", "--expand", "--type", "A", "--w", "2 4 1 3"],
]


def verify_invocations(seed: int):
    rng = random.Random(seed)
    argvs = VERIFY_FIXED + [rng.choice(VERIFY_SCHUBERT), rng.choice(VERIFY_VEXILLARY)]
    rng.shuffle(argvs)
    return argvs


def run_cli(argv) -> tuple:
    """One CLI invocation in a child interpreter: (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "vexpf.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, check=False,
    )
    return proc.returncode, proc.stdout


class InProcessCLI:
    """cli.main in this interpreter with every cache emptied first, so each
    call starts as cold as a fresh process.  cache_clear() also resets the
    hit and miss counters, so the counts are added up before each clear."""

    def __init__(self):
        self.cleared = dict.fromkeys(current_cache_counts(), 0)

    def cache_counts(self) -> dict:
        """The counts summed over every call so far."""
        now = current_cache_counts()
        return {k: self.cleared[k] + now[k] for k in now}

    def __call__(self, argv) -> tuple:
        self.cleared = self.cache_counts()
        for cached in (gamma.straighten_monomial, gamma.pair_expansion, gamma.pf_expansion):
            cached.cache_clear()
        schubert._CACHE.clear()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()


def cli_key(argv) -> str:
    return " ".join(argv)


def verify(seed: int, in_process: bool = False) -> Workload:
    argvs = verify_invocations(seed)
    reference = json.loads(REFERENCE.read_text())["cli"]
    runner = InProcessCLI() if in_process else run_cli
    ops = [(cli_key(a), (lambda a=a: runner(a))) for a in argvs]

    def check(outputs, raised):
        failed = set()
        for i, argv in enumerate(argvs):
            if i in raised:
                continue
            code, stdout = outputs[i]
            ref = reference.get(cli_key(argv))
            if code != 0 or ref != hashlib.sha256(stdout).hexdigest():
                failed.add(i)
        return failed

    return Workload(ops, check, runner.cache_counts if in_process else None)


BUILDERS = {"pfaffian": pfaffian, "descent": descent, "census": census, "verify": verify}


def build(name: str, seed: int, in_process: bool = False) -> Workload:
    if name == "verify":
        return verify(seed, in_process)
    return BUILDERS[name](seed)
