import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vexpf.polycore import Polynomial
from vexpf.weyl import SignedPermutation
from vexpf.gamma import GammaElement
import vexpf
from vexpf import cli, gysin
from vexpf.cli import main, render, serialize_element


def parse_element(rows) -> GammaElement:
    """The inverse of `serialize_element`: each basis symbol's Polynomial is
    built once from all its rows."""
    combo = {}
    for row in rows:
        coeff = Fraction(int(row["coeff"]["num"]), 1 << row["coeff"]["log2den"])
        mono = tuple(((name[0], int(name[1:])), e) for name, e in row["mono"].items())
        combo.setdefault(tuple(row["q"]), []).append((mono, coeff))
    return GammaElement({lam: Polynomial(terms) for lam, terms in combo.items()})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


class TestSerialization:
    def test_schema_shape(self):
        e = GammaElement({(2, 1): Polynomial.variable("x", 1) * 3, (): Fraction(1, 2)})
        rows = serialize_element(e)
        assert rows == [
            {"q": [2, 1], "coeff": {"num": "3", "log2den": 0}, "mono": {"x1": 1}},
            {"q": [], "coeff": {"num": "1", "log2den": 1}, "mono": {}},
        ]

    def test_per_term_log2den(self):
        # one coefficient 3 + 1/2*x1 + 1/4*y1 keeps each term's own
        # denominator, not the coefficient's shared one
        x1, y1 = Polynomial.variable("x", 1), Polynomial.variable("y", 1)
        p = 3 + x1 * Fraction(1, 2) + y1 * Fraction(1, 4)
        rows = serialize_element(GammaElement({(1,): p}))
        assert [(row["coeff"]["num"], row["coeff"]["log2den"]) for row in rows] == [
            ("1", 1), ("1", 2), ("3", 0)]
        assert parse_element(rows) == GammaElement({(1,): p})

    def test_round_trip(self):
        e = GammaElement(
            {
                (3,): Polynomial.variable("y", 2) - 2,
                (2, 1): Polynomial.const(Fraction(5, 4)),
            }
        )
        assert parse_element(serialize_element(e)) == e

    def test_polynomial_payload(self):
        p = Polynomial.variable("x", 1) - Polynomial.variable("y", 1)
        rows = serialize_element(p)
        assert all(row["q"] == [] for row in rows)
        assert parse_element(rows) == GammaElement.of(p)

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(1, 4)).map(tuple),
            st.integers(-5, 5),
            max_size=3,
        ),
        st.integers(0, 2),
    )
    def test_round_trip_randomized(self, combo, den):
        e = GammaElement(
            {
                lam: Polynomial.const(Fraction(c, 1 << den)) * Polynomial.variable("x", 1)
                for lam, c in combo.items()
            }
        )
        assert parse_element(serialize_element(e)) == e

    @pytest.mark.parametrize("names", [(("x", 1), ("t", 1)), (("x", 2), ("x", 10))])
    def test_round_trip_through_sorted_json(self, names):
        # sort_keys orders "t1" before "x1" and "x10" before "x2"
        p = Polynomial.variable(*names[0]) * Polynomial.variable(*names[1])
        rows = json.loads(json.dumps(serialize_element(p), sort_keys=True))
        assert parse_element(rows) == GammaElement.of(p)

    def test_parse_keeps_laurent_h(self):
        h = Polynomial({((("h", 1), -2),): 1})
        assert parse_element(serialize_element(h)) == GammaElement.of(h)

    def test_integral_fraction_coefficient(self):
        # Fraction(1, 2) * 2 is the Fraction 1/1, which must read exactly like 1
        one = Polynomial.const(Fraction(1, 2)) * 2
        assert type(one.terms[()]) is Fraction
        e, q1 = GammaElement({(1,): one}), GammaElement({(1,): 1})
        assert serialize_element(e) == serialize_element(q1)
        for fmt in ("plain", "latex", "json"):
            assert render(e, fmt) == render(q1, fmt)

    def test_render_plain_and_latex(self):
        e = GammaElement({(1,): 1, (): Polynomial.variable("x", 1)})
        assert render(e, "plain") == str(e) == "Q(1) + x1"
        assert render(e, "latex") == "Q_{(1)} + x_{1}"
        assert render(e, "plain", basis="P") == "2*P(1) + x1"


class TestCommands:
    def test_schubert_c_basic(self, capsys):
        code, out = run(capsys, "schubert", "--type", "C", "--w", "-1")
        assert code == 0 and out.strip() == "Q(1)"

    def test_schubert_a_top(self, capsys):
        code, out = run(capsys, "schubert", "--type", "A", "--w", "2 1")
        assert code == 0 and out.strip() == "x1 - y1"

    def test_schubert_b_half(self, capsys):
        code, out = run(capsys, "schubert", "--type", "B", "--w", "-1")
        assert code == 0 and out.strip() == "P(1)"

    def test_schubert_json_deterministic(self, capsys):
        args = ("schubert", "--type", "C", "--w", "-2 -1", "--format", "json")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["terms"][0]["q"] == [2, 1]

    def test_parse_error_exit_2(self, capsys):
        assert main(["schubert", "--type", "C", "--w", "not a word"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [("schubert", "--type", "A", "--w", "-1"), ("vexillary", "--type", "A", "--w", "-1 2")],
    )
    def test_signed_word_for_type_a_exit_2(self, capsys, argv):
        assert main(list(argv)) == 2
        assert "type A" in capsys.readouterr().err

    def test_vexillary_worked_example(self, capsys):
        code, out = run(
            capsys,
            "vexillary", "--type", "C",
            "--w", "1 -9 -8 -4 10 -5 -3 -7 -6 -2",
        )
        assert code == 0
        assert "k=2,3,5,8;p=8,6,6,2;q=6,5,2,2;type=C" in out
        assert "[14, 13, 10, 8, 7, 5, 4, 3]" in out

    def test_vexillary_negative_witness(self, capsys):
        code, out = run(capsys, "vexillary", "--type", "C", "--w", "-3 2 -1")
        assert code == 0 and out.strip() == "not vexillary"

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_vexillary_expand_evaluates_once(self, capsys, monkeypatch, fmt):
        calls = []
        real = cli.vexillary_polynomial
        monkeypatch.setattr(cli, "vexillary_polynomial", lambda *a: calls.append(a) or real(*a))
        code, out = run(
            capsys, "vexillary", "--type", "D", "--w", "-2 -3 1", "--expand", "--format", fmt
        )
        assert code == 0 and len(calls) == 1
        if fmt == "json":
            assert json.loads(out)["polynomial"] == serialize_element(real(*calls[0]))
        else:
            assert out == (
                "triple: k=1,2;p=1,0;q=2,1;type=D\n"
                "lambda: [3, 1]\n"
                "  index 3: c = (1+x1)(1+y1)(1+y2), d = Q*c\n"
                "  index 1: c = (1+y1), d = Q*c\n"
                "polynomial: P(3,1) + y1*P(3) + (x1 + y1 + y2)*P(2,1)"
                " + (x1*y1 + y1^2 + y1*y2)*P(2) + (x1*y1^2 + y1^2*y2)*P(1)\n"
            )

    def test_vexillary_identity(self, capsys):
        code, out = run(capsys, "vexillary", "--type", "C", "--w", "1 2")
        assert code == 0 and "(empty)" in out

    def test_enumerate_rows(self, capsys):
        code, out = run(
            capsys, "enumerate", "--type", "C", "--n", "1", "--format", "json"
        )
        rows = json.loads(out)
        assert code == 0 and len(rows) == 2
        assert {row["w"] for row in rows} == {"1", "-1"}

    def test_enumerate_vexillary_only(self, capsys):
        code, out = run(
            capsys,
            "enumerate", "--type", "C", "--n", "3",
            "--vexillary-only", "--format", "json",
        )
        assert code == 0 and len(json.loads(out)) == 33

    def test_enumerate_d_census(self, capsys):
        code, out = run(
            capsys, "enumerate", "--type", "D", "--n", "3", "--format", "json"
        )
        rows = json.loads(out)
        assert code == 0 and len(rows) == 24
        assert sum(1 for r in rows if r["vexillary"]) == 18

    def test_enumerate_bound(self, capsys):
        for n in ("6", "9"):
            assert main(["enumerate", "--type", "C", "--n", n]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err == "error: enumeration is desk-scale: n <= 5\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("schubert", "--type", "C", "--w", "1 2 3 4 5 6 7"), "type C words of size <= 6, got 7"),
            (("schubert", "--type", "B", "--w", "2 1", "--n", "7"), "type B words of size <= 6, got 7"),
            (("schubert", "--type", "D", "--w", "-2 -1 3 4 5 6 7 8"), "type D words of size <= 6, got 8"),
            (("schubert", "--type", "A", "--w", "1 2 3 4 5 6 7 8"), "type A words of size <= 7, got 8"),
            (("vexillary", "--type", "C", "--w", "2 1 3 4 5 6 7", "--expand"),
             "type C words of size <= 6, got 7"),
            (("vexillary", "--type", "D", "--w", "-2 -1 3 4 5 6 7", "--expand", "--format", "json"),
             "type D words of size <= 6, got 7"),
            (("vexillary", "--type", "A", "--w", "2 1 3 4 5 6 7 8", "--expand"),
             "type A words of size <= 7, got 8"),
        ],
    )
    def test_class_size_bound(self, capsys, monkeypatch, argv, message):
        # refused up front: no class is built
        def refuse(*args, **kwargs):
            raise AssertionError("a class past the bound was computed")

        monkeypatch.setattr(cli, "schubert", refuse)
        monkeypatch.setattr(cli, "vexillary_polynomial", refuse)
        assert main(list(argv)) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: classes are desk-scale: {message}\n"

    def test_class_size_bound_admits_its_sizes(self, capsys, monkeypatch):
        calls = []

        def schubert(w, wtype, n=None):
            calls.append((str(w), wtype, n))
            return GammaElement.of(1)

        monkeypatch.setattr(cli, "schubert", schubert)
        assert run(capsys, "schubert", "--type", "C", "--w", "2 1", "--n", "6") == (0, "1\n")
        assert run(capsys, "schubert", "--type", "A", "--w", "1 2 3 4 5 6 7") == (0, "1\n")
        assert calls == [("2 1", "C", 6), ("1 2 3 4 5 6 7", "A", None)]
        # detection alone takes a word of any size
        code, out = run(capsys, "vexillary", "--type", "C", "--w", "-1 2 3 4 5 6 7")
        assert code == 0 and out.startswith("triple: k=1;p=1;q=1")

    @pytest.mark.parametrize("suite, bound", [
        ("census", 7), ("theorem-equivalence", 5), ("stability", 4), ("b-scaling", 5),
        ("inverse-swap", 5), ("positivity", 5), ("type-a", 6), ("identity-2-3", 8),
    ])
    def test_verify_bound(self, capsys, monkeypatch, suite, bound):
        # refused up front: the suite does not run past its bound, and runs at it
        calls = []
        monkeypatch.setitem(cli.SUITES, suite, lambda args, report: calls.append(args.n) or True)
        assert main(["verify", suite, "--n", str(bound + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: verify {suite} is desk-scale: n <= {bound}, got {bound + 1}\n"
        assert main(["verify", suite, "--n", str(bound)]) == 0 and calls == [bound]

    @pytest.mark.parametrize("suite", ["redundancy", "lemma25", "appendix-a1", "appendix-a2"])
    def test_verify_refuses_an_n_it_does_not_read(self, capsys, monkeypatch, suite):
        calls = []
        monkeypatch.setitem(cli.SUITES, suite, lambda args, report: calls.append(args.n) or True)
        assert main(["verify", suite, "--n", "3"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: verify {suite} reads no --n\n"
        assert main(["verify", suite]) == 0 and calls == [None]
        assert {name for name, flags in cli.VERIFY_FLAGS.items() if "n" not in flags} == {
            "redundancy", "lemma25", "appendix-a1", "appendix-a2"}

    @pytest.mark.parametrize(
        "suite, option",
        [
            ("census", ("--type", "A")),
            ("positivity", ("--type", "D")),
            ("redundancy", ("--type", "C")),
            ("census", ("--r", "2")),
            ("theorem-equivalence", ("--r", "2")),
            ("appendix-a1", ("--seed", "1")),
            ("appendix-a2", ("--seed", "1")),
        ],
    )
    def test_verify_refuses_an_option_it_does_not_read(self, capsys, monkeypatch, suite, option):
        calls = []
        monkeypatch.setitem(cli.SUITES, suite, lambda args, report: calls.append(suite) or True)
        assert main(["verify", suite, *option]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: verify {suite} reads no {option[0]}\n"
        assert main(["verify", suite]) == 0 and calls == [suite]

    @pytest.mark.parametrize(
        "suite, flag, value",
        [("theorem-equivalence", "type", "D"), ("appendix-a2", "r", 3), ("redundancy", "seed", 5)],
    )
    def test_verify_reads_its_own_options(self, capsys, monkeypatch, suite, flag, value):
        calls = []
        monkeypatch.setitem(cli.SUITES, suite, lambda args, report: calls.append(args) or True)
        assert main(["verify", suite, f"--{flag}", str(value)]) == 0
        assert getattr(calls[0], flag) == value

    def test_verify_refuses_an_r_past_the_shapes(self, capsys):
        assert main(["verify", "appendix-a2", "--r", "4"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: verify appendix-a2 is desk-scale: r <= 3, got 4\n"

    def test_enumerate_takes_no_latex(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--type", "C", "--n", "2", "--format", "latex"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "invalid choice: 'latex'" in out.err

    @pytest.mark.parametrize("wtype,vex", [("C", 1118), ("D", 575), ("A", 103)])
    def test_enumerate_n5_vexillary_only(self, capsys, wtype, vex):
        code, out = run(
            capsys,
            "enumerate", "--type", wtype, "--n", "5",
            "--vexillary-only", "--format", "json",
        )
        assert code == 0 and len(json.loads(out)) == vex

    @pytest.mark.parametrize(
        "argv",
        [
            ("schubert", "--type", "C", "--w", "1 -3 2", "--n", "2"),
            ("schubert", "--type", "D", "--w", "1", "--n", "1"),
            ("enumerate", "--type", "C", "--n", "0"),
            ("verify", "census", "--n", "0"),
            ("verify", "identity-2-3", "--n", "-1"),
            ("verify", "appendix-a2", "--r", "0"),
        ],
    )
    def test_size_too_small_exit_2(self, capsys, argv):
        assert main(list(argv)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_exponent_overflow_exit_2(self, capsys, monkeypatch):
        # a class whose exponents leave their fields, as a too-large request would
        def schubert(w, wtype, n=None):
            return Polynomial({((("x", 1), 200),): 1}) ** 2

        monkeypatch.setattr(cli, "schubert", schubert)
        code = main(["schubert", "--w", "2 1", "--type", "A"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: exponents must lie in") and out.err.count("\n") == 1


class TestVerify:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "no-such-suite"]) == 2

    def test_census(self, capsys):
        code, out = run(capsys, "verify", "census", "--n", "3")
        assert code == 0
        assert "C: 33/48 vexillary, D: 18/24" in out

    def test_census_checks_its_counts_past_n_3(self, capsys, monkeypatch):
        # a detector that misses the longest element of W_4 (types C and D
        # alike, n even) must fail the census at n = 4
        real = cli.triple_of_w
        longest = SignedPermutation([-1, -2, -3, -4])
        monkeypatch.setattr(cli, "triple_of_w", lambda w, wtype: None if w == longest else real(w, wtype))
        code, out = run(capsys, "verify", "census", "--n", "4")
        assert (code, out) == (1, "C: 182/384 vexillary, D: 86/192\ncensus: FAIL\n")

    def test_theorem_equivalence_small(self, capsys):
        code, out = run(capsys, "verify", "theorem-equivalence", "--type", "C", "--n", "2")
        assert code == 0 and "PASS" in out

    def test_appendix_a2(self, capsys):
        code, out = run(capsys, "verify", "appendix-a2", "--r", "2")
        assert code == 0 and "PASS" in out

    def test_stability_at_n_1(self, capsys):
        # W_1 sits below type D's least size 2, so its left side takes the default size
        code, out = run(capsys, "verify", "stability", "--n", "1")
        assert code == 0 and out.endswith("stability: PASS\n")

    def test_stability_at_n_1_reaches_type_d_size_3(self, capsys, monkeypatch):
        # a type-D class that changes from size 2 to size 3 must show at --n 1
        real = cli.schubert

        def schubert(w, wtype, n=None):
            out = real(w, wtype, n=n)
            return out + 1 if wtype == "D" and n == 3 else out

        monkeypatch.setattr(cli, "schubert", schubert)
        code, out = run(capsys, "verify", "stability", "--n", "1")
        assert code == 1 and "instability: type D, w = 1" in out
        assert "all four types checked at n = 1 vs 2, type D at n = 2 vs 3" in out

    def test_suite_flag_spelling(self, capsys):
        # a suite is named positionally only; `--suite` is not an option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "census"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith("error: unrecognized arguments: --suite\n")
        code, out = run(capsys, "verify", "census", "--n", "2")
        assert code == 0 and out.endswith("census: PASS\n")

    def test_two_suite_names_must_agree(self, capsys):
        # one positional name is all a run takes: a second, in either spelling, is refused
        for extra, refused in ((["stability"], "stability"), (["--suite", "stability"], "--suite stability")):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "census", *extra])
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == ""
            assert out.err.endswith(f"error: unrecognized arguments: {refused}\n")

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "census", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True and payload["suite"] == "census"

    def test_every_suite_is_traced_and_declares_its_flags(self):
        # perfbench's tracer wraps the vexpf.cli attributes named suite_*, so a
        # suite registered under another name would read 0 in cli.suite_s
        for name, fn in cli.SUITES.items():
            assert fn.__name__.startswith("suite_") and getattr(cli, fn.__name__) is fn, name
        assert set(cli.VERIFY_FLAGS) == set(cli.SUITES)

    def test_help_names_every_suite_and_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: vexpf verify ") and "--suite" not in out
        rows = {line.split()[0]: line for line in out.splitlines()
                if line.startswith("  ") and line.split()[0] in cli.SUITES}
        assert set(rows) == set(cli.SUITES)
        for name, flags in cli.VERIFY_FLAGS.items():
            for flag, (default, largest) in flags.items():
                assert f"--{flag} {default}" in rows[name], name
                assert (largest is None) != (f"--{flag} {default} (<= {largest})" in rows[name]), name
            assert ("no flags" in rows[name]) == (not flags), name

    def test_no_suite_is_one_line_and_exit_2(self, capsys):
        assert main(["verify"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: verify needs a suite name\n"

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("suite, options, owner, name, wrong, failure", [
        ("theorem-equivalence", ("--n", "2"), cli, "schubert", 0, "mismatch at w = 1 2"),
        ("b-scaling", ("--n", "2"), cli, "sweep", [(SignedPermutation.identity(2), 0)],
         "scaling fails at w = 1 2"),
        ("inverse-swap", ("--n", "2"), cli, "swap_xy", 0, "inverse symmetry fails: type C, w = 1 2"),
        ("redundancy", (), cli, "vexillary_polynomial", 0,
         "type-A reduction changed the determinant: k=1,2;p=3,3;q=1,2;type=A"),
        ("lemma25", (), cli, "specialize_oracle", 1, "nonvanishing at k=2, l=1, nu=(4,)"),
        ("identity-2-3", ("--n", "1"), cli, "expand_coeffs", {}, "shift identity fails for lambda = (1,)"),
        ("appendix-a1", (), gysin, "lemma_A1_check", False, "sign lemma fails for K = ()"),
        ("appendix-a2", ("--r", "1"), gysin, "prop_A2_check", False,
         "pushforward Pfaffian fails for lam = (1,)"),
        ("positivity", ("--n", "1"), cli, "expand_coeffs", {(1,): Polynomial.const(-1)},
         "negative coefficient: w = 1, symbol (1,)"),
        ("type-a", ("--n", "3"), cli, "schubert", 0, "determinant mismatch at w = 1 2 3"),
    ])
    def test_one_wrong_answer_fails_the_suite(self, capsys, monkeypatch, fmt, suite, options, owner,
                                              name, wrong, failure):
        # the checked callable answers wrong on its first call only
        real, calls = getattr(owner, name), []

        def once_wrong(*args, **kwargs):
            calls.append(args)
            return wrong if len(calls) == 1 else real(*args, **kwargs)

        monkeypatch.setattr(owner, name, once_wrong)
        code, out = run(capsys, "verify", suite, *options, "--format", fmt)
        assert code == 1
        if fmt == "json":
            payload = json.loads(out)
            assert payload["pass"] is False and failure in payload["report"]
        else:
            lines = out.splitlines()
            assert failure in lines and lines[-1] == f"{suite}: FAIL"


REFERENCE_CLI = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)["cli"]


def _argv_of_key(key):
    # a key is the argv joined by spaces; --w, whose word holds spaces, comes last
    head, _, word = key.partition(" --w ")
    return head.split() + (["--w", word] if word else [])


@pytest.mark.parametrize("key", sorted(REFERENCE_CLI))
def test_reference_stdout(capsys, key):
    code, out = run(capsys, *_argv_of_key(key))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE_CLI[key]


# Two W_4 type-D words whose formulas have rows with different
# multipliers c(i), at lambda (6, 4, 2, 0) and (2, 0); perfbench pins only
# W_3 type-D words.
TYPE_D_W4_EXPAND = {
    "-1 -2 -3 -4": "e35ce504a3d5040a3ed808cb8ae6754c8f27426e52b9106d84aa482bb20e341c",
    "-1 -2 3 4": "58dad3365318f02613937ba6fe1096983a9ad9176029ac96f4a86f9ba068f522",
}


@pytest.mark.parametrize("word", sorted(TYPE_D_W4_EXPAND))
def test_type_d_w4_expand_stdout(capsys, word):
    code, out = run(capsys, "vexillary", "--expand", "--format", "json", "--type", "D", "--w", word)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TYPE_D_W4_EXPAND[word]


VEXPF_MODULES = {
    f"vexpf.{name}"
    for name in ("cli", "gamma", "gysin", "multischur", "polycore", "schubert", "triples", "weyl")
}


def test_import_loads_every_vexpf_module_and_no_lazy_stdlib():
    # a fresh interpreter without site, whose .pth files may import anything
    src = str(Path(vexpf.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import vexpf.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    # perfbench's tracer imports vexpf.cli, then finds its hooks in sys.modules
    assert VEXPF_MODULES <= loaded
    # no call needs these at start-up: json and random load in the commands that use them
    assert not loaded & {"dataclasses", "inspect", "ast", "json", "random"}


@pytest.mark.parametrize("n, lines", [("5", 1), ("2", 0)])
def test_closed_stdout_exits_1_without_a_traceback(n, lines):
    # `vexpf enumerate --n 5 | head -1`: about 160 KB, more than a pipe buffer
    # holds, so a write inside the command meets the closed pipe.  At n = 2
    # the reader is gone before the command starts, and the output waits in
    # stdout's buffer until `main` flushes it.
    src = str(Path(vexpf.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "vexpf.cli", "enumerate", "--n", n],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": src},
    )
    for _ in range(lines):
        assert proc.stdout.readline().startswith(b"1 2 3 4 5 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert not err
