import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vexpf.polycore import Polynomial
from vexpf.gamma import GammaElement
from vexpf import cli
from vexpf.cli import main, parse_element, render, serialize_element


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

    @pytest.mark.parametrize(
        "q, mono, coeff",
        [
            ([1, 2], {}, {"num": "1", "log2den": 0}),
            ([0], {}, {"num": "1", "log2den": 0}),
            ([], {"w1": 1}, {"num": "1", "log2den": 0}),
            ([], {}, None),
            ([], {}, {"num": "x", "log2den": 0}),
            ([], {}, {"num": "1", "log2den": -1}),
            ([], {}, {"num": "1", "log2den": 0.5}),
            ([], {"x1": "a"}, {"num": "1", "log2den": 0}),
            ([], {"x1": -1}, {"num": "1", "log2den": 0}),
        ],
        ids=["q0-mono0", "q1-mono1", "q2-mono2", "no-coeff", "num-x", "log2den-negative",
             "log2den-half", "exponent-a", "exponent-negative"],
    )
    def test_parse_rejects_invalid_rows(self, q, mono, coeff):
        # Q_(1,2) and Q_(0) equal no canonical element; w is no variable family;
        # a row needs a coeff with an integer num over 2^log2den, log2den >= 0,
        # and integer exponents, negative only on h
        row = {"q": q, "mono": mono}
        if coeff is not None:
            row["coeff"] = coeff
        with pytest.raises(cli.ParseError):
            parse_element([row])

    def test_integral_fraction_coefficient(self):
        # Fraction(1, 2) * 2 is the Fraction 1/1, which must read exactly like 1
        one = Polynomial.const(Fraction(1, 2)) * 2
        assert type(one.terms[()]) is Fraction
        e, q1 = GammaElement({(1,): one}), GammaElement.basis((1,))
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
            ("verify", "stability", "--n", "1"),
        ],
    )
    def test_size_too_small_exit_2(self, capsys, argv):
        assert main(list(argv)) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


class TestVerify:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "no-such-suite"]) == 2

    def test_census(self, capsys):
        code, out = run(capsys, "verify", "census", "--n", "3")
        assert code == 0
        assert "C: 33/48 vexillary, D: 18/24" in out

    def test_theorem_equivalence_small(self, capsys):
        code, out = run(capsys, "verify", "theorem-equivalence", "--type", "C", "--n", "2")
        assert code == 0 and "PASS" in out

    def test_appendix_a2(self, capsys):
        code, out = run(capsys, "verify", "appendix-a2", "--r", "2")
        assert code == 0 and "PASS" in out

    def test_suite_flag_spelling(self, capsys):
        code, out = run(capsys, "verify", "--suite", "stability")
        assert code == 0 and "PASS" in out

    def test_json_report(self, capsys):
        code, out = run(capsys, "verify", "census", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True and payload["suite"] == "census"


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
