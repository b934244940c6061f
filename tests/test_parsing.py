"""Expression and problem-file parsing."""

from fractions import Fraction

import pytest

from skewgb import (
    ParseError,
    parse_expression,
    parse_problem,
    parse_problem_file,
    weyl_presentation,
)

A2 = weyl_presentation(2)


class TestExpressions:
    def test_basic(self):
        f = parse_expression(A2, "y1^2 - y2")
        assert f == A2.y(1) ** 2 - A2.y(2)

    def test_coefficients_and_parens(self):
        f = parse_expression(A2, "x1*y1 + 2*x2*y2")
        assert f == A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)
        g = parse_expression(A2, "3/2*(x1 - y1)^2")
        assert g == Fraction(3, 2) * (A2.x(1) - A2.y(1)) ** 2

    def test_noncommutative_order_respected(self):
        # y1*x1 normalizes to x1*y1 + 1 in the Weyl algebra
        f = parse_expression(A2, "y1*x1")
        assert f == A2.x(1) * A2.y(1) + A2.one()

    def test_unary_minus(self):
        assert parse_expression(A2, "-x1 + -y1") == -A2.x(1) - A2.y(1)

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expression(A2, "2x1", line=7)
        assert "juxtaposition" in str(exc.value)
        assert exc.value.line == 7

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression(A2, "x1 + @", line=3)
        assert exc.value.line == 3 and exc.value.column == 6

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_expression(A2, "x3")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression(A2, "   ")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression(A2, "x1^1/2 + y1^(3/2)")
        with pytest.raises(ParseError):
            parse_expression(A2, "x1^y1")


class TestProblems:
    def test_weyl_problem(self):
        p = parse_problem(
            "ring: weyl 2\n"
            "ideal: y1^2 - y2; x1*y1 + 2*x2*y2\n"
            "weight: 1,1,1,3\n"
            "order: grlex\n"
        )
        assert p.ring.n == 2 and len(p.generators) == 2
        assert p.weights[0].entries == (1, 1, 1, 3)
        assert p.order_kind == "grlex"

    def test_comments_and_blanks(self):
        p = parse_problem("# header\n\nring: sl2\nideal: y1*y3 - y2\n")
        assert p.ring.n == 3 and p.ring.m == 0

    def test_multiple_weights(self):
        p = parse_problem("ring: weyl 1\nweight: 1,3\nweight: 3,1\n")
        assert len(p.weights) == 2

    def test_custom_ring(self):
        text = (
            "ring: custom 1 1\n"
            "q1 1 1: x1\n"
            "ideal: y1\n"
        )
        p = parse_problem(text)
        # y1 x1 - x1 y1 = x1
        assert p.ring.q1_entry(1, 1) == p.ring.x(1)

    def test_custom_ring_rejects_y_in_q1(self):
        with pytest.raises(ParseError):
            parse_problem("ring: custom 1 1\nq1 1 1: y1\n")

    def test_custom_ring_rejects_non_associative_relations(self):
        # [y2, y1] = y3, [y3, y2] = y1, [y3, y1] = y1 breaks the Jacobi identity
        text = (
            "ring: custom 0 3\n"
            "q2 2 1: y3\n"
            "q2 3 2: y1\n"
            "q2 3 1: y1\n"
            "ideal: y1\n"
        )
        with pytest.raises(ParseError, match="non-associative"):
            parse_problem(text)

    @pytest.mark.parametrize(
        "line", ["q1 1 5: 1", "q1 2 1: 1", "q1 0 1: 1", "q2 2 1: 1", "q2 1 0: 1"]
    )
    def test_custom_ring_rejects_out_of_range_relation(self, line):
        text = f"ring: custom 1 1\n# relations\n{line}\nideal: y1*x1\n"
        with pytest.raises(ParseError, match="out of range") as exc:
            parse_problem(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "spec", ["weyl 0", "weyl -2", "commutative -1", "commutative 1 -1", "custom -1 1"]
    )
    def test_refused_ring_stanza_is_a_parse_error(self, spec):
        with pytest.raises(ParseError) as exc:
            parse_problem(f"# header\nring: {spec}\nideal: 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, what, line",
        [
            ("ring: custom 1 1\nring: weyl 1\nideal: y1*x1\n", "ring", 2),
            ("ring: weyl 1\nring: custom 1 1\nideal: y1*x1\n", "ring", 2),
            ("ring: weyl 1\nring: commutative 1 1\nideal: y1*x1\n", "ring", 2),
            ("ring: weyl 1\norder: lex\norder: grevlex\n", "order", 3),
            ("ring: custom 1 1\nq1 1 1: 1\nq1 1 1: 2\n", "q1 1 1", 3),
            ("ring: custom 0 2\nq2 2 1: y1\nq2 2 1: y2\n", "q2 2 1", 3),
        ],
    )
    def test_repeated_single_valued_stanza(self, text, what, line):
        with pytest.raises(ParseError, match=f"repeated {what} ") as exc:
            parse_problem(text)
        assert exc.value.line == line

    def test_missing_ring(self):
        with pytest.raises(ParseError):
            parse_problem("ideal: y1\n")

    def test_weight_length_checked(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("ring: weyl 2\nweight: 1,1\n")
        assert exc.value.line == 2

    def test_unknown_stanza(self):
        with pytest.raises(ParseError):
            parse_problem("ring: weyl 1\nfrobnicate: 1\n")

    def test_fixture_files(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("example_a", "example_b", "parabola_a1"):
            p = parse_problem_file(str(root / "docs" / "problems" / f"{name}.txt"))
            assert p.generators and p.weights
