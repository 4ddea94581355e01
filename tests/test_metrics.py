"""Performance indicators and ranking."""

from __future__ import annotations

from fractions import Fraction

import pytest

from transmit.errors import ValidationError
from transmit.formulas import TransmissionTriple, complete_triple, path_triple, tree_triple
from transmit.metrics import compare_rank, summarize


def report_for(text: str, triple: TransmissionTriple, **kw):
    return summarize(text, triple, **kw)


class TestSummarize:
    def test_fields_in_output_order(self):
        r = report_for("star(3)", TransmissionTriple(4, 18, 3))
        names = ["expr", "size", "delta", "delta0", "mean_all", "mean_distinct", "expected_messages"]
        assert list(r) == names
        assert [r[name] for name in names[:4]] == ["star(3)", 4, 18, 3]

    def test_star_means(self):
        r = report_for("star(3)", TransmissionTriple(4, 18, 3))
        assert r["mean_all"] == Fraction(18, 16)
        assert r["mean_distinct"] == Fraction(18, 12) == Fraction(3, 2)
        assert r["expected_messages"] is None

    def test_complete_mean_distinct_is_one(self):
        for n in range(2, 20):
            r = report_for(f"complete({n})", complete_triple(n))
            assert r["mean_distinct"] == 1

    def test_single_vertex_has_no_distinct_mean(self):
        r = report_for("complete(1)", TransmissionTriple(1, 0, 0))
        assert r["mean_all"] == 0
        assert r["mean_distinct"] is None

    def test_expected_messages(self):
        r = report_for(
            "tree(2,2)",
            tree_triple(2, 2),
            rate=Fraction(2),
            time=Fraction(10),
        )
        assert r["expected_messages"] == 1920

    def test_expected_messages_needs_both_inputs(self):
        r = report_for("star(2)", TransmissionTriple(3, 8, 2), rate=Fraction(2))
        assert r["expected_messages"] is None

    def test_fractional_rate_and_time_stay_exact(self):
        r = report_for(
            "star(2)",
            TransmissionTriple(3, 8, 2),
            rate=Fraction("0.1"),
            time=Fraction("1.5"),
        )
        assert r["expected_messages"] == Fraction(8 * 3, 20) == Fraction(6, 5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            report_for("star(2)", TransmissionTriple(3, 8, 2), rate=Fraction(-1), time=Fraction(1))

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("rate", Fraction(-3, 2), "-3/2"),
            ("time", Fraction(-7), "-7"),
            ("rate", Fraction(-(10**5000)), "-1" + "0" * 5000),
            ("time", Fraction(-1, 10**5000), "-1/1" + "0" * 5000),
        ],
        ids=["rational rate", "integer time", "5001-digit rate", "5001-digit denominator"],
    )
    def test_negative_rate_or_time_is_refused_at_any_size(self, field, value, shown):
        # str() of a Fraction refuses a part past the interpreter's digit limit
        kw = {"rate": Fraction(1), "time": Fraction(1), field: value}
        with pytest.raises(ValidationError) as info:
            summarize("x", path_triple(3), **kw)
        assert str(info.value) == f"{field} must be nonnegative, got {shown}"

    def test_mean_identity(self):
        for triple in (tree_triple(3, 3), complete_triple(17), TransmissionTriple(3, 8, 2)):
            r = report_for("x", triple)
            n = triple.size
            assert r["mean_distinct"] * n * (n - 1) == triple.delta
            assert r["mean_all"] < r["mean_distinct"]


class TestCompareRank:
    def test_by_mean_distinct(self):
        star = report_for("star(3)", TransmissionTriple(4, 18, 3))
        complete = report_for("complete(4)", TransmissionTriple(4, 12, 3))
        ranked = compare_rank([star, complete], "mean_distinct")
        assert [r["expr"] for r in ranked] == ["complete(4)", "star(3)"]

    def test_by_delta(self):
        cycle5 = report_for("cycle(5)", TransmissionTriple(5, 30, 6))
        path5 = report_for("path(5)", TransmissionTriple(5, 40, 10))
        ranked = compare_rank([path5, cycle5], "delta")
        assert [r["expr"] for r in ranked] == ["cycle(5)", "path(5)"]

    def test_single_report(self):
        only = report_for("star(1)", TransmissionTriple(2, 2, 1))
        assert compare_rank([only], "size") == [only]

    def test_ties_keep_input_order(self):
        a = report_for("first", TransmissionTriple(4, 18, 3))
        b = report_for("second", TransmissionTriple(4, 18, 3))
        ranked = compare_rank([a, b], "mean_distinct")
        assert [r["expr"] for r in ranked] == ["first", "second"]

    def test_single_vertex_sorts_first_on_mean(self):
        dot = report_for("complete(1)", TransmissionTriple(1, 0, 0))
        edge = report_for("complete(2)", TransmissionTriple(2, 2, 1))
        ranked = compare_rank([edge, dot], "mean_distinct")
        assert ranked[0] is dot

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compare_rank([], "delta")

    def test_unknown_key_rejected(self):
        only = report_for("star(1)", TransmissionTriple(2, 2, 1))
        with pytest.raises(ValidationError):
            compare_rank([only], "diameter")

    def test_unknown_key_lists_the_keys(self):
        only = report_for("star(1)", TransmissionTriple(2, 2, 1))
        expected = "sort key must be one of ('mean_distinct', 'delta', 'size'), got 'diameter'"
        with pytest.raises(ValidationError) as info:
            compare_rank([only], "diameter")
        assert str(info.value) == expected

    def test_by_size(self):
        star = report_for("star(4)", TransmissionTriple(5, 32, 4))
        cycle = report_for("cycle(3)", TransmissionTriple(3, 6, 2))
        assert compare_rank([star, cycle], "size") == [cycle, star]
