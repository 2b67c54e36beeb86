import pytest

from hiercomment.baselines import (
    class_name_substitution,
    copy_baseline,
    substitute_subsequence,
)
from hiercomment.model import ExampleInputs


def make_inputs(sup_comment, sup_name, sub_name):
    return ExampleInputs(
        example_id="p:X.m/0",
        method_tokens=["return", ";"],
        sup_method_tokens=["return", ";"],
        sub_name_tokens=sub_name,
        sup_name_tokens=sup_name,
        sup_comment_tokens=sup_comment,
        target_tokens=["whatever", "goes", "here"],
    )


class TestCopyBaseline:
    def test_returns_sup_comment_verbatim(self):
        inputs = make_inputs(["returns", "encoded", "form", "of", "the",
                              "object", "."], ["object"], ["info"])
        assert copy_baseline(inputs) == ["returns", "encoded", "form", "of",
                                         "the", "object", "."]

    def test_result_is_a_fresh_list(self):
        inputs = make_inputs(["a", "b"], ["x"], ["y"])
        out = copy_baseline(inputs)
        out.append("mutated")
        assert inputs.sup_comment_tokens == ["a", "b"]


class TestClassNameSubstitution:
    def test_single_token_name_expansion(self):
        inputs = make_inputs(
            ["returns", "encoded", "form", "of", "the", "object", "."],
            ["object"], ["info", "access", "syntax"])
        assert class_name_substitution(inputs) == [
            "returns", "encoded", "form", "of", "the",
            "info", "access", "syntax", "."]

    def test_identity_when_name_absent(self):
        inputs = make_inputs(["returns", "the", "list", "."],
                             ["object"], ["info", "access", "syntax"])
        assert class_name_substitution(inputs) == ["returns", "the", "list", "."]

    def test_identity_when_names_equal(self):
        inputs = make_inputs(["the", "widget", "holder", "."],
                             ["widget", "holder"], ["widget", "holder"])
        assert class_name_substitution(inputs) == ["the", "widget", "holder", "."]

    def test_multi_subtoken_match(self):
        inputs = make_inputs(
            ["wraps", "an", "abstract", "value", "instance", "."],
            ["abstract", "value"], ["info", "access", "syntax"])
        assert class_name_substitution(inputs) == [
            "wraps", "an", "info", "access", "syntax", "instance", "."]

    def test_all_occurrences_replaced(self):
        inputs = make_inputs(
            ["value", "holds", "a", "value", "."],
            ["value"], ["entry"])
        assert class_name_substitution(inputs) == [
            "entry", "holds", "a", "entry", "."]

    def test_left_to_right_non_overlapping(self):
        out = substitute_subsequence(["a", "a", "a"], ["a", "a"], ["x"])
        assert out == ["x", "a"]

    def test_empty_pattern_is_identity(self):
        assert substitute_subsequence(["a", "b"], [], ["x"]) == ["a", "b"]

    def test_replacement_shorter_than_pattern(self):
        out = substitute_subsequence(["the", "big", "box", "lid"],
                                     ["big", "box"], ["crate"])
        assert out == ["the", "crate", "lid"]

