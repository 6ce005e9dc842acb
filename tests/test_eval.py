"""Localization metrics: truth extraction from gold patches and the
file/function success rates."""

import random

import pytest

from cppatlas.diffs import make_diff, parse_unified_diff
from cppatlas.errors import IdMismatch
from cppatlas.evaluation import (
    EvalInstance,
    evaluate_localization,
    predictions_from_localization,
    score_instance,
    truth_sets,
)
from cppatlas.intent import localize
from cppatlas.repo import IssueDescription, load_repository


def instance(iid, pf=(), pfn=(), tf=(), tfn=()):
    return EvalInstance(
        instance_id=iid,
        predicted_files=frozenset(pf),
        predicted_functions=frozenset(pfn),
        truth_files=frozenset(tf),
        truth_functions=frozenset(tfn),
    )


@pytest.fixture(scope="module")
def repo(toyrepo_root):
    return load_repository(toyrepo_root)


def edit(repo, path, old_sub, new_sub):
    old = repo.unit(path).content
    return parse_unified_diff(make_diff(old, old.replace(old_sub, new_sub), path))


class TestTruthSets:
    def test_gold_patch_yields_file_and_enclosing_function(self, repo, toy_index):
        gold = edit(repo, "src/calc.cpp", "return a + b;\n}\n\nint Calculator::multiply",
                    "return a - b;\n}\n\nint Calculator::multiply")
        files, functions = truth_sets(toy_index, gold)
        assert files == {"src/calc.cpp"}
        assert functions == {"calc::Calculator::subtract"}

    def test_multi_function_patch(self, repo, toy_index):
        old = repo.unit("src/calc.cpp").content
        new = old.replace(
            "last_result_ = a - b;\n    return a + b;",
            "last_result_ = a - b;\n    return a - b;",
        ).replace('return "basic";', 'return "plain";')
        gold = parse_unified_diff(make_diff(old, new, "src/calc.cpp"))
        files, functions = truth_sets(toy_index, gold)
        assert files == {"src/calc.cpp"}
        assert functions == {"calc::Calculator::subtract",
                             "calc::Calculator::flavor"}

    def test_created_file_has_no_function_truth(self, toy_index):
        gold = parse_unified_diff(make_diff("", "int nine() { return 9; }\n",
                                            "src/new.cpp"))
        files, functions = truth_sets(toy_index, gold)
        assert files == {"src/new.cpp"}
        assert functions == frozenset()


class TestPredictionsFromLocalization:
    def test_localization_result_maps_to_names(self, toy_index, toy_intent):
        issue = IssueDescription.from_text(
            "subtract is wrong",
            "`Calculator::subtract` adds instead of subtracting",
        )
        loc = localize(toy_index, toy_intent, issue, k=5)
        files, functions = predictions_from_localization(loc, toy_index)
        assert "src/calc.cpp" in files or "src/calc.h" in files
        assert "calc::Calculator::subtract" in functions
        # only function kinds may appear in the function set
        by_name = {r.qualified_name for r in toy_index.symbols
                   if not r.is_synthetic}
        assert functions <= by_name


class TestScoring:
    def test_hit_flags_follow_set_intersection(self):
        report = score_instance(instance(
            "i0", pf={"a.cpp", "b.cpp"}, pfn={"f", "g"},
            tf={"b.cpp"}, tfn={"h"},
        ))
        assert report.file_hit is True
        assert report.function_hit is False

    def test_hand_computed_rates(self):
        # 3 of 4 file hits, 2 of 4 function hits
        instances = [
            instance("i0", pf={"a"}, pfn={"f"}, tf={"a"}, tfn={"f"}),
            instance("i1", pf={"a"}, pfn={"f"}, tf={"a"}, tfn={"g"}),
            instance("i2", pf={"a", "b"}, pfn={"g"}, tf={"b"}, tfn={"g"}),
            instance("i3", pf={"z"}, pfn={"q"}, tf={"a"}, tfn={"f"}),
        ]
        file_rate, function_rate, reports = evaluate_localization(instances)
        assert file_rate == 0.75
        assert function_rate == 0.5
        assert [r.file_hit for r in reports] == [True, True, True, False]
        assert [r.function_hit for r in reports] == [True, False, True, False]

    def test_perfect_predictions_score_one_one(self):
        instances = [
            instance(f"i{n}", pf={f"f{n}.cpp"}, pfn={f"fn{n}"},
                     tf={f"f{n}.cpp"}, tfn={f"fn{n}"})
            for n in range(5)
        ]
        file_rate, function_rate, _ = evaluate_localization(instances)
        assert (file_rate, function_rate) == (1.0, 1.0)

    def test_disjoint_predictions_score_zero_zero(self):
        instances = [
            instance(f"i{n}", pf={"wrong.cpp"}, pfn={"wrong"},
                     tf={"right.cpp"}, tfn={"right"})
            for n in range(3)
        ]
        file_rate, function_rate, _ = evaluate_localization(instances)
        assert (file_rate, function_rate) == (0.0, 0.0)

    def test_rates_are_permutation_invariant(self):
        instances = [
            instance(f"i{n}", pf={"a"} if n % 2 else {"b"}, pfn={"f"},
                     tf={"a"}, tfn={"f"} if n % 3 else {"g"})
            for n in range(9)
        ]
        base = evaluate_localization(instances)[:2]
        shuffled = list(instances)
        random.Random(11).shuffle(shuffled)
        assert evaluate_localization(shuffled)[:2] == base

    def test_duplicate_instance_ids_rejected(self):
        pair = [instance("same"), instance("same")]
        with pytest.raises(IdMismatch):
            evaluate_localization(pair)

    def test_empty_suite_is_an_error(self):
        with pytest.raises(ValueError):
            evaluate_localization([])

    @pytest.mark.parametrize("field", ["predicted_files", "predicted_functions",
                                       "truth_files", "truth_functions"])
    @pytest.mark.parametrize("value", [5, "src/a.cpp", ["a", 7], None],
                             ids=["number", "string", "list-with-number", "null"])
    def test_name_field_that_is_no_list_of_strings_is_an_error(self, field,
                                                                value):
        # a string was read as the set of its characters
        with pytest.raises(ValueError, match=field):
            EvalInstance.from_dict({"instance_id": "x", field: value})

    def test_instance_dict_round_trip(self):
        inst = instance("x", pf={"a.cpp"}, pfn={"ns::f"}, tf={"a.cpp"},
                        tfn={"ns::f", "ns::g"})
        assert EvalInstance.from_dict(inst.to_dict()) == inst
        report = score_instance(inst)
        d = report.to_dict()
        assert d["file_hit"] is True
        assert d["truth_functions"] == ["ns::f", "ns::g"]
