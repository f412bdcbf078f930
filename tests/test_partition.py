import pytest

from crekit.errors import ExprSyntaxError, OddTotalError
from crekit.partition import (
    PartitionInstance,
    brute_force_partition,
    build_expressions,
    decide_partition_via_inclusion,
    even_total_instances,
    parse_weights,
    subset_sums,
    verify_theorem_instance,
)
from crekit.syntax import render_expr
from crekit.unambiguity import is_single_occurrence
from oracle import includes_reference, naive_partition


class TestInstance:
    def test_half_weight(self):
        inst = PartitionInstance((1, 3))
        assert inst.k == 2 and inst.total == 4 and inst.n == 2

    def test_odd_total_has_no_half(self):
        assert PartitionInstance((1, 2)).n is None

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            PartitionInstance(())
        with pytest.raises(ValueError):
            PartitionInstance((0, 1))
        with pytest.raises(ValueError):
            PartitionInstance((1, -2))


class TestParseWeights:
    def test_whitespace_and_newlines(self):
        inst = parse_weights("1 2\n3\t4\n")
        assert inst.weights == (1, 2, 3, 4)

    def test_rejects_non_integers(self):
        with pytest.raises(ExprSyntaxError):
            parse_weights("1 two 3")

    def test_rejects_zero(self):
        with pytest.raises(ExprSyntaxError):
            parse_weights("1 0 3")

    def test_rejects_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_weights("   \n ")

    @pytest.mark.parametrize(
        "text, position",
        [
            pytest.param("10 0", 3, id="zero-inside-an-earlier-token"),
            pytest.param("3 \u00b2 1", 2, id="superscript-digit"),
            pytest.param("1 " + "9" * 5000, 2, id="too-many-digits"),
        ],
    )
    def test_error_names_the_token(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_weights(text)
        assert info.value.position == position


class TestBuildExpressions:
    def test_unit_pair(self):
        e1, e2 = build_expressions(PartitionInstance((1, 1)))
        assert render_expr(e1) == "a0{2,2}(a1{1,1}|%)(a2{1,1}|%)"
        assert render_expr(e2) == "((a0|a1|a2){2,2}){1,2}"

    def test_three_twos(self):
        e1, e2 = build_expressions(PartitionInstance((2, 2, 2)))
        assert render_expr(e1) == "a0{4,4}(a1{2,2}|%)(a2{2,2}|%)(a3{2,2}|%)"
        assert render_expr(e2) == "((a0|a1|a2|a3){4,6}){1,2}"

    def test_odd_total_rejected(self):
        with pytest.raises(OddTotalError):
            build_expressions(PartitionInstance((1, 2)))

    def test_outputs_are_single_occurrence(self):
        for inst in even_total_instances(3, 4):
            e1, e2 = build_expressions(inst)
            assert is_single_occurrence(e1)
            assert is_single_occurrence(e2)

    def test_rendered_size_is_polynomial(self):
        # counts stay decimal: even huge weights render in O(k + digits)
        for power in range(0, 9):
            weights = (2 * 10**power,)
            e1, e2 = build_expressions(PartitionInstance(weights))
            budget = 60 * (len(weights) + sum(len(str(w)) for w in weights))
            assert len(render_expr(e1)) + len(render_expr(e2)) <= budget


class TestBruteForce:
    def test_symmetric_split(self):
        assert brute_force_partition(PartitionInstance((1, 1))) == (True, (1,))

    def test_no_split(self):
        assert brute_force_partition(PartitionInstance((1, 3))) == (False, None)

    def test_first_witness_prefers_early_items(self):
        assert brute_force_partition(PartitionInstance((1, 2, 3))) == (True, (1, 2))

    def test_odd_total_is_false_immediately(self):
        assert brute_force_partition(PartitionInstance((1, 2))) == (False, None)

    def test_witness_sums_to_half(self):
        for inst in even_total_instances(4, 4):
            exists, witness = brute_force_partition(inst)
            if exists:
                assert sum(inst.weights[i - 1] for i in witness) == inst.n
            assert exists == naive_partition(inst.weights)

    def test_agrees_with_naive_oracle_on_odd_totals(self):
        for weights in [(1,), (1, 2), (3, 3, 1), (5, 4, 4)]:
            inst = PartitionInstance(weights)
            exists, _ = brute_force_partition(inst)
            assert exists == naive_partition(weights)


class TestDecideViaInclusion:
    def test_yes_instance(self):
        assert decide_partition_via_inclusion(PartitionInstance((1, 1))) is True

    def test_no_instance(self):
        assert decide_partition_via_inclusion(PartitionInstance((1, 3))) is False

    def test_odd_total_skips_the_oracle(self):
        calls = []

        def oracle(left, right):
            calls.append((left, right))
            raise AssertionError("oracle must not be consulted")

        assert decide_partition_via_inclusion(PartitionInstance((1, 2)), oracle) is False
        assert calls == []

    def test_accepts_injected_oracle(self):
        inst = PartitionInstance((1, 1))

        def oracle(left, right):
            return includes_reference(left, right, 3 * inst.n + 1)

        assert decide_partition_via_inclusion(inst, oracle) is True


class TestVerifyTheoremInstance:
    def test_yes_instance_full_pipeline(self):
        report = verify_theorem_instance(PartitionInstance((1, 1)))
        assert report.partition_exists
        assert not report.inclusion_holds
        assert len(report.inclusion_witness) == 3
        assert report.unambiguity_ok == (True, True)
        assert report.length_laws_ok
        assert report.theorem_holds
        assert report.all_checks_pass

    def test_no_instance(self):
        report = verify_theorem_instance(PartitionInstance((1, 3)))
        assert not report.partition_exists
        assert report.inclusion_holds
        assert report.inclusion_witness is None
        assert report.all_checks_pass

    def test_even_total_without_partition(self):
        # subset sums of (2,2,2) are {0,2,4,6}: no 3, so inclusion holds
        assert subset_sums((2, 2, 2)) == {0, 2, 4, 6}
        report = verify_theorem_instance(PartitionInstance((2, 2, 2)))
        assert not report.partition_exists
        assert report.inclusion_holds
        assert report.all_checks_pass

    def test_odd_total_rejected(self):
        with pytest.raises(OddTotalError):
            verify_theorem_instance(PartitionInstance((1, 2)))


def test_even_total_instance_count():
    instances = list(even_total_instances(4, 5))
    assert len(instances) == 390
    assert all(inst.total % 2 == 0 for inst in instances)
    assert len(set(inst.weights for inst in instances)) == 390
