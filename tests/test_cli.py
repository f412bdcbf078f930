import json
import resource
import subprocess
import sys

import pytest

from conftest import DEEP, nested_groups, rendered_groups
from crekit.cli import main
from crekit.partition import PartitionInstance, brute_force_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_guarded(*argv, seconds=60, memory=512 << 20):
    """Run the CLI in a child process under a time and address-space limit."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    proc = subprocess.run(
        [sys.executable, "-m", "crekit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=limit_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParseCommand:
    def test_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "a0{2,2}(a1{1,1}|%)")
        assert code == 0
        assert out.strip() == "a0{2,2}(a1{1,1}|%)"

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "a{")
        assert code == 2
        assert "error[SYNTAX]" in err

    def test_invalid_count(self, capsys):
        code, _, err = run_cli(capsys, "parse", "a{3,2}")
        assert code == 2
        assert "error[INVALID_COUNT]" in err

    def test_count_too_long_for_int(self, capsys):
        code, out, err = run_cli(capsys, "parse", "a{" + "9" * 5000 + "}")
        assert code == 2 and out == ""
        assert err.startswith("error[INVALID_COUNT]: count has more than")
        assert err.endswith(" digits (at position 2)\n") and err.count("\n") == 1

    def test_at_file_indirection(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("(a|b){1,2}\n")
        code, out, _ = run_cli(capsys, "parse", f"@{path}")
        assert code == 0
        assert out.strip() == "(a|b){1,2}"

    def test_deep_nesting_at_file(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text(nested_groups())
        code, out, err = run_cli(capsys, "parse", f"@{path}")
        assert code == 0 and err == ""
        assert out == rendered_groups() + "\n"

    def test_unclosed_groups(self, capsys):
        code, out, err = run_cli(capsys, "parse", "(" * DEEP)
        assert code == 2 and out == ""
        assert err == (
            "error[SYNTAX]: expected a symbol, '%' or '(', found 'end of input'"
            f" (at position {DEEP})\n"
        )


class TestMemberCommand:
    def test_true(self, capsys):
        code, out, _ = run_cli(capsys, "member", "a{2,3}", "a a")
        assert code == 0 and out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run_cli(capsys, "member", "a{2,3}", "a")
        assert code == 1 and out.strip() == "false"

    def test_empty_word(self, capsys):
        code, out, _ = run_cli(capsys, "member", "a{0,1}", "%")
        assert code == 0 and out.strip() == "true"

    def test_bad_word_symbol_names_its_position(self, capsys):
        # the bad '1' starts at offset 3, not inside the earlier 'a1'
        code, out, err = run_cli(capsys, "member", "a1", "a1 1")
        assert code == 2 and out == ""
        assert err == "error[SYNTAX]: invalid symbol '1' in word (at position 3)\n"

    def test_long_word_in_bounded_time(self, tmp_path):
        # dense subsets of a 20,003-state automaton, stepped through its links
        path = tmp_path / "word.txt"
        path.write_text("a " * 20000 + "b")
        argv = ("member", "a* a{0,20000} b", f"@{path}")
        code, out, err = run_guarded(*argv, seconds=20)
        assert (code, out, err) == (0, "true\n", "")

    def test_large_counter_hits_the_cap(self, capsys):
        # 30000 optional copies need 119999 nodes, over the default cap
        code, out, err = run_cli(capsys, "member", "a{0,30000}", "a")
        assert code == 3 and out == ""
        assert err.startswith("error[EXPANSION_CAP]: ")

    def test_required_size_too_long_to_print(self, capsys):
        # the count converts, but the node count it needs has 4,301 digits
        limit = sys.get_int_max_str_digits()
        count = "9" * limit
        code, out, err = run_cli(capsys, "member", f"a{{0,{count}}}", "a")
        assert code == 3 and out == ""
        assert err == (
            f"error[EXPANSION_CAP]: counter expansion needs 10^{limit} or more"
            " AST nodes, cap is 100000\n"
        )

    def test_large_counter_under_a_raised_cap(self, capsys):
        argv = ("member", "a{0,30000}", "a", "--cap", "1000000")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == "true"

    def test_nullable_counted_body_in_linear_memory(self):
        # each copy links only to the next: linking every copy to every
        # later one would take about 5 * 10^9 follow bits here
        argv = ("member", "(a|%){0,100000}", "a", "--cap", "1000000")
        code, out, err = run_guarded(*argv, seconds=10, memory=256 << 20)
        assert (code, out, err) == (0, "true\n", "")


class TestEnumerateCommand:
    def test_lists_words(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "a{1,2}", "5")
        assert code == 0
        assert out.splitlines() == ["a", "a a"]

    def test_epsilon_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "a*", "1")
        assert code == 0
        assert out.splitlines() == ["%", "a"]

    def test_limit_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "(a|b|c){0,8}", "8", "--limit", "10")
        assert code == 3
        assert "error[RESULT_TOO_LARGE]" in err

    def test_frontier_is_charged_to_the_limit(self):
        # the pending prefixes alone would exhaust memory long before length 40
        code, out, err = run_guarded("enumerate", "(a|b){30,} c", "40")
        assert code == 3 and out == ""
        assert err.startswith("error[RESULT_TOO_LARGE]: ") and err.count("\n") == 1


class TestLengthsCommand:
    def test_members(self, capsys):
        code, out, _ = run_cli(capsys, "lengths", "a{2,3}b{0,1}", "10")
        assert code == 0
        assert out.strip() == "2 3 4"

    def test_saturated_marker(self, capsys):
        code, out, _ = run_cli(capsys, "lengths", "a*", "3")
        assert code == 0
        assert out.strip() == "0 1 2 3 (saturated)"

    def test_star_of_two_lengths_in_bounded_time(self):
        # a star folds by squaring, not one copy at a time
        code, out, err = run_guarded("lengths", "(a a|a a a)*", "100000", seconds=10)
        assert (code, err) == (0, "")
        members = " ".join(map(str, [0] + list(range(2, 100001))))
        assert out == members + " (saturated)\n"


class TestUnambiguousCommand:
    def test_unambiguous(self, capsys):
        code, out, _ = run_cli(capsys, "unambiguous", "a b{2,3}")
        assert code == 0 and out.strip() == "unambiguous"

    def test_ambiguous(self, capsys):
        code, out, _ = run_cli(capsys, "unambiguous", "a|a")
        assert code == 1
        assert out.startswith("ambiguous:")

    @pytest.mark.parametrize(
        "text,locus",
        [("(a|b)* a", "first-set"), ("(a|b){2,3} a", "follow-set of 1")],
    )
    def test_conflict_in_json(self, capsys, text, locus):
        code, out, _ = run_cli(capsys, "unambiguous", text, "--format", "json")
        assert code == 1
        conflict = json.loads(out)["report"]["conflict"]
        assert conflict == {"symbol": "a", "positions": [1, 3], "locus": locus}

    def test_long_concatenation_in_bounded_time(self, tmp_path):
        # each part links from the last position of the run so far: taken
        # relative to the run's start, that one bit is as wide as the run
        path = tmp_path / "expr.txt"
        path.write_text(" ".join(["a"] * 200_000))
        code, out, err = run_guarded("unambiguous", f"@{path}", seconds=10)
        assert (code, out, err) == (0, "unambiguous\n", "")


class TestDecisionCommands:
    def test_include_holds(self, capsys):
        code, out, _ = run_cli(capsys, "include", "a{2,2}", "a{1,3}")
        assert code == 0 and out.strip() == "holds"

    def test_include_fails_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "include", "a{1,3}", "a{2,2}")
        assert code == 1
        assert out.splitlines() == ["fails", "witness: a"]

    def test_include_witness_is_shortest_lex(self, capsys):
        left = "(c a|c c a|c{2,2}|a{0,4}a c|(a a){0,3})c"
        code, out, _ = run_cli(capsys, "include", left, "c")
        assert code == 1
        assert out.splitlines() == ["fails", "witness: c c c"]

    def test_include_budget_exit(self, capsys):
        # over two symbols the right side fixes more than lengths: a search
        code, _, err = run_cli(
            capsys, "include", "(a b){1,3}", "(a b){2,2}", "--budget", "1"
        )
        assert code == 3
        assert "error[STATE_BUDGET]" in err
        # a unary right side is decided on lengths and charges no pair
        code, out, _ = run_cli(capsys, "include", "a{1,3}", "a{2,2}", "--budget", "1")
        assert code == 1 and out.splitlines() == ["fails", "witness: a"]

    def test_overlap_budget_exit(self):
        # quadratically many state pairs in u: about 8M at u = 2000
        body = "(a|b)* (a|b){0,2000}"
        argv = ("overlap", f"{body} c", f"{body} d", "--budget", "100000")
        code, out, err = run_guarded(*argv)
        assert code == 3 and out == ""
        assert err.startswith("error[STATE_BUDGET]: ") and err.count("\n") == 1

    def test_overlap_of_nullable_counted_bodies_is_decided(self):
        # one first position per side: 3,000 each would make 9 * 10^6 pairs
        argv = ("overlap", "(a|%){0,3000}", "(a|%){0,3000} b", "--cap", "1000000")
        code, out, err = run_guarded(*argv, seconds=10)
        assert (code, out, err) == (1, "disjoint\n", "")

    def test_equiv_of_a_nullable_counted_body_is_decided(self):
        # with each copy linked to every later one, the right keys pass a
        # million pairs by depth 355
        argv = ("equiv", "a{0,3000}", "(a|%){0,3000}", "--cap", "1000000")
        code, out, err = run_guarded(*argv, seconds=10)
        assert (code, out, err) == (0, "equivalent\n", "")

    def test_include_huge_unary_right_side_is_decided(self):
        # decided on lengths: the right side is never built, so its
        # 10^4300 expansion nodes are not charged to the cap
        right = "a{0," + "9" * 4300 + "}"
        code, out, err = run_guarded("include", "a{0,10}", right, seconds=10)
        assert (code, out, err) == (0, "holds\n", "")

    def test_include_long_unary_witness_in_bounded_memory(self):
        # one state per layer of the spelled word, each stored shifted down
        argv = ("include", "a{24999}", "a{0,24998}")
        code, out, err = run_guarded(*argv, seconds=10, memory=128 << 20)
        assert code == 1 and err == ""
        assert out.splitlines() == ["fails", "witness: " + " ".join(["a"] * 24999)]

    def test_include_nested_counters_in_bounded_time(self):
        # right keys of thousands of states in a 12,801-state automaton
        argv = ("include", "(a|b){1,}", "((a|b){1,80}){1,80}")
        code, out, err = run_guarded(*argv, seconds=10)
        assert code == 1 and err == ""
        assert out.splitlines() == ["fails", "witness: " + " ".join(["a"] * 6401)]

    def test_include_nullable_chain_in_bounded_time(self):
        # the 4,000 links between the copies of a nullable body are one chain
        argv = ("include", "a*", "(a|%){0,4000}", "--cap", "1000000")
        code, out, err = run_guarded(*argv, seconds=2)
        assert code == 1 and err == ""
        assert out.splitlines() == ["fails", "witness: " + " ".join(["a"] * 4001)]

    def test_include_prunes_subsumed_subsets(self):
        # unpruned, every right subset is kept: 2**17 keys, over the budget
        argv = ("include", "(a|b)* a (a|b){16}", "(a|b)* (a|c) (a|b){16}")
        code, out, err = run_guarded(*argv, seconds=10)
        assert (code, out, err) == (0, "holds\n", "")

    def test_include_spells_a_pruned_witness(self):
        # the converse: the pruned search spells c a^16, checked by one
        # departure search, with no unpruned search over the budget
        argv = ("include", "(a|b)* (a|c) (a|b){16}", "(a|b)* a (a|b){16}")
        code, out, err = run_guarded(*argv, seconds=10)
        assert code == 1 and err == ""
        assert out.splitlines() == ["fails", "witness: c" + " a" * 16]

    def test_overlap(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "a{1,2}", "a{2,3}")
        assert code == 0
        assert out.splitlines() == ["overlaps", "witness: a a"]

    def test_overlap_disjoint(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "a{1,1}", "b{1,1}")
        assert code == 1 and out.strip() == "disjoint"

    def test_equiv(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "a{2,3}", "a a(a|%)")
        assert code == 0 and out.strip() == "equivalent"

    def test_not_equiv_names_side(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "a{1,2}", "(a|%)a{0,1}")
        assert code == 1
        assert "only in the right language" in out


class TestReductionCommands:
    def test_reduce(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 1\n")
        code, out, _ = run_cli(capsys, "reduce", str(path))
        assert code == 0
        assert out.splitlines() == [
            "a0{2,2}(a1{1,1}|%)(a2{1,1}|%)",
            "((a0|a1|a2){2,2}){1,2}",
        ]

    def test_reduce_odd_total(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 2\n")
        code, _, err = run_cli(capsys, "reduce", str(path))
        assert code == 2
        assert "error[ODD_TOTAL]" in err

    def test_partition_no(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 3\n")
        code, out, _ = run_cli(capsys, "partition", str(path))
        assert code == 1 and out.strip() == "no"

    def test_partition_yes(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 1\n")
        code, out, _ = run_cli(capsys, "partition", str(path))
        assert code == 0 and out.strip() == "yes"

    @pytest.mark.parametrize("weights", [(20,) * 30, (10,) * 29 + (310,)])
    def test_partition_at_n_300(self, capsys, tmp_path, weights):
        path = tmp_path / "w.txt"
        path.write_text(" ".join(map(str, weights)) + "\n")
        code, out, _ = run_cli(capsys, "partition", str(path), "--cap", "1000000")
        exists, _ = brute_force_partition(PartitionInstance(weights))
        assert (code, out.strip()) == ((0, "yes") if exists else (1, "no"))

    def test_partition_at_n_1000(self, tmp_path):
        # E2 is decided on lengths; its 404,001 plain states ran out of memory
        path = tmp_path / "w.txt"
        path.write_text("20 " * 100 + "\n")
        code, out, err = run_guarded("partition", str(path), "--cap", "10000000")
        assert (code, out, err) == (0, "yes\n", "")

    def test_partition_at_n_2500_at_the_default_cap(self, tmp_path):
        # E2 fixes only lengths and is never built; E1 has 7,501 positions
        path = tmp_path / "w.txt"
        path.write_text("20 " * 250 + "\n")
        code, out, err = run_guarded("partition", str(path), seconds=10)
        assert (code, out, err) == (0, "yes\n", "")

    def test_partition_at_n_10000_in_bounded_time(self, tmp_path):
        # spelling the witness on E1's 30,001 states steps its links, one
        # shift and two chains, rather than the follow sets of its members
        path = tmp_path / "w.txt"
        path.write_text("20 " * 1000 + "\n")
        code, out, err = run_guarded("partition", str(path), seconds=10)
        assert (code, out, err) == (0, "yes\n", "")

    def test_partition_odd_is_plain_no(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 2\n")
        code, out, err = run_cli(capsys, "partition", str(path))
        assert code == 1 and out.strip() == "no" and err == ""

    def test_verify(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 1\n")
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "theorem=ok" in out
        assert "witness: a0 a0 a1" in out

    def test_verify_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify-suite", "2", "3")
        assert code == 0
        # k=1 has one even-total list, k=2 has five
        assert len(out.splitlines()) == 6
        assert "checked 6 instances, 0 mismatches" in err

    def test_weight_too_long_for_int(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 " + "9" * 5000 + "\n")
        code, out, err = run_cli(capsys, "partition", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error[SYNTAX]: weights must have at most")
        assert err.endswith(" digits (at position 2)\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["reduce", "verify", "partition"])
    def test_derived_count_too_long_to_print(self, capsys, tmp_path, command):
        # each weight converts, but n + 1 and 2n have one digit more
        path = tmp_path / "w.txt"
        path.write_text(" ".join(["9" * sys.get_int_max_str_digits()] * 2))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error[INVALID_COUNT]: count has more than")
        assert err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "partition", "/nonexistent/weights")
        assert code == 2
        assert "error[USAGE]" in err


class TestJsonMode:
    def test_envelope_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "include", "a{1,3}", "a{2,2}", "--format", "json"
        )
        assert code == 1
        envelope = json.loads(out)
        assert set(envelope) == {"verdict", "witness", "error", "report"}
        assert envelope["verdict"] is False
        assert envelope["witness"] == ["a"]
        assert envelope["error"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ("parse", "a{1,2}"),
            ("member", "a{1,2}", "a"),
            ("enumerate", "a{1,2}", "3"),
            ("lengths", "a{1,2}", "5"),
            ("unambiguous", "a{1,2}"),
            ("include", "a{1,2}", "a{1,3}"),
            ("overlap", "a{1,2}", "a{2,3}"),
            ("equiv", "a{1,2}", "a{1,2}"),
        ],
    )
    def test_every_subcommand_emits_the_envelope(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        assert set(envelope) == {"verdict", "witness", "error", "report"}
        assert isinstance(envelope["verdict"], bool)

    @pytest.mark.parametrize("command", ["reduce", "partition", "verify"])
    def test_weights_subcommands_emit_the_envelope(self, capsys, tmp_path, command):
        path = tmp_path / "w.txt"
        path.write_text("1 1\n")
        code, out, _ = run_cli(capsys, command, str(path), "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        assert set(envelope) == {"verdict", "witness", "error", "report"}

    def test_verdict_parity_with_text(self, capsys):
        text_code, text_out, _ = run_cli(capsys, "include", "a{2,2}", "a{1,3}")
        json_code, json_out, _ = run_cli(
            capsys, "include", "a{2,2}", "a{1,3}", "--format", "json"
        )
        assert text_code == json_code == 0
        assert text_out.strip() == "holds"
        assert json.loads(json_out)["verdict"] is True

    def test_error_envelope(self, capsys):
        code, out, err = run_cli(capsys, "parse", "a{", "--format", "json")
        assert code == 2
        envelope = json.loads(out)
        assert envelope["error"]["code"] == "SYNTAX"
        assert "error[SYNTAX]" in err

    def test_verify_report(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 3\n")
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["n"] == 2
        assert report["inclusion_holds"] is True
        assert report["theorem_holds"] is True

    def test_verify_suite_streams_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify-suite", "1", "4", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2  # weights (2,) and (4,)
        assert all(json.loads(line)["verdict"] for line in lines)


class TestConfig:
    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CREKIT_EXPANSION_CAP", "5")
        code, _, err = run_cli(capsys, "member", "a{9,9}", "a")
        assert code == 3
        assert "error[EXPANSION_CAP]" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CREKIT_EXPANSION_CAP", "5")
        code, out, _ = run_cli(capsys, "member", "a{9,9}", "a", "--cap", "1000")
        assert code == 1 and out.strip() == "false"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("enumerate", "a", "1", "--limit", "0"), id="limit-0"),
            pytest.param(("include", "a", "a", "--cap", "0"), id="cap-0"),
            pytest.param(("lengths", "a", "0"), id="cutoff-0"),
            pytest.param(("enumerate", "a", "-1"), id="maxlen-negative"),
            pytest.param(("verify-suite", "-2", "3"), id="kmax-negative"),
            pytest.param(("verify-suite", "2", "0"), id="wmax-0"),
            pytest.param(("lengths", "a", "x"), id="non-integer-count"),
            pytest.param(("member", "a"), id="missing-argument"),
            pytest.param(("member", "a", "a", "--bogus"), id="unknown-flag"),
            # a flag the command would ignore is rejected, not dropped
            pytest.param(("overlap", "a", "a", "--limit", "1"), id="overlap-limit"),
            pytest.param(("parse", "a", "--cap", "5"), id="parse-cap"),
        ],
    )
    def test_bad_limit_rejected(self, capsys, argv):
        # argparse failures get the envelope too: --format is read from argv
        for fmt in ((), ("--format", "json"), ("--format=json",)):
            code, out, err = run_cli(capsys, *argv, *fmt)
            assert code == 2
            assert err.startswith("error[USAGE]: ") and err.count("\n") == 1
            if fmt:
                assert json.loads(out)["error"]["code"] == "USAGE"
            else:
                assert out == ""

    def test_bad_env_cap_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("CREKIT_EXPANSION_CAP", "x")
        code, out, err = run_cli(capsys, "member", "a", "a", "--format", "json")
        assert code == 2
        assert err.startswith("error[USAGE]: CREKIT_EXPANSION_CAP")
        assert err.count("\n") == 1
        assert json.loads(out)["error"]["code"] == "USAGE"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crekit.cli", "include", "a{2,2}", "a{1,3}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "holds"
