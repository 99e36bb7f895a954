import pytest

from trifix.engine import SequenceSpec, fixed_points, generate
from trifix.oeis import (
    BFile,
    BFileParseError,
    BFileStructureError,
    compare,
    compare_values,
    parse_bfile,
    write_bfile,
)


def load_fixture(data_dir, name, sequence_id):
    return parse_bfile((data_dir / name).read_text(), sequence_id)


class TestParse:
    def test_offset_1(self):
        b = parse_bfile("1 1\n2 3\n3 2\n")
        assert b.offset == 1
        assert b.entries == ((1, 1), (2, 3), (3, 2))

    def test_comment_and_offset_0(self):
        b = parse_bfile("# comment\n0 0\n1 1\n2 3\n")
        assert b.offset == 0
        assert b.entries == ((0, 0), (1, 1), (2, 3))

    def test_blank_lines_ignored(self):
        b = parse_bfile("\n1 5\n\n2 6\n")
        assert b.entries == ((1, 5), (2, 6))

    def test_malformed_token(self):
        with pytest.raises(BFileParseError, match="line 1"):
            parse_bfile("1 x\n")

    def test_wrong_arity(self):
        with pytest.raises(BFileParseError, match="line 2"):
            parse_bfile("1 1\n2 3 4\n")

    def test_non_consecutive_indices(self):
        with pytest.raises(BFileStructureError, match="line 3"):
            parse_bfile("1 1\n2 3\n4 2\n")

    def test_empty_input(self):
        with pytest.raises(BFileParseError):
            parse_bfile("# only comments\n")

    def test_bad_sequence_id(self):
        with pytest.raises(ValueError):
            BFile("X123", 1, ((1, 1),))
        with pytest.raises(ValueError):
            parse_bfile("1 1\n", "A12345")

    def test_value_lookup(self):
        b = parse_bfile("5 50\n6 60\n")
        assert b.value_at(6) == 60
        assert b.value_at(4) is None
        assert b.last_index == 6


class TestWrite:
    def test_a7_prefix(self):
        run = generate(SequenceSpec.standard(7, 3))
        assert write_bfile(run) == "1 1\n2 7\n3 3\n"

    def test_single_term(self):
        assert write_bfile(generate(SequenceSpec.standard(5, 1))) == "1 1\n"

    def test_shifted_prefix(self):
        run = generate(SequenceSpec.shifted(4))
        assert write_bfile(run) == "1 1\n2 1\n3 3\n4 2\n"

    @pytest.mark.parametrize(
        "spec",
        [SequenceSpec.standard(7, 40), SequenceSpec.no_zero(40), SequenceSpec.shifted(40)],
        ids=lambda s: s.label(),
    )
    def test_round_trip(self, spec):
        run = generate(spec)
        parsed = parse_bfile(write_bfile(run), "A111273")
        assert parsed.offset == 1
        assert parsed.entries == tuple(enumerate(run.a, start=1))


class TestCompare:
    def test_no_zero_matches_a111273(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt", "A111273")
        run = generate(SequenceSpec.no_zero(30))
        result = compare(run, bfile)
        assert result.matches and result.compared_length == 30

    def test_shifted_matches_a111273_with_shift_1(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt", "A111273")
        run = generate(SequenceSpec.shifted(31))
        result = compare(run, bfile, shift=1)
        assert result.matches
        assert result.applied_shift == 1
        # n=1 falls before the b-file range, so 30 positions overlap
        assert result.compared_length == 30

    def test_shift_matters(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt", "A111273")
        run = generate(SequenceSpec.shifted(31))
        assert not compare(run, bfile, shift=0).matches

    def test_no_zero_fixed_points_match_a113659(self, data_dir):
        bfile = load_fixture(data_dir, "b113659.txt", "A113659")
        run = generate(SequenceSpec.no_zero(70))
        pairs = list(enumerate(fixed_points(run), start=1))
        result = compare_values(pairs, bfile)
        assert result.matches
        assert result.compared_length == len(pairs) == 6

    def test_first_mismatch_reported(self):
        bfile = parse_bfile("1 1\n2 7\n3 4\n4 2\n")
        run = generate(SequenceSpec.standard(7, 4))
        result = compare(run, bfile)
        assert result.first_mismatch == (3, 4, 3)
        assert not result.matches

    def test_empty_overlap_is_an_error(self):
        bfile = parse_bfile("100 1\n101 2\n")
        run = generate(SequenceSpec.standard(7, 5))
        with pytest.raises(ValueError, match="no overlap"):
            compare(run, bfile)


class TestQSequenceRegistry:
    """The q-sequences of small multipliers are classic OEIS entries
    (offset 0), matched with an explicit shift of 1: q(n) = p*T(n-1)."""

    CASES = [
        (1, "b000217.txt", "A000217"),
        (2, "b002378.txt", "A002378"),
        (4, "b046092.txt", "A046092"),
        (6, "b028896.txt", "A028896"),
        (9, "b027468.txt", "A027468"),
    ]

    @pytest.mark.parametrize("p, fixture, seq_id", CASES)
    def test_q_values_match(self, p, fixture, seq_id, data_dir):
        bfile = load_fixture(data_dir, fixture, seq_id)
        run = generate(SequenceSpec.standard(p, 31))
        pairs = [(n, run.spec.q(n)) for n in range(1, 32)]
        result = compare_values(pairs, bfile, shift=1)
        assert result.matches
        assert result.compared_length == 31
