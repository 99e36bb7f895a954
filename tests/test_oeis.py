import pytest
from hypothesis import given
from hypothesis import strategies as st

from trifix.engine import SequenceSpec, fixed_points, generate
from trifix.oeis import (
    BFile,
    BFileParseError,
    BFileStructureError,
    compare,
    parse_bfile,
    write_bfile,
)


def load_fixture(data_dir, name):
    return parse_bfile((data_dir / name).read_text())


class TestParse:
    def test_offset_1(self):
        b = parse_bfile("1 1\n2 3\n3 2\n")
        assert b.offset == 1
        assert b.values == (1, 3, 2)

    def test_comment_and_offset_0(self):
        b = parse_bfile("# comment\n0 0\n1 1\n2 3\n")
        assert b.offset == 0
        assert b.values == (0, 1, 3)

    def test_blank_lines_ignored(self):
        b = parse_bfile("\n1 5\n\n2 6\n")
        assert b.values == (5, 6)

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
        parsed = parse_bfile(write_bfile(run))
        assert parsed.offset == 1
        assert parsed.values == tuple(run.a)


class TestCompare:
    def test_no_zero_matches_a111273(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt")
        run = generate(SequenceSpec.no_zero(30))
        result = compare(run.a, bfile)
        assert result.matches and result.compared_length == 30

    def test_shifted_matches_a111273_with_shift_1(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt")
        run = generate(SequenceSpec.shifted(31))
        result = compare(run.a, bfile, shift=1)
        assert result.matches
        # n=1 falls before the b-file range, so 30 positions overlap
        assert result.compared_length == 30

    def test_shift_matters(self, data_dir):
        bfile = load_fixture(data_dir, "b111273.txt")
        run = generate(SequenceSpec.shifted(31))
        assert not compare(run.a, bfile, shift=0).matches

    def test_no_zero_fixed_points_match_a113659(self, data_dir):
        bfile = load_fixture(data_dir, "b113659.txt")
        run = generate(SequenceSpec.no_zero(70))
        points = fixed_points(run)
        result = compare(points, bfile)
        assert result.matches
        assert result.compared_length == len(points) == 6

    def test_first_mismatch_reported(self):
        bfile = parse_bfile("1 1\n2 7\n3 4\n4 2\n")
        run = generate(SequenceSpec.standard(7, 4))
        result = compare(run.a, bfile)
        assert result.first_mismatch == (3, 4, 3)
        assert not result.matches

    def test_empty_overlap_is_an_error(self):
        bfile = parse_bfile("100 1\n101 2\n")
        run = generate(SequenceSpec.standard(7, 5))
        with pytest.raises(ValueError, match="no overlap"):
            compare(run.a, bfile)


def pairwise_compare(values, bfile, shift):
    """Reference: walk every index n of values, look up b-file entry
    n - shift, and count the pairs that exist up to the first mismatch."""
    compared = 0
    for n, actual in enumerate(values, start=1):
        i = n - shift - bfile.offset
        if 0 <= i < len(bfile.values):
            compared += 1
            if bfile.values[i] != actual:
                return compared, (n, bfile.values[i], actual)
    return compared, None


@given(
    offset=st.integers(-3, 3),
    shift=st.integers(-5, 5),
    entries=st.lists(st.integers(0, 9), max_size=8),
    length=st.integers(0, 8),
    mismatched=st.sets(st.integers(1, 8)),
)
def test_compare_agrees_with_pairwise_reference(offset, shift, entries, length, mismatched):
    bfile = BFile(offset, tuple(entries))
    values = []
    for n in range(1, length + 1):  # agree with the b-file except at mismatched indices
        i = n - shift - offset
        value = entries[i] if 0 <= i < len(entries) else 0
        values.append(value + 1 if n in mismatched else value)
    compared, mismatch = pairwise_compare(values, bfile, shift)
    if compared == 0:
        with pytest.raises(ValueError, match="^no overlap: "):
            compare(values, bfile, shift)
    else:
        result = compare(values, bfile, shift)
        assert (result.compared_length, result.first_mismatch) == (compared, mismatch)


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
        bfile = load_fixture(data_dir, fixture)
        run = generate(SequenceSpec.standard(p, 31))
        result = compare([run.spec.q(n) for n in range(1, 32)], bfile, shift=1)
        assert result.matches
        assert result.compared_length == 31
