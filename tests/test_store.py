import hashlib
import json
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifix import oeis, store
from trifix.analysis import classify, sweep
from trifix.engine import SequenceRun, SequenceSpec, generate
from trifix.oeis import write_bfile
from trifix.store import (
    export_figure2,
    export_table2,
    export_table3,
    load_run,
    report_to_json,
    save_run,
)


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


class TestRunCache:
    def test_round_trip(self, cache):
        run = generate(SequenceSpec.standard(7, 25))
        entry = save_run(run, cache)
        assert entry.payload_path.exists()
        loaded = load_run(run.spec, cache)
        assert loaded == run

    def test_round_trip_all_variants(self, cache):
        for spec in (SequenceSpec.standard(3, 40), SequenceSpec.no_zero(40),
                     SequenceSpec.shifted(40), SequenceSpec.standard(1, 40)):
            run = generate(spec)
            save_run(run, cache)
            assert load_run(spec, cache) == run

    def test_missing_key_is_absent(self, cache):
        assert load_run(SequenceSpec.standard(7, 25), cache) is None

    def test_corrupted_payload_warns_and_is_absent(self, cache):
        run = generate(SequenceSpec.standard(7, 25))
        entry = save_run(run, cache)
        text = entry.payload_path.read_text()
        entry.payload_path.write_text(text.replace("49", "48", 1))
        with pytest.warns(UserWarning, match="checksum"):
            assert load_run(run.spec, cache) is None

    def test_longer_run_supersedes(self, cache):
        save_run(generate(SequenceSpec.standard(7, 50)), cache)
        loaded = load_run(SequenceSpec.standard(7, 25), cache)
        assert loaded is not None
        assert loaded.spec.term_count == 25
        assert loaded == generate(SequenceSpec.standard(7, 25))

    def test_shorter_run_does_not_satisfy(self, cache):
        save_run(generate(SequenceSpec.standard(7, 25)), cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a shorter run is a plain miss
            assert load_run(SequenceSpec.standard(7, 50), cache) is None

    def test_distinct_sequences_do_not_collide(self, cache):
        save_run(generate(SequenceSpec.standard(3, 30)), cache)
        save_run(generate(SequenceSpec.no_zero(30)), cache)
        assert load_run(SequenceSpec.standard(5, 30), cache) is None
        assert load_run(SequenceSpec.no_zero(30), cache).spec.variant == "no-zero"

    def test_no_temporary_droppings(self, cache):
        save_run(generate(SequenceSpec.standard(7, 25)), cache)
        leftovers = [p for p in cache.rglob("*.tmp")]
        assert leftovers == []

    def test_manifest_contents(self, cache):
        entry = save_run(generate(SequenceSpec.standard(7, 25)), cache)
        manifest = entry.manifest
        assert manifest["variant"] == "standard"
        assert manifest["p"] == 7
        assert manifest["term_count"] == 25
        assert "sha256" in manifest and "engine_version" in manifest

    def test_entry_names(self, cache):
        standard = save_run(generate(SequenceSpec.standard(7, 25)), cache)
        shifted = save_run(generate(SequenceSpec.shifted(25)), cache)
        assert standard.payload_path == cache / "standard" / "p7_v1.bfile.txt"
        assert shifted.payload_path == cache / "shifted" / "v1.bfile.txt"
        assert manifest_path(standard).exists() and manifest_path(shifted).exists()

    def test_one_entry_serves_shorter_and_longer_requests(self, cache, monkeypatch):
        """N = 121, then 301, then 121: the 301-term entry replaces the
        121-term one and then serves the second 121-term request."""
        entry_files = ["p3_v1.bfile.txt", "p3_v1.manifest.json"]
        for n_limit in (120, 300):
            assert sweep([3], n_limit, cache_dir=cache).reports[0] == \
                classify(generate(SequenceSpec.standard(3, n_limit + 1)), n_limit)
            assert sorted(f.name for f in (cache / "standard").iterdir()) == entry_files
        manifest = json.loads((cache / "standard" / "p3_v1.manifest.json").read_text())
        assert manifest["term_count"] == 301

        def no_save(run, cache_dir):
            raise AssertionError("a hit must not save")

        monkeypatch.setattr(store, "save_run", no_save)
        spec = SequenceSpec.standard(3, 121)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(spec, cache) == generate(spec)
            assert sweep([3], 120, cache_dir=cache).reports[0] == classify(generate(spec), 120)
        assert sorted(f.name for f in (cache / "standard").iterdir()) == entry_files

    def test_shorter_request_parses_only_its_lines(self, cache, monkeypatch):
        """Lines past N are covered by the checksum but not parsed."""
        save_run(generate(SequenceSpec.standard(7, 50)), cache)
        parsed = []
        parse = store.parse_bfile

        def recording(text):
            parsed.append(len(text.splitlines()))
            return parse(text)

        monkeypatch.setattr(store, "parse_bfile", recording)
        spec = SequenceSpec.standard(7, 25)
        assert load_run(spec, cache) == generate(spec)
        assert parsed == [25]

    def test_served_prefix_parses_in_bulk(self, cache, monkeypatch):
        """A prefix served from a longer entry keeps write_bfile's layout,
        its last newline included, so it never parses line by line."""
        save_run(generate(SequenceSpec.standard(7, 3000)), cache)

        def line_by_line(text):
            raise AssertionError("parsed line by line")

        monkeypatch.setattr(oeis, "_parse_lines", line_by_line)
        spec = SequenceSpec.standard(7, 1000)
        assert load_run(spec, cache) == generate(spec)

    def test_per_n_entries_are_not_read(self, cache):
        """Entries named by term count (p7_n25_v1.*) are never read."""
        entry = save_run(generate(SequenceSpec.standard(7, 25)), cache)
        manifest = manifest_path(entry)
        entry.payload_path.rename(entry.payload_path.with_name("p7_n25_v1.bfile.txt"))
        manifest.rename(manifest.with_name("p7_n25_v1.manifest.json"))
        assert load_run(SequenceSpec.standard(7, 25), cache) is None

    def test_loaded_flags_match_generated(self, cache):
        run = generate(SequenceSpec.shifted(30))
        save_run(run, cache)
        loaded = load_run(run.spec, cache)
        assert loaded.term(2).is_bootstrap_duplicate
        assert [loaded.term(n).q for n in range(1, 31)] == [run.term(n).q for n in range(1, 31)]


def manifest_path(entry):
    return entry.payload_path.with_name(
        entry.payload_path.name.replace(".bfile.txt", ".manifest.json"))


def rewrite_entry(entry, payload=None, **manifest_fields):
    """Replace an entry's payload and manifest fields, keeping the checksum
    consistent with the new payload."""
    if payload is None:
        payload = entry.payload_path.read_text()
    entry.payload_path.write_text(payload)
    manifest = json.loads(manifest_path(entry).read_text())
    manifest["sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    manifest.update(manifest_fields)
    manifest_path(entry).write_text(json.dumps(manifest))


class TestDamagedEntries:
    """Every damaged or invalid entry is warned about and treated as absent."""

    @pytest.fixture
    def a7(self, cache):
        run = generate(SequenceSpec.standard(7, 25))
        return run, save_run(run, cache)

    def assert_absent(self, spec, cache, match):
        with pytest.warns(UserWarning, match=match):
            assert load_run(spec, cache) is None

    def test_manifest_not_json(self, cache, a7):
        run, entry = a7
        manifest_path(entry).write_text("{bad")
        self.assert_absent(run.spec, cache, "damaged")

    def test_manifest_not_an_object(self, cache, a7):
        run, entry = a7
        manifest_path(entry).write_text("[1, 2]")
        self.assert_absent(run.spec, cache, "checksum")

    def test_payload_not_a_bfile_despite_checksum(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, entry.payload_path.read_text().replace("5 5\n", "5 x5\n"))
        self.assert_absent(run.spec, cache, "non-integer token")

    @pytest.mark.parametrize("damage", ["truncated", "offset 0", "offset 2"])
    def test_entries_must_be_terms_1_to_n(self, cache, a7, damage):
        run, entry = a7
        lines = entry.payload_path.read_text().splitlines(keepends=True)
        payload = {
            "truncated": "".join(lines[:24]),
            "offset 0": "0 0\n" + "".join(lines[:24]),
            "offset 2": "".join(f"{n + 1} {a}\n" for n, a in enumerate(run.a, start=1)),
        }[damage]
        rewrite_entry(entry, payload)
        self.assert_absent(run.spec, cache, "terms 1..25")

    def test_term_must_divide_q(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, entry.payload_path.read_text().replace("7 21\n", "7 999\n"))
        self.assert_absent(run.spec, cache, r"a\(7\) = 999 does not divide q\(7\)")

    def test_values_must_be_distinct(self, cache, a7):
        run, entry = a7
        # a(4) = 2 also divides q(8) = 196, so only distinctness is broken
        rewrite_entry(entry, entry.payload_path.read_text().replace("8 4\n", "8 2\n"))
        self.assert_absent(run.spec, cache, r"a\(8\) = 2 repeats")

    def test_engine_version_must_match(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, engine_version="0.0.0")
        self.assert_absent(run.spec, cache, "engine version '0.0.0'")

    def test_first_term_must_be_1(self, cache, a7):
        # q(1) = 0, so divisibility alone would accept any a(1)
        run, entry = a7
        rewrite_entry(entry, entry.payload_path.read_text().replace("1 1\n", "1 999\n", 1))
        self.assert_absent(run.spec, cache, r"a\(1\) = 999, expected 1")

    def test_manifest_term_count_must_be_an_integer(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, term_count="25")
        self.assert_absent(run.spec, cache, "term count '25' is not an integer")


@pytest.fixture(scope="module")
def a199_10k():
    return generate(SequenceSpec.standard(199, 10_001))


class TestDamagePastTheFirstChunk:
    """A 10,001-term A(199) entry damaged only at line 9,000, with its
    checksum recomputed: the bulk parser's later chunks meet the damage."""

    @pytest.fixture
    def entry(self, cache, a199_10k):
        return save_run(a199_10k, cache)

    def damage_line_9000(self, entry, line):
        lines = entry.payload_path.read_text().splitlines(keepends=True)
        lines[8999] = line
        rewrite_entry(entry, "".join(lines))

    def test_wrong_value_is_warned_about_and_regenerated(self, cache, a199_10k, entry):
        q = a199_10k.spec.q(9000)
        self.damage_line_9000(entry, f"9000 {q + 1}\n")
        with pytest.warns(UserWarning, match=rf"invalid: a\(9000\) = {q + 1} does not "
                                             rf"divide q\(9000\); treating as absent$"):
            report = sweep([199], 10_000, cache_dir=cache).reports[0]
        assert report == classify(a199_10k, 10_000)
        assert entry.payload_path.read_text() == write_bfile(a199_10k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(a199_10k.spec, cache) == a199_10k

    def test_skipped_index_names_line_9000(self, cache, a199_10k, entry):
        self.damage_line_9000(entry, f"9001 {a199_10k.a[8999]}\n")
        with pytest.warns(UserWarning, match=r"invalid: line 9000: index 9001 does not "
                                             r"follow 8999; treating as absent$"):
            assert load_run(a199_10k.spec, cache) is None


def first_fault(spec, values):
    """The per-term rule for a cached a(1..N), stated plainly: the reason
    the first bad term is bad, or None for a valid run."""
    if values[0] != 1:
        return f"a(1) = {values[0]}, expected 1"
    seen = set()
    for n, a in enumerate(values, start=1):
        if a < 1 or spec.q(n) % a:
            return f"a({n}) = {a} does not divide q({n})"
        if a in seen and not (n == 2 and spec.has_bootstrap):
            return f"a({n}) = {a} repeats an earlier value"
        seen.add(a)
    return None


FAULT_SPECS = [SequenceSpec.standard(1, 300), SequenceSpec.standard(7, 300),
               SequenceSpec.standard(199, 300), SequenceSpec.no_zero(300),
               SequenceSpec.shifted(300)]
FAULT_RUNS = {spec: generate(spec).a for spec in FAULT_SPECS}


@st.composite
def faulted_runs(draw):
    """A run prefix of 40..300 terms with one or two planted faults: a
    value below 1, a non-divisor of q(n) or a repeat of an earlier value."""
    full = draw(st.sampled_from(FAULT_SPECS))
    count = draw(st.integers(40, 300))
    spec = SequenceSpec(full.variant, count, full.p)
    values = list(FAULT_RUNS[full][:count])
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, count))
        kind = draw(st.sampled_from(["below 1", "non-divisor", "repeat"]))
        if kind == "below 1":
            values[n - 1] = draw(st.integers(-3, 0))
        elif kind == "non-divisor":
            values[n - 1] = spec.q(n) + draw(st.integers(1, 3))
        elif n > 1:
            values[n - 1] = values[draw(st.integers(1, n - 1)) - 1]
    return spec, FAULT_RUNS[full][:count], tuple(values)


class TestWholeSequenceCheck:
    """The whole-sequence passes of a cache hit accept exactly the runs the
    per-term rule accepts, and a rejected run is named by its first bad term."""

    @settings(max_examples=150, deadline=None)
    @given(faulted_runs())
    def test_names_the_first_bad_term(self, case):
        spec, valid, values = case
        with tempfile.TemporaryDirectory() as cache:
            entry = save_run(SequenceRun(spec, valid), cache)
            rewrite_entry(entry, "".join(f"{n} {a}\n" for n, a in enumerate(values, start=1)))
            fault = first_fault(spec, values)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = load_run(spec, cache)
        if fault is None:
            assert caught == [] and loaded == SequenceRun(spec, values)
        else:
            assert loaded is None and len(caught) == 1
            assert str(caught[0].message).endswith(f"invalid: {fault}; treating as absent")

    def test_shifted_bootstrap_loads(self, cache):
        run = generate(SequenceSpec.shifted(300))
        assert run.a[:2] == (1, 1)
        save_run(run, cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(run.spec, cache) == run


def test_concurrent_saves_of_one_key_do_not_collide(cache, monkeypatch):
    """A second save of the same key that runs completely between the first
    save's temporary write and its rename must not take the first one's
    temporary file away."""
    run = generate(SequenceSpec.standard(7, 25))
    real_replace = store.os.replace
    calls = []

    def replace_after_second_save(src, dst):
        calls.append(dst)
        if len(calls) == 1:
            save_run(run, cache)
        real_replace(src, dst)

    monkeypatch.setattr(store.os, "replace", replace_after_second_save)
    save_run(run, cache)
    monkeypatch.undo()
    assert len(calls) == 4
    assert load_run(run.spec, cache) == run
    assert list(cache.rglob("*.tmp")) == []


@pytest.fixture(scope="module")
def small_sweep():
    return sweep([3, 5], 300)


class TestExports:
    def test_table2_golden(self, small_sweep):
        assert export_table2(small_sweep) == (
            "row,p=3,p=5\n"
            "A) matches n=a(n),57,57\n"
            "B) matches n=a(n+1),3,3\n"
            "C) total primes,60,60\n"
            "success rate (A/C),95.00%,95.00%\n"
        )

    def test_table3_golden(self, small_sweep):
        assert export_table3(small_sweep) == (
            "row,p=3,p=5\n"
            "A) false negatives,20,23\n"
            "B) total nonprimes,238,238\n"
            "% (A/B),8.40%,9.66%\n"
        )

    def test_figure2_golden(self, small_sweep):
        assert export_figure2(small_sweep) == "p,success_rate_percent\n3,95.00\n5,95.00\n"

    def test_byte_stable(self, small_sweep):
        assert export_table2(small_sweep) == export_table2(small_sweep)
        assert export_table3(small_sweep) == export_table3(small_sweep)
        assert export_figure2(small_sweep) == export_figure2(small_sweep)

    def test_empty_sweep_exports_header_only(self):
        empty = sweep([], 100)
        assert export_table2(empty) == "row\n"
        assert export_table3(empty) == "row\n"
        assert export_figure2(empty) == "p,success_rate_percent\n"


class TestReportJson:
    def test_fields_mirror_report(self):
        report = classify(generate(SequenceSpec.standard(3, 101)), 100)
        doc = json.loads(report_to_json(report))
        assert set(doc) == {
            "spec", "n_limit", "excluded_primes", "detected", "near_matches",
            "total_eligible_primes", "success_rate", "false_negatives",
            "total_nonprimes", "false_negative_rate", "missed_primes",
            "false_negative_values",
        }
        assert doc["spec"] == {"variant": "standard", "term_count": 101, "p": 3}
        assert doc["detected"] == report.detected
        assert doc["missed_primes"] == list(report.missed_primes)
        assert doc["success_rate"] == pytest.approx(float(report.success_rate))

    def test_byte_stable(self):
        report = classify(generate(SequenceSpec.standard(3, 101)), 100)
        assert report_to_json(report) == report_to_json(report)
