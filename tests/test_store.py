import csv
import hashlib
import io
import json
import re
import struct
import sys
import tempfile
import tracemalloc
import warnings
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifix
from trifix import oeis, store
from trifix.analysis import _PAPER_FAMILY, classify, report_to_json, sweep
from trifix.engine import SequenceRun, SequenceSpec, generate
from trifix.oeis import write_bfile
from trifix.store import (
    export_figure2,
    export_table2,
    export_table3,
    load_run,
    save_run,
)


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


def words(values):
    """The payload layout, stated without the store: one little-endian
    signed 64-bit word per term."""
    return struct.pack(f"<{len(values)}q", *values)


def flipped(data, offset, mask):
    """data with the byte at offset XORed with mask."""
    data = bytearray(data)
    data[offset] ^= mask
    return bytes(data)


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
        """A flipped byte anywhere, first to last, under the stale checksum."""
        run = generate(SequenceSpec.standard(7, 25))
        entry = save_run(run, cache)
        payload = entry.payload_path.read_bytes()
        for offset in (0, 8 * 6, 8 * 12 + 3, 199):
            entry.payload_path.write_bytes(flipped(payload, offset, 0x10))
            with pytest.warns(UserWarning, match="payload does not match the manifest's sha256"):
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
        assert manifest["format_version"] == 2
        assert manifest["sha256"] == hashlib.sha256(entry.payload_path.read_bytes()).hexdigest()
        assert "engine_version" in manifest

    def test_entry_names(self, cache):
        standard = save_run(generate(SequenceSpec.standard(7, 25)), cache)
        shifted = save_run(generate(SequenceSpec.shifted(25)), cache)
        assert standard.payload_path == cache / "standard" / "p7_v2.bfile.txt"
        assert shifted.payload_path == cache / "shifted" / "v2.bfile.txt"
        assert manifest_path(standard).exists() and manifest_path(shifted).exists()

    def test_one_entry_serves_shorter_and_longer_requests(self, cache, monkeypatch):
        """N = 121, then 301, then 121: the 301-term entry replaces the
        121-term one and then serves the second 121-term request."""
        entry_files = ["p3_v2.bfile.txt", "p3_v2.manifest.json"]
        for n_limit in (120, 300):
            assert sweep([3], n_limit, cache_dir=cache).reports[0] == \
                classify(generate(SequenceSpec.standard(3, n_limit + 1)))
            assert sorted(f.name for f in (cache / "standard").iterdir()) == entry_files
        manifest = json.loads((cache / "standard" / "p3_v2.manifest.json").read_text())
        assert manifest["term_count"] == 301

        def no_save(run, cache_dir):
            raise AssertionError("a hit must not save")

        monkeypatch.setattr(store, "save_run", no_save)
        spec = SequenceSpec.standard(3, 121)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(spec, cache) == generate(spec)
            assert sweep([3], 120, cache_dir=cache).reports[0] == classify(generate(spec))
        assert sorted(f.name for f in (cache / "standard").iterdir()) == entry_files

    def test_shorter_request_reads_only_its_words(self, cache):
        """Words past N are covered by the checksum but not read: junk in
        words 2001..3000 does not stop a 1,000- or 2,000-term request, and
        is named when a request reaches it."""
        run = generate(SequenceSpec.standard(7, 3000))
        entry = save_run(run, cache)
        rewrite_entry(entry, words(run.a.tolist()[:2000] + [-1] * 1000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in (1000, 2000):
                spec = SequenceSpec.standard(7, count)
                assert load_run(spec, cache) == generate(spec)
        with pytest.warns(UserWarning, match=r"invalid: a\(2001\) = -1 does not divide"):
            assert load_run(run.spec, cache) is None

    def test_served_prefix_parses_in_bulk(self, cache, monkeypatch):
        """A prefix served from a longer entry is decoded in one bulk read
        of its own 8*N bytes: nothing is parsed, and the words past N are
        never decoded."""
        save_run(generate(SequenceSpec.standard(7, 3000)), cache)
        reads = []

        class Recording(array):
            def frombytes(self, data):
                reads.append(len(data))
                super().frombytes(data)

        monkeypatch.setattr(store, "array", Recording)
        monkeypatch.setattr(oeis, "parse_bfile", line_by_line)
        spec = SequenceSpec.standard(7, 1000)
        assert load_run(spec, cache) == generate(spec)
        assert reads == [8 * 1000]

    def test_per_n_entries_are_not_read(self, cache):
        """Entries named by term count (p7_n25_v1.*) are never read."""
        entry = save_run(generate(SequenceSpec.standard(7, 25)), cache)
        manifest = manifest_path(entry)
        entry.payload_path.rename(entry.payload_path.with_name("p7_n25_v1.bfile.txt"))
        manifest.rename(manifest.with_name("p7_n25_v1.manifest.json"))
        assert load_run(SequenceSpec.standard(7, 25), cache) is None

    @pytest.mark.parametrize("damaged", [False, True], ids=["valid", "damaged"])
    def test_text_entries_of_format_1_are_ignored(self, cache, damaged):
        """A leftover p3_v1.* text entry is never read, valid or damaged:
        alone it is a plain miss that a sweep fills with a p3_v2 entry, and
        beside that entry it is left as it is."""
        run = generate(SequenceSpec.standard(3, 101))
        text = write_bfile(run) if not damaged else "1 1\n2 3\n"
        v1_manifest = {"variant": "standard", "p": 3, "term_count": 101, "format_version": 1,
                       "engine_version": trifix.__version__,
                       "sha256": hashlib.sha256(write_bfile(run).encode()).hexdigest()}
        v1 = {cache / "standard" / "p3_v1.bfile.txt": text,
              cache / "standard" / "p3_v1.manifest.json": json.dumps(v1_manifest)}
        (cache / "standard").mkdir(parents=True)
        for path, content in v1.items():
            path.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(run.spec, cache) is None
            for _ in range(2):  # a miss that writes the v2 entry, then a hit
                assert sweep([3], 100, cache_dir=cache).reports[0] == classify(run)
            assert load_run(run.spec, cache) == run
        assert (cache / "standard" / "p3_v2.bfile.txt").read_bytes() == words(run.a)
        assert {path: path.read_text() for path in v1} == v1

    def test_loaded_flags_match_generated(self, cache):
        run = generate(SequenceSpec.shifted(30))
        save_run(run, cache)
        loaded = load_run(run.spec, cache)
        assert loaded.term(2).is_bootstrap_duplicate
        assert [loaded.term(n).q for n in range(1, 31)] == [run.term(n).q for n in range(1, 31)]


def line_by_line(text):
    raise AssertionError("parsed line by line")


def manifest_path(entry):
    return entry.payload_path.with_name(
        entry.payload_path.name.replace(".bfile.txt", ".manifest.json"))


def rewrite_entry(entry, payload=None, **manifest_fields):
    """Replace an entry's payload bytes and manifest fields, keeping the
    checksum consistent with the new payload."""
    if payload is None:
        payload = entry.payload_path.read_bytes()
    entry.payload_path.write_bytes(payload)
    manifest = json.loads(manifest_path(entry).read_text())
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    manifest.update(manifest_fields)
    manifest_path(entry).write_text(json.dumps(manifest))


def rewrite_word(entry, n, value):
    """Set a(n) in an entry's payload, keeping the checksum consistent."""
    data = entry.payload_path.read_bytes()
    values = list(struct.unpack(f"<{len(data) // 8}q", data))
    values[n - 1] = value
    rewrite_entry(entry, words(values))


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

    def test_manifest_nested_too_deeply(self, cache, a7):
        """A manifest nested past the JSON parser's recursion limit is damage
        like any other; a sweep over it is a case of
        test_sweep_warns_and_regenerates."""
        run, entry = a7
        manifest_path(entry).write_text("[" * 100_000)
        self.assert_absent(run.spec, cache, "nests too deeply to parse; treating as absent$")

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda b: b[:-1], id="a byte short"),
        pytest.param(lambda b: b + b"\0", id="a byte over"),
        pytest.param(lambda b: b + words([26]), id="a word past the last"),
        pytest.param(lambda b: b"", id="empty"),
    ])
    def test_payload_size_must_be_8_per_term(self, cache, a7, cut):
        """Under a checksum that matches, a payload that is not exactly
        term_count words, whole or not, is named by its size."""
        run, entry = a7
        payload = cut(entry.payload_path.read_bytes())
        rewrite_entry(entry, payload)
        self.assert_absent(run.spec, cache,
                           rf"invalid: payload has {len(payload)} bytes, expected 200 \(8 per")

    @pytest.mark.parametrize("damage", ["truncated", "offset 0", "offset 2"])
    def test_entries_must_be_terms_1_to_n(self, cache, a7, damage):
        """The words are a(1..25) in order: 24 of them, or the words of
        a(0..24) or a(2..26), are not."""
        run, entry = a7
        payload, match = {
            "truncated": (words(run.a[:24]), "payload has 192 bytes, expected 200"),
            "offset 0": (words([0] + run.a.tolist()[:24]), r"a\(1\) = 0, expected 1"),
            "offset 2": (words(generate(SequenceSpec.standard(7, 26)).a[1:]),
                         r"a\(1\) = 7, expected 1"),
        }[damage]
        rewrite_entry(entry, payload)
        self.assert_absent(run.spec, cache, match)

    def test_term_must_divide_q(self, cache, a7):
        run, entry = a7
        rewrite_word(entry, 7, 999)
        self.assert_absent(run.spec, cache, r"a\(7\) = 999 does not divide q\(7\)")

    def test_values_must_be_distinct(self, cache, a7):
        run, entry = a7
        # a(4) = 2 also divides q(8) = 196, so only distinctness is broken
        rewrite_word(entry, 8, 2)
        self.assert_absent(run.spec, cache, r"a\(8\) = 2 repeats")

    def test_negative_word(self, cache, a7):
        run, entry = a7
        rewrite_word(entry, 6, -15)
        self.assert_absent(run.spec, cache, r"a\(6\) = -15 does not divide q\(6\)")

    @pytest.mark.parametrize("word, mask, fault", [
        (7, 0x01, r"a\(7\) = 20 does not divide q\(7\)"),  # 21 -> 20, and q(7) = 147
        (9, 0x04, r"a\(9\) = 2 repeats an earlier value"),  # 6 -> 2 = a(4), and q(9) = 252
    ])
    def test_flipped_byte_under_a_recomputed_checksum(self, cache, a7, word, mask, fault):
        """The divisibility or distinctness pass catches the flip, and the
        per-term scan names the flipped term."""
        run, entry = a7
        rewrite_entry(entry, flipped(entry.payload_path.read_bytes(), 8 * (word - 1), mask))
        self.assert_absent(run.spec, cache, rf"invalid: {fault}; treating as absent$")

    def test_engine_version_must_match(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, engine_version="0.0.0")
        self.assert_absent(run.spec, cache, "engine version '0.0.0'")

    @pytest.mark.parametrize("field, value, message", [
        ("variant", "shifted", "variant 'shifted', expected 'standard'"),
        ("p", 21, "p 21, expected 7"),
        ("p", None, "p None, expected 7"),
        ("format_version", 1, "format version 1, expected 2"),
    ])
    def test_identity_must_match(self, cache, a7, field, value, message):
        """The manifest names the entry's sequence and layout; an entry
        filed under another's names is not served."""
        run, entry = a7
        rewrite_entry(entry, **{field: value})
        self.assert_absent(run.spec, cache, rf"invalid: {message}; treating as absent$")

    def test_entry_filed_under_another_p(self, cache):
        """A(3)'s terms divide A(9)'s q(n) and pass every other check, so
        only the manifest's p tells an A(3) entry copied to A(9)'s names
        apart: a load warns once and misses, and a sweep regenerates A(9)
        and reports its cold numbers."""
        sweep([3], 3000, cache_dir=cache)
        standard = cache / "standard"
        for suffix in (".bfile.txt", ".manifest.json"):
            (standard / f"p9_v2{suffix}").write_bytes((standard / f"p3_v2{suffix}").read_bytes())
        spec = SequenceSpec.standard(9, 3001)
        match = r"p9_v2\.bfile\.txt is damaged or invalid: p 3, expected 9; treating as absent$"
        with pytest.warns(UserWarning, match=match) as caught:
            assert load_run(spec, cache) is None
        assert len(caught) == 1
        with pytest.warns(UserWarning, match=match) as caught:
            report = sweep([9], 3000, cache_dir=cache).reports[0]
        assert len(caught) == 1
        assert (report.detected, report.near_matches, len(report.missed_primes)) == (401, 27, 28)
        assert report == classify(generate(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(spec, cache) == generate(spec)

    def test_first_term_must_be_1(self, cache, a7):
        # q(1) = 0, so divisibility alone would accept any a(1)
        run, entry = a7
        rewrite_word(entry, 1, 999)
        self.assert_absent(run.spec, cache, r"a\(1\) = 999, expected 1")

    def test_manifest_term_count_must_be_an_integer(self, cache, a7):
        run, entry = a7
        rewrite_entry(entry, term_count="25")
        self.assert_absent(run.spec, cache, "term count '25' is not an integer")

    @pytest.mark.parametrize("damage", [
        "truncated", "size not a multiple of 8", "junk past N", "stale checksum",
        "non-divisor under a recomputed checksum", "repeat under a recomputed checksum",
        "negative word", "a(1) is not 1", "manifest nested too deeply",
    ])
    def test_sweep_warns_and_regenerates(self, cache, a7, damage):
        """Whatever the damage, a sweep warns once, reports what the engine
        generates and rewrites the entry with the engine's words."""
        run, entry = a7
        payload = entry.payload_path.read_bytes()
        if damage == "stale checksum":
            entry.payload_path.write_bytes(flipped(payload, 8 * 12, 0x02))
        elif damage == "manifest nested too deeply":
            manifest_path(entry).write_text("[" * 100_000)
        else:
            rewrite_entry(entry, {
                "truncated": payload[:8 * 20],
                "size not a multiple of 8": payload + b"\1\2\3",
                "junk past N": payload + words([0, -1]),
                "non-divisor under a recomputed checksum": flipped(payload, 8 * 6, 0x01),
                "repeat under a recomputed checksum": flipped(payload, 8 * 8, 0x04),
                "negative word": words(run.a.tolist()[:9] + [-run.a[9]] + run.a.tolist()[10:]),
                "a(1) is not 1": words([2] + run.a.tolist()[1:]),
            }[damage])
        with pytest.warns(UserWarning, match="treating as absent") as caught:
            report = sweep([7], 24, cache_dir=cache).reports[0]
        assert len(caught) == 1
        assert report == classify(run)
        assert entry.payload_path.read_bytes() == words(run.a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(run.spec, cache) == run


@pytest.fixture(scope="module")
def a199_10k():
    return generate(SequenceSpec.standard(199, 10_001))


class TestDamageDeepInALongEntry:
    """A 10,001-term A(199) entry damaged only at term 9,000: the whole
    payload is checked, and the per-term scan names term 9,000."""

    @pytest.fixture
    def entry(self, cache, a199_10k):
        return save_run(a199_10k, cache)

    def test_wrong_value_is_warned_about_and_regenerated(self, cache, a199_10k, entry):
        q = a199_10k.spec.q(9000)
        rewrite_word(entry, 9000, q + 1)
        with pytest.warns(UserWarning, match=rf"invalid: a\(9000\) = {q + 1} does not "
                                             rf"divide q\(9000\); treating as absent$"):
            report = sweep([199], 10_000, cache_dir=cache).reports[0]
        assert report == classify(a199_10k)
        assert entry.payload_path.read_bytes() == words(a199_10k.a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(a199_10k.spec, cache) == a199_10k

    def test_repeated_value_names_term_9000(self, cache, a199_10k, entry):
        rewrite_word(entry, 9000, 1)  # 1 divides q(9000), and a(1) = 1
        with pytest.warns(UserWarning, match=r"invalid: a\(9000\) = 1 repeats an earlier "
                                             r"value; treating as absent$"):
            assert load_run(a199_10k.spec, cache) is None

    def test_flipped_byte_at_term_9000_fails_the_checksum(self, cache, a199_10k, entry):
        payload = entry.payload_path.read_bytes()
        entry.payload_path.write_bytes(flipped(payload, 8 * 8999 + 1, 0x01))
        with pytest.warns(UserWarning, match="sha256 checksum; treating as absent$"):
            assert load_run(a199_10k.spec, cache) is None


@st.composite
def damaged_payloads(draw):
    """A saved run prefix of 1 to 300 terms; its payload as written, with
    one flipped byte, cut short at any byte or with 1 to 16 bytes
    appended; a checksum recomputed over the new payload or left stale;
    and a request for 1 to 2 more terms than the entry holds."""
    full = draw(st.sampled_from(FAULT_SPECS))
    held = draw(st.integers(1, 300))
    spec = SequenceSpec(full.variant, held, full.p)
    clean = words(FAULT_RUNS[full][:held])
    payload = bytearray(clean)
    kind = draw(st.sampled_from(["as written", "flipped byte", "cut short", "appended"]))
    if kind == "flipped byte":
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "cut short":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif kind == "appended":
        payload += draw(st.binary(min_size=1, max_size=16))
    request = draw(st.integers(1, held + 2))
    return spec, FAULT_RUNS[full][:held], bytes(payload), draw(st.booleans()), request


class TestPayloadReader:
    """The cache reads a payload as little-endian 64-bit words; whatever
    the bytes, it serves what they say or names why it does not."""

    @settings(max_examples=300, deadline=None)
    @given(damaged_payloads())
    def test_agrees_with_struct_unpack(self, case):
        """A stale checksum, then the size, then the per-term rule decide,
        in that order; a served run is struct's reading of the first N
        words, and a payload left as written is always served."""
        spec, valid, payload, recompute, request = case
        clean = words(valid)
        held = spec.term_count
        asked = SequenceSpec(spec.variant, request, spec.p)
        if payload != clean and not recompute:
            fault = "payload does not match the manifest's sha256 checksum"
        elif len(payload) != 8 * held:
            fault = f"payload has {len(payload)} bytes, expected {8 * held} (8 per term)"
        elif request > held:
            fault = values = None
        else:
            values = struct.unpack(f"<{request}q", payload[:8 * request])
            fault = first_fault(asked, values)
        with tempfile.TemporaryDirectory() as cache:
            entry = save_run(SequenceRun(spec, valid), cache)
            if recompute:
                rewrite_entry(entry, payload)
            else:
                entry.payload_path.write_bytes(payload)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = load_run(asked, cache)
        if fault is not None:
            assert loaded is None and len(caught) == 1
            assert str(caught[0].message).endswith(f"invalid: {fault}; treating as absent")
        else:
            assert caught == []
            assert loaded == (None if values is None else SequenceRun(asked, values))
        if payload == clean and request <= held:
            assert loaded == SequenceRun(asked, valid[:request])

    def test_written_layout_never_parses_line_by_line(self, cache, monkeypatch):
        """The payload is words, not text: every count up to the entry's is
        served with the b-file parser out of reach."""
        run = generate(SequenceSpec.standard(199, 3000))
        save_run(run, cache)
        monkeypatch.setattr(oeis, "parse_bfile", line_by_line)
        for count in (1, 1000, 2999, 3000):
            spec = SequenceSpec.standard(199, count)
            assert load_run(spec, cache) == SequenceRun(spec, run.a[:count])
        assert load_run(SequenceSpec.standard(199, 3001), cache) is None

    @pytest.mark.parametrize("spec", [
        SequenceSpec.standard(199, 3000), SequenceSpec.standard(3, 1), SequenceSpec.no_zero(300),
        SequenceSpec.shifted(300),
    ], ids=str)
    def test_payload_is_little_endian_words(self, cache, spec):
        """On any host, the payload is struct's "<q" packing of a(1..N)."""
        run = generate(spec)
        entry = save_run(run, cache)
        n = len(run.a)
        assert entry.payload_path.read_bytes() == struct.pack(f"<{n}q", *run.a)

    def test_big_endian_branch_swaps_a_copy(self, cache, monkeypatch):
        """With sys.byteorder saying "big", save_run swaps a copy of the
        host's words (">q" packing on a little-endian host) and leaves the
        run's own array as it was; load_run swaps them back."""
        run = generate(SequenceSpec.standard(199, 3000))
        before = run.a.tolist()
        swapped = ">" if sys.byteorder == "little" else "<"
        monkeypatch.setattr(sys, "byteorder", "big")
        entry = save_run(run, cache)
        n = len(run.a)
        assert entry.payload_path.read_bytes() == struct.pack(f"{swapped}{n}q", *before)
        assert run.a.tolist() == before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(run.spec, cache) == run

    def test_junk_past_the_last_word(self, cache):
        """Bytes past term_count words, under a checksum that covers them,
        are named by the size, whatever the request."""
        run = generate(SequenceSpec.standard(7, 2000))
        entry = save_run(run, cache)
        rewrite_entry(entry, words(run.a) + b"junk\n")
        for count in (1, 2000):
            with pytest.warns(UserWarning, match=r"payload has 16005 bytes, expected 16000"):
                assert load_run(SequenceSpec.standard(7, count), cache) is None

    def test_value_past_63_bits_reads_negative(self, cache):
        """A word with its top bit set is a negative a(n), named as one."""
        run = generate(SequenceSpec.standard(7, 25))
        entry = save_run(run, cache)
        rewrite_entry(entry, flipped(entry.payload_path.read_bytes(), 8 * 4 + 7, 0x80))
        with pytest.warns(UserWarning, match=rf"invalid: a\(5\) = {5 - 2**63} does not divide"):
            assert load_run(run.spec, cache) is None


class TestServedPrefix:
    """A longer entry serves a request from its first N words; the words
    past them are never read."""

    def test_every_count_of_a_multi_slice_payload(self, cache):
        run = generate(SequenceSpec.standard(7, 2000))
        save_run(run, cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in range(1, 2003):
                spec = SequenceSpec.standard(7, count)
                served = load_run(spec, cache)
                assert served == (SequenceRun(spec, run.a[:count]) if count <= 2000 else None)

    @pytest.mark.parametrize("long", [SequenceSpec.standard(199, 600), SequenceSpec.no_zero(600),
                                      SequenceSpec.shifted(600)], ids=str)
    def test_served_prefix_equals_a_cold_run(self, cache, long):
        save_run(generate(long), cache)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in (1, 2, 299, 599):
                spec = SequenceSpec(long.variant, count, long.p)
                assert load_run(spec, cache) == generate(spec)

    def test_prefix_is_the_only_copy(self, cache):
        """Serving 10,001 terms of a 20,001-term A(199) entry copies no
        prefix of the payload and builds no tuple of the served terms:
        load_run's traced peak is at most 897,168 bytes, what it was
        (Python 3.11) when the served lines were first cut out of a text
        payload as a string."""
        save_run(generate(SequenceSpec.standard(199, 20_001)), cache)
        spec = SequenceSpec.standard(199, 10_001)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            served = load_run(spec, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert served == generate(spec)
        assert peak <= 897_168

    @pytest.fixture
    def entry(self, cache):
        return save_run(generate(SequenceSpec.standard(199, 3000)), cache)

    def test_damage_past_the_prefix_is_not_parsed(self, cache, entry):
        rewrite_word(entry, 2800, 0)
        spec = SequenceSpec.standard(199, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_run(spec, cache) == generate(spec)

    def test_damage_inside_the_prefix_is_warned_about_and_regenerated(self, cache, entry):
        rewrite_word(entry, 1500, 0)
        with pytest.warns(UserWarning, match=r"invalid: a\(1500\) = 0 does not divide"):
            report = sweep([199], 1999, cache_dir=cache).reports[0]
        spec = SequenceSpec.standard(199, 2000)
        assert report == classify(generate(spec))
        assert entry.payload_path.read_bytes() == words(generate(spec).a)


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
            rewrite_entry(entry, words(values))
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
        assert run.a[:2].tolist() == [1, 1]
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


def test_temporary_file_is_named_at_random_and_removed(cache, monkeypatch):
    """Each write goes through <name>.<16 hex digits>.tmp, renamed over the
    entry, and no temporary file is left behind."""
    real_replace = store.os.replace
    sources = []

    def recording(src, dst):
        sources.append(src.name)
        real_replace(src, dst)

    monkeypatch.setattr(store.os, "replace", recording)
    save_run(generate(SequenceSpec.standard(7, 25)), cache)
    assert len(sources) == 2
    for name, entry in zip(sources, ["p7_v2.bfile.txt", "p7_v2.manifest.json"]):
        assert re.fullmatch(re.escape(entry) + r"\.[0-9a-f]{16}\.tmp", name)
    assert list(cache.rglob("*.tmp")) == []


def test_created_at_is_utc_to_the_second(cache):
    manifest = save_run(generate(SequenceSpec.standard(7, 25)), cache).manifest
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", manifest["created_at"])


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

    @pytest.mark.parametrize("p_list, n_limit", [(_PAPER_FAMILY, 300), ((), 100)])
    def test_rows_are_written_as_csv_writer_writes_them(self, p_list, n_limit, monkeypatch):
        """Every table the exporters write is the text csv.writer writes
        for its rows: no cell they produce needs quoting."""
        tables = []
        text = store._csv_text

        def recording(rows):
            tables.append(rows)
            return text(rows)

        monkeypatch.setattr(store, "_csv_text", recording)
        family = sweep(p_list, n_limit)
        for export in (export_table2, export_table3, export_figure2):
            export(family)
        assert len(tables) == 3
        for rows in tables:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            assert text(rows) == buf.getvalue()


class TestReportJson:
    def test_fields_mirror_report(self):
        report = classify(generate(SequenceSpec.standard(3, 101)))
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
        report = classify(generate(SequenceSpec.standard(3, 101)))
        assert report_to_json(report) == report_to_json(report)
