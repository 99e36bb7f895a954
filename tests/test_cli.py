import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import trifix
from trifix.cli import (
    CONJECTURE_IDS,
    EXIT_ERROR,
    EXIT_FALSIFIED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    _format_csv,
    _format_json,
    _format_table,
    _rows,
    main,
)
from trifix.engine import SequenceRun, SequenceSpec, generate, generate_runs

from test_engine import A7_FIXED_POINTS, A7_PREFIX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exported(directory: Path) -> dict[str, bytes]:
    """The files a sweep wrote to --export-dir, by name."""
    return {f.name: f.read_bytes() for f in directory.iterdir()}


def child_env(**extra):
    """The environment of a child Python that imports this trifix."""
    src = str(Path(trifix.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}


class TestGenerate:
    def test_table_matches_published_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "7", "--terms", "25")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["n", "mult", "q(n)", "a(n)", "fixed", "point"]
        rows = []
        markers = []
        for line in lines[1:]:
            fields = line.split()
            rows.append(tuple(int(x) for x in fields[:4]))
            markers.append(len(fields) == 5 and fields[4] == "*")
        assert rows == A7_PREFIX
        assert [n for (n, *_), m in zip(rows, markers) if m] == A7_FIXED_POINTS

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "7", "--terms", "3", "--format", "csv")
        assert code == EXIT_OK
        assert out == "n,mult,q,a,fixed_point\n1,0,0,1,true\n2,7,7,7,false\n3,14,21,3,true\n"

    def test_bfile_format(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "7", "--terms", "3", "--format", "bfile")
        assert code == EXIT_OK
        assert out == "1 1\n2 7\n3 3\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--variant", "shifted", "--terms", "4", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["spec"] == {"variant": "shifted", "p": None, "term_count": 4}
        assert [t["a"] for t in doc["terms"]] == [1, 1, 3, 2]
        assert doc["terms"][1]["bootstrap_duplicate"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "run.txt"
        code, out, _ = run_cli(
            capsys, "generate", "--p", "7", "--terms", "3", "--format", "bfile",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == "1 1\n2 7\n3 3\n"

    def test_variant_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--variant", "no-zero", "--terms", "12", "--format", "bfile"
        )
        assert code == EXIT_OK
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert values == [1, 3, 2, 5, 15, 7, 4, 6, 9, 11, 22, 13]

    def test_large_prime_p(self, capsys, time_limit):
        p = 10**18 + 3
        with time_limit(10):
            code, out, _ = run_cli(capsys, "generate", "--p", str(p), "--terms", "3",
                                   "--format", "bfile")
        assert code == EXIT_OK
        assert out == f"1 1\n2 {p}\n3 3\n"

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--p", "11", "--terms", "50")
        _, second, _ = run_cli(capsys, "generate", "--p", "11", "--terms", "50")
        assert first == second


class TestRows:
    @pytest.mark.parametrize("spec", [
        SequenceSpec.standard(1, 300),
        SequenceSpec.standard(7, 300),
        SequenceSpec.standard(199, 300),
        SequenceSpec.no_zero(300),
        SequenceSpec.shifted(300),
    ], ids=lambda s: s.label())
    def test_summed_q_matches_spec(self, spec):
        run = generate(spec)
        rows = list(_rows(run))
        assert [(n, a) for n, _, _, a in rows] == list(enumerate(run.a, start=1))
        for n, mult, q, _ in rows:
            assert q == spec.q(n)
            assert mult == spec.q(n) - (spec.q(n - 1) if n > 1 else 0)

    @pytest.mark.parametrize("formatter", [_format_table, _format_csv, _format_json])
    def test_overflow_raises_before_any_output(self, formatter, capsys, tmp_path):
        # q(3) = 3 * 2**62 overflows; q(1) and q(2) fit.  The spec is
        # refused, so no run exists for the formatter to write.
        with pytest.raises(OverflowError, match=r"^q\(3\) = "):
            SequenceSpec.standard(2**62, 3)
        argv = ["generate", "--p", str(2**62), "--terms", "3",
                "--format", formatter.__name__.removeprefix("_format_")]
        out = tmp_path / "out.txt"
        for extra in (["--out", str(out)], []):
            code, stdout, err = run_cli(capsys, *argv, *extra)
            assert (code, stdout) == (EXIT_ERROR, "")
            assert err.startswith("trifix: error: q(3) = ")
        assert not out.exists()


def table_document(run: SequenceRun) -> str:
    """The table output, one f-string per row."""
    lines = [f"{'n':>6}  {'mult':>10}  {'q(n)':>14}  {'a(n)':>10}  fixed point\n"]
    prev = 0
    for n, a in enumerate(run.a, start=1):
        q = run.spec.q(n)
        marker = "  *" if a == n else ""
        lines.append(f"{n:>6}  {q - prev:>10}  {q:>14}  {a:>10}{marker}\n")
        prev = q
    return "".join(lines)


@pytest.mark.parametrize("spec", [
    SequenceSpec.standard(7, 300),
    SequenceSpec.standard(199, 300),
    SequenceSpec.no_zero(300),
    SequenceSpec.shifted(300),
    # q(n) reaches 19 digits and mult 18, wider than their 14- and 10-character columns
    SequenceSpec.standard(10**15 + 37, 130),
], ids=lambda s: f"{s.label()}-{s.term_count}")
def test_table_equals_f_string_rows(spec):
    run = generate(spec)
    assert "".join(_format_table(run)) == table_document(run)


def json_document(run: SequenceRun) -> str:
    """The JSON output as one json.dumps of the whole document."""
    doc = {
        "spec": {"variant": run.spec.variant, "p": run.spec.p, "term_count": run.spec.term_count},
        "terms": [
            {
                "n": n,
                "q": run.spec.q(n),
                "a": a,
                "fixed_point": a == n,
                "near_match": a == n - 1,
                "bootstrap_duplicate": n == 2 and a == 1 and run.spec.has_bootstrap,
            }
            for n, a in enumerate(run.a, start=1)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("spec", [
    SequenceSpec.standard(7, 300),
    SequenceSpec.standard(199, 300),
    SequenceSpec.no_zero(300),
    SequenceSpec.shifted(300),
    SequenceSpec.standard(7, 1),
], ids=lambda s: f"{s.label()}-{s.term_count}")
def test_streamed_json_equals_one_dumped_document(spec):
    run = generate(spec)
    assert "".join(_format_json(run)) == json_document(run)


@pytest.mark.parametrize("fmt", ["bfile", "json", "table"])
def test_reader_exiting_early_is_an_error_with_unbuffered_stdout(fmt):
    """A pipe reader that leaves after one line: the output, several pipe
    buffers long, cannot be written, and that is exit 1, not a short write
    that exits 0."""
    child = subprocess.Popen(
        [sys.executable, "-m", "trifix.cli", "generate", "--p", "7", "--terms", "20000",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(PYTHONUNBUFFERED="1"),
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == EXIT_ERROR
    assert err == b""


def modules_loaded_by(code: str, names: list[str]) -> list[str]:
    """Which of names a child Python loads while it runs code, on top of
    what it had loaded before importing trifix."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        f"print(*sorted(set({names!r}) & set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.splitlines()[-1].split()  # the lines above are main's output


def quiet_main(argv: list[str]) -> str:
    """Code for modules_loaded_by that runs main(argv) with its stderr
    notes (sweep --export-dir names the files it wrote) set aside.  A
    failing main exits with them, so they reach the child's stderr."""
    return ("import contextlib, io, sys\nfrom trifix.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            f"    code = main({argv!r})\n"
            "if code:\n    sys.exit(err.getvalue())\n")


class TestImports:
    """Each subcommand loads only the layers it uses, and none loads
    dataclasses or the inspect module it brings."""

    @pytest.mark.parametrize("fmt, loaded", [
        ("table", []), ("csv", []), ("bfile", ["trifix.oeis"]), ("json", ["json"]),
    ])
    def test_generate_loads_the_engine_only(self, fmt, loaded):
        """The default table, and csv, load none of these; bfile and json
        each load only what their format needs."""
        argv = ["generate", "--p", "7", "--terms", "3"]
        if fmt != "table":
            argv += ["--format", fmt]
        names = ["trifix.analysis", "trifix.store", "trifix.oeis", "hashlib", "json",
                 "dataclasses", "inspect"]
        assert modules_loaded_by(f"from trifix.cli import main; main({argv!r})", names) == loaded

    @pytest.mark.parametrize("argv", [
        ["conjecture", "--id", "3.1", "--terms", "50"],
        ["conjecture", "--id", "3.2", "--p-list", "3,5", "--terms", "50"],
        ["conjecture", "--id", "5.1", "--terms", "50"],
        ["conjecture", "--id", "6.1", "--p-list", "3,541", "--terms", "50"],
        ["analyze", "--p", "3", "--terms", "50"],
    ], ids=" ".join)
    def test_conjecture_and_analyze_load_neither_cache_nor_pool(self, argv):
        """Sharing sweep's run loop pulls in neither the cache layer nor the
        process pool; reports hold counts, so neither fractions nor decimal
        is loaded."""
        names = ["trifix.analysis", "trifix.store", "hashlib", "json", "concurrent.futures",
                 "dataclasses", "inspect", "fractions", "decimal"]
        code = f"from trifix.cli import main; main({argv!r})"
        assert modules_loaded_by(code, names) == ["trifix.analysis"]

    def test_analyze_json_loads_no_cache_layer(self):
        """The JSON report is written by the analysis layer: neither the
        run cache nor its hashlib is loaded for it."""
        argv = ["analyze", "--p", "3", "--terms", "50", "--format", "json"]
        names = ["trifix.analysis", "trifix.store", "trifix.oeis", "hashlib", "json", "csv",
                 "concurrent.futures", "dataclasses", "inspect", "fractions", "decimal"]
        code = f"from trifix.cli import main; main({argv!r})"
        assert modules_loaded_by(code, names) == ["json", "trifix.analysis"]

    def test_cold_sweep_loads_neither_secrets_nor_datetime(self, tmp_path):
        """Nor csv: the exported tables are plain comma-joined text; nor
        fractions or decimal: each percentage is formatted from two counts."""
        cache, exports = tmp_path / "cache", tmp_path / "exports"
        argv = ["sweep", "--p-list", "3,5", "--terms", "50", "--cache", str(cache),
                "--export-dir", str(exports)]
        names = ["secrets", "datetime", "csv", "trifix.store", "dataclasses", "inspect",
                 "fractions", "decimal"]
        assert modules_loaded_by(quiet_main(argv), names) == ["trifix.store"]
        assert sorted(f.name for f in (cache / "standard").iterdir()) == [
            "p3_v2.bfile.txt", "p3_v2.manifest.json", "p5_v2.bfile.txt", "p5_v2.manifest.json"]
        assert sorted(f.name for f in exports.iterdir()) == [
            "figure2.csv", "table2.csv", "table3.csv"]

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["oeis-check", "--bfile", "b111273.txt", "--variant", "no-zero", "--terms", "30"],
        ["sweep", "--p-list", "3,5", "--terms", "50", "--export-dir", "exports", "--cache"],
    ], ids=lambda argv: argv[0])
    def test_loads_neither_dataclasses_nor_inspect(self, argv, capsys, tmp_path, data_dir):
        """Nor csv, even where the tables are written, nor fractions or
        decimal.  The sweep reads a cache filled beforehand and leaves it as
        it is; the cold sweep is checked above."""
        cache = tmp_path / "cache"
        paths = {"b111273.txt": data_dir / "b111273.txt", "exports": tmp_path / "exports"}
        argv = [str(paths.get(a, a)) for a in argv]
        if argv[-1] == "--cache":
            assert main(["sweep", "--p-list", "3,5", "--terms", "50", "--cache", str(cache)]) == EXIT_OK
            argv.append(str(cache))
        written = {f.name: f.stat().st_mtime_ns for f in cache.glob("*/*")}
        names = ["dataclasses", "inspect", "csv", "fractions", "decimal"]
        assert modules_loaded_by(quiet_main(argv), names) == []
        assert {f.name: f.stat().st_mtime_ns for f in cache.glob("*/*")} == written

    def test_cache_layer_loads_the_module_the_tracer_wraps(self):
        """The benchmark's traced pass imports trifix.cli and trifix.store,
        then wraps a function in each module of its target list, trifix.oeis
        among them: importing the cache layer must load it."""
        names = ["trifix.oeis", "trifix.store"]
        assert modules_loaded_by("import trifix.cli, trifix.store", names) == names


ANNOTATION_CHECK = """
import importlib, inspect, pkgutil, typing
typing.TYPE_CHECKING = True
import trifix
checked, failed = 0, []
for info in pkgutil.iter_modules(trifix.__path__):
    module = importlib.import_module(f"trifix.{info.name}")
    for obj in list(vars(module).values()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else ()
        members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in members]
        for target in [obj, *members]:
            if inspect.isclass(target) or inspect.isfunction(target):
                checked += 1
                try:
                    typing.get_type_hints(target)
                except Exception as exc:
                    failed.append(f"{module.__name__}.{target.__qualname__}: {exc!r}")
print(checked, failed)
"""


def test_every_annotation_resolves():
    """typing.get_type_hints resolves the annotations of every function,
    class and method in trifix.  The child Python sets TYPE_CHECKING first,
    as documentation tools do, so a name imported for annotations only
    resolves as well."""
    done = subprocess.run([sys.executable, "-c", ANNOTATION_CHECK], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    checked, failed = done.stdout.split(" ", 1)
    assert int(checked) > 100
    assert failed == "[]\n"


class TestGenerateErrors:
    def test_missing_p(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--terms", "5")
        assert code == EXIT_ERROR
        assert "requires --p" in err

    def test_p_with_non_standard_variant(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--variant", "shifted", "--p", "3")
        assert code == EXIT_ERROR
        assert "meaningless" in err

    def test_bad_flag(self, capsys):
        assert run_cli(capsys, "generate", "--badflag")[0] == EXIT_ERROR

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_ERROR

    def test_sieve_ceiling_is_an_operational_error(self, capsys, time_limit):
        """The sieve for N = 50,000,001 terms would pass the 5*10^7-entry
        ceiling, and so would no-zero's for 50,000,000: its index offset
        counts against the ceiling."""
        for argv in (["--p", "3", "--terms", "50000001"],
                     ["--variant", "no-zero", "--terms", "50000000"]):
            with time_limit(10):
                code, out, err = run_cli(capsys, "generate", *argv)
            assert code == EXIT_ERROR and out == ""
            assert err == "trifix: error: sieve limit 50000001 exceeds the ceiling of 50000000 entries\n"

    def test_overflow_is_operational_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--p", str(2**62), "--terms", "5")
        assert code == EXIT_ERROR
        assert "error" in err


@pytest.mark.parametrize("argv, least", [
    (["generate", "--p", "3"], 1),
    (["analyze", "--p", "3"], 1),
    (["oeis-check", "--bfile", "{data}/b000217.txt", "--p", "3"], 1),
    (["conjecture", "--id", "3.1", "--p-list", "3"], 1),
    (["sweep", "--p-list", "3"], 2),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_terms_below_the_least_are_named_by_the_flag(capsys, data_dir, tmp_path, argv, least):
    """Each command refuses --terms below its least value, before any work,
    naming the flag; at the least value it runs."""
    argv = [arg.format(data=data_dir, tmp=tmp_path) for arg in argv]
    for terms in (least - 1, -3):
        code, out, err = run_cli(capsys, *argv, "--terms", str(terms))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"trifix: error: --terms must be >= {least}, got {terms}\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv, "--terms", str(least))[0] == EXIT_OK


# each subcommand with its required flags
COMMANDS = {
    "generate": [],
    "analyze": [],
    "sweep": ["--p-list", "3"],
    "conjecture": ["--id", "3.1"],
    "oeis-check": ["--bfile", "b000217.txt"],
}


class TestSharedFlags:
    """What every subcommand shares is declared once, so each describes it
    and each refuses a flag it does not know the same way."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """The terms the engine steps, one entry for each batch it feeds."""
        steps, feed = [], trifix.engine._feed

        def counting(engines, count):
            steps.append(len(engines) * count)
            feed(engines, count)

        monkeypatch.setattr(trifix.engine, "_feed", counting)
        return steps

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_describes_terms_and_out(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (EXIT_OK, "")
        assert re.search(r"\n  --terms N\s+number of term indices \(default 10000\)\n", out)
        assert re.search(r"\n  --out OUT\s+write to file instead of stdout\n", out)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_unknown_flag_is_an_error(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, *COMMANDS[command], "--bogus",
                                 "--out", str(tmp_path / "out.txt"))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("usage: trifix ")
        assert err.endswith("\ntrifix: error: unrecognized arguments: --bogus\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, error", [
        (["generate", "--p", "7", "--terms", "25", "--out", "{tmp}/missing/x.txt"],
         "[Errno 2] No such file or directory: '{tmp}/missing/x.txt'"),
        (["generate", "--p", "7", "--terms", "25", "--out", "{tmp}"],
         "[Errno 21] Is a directory: '{tmp}'"),
        (["analyze", "--p", "7", "--terms", "25", "--out", "{tmp}/missing/x.txt"],
         "[Errno 2] No such file or directory: '{tmp}/missing/x.txt'"),
        (["conjecture", "--id", "3.1", "--p-list", "3", "--terms", "50", "--out", "{tmp}"],
         "[Errno 21] Is a directory: '{tmp}'"),
        (["oeis-check", "--variant", "no-zero", "--terms", "25", "--bfile", "{tmp}/afile",
          "--out", "{tmp}/missing/x.txt"],
         "[Errno 2] No such file or directory: '{tmp}/missing/x.txt'"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}/afile"],
         "[Errno 17] File exists: '{tmp}/afile'"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}/exports",
          "--out", "{tmp}/missing/x.txt"],
         "[Errno 2] No such file or directory: '{tmp}/missing/x.txt'"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}/exports",
          "--out", "{tmp}/exports/missing/x.txt"],
         "[Errno 2] No such file or directory: '{tmp}/exports/missing/x.txt'"),
        (["generate", "--p", "7", "--terms", "25", "--out", "{tmp}/afile/x.txt"],
         "[Errno 20] Not a directory: '{tmp}/afile/x.txt'"),
        (["generate", "--p", "7", "--terms", "25", "--out", "{tmp}/missing/"],
         "[Errno 21] Is a directory: '{tmp}/missing/'"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}/exports",
          "--out", "{tmp}/afile/x.txt"],
         "[Errno 20] Not a directory: '{tmp}/afile/x.txt'"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}"],
         "[Errno 21] Is a directory: '{tmp}/table3.csv'"),
    ], ids=["generate, out in a missing directory", "generate, out a directory",
            "analyze", "conjecture", "oeis-check", "sweep, export-dir a file",
            "sweep, out beside the export-dir", "sweep, out below the export-dir",
            "generate, out under a file", "generate, out ending in a separator",
            "sweep, out under a file", "sweep, an export table a directory"])
    def test_an_unwritable_target_fails_before_the_run(self, capsys, monkeypatch, tmp_path,
                                                      steps, argv, error):
        """The OSError that writing the output would raise once the run is
        done is raised before the engine takes a step, and creates nothing."""
        monkeypatch.delenv("TRIFIX_CACHE_DIR", raising=False)
        (tmp_path / "afile").write_text("1 1\n")  # a file, and a b-file too
        (tmp_path / "table3.csv").mkdir()  # a table that an export into tmp cannot write
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert (code, out, err) == (EXIT_ERROR, "", f"trifix: error: {error.format(tmp=tmp_path)}\n")
        assert steps == []
        assert sorted(f.name for f in tmp_path.iterdir()) == ["afile", "table3.csv"]
        assert list((tmp_path / "table3.csv").iterdir()) == []

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write into a read-only directory")
    def test_a_read_only_directory_is_refused_before_the_run(self, capsys, tmp_path, steps):
        readonly = tmp_path / "readonly"
        readonly.mkdir()
        readonly.chmod(0o500)
        target = readonly / "x.txt"
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--terms", "25",
                                 "--out", str(target))
        assert (code, out, err) == (EXIT_ERROR, "",
                                    f"trifix: error: [Errno 13] Permission denied: '{target}'\n")
        assert steps == []
        assert list(readonly.iterdir()) == []

    def test_dev_null_is_written(self, capsys):
        """/dev/null is a device, not a file: it is left to the write."""
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--terms", "25", "--out", os.devnull)
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_a_dangling_symlink_is_written_through(self, capsys, tmp_path):
        """The file the write makes is the symlink's target, and the
        symlink stays."""
        link, target = tmp_path / "link.txt", tmp_path / "target.txt"
        link.symlink_to(target)
        argv = ["generate", "--p", "7", "--terms", "25"]
        assert run_cli(capsys, *argv, "--out", str(link)) == (EXIT_OK, "", "")
        assert link.is_symlink() and link.readlink() == target
        assert target.read_text(encoding="utf-8") == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("reader", ["waits before the command", "opens after it starts"])
    def test_a_fifo_reader_gets_the_whole_output(self, capsys, tmp_path, reader):
        """A FIFO is not opened before the run, which would hand a waiting
        reader an EOF: whenever the reader opens it, it reads the whole
        output.  The command runs as a child, so that a write left with no
        reader fails the test on a timeout instead of hanging it."""
        argv = ["generate", "--p", "7", "--terms", "2000"]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        thread = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        if reader == "waits before the command":
            thread.start()
            time.sleep(0.1)  # blocked in open by now
        child = subprocess.Popen([sys.executable, "-m", "trifix.cli", *argv, "--out", str(fifo)],
                                 stderr=subprocess.PIPE, env=child_env())
        try:
            if reader == "opens after it starts":
                time.sleep(0.5)  # past the pre-run check, which takes far less
                thread.start()
            err = child.communicate(timeout=30)[1]
        finally:
            child.kill()
            child.wait()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert (child.returncode, err) == (EXIT_OK, b"")
        assert got == [run_cli(capsys, *argv)[1].encode()]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--export-dir", "{tmp}/exports", "--out", "{tmp}/exports/summary.txt"],
        ["sweep", "--export-dir", "{tmp}/exports/deep", "--out", "{tmp}/exports/summary.txt"],
        ["sweep", "--cache", "{tmp}/cache", "--out", "{tmp}/cache/summary.txt"],
        ["sweep", "--cache", "{tmp}/cache", "--out", "{tmp}/cache/standard/summary.txt"],
    ], ids=["in the export-dir", "above the export-dir", "in the cache", "in a cache subdirectory"])
    def test_an_out_in_a_directory_the_run_makes_is_written(self, capsys, monkeypatch, tmp_path,
                                                           argv):
        """An --out whose directory the run itself makes (the export
        directory, the cache, or what is above or inside them) is no
        missing directory: the run writes it and its other files."""
        monkeypatch.delenv("TRIFIX_CACHE_DIR", raising=False)
        argv = [*(arg.format(tmp=tmp_path) for arg in argv), "--p-list", "3,5", "--terms", "50"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_OK, "")
        at = argv.index("--out")
        summary = Path(argv.pop(at + 1))
        del argv[at]
        if "--cache" in argv:
            assert len(list(Path(argv[argv.index("--cache") + 1]).glob("standard/*.bfile.txt"))) == 2
        if "--export-dir" in argv:
            assert {"figure2.csv", "table2.csv", "table3.csv"} <= set(
                exported(Path(argv[argv.index("--export-dir") + 1])))
        assert summary.read_text(encoding="utf-8") == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("argv, error", [
        (["sweep", "--p-list", "abc", "--out", "{tmp}/missing/x.txt"],
         "--p-list expects comma-separated integers, got 'abc'"),
        (["analyze", "--p", "7", "--format", "json", "--near-matches", "--out", "{tmp}"],
         "--near-matches and --filter-small-primes add to the text report only; "
         "they cannot be combined with --format json"),
        (["generate", "--terms", "25", "--out", "{tmp}"], "standard variant requires --p"),
        (["sweep", "--p-list", "3", "--terms", "50", "--jobs", "0", "--out", "{tmp}/missing/x.txt"],
         "--jobs must be >= 1, got 0"),
        (["generate", "--p", "7", "--terms", "3", "--out", ""], "--out is empty"),
        (["sweep", "--p-list", "3", "--terms", "50", "--cache", "", "--out", "{tmp}/missing/x.txt"],
         "--cache is empty"),
        (["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "",
          "--out", "{tmp}/missing/x.txt"], "--export-dir is empty"),
        (["oeis-check", "--bfile", "", "--p", "3", "--terms", "5", "--out", "{tmp}/missing/x.txt"],
         "--bfile is empty"),
    ], ids=["sweep", "analyze", "generate", "sweep-jobs", "empty-out", "empty-cache",
            "empty-export-dir", "empty-bfile"])
    def test_a_flag_error_wins_over_an_unwritable_target(self, capsys, monkeypatch, tmp_path,
                                                         argv, error):
        """A command checks its own flags before its output target, so of
        two errors it names the flag's, and it creates nothing.  An empty
        --out, --cache, --export-dir or --bfile names no path: it is such an
        error, not stdout, $TRIFIX_CACHE_DIR, no export or the current
        directory."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TRIFIX_CACHE_DIR", str(tmp_path / "envcache"))
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert (code, out, err) == (EXIT_ERROR, "", f"trifix: error: {error}\n")
        assert list(tmp_path.iterdir()) == []


class TestCleanExits:
    """An interrupted run and one that runs out of memory end with one
    stderr line and no traceback."""

    @pytest.fixture
    def raising(self, monkeypatch):
        """raising(exc) makes the engine's generate_runs raise exc."""

        def raising(exc):
            def generate_runs(specs):
                raise exc

            monkeypatch.setattr(trifix.engine, "generate_runs", generate_runs)

        return raising

    def test_an_interrupt_exits_130(self, capsys, raising):
        raising(KeyboardInterrupt())
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--terms", "25")
        assert (code, out, err) == (EXIT_INTERRUPTED, "", "trifix: interrupted\n")

    def test_running_out_of_memory_is_an_error(self, capsys, raising):
        raising(MemoryError())
        code, out, err = run_cli(capsys, "generate", "--p", "7", "--terms", "25")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "trifix: error: out of memory at --terms 25; try fewer terms\n"

    def test_sigint_mid_run_exits_130(self):
        """SIGINT a second into conjecture 6.1 at 3*10^6 terms, which takes
        many seconds: the engine is stepping when it lands.  The child
        starts with SIGINT at its default even where this process ignores
        it (a background job's does), so that Python turns it into
        KeyboardInterrupt."""
        child = subprocess.Popen(
            [sys.executable, "-m", "trifix.cli", "conjecture", "--id", "6.1", "--terms", "3000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            time.sleep(1)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, out, err) == (EXIT_INTERRUPTED, b"", b"trifix: interrupted\n")


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--p", "3", "--terms", "200",
            "--near-matches", "--filter-small-primes", "3,5",
        )
        assert code == EXIT_OK
        assert "A) matches n=a(n):    42" in out
        assert "B) matches n=a(n+1):  2" in out
        assert "success rate (A/C):   95.45%" in out
        assert "missed primes (2): 17, 193" in out
        assert "near-match primes (2): 17, 193" in out
        assert "not divisible by {3, 5}: 4 (removed 6)" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--p", "3", "--terms", "200", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["detected"] == 42
        assert doc["n_limit"] == 200
        assert doc["spec"]["term_count"] == 201  # one extra for near matches

    def test_json_report_golden(self, capsys):
        """Byte for byte: key order, the nested spec object, float rates
        and indent=2."""
        code, out, err = run_cli(capsys, "analyze", "--p", "3", "--terms", "30", "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert out == """\
{
  "spec": {
    "variant": "standard",
    "term_count": 31,
    "p": 3
  },
  "n_limit": 30,
  "excluded_primes": [
    2,
    3
  ],
  "detected": 7,
  "near_matches": 1,
  "total_eligible_primes": 8,
  "success_rate": 0.875,
  "false_negatives": 0,
  "total_nonprimes": 20,
  "false_negative_rate": 0.0,
  "missed_primes": [
    17
  ],
  "false_negative_values": []
}
"""

    @pytest.mark.parametrize("argv, expected", [
        # no eligible prime: 0 of 0 detected reads 0.00%, and its complement 100.00%
        (["--p", "3", "--terms", "2"],
         "sequence A(3), classified n <= 2\n"
         "excluded primes: 2\n"
         "A) matches n=a(n):    0\n"
         "B) matches n=a(n+1):  0\n"
         "C) total primes:      0\n"
         "success rate (A/C):   0.00%\n"
         "false negatives:      0\n"
         "total nonprimes:      1\n"
         "false negative rate:  0.00%\n"
         "missed primes (0): none\n"
         "classification matrix (columns prime, nonprime):\n"
         "  detect:           0.00%     0.00%\n"
         "  don't detect:   100.00%   100.00%\n"),
        (["--p", "3", "--terms", "2", "--format", "json"],
         '{\n  "spec": {\n    "variant": "standard",\n    "term_count": 3,\n    "p": 3\n  },\n'
         '  "n_limit": 2,\n  "excluded_primes": [\n    2\n  ],\n  "detected": 0,\n'
         '  "near_matches": 0,\n  "total_eligible_primes": 0,\n  "success_rate": 0.0,\n'
         '  "false_negatives": 0,\n  "total_nonprimes": 1,\n  "false_negative_rate": 0.0,\n'
         '  "missed_primes": [],\n  "false_negative_values": []\n}\n'),
    ])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_json_rates_that_are_not_dyadic(self, capsys):
        """A(199) at the paper's N: the float text of 1226/1227 and
        1526/8771, and the whole report's bytes."""
        code, out, err = run_cli(capsys, "analyze", "--p", "199", "--terms", "10000",
                                 "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert '\n  "success_rate": 0.9991850040749797,\n' in out
        assert '\n  "false_negative_rate": 0.1739824421388667,\n' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8c996e580a826bfff2c7f9e4cd04d186e00ad280e24f6d1ebefce041dd8aa1c3")

    @pytest.mark.parametrize("value, message", [
        ("0", "small primes must be >= 2, got 0"),
        ("3,1", "small primes must be >= 2, got 1"),
        ("x", "--filter-small-primes expects comma-separated integers, got 'x'"),
        (",", "--filter-small-primes is empty"),
        ("", "--filter-small-primes is empty"),
    ])
    def test_bad_filter_small_primes(self, capsys, time_limit, value, message):
        # checked before the run: generating 3,000,000 terms would take minutes
        with time_limit(10):
            code, out, err = run_cli(capsys, "analyze", "--p", "3", "--terms", "3000000",
                                     "--filter-small-primes", value)
        assert code == EXIT_ERROR and out == ""
        assert err == f"trifix: error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ["--near-matches"],
        ["--filter-small-primes", "3,5"],
        ["--filter-small-primes", ""],
    ])
    def test_text_only_flags_rejected_with_json(self, capsys, flags):
        # the JSON report has no field for either list, so it would drop them
        code, out, err = run_cli(
            capsys, "analyze", "--p", "3", "--terms", "200", "--format", "json", *flags
        )
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("trifix: error: ")
        assert "--near-matches" in err and "--filter-small-primes" in err


class TestConjecture:
    def test_ids_are_the_analysis_layers(self):
        """The parser lists the ids itself, without importing analysis; the
        two lists agree, in order."""
        from trifix.analysis import _DEFAULT_P_LISTS

        assert CONJECTURE_IDS == tuple(_DEFAULT_P_LISTS)

    def test_5_1_holds(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--id", "5.1", "--terms", "100")
        assert code == EXIT_OK
        assert "24/24 odd primes detected" in out
        assert "HOLDS" in out

    @pytest.mark.parametrize("argv, expected", [
        (["--id", "5.1", "--terms", "1"],
         "0/0 odd primes detected as fixed points of the shifted sequence\n"
         "conjecture 5.1 [shifted]: HOLDS up to N=1\n"),
        (["--id", "5.1", "--terms", "100"],
         "24/24 odd primes detected as fixed points of the shifted sequence\n"
         "conjecture 5.1 [shifted]: HOLDS up to N=100\n"),
        (["--id", "6.1", "--p-list", "3", "--terms", "100"],
         "conjecture 6.1 [A(3)]: FALSIFIED, 1 counterexample(s); "
         "first: A(3) n=17 (eligible prime not a fixed point)\n"),
        (["--id", "6.1", "--p-list", "3,541,97,3", "--terms", "2000"],
         "conjecture 6.1 [A(3), A(541), A(97), A(3)]: FALSIFIED, 38 counterexample(s); "
         "first: A(3) n=17 (eligible prime not a fixed point)\n"),
        (["--id", "3.2", "--p-list", "3,2", "--terms", "300"],
         "conjecture 3.2 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(2)]: HOLDS up to N=300\n"),
        # each id's default p list: the paper family for 3.1/3.2, 541 for 6.1
        (["--id", "3.1", "--terms", "300"],
         "conjecture 3.1 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(5)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(7)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(11)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(41)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(97)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(199)]: HOLDS up to N=300\n"),
        (["--id", "3.2", "--terms", "300"],
         "conjecture 3.2 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(5)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(7)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(11)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(41)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(97)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(199)]: HOLDS up to N=300\n"),
        (["--id", "5.1", "--terms", "300"],
         "61/61 odd primes detected as fixed points of the shifted sequence\n"
         "conjecture 5.1 [shifted]: HOLDS up to N=300\n"),
        (["--id", "6.1", "--terms", "300"],
         "conjecture 6.1 [A(541)]: HOLDS up to N=300\n"),
        (["--id", "3.1", "--terms", "1"],
         "conjecture 3.1 [A(3)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(5)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(7)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(11)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(41)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(97)]: HOLDS up to N=1\n"
         "conjecture 3.1 [A(199)]: HOLDS up to N=1\n"),
        (["--id", "3.2", "--terms", "1"],
         "conjecture 3.2 [A(3)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(5)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(7)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(11)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(41)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(97)]: HOLDS up to N=1\n"
         "conjecture 3.2 [A(199)]: HOLDS up to N=1\n"),
        (["--id", "6.1", "--terms", "1"],
         "conjecture 6.1 [A(541)]: HOLDS up to N=1\n"),
        # a repeated p: one line per listed copy
        (["--id", "3.1", "--p-list", "3,2,3,3", "--terms", "300"],
         "conjecture 3.1 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(2)]: FALSIFIED, 150 counterexample(s); "
         "first: A(2) n=2 (even fixed point a(2) = 2)\n"
         "conjecture 3.1 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.1 [A(3)]: HOLDS up to N=300\n"),
        (["--id", "3.2", "--p-list", "3,2,3,3", "--terms", "300"],
         "conjecture 3.2 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(2)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(3)]: HOLDS up to N=300\n"
         "conjecture 3.2 [A(3)]: HOLDS up to N=300\n"),
        # the paper's four conjectures at the default N = 10^4
        (["--id", "3.1"],
         "conjecture 3.1 [A(3)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(5)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(7)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(11)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(41)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(97)]: HOLDS up to N=10000\n"
         "conjecture 3.1 [A(199)]: HOLDS up to N=10000\n"),
        (["--id", "3.2"],
         "conjecture 3.2 [A(3)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(5)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(7)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(11)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(41)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(97)]: HOLDS up to N=10000\n"
         "conjecture 3.2 [A(199)]: HOLDS up to N=10000\n"),
        (["--id", "5.1"],
         "1228/1228 odd primes detected as fixed points of the shifted sequence\n"
         "conjecture 5.1 [shifted]: HOLDS up to N=10000\n"),
        (["--id", "6.1"],
         "conjecture 6.1 [A(541)]: HOLDS up to N=10000\n"),
    ])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "conjecture", *argv)
        assert out == expected and err == ""
        assert code == (EXIT_FALSIFIED if "FALSIFIED" in expected else EXIT_OK)

    def test_3_1_falsified_on_identity_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "3.1", "--p-list", "2", "--terms", "50"
        )
        assert code == EXIT_FALSIFIED
        assert "FALSIFIED" in out

    def test_3_1_family_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "3.1", "--p-list", "3,5,7", "--terms", "200"
        )
        assert code == EXIT_OK
        assert out.count("HOLDS") == 3

    def test_3_2_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "3.2", "--p-list", "3", "--terms", "200"
        )
        assert code == EXIT_OK

    def test_6_1_falsified_for_small_p(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "6.1", "--p-list", "3", "--terms", "100"
        )
        assert code == EXIT_FALSIFIED
        assert "n=17" in out

    def test_3_1_checks_exactly_the_requested_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "3.1", "--p-list", "3", "--terms", "200"
        )
        assert code == EXIT_OK and "HOLDS up to N=200\n" in out
        # A(2) has a(n) = n for every n, so checking term 2 would falsify it
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "3.1", "--p-list", "2", "--terms", "1"
        )
        assert code == EXIT_OK and "HOLDS up to N=1\n" in out

    @pytest.mark.parametrize("terms", ["0", "-3"])
    @pytest.mark.parametrize("cid", ["3.1", "3.2", "5.1", "6.1"])
    def test_terms_below_1_rejected(self, capsys, cid, terms):
        code, out, err = run_cli(
            capsys, "conjecture", "--id", cid, "--p-list", "3", "--terms", terms
        )
        assert code == EXIT_ERROR
        assert out == "" and "--terms must be >= 1" in err

    def test_bad_p_list(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--id", "3.1", "--p-list", "3,oops")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("p_list", ["abc", "3", ""])
    def test_5_1_rejects_p_list_before_the_run(self, capsys, monkeypatch, p_list):
        def no_run(*args):
            raise AssertionError("5.1 must not run with --p-list")

        monkeypatch.setattr(trifix.analysis, "run_conjecture", no_run)
        code, out, err = run_cli(
            capsys, "conjecture", "--id", "5.1", "--p-list", p_list, "--terms", "100"
        )
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("trifix: error: ") and "--p-list" in err and "5.1" in err

    @staticmethod
    def count_generated(monkeypatch):
        """The p of every run generated by the one loop that runs them; the
        CLI itself generates none."""
        generated = []

        def counting(specs):
            for run in generate_runs(specs):
                generated.append(run.spec.p)
                yield run

        def not_here(spec):
            raise AssertionError("the CLI generates no run for conjecture or sweep")

        monkeypatch.setattr(trifix.analysis, "generate_runs", counting)
        monkeypatch.setattr(trifix.cli, "generate", not_here)
        return generated

    @pytest.mark.parametrize("cid", ["3.1", "3.2"])
    def test_repeated_p_is_generated_once_and_reported_per_copy(self, capsys, monkeypatch, cid):
        once = {p: run_cli(capsys, "conjecture", "--id", cid, "--p-list", p, "--terms", "300")
                for p in ("2", "3")}
        generated = self.count_generated(monkeypatch)
        code, out, err = run_cli(
            capsys, "conjecture", "--id", cid, "--p-list", "3,2,3,3", "--terms", "300"
        )
        assert generated == [3, 2]
        assert out == "".join(once[p][1] for p in ("3", "2", "3", "3")) and err == ""
        assert code == max(once[p][0] for p in once)

    def test_6_1_generates_a_repeated_p_once(self, capsys, monkeypatch):
        generated = self.count_generated(monkeypatch)
        code, out, _ = run_cli(
            capsys, "conjecture", "--id", "6.1", "--p-list", "3,541,97,3", "--terms", "2000"
        )
        assert generated == [3, 541, 97]
        assert code == EXIT_FALSIFIED and "[A(3), A(541), A(97), A(3)]" in out

    @pytest.mark.parametrize("cid", ["3.1", "3.2", "6.1"])
    def test_empty_p_list_is_an_error(self, capsys, monkeypatch, cid):
        generated = self.count_generated(monkeypatch)
        code, out, err = run_cli(capsys, "conjecture", "--id", cid, "--p-list", "", "--terms", "100")
        assert (code, out, err) == (EXIT_ERROR, "", "trifix: error: --p-list is empty\n")
        assert generated == []

    @pytest.mark.parametrize("cid", ["3.1", "3.2", "6.1"])
    def test_bad_p_is_rejected_before_any_run(self, capsys, monkeypatch, cid):
        generated = self.count_generated(monkeypatch)
        code, out, err = run_cli(capsys, "conjecture", "--id", cid, "--p-list", "3,0",
                                 "--terms", "100")
        assert (code, out) == (EXIT_ERROR, "") and err.startswith("trifix: error: ")
        assert generated == []


    @pytest.mark.parametrize("cid", ["3.1", "3.2", "6.1"])
    def test_overflowing_p_is_refused_before_the_first_run(self, capsys, monkeypatch, cid):
        generated = self.count_generated(monkeypatch)
        code, out, err = run_cli(capsys, "conjecture", "--id", cid,
                                 "--p-list", "199,1000000000000000003", "--terms", "3000")
        assert (code, out, generated) == (EXIT_ERROR, "", [])
        assert err == ("trifix: error: q(3001) = 4501500000000000013504500 for "
                       "p=1000000000000000003 exceeds the supported value range (2**63 - 1)\n")


class TestSweep:
    def test_summary_and_exports(self, capsys, tmp_path):
        export_dir = tmp_path / "exports"
        code, out, err = run_cli(
            capsys, "sweep", "--p-list", "3,5", "--terms", "300",
            "--export-dir", str(export_dir),
        )
        assert code == EXIT_OK
        assert "sweep over p = 3, 5 at N = 300" in out
        assert "95.00%" in out
        for name in ("table2.csv", "table3.csv", "figure2.csv"):
            assert (export_dir / name).exists()
        assert (export_dir / "table2.csv").read_text().startswith("row,p=3,p=5\n")

    @pytest.mark.parametrize("argv, expected", [
        (["--p-list", "3,5", "--terms", "2"],
         "sweep over p = 3, 5 at N = 2\n"
         "     p  detected   near   total   success  false_neg   fn_rate  missed\n"
         "     3         0      0       0     0.00%          0     0.00%       0\n"
         "     5         0      0       0     0.00%          0     0.00%       0\n"
         "primes missed by every sequence: none\n"),
        (["--p-list", "3,5", "--terms", "300"],
         "sweep over p = 3, 5 at N = 300\n"
         "     p  detected   near   total   success  false_neg   fn_rate  missed\n"
         "     3        57      3      60    95.00%         20     8.40%       3\n"
         "     5        57      3      60    95.00%         23     9.66%       3\n"
         "primes missed by every sequence: 193\n"),
        # a repeated p: one row per listed copy
        (["--p-list", "5,3,5", "--terms", "300"],
         "sweep over p = 5, 3, 5 at N = 300\n"
         "     p  detected   near   total   success  false_neg   fn_rate  missed\n"
         "     5        57      3      60    95.00%         23     9.66%       3\n"
         "     3        57      3      60    95.00%         20     8.40%       3\n"
         "     5        57      3      60    95.00%         23     9.66%       3\n"
         "primes missed by every sequence: 193\n"),
        # the paper's family at the default N = 10^4: Tables 2 and 3 in one
        (["--p-list", "3,5,7,11,41,97,199"],
         "sweep over p = 3, 5, 7, 11, 41, 97, 199 at N = 10000\n"
         "     p  detected   near   total   success  false_neg   fn_rate  missed\n"
         "     3      1160     67    1227    94.54%       1179    13.44%      67\n"
         "     5      1145     82    1227    93.32%       1233    14.06%      82\n"
         "     7      1166     61    1227    95.03%       1248    14.23%      61\n"
         "    11      1176     51    1227    95.84%       1415    16.13%      51\n"
         "    41      1220      7    1227    99.43%       1478    16.85%       7\n"
         "    97      1226      1    1227    99.92%       1518    17.31%       1\n"
         "   199      1226      1    1227    99.92%       1526    17.40%       1\n"
         "primes missed by every sequence: none\n"),
    ])
    def test_exact_output(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out, err) == (EXIT_OK, expected, "")

    def test_an_export_dir_that_is_a_file_prints_nothing(self, capsys, tmp_path):
        """stdout is written only once the exports have succeeded."""
        target = tmp_path / "afile"
        target.write_text("x")
        code, out, err = run_cli(capsys, "sweep", "--p-list", "3", "--terms", "50",
                                 "--export-dir", str(target))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("trifix: error: ") and err.count("\n") == 1
        assert target.read_text() == "x"

    def test_an_export_that_fails_mid_write_prints_nothing(self, capsys, tmp_path):
        """A table path that is a directory is refused by the pre-run check,
        before the run: stdout stays empty."""
        (tmp_path / "table3.csv").mkdir()
        code, out, err = run_cli(capsys, "sweep", "--p-list", "3", "--terms", "50",
                                 "--export-dir", str(tmp_path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"trifix: error: [Errno 21] Is a directory: '{tmp_path / 'table3.csv'}'\n"

    def test_cache_populated_and_reused(self, capsys, monkeypatch, tmp_path):
        """A sweep into a cache, then the same sweep read back from it, each
        writing the tables: the second generates nothing and prints and
        exports the first's bytes."""
        cache = tmp_path / "cache"
        argv = ["sweep", "--p-list", "3,5", "--terms", "300", "--cache", str(cache), "--export-dir"]
        code, first, _ = run_cli(capsys, *argv, str(tmp_path / "cold"))
        assert code == EXIT_OK
        assert (cache / "standard" / "p3_v2.bfile.txt").exists()
        generated = TestConjecture.count_generated(monkeypatch)
        code, second, _ = run_cli(capsys, *argv, str(tmp_path / "warm"))
        assert (code, second, generated) == (EXIT_OK, first, [])
        assert exported(tmp_path / "warm") == exported(tmp_path / "cold")

    def test_damaged_cache_entry_is_regenerated(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("sweep", "--p-list", "3", "--terms", "120", "--cache", str(cache))
        _, first, _ = run_cli(capsys, *argv)
        manifest = cache / "standard" / "p3_v2.manifest.json"
        manifest.write_text("{bad")
        with pytest.warns(UserWarning, match="treating as absent"):
            code, second, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and second == first
        assert json.loads(manifest.read_text())["term_count"] == 121

    @pytest.mark.parametrize("suffix, read", [(".manifest.json", "read_text"),
                                              (".bfile.txt", "read_bytes")])
    def test_a_cache_file_removed_mid_read_is_a_miss(self, capsys, tmp_path, monkeypatch,
                                                     suffix, read):
        """A file of the entry found but gone when it is read: the sweep
        regenerates A(3), prints what a cold sweep does and warns of nothing."""
        cache = tmp_path / "cache"
        argv = ("sweep", "--p-list", "3", "--terms", "299", "--cache", str(cache))
        _, cold, _ = run_cli(capsys, *argv)
        original = getattr(Path, read)

        def vanished(path, *args, **kwargs):
            if path.name.endswith(suffix):
                raise FileNotFoundError(2, "No such file or directory", str(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, read, vanished)
        generated = TestConjecture.count_generated(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, again, err = run_cli(capsys, *argv)
        assert (code, again, err, generated) == (EXIT_OK, cold, "", [3])

    def test_a_served_prefix_equals_a_cold_sweep(self, capsys, tmp_path):
        """20,000-term entries of A(3) and A(199) serve a sweep at N = 10^4
        as a prefix: it prints and exports what a cold sweep does, with no
        warning, and leaves the entries as they are."""
        served, cold = tmp_path / "served", tmp_path / "cold"
        assert run_cli(capsys, "sweep", "--p-list", "3,199", "--terms", "20000",
                       "--cache", str(served))[0] == EXIT_OK
        argv = ["sweep", "--p-list", "3,199", "--terms", "10000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *argv, "--cache", str(served),
                                   "--export-dir", str(served / "tables"))
        assert (code, out) == run_cli(capsys, *argv, "--cache", str(cold),
                                      "--export-dir", str(cold / "tables"))[:2]
        assert code == EXIT_OK
        assert exported(served / "tables") == exported(cold / "tables")
        for p in (3, 199):
            manifest = json.loads((served / "standard" / f"p{p}_v2.manifest.json").read_text())
            assert manifest["term_count"] == 20001

    def test_a_lockstepped_sweep_equals_itself_every_way(self, capsys, tmp_path):
        """The family at N = 10^4 swept cold in one process, split over two
        and over four workers, and with A(3), A(41) and A(199) cached
        beforehand (a warning would be an error).  The uncached runs of
        each share one stream of divisor lists; all four print and export
        the same bytes.  Four workers step chunks of 1, 2, 2 and 2 engines,
        below SHARED_SEARCH_MIN, so they scan pairs where the others bisect
        the shared divisors of T.  So do three workers for A(1), A(2) and
        A(3), where one process steps them as one shared chunk that holds
        A(1)'s n = 2 bootstrap: that search must never take T's sentinel."""

        def swept(p_list, name, *flags):
            code, out, _ = run_cli(capsys, "sweep", "--p-list", p_list, "--terms", "10000",
                                   "--cache", str(tmp_path / name), *flags)
            assert code == EXIT_OK
            return out

        family = "3,5,7,11,41,97,199"
        printed = {jobs: swept(family, f"C{jobs}", "--jobs", jobs,
                               "--export-dir", str(tmp_path / f"E{jobs}"))
                   for jobs in ("1", "2", "4")}
        swept("3,41,199", "C3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            printed["3"] = swept(family, "C3", "--export-dir", str(tmp_path / "E3"))
        for run in ("2", "4", "3"):
            assert printed[run] == printed["1"]
            assert exported(tmp_path / f"E{run}") == exported(tmp_path / "E1")
        assert swept("1,2,3", "B1", "--jobs", "1") == swept("1,2,3", "B3", "--jobs", "3")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["sweep"])
    def test_jobs_below_1_rejected(self, capsys, tmp_path, command, jobs):
        argv = [command, "--p-list", "3", "--terms", "50", "--jobs", jobs,
                "--cache", str(tmp_path / "cache")]
        error = f"trifix: error: --jobs must be >= 1, got {jobs}\n"
        assert run_cli(capsys, *argv) == (EXIT_ERROR, "", error)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["sweep"])
    def test_overflowing_p_is_refused_before_the_first_run(self, capsys, monkeypatch, tmp_path,
                                                           command, jobs):
        generated = TestConjecture.count_generated(monkeypatch)
        cache = tmp_path / "cache"
        argv = [command, "--p-list", "199,1000000000000000003", "--terms", "3000",
                "--jobs", jobs, "--cache", str(cache)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, generated) == (EXIT_ERROR, "", [])
        assert err == ("trifix: error: q(3001) = 4501500000000000013504500 for "
                       "p=1000000000000000003 exceeds the supported value range (2**63 - 1)\n")
        assert not cache.exists()

    def test_one_job_does_not_import_a_process_pool(self, tmp_path):
        code = (
            "import sys; from trifix.cli import main; "
            f"main(['sweep', '--p-list', '3,5', '--terms', '50', '--jobs', '1', "
            f"'--out', {str(tmp_path / 'out.txt')!r}]); "
            "print('concurrent.futures' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_empty_cache_env_var_means_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TRIFIX_CACHE_DIR", "")
        code, out, _ = run_cli(capsys, "sweep", "--p-list", "3", "--terms", "50")
        assert code == EXIT_OK and out.startswith("sweep over p = 3 at N = 50\n")
        assert list(tmp_path.iterdir()) == []

    def test_cache_env_var_default(self, capsys, tmp_path, monkeypatch):
        """Without --cache a sweep caches into $TRIFIX_CACHE_DIR, and a
        second sweep is served from it."""
        monkeypatch.setenv("TRIFIX_CACHE_DIR", str(tmp_path / "envcache"))
        argv = ["sweep", "--p-list", "3", "--terms", "120"]
        code, cold, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and cold.startswith("sweep over p = 3 at N = 120\n")
        assert sorted(f.name for f in (tmp_path / "envcache" / "standard").iterdir()) == [
            "p3_v2.bfile.txt", "p3_v2.manifest.json"]
        generated = TestConjecture.count_generated(monkeypatch)
        assert run_cli(capsys, *argv) == (EXIT_OK, cold, "")
        assert generated == []

    def test_a_warm_export_equals_the_pinned_table2(self, capsys, monkeypatch, tmp_path):
        """A sweep served from a cache that an earlier sweep filled writes
        the table2.csv of the cold sweep, as pinned here."""
        cache = tmp_path / "cache"
        argv = ["sweep", "--p-list", "3,5", "--terms", "300", "--cache", str(cache)]
        assert run_cli(capsys, *argv, "--export-dir", str(tmp_path / "cold"))[0] == EXIT_OK
        generated = TestConjecture.count_generated(monkeypatch)
        assert run_cli(capsys, *argv, "--export-dir", str(tmp_path / "warm"))[0] == EXIT_OK
        assert generated == []
        table2 = (tmp_path / "warm" / "table2.csv").read_text(encoding="utf-8")
        assert table2 == (
            "row,p=3,p=5\n"
            "A) matches n=a(n),57,57\n"
            "B) matches n=a(n+1),3,3\n"
            "C) total primes,60,60\n"
            "success rate (A/C),95.00%,95.00%\n"
        )
        assert table2 == (tmp_path / "cold" / "table2.csv").read_text(encoding="utf-8")

    def test_jobs_flag_changes_nothing(self, capsys):
        _, serial, _ = run_cli(capsys, "sweep", "--p-list", "3,5", "--terms", "150")
        _, parallel, _ = run_cli(
            capsys, "sweep", "--p-list", "3,5", "--terms", "150", "--jobs", "2"
        )
        assert serial == parallel

    def test_damaged_entry_among_cached_ones_is_regenerated_with_the_uncached(
            self, capsys, tmp_path, monkeypatch):
        """A(3), A(41) and A(199) cached and a damaged A(97) entry: the family
        sweep warns once, for A(97), generates it with the uncached p, and
        prints and exports what a cold sweep does.  Each distinct p is
        looked up in the cache once and classified once."""
        family = "3,5,7,11,41,97,199"
        argv = ["sweep", "--p-list", family, "--terms", "2000"]
        _, cold, _ = run_cli(capsys, *argv, "--export-dir", str(tmp_path / "cold"))
        cache = tmp_path / "cache"
        run_cli(capsys, "sweep", "--p-list", "3,41,199,97", "--terms", "2000",
                "--cache", str(cache))
        payload = cache / "standard" / "p97_v2.bfile.txt"
        damaged = bytearray(payload.read_bytes())
        damaged[8 * 100] ^= 1  # a(101), under the old checksum
        payload.write_bytes(damaged)

        looked_up, classified = [], []
        load_run, classify = trifix.store.load_run, trifix.analysis.classify

        def counting_load(spec, cache_dir):
            looked_up.append(spec.p)
            return load_run(spec, cache_dir)

        def counting_classify(run):
            classified.append(run.spec.p)
            return classify(run)

        monkeypatch.setattr(trifix.store, "load_run", counting_load)
        monkeypatch.setattr(trifix.analysis, "classify", counting_classify)
        generated = TestConjecture.count_generated(monkeypatch)
        with pytest.warns(UserWarning, match="p97_v2.bfile.txt is damaged") as caught:
            code, warm, err = run_cli(capsys, *argv, "--cache", str(cache),
                                      "--export-dir", str(tmp_path / "warm"))
        assert len(caught) == 1
        assert (code, warm) == (EXIT_OK, cold)
        for name in ("table2.csv", "table3.csv", "figure2.csv"):
            assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()
        assert looked_up == [3, 5, 7, 11, 41, 97, 199]
        assert classified == [3, 41, 199, 5, 7, 11, 97]  # hits as they load, then the rest
        assert generated == [5, 7, 11, 97]
        a97 = generate(SequenceSpec.standard(97, 2001)).a
        assert payload.read_bytes() == struct.pack(f"<{len(a97)}q", *a97)


class TestOeisCheck:
    def test_match(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(data_dir / "b111273.txt"),
            "--variant", "no-zero", "--terms", "30",
        )
        assert code == EXIT_OK
        assert "A111273" in out and "MATCH over 30 position(s)" in out

    def test_shifted_with_shift(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(data_dir / "b111273.txt"),
            "--variant", "shifted", "--terms", "31", "--shift", "1",
        )
        assert code == EXIT_OK
        assert "MATCH" in out

    def test_q_field(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(data_dir / "b000217.txt"),
            "--p", "1", "--terms", "31", "--shift", "1", "--field", "q",
        )
        assert code == EXIT_OK
        assert "MATCH" in out

    def test_fixed_points_field(self, capsys, data_dir):
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(data_dir / "b113659.txt"),
            "--variant", "no-zero", "--terms", "70", "--field", "fixed-points",
        )
        assert code == EXIT_OK
        assert "MATCH" in out

    def test_a_b_file_laid_out_as_oeis_serves_it(self, capsys, tmp_path):
        """# header lines and CRLF line ends: generate's own 1,000 no-zero
        terms still match."""
        argv = ["--variant", "no-zero", "--terms", "1000"]
        code, bfile, _ = run_cli(capsys, "generate", *argv, "--format", "bfile")
        assert code == EXIT_OK
        path = tmp_path / "b111273.txt"
        path.write_bytes(("# A111273\n# header\n" + bfile).replace("\n", "\r\n").encode())
        assert run_cli(capsys, "oeis-check", "--bfile", str(path), *argv) == (
            EXIT_OK, "no-zero [a] vs A111273 shift 0: MATCH over 1000 position(s)\n", "")

    def test_mismatch_reported(self, capsys, tmp_path):
        bad = tmp_path / "b111273.txt"
        bad.write_text("1 1\n2 3\n3 99\n")
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", str(bad), "--variant", "no-zero", "--terms", "3"
        )
        assert code == EXIT_OK
        assert "MISMATCH at index 3: expected 99, got 2" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "oeis-check", "--bfile", str(tmp_path / "nope.txt"),
            "--variant", "no-zero",
        )
        assert code == EXIT_ERROR

    def test_sequence_id(self, capsys, data_dir):
        bfile = str(data_dir / "b111273.txt")
        code, out, err = run_cli(
            capsys, "oeis-check", "--bfile", bfile, "--variant", "no-zero", "--terms", "30",
            "--sequence-id", "X1",
        )
        assert code == EXIT_ERROR and out == ""
        assert err == "trifix: error: bad OEIS id 'X1' (expected 'A' + 6 digits)\n"
        code, out, _ = run_cli(
            capsys, "oeis-check", "--bfile", bfile, "--variant", "no-zero", "--terms", "30",
            "--sequence-id", "A123456",
        )
        assert code == EXIT_OK
        assert out == "no-zero [a] vs A123456 shift 0: MATCH over 30 position(s)\n"
