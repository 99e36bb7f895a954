"""Every function defined at module or class level in trifix is entered by
at least one CLI command of a fixed list, or is on ALLOWLIST with the
reason it is not.  A function that no command enters and that is not
listed fails the check, and so does a listed one that a command enters or
that no longer exists, so the list cannot go stale."""

import importlib
import inspect
import pkgutil
import sys
import threading
import time

import trifix
from trifix.cli import main

# What no command enters, with the reason it stays.
ALLOWLIST = {
    "engine.FrozenValue.__setattr__": "guard: refuses to assign a field",
    "engine.FrozenValue.__delattr__": "guard: refuses to delete a field",
    "engine.FrozenValue.__repr__": "library API: the repr of every value class",
    "engine.SequenceSpec.no_zero": "library API: the no-zero spec, as standard and shifted are",
    "engine.SequenceEngine.next_term": "bench/tracer.py wraps it by name (ROADMAP items 1, 9)",
    "numtheory.build_spf": "bench/tracer.py wraps it by name (ROADMAP items 1, 9)",
    "numtheory.factorize_q": "bench/tracer.py wraps it by name (ROADMAP items 1, 9)",
    "numtheory.sorted_divisors": "bench/tracer.py wraps it by name (ROADMAP items 1, 9)",
    "numtheory.sieve_factors": "called only by factorize_q (ROADMAP items 1, 9)",
    "numtheory.halve_even": "called only by factorize_q (ROADMAP items 1, 9)",
}

# In-process main() argv lists; {tmp} is a scratch directory, {data} the
# b-files in tests/data.  They run in order: the second sweep is served
# from the cache the first fills.
COMMANDS = [
    ["--version"],
    ["--help"],
    *(["generate", *spec, "--terms", "60", "--format", fmt]
      for spec in (["--p", "7"], ["--variant", "shifted"], ["--variant", "no-zero"])
      for fmt in ("table", "csv", "json", "bfile")),
    ["generate", "--p", "7", "--terms", "60", "--out", "{tmp}/a7.txt"],
    ["analyze", "--p", "7", "--terms", "300", "--near-matches", "--filter-small-primes", "3,5"],
    ["analyze", "--variant", "shifted", "--terms", "300", "--format", "json"],
    *(["sweep", "--p-list", "3,5,7", "--terms", "300", "--cache", "{tmp}/cache",
       "--export-dir", f"{{tmp}}/{run}", "--out", f"{{tmp}}/{run}.txt"]
      for run in ("cold", "warm")),
    ["sweep", "--p-list", "3,5,7,11,41,97,199", "--terms", "300", "--jobs", "2"],
    ["sweep", "--p-list", "1,2,3", "--terms", "300"],
    *(["conjecture", "--id", cid, "--terms", "300"] for cid in ("3.1", "3.2", "5.1", "6.1")),
    ["oeis-check", "--bfile", "{data}/b111273.txt", "--variant", "no-zero", "--terms", "30"],
    ["oeis-check", "--bfile", "{data}/b000217.txt", "--p", "1", "--terms", "31", "--shift", "1",
     "--field", "q"],
    ["oeis-check", "--bfile", "{data}/b113659.txt", "--variant", "no-zero", "--terms", "70",
     "--field", "fixed-points"],
    # flag errors
    ["generate", "--terms", "5"],
    ["generate", "--p", "3", "--terms", "0"],
    ["generate", "--p", "3", "--out", ""],
    ["sweep", "--p-list", "3", "--terms", "50", "--jobs", "0"],
    ["sweep", "--p-list", "abc"],
    ["sweep", "--p-list", "3", "--terms", "50", "--export-dir", "{tmp}/a7.txt"],
    ["analyze", "--p", "7", "--format", "json", "--near-matches"],
    ["oeis-check", "--bfile", "{data}/b111273.txt", "--variant", "no-zero",
     "--sequence-id", "X1"],
    ["generate", "--p", "3", "--bogus"],
    # ceiling errors
    ["generate", "--p", "3", "--terms", "50000001"],
    ["generate", "--p", str(2 ** 62), "--terms", "5"],
    ["sweep", "--p-list", "199,1000000000000000003", "--terms", "3000"],
]


def defined_functions() -> dict:
    """The code object of every function defined at module or class level
    in trifix (methods, static and class methods, property getters),
    mapped to its module-relative name."""
    found = {}
    for info in pkgutil.iter_modules(trifix.__path__):
        module = importlib.import_module(f"trifix.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                for fn in (member, getattr(member, "__func__", None),
                           getattr(member, "fget", None)):
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        found[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return found


def entered_code(commands: list[list[str]]) -> tuple[set, float]:
    """The code objects entered while main runs each command, on this
    thread and on every thread started meanwhile (the pool's feeder thread
    pickles the specs), and the seconds taken."""
    entered = set()

    def on_call(frame, event, arg):
        entered.add(frame.f_code)  # no local trace function: calls only

    previous = sys.gettrace(), threading.gettrace()
    start = time.perf_counter()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        for argv in commands:
            main(argv)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return entered, time.perf_counter() - start


def test_every_function_is_entered_or_allowlisted(capsys, tmp_path, data_dir):
    commands = [[arg.format(tmp=tmp_path, data=data_dir) for arg in argv] for argv in COMMANDS]
    entered, seconds = entered_code(commands)
    capsys.readouterr()
    defined = defined_functions()
    never_entered = {name for code, name in defined.items() if code not in entered}
    assert never_entered == set(ALLOWLIST), f"{len(commands)} commands in {seconds:.2f} s"
