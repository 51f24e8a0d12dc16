"""Committed output corpus: fixed CLI commands and what they print and write.

Each case runs ``epsim.cli.main`` in process, from a directory that holds
copies of ``tests/data`` and ``tests/golden/inputs`` at the same relative
paths, so the echoed ``statefile`` and every ``--out`` path are the
committed ones and nothing is written into the checkout.  Its record,
``tests/golden/<name>.txt``, holds the command, the exit code, the stderr
lines, the stdout report without its ``wall_time_s`` line and the ``--out``
bytes.  ``tests/golden/README.md`` has the comparison rule and how to
rewrite the corpus (``python tests/update_golden.py``).
"""

import contextlib
import io
import json
import math
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epsim.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"
VERSIONS_FILE = GOLDEN_DIR / "versions.json"
# Copied into the working directory of every run, at these relative paths.
INPUT_DIRS = ("tests/data", "tests/golden/inputs")

_DATA = ("shared_double", "shared_single", "vacuum")
_TRANSFER_OPTIONS = {
    "exact": ["--M", "8"],
    "quadrature": ["--M", "8", "--path", "quadrature"],
    "nbar": ["--M", "64", "--nbar", "4"],
    # M < nbar + 10 sqrt(nbar): one warning line, exit 0.
    "clipped": ["--M", "4", "--nbar", "25"],
}
CASES = {
    **{f"ep-{name}": ["ep", f"tests/data/{name}.json", "--out", "out.json"]
       for name in _DATA},
    **{f"transfer-{name}-{option}": ["transfer", f"tests/data/{name}.json", *args,
                                     "--out", "out.json"]
       for name in _DATA for option, args in _TRANSFER_OPTIONS.items()},
    # The README's "Command line" block (its first line is ep-shared_double
    # without --out).
    "readme-ep": ["ep", "tests/data/shared_double.json"],
    "readme-transfer": ["transfer", "tests/data/shared_single.json", "--M", "16",
                        "--out", "register.json"],
    "readme-transfer-quadrature": ["transfer", "tests/data/shared_single.json", "--M", "8",
                                   "--path", "quadrature"],
    "readme-measure": ["measure", "--ntr", "100"],
    "readme-sweep-csv": ["sweep", "--ntr-list", "25,50,100", "--format", "csv",
                         "--out", "sweep.csv"],
    "readme-bounds-nbar": ["bounds", "--seeds", "100", "--s", "256", "--nbar", "25,250"],
    "measure-ntr25-scale10": ["measure", "--ntr", "25", "--local-scale", "10",
                              "--out", "out.json"],
    "measure-ntr1e6-scale1.5": ["measure", "--ntr", "1e6", "--local-scale", "1.5",
                                "--out", "out.json"],
    # The largest accepted reference, stored as its kept span only.
    "measure-ntr1.6e7-scale1": ["measure", "--ntr", "1.6e7", "--local-scale", "1",
                                "--out", "out.json"],
    "sweep-json": ["sweep", "--ntr-list", "25,50,100,1000", "--out", "out.json"],
    "bounds": ["bounds", "--seeds", "10", "--s", "64", "--seed", "3", "--out", "out.json"],
    # A coherent ancilla at the longest truncation, built on its window only.
    "transfer-shared_double-M16777215-nbar1": ["transfer", "tests/data/shared_double.json",
                                               "--M", "16777215", "--nbar", "1"],
    # One sector with amplitudes -0.6 and -0.8i: the register state's --out
    # holds two -0.0 parts, which the exact comparison keeps.
    "transfer-signed_zero": ["transfer", "tests/golden/inputs/signed_zero.json", "--M", "2",
                             "--out", "out.json"],
    # Exit 2: a usage error, a reserved mode id, a mixed total, and five
    # particles that alias on the 2M + 3 = 5 point grid.
    "usage-error": ["transfer", "tests/data/shared_single.json", "--M", "0"],
    "reserved-id": ["transfer", "tests/golden/inputs/reserved_id.json", "--M", "4"],
    "mixed-total": ["transfer", "tests/golden/inputs/mixed_total.json", "--M", "4"],
    "noon5-quadrature": ["transfer", "tests/golden/inputs/noon5.json", "--M", "1",
                         "--path", "quadrature"],
    # Exit 4: --out names a directory.
    "out-is-directory": ["ep", "tests/data/shared_single.json", "--out", "tests/data"],
}

_WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)
# A float as the renderer writes it: with a point, an exponent or both.
_FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+)")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def prepare(workdir: Path) -> None:
    """Copy the input files a case reads under ``workdir``."""
    for rel in INPUT_DIRS:
        shutil.copytree(REPO / rel, workdir / rel)


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m epsim`` with
    ``PYTHONPATH=src``."""
    done = subprocess.run([sys.executable, "-m", "epsim", *argv], capture_output=True,
                          text=True, encoding="utf-8",
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    return done.returncode, done.stdout, done.stderr


def record(argv: list[str], run=in_process) -> str:
    """Run one command in the current directory and return its record."""
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out_path and os.path.isfile(out_path):
        os.remove(out_path)
    code, stdout, stderr = run(argv)
    parts = [f"$ epsim {shlex.join(argv)}\n", f"exit: {code}\n",
             "--- stderr\n", stderr, "--- stdout\n", _WALL_TIME.sub("", stdout)]
    if out_path and os.path.isfile(out_path):
        with open(out_path, encoding="utf-8", newline="") as fh:
            parts += ["--- out\n", fh.read()]
    return "".join(parts)


def _floats_agree(a: str, b: str) -> bool:
    """Agreement to 1e-12 relative, plus one unit of the twelfth printed
    digit (a last-digit flip is above 1e-12 relative); magnitudes below
    1e-12 are rounding noise around zero."""
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    if scale < 1e-12:
        return True
    return abs(x - y) <= 1e-12 * scale + 10.0 ** (math.floor(math.log10(scale)) - 11)


def same_record(expected: str, actual: str, exact: bool) -> bool:
    """Byte equality, or, across Python or numpy versions, the same text
    with every float agreeing (``_floats_agree``)."""
    if exact:
        return expected == actual
    want, got = _FLOAT.split(expected), _FLOAT.split(actual)
    return len(want) == len(got) and all(
        w == g if i % 2 == 0 else _floats_agree(w, g)
        for i, (w, g) in enumerate(zip(want, got)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    prepare(path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_corpus(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    actual = record(CASES[name])
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    exact = json.loads(VERSIONS_FILE.read_text(encoding="utf-8")) == versions()
    assert same_record(expected, actual, exact), (
        f"{name} differs from tests/golden/{name}.txt; if the change is intended, "
        f"rewrite the corpus with python tests/update_golden.py\n{actual}")


@pytest.mark.parametrize("name", ["transfer-shared_single-clipped", "usage-error"])
def test_module_entry_point_writes_the_record(name, workdir, monkeypatch):
    # __main__.py in a fresh process: the exit code, the warning: or error:
    # line, the report and the --out bytes of the in-process run.
    monkeypatch.chdir(workdir)
    assert record(CASES[name], fresh_process) == record(CASES[name])


def test_corpus_holds_exactly_the_cases():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


def test_float_rule():
    assert same_record('"p": 0.5,\n', '"p": 0.5,\n', exact=True)
    assert not same_record('"p": 0.5,\n', '"p": 0.50000000001,\n', exact=True)
    assert same_record('"p": 0.992587398111', '"p": 0.992587398112', exact=False)
    assert not same_record('"p": 0.992587398111', '"p": 0.99258739812', exact=False)
    assert same_record("r: 1.1e-16", "r: -3.4e-17", exact=False)
    # Integers and text compare exactly.
    assert not same_record('"M": 8, "a1"', '"M": 9, "a1"', exact=False)
    assert not same_record("error: a", "error: b", exact=False)
