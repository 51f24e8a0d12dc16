"""Rewrite the committed output corpus in tests/golden/.

Run from anywhere, after a change that alters an output on purpose:

    PYTHONPATH=src python tests/update_golden.py

It runs every case of ``test_golden.CASES`` and writes its record, and the
running Python and numpy versions, which decide the comparison rule.
"""

import json
import os
import tempfile
from pathlib import Path

from test_golden import CASES, GOLDEN_DIR, VERSIONS_FILE, prepare, record, versions


def main() -> None:
    for stale in GOLDEN_DIR.glob("*.txt"):
        stale.unlink()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        os.chdir(tmp)
        try:
            for name, argv in sorted(CASES.items()):
                (GOLDEN_DIR / f"{name}.txt").write_text(record(argv), encoding="utf-8",
                                                        newline="")
        finally:
            os.chdir(home)
    VERSIONS_FILE.write_text(json.dumps(versions(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} records to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
