#!/usr/bin/env python3
"""Golden-diagnostic suite for sweeplint.

Each testdata/<name>.cc is one minimal translation unit exercising one
diagnostic (positive fixtures) or one suppression/clean shape (empty
goldens). The analyzer runs per fixture with scope_all (no directory
gating) and every check, so each golden also shows that no other check
fires on its fixture. Its text output must match testdata/<name>.golden
byte-for-byte — goldens state the full diagnostic text, so a reworded
message, a shifted line number, or a frontend divergence all fail here.

Run with --frontend micro (anywhere) or --frontend clang (CI): the
goldens are shared, which pins the two frontends to byte-identical
diagnostics.

--update rewrites the goldens from current output (review the diff).
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sweeplint  # noqa: E402

HERE = Path(__file__).resolve().parent
TESTDATA = HERE / "testdata"


def render(diags) -> str:
    if not diags:
        return ""
    return "".join(d.text() + "\n" for d in diags)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--frontend", choices=("clang", "micro"), default="micro"
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite goldens from output"
    )
    args = parser.parse_args()

    if args.frontend == "clang" and not sweeplint.clang_available():
        print("run_fixtures: clang.cindex unavailable")
        return sweeplint.SKIP_EXIT_CODE

    fixtures = sorted(TESTDATA.glob("*.cc"))
    if not fixtures:
        print(f"run_fixtures: no fixtures under {TESTDATA}", file=sys.stderr)
        return 2

    failures = 0
    for fixture in fixtures:
        rel = f"testdata/{fixture.name}"
        diags = sweeplint.analyze(
            HERE,
            frontend=args.frontend,
            rel_paths=[rel],
            scope_all=True,
        )
        actual = render(diags)
        golden_path = fixture.with_suffix(".golden")
        if args.update:
            golden_path.write_text(actual, encoding="utf-8")
            print(f"updated {golden_path.name} ({len(diags)} diagnostic(s))")
            continue
        if not golden_path.is_file():
            print(f"FAIL {fixture.name}: missing {golden_path.name}")
            failures += 1
            continue
        expected = golden_path.read_text(encoding="utf-8")
        if actual == expected:
            print(f"ok   {fixture.name}")
            continue
        failures += 1
        print(f"FAIL {fixture.name}: diagnostics diverge from golden")
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=golden_path.name,
            tofile=f"{args.frontend} output",
        )
        sys.stdout.writelines(diff)
    if args.update:
        return 0
    print(
        f"run_fixtures: {len(fixtures) - failures}/{len(fixtures)} fixtures "
        f"match ({args.frontend} frontend)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
