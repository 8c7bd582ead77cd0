#!/usr/bin/env python3
"""Protocol-invariant lint for the sweepmv source tree.

Clang-tidy catches language-level bugs; this lint catches *protocol*-level
ones — patterns that compile fine but break the invariants the
consistency proofs (and the schedule-space explorer in src/verify/)
depend on. It is deliberately regex-based and conservative: zero
dependencies, runs as a tier-1 ctest, and every suppression is an inline
annotation that must carry a rationale. (Its semantic counterpart,
tools/sweeplint/, checks the declaration-level invariants regexes cannot
see: state-list inventory, unordered-iteration sinks, event labels.)

Rules
-----
view-mutation
    The materialized view may only change through the warehouse's
    delta-application API (InstallViewDelta / InstallAbsoluteView in
    core/warehouse.cc), which snapshots the install log the consistency
    checker replays against. Any other mention of the `view_` member in
    src/core is a bypass: an install the checker never sees.

direct-schedule
    Protocol code (src/core, src/source) must not schedule simulator
    events directly: message events must flow through sim/network.cc so
    they carry an EventLabel and respect per-link FIFO in controlled
    mode. A directly scheduled event is invisible to the schedule-space
    explorer's channel model. (Timers that deliberately bypass the
    network — e.g. the query re-issue timer — must be annotated.)

unordered-arrival
    Channel::UnorderedArrival hands out arrival times that violate the
    per-link FIFO clamp (NextArrival's monotone guarantee). Everything
    downstream — the warehouse's watermark dedup, controlled-mode seq
    ordering, the explorer's independence relation — assumes FIFO per
    link, so any use outside sim/channel.* must be annotated with why
    reordering is intended there.

raw-thread
    The simulator is single-threaded by design: all concurrency in the
    modeled system is *simulated* (interleaved deterministically by the
    event loop), which is what makes runs replayable and the explorer's
    schedule enumeration sound. Real threads (std::thread / std::jthread
    / std::async) are allowed only in src/verify/ — the work-stealing
    pool that parallelizes exploration *across* independent
    ControlledSystems, never inside one. A thread anywhere else
    introduces nondeterminism the replay log cannot capture; if one is
    truly needed, annotate it with why determinism is preserved.

Suppressing
-----------
Append an annotation with a rationale on the offending line (or the line
above):

    network_->simulator()->Schedule(  // lint:allow direct-schedule <why>

A bare `lint:allow <rule>` with no rationale text still fails. So does a
*stale* suppression: a lint:allow that no longer suppresses any match of
its rule (the flagged code was fixed or moved, or the rule name is
unknown) is an error, so dead annotations cannot accumulate.

Usage:  python3 tools/lint_invariants.py [--root REPO_ROOT]
            [--format text|github] [--list-rules] [--self-test]
--format github emits ::error workflow annotations (CI); text stays the
local default. --self-test lints the bundled fixture tree
(tools/testdata/lint_invariants/) and diffs against its golden output.
Exit status: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

# One rule = (name, file predicate, line regex, exempt paths, help).
# Exempt entries ending in "/" are directory prefixes; others match one
# file exactly.
RULES = [
    {
        "name": "view-mutation",
        "dirs": ("src/core",),
        "exempt": ("src/core/warehouse.cc", "src/core/warehouse.h"),
        "pattern": re.compile(r"\bview_(?![A-Za-z0-9_])"),
        "why": (
            "the materialized view must change only through "
            "InstallViewDelta/InstallAbsoluteView so the install log the "
            "consistency checker replays stays complete"
        ),
    },
    {
        "name": "direct-schedule",
        "dirs": ("src/core", "src/source"),
        "exempt": (),
        "pattern": re.compile(
            r"(?:simulator\(\)|sim_)\s*(?:->|\.)\s*Schedule(?:At)?\s*\("
        ),
        "why": (
            "protocol events must go through sim/network.cc so they carry "
            "an EventLabel and stay FIFO per link under the schedule-space "
            "explorer"
        ),
    },
    {
        "name": "unordered-arrival",
        "dirs": ("src",),
        "exempt": ("src/sim/channel.cc", "src/sim/channel.h"),
        "pattern": re.compile(r"\bUnorderedArrival\s*\("),
        "why": (
            "UnorderedArrival breaks the per-link FIFO clamp that the "
            "watermark dedup and controlled-mode ordering assume"
        ),
    },
    {
        "name": "raw-thread",
        "dirs": ("src",),
        "exempt": ("src/verify/",),
        "pattern": re.compile(r"\bstd::(thread|jthread|async)\b"),
        "why": (
            "the simulator is single-threaded by design; real threads "
            "belong only in src/verify/'s work-stealing pool, which "
            "parallelizes across independent ControlledSystems without "
            "breaking replay determinism"
        ),
    },
]

RULE_NAMES = {rule["name"] for rule in RULES}

# The lookbehind keeps sweeplint's own annotation vocabulary
# (`sweeplint:allow <check> <why>`, tools/sweeplint/) from matching as a
# lint:allow with an unknown rule.
ALLOW = re.compile(r"(?<![a-z])lint:allow\s+(?P<rule>[\w-]+)(?P<rationale>.*)")

MIN_RATIONALE_LEN = 8

SELF_TEST_ROOT = Path(__file__).resolve().parent / "testdata" / "lint_invariants"


@dataclasses.dataclass
class Failure:
    rel: str
    line: int  # 1-based
    rule: str
    summary: str  # the offending source line (or annotation), stripped
    detail: str

    def text(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.summary}\n" \
               f"    -> {self.detail}"

    def github(self) -> str:
        return (
            f"::error file={self.rel},line={self.line},"
            f"title=lint_invariants {self.rule}::{self.detail}"
        )


def allowed(rule_name: str, lines: list[str], i: int) -> tuple[bool, str, int]:
    """Checks line i and the contiguous comment block above it for a
    `lint:allow <rule>` annotation. Returns (suppressed, error,
    annotation_line_index or -1); an annotation without a rationale is
    itself an error but still claims the annotation as consulted."""
    candidates = [(i, lines[i])]
    j = i - 1
    while j >= 0 and lines[j].strip().startswith("//"):
        candidates.append((j, lines[j]))
        j -= 1
    for idx, text in candidates:
        m = ALLOW.search(text)
        if m and m.group("rule") == rule_name:
            if len(m.group("rationale").strip()) < MIN_RATIONALE_LEN:
                return False, "lint:allow needs a rationale (>= 8 chars)", idx
            return True, "", idx
    return False, "", -1


def lint_file(path: Path, rel: str, failures: list[Failure]) -> None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        failures.append(Failure(rel, 1, "io", rel, f"unreadable: {err}"))
        return
    # (line index, rule) pairs of annotations some match consulted — the
    # rest are stale.
    used: set[tuple[int, str]] = set()
    for rule in RULES:
        if not any(rel.startswith(d + "/") for d in rule["dirs"]):
            continue
        if any(
            rel.startswith(e) if e.endswith("/") else rel == e
            for e in rule["exempt"]
        ):
            continue
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0] if "lint:allow" not in line else line
            if not rule["pattern"].search(code):
                continue
            ok, err, ann_idx = allowed(rule["name"], lines, i)
            if ann_idx >= 0:
                used.add((ann_idx, rule["name"]))
            if ok:
                continue
            detail = err if err else rule["why"]
            failures.append(
                Failure(rel, i + 1, rule["name"], line.strip(), detail)
            )
    # Stale-suppression pass: every lint:allow must have been consulted by
    # a real match of its rule in this file.
    for i, line in enumerate(lines):
        m = ALLOW.search(line)
        if not m:
            continue
        rule_name = m.group("rule")
        if rule_name not in RULE_NAMES:
            failures.append(
                Failure(
                    rel, i + 1, "stale-suppression", line.strip(),
                    f"lint:allow names unknown rule '{rule_name}' "
                    f"(known: {', '.join(sorted(RULE_NAMES))})",
                )
            )
            continue
        if (i, rule_name) not in used:
            failures.append(
                Failure(
                    rel, i + 1, "stale-suppression", line.strip(),
                    f"lint:allow {rule_name} no longer suppresses any "
                    "match of that rule here; the flagged code was fixed "
                    "or moved — delete the annotation",
                )
            )


def run(root: Path, out_format: str) -> int:
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2

    failures: list[Failure] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(root).as_posix()
        lint_file(path, rel, failures)

    if failures:
        if out_format == "github":
            for failure in failures:
                print(failure.github())
            print(f"lint_invariants: {len(failures)} violation(s)")
        else:
            print(f"lint_invariants: {len(failures)} violation(s)\n")
            for failure in failures:
                print(failure.text())
        return 1
    print("lint_invariants: clean")
    return 0


def self_test() -> int:
    """Lints the bundled fixture tree and byte-diffs against its golden.

    The fixtures pin each failure mode — including the stale-suppression
    detection — so changes to the lint itself are regression-tested the
    same way sweeplint's checks are."""
    import difflib
    import io

    golden_path = SELF_TEST_ROOT / "expected.txt"
    if not golden_path.is_file():
        print(f"self-test: missing golden {golden_path}", file=sys.stderr)
        return 2
    capture = io.StringIO()
    stdout = sys.stdout
    sys.stdout = capture
    try:
        status = run(SELF_TEST_ROOT, "text")
    finally:
        sys.stdout = stdout
    actual = capture.getvalue()
    expected = golden_path.read_text(encoding="utf-8")
    if status == 1 and actual == expected:
        print("lint_invariants --self-test: ok")
        return 0
    print("lint_invariants --self-test: output diverges from golden")
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile="expected.txt",
            tofile=f"actual (exit {status})",
        )
    )
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="github emits ::error workflow annotations",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rules and exit"
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="lint the bundled fixture tree and diff against its golden",
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule['name']}: {rule['why']}")
        return 0

    if args.self_test:
        return self_test()

    return run(Path(args.root).resolve(), args.format)


if __name__ == "__main__":
    sys.exit(main())
