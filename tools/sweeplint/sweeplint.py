#!/usr/bin/env python3
"""sweeplint — AST-level semantic analyzer for the sweepmv tree.

sweeplint is the one enforcer of the tree's protocol and determinism
invariants. It understands declarations: which classes declare a state
list, which members they have, what a method body references. Checks
(see checks.py for the full statements; the two dataflow checks,
determinism-taint and protocol-guard, live in taint.py and guards.py):

  state-inventory         every member of a class with a state list
                          (VisitState) is listed in it exactly once
  unlabeled-event         Schedule()/ScheduleAt() without an EventLabel
                          in src/sim/ and src/verify/
  direct-schedule         any Schedule()/ScheduleAt() in src/core/ and
                          src/source/: messages go through the network
  unordered-arrival       Channel::UnorderedArrival outside sim/channel.*
  raw-thread              std::thread/jthread/async outside src/verify/
  determinism-taint       nondeterministic values and unordered
                          iteration order reaching replay-visible sinks
  protocol-guard          epoch guards, send/handle pairing, stride
                          stamping

Every finding is suppressed the same way, `// sweeplint:allow <check>
<why>` on its line or the comment block above; an annotation that names
no check, or suppresses nothing, is itself reported (stale-suppression).

Frontends (--frontend):
  clang   libclang via clang.cindex, driven by compile_commands.json —
          preprocessed ground truth; what CI runs.
  micro   the bundled zero-dependency parser for this codebase's C++
          subset — what keeps the check a tier-1 ctest everywhere.
  auto    clang if importable, else micro (the default).

Both frontends lower into the same semantic model and share the same
check code, so their diagnostics are byte-identical on this tree; the
golden fixture suite (testdata/ + run_fixtures.py) pins that.

Exit status: 0 clean, 1 diagnostics, 2 usage/environment error,
77 when --skip-unavailable is given and clang.cindex is missing (the
ctest SKIP_RETURN_CODE, so local runs skip instead of fail).

Usage:
  python3 tools/sweeplint/sweeplint.py --root . \
      [--compile-commands build/compile_commands.json] \
      [--frontend auto|clang|micro] [--format text|github] \
      [--checks a,b] [--changed-files GITREF] \
      [--skip-unavailable] [--list-checks]

--changed-files GITREF is the PR-scoped mode: the semantic model is
still built over the FULL tree — every check here is interprocedural,
so analyzing a file subset would silently weaken them — but only
diagnostics landing in src/ files that differ from GITREF are reported.
CI runs PRs diff-scoped against the base branch and the nightly cron
unscoped, so a latent cross-file finding surfaces within a day even if
no PR touches the offending file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod  # noqa: E402
import frontend_micro  # noqa: E402
from model import Diagnostic, Model  # noqa: E402

SKIP_EXIT_CODE = 77


def source_files(root: Path) -> List[str]:
    """Relative paths of every C++ file under src/, sorted."""
    src = root / "src"
    out = []
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cc", ".h"):
            out.append(path.relative_to(root).as_posix())
    return out


def load_files(
    root: Path, rel_paths: List[str], overlay: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    files: Dict[str, str] = {}
    for rel in rel_paths:
        if overlay and rel in overlay:
            files[rel] = overlay[rel]
        else:
            files[rel] = (root / rel).read_text(encoding="utf-8")
    return files


def clang_available() -> bool:
    try:
        import frontend_clang

        return frontend_clang.available()
    except Exception:
        return False


def build_model(
    root: Path,
    rel_paths: List[str],
    frontend: str,
    compile_commands: Optional[Path],
    overlay: Optional[Dict[str, str]] = None,
) -> Model:
    if frontend == "auto":
        frontend = "clang" if clang_available() else "micro"
    if frontend == "clang":
        import frontend_clang

        return frontend_clang.build_model(
            root, rel_paths, compile_commands, overlay
        )
    return frontend_micro.build_model(load_files(root, rel_paths, overlay))


def analyze(
    root: Path,
    frontend: str = "auto",
    compile_commands: Optional[Path] = None,
    overlay: Optional[Dict[str, str]] = None,
    check_names=checks_mod.ALL_CHECKS,
    scope_all: bool = False,
    rel_paths: Optional[List[str]] = None,
) -> List[Diagnostic]:
    if rel_paths is None:
        rel_paths = source_files(root)
    model = build_model(root, rel_paths, frontend, compile_commands, overlay)
    return checks_mod.run_checks(model, check_names, scope_all)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], add_help=True
    )
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json for the clang frontend (default: "
        "<root>/build/compile_commands.json if present)",
    )
    parser.add_argument(
        "--frontend",
        choices=("auto", "clang", "micro"),
        default="auto",
    )
    parser.add_argument(
        "--format", choices=("text", "github"), default="text"
    )
    parser.add_argument(
        "--checks",
        default=",".join(checks_mod.ALL_CHECKS),
        help="comma-separated subset of checks to run",
    )
    parser.add_argument(
        "--changed-files",
        metavar="GITREF",
        default=None,
        help="report only diagnostics in src/ files that differ from "
        "GITREF (git diff --name-only); the model is still built over "
        "the full tree. Exits 0 immediately when nothing under src/ "
        "changed.",
    )
    parser.add_argument(
        "--skip-unavailable",
        action="store_true",
        help=f"exit {SKIP_EXIT_CODE} (ctest skip) instead of falling back "
        "when the clang frontend was requested but clang.cindex is missing",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="print checks and exit"
    )
    args = parser.parse_args()

    if args.list_checks:
        for name in checks_mod.ALL_CHECKS:
            print(name)
        return 0

    selected = tuple(c for c in args.checks.split(",") if c)
    unknown = [c for c in selected if c not in checks_mod.ALL_CHECKS]
    if unknown:
        print(f"sweeplint: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"sweeplint: {root}/src is not a directory", file=sys.stderr)
        return 2

    if args.frontend == "clang" and not clang_available():
        msg = (
            "sweeplint: clang.cindex (libclang python bindings) is not "
            "available"
        )
        if args.skip_unavailable:
            print(
                msg + " — skipping the semantic-frontend run; the bundled "
                "micro frontend covers this tree in the 'sweeplint' test, "
                "and CI runs the clang frontend for real"
            )
            return SKIP_EXIT_CODE
        print(msg + " (install python3-clang, or use --frontend micro)",
              file=sys.stderr)
        return 2

    changed: Optional[set] = None
    if args.changed_files:
        try:
            proc = subprocess.run(
                ["git", "diff", "--name-only", args.changed_files,
                 "--", "src"],
                cwd=root, check=True, capture_output=True, text=True,
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = f": {exc.stderr.strip()}"
            print(
                f"sweeplint: git diff against '{args.changed_files}' "
                f"failed{detail}",
                file=sys.stderr,
            )
            return 2
        changed = {
            line.strip()
            for line in proc.stdout.splitlines()
            if line.strip().endswith((".cc", ".h"))
        }
        if not changed:
            print(
                f"sweeplint: no C++ changes under src/ relative to "
                f"{args.changed_files}; nothing to analyze"
            )
            return 0

    compile_commands = None
    if args.compile_commands:
        compile_commands = Path(args.compile_commands)
    else:
        default_cc = root / "build" / "compile_commands.json"
        if default_cc.is_file():
            compile_commands = default_cc

    diags = analyze(
        root,
        frontend=args.frontend,
        compile_commands=compile_commands,
        check_names=selected,
    )
    if changed is not None:
        # The model above is full-tree on purpose (the checks are
        # interprocedural); only the reporting is diff-scoped.
        diags = [d for d in diags if d.file in changed]
    if not diags:
        frontend = args.frontend
        if frontend == "auto":
            frontend = "clang" if clang_available() else "micro"
        scope = (f", scoped to {len(changed)} changed file(s)"
                 if changed is not None else "")
        print(f"sweeplint: clean ({frontend} frontend, "
              f"{len(selected)} check(s){scope})")
        return 0
    for diag in diags:
        print(diag.github() if args.format == "github" else diag.text())
    print(f"\nsweeplint: {len(diags)} diagnostic(s)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
