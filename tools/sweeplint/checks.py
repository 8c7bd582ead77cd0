"""The sweeplint checks, over the frontend-neutral model.

This module owns the declaration-level and token-scan checks, the
suppression audit and the check registry; the dataflow checks live
beside it and are dispatched from run_checks() here: determinism-taint
(taint.py, nondeterminism source->sink dataflow, including unordered-
container iteration order) and protocol-guard (guards.py, epoch
filtering / send-handle pairing / stride stamping).

state-inventory
    Every class or struct with a state list (a VisitState body, see
    src/common/state.h) must list each of its non-static data members
    exactly once. Snapshot, undo capture, the checkpoint codec and the
    fingerprint are all derived from the list, so a member missing from
    it is silently skipped by every one of them — the failure that
    corrupts explorer verdicts after the first backtrack and loses state
    across a warehouse crash. A member listed twice would be saved,
    restored and encoded twice. Tags are not judged here: Fixed is the
    explicit way to keep a member away from every mechanism.

unlabeled-event
    Simulator::Schedule/ScheduleAt calls in src/sim/ and src/verify/
    must use the EventLabel overload (3 arguments): an unlabeled event
    lands on the shared kInternal channel, where the schedule-space
    explorer conservatively treats it as dependent on everything —
    correct but wasteful — and traces lose the channel attribution.

direct-schedule
    Protocol code (src/core/, src/source/) schedules no simulator event
    at all: messages go through sim/network.cc so they carry an
    EventLabel and stay FIFO per link under the explorer.

unordered-arrival
    Channel::UnorderedArrival breaks the per-link FIFO clamp that SWEEP's
    local compensation, the watermark dedup and controlled-mode ordering
    assume; a call outside sim/channel.* must say why it reorders.

raw-thread
    The simulator is single-threaded by design, which is what makes runs
    replayable and schedule enumeration sound. Real threads
    (std::thread/jthread/async, in a body, a return type or a member
    type, spelled out or through a type alias) belong only in
    src/verify/, whose pool runs independent ControlledSystems.

Suppression audit
    `// sweeplint:allow <check> <why>` on a finding's line or in the
    comment block directly above suppresses it; a rationale shorter than
    MIN_RATIONALE_LEN is reported under its check. An annotation that
    names no known check, or that no finding of its (selected) check
    looked up in this run, is reported as stale-suppression.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from model import (
    STATE_LIST_METHOD,
    Diagnostic,
    Field,
    Method,
    Model,
    sort_diagnostics,
)
from tokutil import (
    Token,
    in_scope as _in_scope,
    match_paren as _match_paren,
    split_top_level_args as _split_top_level_args,
    suppressed as _suppressed,
    with_aliases as _with_aliases,
)
from guards import CHECK_GUARD, GUARD_SCOPE, check_protocol_guard
from taint import CHECK_TAINT, TAINT_SCOPE, check_determinism_taint

CHECK_STATE = "state-inventory"
CHECK_EVENT_LABEL = "unlabeled-event"
CHECK_DIRECT_SCHEDULE = "direct-schedule"
CHECK_UNORDERED_ARRIVAL = "unordered-arrival"
CHECK_RAW_THREAD = "raw-thread"
# The label of the suppression audit's findings; not a selectable check.
STALE_SUPPRESSION = "stale-suppression"

# EXEMPT paths stay out of a check even under scope_all: the channel
# model owns UnorderedArrival, and the explorer's pool is the one place
# real threads run.
EXEMPT = {
    CHECK_UNORDERED_ARRIVAL: ("src/sim/channel.",),
    CHECK_RAW_THREAD: ("src/verify/",),
}


# --- state-inventory --------------------------------------------------------


def check_state_inventory(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for name in sorted(model.classes):
        cls = model.classes[name]
        entries = cls.state_list()
        if entries is None or not _in_scope(cls.file, scope):
            continue
        body = cls.methods[STATE_LIST_METHOD]
        listed: Dict[str, List[int]] = {}
        for entry in entries:
            listed.setdefault(entry.member, []).append(entry.line)
        for field_name in sorted(cls.fields):
            field = cls.fields[field_name]
            if field.is_static:
                continue
            lines = listed.get(field_name, [])
            if not lines:
                diags.append(
                    Diagnostic(
                        file=field.file,
                        line=field.line,
                        check=CHECK_STATE,
                        message=(
                            f"class {cls.name}: member '{field.name}' is "
                            "missing from its state list (VisitState); "
                            "snapshot, undo, checkpoint and fingerprint "
                            "would all skip it — list it once, tagged "
                            "Fixed if no mechanism may touch it"
                        ),
                        symbol=field.name,
                    )
                )
            for line in lines[1:]:
                diags.append(
                    Diagnostic(
                        file=body.file,
                        line=line,
                        check=CHECK_STATE,
                        message=(
                            f"class {cls.name}: member '{field.name}' is "
                            f"listed {len(lines)} times in its state list "
                            "(VisitState); list each member exactly once"
                        ),
                        symbol=field.name,
                    )
                )
    return diags


# --- token scans -----------------------------------------------------------

_SCHEDULE_NAMES = ("Schedule", "ScheduleAt")
_THREAD_TYPE = re.compile(r"\bstd\s*::\s*(thread|jthread|async)\b")


def _in_check(check: str, path: str, scope: Optional[Tuple[str, ...]]) -> bool:
    return _in_scope(path, scope) and not any(
        path.startswith(p) for p in EXEMPT.get(check, ())
    )


def _calls(
    model: Model,
    scope: Optional[Tuple[str, ...]],
    check: str,
    names: Tuple[str, ...],
) -> Iterator[Tuple[Method, str, int, List[List[Token]]]]:
    """(body, callee, line, arguments) for every call of one of `names`
    in a body the check covers."""
    for body in model.bodies:
        if not _in_check(check, body.file, scope):
            continue
        tokens = body.tokens
        for i, (t, line) in enumerate(tokens[:-1]):
            if t in names and tokens[i + 1][0] == "(":
                close = _match_paren(tokens, i + 1)
                args = _split_top_level_args(tokens[i + 2 : close])
                yield body, t, line, args


def _report(
    model: Model,
    diags: List[Diagnostic],
    file: str,
    line: int,
    check: str,
    message: str,
) -> None:
    if not _suppressed(model, file, line, check, diags):
        diags.append(
            Diagnostic(file=file, line=line, check=check, message=message)
        )


def check_event_label(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for body, name, line, args in _calls(
        model, scope, CHECK_EVENT_LABEL, _SCHEDULE_NAMES
    ):
        # Simulator's unlabeled overloads delegate to the labeled ones.
        if body.class_name == "Simulator" or len(args) >= 3:
            continue
        _report(
            model, diags, body.file, line, CHECK_EVENT_LABEL,
            f"{name}() called with {len(args)} argument(s) — the "
            "unlabeled overload; events without an EventLabel "
            "land on the shared kInternal channel, losing "
            "channel attribution in traces and forcing the "
            "explorer to treat them as dependent on everything. "
            "Pass an EventLabel, or annotate "
            "'// sweeplint:allow unlabeled-event <why>'",
        )
    return diags


def check_direct_schedule(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for body, name, line, _ in _calls(
        model, scope, CHECK_DIRECT_SCHEDULE, _SCHEDULE_NAMES
    ):
        _report(
            model, diags, body.file, line, CHECK_DIRECT_SCHEDULE,
            f"{name}() called from protocol code; protocol events must "
            "go through sim/network.cc so they carry an EventLabel and "
            "stay FIFO per link under the schedule-space explorer — send "
            "a message, or annotate "
            "'// sweeplint:allow direct-schedule <why>'",
        )
    return diags


def check_unordered_arrival(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for body, _, line, _ in _calls(
        model, scope, CHECK_UNORDERED_ARRIVAL, ("UnorderedArrival",)
    ):
        _report(
            model, diags, body.file, line, CHECK_UNORDERED_ARRIVAL,
            "UnorderedArrival() breaks the per-link FIFO clamp that "
            "SWEEP's local compensation, the watermark dedup and "
            "controlled-mode ordering assume — use NextArrival(), or "
            "annotate '// sweeplint:allow unordered-arrival <why>'",
        )
    return diags


def _thread_in(model: Model, text: str) -> Optional[str]:
    """The std thread facility the text names, directly or through a
    recorded alias (`using Worker = std::thread;`)."""
    for candidate in _with_aliases(model, text):
        m = _THREAD_TYPE.search(candidate)
        if m:
            return m.group(1)
    return None


def check_raw_thread(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    # (file, line) -> the facility named there, from body lines, return
    # and parameter types, member types and namespace-scope variables.
    found: Dict[Tuple[str, int], str] = {}
    decls: List[Field] = list(model.globals)
    for body in model.bodies:
        if not _in_check(CHECK_RAW_THREAD, body.file, scope):
            continue
        decls.extend(body.param_decls)
        lines: Dict[int, List[str]] = {body.line: [body.return_type]}
        for t, line in body.tokens:
            lines.setdefault(line, []).append(t)
        for line in sorted(lines):
            name = _thread_in(model, " ".join(lines[line]))
            if name:
                found.setdefault((body.file, line), name)
    for cls_name in sorted(model.classes):
        decls.extend(model.classes[cls_name].fields.values())
    for decl in decls:
        name = _thread_in(model, decl.type_text)
        if name and _in_check(CHECK_RAW_THREAD, decl.file, scope):
            found.setdefault((decl.file, decl.line), name)
    diags: List[Diagnostic] = []
    for (file, line), name in sorted(found.items()):
        _report(
            model, diags, file, line, CHECK_RAW_THREAD,
            f"std::{name} outside src/verify/: the simulator is "
            "single-threaded by design, and a real thread brings "
            "nondeterminism the replay log cannot capture — keep real "
            "threads in src/verify/'s pool, or annotate "
            "'// sweeplint:allow raw-thread <why>'",
        )
    return diags


# --- suppression audit ------------------------------------------------------


def check_suppressions(
    model: Model, checks: Sequence[str]
) -> List[Diagnostic]:
    """Runs after the checks: an annotation naming an unknown check, or
    one that no finding of its (selected) check looked up, is stale."""
    diags: List[Diagnostic] = []
    for file in sorted(model.allows):
        for line, (check, _) in sorted(model.allows[file].items()):
            if check not in ALL_CHECKS:
                message = (
                    f"sweeplint:allow names unknown check '{check}' "
                    f"(known: {', '.join(sorted(ALL_CHECKS))})"
                )
            elif check in checks and (file, line) not in model.used_allows:
                message = (
                    f"sweeplint:allow {check} suppresses no {check} "
                    "finding here; the flagged code was fixed or moved — "
                    "delete the annotation"
                )
            else:
                continue
            diags.append(
                Diagnostic(
                    file=file,
                    line=line,
                    check=STALE_SUPPRESSION,
                    message=message,
                )
            )
    return diags


# --- registry ---------------------------------------------------------------

# (check, default directory scope as relative-path prefixes, function);
# fixture runs pass scope_all=True instead of the scope.
_CHECKS = (
    (CHECK_STATE, ("src/",), check_state_inventory),
    (CHECK_EVENT_LABEL, ("src/sim/", "src/verify/"), check_event_label),
    (
        CHECK_DIRECT_SCHEDULE,
        ("src/core/", "src/source/"),
        check_direct_schedule,
    ),
    (CHECK_UNORDERED_ARRIVAL, ("src/",), check_unordered_arrival),
    (CHECK_RAW_THREAD, ("src/",), check_raw_thread),
    (CHECK_TAINT, TAINT_SCOPE, check_determinism_taint),
    (CHECK_GUARD, GUARD_SCOPE, check_protocol_guard),
)
ALL_CHECKS = tuple(name for name, _, _ in _CHECKS)


def run_checks(
    model: Model,
    checks: Sequence[str] = ALL_CHECKS,
    scope_all: bool = False,
) -> List[Diagnostic]:
    model.used_allows.clear()
    diags: List[Diagnostic] = []
    for name, scope, check in _CHECKS:
        if name in checks:
            diags.extend(check(model, None if scope_all else scope))
    diags.extend(check_suppressions(model, checks))
    return sort_diagnostics(diags)
