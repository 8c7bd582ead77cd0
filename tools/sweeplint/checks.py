"""The sweeplint checks, over the frontend-neutral model.

This module owns the declaration-level checks and the check registry;
the dataflow checks live beside it and are dispatched from run_checks()
here: determinism-taint (taint.py, nondeterminism source->sink
dataflow), protocol-guard (guards.py, epoch filtering / send-handle
pairing / stride stamping) and effect-bounds (effects.py).

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

unordered-iteration
    A range-for over a std::unordered_map/unordered_set whose loop feeds
    an order-sensitive sink — it executes inside a serialization/
    snapshot/comparison function, or its body calls into traces, install
    logs or hashes — is order-nondeterministic across libstdc++
    versions and would poison trace goldens and the planned state
    fingerprints. Iterate a sorted copy, or suppress with
    `// sweeplint:allow unordered-iteration <why>`.

unlabeled-event
    Simulator::Schedule/ScheduleAt calls in src/sim/ and src/verify/
    must use the EventLabel overload (3 arguments): an unlabeled event
    lands on the shared kInternal channel, where the schedule-space
    explorer conservatively treats it as dependent on everything —
    correct but wasteful — and traces lose the channel attribution.
    Deliberate harness machinery (e.g. timers) is suppressed with
    `// sweeplint:allow unlabeled-event <why>`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from model import (
    MIN_RATIONALE_LEN,
    STATE_LIST_METHOD,
    Diagnostic,
    Method,
    Model,
    sort_diagnostics,
)
from tokutil import (
    Token,
    UNORDERED_MARKERS as _UNORDERED_MARKERS,
    in_scope as _in_scope,
    is_ident as _is_ident,
    match_paren as _match_paren,
    split_top_level_args as _split_top_level_args,
    suppressed as _suppressed,
    unordered_type,
)
from effects import CHECK_EFFECTS, EFFECTS_SCOPE, check_effect_bounds
from guards import CHECK_GUARD, GUARD_SCOPE, check_protocol_guard
from taint import CHECK_TAINT, TAINT_SCOPE, check_determinism_taint

CHECK_STATE = "state-inventory"
CHECK_UNORDERED = "unordered-iteration"
CHECK_EVENT_LABEL = "unlabeled-event"

ALL_CHECKS = (
    CHECK_STATE,
    CHECK_UNORDERED,
    CHECK_EVENT_LABEL,
    CHECK_TAINT,
    CHECK_GUARD,
    CHECK_EFFECTS,
)

# Default directory scopes (relative-path prefixes) per check; fixture
# runs pass scope_all=True instead.
STATE_SCOPE = ("src/",)
UNORDERED_SCOPE = ("src/",)
EVENT_LABEL_SCOPE = ("src/sim/", "src/verify/")

# Functions whose output is order-sensitive by role: serialization,
# snapshots, comparisons, fingerprints.
SINK_FUNCTIONS = frozenset(
    {
        "SaveState",
        "RestoreState",
        "Fingerprint",
        "ToString",
        "ToDisplayString",
        "Serialize",
        "Hash",
        "operator==",
        "operator<",
        "operator<<",
    }
)

# Identifiers inside a loop body that mark the loop as feeding traces,
# install logs, or hashes.
SINK_IDENTIFIERS = frozenset(
    {
        "Trace",
        "TraceEvent",
        "trace_",
        "Fingerprint",
        "ToDisplayString",
        "ToString",
        "Serialize",
        "RecordInstall",
        "InstallViewDelta",
        "InstallAbsoluteView",
        "Hash",
        "HashCombine",
        "hash_combine",
    }
)

def run_checks(
    model: Model,
    checks: Sequence[str] = ALL_CHECKS,
    scope_all: bool = False,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    if CHECK_STATE in checks:
        scope = None if scope_all else STATE_SCOPE
        diags.extend(check_state_inventory(model, scope))
    if CHECK_UNORDERED in checks:
        scope = None if scope_all else UNORDERED_SCOPE
        diags.extend(check_unordered_iteration(model, scope))
    if CHECK_EVENT_LABEL in checks:
        scope = None if scope_all else EVENT_LABEL_SCOPE
        diags.extend(check_event_label(model, scope))
    if CHECK_TAINT in checks:
        scope = None if scope_all else TAINT_SCOPE
        diags.extend(check_determinism_taint(model, scope))
    if CHECK_GUARD in checks:
        scope = None if scope_all else GUARD_SCOPE
        diags.extend(check_protocol_guard(model, scope))
    if CHECK_EFFECTS in checks:
        scope = None if scope_all else EFFECTS_SCOPE
        diags.extend(check_effect_bounds(model, scope))
    return sort_diagnostics(diags)


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


# --- unordered-iteration ----------------------------------------------------


class _TypeTables:
    """Member/return-type lookup: the enclosing class wins, then a global
    first-writer-wins table over sorted class names (deterministic)."""

    def __init__(self, model: Model) -> None:
        self.members: Dict[str, Dict[str, str]] = {}
        self.returns: Dict[str, Dict[str, str]] = {}
        self.global_members: Dict[str, str] = {}
        self.global_returns: Dict[str, str] = {}
        for name in sorted(model.classes):
            cls = model.classes[name]
            self.members[name] = {
                f.name: f.type_text for f in cls.fields.values()
            }
            self.returns[name] = dict(cls.declared_methods)
            for f in cls.fields.values():
                self.global_members.setdefault(f.name, f.type_text)
            for mname, ret in sorted(cls.declared_methods.items()):
                self.global_returns.setdefault(mname, ret)

    def member_type(self, class_name: str, name: str) -> str:
        own = self.members.get(class_name, {})
        if name in own:
            return own[name]
        return self.global_members.get(name, "")

    def return_type(self, class_name: str, name: str) -> str:
        own = self.returns.get(class_name, {})
        if name in own:
            return own[name]
        return self.global_returns.get(name, "")


def _find_local_unordered(model: Model, tokens: List[Token]) -> Dict[str, str]:
    """Local variables declared with an unordered container type
    (directly or via a recorded alias)."""
    locals_: Dict[str, str] = {}
    for i, (t, _) in enumerate(tokens):
        if not (_is_ident(t) and unordered_type(model, t)):
            continue
        # Skip the template argument list, then take the next identifier.
        j = i + 1
        if j < len(tokens) and tokens[j][0] == "<":
            angle = 0
            while j < len(tokens):
                if tokens[j][0] == "<":
                    angle += 1
                elif tokens[j][0] == ">":
                    angle -= 1
                    if angle == 0:
                        j += 1
                        break
                j += 1
        if j < len(tokens) and _is_ident(tokens[j][0]):
            locals_[tokens[j][0]] = t
    return locals_


def _resolve_range_type(
    expr: List[Token],
    body: Method,
    locals_: Dict[str, str],
    tables: _TypeTables,
) -> str:
    text = " ".join(t for t, _ in expr)
    if any(m in text for m in _UNORDERED_MARKERS):
        return text
    if not expr:
        return ""
    if expr[-1][0] == ")":
        # Trailing call: resolve the callee's declared return type.
        depth = 0
        for i in range(len(expr) - 1, -1, -1):
            t = expr[i][0]
            if t == ")":
                depth += 1
            elif t == "(":
                depth -= 1
                if depth == 0:
                    if i > 0 and _is_ident(expr[i - 1][0]):
                        return tables.return_type(
                            body.class_name, expr[i - 1][0]
                        )
                    return ""
        return ""
    for t, _ in reversed(expr):
        if _is_ident(t):
            if t in locals_:
                return locals_[t]
            return tables.member_type(body.class_name, t)
    return ""


def check_unordered_iteration(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    tables = _TypeTables(model)
    diags: List[Diagnostic] = []
    for body in model.bodies:
        if not _in_scope(body.file, scope):
            continue
        tokens = body.tokens
        locals_ = _find_local_unordered(model, tokens)
        i = 0
        while i < len(tokens):
            if tokens[i][0] != "for":
                i += 1
                continue
            if i + 1 >= len(tokens) or tokens[i + 1][0] != "(":
                i += 1
                continue
            close = _match_paren(tokens, i + 1)
            head = tokens[i + 2 : close]
            colon = None
            depth = 0
            for k, (t, _) in enumerate(head):
                if t in ("(", "[", "{"):
                    depth += 1
                elif t in (")", "]", "}"):
                    depth -= 1
                elif t == ";" and depth == 0:
                    colon = None
                    break
                elif t == ":" and depth == 0 and colon is None:
                    colon = k
            if colon is None:
                i = close + 1
                continue
            expr = head[colon + 1 :]
            for_line = tokens[i][1]
            range_type = _resolve_range_type(expr, body, locals_, tables)
            if not unordered_type(model, range_type):
                i = close + 1
                continue
            # Loop body extent.
            loop_end = close
            if close + 1 < len(tokens) and tokens[close + 1][0] == "{":
                loop_end = _match_paren(tokens, close + 1)
            else:
                loop_end = close + 1
                while loop_end < len(tokens) and tokens[loop_end][0] != ";":
                    loop_end += 1
            loop_idents = {
                t for t, _ in tokens[close + 1 : loop_end + 1] if _is_ident(t)
            }
            sink = None
            if body.name in SINK_FUNCTIONS:
                sink = f"order-sensitive function {body.name}()"
            else:
                hits = sorted(loop_idents & SINK_IDENTIFIERS)
                if hits:
                    sink = f"order-sensitive sink '{hits[0]}'"
            if sink is None:
                i = close + 1
                continue
            expr_text = " ".join(t for t, _ in expr).replace(" :: ", "::")
            if not _suppressed(
                model,
                body,
                for_line,
                CHECK_UNORDERED,
                diags,
                message_if_bare=(
                    "sweeplint:allow unordered-iteration needs a rationale "
                    f"(>= {MIN_RATIONALE_LEN} chars)"
                ),
            ):
                diags.append(
                    Diagnostic(
                        file=body.file,
                        line=for_line,
                        check=CHECK_UNORDERED,
                        message=(
                            f"iteration over unordered container "
                            f"'{expr_text}' flows into {sink}; the visit "
                            "order is implementation-defined — iterate a "
                            "sorted copy, or annotate the loop "
                            "'// sweeplint:allow unordered-iteration <why>'"
                        ),
                    )
                )
            i = close + 1
        # end while
    return diags


# --- unlabeled-event --------------------------------------------------------

_SCHEDULE_NAMES = ("Schedule", "ScheduleAt")


def check_event_label(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for body in model.bodies:
        if not _in_scope(body.file, scope):
            continue
        if body.class_name == "Simulator":
            # The unlabeled overloads delegate to the labeled ones here.
            continue
        tokens = body.tokens
        for i, (t, line) in enumerate(tokens):
            if t not in _SCHEDULE_NAMES:
                continue
            if i + 1 >= len(tokens) or tokens[i + 1][0] != "(":
                continue
            close = _match_paren(tokens, i + 1)
            args = _split_top_level_args(tokens[i + 2 : close])
            if len(args) >= 3:
                continue  # the labeled overload
            if _suppressed(
                model,
                body,
                line,
                CHECK_EVENT_LABEL,
                diags,
                message_if_bare=(
                    "sweeplint:allow unlabeled-event needs a rationale "
                    f"(>= {MIN_RATIONALE_LEN} chars)"
                ),
            ):
                continue
            diags.append(
                Diagnostic(
                    file=body.file,
                    line=line,
                    check=CHECK_EVENT_LABEL,
                    message=(
                        f"{t}() called with {len(args)} argument(s) — the "
                        "unlabeled overload; events without an EventLabel "
                        "land on the shared kInternal channel, losing "
                        "channel attribution in traces and forcing the "
                        "explorer to treat them as dependent on everything. "
                        "Pass an EventLabel, or annotate "
                        "'// sweeplint:allow unlabeled-event <why>'"
                    ),
                )
            )
    return diags
