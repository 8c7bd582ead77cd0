"""determinism-taint: flow-sensitive nondeterminism dataflow analysis.

The paper's compensation proofs — and everything layered on them: trace
goldens, schedule-space fingerprints, byte-identical sharded views,
checkpoint replay — assume the system is a deterministic function of the
update stream. This check models where nondeterminism *enters* and
whether it can *reach* a determinism-critical output.

Sources (kind "value" — the value itself differs run to run):
  * unseeded RNG: rand/random/std::random_device
  * wall-clock: system_clock/steady_clock/high_resolution_clock/
    gettimeofday
  * thread identity: std::this_thread::get_id, pthread_self
  * pointer identity: reinterpret_cast<uintptr_t|intptr_t>(...),
    std::hash over a pointer type

Source (kind "order" — the visited *sequence* differs, the value set
does not): the loop variable of a range-for over std::unordered_map/
unordered_set. Order taint only propagates through order-sensitive
operations — plain assignment, push_back/append-style sequence growth,
stream insertion (`os << x`) — and dies at commutative ones (+=, |=,
&=, ^= on numeric targets, keyed `m[k] = v` writes, set/map insert),
which is exactly why the sorted-copy idiom and commutative reductions
stay clean.

Propagation is intra-procedurally flow-sensitive (a linear scan that
kills on clean reassignment) and inter-procedural through fixpoint
function summaries: a function that returns a tainted value, forwards a
parameter to its return, or forwards a parameter into a sink transfers
taint across exactly the "laundered through a helper" hop the mutation
smoke seeds. std::sort/std::stable_sort sanitize their argument.

Sinks: arguments of Simulator::Schedule/ScheduleAt, the shard routing
hash (RoutingHash/RoutingHashTuple/OwnerShard), state fingerprints
(Fingerprint/Hash/HashCombine/hash_combine), trace output (Trace/
TraceEvent, any call through a `trace_` member), serialization and
display (Serialize/ToString/ToDisplayString, CheckpointWriter::Write*),
view installs (InstallViewDelta/InstallAbsoluteView/RecordInstall), and
query-id assignment (any `*query_id*` lvalue); plus the return value of
every function whose result is order-sensitive by role (fingerprints,
hashes, serialization, snapshots, comparisons, stream output).
Diagnostics carry the full source→sink path with file:line steps.

Suppress at the sink line with `// sweeplint:allow determinism-taint
<why>`; an allow on the *source* line silences every flow out of that
source, so justifying an unordered walk once covers all its sinks.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from model import Diagnostic, Method, Model
from tokutil import (
    Token,
    allowed_quietly,
    in_scope,
    is_ident,
    match_paren,
    split_top_level_args,
    suppressed,
    unordered_type,
    UNORDERED_MARKERS,
)

CHECK_TAINT = "determinism-taint"
TAINT_SCOPE = ("src/",)

# --- source vocabulary ------------------------------------------------------

SOURCE_IDENTS = {
    "rand": "unseeded RNG ('rand')",
    "random": "unseeded RNG ('random')",
    "random_device": "unseeded RNG ('std::random_device')",
    "system_clock": "wall-clock ('std::chrono::system_clock')",
    "steady_clock": "wall-clock ('std::chrono::steady_clock')",
    "high_resolution_clock": "wall-clock ('std::chrono::high_resolution_clock')",
    "gettimeofday": "wall-clock ('gettimeofday')",
    "pthread_self": "thread identity ('pthread_self')",
}

_POINTER_CAST_TARGETS = ("uintptr_t", "intptr_t")

# --- sink vocabulary --------------------------------------------------------

_CHECKPOINT_WRITERS = (
    "WriteU8", "WriteBool", "WriteI32", "WriteI64", "WriteU64", "WriteF64",
    "WriteString", "WriteValue", "WriteTuple", "WriteSchema",
    "WriteRelation",
)

SINK_CALLS: Dict[str, str] = {
    "Schedule": "a Simulator::Schedule() argument",
    "ScheduleAt": "a Simulator::ScheduleAt() argument",
    "RoutingHash": "the shard routing hash (RoutingHash())",
    "RoutingHashTuple": "the shard routing hash (RoutingHashTuple())",
    "OwnerShard": "shard ownership (OwnerShard())",
    "Fingerprint": "a state fingerprint (Fingerprint())",
    "HashCombine": "a state fingerprint (HashCombine())",
    "hash_combine": "a state fingerprint (hash_combine())",
    "Hash": "a state fingerprint (Hash())",
    "Trace": "trace output (Trace())",
    "TraceEvent": "trace output (TraceEvent())",
    "Serialize": "serialization (Serialize())",
    "ToString": "display output (ToString())",
    "ToDisplayString": "display output (ToDisplayString())",
    "InstallViewDelta": "a view install (InstallViewDelta())",
    "InstallAbsoluteView": "a view install (InstallAbsoluteView())",
    "RecordInstall": "the install log (RecordInstall())",
}
for _w in _CHECKPOINT_WRITERS:
    SINK_CALLS[_w] = f"checkpoint serialization ({_w}())"

# Any call through this member (`trace_.steps.push_back(x)`) is trace
# output.
_TRACE_MEMBER = "trace_"

_ASSIGN_OPS = (
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
)
# Compound ops whose aggregate result does not depend on operand order
# (numeric reductions). '+=' on a string/sequence target concatenates —
# order-sensitive — which _order_propagating_target() special-cases.
_COMMUTATIVE_OPS = {"+=", "-=", "*=", "&=", "|=", "^="}

_ORDER_MUTATORS = {"push_back", "emplace_back", "append", "push",
                   "push_front"}
_KEYED_MUTATORS = {"insert", "emplace"}

_SEQUENCE_TYPE_MARKERS = ("string", "vector", "deque", "list")

# A statement whose tokens before any '(' are type tokens and then a
# name declares a local without '=' (`std::string out;`, `T x(args);`),
# unless it opens with one of _NOT_DECL (`return x;`, `delete p;`).
_DECL_TYPE_PUNCT = {"::", "<", ">", ">>", ",", "*", "&", "&&"}
_DECL_NAME_AFTER = {">", ">>", "*", "&", "&&"}
_NOT_DECL = {"return", "else", "throw", "delete"}

# Functions whose *return value* is determinism-critical by role: a
# tainted return is itself a sink, even before any caller forwards it.
RETURN_SINK_FUNCTIONS = frozenset(
    {
        "Fingerprint",
        "Hash",
        "RoutingHash",
        "RoutingHashTuple",
        "OwnerShard",
        "Serialize",
        "ToString",
        "ToDisplayString",
        "SaveState",
        "RestoreState",
        "operator==",
        "operator<",
        "operator<<",
    }
)

_MAX_STEPS = 6
_MAX_ORIGINS = 4
_MAX_ROUNDS = 8


@dataclasses.dataclass(frozen=True)
class Origin:
    """One concrete nondeterminism source plus the path taken so far."""

    kind: str  # "value" | "order"
    desc: str  # human label of the source
    steps: Tuple[Tuple[str, str, int], ...]  # (label, file, line)

    def source_site(self) -> Tuple[str, int]:
        return self.steps[0][1], self.steps[0][2]

    def extended(self, label: str, file: str, line: int) -> "Origin":
        if len(self.steps) >= _MAX_STEPS:
            return self
        last = self.steps[-1]
        if (last[1], last[2]) == (file, line) and last[0] == label:
            return self
        return Origin(self.kind, self.desc, self.steps + ((label, file, line),))

    def identity(self) -> Tuple[str, str, str, int]:
        return (self.kind, self.desc) + self.steps[0][1:]


@dataclasses.dataclass(frozen=True)
class ParamOrigin:
    """Abstract taint of parameter `index` (summary computation)."""

    index: int


@dataclasses.dataclass
class Summary:
    """Interprocedural behavior of one function body."""

    returns: Tuple[Origin, ...] = ()
    returns_params: frozenset = frozenset()
    # param index -> (sink description, sink file, sink line)
    param_sinks: Dict[int, Tuple[str, str, int]] = dataclasses.field(
        default_factory=dict
    )

    def key(self):
        return (
            tuple(o.identity() for o in self.returns),
            self.returns_params,
            tuple(sorted(self.param_sinks.items())),
        )


class _Ctx:
    def __init__(self, model: Model) -> None:
        self.model = model
        # Deterministic member/local type lookup (class tables).
        self.member_types: Dict[str, Dict[str, str]] = {}
        self.class_fields: Dict[str, Set[str]] = {}
        self.global_members: Dict[str, str] = {}
        self.method_returns: Dict[str, Dict[str, str]] = {}
        self.global_returns: Dict[str, str] = {}
        for name in sorted(model.classes):
            cls = model.classes[name]
            self.member_types[name] = {
                f.name: f.type_text for f in cls.fields.values()
            }
            self.class_fields[name] = set(cls.fields)
            for f in cls.fields.values():
                self.global_members.setdefault(f.name, f.type_text)
            self.method_returns[name] = dict(cls.declared_methods)
            for mname, ret in sorted(cls.declared_methods.items()):
                self.global_returns.setdefault(mname, ret)
        # Function summaries, keyed (class_name, fn_name); bare-name
        # fallback is the sorted-first key (deterministic).
        self.summaries: Dict[Tuple[str, str], Summary] = {}
        self.by_name: Dict[str, List[Tuple[str, str]]] = {}
        # (class_name, field_name) -> origins assigned somewhere.
        self.field_taint: Dict[Tuple[str, str], Tuple[Origin, ...]] = {}

    def member_type(self, class_name: str, name: str) -> str:
        own = self.member_types.get(class_name, {})
        if name in own:
            return own[name]
        return self.global_members.get(name, "")

    def return_type(self, class_name: str, name: str) -> str:
        own = self.method_returns.get(class_name, {})
        if name in own:
            return own[name]
        return self.global_returns.get(name, "")

    def summary_for(self, class_name: str, fn: str) -> Optional[Summary]:
        key = (class_name, fn)
        if key in self.summaries:
            return self.summaries[key]
        keys = self.by_name.get(fn)
        if keys:
            return self.summaries.get(keys[0])
        return None


def _merge_origins(
    cur: Tuple, extra: Sequence
) -> Tuple:
    """Union by source identity (param index / source site), insertion
    order preserved, capped — keeps the fixpoint monotone and finite."""
    out = list(cur)
    seen = set()
    for o in out:
        seen.add(o.identity() if isinstance(o, Origin) else ("p", o.index))
    for o in extra:
        ident = o.identity() if isinstance(o, Origin) else ("p", o.index)
        if ident in seen or len(out) >= _MAX_ORIGINS:
            continue
        seen.add(ident)
        out.append(o)
    return tuple(out)


def _receiver(stmt: List[Token], i: int) -> List[str]:
    """The member chain a call at stmt[i] is made through, innermost
    first (`a.b->c(...)` gives ['b', 'a'])."""
    chain: List[str] = []
    while (
        i >= 2 and stmt[i - 1][0] in (".", "->") and is_ident(stmt[i - 2][0])
    ):
        chain.append(stmt[i - 2][0])
        i -= 2
    return chain


def _source_origins_in(
    expr: List[Token], body: Method
) -> List[Origin]:
    """Fresh value-kind origins from source patterns inside `expr`."""
    out: List[Origin] = []
    for i, (t, line) in enumerate(expr):
        if t in SOURCE_IDENTS:
            out.append(Origin("value", SOURCE_IDENTS[t],
                              ((SOURCE_IDENTS[t], body.file, line),)))
            continue
        if (
            t == "get_id"
            and i >= 2
            and expr[i - 2][0] == "this_thread"
        ):
            desc = "thread identity ('std::this_thread::get_id')"
            out.append(Origin("value", desc, ((desc, body.file, line),)))
            continue
        if (
            t == "reinterpret_cast"
            and i + 2 < len(expr)
            and expr[i + 1][0] == "<"
            and expr[i + 2][0] in _POINTER_CAST_TARGETS
        ):
            desc = f"pointer identity ('reinterpret_cast<{expr[i + 2][0]}>')"
            out.append(Origin("value", desc, ((desc, body.file, line),)))
            continue
        if t == "hash" and i + 1 < len(expr) and expr[i + 1][0] == "<":
            angle = 0
            star = False
            for j in range(i + 1, len(expr)):
                tj = expr[j][0]
                if tj == "<":
                    angle += 1
                elif tj == ">":
                    angle -= 1
                    if angle == 0:
                        break
                elif tj == "*":
                    star = True
            if star:
                desc = "pointer hash ('std::hash' over a pointer type)"
                out.append(Origin("value", desc, ((desc, body.file, line),)))
    return out


class _BodyScan:
    """One flow-sensitive pass over a method body."""

    def __init__(
        self,
        body: Method,
        ctx: _Ctx,
        emit: Optional[List[Diagnostic]],
        scope: Optional[Tuple[str, ...]],
    ) -> None:
        self.body = body
        self.ctx = ctx
        self.emit = emit
        self.scope = scope
        self.env: Dict[str, Tuple] = {}
        # Local name -> declared type text, recorded as declarations are
        # scanned.
        self.local_types: Dict[str, str] = {}
        # Reference locals bound to a member (`auto& v = member_;`):
        # writes through the local taint the member itself.
        self.ref_alias: Dict[str, str] = {}
        self.summary = Summary()
        self.emitted: Set[Tuple] = set()
        # Seed parameters (abstract) and tainted fields of this class.
        for idx, pname in enumerate(body.params):
            if pname:
                self.env[pname] = (ParamOrigin(idx),)
        fields = ctx.class_fields.get(body.class_name, set())
        for fname in sorted(fields):
            origins = ctx.field_taint.get((body.class_name, fname))
            if origins:
                self.env[fname] = _merge_origins(
                    self.env.get(fname, ()), origins
                )

    # -- expression evaluation ----------------------------------------------

    def expr_origins(self, expr: List[Token]) -> Tuple:
        origins: List = []
        for tok, _ in expr:
            if is_ident(tok) and tok in self.env:
                origins.extend(self.env[tok])
        origins.extend(_source_origins_in(expr, self.body))
        # Calls whose summaries transfer taint.
        i = 0
        while i < len(expr):
            tok, line = expr[i]
            if (
                is_ident(tok)
                and i + 1 < len(expr)
                and expr[i + 1][0] == "("
            ):
                summary = self.ctx.summary_for(self.body.class_name, tok)
                if summary is not None:
                    close = match_paren(expr, i + 1)
                    args = split_top_level_args(expr[i + 2 : close])
                    for o in summary.returns:
                        origins.append(
                            o.extended(f"{tok}() return", self.body.file,
                                       line)
                        )
                    for j in summary.returns_params:
                        if j < len(args):
                            for o in self._arg_idents_origins(args[j]):
                                if isinstance(o, Origin):
                                    origins.append(
                                        o.extended(f"through {tok}()",
                                                   self.body.file, line)
                                    )
                                else:
                                    origins.append(o)
                    i = close
            i += 1
        return _merge_origins((), origins)

    def _arg_idents_origins(self, arg: List[Token]) -> Tuple:
        origins: List = []
        for tok, _ in arg:
            if is_ident(tok) and tok in self.env:
                origins.extend(self.env[tok])
        origins.extend(_source_origins_in(arg, self.body))
        return _merge_origins((), origins)

    # -- diagnostics ---------------------------------------------------------

    def _emit_sink(
        self,
        line: int,
        sink_text: str,
        origin: Origin,
        extra_steps: Tuple[Tuple[str, str, int], ...] = (),
    ) -> None:
        if self.emit is None:
            return
        if not in_scope(self.body.file, self.scope):
            return
        src_file, src_line = origin.source_site()
        key = (self.body.file, line, sink_text, origin.desc, src_line)
        if key in self.emitted:
            return
        self.emitted.add(key)
        # An allow on the source line silences every flow out of that
        # source.
        if allowed_quietly(self.ctx.model, src_file, src_line, CHECK_TAINT):
            return
        steps = origin.steps[1:] + extra_steps
        via = ""
        if steps:
            via = " via " + " -> ".join(
                f"{label} ({file}:{ln})" for label, file, ln in steps
            )
        if not suppressed(
            self.ctx.model, self.body.file, line, CHECK_TAINT, self.emit
        ):
            self.emit.append(
                Diagnostic(
                    file=self.body.file,
                    line=line,
                    check=CHECK_TAINT,
                    message=(
                        f"nondeterministic value flows into {sink_text}: "
                        f"{origin.desc} at {src_file}:{src_line}{via} — "
                        "derive the value from update content or seeded "
                        "state (sort unordered iterations first), or "
                        "annotate "
                        "'// sweeplint:allow determinism-taint <why>'"
                    ),
                )
            )

    # -- statement handling --------------------------------------------------

    def _order_propagating_target(self, target: str) -> bool:
        """'+=' concatenates (order-sensitive) on sequence targets."""
        type_text = self.local_types.get(target) or self.ctx.member_type(
            self.body.class_name, target
        )
        return any(m in type_text for m in _SEQUENCE_TYPE_MARKERS)

    def _handle_range_for(self, stmt: List[Token]) -> List[Token]:
        """Taints range-for loop variables; returns the statement tail
        after the for-header (the unbraced loop body, if any)."""
        for i in range(len(stmt) - 1):
            if stmt[i][0] == "for" and stmt[i + 1][0] == "(":
                close = match_paren(stmt, i + 1)
                head = stmt[i + 2 : close]
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
                    return stmt[close + 1 :]
                decl = head[:colon]
                expr = head[colon + 1 :]
                loop_vars = [
                    t
                    for t, _ in decl
                    if is_ident(t) and t not in ("const", "auto")
                ]
                line = stmt[i][1]
                expr_text = " ".join(t for t, _ in expr)
                for sep in ("::", ".", "->"):
                    expr_text = expr_text.replace(f" {sep} ", sep)
                range_type = self._range_type(expr)
                origins: List = []
                if unordered_type(self.ctx.model, range_type):
                    desc = (
                        "unordered-container iteration order "
                        f"('{expr_text}')"
                    )
                    origins.append(
                        Origin("order", desc,
                               ((desc, self.body.file, line),))
                    )
                origins.extend(self.expr_origins(expr))
                if origins:
                    for var in loop_vars:
                        self.env[var] = _merge_origins((), [
                            o.extended(f"'{var}'", self.body.file, line)
                            if isinstance(o, Origin) else o
                            for o in origins
                        ])
                return stmt[close + 1 :]
        return stmt

    def _range_type(self, expr: List[Token]) -> str:
        text = " ".join(t for t, _ in expr)
        if any(m in text for m in UNORDERED_MARKERS):
            return text
        if expr and expr[-1][0] == ")":
            # Trailing call: resolve the callee's declared return type
            # (e.g. `update.delta.entries()` -> `RowRange`).
            depth = 0
            for i in range(len(expr) - 1, -1, -1):
                t = expr[i][0]
                if t == ")":
                    depth += 1
                elif t == "(":
                    depth -= 1
                    if depth == 0:
                        if i > 0 and is_ident(expr[i - 1][0]):
                            return self.ctx.return_type(
                                self.body.class_name, expr[i - 1][0]
                            )
                        return ""
            return ""
        for t, _ in reversed(expr):
            if is_ident(t):
                if t in self.local_types:
                    return self.local_types[t]
                return self.ctx.member_type(self.body.class_name, t)
        return ""

    def _handle_sort(self, stmt: List[Token]) -> None:
        for i in range(len(stmt) - 1):
            if stmt[i][0] in ("sort", "stable_sort") and stmt[i + 1][0] == "(":
                close = match_paren(stmt, i + 1)
                args = split_top_level_args(stmt[i + 2 : close])
                if args:
                    for tok, _ in args[0]:
                        if is_ident(tok):
                            self.env.pop(tok, None)
                            break

    def _handle_declaration(self, stmt: List[Token]) -> None:
        """Records the type of a local declared without '=', so '+=' on
        a string built that way reads as concatenation."""
        texts = [t for t, _ in stmt]
        decl = texts[: texts.index("(")] if "(" in texts else texts
        if (
            len(decl) < 2
            or decl[0] in _NOT_DECL
            or not is_ident(decl[-1])
            or not (is_ident(decl[-2]) or decl[-2] in _DECL_NAME_AFTER)
        ):
            return
        if all(
            is_ident(t) or t.isdigit() or t in _DECL_TYPE_PUNCT
            for t in decl[:-1]
        ):
            self.local_types.setdefault(decl[-1], " ".join(decl[:-1]))

    def _handle_assignment(self, stmt: List[Token]) -> None:
        depth = 0
        op_idx = None
        for i, (t, _) in enumerate(stmt):
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0 and t in _ASSIGN_OPS:
                op_idx = i
                break
        if op_idx is None:
            return
        op = stmt[op_idx][0]
        lhs, rhs = stmt[:op_idx], stmt[op_idx + 1 :]
        target = ""
        target_line = stmt[op_idx][1]
        indexed = False
        depth = 0
        idents_before = []
        for t, ln in lhs:
            if t in ("(", "["):
                depth += 1
                if t == "[" and depth == 1:
                    indexed = True
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0 and is_ident(t) and t != "this":
                target = t
                target_line = ln
                idents_before.append(t)
        if not target:
            return
        if len(idents_before) >= 2 and "." not in [t for t, _ in lhs]:
            # Local declaration with initializer: record its type.
            self.local_types.setdefault(
                target,
                " ".join(t for t, _ in lhs if t != target),
            )
            # Reference binding to a member: the local is the member.
            if any(t == "&" for t, _ in lhs) and "(" not in [
                t for t, _ in rhs
            ]:
                rhs_root = next(
                    (t for t, _ in rhs if is_ident(t)), None
                )
                if rhs_root is not None and rhs_root in (
                    self.ctx.class_fields.get(self.body.class_name, set())
                ):
                    self.ref_alias[target] = rhs_root
                    if rhs_root in self.env:
                        self.env[target] = _merge_origins(
                            self.env.get(target, ()), self.env[rhs_root]
                        )
        rhs_origins = self.expr_origins(rhs)
        kept: List = []
        for o in rhs_origins:
            if isinstance(o, ParamOrigin):
                kept.append(o)
                continue
            if o.kind == "order":
                if indexed:
                    continue  # keyed writes commute
                if op in _COMMUTATIVE_OPS and not (
                    op == "+=" and self._order_propagating_target(target)
                ):
                    continue  # numeric reduction commutes
            kept.append(o.extended(f"'{target}'", self.body.file,
                                   target_line))
        if kept:
            base = self.env.get(target, ()) if op != "=" or indexed else ()
            self.env[target] = _merge_origins(base, kept)
            concrete = tuple(
                o for o in self.env[target] if isinstance(o, Origin)
            )
            field_target = self.ref_alias.get(target, target)
            if concrete and field_target in self.ctx.class_fields.get(
                self.body.class_name, set()
            ):
                key = (self.body.class_name, field_target)
                self.ctx.field_taint[key] = _merge_origins(
                    self.ctx.field_taint.get(key, ()), concrete
                )
            if "query_id" in target:
                for o in concrete:
                    self._emit_sink(
                        target_line,
                        f"query-id assignment ('{target}')",
                        o,
                    )
        elif op == "=" and not indexed:
            self.env.pop(target, None)

    def _handle_mutators(self, stmt: List[Token]) -> None:
        for i in range(2, len(stmt) - 1):
            t = stmt[i][0]
            if (
                t in _ORDER_MUTATORS or t in _KEYED_MUTATORS
            ) and stmt[i + 1][0] == "(" and stmt[i - 1][0] in (".", "->"):
                base = stmt[i - 2][0]
                if not is_ident(base):
                    continue
                close = match_paren(stmt, i + 1)
                origins = self._arg_idents_origins(stmt[i + 2 : close])
                kept: List = []
                for o in origins:
                    if isinstance(o, ParamOrigin):
                        kept.append(o)
                    elif o.kind == "order" and t in _KEYED_MUTATORS:
                        continue  # set/map insert commutes
                    else:
                        kept.append(
                            o.extended(f"'{base}'", self.body.file,
                                       stmt[i][1])
                        )
                if kept:
                    self.env[base] = _merge_origins(
                        self.env.get(base, ()), kept
                    )
                    concrete = tuple(
                        o for o in self.env[base] if isinstance(o, Origin)
                    )
                    field_base = self.ref_alias.get(base, base)
                    if concrete and field_base in self.ctx.class_fields.get(
                        self.body.class_name, set()
                    ):
                        key = (self.body.class_name, field_base)
                        self.ctx.field_taint[key] = _merge_origins(
                            self.ctx.field_taint.get(key, ()), concrete
                        )

    def _handle_calls(self, stmt: List[Token]) -> None:
        i = 0
        while i < len(stmt) - 1:
            tok, line = stmt[i]
            if not (is_ident(tok) and stmt[i + 1][0] == "("):
                i += 1
                continue
            close = match_paren(stmt, i + 1)
            args = split_top_level_args(stmt[i + 2 : close])
            sink = SINK_CALLS.get(tok)
            if sink is None and _TRACE_MEMBER in _receiver(stmt, i):
                sink = f"trace output (a call through '{_TRACE_MEMBER}')"
            if sink is not None:
                for arg in args:
                    for o in self.expr_origins(arg):
                        if isinstance(o, Origin):
                            self._emit_sink(line, sink, o)
                        else:
                            self.summary.param_sinks.setdefault(
                                o.index, (sink, self.body.file, line)
                            )
            else:
                summary = self.ctx.summary_for(self.body.class_name, tok)
                if summary is not None and summary.param_sinks:
                    for j, sink in sorted(summary.param_sinks.items()):
                        if j >= len(args):
                            continue
                        for o in self.expr_origins(args[j]):
                            if isinstance(o, Origin):
                                self._emit_sink(
                                    line,
                                    sink[0],
                                    o,
                                    extra_steps=(
                                        (f"passed to {tok}()",
                                         self.body.file, line),
                                        (f"reaches {sink[0]}",
                                         sink[1], sink[2]),
                                    ),
                                )
                            else:
                                self.summary.param_sinks.setdefault(
                                    o.index, sink
                                )
            i = close + 1

    def _handle_insertion(self, stmt: List[Token]) -> None:
        """`os << a << b;` appends to the stream `os` in sequence."""
        if len(stmt) < 3 or not is_ident(stmt[0][0]) or stmt[1][0] != "<<":
            return
        target, line = stmt[0]
        kept = [
            o.extended(f"'{target}'", self.body.file, line)
            if isinstance(o, Origin) else o
            for o in self.expr_origins(stmt[2:])
        ]
        if kept:
            self.env[target] = _merge_origins(self.env.get(target, ()), kept)

    def _handle_return(self, stmt: List[Token]) -> None:
        if not stmt or stmt[0][0] != "return":
            return
        line = stmt[0][1]
        origins = self.expr_origins(stmt[1:])
        for o in origins:
            if isinstance(o, ParamOrigin):
                self.summary.returns_params = (
                    self.summary.returns_params | {o.index}
                )
            else:
                if self.body.name in RETURN_SINK_FUNCTIONS:
                    self._emit_sink(
                        line,
                        "the return value of order-sensitive function "
                        f"{self.body.name}()",
                        o,
                    )
                self.summary.returns = _merge_origins(
                    self.summary.returns,
                    [o.extended(f"returned by {self.body.name}()",
                                self.body.file, line)],
                )

    def run(self) -> Summary:
        tokens = self.body.tokens
        stmt: List[Token] = []
        depth = 0
        i = 0
        n = len(tokens)
        while i < n:
            t, _ = tokens[i]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth = max(0, depth - 1)
            if depth == 0 and t in (";", "{", "}"):
                if stmt:
                    self._process(stmt)
                stmt = []
                i += 1
                continue
            stmt.append(tokens[i])
            i += 1
        if stmt:
            self._process(stmt)
        return self.summary

    def _process(self, stmt: List[Token]) -> None:
        tail = self._handle_range_for(stmt)
        if tail is not stmt:
            # Header handled; process any unbraced loop body.
            if tail:
                self._process(tail)
            return
        self._handle_sort(stmt)
        self._handle_calls(stmt)
        self._handle_return(stmt)
        self._handle_declaration(stmt)
        self._handle_assignment(stmt)
        self._handle_mutators(stmt)
        self._handle_insertion(stmt)


def check_determinism_taint(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    ctx = _Ctx(model)
    bodies = sorted(model.bodies, key=lambda b: (b.file, b.line, b.name))
    for body in bodies:
        key = (body.class_name, body.name)
        ctx.summaries.setdefault(key, Summary())
        ctx.by_name.setdefault(body.name, [])
        if key not in ctx.by_name[body.name]:
            ctx.by_name[body.name].append(key)
    for keys in ctx.by_name.values():
        keys.sort()
    # Fixpoint over function summaries and field taint.
    for _ in range(_MAX_ROUNDS):
        changed = False
        fields_before = {
            k: tuple(o.identity() for o in v)
            for k, v in ctx.field_taint.items()
        }
        for body in bodies:
            key = (body.class_name, body.name)
            new = _BodyScan(body, ctx, emit=None, scope=scope).run()
            if new.key() != ctx.summaries[key].key():
                ctx.summaries[key] = new
                changed = True
        fields_after = {
            k: tuple(o.identity() for o in v)
            for k, v in ctx.field_taint.items()
        }
        if fields_before != fields_after:
            changed = True
        if not changed:
            break
    diags: List[Diagnostic] = []
    for body in bodies:
        _BodyScan(body, ctx, emit=diags, scope=scope).run()
    return diags
