"""effect-set inference: static read/write sets for every event handler.

The schedule-space explorer's partial-order reduction needs an
independence relation: two enabled events commute when neither can
observe the other's side effects. The site rule (verify/schedule.cc)
derives independence from event *labels* alone — events touching
different sites commute — which is sound but blind: an internal event
(site -2) is dependent on everything, so a controlled crash/recovery
never commutes with anything even though it provably cannot observe a
source-local transaction.

This pass computes the missing ground truth statically. For every event
handler reachable from the controlled simulator's dispatch points —
message delivery (`OnMessage`), transaction application
(`ApplyTransaction`), and the internal crash (`CrashAndRecover`) and
drop-arming (`ArmControlledDrop`) arms — it infers the set of persistent
state members the handler may read, write, or commutatively increment,
propagating effects inter-procedurally with the same fixpoint-summary
engine style as taint.py. Virtual dispatch is resolved by analyzing each
handler in the *leaf* class context (summaries are keyed on
(context_class, method)), so `AcceptUpdate`'s call to the pure-virtual
`HandleUpdateArrival` lands in the concrete algorithm's body.

Effect atoms are (class, member, kind) triples over the persistent
protocol classes only: the Warehouse hierarchy, the source sites
(DataSource/EcaSource), UpdateIdGenerator, the Network channel state,
and the shard router. Transient helpers (Relation, CheckpointWriter,
Rng, ...) are not tracked as objects — a call like `store_.Merge(delta)`
is classified as a write *of the member holding them* instead. Members
their class's state list tags Fixed (wiring and immutable configuration)
are not state and produce no atoms.

Kinds:
  read   — the handler's behavior may depend on the member's value
  write  — the handler may overwrite the member
  inc    — the only accesses are order-insensitive counter bumps
           (++/--/+= literal); two incs of the same member commute
  dropw  — Network::Send's conditional consume of an armed controlled
           drop: a write that happens only in scenarios arming drops
           (the C++ side includes it only when max_message_drops > 0)

Soundness posture: writes are over-approximated (unknown mutations
become writes, address-taken members become writes, reference aliases —
`auto& v = member_;`, range-for loop variables over member containers,
iterators from `member_.find(...)` — carry their target's identity).
Calls that *escape* the analysis — invoking a std::function-typed field
such as the install observer or the shard_of hook — make the handler
unbounded unless annotated `// sweeplint:allow effect-bounds <why>`;
unbounded handlers fall back to the site rule at exploration time, and
the debug-mode dynamic oracle (verify/effects.h) checks every executed
schedule's actually-changed members against these static sets.

The generated table (src/verify/effects_table.h) is produced by
tools/sweeplint/gen_effects.py from `infer_effects()` below and
diff-checked in CI.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from model import (
    CHECKPOINT_TAGS,
    MIN_RATIONALE_LEN,
    Diagnostic,
    Method,
    Model,
    base_chain,
    derived_closure,
    find_allow,
)
from tokutil import (
    Token,
    in_scope,
    is_ident,
    match_paren,
    split_top_level_args,
    suppressed,
)

CHECK_EFFECTS = "effect-bounds"
EFFECTS_SCOPE = ("src/",)

# --- classification vocabulary ---------------------------------------------

# Persistent protocol classes: the only classes whose members become
# effect atoms. Everything else is either wiring (exempt members), the
# simulator substrate, or transient value types whose mutation is
# attributed to the member holding them.
_PERSISTENT_BASES = ("Warehouse", "SourceSite")
_PERSISTENT_EXTRA = ("Network", "UpdateIdGenerator", "ShardRouter")

# The state-list entry points (src/common/state.h): the lists mention
# every member by design, and undo capture records them all at the top
# of each handler, so none of them is scanned as an effect.
_INSTRUMENTATION_METHODS = frozenset(
    {"CaptureUndo", "VisitState", "VisitAlgState"}
)

# The checkpoint codec derived from the state lists, modeled from the
# lists themselves: serializing reads, and restoring writes, every
# checkpointed member of the warehouse and of its algorithm.
_CHECKPOINT_CODEC = {
    "SerializeCheckpoint": "read",
    "RestoreFromCheckpoint": "write",
}

# Container/object methods that cannot mutate their receiver. A member
# receiving any call outside this set is conservatively written.
_CONST_METHODS = frozenset(
    {
        "size", "empty", "count", "find", "at", "begin", "end", "cbegin",
        "cend", "rbegin", "rend", "front", "back", "contains", "has_value",
        "value", "c_str", "data", "length", "capacity", "top", "get",
        "lower_bound", "upper_bound", "first", "second",
        # codebase-local const accessors on value types
        "relation", "entries", "CountOf", "Empty", "SpansAll", "schema",
        "num_relations", "ToDisplayString", "Fingerprint", "bytes",
    }
)

# Receiver-methods that return an iterator/handle into the receiver:
# `auto it = member_.find(k)` makes `it` an alias of member_.
_ITERATOR_METHODS = frozenset(
    {"find", "begin", "end", "rbegin", "rend", "lower_bound",
     "upper_bound"}
)

# `+=`-style ops that stay "inc" when the RHS is a pure integer literal.
_INC_COMPOUND_OPS = ("+=", "-=")

_ASSIGN_OPS = (
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
)

_MAX_ROUNDS = 12

# Effect kinds, in increasing conflict strength (for normalization).
_KIND_READ = "read"
_KIND_WRITE = "write"
_KIND_INC = "inc"
_KIND_DROPW = "dropw"


# --- summaries --------------------------------------------------------------


@dataclasses.dataclass
class EffSummary:
    """Interprocedural effect behavior of one (context, method) pair."""

    # frozenset of (class, member, kind) triples.
    atoms: frozenset = frozenset()
    # Parameter indices the body may write through (by-reference
    # mutation; over-approximated for by-value parameters, which only
    # costs precision on the write side).
    param_writes: frozenset = frozenset()
    # False when an un-annotated escape (std::function field call) or an
    # unresolvable virtual makes the effect set untrustworthy.
    bounded: bool = True
    # (file, line, description, allowed) escape sites found in this body
    # (not unioned from callees — diagnostics point at the source).
    escapes: Tuple[Tuple[str, int, str, bool], ...] = ()

    def key(self):
        return (self.atoms, self.param_writes, self.bounded)


def _intrinsic_send() -> EffSummary:
    """Network::Send / SendDirect, modeled axiomatically.

    SendDirect schedules a lambda that *calls the destination's
    OnMessage* — scanning it would fold every delivery handler into
    every sender. The true per-send footprint is: read the armed-drop
    counter (the consume test), check the sender against the crashed-site
    set, bump the per-class send stats, append to the sender-keyed FIFO
    channel, and — only when a controlled drop is armed and the message
    is a query/answer — consume the armed counter.
    """
    return EffSummary(
        atoms=frozenset(
            {
                ("Network", "controlled_drops_armed_", _KIND_READ),
                ("Network", "crashed_", _KIND_READ),
                ("Network", "stats_", _KIND_INC),
                ("Network", "links_", _KIND_WRITE),
                ("Network", "controlled_drops_armed_", _KIND_DROPW),
            }
        )
    )


# --- context ----------------------------------------------------------------


class _EffCtx:
    def __init__(self, model: Model) -> None:
        self.model = model
        # All persistent classes (atom-bearing).
        persistent: Set[str] = set()
        for base in _PERSISTENT_BASES:
            if base in model.classes:
                persistent.add(base)
                persistent.update(derived_closure(model, base))
        for extra in _PERSISTENT_EXTRA:
            if extra in model.classes:
                persistent.add(extra)
        self.persistent = persistent

        # Per-class field tables over the full base chain:
        # member name -> (declaring class, type text, Fixed-tagged).
        self.chain_fields: Dict[str, Dict[str, Tuple[str, str, bool]]] = {}
        for name in sorted(model.classes):
            table: Dict[str, Tuple[str, str, bool]] = {}
            for cls_name in base_chain(model, name):
                cls = model.classes.get(cls_name)
                if cls is None:
                    continue
                tags = cls.state_tags()
                for f in cls.fields.values():
                    table.setdefault(
                        f.name,
                        (cls_name, f.type_text, tags.get(f.name) == "Fixed"),
                    )
            self.chain_fields[name] = table

        # Bare field-name -> type text fallback (nested classes such as
        # Warehouse::Options contribute shard_of here).
        self.global_fields: Dict[str, str] = {}
        for name in sorted(model.classes):
            for f in model.classes[name].fields.values():
                self.global_fields.setdefault(f.name, f.type_text)

        # Sorted class names, longest first, for type-text resolution.
        self.class_names_by_len = sorted(
            model.classes, key=lambda n: (-len(n), n)
        )

        # (context, method) -> EffSummary. Contexts: persistent classes
        # plus "" for free functions.
        self.summaries: Dict[Tuple[str, str], EffSummary] = {}

        # Accessor aliases: (context, method) -> member name, for
        # methods whose body is exactly `return member_;` with a
        # reference/pointer return type (e.g. mutable_queue()).
        self.accessor_alias: Dict[Tuple[str, str], str] = {}
        for name in sorted(model.classes):
            for m in model.classes[name].methods.values():
                toks = [t for t, _ in m.tokens]
                if len(toks) == 3 and toks[0] == "return" and toks[2] == ";":
                    ret = model.classes[name].declared_methods.get(
                        m.name, m.return_type
                    )
                    if ("&" in ret or "*" in ret) and is_ident(toks[1]):
                        self.accessor_alias[(name, m.name)] = toks[1]

    def field_info(
        self, context: str, name: str
    ) -> Optional[Tuple[str, str, bool]]:
        return self.chain_fields.get(context, {}).get(name)

    def body_for(self, context: str, name: str) -> Optional[Method]:
        """Derived-first method resolution in a leaf-class context."""
        for cls_name in base_chain(self.model, context):
            cls = self.model.classes.get(cls_name)
            if cls is not None and name in cls.methods:
                return cls.methods[name]
        return None

    def accessor_target(self, context: str, name: str) -> Optional[str]:
        for cls_name in base_chain(self.model, context):
            target = self.accessor_alias.get((cls_name, name))
            if target is not None:
                return target
        return None

    def class_of_type(self, type_text: str) -> Optional[str]:
        for name in self.class_names_by_len:
            if name in type_text:
                return name
        return None

    def summary_of(self, context: str, method: str) -> Optional[EffSummary]:
        if context == "Network" and method in ("Send", "SendDirect"):
            return _intrinsic_send()
        if method in _INSTRUMENTATION_METHODS:
            return EffSummary()
        if method in _CHECKPOINT_CODEC:
            return self.checkpoint_codec(context, _CHECKPOINT_CODEC[method])
        return self.summaries.get((context, method))

    def checkpoint_codec(self, context: str, kind: str) -> EffSummary:
        atoms = set()
        for cls_name in base_chain(self.model, context):
            cls = self.model.classes.get(cls_name)
            if cls is None or cls_name not in self.persistent:
                continue
            for entry in cls.state_list() or []:
                if entry.tag in CHECKPOINT_TAGS:
                    atoms.add((cls_name, entry.member, kind))
        return EffSummary(atoms=frozenset(atoms))


# --- body scan --------------------------------------------------------------


class _EffScan:
    """One pass over a method body in a fixed leaf-class context."""

    def __init__(self, context: str, body: Method, ctx: _EffCtx) -> None:
        self.context = context
        self.body = body
        self.ctx = ctx
        self.atoms: Set[Tuple[str, str, str]] = set()
        self.param_writes: Set[int] = set()
        self.bounded = True
        self.escapes: List[Tuple[str, int, str, bool]] = []
        # local name -> member name it aliases (reference locals,
        # range-for loop vars, iterators).
        self.aliases: Dict[str, str] = {}
        self.param_index = {
            p: i for i, p in enumerate(body.params) if p
        }

    # -- resolution helpers --------------------------------------------------

    def _member_of(self, ident: str) -> Optional[str]:
        """Resolves an identifier to the member it denotes (directly or
        through an alias); None for plain locals/params."""
        if ident in self.aliases:
            return self.aliases[ident]
        if ident in self.param_index:
            return None
        if self.ctx.field_info(self.context, ident) is not None:
            return ident
        return None

    def _emit(self, member: str, kind: str) -> None:
        info = self.ctx.field_info(self.context, member)
        if info is None:
            return
        owner, _, exempt = info
        if exempt or owner not in self.ctx.persistent:
            return
        self.atoms.add((owner, member, kind))

    def _note_write_base(self, ident: str, kind: str = _KIND_WRITE) -> None:
        member = self._member_of(ident)
        if member is not None:
            self._emit(member, kind)
        elif ident in self.param_index:
            self.param_writes.add(self.param_index[ident])

    def _union(self, summary: EffSummary) -> None:
        self.atoms.update(summary.atoms)
        if not summary.bounded:
            self.bounded = False

    def _expand_accessors(self, stmt: List[Token]) -> List[Token]:
        """Rewrites zero-arg chain-accessor calls (`mutable_queue()`)
        into the member they return a reference to, so downstream
        classification sees a plain member occurrence."""
        out: List[Token] = []
        i = 0
        n = len(stmt)
        while i < n:
            t, line = stmt[i]
            if (
                is_ident(t)
                and i + 2 < n
                and stmt[i + 1][0] == "("
                and stmt[i + 2][0] == ")"
                and (i == 0 or stmt[i - 1][0] not in (".", "->"))
            ):
                target = self.ctx.accessor_target(self.context, t)
                if target is not None:
                    out.append((target, line))
                    i += 3
                    continue
            out.append(stmt[i])
            i += 1
        return out

    # -- statement handling --------------------------------------------------

    def _handle_range_for(self, stmt: List[Token]) -> Optional[List[Token]]:
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
                member = None
                for t, _ in expr:
                    if is_ident(t):
                        member = self._member_of(t)
                        break
                if member is not None:
                    self._emit(member, _KIND_READ)
                    for var in loop_vars:
                        self.aliases[var] = member
                else:
                    # Loop var over a written param propagates writes.
                    for t, _ in expr:
                        if is_ident(t) and t in self.param_index:
                            for var in loop_vars:
                                self.aliases.setdefault(var, "")
                            break
                self._scan_expr(expr)
                return stmt[close + 1 :]
        return None

    def _find_assign(self, stmt: List[Token]) -> Optional[int]:
        depth = 0
        for i, (t, _) in enumerate(stmt):
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            elif depth == 0 and t in _ASSIGN_OPS:
                return i
        return None

    def _is_int_literal_rhs(self, rhs: List[Token]) -> bool:
        toks = [t for t, _ in rhs if t != ";"]
        return len(toks) == 1 and toks[0].isdigit()

    def _try_alias_decl(
        self, lhs: List[Token], rhs: List[Token]
    ) -> Optional[str]:
        """Returns the local name if `lhs = rhs` declares an alias of a
        member (reference local, accessor result, iterator, or
        it->second chain); records it. None otherwise."""
        idents = [t for t, _ in lhs if is_ident(t) and t != "const"]
        if len(idents) < 2 or any(t in (".", "->") for t, _ in lhs):
            return None
        target = idents[-1]
        has_ref = any(t == "&" for t, _ in lhs)
        # Root of the RHS postfix chain.
        root = None
        for t, _ in rhs:
            if is_ident(t):
                root = t
                break
        if root is None:
            return None
        member = self._member_of(root)
        rhs_toks = [t for t, _ in rhs]
        calls_iter = any(t in _ITERATOR_METHODS for t in rhs_toks)
        # A call defeats reference aliasing only when the *root itself*
        # is invoked (`T& x = Helper(...)` returns who-knows-what). A
        # call nested inside a subscript — `member_[static_cast<…>(i)]`
        # — still yields a reference into the member, and missing that
        # alias loses the write through it (the dynamic oracle caught
        # exactly this on Warehouse::update_watermarks_).
        root_pos = next(
            (i for i, t in enumerate(rhs_toks) if is_ident(t)), -1
        )
        root_called = (
            0 <= root_pos < len(rhs_toks) - 1
            and rhs_toks[root_pos + 1] == "("
        )
        if member is not None:
            if calls_iter or (has_ref and not root_called):
                self.aliases[target] = member
                return target
        elif root in self.aliases and has_ref:
            # T& ref = it->second;  — propagate the iterator's target.
            self.aliases[target] = self.aliases[root]
            return target
        elif root in self.param_index and has_ref and not root_called:
            # Reference to a (potentially written-through) parameter.
            self.aliases.setdefault(target, "")
        return None

    def _handle_assignment(self, stmt: List[Token]) -> Set[int]:
        """Classifies the assignment target; returns token indices whose
        member mention is already accounted for (so the read pass skips
        the target of a counter bump)."""
        op_idx = self._find_assign(stmt)
        if op_idx is None:
            return set()
        op = stmt[op_idx][0]
        lhs, rhs = stmt[:op_idx], stmt[op_idx + 1 :]
        if op == "=":
            self._try_alias_decl(lhs, rhs)
        kind = _KIND_WRITE
        if op in _INC_COMPOUND_OPS and self._is_int_literal_rhs(rhs):
            kind = _KIND_INC
        # The written object is the root of the postfix chain directly
        # before the operator (`if (...) x = y;` targets x, not the
        # condition; `active_->snapshots[r] = v` targets active_).
        root = self._receiver_root(stmt, op_idx)
        if root is None:
            return set()
        self._note_write_base(root, kind)
        if kind != _KIND_INC:
            return set()
        return {
            i
            for i in range(op_idx)
            if stmt[i][0] == root
        }

    def _handle_incdec(self, stmt: List[Token]) -> Set[int]:
        skip: Set[int] = set()
        for i, (t, _) in enumerate(stmt):
            if t not in ("++", "--"):
                continue
            pos = None
            if i + 1 < len(stmt) and is_ident(stmt[i + 1][0]):
                pos = i + 1
            elif i > 0 and is_ident(stmt[i - 1][0]):
                pos = i - 1
            if pos is not None:
                self._note_write_base(stmt[pos][0], _KIND_INC)
                skip.add(pos)
        return skip

    def _handle_addressed(self, stmt: List[Token]) -> None:
        for i, (t, _) in enumerate(stmt):
            if t == "&" and i + 1 < len(stmt) and is_ident(stmt[i + 1][0]):
                # Address-taken: conservatively a write (mutation may
                # happen through the pointer).
                self._note_write_base(stmt[i + 1][0], _KIND_WRITE)

    def _handle_move_sort(self, stmt: List[Token]) -> None:
        for i, (t, _) in enumerate(stmt):
            if t in ("move", "sort", "stable_sort") and i + 1 < len(
                stmt
            ) and stmt[i + 1][0] == "(":
                close = match_paren(stmt, i + 1)
                args = split_top_level_args(stmt[i + 2 : close])
                if args:
                    for tok, _ in args[0]:
                        if is_ident(tok):
                            self._note_write_base(tok, _KIND_WRITE)
                            break

    def _receiver_root(self, stmt: List[Token], dot_idx: int) -> Optional[str]:
        """Walks a postfix chain leftwards from the '.'/'->' at dot_idx
        to its root identifier (skipping balanced []/() groups)."""
        j = dot_idx - 1
        while j >= 0:
            t = stmt[j][0]
            if t in ("]", ")"):
                depth = 0
                while j >= 0:
                    tj = stmt[j][0]
                    if tj in ("]", ")"):
                        depth += 1
                    elif tj in ("[", "("):
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
                continue
            if is_ident(t):
                if j >= 1 and stmt[j - 1][0] in (".", "->"):
                    j -= 2
                    continue
                return t
            return None
        return None

    def _handle_calls(self, stmt: List[Token]) -> None:
        i = 0
        n = len(stmt)
        while i < n - 1:
            tok, line = stmt[i]
            if not (is_ident(tok) and stmt[i + 1][0] == "("):
                i += 1
                continue
            close = match_paren(stmt, i + 1)
            args = split_top_level_args(stmt[i + 2 : close])
            if tok in _INSTRUMENTATION_METHODS:
                i = close + 1
                continue
            is_method = i > 0 and stmt[i - 1][0] in (".", "->")
            stmt_line = stmt[0][1]
            callee_summary: Optional[EffSummary] = None
            if is_method:
                root = self._receiver_root(stmt, i - 1)
                if root is not None:
                    self._classify_receiver_call(root, tok, line, stmt_line)
                    callee_summary = self._receiver_summary(root, tok)
            else:
                # Escape: invoking a std::function-typed field.
                ftype = ""
                info = self.ctx.field_info(self.context, tok)
                if info is not None:
                    ftype = info[1]
                else:
                    ftype = self.ctx.global_fields.get(tok, "")
                if self._is_function_type(ftype):
                    self._record_escape(tok, line, stmt_line)
                    i = close + 1
                    continue
                body = None
                if self.ctx.body_for(self.context, tok) is not None:
                    callee_summary = self.ctx.summary_of(self.context, tok)
                    body = True
                elif ("", tok) in self.ctx.summaries:
                    callee_summary = self.ctx.summaries[("", tok)]
                    body = True
                if body is None:
                    # Macro / stdlib call: no tracked effects of its
                    # own; arguments are classified by the other
                    # passes (reads, &-writes, move).
                    i += 1
                    continue
            if callee_summary is not None:
                self._union(callee_summary)
                for idx in sorted(callee_summary.param_writes):
                    if idx < len(args):
                        for t, _ in args[idx]:
                            if is_ident(t):
                                self._note_write_base(t, _KIND_WRITE)
            i += 1

    def _receiver_summary(
        self, root: str, method: str
    ) -> Optional[EffSummary]:
        """Summary of a method invoked through a typed receiver, when the
        receiver's class is persistent and analyzable."""
        type_text = ""
        info = self.ctx.field_info(self.context, root)
        if info is not None:
            type_text = info[1]
        elif root in self.aliases and self.aliases[root]:
            member_info = self.ctx.field_info(
                self.context, self.aliases[root]
            )
            if member_info is not None:
                type_text = member_info[1]
        if not type_text:
            type_text = self.ctx.global_fields.get(root, "")
        cls = self.ctx.class_of_type(type_text)
        if cls is not None and cls in self.ctx.persistent:
            summary = self.ctx.summary_of(cls, method)
            if summary is None and self.ctx.body_for(cls, method) is None:
                return None
            return summary
        return None

    def _classify_receiver_call(
        self, root: str, method: str, line: int, stmt_line: int
    ) -> None:
        # Functor field invoked through a chain (options_.shard_of(...)).
        ftype = self.ctx.global_fields.get(method, "")
        member = self._member_of(root)
        # A call on a transient-valued member mutates the member itself
        # unless the method is known-const.
        if member is not None:
            info = self.ctx.field_info(self.context, member)
            type_text = info[1] if info else ""
            target_cls = self.ctx.class_of_type(type_text)
            if target_cls is not None and target_cls in self.ctx.persistent:
                # Effects live in the callee summary; touching the
                # pointer/handle itself is a read.
                self._emit(member, _KIND_READ)
            elif method in _CONST_METHODS:
                self._emit(member, _KIND_READ)
            else:
                self._emit(member, _KIND_WRITE)
        elif root in self.param_index and method not in _CONST_METHODS:
            self.param_writes.add(self.param_index[root])
        elif root in self.aliases and self.aliases[root] == "":
            # alias of a written-through parameter
            pass
        if self._is_function_type(ftype) and self.ctx.field_info(
            self.context, method
        ) is None and method not in _CONST_METHODS:
            self._record_escape(method, line, stmt_line)

    def _is_function_type(self, type_text: str) -> bool:
        if "function" in type_text:
            return True
        for word in type_text.replace("<", " ").replace(">", " ").split():
            if is_ident(word) and "function" in self.ctx.model.aliases.get(
                word, ""
            ):
                return True
        return False

    def _record_escape(self, name: str, line: int, stmt_line: int) -> None:
        """Registers a std::function-field call. The allow annotation may
        sit above the *statement* while the call token is on a
        continuation line, so both lines anchor the lookup."""
        anchor = line
        if find_allow(
            self.ctx.model, self.body.file, line, CHECK_EFFECTS
        ) is None and find_allow(
            self.ctx.model, self.body.file, stmt_line, CHECK_EFFECTS
        ) is not None:
            anchor = stmt_line
        allowed = (
            find_allow(
                self.ctx.model, self.body.file, anchor, CHECK_EFFECTS
            )
            is not None
        )
        desc = (
            f"call through std::function field '{name}' escapes effect "
            "inference"
        )
        self.escapes.append((self.body.file, anchor, desc, allowed))
        if not allowed:
            self.bounded = False

    def _scan_expr(
        self, expr: List[Token], skip: Optional[Set[int]] = None
    ) -> None:
        """Default classification: any member mention is a read, except
        positions already consumed by a commutative counter bump."""
        for i, (t, _) in enumerate(expr):
            if skip is not None and i in skip:
                continue
            if is_ident(t):
                member = self._member_of(t)
                if member is not None:
                    self._emit(member, _KIND_READ)

    def _process(self, stmt: List[Token]) -> None:
        stmt = self._expand_accessors(stmt)
        tail = self._handle_range_for(stmt)
        if tail is not None:
            if tail:
                self._process(tail)
            return
        self._handle_calls(stmt)
        skip = self._handle_assignment(stmt)
        skip |= self._handle_incdec(stmt)
        self._handle_addressed(stmt)
        self._handle_move_sort(stmt)
        self._scan_expr(stmt, skip)

    def run(self) -> EffSummary:
        tokens = self.body.tokens
        stmt: List[Token] = []
        depth = 0
        for tok in tokens:
            t = tok[0]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth = max(0, depth - 1)
            if depth == 0 and t in (";", "{", "}"):
                if stmt:
                    self._process(stmt)
                stmt = []
                continue
            stmt.append(tok)
        if stmt:
            self._process(stmt)
        return EffSummary(
            atoms=frozenset(self.atoms),
            param_writes=frozenset(self.param_writes),
            bounded=self.bounded,
            escapes=tuple(self.escapes),
        )


# --- driver -----------------------------------------------------------------


def _analysis_units(ctx: _EffCtx) -> List[Tuple[str, Method]]:
    """(context, body) pairs the fixpoint iterates: every method
    resolvable in a persistent leaf context, plus free functions."""
    units: List[Tuple[str, Method]] = []
    seen: Set[Tuple[str, str]] = set()
    for context in sorted(ctx.persistent):
        names: Set[str] = set()
        for cls_name in base_chain(ctx.model, context):
            cls = ctx.model.classes.get(cls_name)
            if cls is not None:
                names.update(cls.methods)
        for name in sorted(names):
            if name in _INSTRUMENTATION_METHODS:
                continue
            if context == "Network" and name in ("Send", "SendDirect"):
                continue
            body = ctx.body_for(context, name)
            if body is not None and (context, name) not in seen:
                seen.add((context, name))
                units.append((context, body))
    for body in sorted(
        ctx.model.bodies, key=lambda b: (b.file, b.line, b.name)
    ):
        if not body.class_name and ("", body.name) not in seen:
            seen.add(("", body.name))
            units.append(("", body))
    return units


@dataclasses.dataclass(frozen=True)
class HandlerRow:
    """One row of the generated independence table."""

    handler_class: str
    kind: str  # "message" | "txn" | "query" | "crash" | "arm-drop"
    reads: Tuple[str, ...]  # "Class::member@binding", sorted
    writes: Tuple[str, ...]
    incs: Tuple[str, ...]
    drop_writes: Tuple[str, ...]
    bounded: bool


def _binding_of(cls: str, member: str) -> str:
    if cls == "UpdateIdGenerator":
        return "global"
    if cls == "Network":
        return "self" if member == "links_" else "global"
    return "self"


def _normalize(atoms: frozenset) -> Dict[str, List[str]]:
    """Collapses per-member kinds to the strongest (write > inc+read ->
    write > inc > read) and renders sorted atom strings per column."""
    per_member: Dict[Tuple[str, str], Set[str]] = {}
    drops: Set[Tuple[str, str]] = set()
    for cls, member, kind in atoms:
        if kind == _KIND_DROPW:
            drops.add((cls, member))
        else:
            per_member.setdefault((cls, member), set()).add(kind)
    out = {"reads": [], "writes": [], "incs": [], "drop_writes": []}
    for (cls, member), kinds in per_member.items():
        text = f"{cls}::{member}@{_binding_of(cls, member)}"
        if _KIND_WRITE in kinds or (
            _KIND_INC in kinds and _KIND_READ in kinds
        ):
            out["writes"].append(text)
        elif _KIND_INC in kinds:
            out["incs"].append(text)
        else:
            out["reads"].append(text)
    for cls, member in drops:
        out["drop_writes"].append(
            f"{cls}::{member}@{_binding_of(cls, member)}"
        )
    for column in out.values():
        column.sort()
    return out


def _dispatch_roots(ctx: _EffCtx) -> List[Tuple[str, str, str]]:
    """(handler_class, kind, method) dispatch points, discovered from
    the model so fixture trees get tables too."""
    roots: List[Tuple[str, str, str]] = []
    model = ctx.model
    if "Warehouse" in model.classes:
        for cls in derived_closure(model, "Warehouse"):
            if ctx.body_for(cls, "OnMessage") is not None:
                roots.append((cls, "message", "OnMessage"))
            if ctx.body_for(cls, "CrashAndRecover") is not None:
                roots.append((cls, "crash", "CrashAndRecover"))
    if "SourceSite" in model.classes:
        for cls in derived_closure(model, "SourceSite"):
            if ctx.body_for(cls, "ApplyTransaction") is not None:
                roots.append((cls, "txn", "ApplyTransaction"))
            if ctx.body_for(cls, "OnMessage") is not None:
                roots.append((cls, "query", "OnMessage"))
    if "Network" in model.classes and ctx.body_for(
        "Network", "ArmControlledDrop"
    ) is not None:
        roots.append(("Network", "arm-drop", "ArmControlledDrop"))
    if "ShardRouter" in model.classes and ctx.body_for(
        "ShardRouter", "OnMessage"
    ) is not None:
        roots.append(("ShardRouter", "message", "OnMessage"))
    return sorted(roots)


def _run_fixpoint(ctx: _EffCtx) -> List[Tuple[str, Method]]:
    units = _analysis_units(ctx)
    for context, body in units:
        ctx.summaries.setdefault((context, body.name), EffSummary())
    for _ in range(_MAX_ROUNDS):
        changed = False
        for context, body in units:
            new = _EffScan(context, body, ctx).run()
            key = (context, body.name)
            if new.key() != ctx.summaries[key].key():
                ctx.summaries[key] = new
                changed = True
        if not changed:
            break
    return units


def infer_effects(model: Model) -> List[HandlerRow]:
    """Effect rows for every dispatch root, sorted by (class, kind)."""
    ctx = _EffCtx(model)
    _run_fixpoint(ctx)
    rows: List[HandlerRow] = []
    for handler_class, kind, method in _dispatch_roots(ctx):
        summary = ctx.summary_of(handler_class, method)
        if summary is None:
            summary = EffSummary(bounded=False)
        columns = _normalize(summary.atoms)
        rows.append(
            HandlerRow(
                handler_class=handler_class,
                kind=kind,
                reads=tuple(columns["reads"]),
                writes=tuple(columns["writes"]),
                incs=tuple(columns["incs"]),
                drop_writes=tuple(columns["drop_writes"]),
                bounded=summary.bounded,
            )
        )
    return rows


def check_effect_bounds(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    """Diagnostics for effect-inference escapes without an allow."""
    ctx = _EffCtx(model)
    units = _run_fixpoint(ctx)
    diags: List[Diagnostic] = []
    seen: Set[Tuple[str, int, str]] = set()
    for context, body in units:
        summary = ctx.summaries.get((context, body.name))
        if summary is None:
            continue
        for file, line, desc, _ in summary.escapes:
            if not in_scope(file, scope):
                continue
            key = (file, line, desc)
            if key in seen:
                continue
            seen.add(key)
            if not suppressed(
                model,
                body,
                line,
                CHECK_EFFECTS,
                diags,
                message_if_bare=(
                    "sweeplint:allow effect-bounds needs a rationale "
                    f"(>= {MIN_RATIONALE_LEN} chars)"
                ),
            ):
                diags.append(
                    Diagnostic(
                        file=file,
                        line=line,
                        check=CHECK_EFFECTS,
                        message=(
                            f"{desc} — the handler's effect set is "
                            "unbounded, so the explorer falls back to "
                            "the site rule; if the callee reads/writes "
                            "no protocol state, annotate "
                            "'// sweeplint:allow effect-bounds <why>'"
                        ),
                        symbol=(
                            desc.split("'")[1] if "'" in desc else ""
                        ),
                    )
                )
    return diags


if __name__ == "__main__":
    # Debug dump: python3 effects.py [root] prints the inferred table.
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import frontend_micro

    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."
    )
    root = os.path.abspath(root)
    files = {}
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if fn.endswith((".h", ".cc")):
                path = os.path.join(dirpath, fn)
                rel = os.path.relpath(path, root)
                with open(path, "r", encoding="utf-8") as f:
                    files[rel] = f.read()
    model = frontend_micro.build_model(files)
    for row in infer_effects(model):
        print(f"{row.handler_class} / {row.kind}  "
              f"(bounded={'yes' if row.bounded else 'NO'})")
        for label in ("reads", "writes", "incs", "drop_writes"):
            col = getattr(row, label)
            if col:
                print(f"  {label:11s} " + " ".join(col))
