"""Frontend-neutral semantic model for sweeplint.

Both frontends — the libclang one (frontend_clang.py, used in CI) and the
bundled micro-parser (frontend_micro.py, zero dependencies, used wherever
clang.cindex is not installed) — lower C++ translation units into the
types below. The checks (checks.py) consume only this model, so the two
frontends produce byte-identical diagnostics by construction: libclang
contributes preprocessed, macro-expanded ground truth about declarations,
while the analysis itself is frontend-independent.

The model is deliberately token-oriented: a method body is a list of
(spelling, line) tokens, and "class C lists member m_ with tag T" is
defined as "C's VisitState body contains a call `v.T(..., self.m_ ...)`"
(StateEntry, parse_state_list). That definition is what the
state-inventory check enforces, what the effects pass reads Fixed tags
from, and what the mutation smoke perturbs, so it is part of the tool's
contract (documented in docs/verification.md).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

# Annotation vocabulary ------------------------------------------------------

# Statement-level suppression comment:  // sweeplint:allow <check> <why>
# on the offending line or in the contiguous comment block above it.
ALLOW_MARKER = "sweeplint:allow"

# A rationale (macro argument or allow-comment tail) must carry at least
# this many characters to count — same bar as tools/lint_invariants.py.
MIN_RATIONALE_LEN = 8

# State lists (src/common/state.h): a class or struct whose VisitState
# body lists each non-static data member exactly once, as
# `v.<Tag>("name", self.member[, Adapter{}]);`.
STATE_LIST_METHOD = "VisitState"
STATE_TAGS = ("Protocol", "Log", "Durable", "History", "Fixed")
# The tags the derived warehouse checkpoint codec writes.
CHECKPOINT_TAGS = ("Protocol", "Log", "History")


@dataclasses.dataclass
class Field:
    """One non-static data member."""

    name: str
    type_text: str
    file: str
    line: int
    is_static: bool = False


@dataclasses.dataclass
class Method:
    """One member-function definition (body available)."""

    name: str
    class_name: str  # empty for free functions
    file: str
    line: int
    return_type: str = ""
    # Body token stream, comments excluded: (spelling, line).
    tokens: List[Tuple[str, int]] = dataclasses.field(default_factory=list)
    # Parameter names in declaration order ("" for unnamed parameters).
    # The taint pass keys its interprocedural summaries on these.
    params: List[str] = dataclasses.field(default_factory=list)

    def identifier_set(self) -> Set[str]:
        return {t for t, _ in self.tokens if _is_identifier(t)}


@dataclasses.dataclass(frozen=True)
class StateEntry:
    """One entry of a state list: `v.<tag>("...", self.<member>...)`."""

    tag: str
    member: str
    line: int


def parse_state_list(body: Method) -> List[StateEntry]:
    """The entries of a VisitState body, in list order. The member is the
    identifier after `<receiver> .`, where the receiver is the body's
    first parameter (`self` by convention)."""
    receiver = body.params[0] if body.params and body.params[0] else "self"
    toks = body.tokens
    entries: List[StateEntry] = []
    for i in range(1, len(toks) - 1):
        tag, line = toks[i]
        if tag not in STATE_TAGS or toks[i - 1][0] != "." or (
            toks[i + 1][0] != "("
        ):
            continue
        depth = 0
        for k in range(i + 1, len(toks)):
            t = toks[k][0]
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    break
            elif (
                t == receiver
                and k + 2 < len(toks)
                and toks[k + 1][0] == "."
                and _is_identifier(toks[k + 2][0])
            ):
                entries.append(StateEntry(tag, toks[k + 2][0], line))
                break
    return entries


@dataclasses.dataclass
class ClassInfo:
    """One class/struct definition, merged across the TUs that saw it."""

    name: str
    file: str = ""
    line: int = 0
    # Direct base-class names (unqualified, template args stripped), in
    # declaration order. Drives the protocol-guard handler/dispatcher
    # resolution across the Warehouse hierarchy.
    bases: List[str] = dataclasses.field(default_factory=list)
    fields: Dict[str, Field] = dataclasses.field(default_factory=dict)
    # Declared method names (even without a body) -> return type text.
    declared_methods: Dict[str, str] = dataclasses.field(default_factory=dict)
    # Method definitions with bodies, keyed by method name.
    methods: Dict[str, Method] = dataclasses.field(default_factory=dict)

    def state_list(self) -> Optional[List[StateEntry]]:
        """The class's state-list entries, or None without a list."""
        body = self.methods.get(STATE_LIST_METHOD)
        return None if body is None else parse_state_list(body)

    def state_tags(self) -> Dict[str, str]:
        """member -> tag of its first entry (empty without a list)."""
        tags: Dict[str, str] = {}
        for entry in self.state_list() or []:
            tags.setdefault(entry.member, entry.tag)
        return tags


@dataclasses.dataclass
class Model:
    """Everything the checks need, for one analysis run."""

    # Class name -> merged info. Class names are unqualified (unique in
    # this codebase); frontends must agree on the spelling.
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    # Every method definition, in file order (for statement-level checks).
    bodies: List[Method] = dataclasses.field(default_factory=list)
    # file -> {line -> (check_name, rationale)} suppression comments.
    allows: Dict[str, Dict[int, Tuple[str, str]]] = dataclasses.field(
        default_factory=dict
    )
    # file -> set of pure-comment line numbers (so a suppression in a
    # comment block above an offending line can be resolved).
    comment_lines: Dict[str, Set[int]] = dataclasses.field(
        default_factory=dict
    )
    # Type-alias name -> underlying type text (`using X = ...;` and
    # `typedef ... X;`), first writer wins in sorted-file order. Lets the
    # unordered-container predicate see through e.g. Relation::CountMap.
    aliases: Dict[str, str] = dataclasses.field(default_factory=dict)

    def merge_class(self, info: ClassInfo) -> None:
        cur = self.classes.get(info.name)
        if cur is None:
            # Copy the containers: frontends may hand in cached per-file
            # parse results (the mutation smoke re-merges them per
            # mutation), and later merges/attachment passes mutate the
            # stored ClassInfo.
            self.classes[info.name] = ClassInfo(
                name=info.name,
                file=info.file,
                line=info.line,
                bases=list(info.bases),
                fields=dict(info.fields),
                declared_methods=dict(info.declared_methods),
                methods=dict(info.methods),
            )
            return
        if info.fields and not cur.fields:
            cur.file, cur.line = info.file, info.line
        for base in info.bases:
            if base not in cur.bases:
                cur.bases.append(base)
        for name, field in info.fields.items():
            cur.fields.setdefault(name, field)
        cur.declared_methods.update(info.declared_methods)
        cur.methods.update(info.methods)


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    file: str
    line: int
    check: str
    message: str
    # Optional subject of the finding (member, functor, method name).
    # Two diagnostics for the same (file, line, check, symbol) are the
    # same finding even when their messages differ (e.g. a path-carrying
    # message rendered from two analysis contexts); sort_diagnostics
    # keeps only the first. Not rendered — text()/github() are stable.
    symbol: str = ""

    def text(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"

    def github(self) -> str:
        return (
            f"::error file={self.file},line={self.line},"
            f"title=sweeplint {self.check}::{self.message}"
        )

    def identity(self) -> Tuple[str, int, str, str]:
        return (self.file, self.line, self.check, self.symbol or self.message)


def _is_identifier(tok: str) -> bool:
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_")


def sort_diagnostics(diags: List[Diagnostic]) -> List[Diagnostic]:
    """Sorted, with duplicate findings collapsed.

    Both frontends route every check's output through here, so dedup by
    Diagnostic.identity() happens in one place: the first diagnostic (in
    sort order) wins for each (file, line, check, symbol-or-message)."""
    out: List[Diagnostic] = []
    seen = set()
    for d in sorted(
        diags, key=lambda d: (d.file, d.line, d.check, d.message)
    ):
        key = d.identity()
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return out


def find_allow(
    model: Model, file: str, line: int, check: str
) -> Optional[Tuple[str, int]]:
    """Suppression lookup for a finding at file:line.

    Honors an annotation on the line itself or anywhere in the contiguous
    run of pure-comment lines directly above it. Returns (rationale,
    annotation_line) when a matching annotation exists — rationale may be
    empty/short, which the caller reports as its own error — or None.
    """
    per_file = model.allows.get(file, {})
    comments = model.comment_lines.get(file, set())
    candidates = [line]
    probe = line - 1
    while probe in comments:
        candidates.append(probe)
        probe -= 1
    for cand in candidates:
        entry = per_file.get(cand)
        if entry is not None and entry[0] == check:
            return entry[1], cand
    return None


def base_chain(model: Model, class_name: str) -> List[str]:
    """The class plus its transitive bases, breadth-first, deduplicated.

    Bases that were never parsed (e.g. std:: types) simply terminate
    their branch."""
    out: List[str] = []
    queue = [class_name]
    while queue:
        name = queue.pop(0)
        if name in out:
            continue
        out.append(name)
        cls = model.classes.get(name)
        if cls is not None:
            queue.extend(cls.bases)
    return out


def derived_closure(model: Model, class_name: str) -> List[str]:
    """Every class whose transitive base chain includes class_name
    (excluding class_name itself), in sorted order."""
    out = []
    for name in sorted(model.classes):
        if name == class_name:
            continue
        if class_name in base_chain(model, name):
            out.append(name)
    return out
