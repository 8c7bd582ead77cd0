"""Token-stream helpers shared by the sweeplint checks.

checks.py (state-inventory/unordered/event-label), taint.py
(determinism-taint) and guards.py (protocol-guard) all consume
Method.tokens streams; the bracket matching, argument splitting, scope
gating and suppression plumbing live here so the check modules stay free
of each other.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from model import MIN_RATIONALE_LEN, Diagnostic, Method, Model, find_allow

Token = Tuple[str, int]

UNORDERED_MARKERS = ("unordered_map", "unordered_set")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def unordered_type(model: Model, type_text: str) -> bool:
    """True if the type text names an unordered container, directly or
    through one level of recorded type alias (e.g. Relation::CountMap =
    std::unordered_map<...>)."""
    if any(m in type_text for m in UNORDERED_MARKERS):
        return True
    for word in _WORD.findall(type_text):
        target = model.aliases.get(word, "")
        if any(m in target for m in UNORDERED_MARKERS):
            return True
    return False


def is_ident(tok: str) -> bool:
    return bool(tok) and (tok[0].isalpha() or tok[0] == "_")


def match_paren(tokens: List[Token], open_idx: int) -> int:
    """Index of the bracket closing tokens[open_idx] (or len(tokens))."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i][0]
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def split_top_level_args(tokens: List[Token]) -> List[List[Token]]:
    """Splits the token slice between a call's parens on top-level commas."""
    args: List[List[Token]] = []
    cur: List[Token] = []
    depth = 0
    for tok in tokens:
        t = tok[0]
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            args.append(cur)
            cur = []
            continue
        cur.append(tok)
    if cur:
        args.append(cur)
    return args


def in_scope(path: str, scope: Optional[Tuple[str, ...]]) -> bool:
    return scope is None or any(path.startswith(p) for p in scope)


def suppressed(
    model: Model,
    body: Method,
    line: int,
    check: str,
    diags: List[Diagnostic],
    message_if_bare: str,
) -> bool:
    """True if a well-formed suppression covers (body.file, line). A
    matching annotation with a missing/short rationale still suppresses
    nothing and adds its own diagnostic."""
    hit = find_allow(model, body.file, line, check)
    if hit is None:
        return False
    rationale, ann_line = hit
    if len(rationale.strip()) >= MIN_RATIONALE_LEN:
        return True
    diags.append(
        Diagnostic(
            file=body.file,
            line=ann_line,
            check=check,
            message=message_if_bare,
        )
    )
    return True


def allowed_quietly(model: Model, file: str, line: int, check: str) -> bool:
    """True if a well-formed suppression covers (file, line), without
    emitting anything for a bare annotation (used for secondary lookup
    sites, e.g. a taint source line, where the primary site owns the
    bare-annotation diagnostic)."""
    hit = find_allow(model, file, line, check)
    return hit is not None and len(hit[0].strip()) >= MIN_RATIONALE_LEN
