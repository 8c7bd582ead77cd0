"""protocol-guard: epoch filtering, send/handle pairing, stride stamping.

PR 6's fault-aware explorer found dynamically that an unguarded answer
handler applies pre-crash answers to post-recovery state (the
UnfilteredRecoveryScenario certifies the failure stays reproducible).
This check proves the guard's presence statically, plus two protocol
obligations the sharded pipeline (PR 7) added:

epoch guard
    Every non-stub Handle*Answer override must be protected by an epoch
    comparison — either inside its own body, or (the real tree's shape)
    at *every* dispatch site in its base chain: Warehouse::OnMessage
    compares `answer->epoch != epoch_` between unpacking the message
    (std::get_if<...Answer>) and invoking the virtual handler. A handler
    with no epoch comparison on any path from unpack to invoke can apply
    a stale answer. Handlers that are never dispatched anywhere in the
    modeled hierarchy are skipped (conservative: we cannot show an
    unguarded path).

send/handle pairing
    A class that sends a query type must be able to consume its answer:
    SendSweepQuery -> HandleQueryAnswer, SendEcaQuery -> HandleEcaAnswer,
    SendSnapshotRequest -> HandleSnapshotAnswer. The handler may live in
    the sending class, a base, or a *derived* class (the base Warehouse
    re-issues queries on behalf of whichever algorithm subclass is
    running), but it must exist somewhere in the hierarchy as a non-stub
    body — otherwise the answer aborts at the Warehouse stub at runtime,
    on a schedule the explorer may never enumerate.

stride stamping
    Shard construction that assigns `shard_index` must also stamp
    `query_id_origin` and `query_id_stride` in the same body. Shards
    draw query ids from origin + k*stride; a shard configured without
    its stride lane collides with shard 0's ids and cross-wires answer
    routing.

Suppress with `// sweeplint:allow protocol-guard <why>` on the flagged
line (handler definition / send site / shard_index assignment).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from model import (
    Diagnostic,
    Method,
    Model,
    base_chain,
    derived_closure,
)
from tokutil import Token, in_scope, is_ident, suppressed

CHECK_GUARD = "protocol-guard"
GUARD_SCOPE = ("src/",)
# The stride rule only binds where shards are configured.
STRIDE_SCOPE = ("src/shard/",)

# handler -> (sender that elicits its message, message type name).
HANDLERS: Dict[str, Tuple[str, str]] = {
    "HandleQueryAnswer": ("SendSweepQuery", "QueryAnswer"),
    "HandleEcaAnswer": ("SendEcaQuery", "EcaQueryAnswer"),
    "HandleSnapshotAnswer": ("SendSnapshotRequest", "SnapshotAnswer"),
}
SENDER_TO_HANDLER = {s: h for h, (s, _) in HANDLERS.items()}

_EPOCH_WINDOW = 4
_FALLBACK_WINDOW = 80


def _is_stub(body: Method) -> bool:
    """The base Warehouse declares handlers as aborting stubs whose body
    *begins* with SWEEP_CHECK_MSG(false, "..."). Those carry no protocol
    obligation. (A trailing SWEEP_CHECK_MSG(false, ...) after real logic
    — the "answer matched nothing" assertion — is not a stub.)"""
    toks = body.tokens
    return (
        len(toks) >= 3
        and toks[0][0] == "SWEEP_CHECK_MSG"
        and toks[1][0] == "("
        and toks[2][0] == "false"
    )


def _epochish(tok: str) -> bool:
    return is_ident(tok) and "epoch" in tok.lower()


def _has_epoch_comparison(tokens: List[Token]) -> bool:
    """An ==/!= with at least two epoch-ish identifiers nearby — the
    `answer->epoch != epoch_` shape and its variants."""
    for i, (t, _) in enumerate(tokens):
        if t not in ("==", "!="):
            continue
        lo = max(0, i - _EPOCH_WINDOW)
        hi = min(len(tokens), i + _EPOCH_WINDOW + 1)
        hits = sum(1 for tok, _ in tokens[lo:hi] if _epochish(tok))
        if hits >= 2:
            return True
    return False


def _dispatch_sites(
    model: Model, handler: Method
) -> List[Tuple[Method, int]]:
    """(caller body, token index) of every call of handler.name reachable
    through the handler's class or its bases."""
    chain = set(base_chain(model, handler.class_name))
    sites: List[Tuple[Method, int]] = []
    for body in model.bodies:
        if body.class_name not in chain or body is handler:
            continue
        toks = body.tokens
        for i in range(len(toks) - 1):
            if toks[i][0] == handler.name and toks[i + 1][0] == "(":
                # The definition line of an out-of-line body never
                # appears in its own token stream, so every hit here is
                # a genuine call.
                sites.append((body, i))
    return sites


def _unguarded_site(
    model: Model, handler: Method
) -> Optional[Tuple[Method, int]]:
    """First dispatch site with no epoch comparison between message
    unpack and handler invocation, or None if all sites are guarded (or
    none exist)."""
    sites = _dispatch_sites(model, handler)
    if not sites:
        return None
    for body, idx in sorted(
        sites, key=lambda s: (s[0].file, s[0].tokens[s[1]][1])
    ):
        toks = body.tokens
        start = max(0, idx - _FALLBACK_WINDOW)
        for j in range(idx - 1, -1, -1):
            if toks[j][0] == "get_if":
                start = j
                break
        if not _has_epoch_comparison(toks[start:idx]):
            return body, idx
    return None


def _handler_bodies(model: Model) -> Dict[Tuple[str, str], Method]:
    out: Dict[Tuple[str, str], Method] = {}
    for body in model.bodies:
        if body.name in HANDLERS and body.class_name:
            out.setdefault((body.class_name, body.name), body)
    return out


def check_protocol_guard(
    model: Model, scope: Optional[Tuple[str, ...]]
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    handlers = _handler_bodies(model)

    # --- epoch guard --------------------------------------------------------
    for key in sorted(handlers):
        handler = handlers[key]
        if _is_stub(handler) or not in_scope(handler.file, scope):
            continue
        if _has_epoch_comparison(handler.tokens):
            continue
        site = _unguarded_site(model, handler)
        if site is None:
            continue
        site_body, site_idx = site
        site_line = site_body.tokens[site_idx][1]
        msg_type = HANDLERS[handler.name][1]
        if not suppressed(
            model, handler.file, handler.line, CHECK_GUARD, diags
        ):
            diags.append(
                Diagnostic(
                    file=handler.file,
                    line=handler.line,
                    check=CHECK_GUARD,
                    message=(
                        f"handler '{handler.class_name}::{handler.name}' "
                        f"can apply a stale {msg_type}: neither its body "
                        "nor its dispatch site "
                        f"({site_body.file}:{site_line}) compares the "
                        "answer's epoch against the warehouse epoch "
                        "before state is mutated — a pre-crash answer "
                        "would corrupt post-recovery state; guard with "
                        "'answer->epoch != epoch_' or annotate "
                        "'// sweeplint:allow protocol-guard <why>'"
                    ),
                )
            )

    # --- send/handle pairing ------------------------------------------------
    # (class, sender) -> first call site, over sorted bodies.
    send_sites: Dict[Tuple[str, str], Tuple[Method, int]] = {}
    for body in sorted(model.bodies, key=lambda b: (b.file, b.line, b.name)):
        if not body.class_name or not in_scope(body.file, scope):
            continue
        toks = body.tokens
        for i in range(len(toks) - 1):
            t = toks[i][0]
            if t in SENDER_TO_HANDLER and toks[i + 1][0] == "(":
                if body.name == t:
                    continue  # the sender's own definition wrapper
                send_sites.setdefault((body.class_name, t), (body, i))
    for cls_name, sender in sorted(send_sites):
        body, idx = send_sites[(cls_name, sender)]
        handler_name = SENDER_TO_HANDLER[sender]
        hierarchy = set(base_chain(model, cls_name))
        hierarchy.update(derived_closure(model, cls_name))
        handled = any(
            (c, handler_name) in handlers
            and not _is_stub(handlers[(c, handler_name)])
            for c in hierarchy
        )
        if handled:
            continue
        line = body.tokens[idx][1]
        if not suppressed(model, body.file, line, CHECK_GUARD, diags):
            diags.append(
                Diagnostic(
                    file=body.file,
                    line=line,
                    check=CHECK_GUARD,
                    message=(
                        f"'{cls_name}::{body.name}' sends a query via "
                        f"{sender}() but no class in its hierarchy "
                        f"defines a non-stub {handler_name}(); the answer "
                        "would abort at the Warehouse stub on delivery — "
                        "implement the handler or annotate "
                        "'// sweeplint:allow protocol-guard <why>'"
                    ),
                )
            )

    # --- stride stamping ----------------------------------------------------
    stride_scope = scope if scope is None else STRIDE_SCOPE
    for body in sorted(model.bodies, key=lambda b: (b.file, b.line, b.name)):
        if not in_scope(body.file, stride_scope):
            continue
        toks = body.tokens
        assigned: Dict[str, int] = {}
        for i in range(len(toks) - 1):
            t = toks[i][0]
            if (
                t in ("shard_index", "query_id_origin", "query_id_stride")
                and toks[i + 1][0] == "="
            ):
                assigned.setdefault(t, toks[i][1])
        if "shard_index" not in assigned:
            continue
        missing = [
            name
            for name in ("query_id_origin", "query_id_stride")
            if name not in assigned
        ]
        if not missing:
            continue
        line = assigned["shard_index"]
        if not suppressed(model, body.file, line, CHECK_GUARD, diags):
            diags.append(
                Diagnostic(
                    file=body.file,
                    line=line,
                    check=CHECK_GUARD,
                    message=(
                        f"'{body.class_name or '<free>'}::{body.name}' "
                        "assigns shard_index without stamping "
                        f"{' and '.join(missing)}; shards draw query ids "
                        "from origin + k*stride, so an unstamped shard "
                        "collides with shard 0's id lane and cross-wires "
                        "answer routing — stamp both or annotate "
                        "'// sweeplint:allow protocol-guard <why>'"
                    ),
                )
            )

    return diags
