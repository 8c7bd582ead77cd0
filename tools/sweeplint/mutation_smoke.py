#!/usr/bin/env python3
"""Mutation smoke test: prove sweeplint actually catches what it claims.

A check is only worth its ctest slot if breaking the property breaks the
check. This script perturbs the real tree in memory (file overlays —
nothing on disk is touched) and asserts sweeplint reports a diagnostic
naming the mutated construct:

  drop-list-line    delete one member's entry from a class's state list
                    (VisitState) — snapshot, undo, checkpoint and
                    fingerprint would all silently skip the member, so
                    state-inventory must flag it;
  add-member        insert a new member into a class with a state list
                    without listing it;
  drop-epoch-guard  delete one `filter_stale_epochs` if-block from the
                    Warehouse::OnMessage dispatch — every derived
                    handler of that message type must be flagged as able
                    to apply a stale answer (the static twin of PR 6's
                    UnfilteredRecoveryScenario);
  drop-handler      delete one derived Handle*Answer definition — the
                    class still sends the query, so the send/handle
                    pairing must break;
  drop-stride       delete the query_id_origin or query_id_stride stamp
                    from shard construction;
  taint-inject      append a probe function pairing each nondeterminism
                    source (RNG, wall-clock, thread id, pointer
                    identity, and the order of a non-commutative fold
                    over an unordered container) with each sink
                    (Schedule, fingerprint, trace, checkpoint write,
                    query-id assignment), both directly and laundered
                    through a helper's return value — 50 source-to-sink
                    flows the taint pass must reconstruct.

--all sweeps every eligible target of every mode (CI); --seed N mutates
one pseudo-randomly chosen target per mode (the quick local smoke).

Exit 0 when every attempted mutation was caught, 1 otherwise. Under
--all, additionally fails if fewer than V2_FLOOR mutations target the
v2 checks (determinism-taint + protocol-guard) — the floor the sweep
certifies.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod  # noqa: E402
import frontend_micro  # noqa: E402
import guards as guards_mod  # noqa: E402
from model import (  # noqa: E402
    STATE_LIST_METHOD,
    Method,
    Model,
    base_chain,
    derived_closure,
)

PROBE_MEMBER = "sweeplint_mutation_probe_"

ALL_MODES = (
    "drop-list-line",
    "add-member",
    "drop-epoch-guard",
    "drop-handler",
    "drop-stride",
    "taint-inject",
)
V2_MODES = ("drop-epoch-guard", "drop-handler", "drop-stride", "taint-inject")
V2_FLOOR = 63

_DISPATCH_FILE = "src/core/warehouse.cc"
_STRIDE_FILE = "src/shard/sharded_scenario.cc"
_TAINT_HOST = "src/core/warehouse.cc"

_MSG_TO_HANDLER = {msg: h for h, (_, msg) in guards_mod.HANDLERS.items()}

# The acceptance anchor: dropping the QueryAnswer epoch filter must flag
# the same handler PR 6's explorer implicated dynamically.
_EPOCH_ANCHOR = {"QueryAnswer": ("PipelinedSweepWarehouse", "src/core/pipelined_sweep.cc")}

# (key, statements defining {v}, diagnostic fragment) — the statements
# are only ever parsed by the analyzer, never compiled, so they may lean
# on names that exist in the host file's scope.
_TAINT_SOURCES = (
    ("rand", "unsigned long {v} = rand();", "unseeded RNG ('rand')"),
    (
        "clock",
        "unsigned long {v} = std::chrono::system_clock::now();",
        "wall-clock ('std::chrono::system_clock')",
    ),
    (
        "thread",
        "unsigned long {v} = pthread_self();",
        "thread identity ('pthread_self')",
    ),
    (
        "pointer",
        "unsigned long {v} = reinterpret_cast<uintptr_t>(sim);",
        "pointer identity ('reinterpret_cast<uintptr_t>')",
    ),
    (
        "order",
        "std::unordered_map<unsigned long, long> seen;\n"
        "  unsigned long {v} = 0;\n"
        "  for (const auto& entry : seen) {v} = {v} * 31 + entry.first;",
        "unordered-container iteration order ('seen')",
    ),
)
_TAINT_SINKS = (
    ("schedule", "sim->Schedule(5, {v})", "a Simulator::Schedule() argument"),
    ("fingerprint", "HashCombine(7, {v})", "a state fingerprint (HashCombine())"),
    ("trace", "TraceEvent({v})", "trace output (TraceEvent())"),
    ("checkpoint", "w->WriteU64({v})", "checkpoint serialization (WriteU64())"),
    ("queryid", "next_query_id = {v}", "query-id assignment"),
)

_PROBE_DIRECT = """
void SweeplintTaintProbe(Simulator* sim, CheckpointWriter* w) {{
  {src}
  {sink};
}}
"""

_PROBE_LAUNDERED = """
unsigned long SweeplintTaintMix(Simulator* sim) {{
  {src}
  return inner;
}}

void SweeplintTaintProbe(Simulator* sim, CheckpointWriter* w) {{
  unsigned long outer = SweeplintTaintMix(sim);
  {sink};
}}
"""


class Target:
    def __init__(
        self,
        mode: str,
        label: str,
        mutations: List[Tuple[str, str]],  # (rel_path, mutated_text)
        checks: Tuple[str, ...],
        needles: List[str],
        site: Optional[Tuple[str, Optional[int]]] = None,
    ) -> None:
        self.mode = mode
        self._label = label
        self.mutations = mutations
        self.checks = checks
        self.needles = needles
        self.site = site

    def label(self) -> str:
        return f"{self.mode}:{self._label}"


def _delete_statement(text: str, start_line: int) -> str:
    """Deletes the statement starting at `start_line` (1-based) through
    the line that ends it with ';'."""
    lines = text.split("\n")
    end = start_line - 1
    while end < len(lines) - 1 and not lines[end].rstrip().endswith(";"):
        end += 1
    return "\n".join(lines[: start_line - 1] + lines[end + 1 :])


def _delete_block(text: str, start_line: int) -> str:
    """Deletes the brace-delimited block opening at `start_line`
    (1-based): the line itself through the line that balances its first
    '{'."""
    lines = text.split("\n")
    opened = 0
    seen_brace = False
    end = start_line - 1
    for k in range(start_line - 1, len(lines)):
        opened += lines[k].count("{") - lines[k].count("}")
        if "{" in lines[k]:
            seen_brace = True
        if seen_brace and opened <= 0:
            end = k
            break
    return "\n".join(lines[: start_line - 1] + lines[end + 1 :])


def _delete_line(text: str, line_no: int) -> str:
    lines = text.split("\n")
    return "\n".join(lines[: line_no - 1] + lines[line_no:])


def _insert_probe_member(
    text: str, anchor_line: int
) -> str:
    """Adds an unlisted mutable member right after `anchor_line`
    (1-based), reusing its indentation."""
    lines = text.split("\n")
    anchor = lines[anchor_line - 1]
    indent = anchor[: len(anchor) - len(anchor.lstrip())]
    lines.insert(anchor_line, f"{indent}int {PROBE_MEMBER} = 0;")
    return "\n".join(lines)


def discover_state_targets(
    files: Dict[str, str], model: Model
) -> List[Target]:
    """Per class with a state list: one drop-list-line target per entry,
    and one add-member target."""
    targets: List[Target] = []
    for class_name in sorted(model.classes):
        cls = model.classes[class_name]
        entries = cls.state_list()
        if not entries or not cls.file.startswith("src/"):
            continue
        body = cls.methods[STATE_LIST_METHOD]
        for entry in entries:
            targets.append(
                Target(
                    "drop-list-line",
                    f"{class_name}.{entry.member}",
                    [(body.file,
                      _delete_statement(files[body.file], entry.line))],
                    (checks_mod.CHECK_STATE,),
                    [class_name, entry.member, "missing from its state list"],
                )
            )
        anchor = next(
            (cls.fields[f] for f in sorted(cls.fields)
             if not cls.fields[f].is_static),
            None,
        )
        if anchor is not None:
            targets.append(
                Target(
                    "add-member",
                    f"{class_name}.{PROBE_MEMBER}",
                    [(anchor.file,
                      _insert_probe_member(files[anchor.file], anchor.line))],
                    (checks_mod.CHECK_STATE,),
                    [class_name, PROBE_MEMBER],
                )
            )
    return targets


def discover_epoch_guard_targets(files: Dict[str, str]) -> List[Target]:
    """One target per `filter_stale_epochs` if-block in the dispatch
    file; deleting the block must flag every derived handler of that
    message type."""
    text = files.get(_DISPATCH_FILE, "")
    lines = text.split("\n")
    targets: List[Target] = []
    for i, line in enumerate(lines):
        if "filter_stale_epochs" not in line or "if" not in line:
            continue
        msg_type = None
        for j in range(i, max(-1, i - 5), -1):
            m = re.search(r"get_if<(\w+)>", lines[j])
            if m:
                msg_type = m.group(1)
                break
        if msg_type is None or msg_type not in _MSG_TO_HANDLER:
            continue
        handler = _MSG_TO_HANDLER[msg_type]
        mutated = _delete_block(text, i + 1)
        needles = [f"can apply a stale {msg_type}"]
        site = None
        anchor = _EPOCH_ANCHOR.get(msg_type)
        if anchor is not None:
            needles.append(f"{anchor[0]}::{handler}")
            site = (anchor[1], None)
        targets.append(
            Target(
                "drop-epoch-guard",
                msg_type,
                [(_DISPATCH_FILE, mutated)],
                (guards_mod.CHECK_GUARD,),
                needles,
                site,
            )
        )
    return targets


def discover_handler_targets(
    files: Dict[str, str], model: Model
) -> List[Target]:
    """One target per derived non-stub Handle*Answer definition whose
    deletion leaves some sending class with no handler in its
    hierarchy."""
    handler_bodies: Dict[Tuple[str, str], Method] = {}
    for body in model.bodies:
        if (
            body.name in guards_mod.HANDLERS
            and body.class_name
            and body.file.startswith("src/")
            and not guards_mod._is_stub(body)
        ):
            handler_bodies.setdefault((body.class_name, body.name), body)

    # Classes that call each sender outside its own definition.
    sending: Dict[str, List[str]] = {}
    for body in model.bodies:
        if not body.class_name:
            continue
        toks = body.tokens
        for i in range(len(toks) - 1):
            t = toks[i][0]
            if (
                t in guards_mod.SENDER_TO_HANDLER
                and toks[i + 1][0] == "("
                and body.name != t
            ):
                sending.setdefault(t, []).append(body.class_name)

    targets: List[Target] = []
    for (cls, name) in sorted(handler_bodies):
        body = handler_bodies[(cls, name)]
        sender = guards_mod.HANDLERS[name][0]
        breaks_pairing = False
        for send_cls in sending.get(sender, ()):
            hierarchy = set(base_chain(model, send_cls))
            hierarchy.update(derived_closure(model, send_cls))
            if cls not in hierarchy:
                continue
            survivors = [
                k
                for k in handler_bodies
                if k != (cls, name) and k[1] == name and k[0] in hierarchy
            ]
            if not survivors:
                breaks_pairing = True
        if not breaks_pairing:
            continue
        mutated = _delete_block(files[body.file], body.line)
        targets.append(
            Target(
                "drop-handler",
                f"{cls}::{name}",
                [(body.file, mutated)],
                (guards_mod.CHECK_GUARD,),
                [f"non-stub {name}()"],
            )
        )
    return targets


def discover_stride_targets(files: Dict[str, str]) -> List[Target]:
    text = files.get(_STRIDE_FILE, "")
    targets: List[Target] = []
    for stamp in ("query_id_origin", "query_id_stride"):
        for i, line in enumerate(text.split("\n")):
            if re.search(rf"\b{stamp}\s*=", line):
                targets.append(
                    Target(
                        "drop-stride",
                        stamp,
                        [(_STRIDE_FILE, _delete_line(text, i + 1))],
                        (guards_mod.CHECK_GUARD,),
                        ["assigns shard_index without stamping", stamp],
                    )
                )
                break
    return targets


def discover_taint_targets(files: Dict[str, str]) -> List[Target]:
    """source x sink x {direct, laundered} probe functions appended to a
    real in-scope file."""
    host = files.get(_TAINT_HOST, "")
    targets: List[Target] = []
    for src_key, src_tpl, src_desc in _TAINT_SOURCES:
        for sink_key, sink_tpl, sink_desc in _TAINT_SINKS:
            for shape, template, src_var, var in (
                ("direct", _PROBE_DIRECT, "probe_value", "probe_value"),
                ("laundered", _PROBE_LAUNDERED, "inner", "outer"),
            ):
                probe = template.format(
                    src=src_tpl.format(v=src_var),
                    sink=sink_tpl.format(v=var),
                )
                needles = [src_desc, sink_desc]
                if shape == "laundered":
                    needles.append("SweeplintTaintMix")
                targets.append(
                    Target(
                        "taint-inject",
                        f"{src_key}->{sink_key}:{shape}",
                        [(_TAINT_HOST, host + probe)],
                        (checks_mod.CHECK_TAINT,),
                        needles,
                    )
                )
    return targets


def discover_targets(
    root: Path, files: Dict[str, str], model: Model
) -> List[Target]:
    targets = discover_state_targets(files, model)
    targets.extend(discover_epoch_guard_targets(files))
    targets.extend(discover_handler_targets(files, model))
    targets.extend(discover_stride_targets(files))
    targets.extend(discover_taint_targets(files))
    return targets


def run_target(
    target: Target,
    files: Dict[str, str],
    parsed_cache: Dict[str, "frontend_micro.ParsedFile"],
) -> Tuple[bool, str]:
    """Applies each mutation of the target; all must be caught by a
    diagnostic carrying every expected fragment (and landing at the
    expected site, when one is pinned)."""
    for rel, mutated_text in target.mutations:
        parsed = dict(parsed_cache)
        parsed[rel] = frontend_micro.parse_file(rel, mutated_text)
        model = frontend_micro.model_from_parsed(
            [parsed[p] for p in sorted(parsed)]
        )
        diags = checks_mod.run_checks(model, target.checks)
        hits = [
            d
            for d in diags
            if all(needle in d.message for needle in target.needles)
        ]
        if target.site is not None:
            want_file, want_line = target.site
            hits = [
                d
                for d in hits
                if d.file == want_file
                and (want_line is None or d.line == want_line)
            ]
        if not hits:
            summary = "; ".join(d.text() for d in diags[:3]) or "no output"
            return False, f"mutating {rel} produced no diagnostic ({summary})"
    return True, ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".")
    parser.add_argument(
        "--all", action="store_true", help="sweep every eligible mutation"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="pick one target per mode pseudo-randomly (ignored with --all)",
    )
    args = parser.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "tools" / "sweeplint"))
    import sweeplint

    rel_paths = sweeplint.source_files(root)
    files = sweeplint.load_files(root, rel_paths)
    parsed_cache = {
        rel: frontend_micro.parse_file(rel, files[rel]) for rel in rel_paths
    }
    base_model = frontend_micro.model_from_parsed(
        [parsed_cache[p] for p in sorted(parsed_cache)]
    )
    base = checks_mod.run_checks(base_model, checks_mod.ALL_CHECKS)
    if base:
        print("mutation_smoke: tree is not clean before mutating:")
        for d in base:
            print("  " + d.text())
        return 1

    targets = discover_targets(root, files, base_model)
    if not targets:
        print("mutation_smoke: no eligible targets found", file=sys.stderr)
        return 1

    if args.all:
        chosen = targets
    else:
        # Deterministic pseudo-random pick per mode (no RNG dependency:
        # a seed-indexed stride over the sorted target list).
        chosen = []
        for mode in ALL_MODES:
            pool = [t for t in targets if t.mode == mode]
            if pool:
                chosen.append(pool[args.seed % len(pool)])

    failures = 0
    per_mode: Dict[str, int] = {}
    for target in chosen:
        ok, why = run_target(target, files, parsed_cache)
        if ok:
            per_mode[target.mode] = per_mode.get(target.mode, 0) + 1
            print(f"caught {target.label()}")
        else:
            failures += 1
            print(f"MISSED {target.label()}: {why}")
    print(
        f"mutation_smoke: {len(chosen) - failures}/{len(chosen)} mutations "
        "caught"
    )
    if args.all:
        v2_caught = sum(per_mode.get(m, 0) for m in V2_MODES)
        print(
            f"mutation_smoke: {v2_caught} v2 mutations "
            f"(determinism-taint + protocol-guard, floor {V2_FLOOR})"
        )
        if v2_caught < V2_FLOOR:
            print(
                "mutation_smoke: v2 sweep below floor — the new checks "
                "are under-exercised",
                file=sys.stderr,
            )
            return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
