"""Bundled zero-dependency C++ frontend for sweeplint.

Parses the disciplined C++ subset this repository is written in —
Google-style classes, one member per line, no macro-generated members —
into the shared semantic model (model.py). It is not a general C++
parser; it is the fallback that keeps the analyzer, the golden fixtures
and the mutation smoke running as tier-1 ctests on machines without
clang.cindex. CI additionally runs the libclang frontend
(frontend_clang.py) over the same model-level contract.

Parsing strategy: a comment/string-aware tokenizer followed by a
statement scanner that tracks namespace/class/brace nesting. Preprocessor
lines are skipped. The scanner recognizes, at namespace or class scope:

  * class/struct definitions (nested ones are keyed "Outer::Inner");
  * non-static data members, including brace/equals initializers;
  * method declarations (name + return type) and method definitions,
    whose bodies are captured as token streams for the checks.

Known, deliberate limitations (the fixtures pin the supported shapes):
multiple declarators per statement record only the last name, and
function-try-blocks / K&R oddities are unsupported.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from model import (
    ALLOW_RE as _ALLOW_RE,
    ClassInfo,
    Field,
    Method,
    Model,
)

Token = Tuple[str, int]  # (spelling, 1-based line)

# Multi-character operators the scanner must not split (":: " matters for
# qualified names, "->" so '>' is not taken for a template close, etc.).
_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = (
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")

_SKIP_STMT_STARTERS = {
    "using", "typedef", "friend", "static_assert", "template", "extern",
}

_ACCESS_SPECIFIERS = {"public", "private", "protected"}


class ParsedFile:
    """Per-file parse result, merged into a Model by build_model()."""

    def __init__(self, rel_path: str) -> None:
        self.rel_path = rel_path
        self.classes: List[ClassInfo] = []
        self.bodies: List[Method] = []
        self.allows: Dict[int, Tuple[str, str]] = {}
        self.comment_lines: Set[int] = set()
        self.aliases: Dict[str, str] = {}
        self.globals: List[Field] = []


def tokenize(text: str, parsed: ParsedFile) -> List[Token]:
    """Tokens with line numbers; comments and preprocessor lines skipped.

    Comment text is scanned for sweeplint:allow annotations, and lines
    that contain only comment text are recorded so suppression blocks
    above a finding resolve.
    """
    tokens: List[Token] = []
    line = 1
    i = 0
    n = len(text)
    # Lines where code tokens were seen / where comments were seen.
    code_lines: Set[int] = set()
    comment_seen: Set[int] = set()

    def note_comment(body: str, start_line: int) -> None:
        for off, part in enumerate(body.split("\n")):
            comment_seen.add(start_line + off)
            m = _ALLOW_RE.search(part)
            if m:
                parsed.allows[start_line + off] = (
                    m.group("check"),
                    m.group("rationale").strip(),
                )

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: skip to end of line, honoring \-continuations.
        if c == "#" and line not in code_lines:
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                if text[j - 1] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note_comment(text[i + 2 : j], line)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                j = n
            note_comment(text[i + 2 : j], line)
            line += text.count("\n", i, min(j + 2, n))
            i = min(j + 2, n)
            continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":  # unterminated; bail at line end
                    break
                j += 1
            tokens.append((text[i : j + 1], line))
            code_lines.add(line)
            i = j + 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append((text[i:j], line))
            code_lines.add(line)
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in _IDENT_CONT or text[j] in ".'"):
                j += 1
            tokens.append((text[i:j], line))
            code_lines.add(line)
            i = j
            continue
        matched = False
        for group in (_PUNCT3, _PUNCT2):
            for op in group:
                if text.startswith(op, i):
                    tokens.append((op, line))
                    code_lines.add(line)
                    i += len(op)
                    matched = True
                    break
            if matched:
                break
        if matched:
            continue
        tokens.append((c, line))
        code_lines.add(line)
        i += 1

    parsed.comment_lines = comment_seen - code_lines
    return tokens


def _find_matching_brace(tokens: List[Token], open_idx: int) -> int:
    """Index of the '}' matching tokens[open_idx] == '{' (or len(tokens))."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def _top_level_indices(stmt: List[Token]) -> Dict[str, List[int]]:
    """Positions of interesting punctuation at bracket depth 0.

    Angle brackets are tracked heuristically: '<' opens a template level
    only when it directly follows an identifier or '>', and never after
    the 'operator' keyword.
    """
    out: Dict[str, List[int]] = {"(": [], "=": [], "{": [], "[": [], ",": []}
    depth = 0
    angle = 0
    prev = ""
    for i, (t, _) in enumerate(stmt):
        if depth == 0 and angle == 0 and t in out:
            # '=' inside a default-argument list is not top-level, and
            # '= 0' of a pure virtual or '= default/delete' is handled by
            # the caller; record all depth-0 positions.
            out[t].append(i)
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth = max(0, depth - 1)
        elif t == "<" and depth == 0:
            if prev != "operator" and (
                prev
                and (prev[0].isalpha() or prev[0] == "_" or prev in (">", ">>"))
            ):
                angle += 1
        elif t == ">" and depth == 0 and angle > 0:
            angle -= 1
        elif t == ">>" and depth == 0 and angle > 0:
            # The tokenizer keeps '>>' whole (shift operator); inside a
            # template argument list it closes two levels.
            angle = max(0, angle - 2)
        prev = t
    return out


def _is_ident(t: str) -> bool:
    return bool(t) and (t[0].isalpha() or t[0] == "_")


_KEYWORDS = {
    "const", "constexpr", "static", "mutable", "virtual", "inline",
    "volatile", "explicit", "override", "final", "noexcept", "struct",
    "class", "union", "enum", "unsigned", "signed", "return", "default",
    "delete", "operator", "if", "while", "for", "switch", "do", "else",
}

# Builtin type spellings that cannot be a parameter name; a parameter
# whose trailing identifier is one of these is unnamed.
_TYPE_WORDS = {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "auto", "size_t", "ssize_t", "int8_t", "int16_t", "int32_t",
    "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "uintptr_t", "intptr_t", "wchar_t",
} | _KEYWORDS

_BASE_SPECIFIER_WORDS = {"public", "private", "protected", "virtual"}


def _base_names(stmt: List[Token], colon_idx: int) -> List[str]:
    """Base-class names from a class head's base list (after ':').

    Each top-level comma-separated chunk contributes its last identifier
    at angle depth 0 — 'public sweepmv::Warehouse' -> 'Warehouse',
    'Base<T>' -> 'Base' — matching the clang frontend's normalization."""
    bases: List[str] = []
    chunk_last = ""
    angle = 0
    prev = ""
    for tok, _ in stmt[colon_idx + 1 :]:
        if tok == "<":
            if prev and (prev[0].isalpha() or prev[0] == "_" or prev == ">"):
                angle += 1
        elif tok == ">":
            angle = max(0, angle - 1)
        elif tok == ">>":
            angle = max(0, angle - 2)
        elif tok == "," and angle == 0:
            if chunk_last:
                bases.append(chunk_last)
            chunk_last = ""
        elif (
            angle == 0
            and _is_ident(tok)
            and tok not in _BASE_SPECIFIER_WORDS
        ):
            chunk_last = tok
        prev = tok
    if chunk_last:
        bases.append(chunk_last)
    return bases


def _params(
    stmt: List[Token], open_idx: int, rel_path: str
) -> List[Field]:
    """Parameters of a function declaration whose parameter list opens at
    stmt[open_idx] == '(': name ('' when unnamed), type text and line."""
    depth = 0
    close = len(stmt)
    for i in range(open_idx, len(stmt)):
        t = stmt[i][0]
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
            if depth == 0:
                close = i
                break
    inner = stmt[open_idx + 1 : close]
    if not inner:
        return []
    params: List[Field] = []
    chunk: List[Token] = []
    depth = 0
    angle = 0
    prev = ""
    for tok, line in inner:
        if tok in ("(", "[", "{"):
            depth += 1
        elif tok in (")", "]", "}"):
            depth -= 1
        elif tok == "<" and depth == 0:
            if prev and (prev[0].isalpha() or prev[0] == "_" or prev == ">"):
                angle += 1
        elif tok == ">" and depth == 0:
            angle = max(0, angle - 1)
        elif tok == ">>" and depth == 0:
            angle = max(0, angle - 2)
        elif tok == "," and depth == 0 and angle == 0:
            params.append(_chunk_param(chunk, rel_path))
            chunk = []
            prev = tok
            continue
        chunk.append((tok, line))
        prev = tok
    params.append(_chunk_param(chunk, rel_path))
    return params


def _chunk_param(chunk: List[Token], rel_path: str) -> Field:
    # Cut at a default argument, then take the trailing identifier.
    words = [t for t, _ in chunk]
    if "=" in words:
        chunk = chunk[: words.index("=")]
    name = ""
    type_end = len(chunk)
    for i in range(len(chunk) - 1, -1, -1):
        tok = chunk[i][0]
        if _is_ident(tok):
            if tok not in _TYPE_WORDS:
                name = tok
                type_end = i
            break
        if tok not in ("&", "*", "]", "[", "const"):
            break
    # The name's line, as libclang reports a parameter's location.
    at = type_end if name else 0
    return Field(
        name=name,
        type_text=" ".join(t for t, _ in chunk[:type_end]),
        file=rel_path,
        line=chunk[at][1] if chunk else 0,
    )


def _capture_alias(stmt: List[Token], parsed: ParsedFile) -> None:
    """Records `using X = ...;` / `typedef ... X;` type aliases (any
    scope) so the unordered-container predicate resolves them."""
    if not stmt:
        return
    if (
        stmt[0][0] == "using"
        and len(stmt) >= 4
        and _is_ident(stmt[1][0])
        and stmt[2][0] == "="
    ):
        parsed.aliases.setdefault(
            stmt[1][0], " ".join(t for t, _ in stmt[3:])
        )
    elif (
        stmt[0][0] == "typedef"
        and len(stmt) >= 3
        and _is_ident(stmt[-1][0])
    ):
        parsed.aliases.setdefault(
            stmt[-1][0], " ".join(t for t, _ in stmt[1:-1])
        )


def _member_from_statement(
    stmt: List[Token], rel_path: str
) -> Optional[Field]:
    """Parses a class-scope statement as a data-member declaration."""
    if not stmt:
        return None
    is_static = any(t == "static" for t, _ in stmt)
    tops = _top_level_indices(stmt)
    # Name = last identifier before the first top-level '=', '{' or '['.
    cut = len(stmt)
    for key in ("=", "{", "["):
        if tops[key]:
            cut = min(cut, tops[key][0])
    name_idx = None
    for i in range(cut - 1, -1, -1):
        t = stmt[i][0]
        if _is_ident(t) and t not in _KEYWORDS:
            name_idx = i
            break
    if name_idx is None or name_idx == 0:
        return None  # no type before the name -> not a member decl
    name, line = stmt[name_idx]
    type_text = " ".join(t for t, _ in stmt[:name_idx])
    if not type_text:
        return None
    return Field(
        name=name,
        type_text=type_text,
        file=rel_path,
        line=line,
        is_static=is_static,
    )


def _namespace_variable(
    stmt: List[Token], rel_path: str
) -> Optional[Field]:
    """Parses a namespace-scope statement as a variable declaration. A
    top-level '(' before any '=' reads as a function declaration, so a
    direct-initialized `T x(args);` is not seen (as for class members)."""
    if stmt[0][0] in _SKIP_STMT_STARTERS or stmt[0][0] in (
        "enum", "namespace", "class", "struct", "union",
    ):
        return None
    tops = _top_level_indices(stmt)
    if tops["("] and not (tops["="] and tops["="][0] < tops["("][0]):
        return None
    return _member_from_statement(stmt, rel_path)


def _function_name(stmt: List[Token]) -> Optional[Tuple[str, str, int, str]]:
    """(name, explicit_class_qualifier, line, return_type) of a function
    declaration/definition statement, or None.

    The function name is the identifier directly before the first
    top-level '(' ; a 'Class ::' chain directly before it is the
    qualifier (out-of-line definitions).
    """
    tops = _top_level_indices(stmt)
    if not tops["("]:
        return None
    p = tops["("][0]
    if p == 0:
        return None
    name_tok, line = stmt[p - 1]
    if name_tok == "operator" or not _is_ident(name_tok):
        # operator() and friends: name them 'operator…' for completeness.
        j = p - 1
        parts = []
        while j >= 0 and stmt[j][0] != "operator":
            parts.append(stmt[j][0])
            j -= 1
        if j < 0:
            return None
        name_tok = "operator" + "".join(reversed(parts))
        line = stmt[j][1]
        p = j + 1  # qualifier scan starts left of 'operator'
        qual_end = j
    else:
        qual_end = p - 1
    qualifier = ""
    i = qual_end
    quals: List[str] = []
    while i >= 2 and stmt[i - 1][0] == "::" and _is_ident(stmt[i - 2][0]):
        quals.append(stmt[i - 2][0])
        i -= 2
    if quals:
        qualifier = "::".join(reversed(quals))
    if quals:
        ret = " ".join(t for t, _ in stmt[:i])
    else:
        ret = " ".join(t for t, _ in stmt[:qual_end])
    return name_tok, qualifier, line, ret


class _Scope:
    def __init__(self, kind: str, name: str, info: Optional[ClassInfo]):
        self.kind = kind  # 'namespace' | 'class' | 'block'
        self.name = name
        self.info = info


def parse_file(rel_path: str, text: str) -> ParsedFile:
    parsed = ParsedFile(rel_path)
    tokens = tokenize(text, parsed)
    scopes: List[_Scope] = []

    def current_class() -> Optional[ClassInfo]:
        for scope in reversed(scopes):
            if scope.kind == "class":
                return scope.info
            if scope.kind == "block":
                return None
        return None

    def class_prefix() -> str:
        names = [s.name for s in scopes if s.kind == "class"]
        return "::".join(names)

    i = 0
    n = len(tokens)
    stmt: List[Token] = []
    while i < n:
        t, line = tokens[i]
        if t == "}":
            if scopes:
                scopes.pop()
            stmt = []
            i += 1
            # Consume a trailing ';' after class/enum bodies.
            if i < n and tokens[i][0] == ";":
                i += 1
            continue
        if t in _ACCESS_SPECIFIERS and i + 1 < n and tokens[i + 1][0] == ":":
            stmt = []
            i += 2
            continue
        if t == ";":
            _capture_alias(stmt, parsed)
            cls = current_class()
            if stmt and all(sc.kind == "namespace" for sc in scopes):
                var = _namespace_variable(stmt, rel_path)
                if var is not None:
                    parsed.globals.append(var)
            if stmt and cls is not None:
                first = stmt[0][0]
                tops = _top_level_indices(stmt)
                if first in _SKIP_STMT_STARTERS or first == "enum":
                    pass
                elif tops["("]:
                    fn = _function_name(stmt)
                    if fn is not None:
                        cls.declared_methods[fn[0]] = fn[3]
                else:
                    field = _member_from_statement(stmt, rel_path)
                    if field is not None:
                        cls.fields[field.name] = field
            stmt = []
            i += 1
            continue
        if t == "{":
            core = stmt
            first = core[0][0] if core else ""
            tops = _top_level_indices(core)
            has_class_kw = any(
                tok in ("class", "struct", "union")
                for tok, _ in core
                if tok
            )
            if first == "namespace":
                name = stmt[1][0] if len(stmt) > 1 else ""
                scopes.append(_Scope("namespace", name, None))
                stmt = []
                i += 1
                continue
            if first == "enum" or (first == "typedef"):
                close = _find_matching_brace(tokens, i)
                stmt = []
                i = close + 1
                continue
            if has_class_kw and not tops["("] and not tops["="]:
                kw_idx = next(
                    idx
                    for idx, (tok, _) in enumerate(stmt)
                    if tok in ("class", "struct", "union")
                )
                name = ""
                for tok, _ in stmt[kw_idx + 1 :]:
                    if _is_ident(tok) and tok not in (
                        "final", "alignas", "public", "private", "protected",
                    ):
                        name = tok
                        break
                    if tok == ":":
                        break
                if not name:
                    close = _find_matching_brace(tokens, i)
                    stmt = []
                    i = close + 1
                    continue
                bases: List[str] = []
                for idx in range(kw_idx + 1, len(stmt)):
                    if stmt[idx][0] == ":":
                        bases = _base_names(stmt, idx)
                        break
                prefix = class_prefix()
                qualified = f"{prefix}::{name}" if prefix else name
                info = ClassInfo(
                    name=qualified,
                    file=rel_path,
                    line=stmt[0][1],
                    bases=bases,
                )
                parsed.classes.append(info)
                scopes.append(_Scope("class", name, info))
                stmt = []
                i += 1
                continue
            if tops["="]:
                # Brace initializer after '=': absorb it into the statement.
                close = _find_matching_brace(tokens, i)
                stmt.extend(tokens[i : close + 1])
                i = close + 1
                continue
            if tops["("]:
                fn = _function_name(core)
                close = _find_matching_brace(tokens, i)
                if fn is not None:
                    name, qualifier, fline, ret = fn
                    cls = current_class()
                    if qualifier:
                        class_name = qualifier
                    elif cls is not None:
                        class_name = cls.name
                    else:
                        class_name = ""
                    decls = _params(core, tops["("][0], rel_path)
                    method = Method(
                        name=name,
                        class_name=class_name,
                        file=rel_path,
                        line=fline,
                        return_type=ret,
                        tokens=tokens[i + 1 : close],
                        params=[p.name for p in decls],
                        param_decls=decls,
                    )
                    parsed.bodies.append(method)
                    if cls is not None and not qualifier:
                        cls.declared_methods[name] = ret
                        cls.methods[name] = method
                stmt = []
                i = close + 1
                continue
            prev = stmt[-1][0] if stmt else ""
            if _is_ident(prev) or prev in (">", ">>"):
                # Brace-initialized member/variable: absorb and continue.
                close = _find_matching_brace(tokens, i)
                stmt.extend(tokens[i : close + 1])
                i = close + 1
                continue
            # Unrecognized block (should not happen at decl scope): skip.
            close = _find_matching_brace(tokens, i)
            stmt = []
            i = close + 1
            continue
        stmt.append((t, line))
        i += 1
    return parsed


def build_model(files: Dict[str, str]) -> Model:
    """files: rel_path -> text. Returns the merged Model."""
    return model_from_parsed(
        [parse_file(p, files[p]) for p in sorted(files)]
    )


def model_from_parsed(parsed_files: List[ParsedFile]) -> Model:
    """Merges per-file parses. Attachment of out-of-line method bodies to
    their classes happens after every file is merged, so .cc/.h parse
    order does not matter — which also lets the mutation smoke re-parse a
    single overlaid file and reuse the cached parses of every other."""
    model = Model()
    for parsed in parsed_files:
        for info in parsed.classes:
            model.merge_class(info)
        model.bodies.extend(parsed.bodies)
        if parsed.allows:
            model.allows.setdefault(parsed.rel_path, {}).update(parsed.allows)
        if parsed.comment_lines:
            model.comment_lines.setdefault(parsed.rel_path, set()).update(
                parsed.comment_lines
            )
        for alias, target in parsed.aliases.items():
            model.aliases.setdefault(alias, target)
        model.globals.extend(parsed.globals)
    for body in model.bodies:
        if body.class_name and "::" not in body.class_name:
            cls = model.classes.get(body.class_name)
            if cls is not None:
                cls.declared_methods.setdefault(body.name, body.return_type)
                cls.methods.setdefault(body.name, body)
    return model
