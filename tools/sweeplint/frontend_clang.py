"""libclang frontend for sweeplint (CI's frontend of record).

Lowers real clang ASTs — parsed with the exact flags recorded in
compile_commands.json — into the shared semantic model (model.py).
Compared to the bundled micro frontend this sees code after
preprocessing: macro-generated members and conditional compilation.
Both frontends feed the same checks, and the golden fixture suite pins
that their diagnostics stay byte-identical.

Requires the clang.cindex python bindings (Debian/Ubuntu:
python3-clang + libclang1). available() reports whether a usable
libclang could be located; sweeplint.py gates on it.
"""

from __future__ import annotations

import glob
import json
import shlex
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from model import (
    ALLOW_RE as _ALLOW_RE,
    ClassInfo,
    Field,
    Method,
    Model,
)

try:
    import clang.cindex as cindex
except ImportError:  # pragma: no cover - exercised via available()
    cindex = None

_configured = False


def _configure() -> bool:
    """Points cindex at a libclang shared object, trying common install
    locations when the default lookup fails."""
    global _configured
    if cindex is None:
        return False
    if _configured:
        return True
    candidates = [None]  # None = cindex's own default lookup
    candidates += sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*")
        + glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
        + glob.glob("/usr/lib/x86_64-linux-gnu/libclang-*.so*"),
        reverse=True,  # newest first
    )
    for cand in candidates:
        try:
            if cand is not None:
                cindex.Config.library_file = None
                cindex.Config.loaded = False
                cindex.Config.set_library_file(cand)
            cindex.Index.create()
            _configured = True
            return True
        except Exception:
            continue
    return False


def available() -> bool:
    return _configure()


def _load_compile_args(
    compile_commands: Optional[Path],
) -> Dict[str, List[str]]:
    """Maps absolute source path -> compiler args (compiler argv[0] and
    the source filename stripped)."""
    out: Dict[str, List[str]] = {}
    if compile_commands is None or not compile_commands.is_file():
        return out
    for entry in json.loads(compile_commands.read_text()):
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = shlex.split(entry.get("command", ""))
        src = str(Path(entry["directory"], entry["file"]).resolve())
        args = []
        skip = False
        for a in argv[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", src, entry["file"]):
                continue
            if a == "-o":
                skip = True
                continue
            args.append(a)
        out[src] = args
    return out


def _scan_comments(rel: str, text: str, model: Model) -> None:
    """Records sweeplint:allow annotations and pure-comment lines (the
    micro frontend gets these during tokenization; here a lightweight
    line scanner does the same job — comment handling does not need the
    AST)."""
    allows = model.allows.setdefault(rel, {})
    comments = model.comment_lines.setdefault(rel, set())
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        code_before_comment = False
        if in_block:
            body = line
            if "*/" in line:
                in_block = False
                body = line.split("*/", 1)[0]
                after = line.split("*/", 1)[1].strip()
                code_before_comment = bool(after) and not after.startswith(
                    "//"
                )
        else:
            if "//" in line:
                before, body = line.split("//", 1)
                code_before_comment = bool(before.strip())
            elif "/*" in line:
                before, body = line.split("/*", 1)
                code_before_comment = bool(before.strip())
                if "*/" in body:
                    body = body.split("*/", 1)[0]
                else:
                    in_block = True
            else:
                continue
        m = _ALLOW_RE.search(body)
        if m:
            allows[lineno] = (m.group("check"), m.group("rationale").strip())
        if not code_before_comment and stripped:
            comments.add(lineno)
    if not allows:
        model.allows.pop(rel, None)


def _tokens_of(cursor) -> List[Tuple[str, int]]:
    toks = []
    for tok in cursor.get_tokens():
        if tok.kind == cindex.TokenKind.COMMENT:
            continue
        toks.append((tok.spelling, tok.location.line))
    return toks


class _TUWalker:
    def __init__(self, root: Path, rel_paths: Set[str], model: Model):
        self.root = root
        self.rel_paths = rel_paths
        self.model = model
        self.seen_methods: Set[Tuple[str, str, str, int]] = set()

    def _rel(self, cursor) -> Optional[str]:
        f = cursor.location.file
        if f is None:
            return None
        try:
            rel = Path(f.name).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None
        return rel if rel in self.rel_paths else None

    def walk(self, cursor, class_stack: List[str]) -> None:
        for child in cursor.get_children():
            kind = child.kind
            if kind in (
                cindex.CursorKind.NAMESPACE,
                cindex.CursorKind.UNEXPOSED_DECL,
                cindex.CursorKind.LINKAGE_SPEC,
            ):
                self.walk(child, class_stack)
                continue
            if kind in (
                cindex.CursorKind.CLASS_DECL,
                cindex.CursorKind.STRUCT_DECL,
                cindex.CursorKind.CLASS_TEMPLATE,
            ):
                if not child.is_definition():
                    continue
                rel = self._rel(child)
                if rel is None:
                    continue
                name = "::".join(class_stack + [child.spelling])
                info = ClassInfo(
                    name=name, file=rel, line=child.location.line
                )
                self._fill_class(child, info, rel)
                self.model.merge_class(info)
                self.walk(child, class_stack + [child.spelling])
                continue
            if kind in (
                cindex.CursorKind.CXX_METHOD,
                cindex.CursorKind.CONSTRUCTOR,
                cindex.CursorKind.DESTRUCTOR,
                cindex.CursorKind.FUNCTION_DECL,
                cindex.CursorKind.FUNCTION_TEMPLATE,
            ):
                self._visit_function(child, class_stack)
                continue
            if kind in (
                cindex.CursorKind.TYPE_ALIAS_DECL,
                cindex.CursorKind.TYPEDEF_DECL,
            ):
                self._record_alias(child)
                continue
            if kind == cindex.CursorKind.VAR_DECL and not class_stack:
                rel = self._rel(child)
                if rel is not None:
                    self.model.globals.append(Field(
                        name=child.spelling,
                        type_text=child.type.spelling,
                        file=rel,
                        line=child.location.line,
                    ))

    def _record_alias(self, cursor) -> None:
        if self._rel(cursor) is None:
            return
        try:
            target = cursor.underlying_typedef_type.spelling or ""
        except Exception:
            target = ""
        if cursor.spelling and target:
            self.model.aliases.setdefault(cursor.spelling, target)

    def _fill_class(self, cursor, info: ClassInfo, rel: str) -> None:
        for child in cursor.get_children():
            if child.kind == cindex.CursorKind.CXX_BASE_SPECIFIER:
                # Normalize to the unqualified name with template args
                # stripped — the micro frontend's spelling.
                text = child.type.spelling or child.spelling or ""
                text = text.split("<", 1)[0]
                text = text.rsplit("::", 1)[-1].strip()
                for prefix in ("class ", "struct "):
                    if text.startswith(prefix):
                        text = text[len(prefix):]
                if text and text not in info.bases:
                    info.bases.append(text)
                continue
            if child.kind == cindex.CursorKind.FIELD_DECL:
                info.fields[child.spelling] = Field(
                    name=child.spelling,
                    type_text=child.type.spelling,
                    file=rel,
                    line=child.location.line,
                    is_static=False,
                )
            elif child.kind in (
                cindex.CursorKind.CXX_METHOD,
                cindex.CursorKind.FUNCTION_TEMPLATE,
            ):
                info.declared_methods[child.spelling] = (
                    child.result_type.spelling
                )
            elif child.kind in (
                cindex.CursorKind.TYPE_ALIAS_DECL,
                cindex.CursorKind.TYPEDEF_DECL,
            ):
                self._record_alias(child)

    def _visit_function(self, cursor, class_stack: List[str]) -> None:
        if not cursor.is_definition():
            return
        rel = self._rel(cursor)
        if rel is None:
            return
        parent = cursor.semantic_parent
        class_name = ""
        if parent is not None and parent.kind in (
            cindex.CursorKind.CLASS_DECL,
            cindex.CursorKind.STRUCT_DECL,
            cindex.CursorKind.CLASS_TEMPLATE,
        ):
            # Unqualified name: the micro frontend uses the innermost
            # class spelling for out-of-line definitions, and class names
            # are unique in this codebase; nested classes inside a TU
            # walk arrive via class_stack.
            names = []
            p = parent
            while p is not None and p.kind in (
                cindex.CursorKind.CLASS_DECL,
                cindex.CursorKind.STRUCT_DECL,
                cindex.CursorKind.CLASS_TEMPLATE,
            ):
                names.append(p.spelling)
                p = p.semantic_parent
            class_name = "::".join(reversed(names))
            if class_name not in self.model.classes and names:
                class_name = names[0]
        key = (rel, class_name, cursor.spelling, cursor.location.line)
        if key in self.seen_methods:
            return
        self.seen_methods.add(key)
        body = None
        for child in cursor.get_children():
            if child.kind == cindex.CursorKind.COMPOUND_STMT:
                body = child
        if body is None:
            return
        method = Method(
            name=cursor.spelling,
            class_name=class_name,
            file=rel,
            line=cursor.location.line,
            return_type=cursor.result_type.spelling,
            tokens=_tokens_of(body),
            params=[arg.spelling or "" for arg in cursor.get_arguments()],
            param_decls=[
                Field(
                    name=arg.spelling or "",
                    type_text=arg.type.spelling,
                    file=rel,
                    line=arg.location.line,
                )
                for arg in cursor.get_arguments()
            ],
        )
        self.model.bodies.append(method)
        cls = self.model.classes.get(class_name)
        if cls is not None:
            cls.declared_methods.setdefault(
                method.name, method.return_type
            )
            cls.methods.setdefault(method.name, method)


def build_model(
    root: Path,
    rel_paths: List[str],
    compile_commands: Optional[Path],
    overlay: Optional[Dict[str, str]] = None,
) -> Model:
    if not available():
        raise RuntimeError("clang.cindex unavailable")
    model = Model()
    rel_set = set(rel_paths)
    args_by_src = _load_compile_args(compile_commands)
    default_args = ["-std=c++20", "-xc++", f"-I{root / 'src'}"]
    index = cindex.Index.create()

    unsaved = []
    if overlay:
        unsaved = [
            (str((root / rel).resolve()), text)
            for rel, text in overlay.items()
        ]

    # Parse every .cc with its recorded flags; headers are reached through
    # the TUs that include them (every src/ header is included by some
    # .cc). Headers never included anywhere would be invisible — parse
    # any such stragglers standalone.
    covered: Set[str] = set()
    tus = []
    for rel in rel_paths:
        if not rel.endswith(".cc"):
            continue
        abspath = str((root / rel).resolve())
        args = args_by_src.get(abspath, default_args)
        tu = index.parse(
            abspath,
            args=args,
            unsaved_files=unsaved,
            options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
        )
        tus.append(tu)
        for inc in tu.get_includes():
            try:
                inc_rel = (
                    Path(inc.include.name)
                    .resolve()
                    .relative_to(root)
                    .as_posix()
                )
            except ValueError:
                continue
            covered.add(inc_rel)
        covered.add(rel)
    for rel in rel_paths:
        if rel in covered or rel.endswith(".cc"):
            continue
        abspath = str((root / rel).resolve())
        tu = index.parse(
            abspath,
            args=default_args,
            unsaved_files=unsaved,
            options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
        )
        tus.append(tu)

    for tu in tus:
        walker = _TUWalker(root, rel_set, model)
        walker.walk(tu.cursor, [])

    # Deduplicate bodies seen in several TUs (header-inline methods).
    seen: Set[Tuple[str, str, str, int]] = set()
    unique: List[Method] = []
    for body in model.bodies:
        key = (body.file, body.class_name, body.name, body.line)
        if key in seen:
            continue
        seen.add(key)
        unique.append(body)
    model.bodies = unique

    for rel in rel_paths:
        if overlay and rel in overlay:
            text = overlay[rel]
        else:
            text = (root / rel).read_text(encoding="utf-8")
        _scan_comments(rel, text, model)
    return model
