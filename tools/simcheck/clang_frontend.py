"""libclang (python `clang.cindex`) frontend.

Walks real ASTs of every TU listed in build/compile_commands.json and
produces the same normalized model as the fallback frontend, so the
rules are frontend-agnostic. This is the authoritative frontend: when
libclang is installed (the CI `simcheck` job apt-pins it), inherited
members, template instantiations and macro expansions come from the
compiler, not from heuristics.

Import of this module must stay safe on hosts without libclang —
callers go through `load()` which raises FrontendUnavailable instead
of ImportError at module import time.
"""

import os

from .lexer import lex
from .model import (
    ClassInfo,
    Field,
    FileModel,
    Method,
    Model,
    Param,
    RangeForLoop,
    VarDecl,
)


class FrontendUnavailable(RuntimeError):
    pass


def _import_cindex():
    try:
        from clang import cindex  # noqa: deferred, optional dep
    except ImportError as e:
        raise FrontendUnavailable(
            "python clang bindings not importable: " + str(e)
        )
    # Let an explicit override win, then common sonames.
    lib = os.environ.get("SIMCHECK_LIBCLANG")
    if lib:
        cindex.Config.set_library_file(lib)
    else:
        for cand in (
            "libclang.so",
            "libclang-18.so.18",
            "libclang-17.so.17",
            "libclang-16.so.16",
            "libclang-15.so.15",
            "libclang-14.so.14",
            "libclang-14.so.1",
        ):
            try:
                cindex.Config.set_library_file(cand)
                cindex.Index.create()
                break
            except Exception:
                cindex.Config.library_file = None
                continue
    try:
        cindex.Index.create()
    except Exception as e:
        raise FrontendUnavailable(
            "libclang shared library not loadable: " + str(e)
        )
    return cindex


def available():
    try:
        _import_cindex()
        return True
    except FrontendUnavailable:
        return False


def _is_deleted(cursor):
    """`= delete` declaration? Newer bindings answer directly; older
    ones expose only the tokens of the declaration's extent."""
    probe = getattr(cursor, "is_deleted_method", None)
    if probe is not None:
        try:
            return bool(probe())
        except Exception:
            pass
    toks = [t.spelling for t in cursor.get_tokens()]
    if toks and toks[-1] == ";":
        toks.pop()
    return toks[-2:] == ["=", "delete"]


def _spelling_tokens(cursor):
    """Lex the cursor's source extent with our own lexer so body token
    streams are identical in shape to the fallback frontend's."""
    try:
        src = cursor.extent.start.file
        if src is None:
            return []
        with open(src.name, encoding="utf-8", errors="replace") as f:
            text = f.read()
        # Offsets are byte-ish; slice by offset then re-lex with the
        # start line so token lines match the real file.
        start = cursor.extent.start.offset
        end = cursor.extent.end.offset
        snippet = text[start:end]
        toks = lex(snippet)
        delta = cursor.extent.start.line - 1
        for t in toks:
            t.line += delta
        return toks
    except Exception:
        return []


class _TuVisitor:
    def __init__(self, cindex, repo_root, model):
        self.ci = cindex
        self.root = repo_root
        self.model = model

    def _rel(self, location):
        if location.file is None:
            return None
        path = os.path.realpath(location.file.name)
        root = os.path.realpath(self.root)
        if not path.startswith(root + os.sep):
            return None
        return os.path.relpath(path, root)

    def _file_model(self, rel):
        if rel not in self.model.files:
            fm = FileModel(path=rel)
            full = os.path.join(self.root, rel)
            try:
                with open(
                    full, encoding="utf-8", errors="replace"
                ) as f:
                    text = f.read()
                fm.lines = text.splitlines()
                fm.tokens = lex(text)
            except OSError:
                pass
            self.model.add_file(fm)
        return self.model.files[rel]

    def visit(self, tu):
        ck = self.ci.CursorKind
        for cursor in tu.cursor.walk_preorder():
            rel = self._rel(cursor.location)
            if rel is None:
                continue
            if cursor.kind in (
                ck.CLASS_DECL,
                ck.STRUCT_DECL,
                ck.CLASS_TEMPLATE,
            ):
                if cursor.is_definition():
                    self._visit_class(cursor, rel)
            elif cursor.kind == ck.ENUM_DECL:
                fm = self._file_model(rel)
                if cursor.spelling and (
                    cursor.spelling not in fm.enums
                ):
                    fm.enums.append(cursor.spelling)
            elif cursor.kind in (
                ck.TYPE_ALIAS_DECL,
                ck.TYPEDEF_DECL,
            ):
                fm = self._file_model(rel)
                try:
                    fm.aliases[cursor.spelling] = (
                        cursor.underlying_typedef_type.spelling
                    )
                except Exception:
                    pass
            elif cursor.kind == ck.FUNCTION_DECL:
                self._visit_function(cursor, rel, cls=None)
            elif cursor.kind == ck.CXX_FOR_RANGE_STMT:
                self._visit_range_for(cursor, rel)
            elif cursor.kind in (ck.VAR_DECL, ck.PARM_DECL):
                fm = self._file_model(rel)
                fm.var_decls.append(
                    VarDecl(
                        name=cursor.spelling,
                        file=rel,
                        line=cursor.location.line,
                        type_spelling=cursor.type.spelling,
                        kind=(
                            "param"
                            if cursor.kind == ck.PARM_DECL
                            else "local"
                        ),
                    )
                )

    def _visit_class(self, cursor, rel):
        ck = self.ci.CursorKind
        fm = self._file_model(rel)
        # Dedupe: the same header parses in many TUs.
        for c in fm.classes:
            if (
                c.name == cursor.spelling
                and c.line == cursor.location.line
            ):
                return
        cls = ClassInfo(
            name=cursor.spelling,
            file=rel,
            line=cursor.location.line,
            end_line=cursor.extent.end.line,
        )
        for child in cursor.get_children():
            if child.kind == ck.CXX_BASE_SPECIFIER:
                base = child.type.spelling
                base = base.split("<", 1)[0].rsplit("::", 1)[-1]
                cls.bases.append(base)
            elif child.kind == ck.FIELD_DECL:
                has_init = any(
                    g.kind.is_expression()
                    for g in child.get_children()
                    if g.kind != ck.TYPE_REF
                )
                cls.fields.append(
                    Field(
                        name=child.spelling,
                        file=rel,
                        line=child.location.line,
                        type_spelling=child.type.spelling,
                        has_initializer=has_init,
                    )
                )
            elif child.kind in (
                ck.CXX_METHOD,
                ck.CONSTRUCTOR,
                ck.DESTRUCTOR,
                ck.FUNCTION_TEMPLATE,
            ):
                self._visit_function(child, rel, cls=cls)
        fm.classes.append(cls)

    def _visit_function(self, cursor, rel, cls):
        ck = self.ci.CursorKind
        params = []
        init_list = []
        body = None
        for child in cursor.get_children():
            if child.kind == ck.PARM_DECL:
                params.append(
                    Param(
                        name=child.spelling,
                        type_spelling=child.type.spelling,
                    )
                )
            elif child.kind == ck.MEMBER_REF:
                # Constructor member-init-list entry.
                init_list.append(
                    (child.spelling, child.location.line)
                )
            elif child.kind == ck.COMPOUND_STMT:
                body = _spelling_tokens(child)

        is_ctor = cursor.kind == ck.CONSTRUCTOR
        try:
            ret = (
                ""
                if is_ctor or cursor.kind == ck.DESTRUCTOR
                else cursor.result_type.spelling
            )
        except Exception:
            ret = ""
        method = Method(
            name=cursor.spelling,
            file=rel,
            line=cursor.location.line,
            params=params,
            return_type=ret,
            is_const=bool(getattr(cursor, "is_const_method",
                                  lambda: False)()),
            is_ctor=is_ctor,
            is_static=bool(
                getattr(cursor, "is_static_method", lambda: False)()
            ),
            is_deleted=_is_deleted(cursor),
            body=body,
            init_list=init_list,
        )
        if cls is not None:
            cls.methods.append(method)
        else:
            fm = self._file_model(rel)
            # Out-of-line member definition: attach by semantic
            # parent so the rules see the body on the class.
            parent = cursor.semantic_parent
            if parent is not None and parent.kind in (
                self.ci.CursorKind.CLASS_DECL,
                self.ci.CursorKind.STRUCT_DECL,
            ):
                method.name = (
                    parent.spelling + "::" + method.name
                )
            fm.free_functions.append(method)

    def _visit_range_for(self, cursor, rel):
        ck = self.ci.CursorKind
        fm = self._file_model(rel)
        range_type = ""
        range_sp = ""
        body = []
        children = list(cursor.get_children())
        for child in children:
            if child.kind == ck.DECL_STMT:
                continue
            if child.kind == ck.COMPOUND_STMT:
                body = _spelling_tokens(child)
        # The range initializer is the first expression child.
        for child in children:
            if child.kind.is_expression():
                try:
                    t = child.type
                    # Strip references.
                    if t.kind == self.ci.TypeKind.LVALUEREFERENCE:
                        t = t.get_pointee()
                    range_type = t.spelling
                except Exception:
                    range_type = ""
                range_sp = " ".join(
                    tok.spelling for tok in child.get_tokens()
                )
                break
        fm.loops.append(
            RangeForLoop(
                file=rel,
                line=cursor.location.line,
                range_spelling=range_sp,
                range_type=range_type,
                body=body,
                enclosing_class="",
                enclosing_function="",
            )
        )


def load(repo_root, compile_db_dir, sources):
    """Parse every TU that compile_commands.json lists whose file is
    in `sources` (repo-relative set), returning a Model. Raises
    FrontendUnavailable when libclang cannot be loaded."""
    cindex = _import_cindex()
    try:
        db = cindex.CompilationDatabase.fromDirectory(compile_db_dir)
    except cindex.CompilationDatabaseError as e:
        raise FrontendUnavailable(
            "cannot load compile_commands.json from "
            + compile_db_dir
            + ": "
            + str(e)
        )
    index = cindex.Index.create()
    model = Model()
    model.frontend = "clang"
    visitor = _TuVisitor(cindex, repo_root, model)

    seen = set()
    for cmd in db.getAllCompileCommands():
        fname = os.path.realpath(
            os.path.join(cmd.directory, cmd.filename)
        )
        rel = os.path.relpath(fname, os.path.realpath(repo_root))
        if sources and rel not in sources:
            continue
        if fname in seen:
            continue
        seen.add(fname)
        args = [a for a in cmd.arguments][1:]
        # Drop the output/input arguments; libclang re-adds them.
        cleaned = []
        skip = False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a == cmd.filename or a == fname:
                continue
            cleaned.append(a)
        try:
            tu = index.parse(fname, args=cleaned)
        except cindex.TranslationUnitLoadError:
            continue
        visitor.visit(tu)
    return model
