"""Fact schema for the TRNG analyzer.

The frontend (frontend_lite.py) reduces one translation unit to a
`TUFacts` value; the rules in rules.py consume facts only and never
look at the frontend. Every fact carries a 1-based line number in the
original file so findings and suppressions line up with what the
developer sees.

The schema is deliberately small: it holds exactly what the SA rules
need (guard scopes, condition_variable waits with their loop context,
call sites, variable declarations and assignments; member-field accesses
and atomic operations with their memory orders for the concurrency
protocol rules SA005/SA006; annotation facts for declared locking intent
and atomic roles), plus the raw and comment/string-stripped texts the
lexical TL rules and the pattern-shaped parts of SA002/SA007 read.

Annotation grammar (raw-comment facts):

    // trng-analyzer: guards(<field>, <mutex>)
        Class-level locking contract: every access to member <field>
        must happen while a scoped guard on <mutex> is held (SA005).

    // trng-analyzer: atomic(<role>)
        On a std::atomic declaration line (or the line directly above):
        declares the member's protocol role, one of counter, gauge,
        flag, index-producer, index-consumer (SA006).

    // trng-analyzer: lock-order(<first>, <second>)
        Declares the intended repo-wide acquisition order: <first> may
        be held while acquiring <second>, never the reverse. The
        interprocedural pass (SA008) adds the declared edge to the lock
        graph, so an observed reverse acquisition closes a cycle and
        fires even when no code path currently takes both orders.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}


@dataclasses.dataclass(frozen=True)
class Guard:
    """A scoped lock object: std::lock_guard / unique_lock / scoped_lock.

    `scope_end_line` is the last line of the innermost block containing
    the declaration — the guard is held from `line` to there.
    """
    var: str
    kind: str            # "lock_guard" | "unique_lock" | "scoped_lock"
    mutex: str           # first constructor argument, textual
    line: int
    scope_end_line: int


@dataclasses.dataclass(frozen=True)
class WaitCall:
    """A .wait/.wait_for/.wait_until member call on a condition variable."""
    recv: str            # receiver expression, e.g. "data_cv_"
    member: str          # "wait" | "wait_for" | "wait_until"
    line: int
    args: tuple[str, ...]          # top-level argument texts
    immediate_loop_cond: str | None
    # ^ condition text when the wait is the statement directly controlled
    #   by a while/do-while loop (the canonical re-check idiom
    #   `while (!pred) cv.wait(lk);`); None when the wait merely sits
    #   somewhere inside a larger loop body, which does NOT count as
    #   re-checking — the loop's condition governs the outer work item,
    #   not the wait's wake-up state.


@dataclasses.dataclass(frozen=True)
class Call:
    """Any call expression: callee name, optional receiver, location."""
    callee: str          # rightmost name, e.g. "push" for ring_.push(...)
    recv: str | None     # receiver expression for member calls
    line: int
    offset: int          # character offset into the stripped text
    args: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class VarDecl:
    """A variable/parameter declaration with its (textual) type."""
    name: str
    type_text: str       # e.g. "double", "common::Bits", "std::uint64_t"
    line: int
    func_start_line: int  # enclosing function span (0 when file scope)
    func_end_line: int


@dataclasses.dataclass(frozen=True)
class Assign:
    """An assignment or compound assignment statement."""
    lhs: str
    op: str              # "=", "|=", "+=", ...
    rhs: str
    line: int
    func_start_line: int
    func_end_line: int


@dataclasses.dataclass(frozen=True)
class FieldAccess:
    """A read or write of a trailing-underscore member field inside a
    function body (the repository's naming convention makes member state
    recognizable without type information). Accesses through another
    object (`other.field_`) are not recorded: a guard held here says nothing
    about that object's state."""
    name: str
    line: int


@dataclasses.dataclass(frozen=True)
class AtomicOp:
    """One operation on a (presumed) std::atomic object.

    `order`/`fail_order` are the textual memory-order constants found in
    the argument list ("relaxed", "acquire", ...); None means the order
    was left implicit (seq_cst by language default). `kind` classifies
    the op as "load", "store" or "rmw" (read-modify-write)."""
    member: str          # base name of the receiver, e.g. "stopped_"
    op: str              # "load" | "store" | "fetch_add" | "exchange" ...
    kind: str            # "load" | "store" | "rmw"
    order: str | None
    fail_order: str | None
    line: int


@dataclasses.dataclass(frozen=True)
class AtomicDecl:
    """A std::atomic declaration (member or local) with its resolved role
    annotation; role is None when the declaration carries no
    `// trng-analyzer: atomic(<role>)` marker."""
    name: str
    line: int
    role: str | None


@dataclasses.dataclass(frozen=True)
class GuardAnnot:
    """A `// trng-analyzer: guards(field, mutex)` intent declaration."""
    field: str
    mutex: str
    line: int


@dataclasses.dataclass(frozen=True)
class LockOrderAnnot:
    """A `// trng-analyzer: lock-order(first, second)` declaration of
    intended acquisition order (SA008)."""
    first: str
    second: str
    line: int


@dataclasses.dataclass(frozen=True)
class ClassSpan:
    """A class/struct definition span (1-based lines, inclusive)."""
    name: str
    start_line: int
    end_line: int


@dataclasses.dataclass(frozen=True)
class FuncDef:
    """A function *definition* span (1-based body lines, inclusive).

    `qual` is `Class::name` for methods (the innermost owning class for
    in-class definitions, the `X::` qualifier for out-of-class ones —
    namespaces are deliberately excluded so both spellings agree), the
    bare name for free functions, and a synthetic `<lambda...>` for
    lambdas. `kind` is "fn", "lambda" or "anon";
    anonymous spans exist so facts inside them detach from the enclosing
    function (a deferred callback does not run under the caller's
    locks), but they are never call-resolution targets."""
    name: str | None
    cls: str | None
    qual: str
    kind: str            # "fn" | "lambda" | "anon"
    start_line: int      # line of the body's `{`
    end_line: int        # line of the matching `}`


@dataclasses.dataclass
class TUFacts:
    path: pathlib.Path
    rel: pathlib.PurePosixPath
    raw: str             # the file text as read
    stripped: str        # comment/string-stripped source, newlines kept
    guards: list[Guard] = dataclasses.field(default_factory=list)
    waits: list[WaitCall] = dataclasses.field(default_factory=list)
    calls: list[Call] = dataclasses.field(default_factory=list)
    decls: list[VarDecl] = dataclasses.field(default_factory=list)
    assigns: list[Assign] = dataclasses.field(default_factory=list)
    field_accesses: list[FieldAccess] = dataclasses.field(
        default_factory=list)
    atomic_ops: list[AtomicOp] = dataclasses.field(default_factory=list)
    atomic_decls: list[AtomicDecl] = dataclasses.field(default_factory=list)
    guard_annots: list[GuardAnnot] = dataclasses.field(default_factory=list)
    lock_order_annots: list[LockOrderAnnot] = dataclasses.field(
        default_factory=list)
    classes: list[ClassSpan] = dataclasses.field(default_factory=list)
    funcs: list[FuncDef] = dataclasses.field(default_factory=list)

    def decl_types(self) -> dict[str, str]:
        """Last-writer-wins name -> type map (adequate for TU-local use)."""
        return {d.name: d.type_text for d in self.decls}


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment and string-literal contents with spaces, keeping
    newlines so offsets still map to the original line numbers. Handles
    //, /* */, "..." and '...' with escapes; raw string literals are
    treated as ordinary strings (the repository has none)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ------------------------------------------------------- shared scanners
#
# Annotation parsing, atomic-declaration detection and memory-order
# classification are text-shaped, not AST-shaped: they read the raw and
# stripped texts directly.

ATOMIC_ROLES = ("counter", "gauge", "flag", "index-producer",
                "index-consumer")

GUARDS_ANNOT_RE = re.compile(
    r"//\s*trng-analyzer:\s*guards\(\s*(\w+)\s*,\s*([\w.:>\-]+)\s*\)")

ATOMIC_ANNOT_RE = re.compile(
    r"//\s*trng-analyzer:\s*atomic\(\s*([\w\-]+)\s*\)")

LOCK_ORDER_ANNOT_RE = re.compile(
    r"//\s*trng-analyzer:\s*lock-order\(\s*([\w.:]+)\s*,\s*([\w.:]+)\s*\)")

# Matches the declaration of an atomic object: `std::atomic<T> name...`
# including brace-init members and arrays-behind-unique_ptr
# (`std::unique_ptr<std::atomic<u64>[]> counts_;`); the trailing
# character class rejects call expressions like `make_unique<...>(...)`
# only when the name is followed by a template arg list, which `\w+`
# cannot span — a name directly followed by `(` is a brace-less direct
# init, which is a declaration too.
_ATOMIC_DECL_RE = re.compile(
    r"\batomic\s*<[^;{}]*?>\s*(?:\[\s*\]\s*>\s*)?&?\s*(\w+)\s*"
    r"(?:\{[^;{}]*\})?\s*[;=({,)]")

_MEM_ORDER_RE = re.compile(
    r"\bmemory_order(?:_|\s*::\s*)"
    r"(relaxed|consume|acquire|release|acq_rel|seq_cst)\b")

# member-call name -> (kind, order-arg index, fail-order-arg index)
_ATOMIC_OP_TABLE = {
    "load":                  ("load", 0, None),
    "store":                 ("store", 1, None),
    "exchange":              ("rmw", 1, None),
    "fetch_add":             ("rmw", 1, None),
    "fetch_sub":             ("rmw", 1, None),
    "fetch_and":             ("rmw", 1, None),
    "fetch_or":              ("rmw", 1, None),
    "fetch_xor":             ("rmw", 1, None),
    "compare_exchange_weak": ("rmw", 2, 3),
    "compare_exchange_strong": ("rmw", 2, 3),
}

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def head_name(expr: str) -> str | None:
    """First identifier of an expression — the buffer/object a pointer
    expression is rooted in (`words + delivered` -> "words",
    `dst_[i]` -> "dst_")."""
    m = _IDENT_RE.search(expr or "")
    return m.group(0) if m else None


def tail_name(expr: str) -> str | None:
    """Last identifier of a receiver chain after stripping subscripts —
    the member actually operated on (`metrics_.producer(i).words_drawn`
    -> "words_drawn", `counts_[b]` -> "counts_")."""
    if not expr:
        return None
    e = re.sub(r"\[[^\]]*\]", "", expr)
    names = _IDENT_RE.findall(e)
    return names[-1] if names else None


def _order_of(arg: str | None) -> str | None:
    if not arg:
        return None
    m = _MEM_ORDER_RE.search(arg)
    return m.group(1) if m else None


def scan_annotations(tu: TUFacts) -> None:
    """Fills tu.atomic_decls and tu.guard_annots from the raw (comments
    intact) and stripped texts. An atomic(<role>) marker binds to a
    declaration on the same line or the line directly below the marker's
    line (the repo style puts annotations above the member)."""
    raw_lines = tu.raw.splitlines()
    stripped_lines = tu.stripped.splitlines()

    role_at = {}         # line number -> role text
    for i, text in enumerate(raw_lines, start=1):
        gm = GUARDS_ANNOT_RE.search(text)
        if gm:
            tu.guard_annots.append(GuardAnnot(
                field=gm.group(1), mutex=gm.group(2), line=i))
        lm = LOCK_ORDER_ANNOT_RE.search(text)
        if lm:
            tu.lock_order_annots.append(LockOrderAnnot(
                first=lm.group(1), second=lm.group(2), line=i))
        am = ATOMIC_ANNOT_RE.search(text)
        if am:
            role_at[i] = am.group(1)

    for i, text in enumerate(stripped_lines, start=1):
        for dm in _ATOMIC_DECL_RE.finditer(text):
            role = role_at.get(i) or role_at.get(i - 1)
            tu.atomic_decls.append(AtomicDecl(
                name=dm.group(1), line=i, role=role))


def derive_atomic_ops(tu: TUFacts) -> None:
    """Classifies recorded member calls as atomic operations. Only calls
    whose receiver base is a declared atomic in this TU are kept when
    the TU declares any atomics; the repo-wide rule pass re-filters
    against the cross-TU atomic table, so over-collection here is
    harmless and under-collection is not possible for annotated code."""
    for call in tu.calls:
        entry = _ATOMIC_OP_TABLE.get(call.callee)
        if entry is None or call.recv is None:
            continue
        kind, oidx, fidx = entry
        member = tail_name(call.recv)
        if member is None:
            continue
        order = _order_of(call.args[oidx]) if oidx is not None and \
            len(call.args) > oidx else None
        fail_order = _order_of(call.args[fidx]) if fidx is not None and \
            len(call.args) > fidx else None
        tu.atomic_ops.append(AtomicOp(
            member=member, op=call.callee, kind=kind,
            order=order, fail_order=fail_order, line=call.line))


# --------------------------------------------- shared structure scanner
#
# Class spans and function-definition spans are likewise text-shaped:
# scan_structure gives the interprocedural pass (call graph, lock
# graph, typestate spans) its function inventory.

_CLASS_HEAD_RE = re.compile(
    r"(?<!enum\s)\b(?:class|struct)\s+([A-Za-z_]\w*)"
    r"(?:\s+final)?\s*(?::[^;{]*)?\{")

# `...) [qualifiers] {` — a function-definition head. `mutable` is
# included (lambdas); init-lists are not, so a constructor's span is
# found at its last init-list call head instead — those get an "anon"
# span (trailing-underscore pseudo-name), which detaches their contents
# without polluting call resolution.
_STRUCT_FUNC_HEAD_RE = re.compile(
    r"\)\s*(?:const\s*|noexcept(?:\s*\([^()]*\))?\s*|override\s*|final\s*"
    r"|mutable\s*|->\s*[\w:<>,&*\s]+?)*\{")

# A capture-list directly followed by `{`: the paren-less lambda form
# (`[this] { ... }`). Paren-full lambdas are found by the head regex.
_BARE_LAMBDA_RE = re.compile(r"\[[^\[\]\n]*\]\s*\{")

_STRUCT_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "new", "delete", "throw", "case", "default",
}


def match_brace(text: str, open_off: int) -> int:
    """Offset of the `}` matching the `{` at open_off (len(text) if
    unbalanced)."""
    depth = 0
    for i in range(open_off, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def _match_back(text: str, close_off: int, close: str, open_: str) -> int:
    """Offset of the opener matching the closer at close_off (-1 if
    unbalanced)."""
    depth = 0
    for i in range(close_off, -1, -1):
        c = text[i]
        if c == close:
            depth += 1
        elif c == open_:
            depth -= 1
            if depth == 0:
                return i
    return -1


def _ident_before(text: str, off: int) -> tuple[str, int]:
    """(identifier, start_offset) of the identifier ending just before
    off, skipping trailing whitespace; ("", off) when there is none."""
    k = off - 1
    while k >= 0 and text[k].isspace():
        k -= 1
    end = k + 1
    while k >= 0 and (text[k].isalnum() or text[k] in "_~"):
        k -= 1
    return text[k + 1:end], k + 1


def scan_structure(tu: TUFacts) -> None:
    """Fills tu.classes and tu.funcs from the stripped text."""
    text = tu.stripped

    class_spans = []     # (start_off, end_off, name)
    for m in _CLASS_HEAD_RE.finditer(text):
        open_off = m.end() - 1
        close_off = match_brace(text, open_off)
        class_spans.append((m.start(), close_off, m.group(1)))
        tu.classes.append(ClassSpan(
            name=m.group(1),
            start_line=line_of(text, m.start()),
            end_line=line_of(text, close_off)))

    def innermost_class(off: int) -> str | None:
        best = None
        for a, b, name in class_spans:
            if a < off <= b and (best is None or (b - a) < best[0]):
                best = (b - a, name)
        return best[1] if best else None

    seen_bodies = set()
    for m in _STRUCT_FUNC_HEAD_RE.finditer(text):
        open_off = m.end() - 1
        close_off = match_brace(text, open_off)
        paren_open = _match_back(text, m.start(), ")", "(")
        if paren_open < 0:
            continue
        name, name_off = _ident_before(text, paren_open)
        start_line = line_of(text, open_off)
        end_line = line_of(text, close_off)
        if not name:
            # `](...)` before the paren list: a lambda. Named when bound
            # to a variable (`auto pop = [&]() {`), anonymous otherwise.
            k = paren_open - 1
            while k >= 0 and text[k].isspace():
                k -= 1
            if k < 0 or text[k] != "]":
                continue
            bracket_open = _match_back(text, k, "]", "[")
            lam_name = None
            if bracket_open > 0:
                head = text[max(0, bracket_open - 80):bracket_open]
                nm = re.search(r"([A-Za-z_]\w*)\s*=\s*$", head)
                if nm:
                    lam_name = nm.group(1)
            qual = lam_name or f"<lambda:{start_line}>"
            tu.funcs.append(FuncDef(
                name=lam_name, cls=None, qual=qual, kind="lambda",
                start_line=start_line, end_line=end_line))
            seen_bodies.add(open_off)
            continue
        if name in _STRUCT_KEYWORDS or not re.match(r"[A-Za-z_~]", name):
            continue
        if name.endswith("_"):
            # Constructor init-list tail (`: a_(x), metrics_(y) {`):
            # record an anonymous span so the ctor body's facts don't
            # leak into the enclosing scope, but never resolve calls
            # to a member-shaped pseudo-name.
            tu.funcs.append(FuncDef(
                name=None, cls=None, qual=f"<anon:{start_line}>",
                kind="anon", start_line=start_line, end_line=end_line))
            seen_bodies.add(open_off)
            continue
        # Optional `Class::` qualifier before the name.
        cls = None
        k = name_off - 1
        while k >= 0 and text[k].isspace():
            k -= 1
        if k >= 1 and text[k] == ":" and text[k - 1] == ":":
            q, _ = _ident_before(text, k - 1)
            # CamelCase = class; lowercase qualifiers are namespaces.
            if q and q[0].isupper():
                cls = q
        if cls is None:
            cls = innermost_class(name_off)
        qual = f"{cls}::{name}" if cls else name
        tu.funcs.append(FuncDef(
            name=name, cls=cls, qual=qual, kind="fn",
            start_line=start_line, end_line=end_line))
        seen_bodies.add(open_off)

    for m in _BARE_LAMBDA_RE.finditer(text):
        open_off = m.end() - 1
        if open_off in seen_bodies:
            continue
        close_off = match_brace(text, open_off)
        start_line = line_of(text, open_off)
        tu.funcs.append(FuncDef(
            name=None, cls=None, qual=f"<lambda:{start_line}>",
            kind="lambda", start_line=start_line,
            end_line=line_of(text, close_off)))
