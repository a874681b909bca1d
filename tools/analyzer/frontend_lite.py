"""The analyzer's frontend: tokenizer + brace/scope tracking.

Produces the `TUFacts` schema (facts.py) from nothing but the file
text, with no dependency beyond the standard library. It is
deliberately conservative: a C++ parser it is not, but the constructs
the SA rules care about (scoped lock guards, condition_variable waits,
call expressions, declarations, assignment statements) are all
statement-shaped, and brace matching over comment/string-stripped text
recovers their scopes reliably for the style this repository enforces
(clang-format, no macros generating braces).

Known approximations, shared with the rule docs:
  - Member declarations in *other* headers are invisible; receiver
    classification (is this a condition_variable? a BitStream?) falls
    back to naming conventions (`*cv*`/`*cond*`, `bits`/`stream`).
  - Function spans are detected as `...) [qualifiers] {` — good for
    definitions, blind to K&R oddities this codebase does not contain.
"""

from __future__ import annotations

import pathlib
import re

from . import facts

# ---------------------------------------------------------------- scanning

_GUARD_RE = re.compile(
    r"\bstd\s*::\s*(lock_guard|unique_lock|scoped_lock)\b"
    r"(?:\s*<[^;{}()]*>)?\s+(\w+)\s*[({]")

_WAIT_RE = re.compile(
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*(?:\.|->)\s*"
    r"(wait|wait_for|wait_until)\s*\(")

_CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*|\[[^\]]*\])*)"
    r"\s*(?:\.|->)\s*)?"
    r"([A-Za-z_]\w*)\s*\(")

_DECL_RE = re.compile(
    r"(?<![\w:.])"
    r"((?:const\s+)?(?:std\s*::\s*|common\s*::\s*|trng\s*::\s*)*"
    r"(?:float|double|uint64_t|size_t|Bits|Words|BitStream|"
    r"condition_variable(?:_any)?|mutex|auto))\b"
    r"\s*[*&]?\s+(\w+)\s*(?=[=;,()\[{])")

# Class-typed reference/pointer declarations (`Shard& s = ...;`,
# `WordRing& ring`): CamelCase head, so plain multiplications and
# builtin decls (handled above) don't match. Feeds receiver-type
# resolution in the interprocedural pass.
_CLASS_DECL_RE = re.compile(
    r"(?<![\w:.<,])((?:[A-Z]\w*\s*::\s*)*[A-Z]\w*)\s*[&*]\s*(\w+)\s*"
    r"(?=[=;,()\[{])")

# Trailing-underscore identifiers (the repo's member naming convention)
# not reached through `.`/`->`/`::` — i.e. implicit-this accesses. The
# `this->` spelling is matched separately since the generic pattern
# rejects anything preceded by `>`.
_FIELD_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*_)\b")
_THIS_FIELD_RE = re.compile(r"\bthis\s*->\s*([A-Za-z_]\w*_)\b")

_ASSIGN_RE = re.compile(
    r"(?:^|[;{}])\s*"
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\]]*\])*)\s*"
    r"(\|=|&=|\^=|\+=|-=|\*=|/=|<<=|>>=|=)(?!=)"
    r"\s*([^;{}]+);", re.MULTILINE)

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "new", "delete", "throw", "case", "default", "else", "static_cast",
    "const_cast", "reinterpret_cast", "dynamic_cast", "alignof",
    "decltype", "noexcept", "typeid", "co_await", "co_return",
}


def _match_brace(text: str, open_off: int) -> int:
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


def _block_spans(text: str) -> list[tuple[int, int]]:
    """(open, close) offsets of every brace block, innermost discoverable
    by narrowest span containment."""
    spans = []
    stack = []
    for i, c in enumerate(text):
        if c == "{":
            stack.append(i)
        elif c == "}":
            if stack:
                spans.append((stack.pop(), i))
    for leftover in stack:
        spans.append((leftover, len(text)))
    return spans


def _innermost_block(spans: list[tuple[int, int]],
                     off: int) -> tuple[int, int] | None:
    best = None
    for a, b in spans:
        if a < off <= b:
            if best is None or (b - a) < (best[1] - best[0]):
                best = (a, b)
    return best


_FUNC_HEAD_RE = re.compile(
    r"\)\s*(?:const\s*|noexcept(?:\s*\([^()]*\))?\s*|override\s*|final\s*"
    r"|->\s*[\w:<>,&*\s]+?)*\{")


def _function_spans(text: str) -> list[tuple[int, int]]:
    """(open, close) offsets of blocks that look like function bodies:
    their `{` follows a `)` plus optional qualifiers / trailing return."""
    spans = []
    for m in _FUNC_HEAD_RE.finditer(text):
        open_off = m.end() - 1
        spans.append((open_off, _match_brace(text, open_off)))
    return spans


def _enclosing_function(func_spans: list[tuple[int, int]], text: str,
                        off: int) -> tuple[int, int]:
    """(start_line, end_line) of the innermost function containing off,
    or (0, 0) at file scope."""
    best = None
    for a, b in func_spans:
        if a < off <= b:
            if best is None or (b - a) < (best[1] - best[0]):
                best = (a, b)
    if best is None:
        return (0, 0)
    return (facts.line_of(text, best[0]), facts.line_of(text, best[1]))


def _split_args(argtext: str) -> tuple[str, ...]:
    """Splits a balanced argument blob on top-level commas."""
    args, depth, cur = [], 0, []
    for c in argtext:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return tuple(args)


def _balanced_parens(text: str, open_off: int) -> int:
    """Offset just past the `)` matching the `(` at open_off."""
    depth = 0
    for i in range(open_off, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _immediate_loop_cond(text: str, call_off: int) -> str | None:
    """Condition text when the statement at call_off is directly
    controlled by a while/do-while loop; None otherwise.

    Matches the canonical re-check idiom in both spellings:
        while (COND) cv.wait(lk);
        while (COND) { cv.wait(lk); }
        do { cv.wait(lk); } while (COND);
    A wait that merely appears somewhere inside a bigger loop body does
    not match: its wake-up state is not what the loop re-checks.
    """
    # Statement start: after the previous ';', '{' or '}'.
    stmt_start = call_off
    while stmt_start > 0 and text[stmt_start - 1] not in ";{}":
        stmt_start -= 1

    # Unbraced form: the loop header shares the statement scan-back —
    # `while (COND) cv.wait(lk);` has no ';{}' between header and call.
    segment = text[stmt_start:call_off]
    m = re.match(r"\s*while\s*\(", segment)
    if m:
        cond_open = stmt_start + m.end() - 1
        cond_close = _balanced_parens(text, cond_open)
        if text[cond_close:call_off].strip() == "":
            return text[cond_open + 1:cond_close - 1].strip()

    before = text[:stmt_start].rstrip()

    opened_block = bool(before) and before[-1] == "{"
    if opened_block:
        before = before[:-1].rstrip()
        # do { wait(...); } while (COND);
        if re.search(r"\bdo\s*$", before):
            close = _match_brace(text, text.rfind("{", 0, stmt_start))
            m = re.match(r"\s*while\s*\(", text[close + 1:])
            if m:
                cond_open = close + 1 + m.end() - 1
                cond_close = _balanced_parens(text, cond_open)
                return text[cond_open + 1:cond_close - 1].strip()
            return None

    # while (COND) [ { ] wait(...)
    if before.endswith(")"):
        # Walk back over the balanced condition.
        depth = 0
        i = len(before) - 1
        while i >= 0:
            if before[i] == ")":
                depth += 1
            elif before[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        head = before[:i].rstrip()
        if re.search(r"\bwhile\s*$", head):
            return before[i + 1:-1].strip()
    return None


# --------------------------------------------------------------- frontend

def parse(path: pathlib.Path, rel: pathlib.PurePosixPath) -> facts.TUFacts:
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = facts.strip_comments_and_strings(raw)
    tu = facts.TUFacts(path=path, rel=rel, raw=raw, stripped=stripped)
    spans = _block_spans(stripped)
    func_spans = _function_spans(stripped)

    for m in _DECL_RE.finditer(stripped):
        type_text, name = m.group(1), m.group(2)
        if name in _KEYWORDS:
            continue
        fs, fe = _enclosing_function(func_spans, stripped, m.start())
        line = facts.line_of(stripped, m.start())
        tu.decls.append(facts.VarDecl(
            name=name, type_text=re.sub(r"\s+", "", type_text),
            line=line, func_start_line=fs, func_end_line=fe))
        # A declaration with an initializer is also an assignment for
        # taint purposes: `auto x = tainted * 2;` must propagate.
        after = stripped[m.end():]
        init = re.match(r"\s*=\s*([^;{}]+);", after)
        if init:
            tu.assigns.append(facts.Assign(
                name, "=", init.group(1).strip(), line, fs, fe))

    for m in _CLASS_DECL_RE.finditer(stripped):
        type_text, name = m.group(1), m.group(2)
        if name in _KEYWORDS or type_text in _KEYWORDS:
            continue
        fs, fe = _enclosing_function(func_spans, stripped, m.start())
        tu.decls.append(facts.VarDecl(
            name=name, type_text=re.sub(r"\s+", "", type_text),
            line=facts.line_of(stripped, m.start()),
            func_start_line=fs, func_end_line=fe))

    for m in _GUARD_RE.finditer(stripped):
        kind, var = m.group(1), m.group(2)
        ctor_open = m.end() - 1
        if stripped[ctor_open] != "(":   # aggregate init `{...}`
            close = stripped.find("}", ctor_open)
            mutex = stripped[ctor_open + 1:close if close >= 0 else None]
        else:
            close = _balanced_parens(stripped, ctor_open)
            mutex = stripped[ctor_open + 1:close - 1]
        block = _innermost_block(spans, m.start())
        end_off = block[1] if block else len(stripped)
        tu.guards.append(facts.Guard(
            var=var, kind=kind,
            mutex=_split_args(mutex)[0] if mutex.strip() else "",
            line=facts.line_of(stripped, m.start()),
            scope_end_line=facts.line_of(stripped, end_off)))

    for m in _WAIT_RE.finditer(stripped):
        recv, member = m.group(1), m.group(2)
        arg_open = m.end() - 1
        arg_close = _balanced_parens(stripped, arg_open)
        args = _split_args(stripped[arg_open + 1:arg_close - 1])
        tu.waits.append(facts.WaitCall(
            recv=recv, member=member,
            line=facts.line_of(stripped, m.start()),
            args=args,
            immediate_loop_cond=_immediate_loop_cond(stripped, m.start())))

    for m in _CALL_RE.finditer(stripped):
        recv, callee = m.group(1), m.group(2)
        if callee in _KEYWORDS:
            continue
        arg_open = m.end() - 1
        arg_close = _balanced_parens(stripped, arg_open)
        tu.calls.append(facts.Call(
            callee=callee, recv=recv,
            line=facts.line_of(stripped, m.start()),
            offset=m.start(),
            args=_split_args(stripped[arg_open + 1:arg_close - 1])))

    for m in _ASSIGN_RE.finditer(stripped):
        lhs, op, rhs = m.group(1), m.group(2), m.group(3)
        if lhs in _KEYWORDS:
            continue
        off = m.start(1)
        fs, fe = _enclosing_function(func_spans, stripped, off)
        tu.assigns.append(facts.Assign(
            lhs=lhs, op=op, rhs=rhs.strip(),
            line=facts.line_of(stripped, off),
            func_start_line=fs, func_end_line=fe))

    # Member-field accesses: only inside function bodies (class-scope
    # declarations and constructor init-lists are not accesses under a
    # runtime lockset, and file scope returns (0, 0)).
    seen_field = set()
    for pat in (_FIELD_RE, _THIS_FIELD_RE):
        for m in pat.finditer(stripped):
            off = m.start(1)
            fs, _fe = _enclosing_function(func_spans, stripped, off)
            if fs == 0:
                continue
            key = (m.group(1), off)
            if key in seen_field:
                continue
            seen_field.add(key)
            tu.field_accesses.append(facts.FieldAccess(
                name=m.group(1), line=facts.line_of(stripped, off)))

    facts.scan_annotations(tu)
    facts.scan_structure(tu)
    facts.derive_atomic_ops(tu)
    return tu
