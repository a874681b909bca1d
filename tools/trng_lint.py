#!/usr/bin/env python3
"""TRNG repository invariant linter.

Enforces repo-specific correctness rules that no generic static analyzer
knows about. The rules exist because the repository's value rests on
numerical reproduction claims (Eq. 3 bin masses, the Eq. 5 entropy bound,
the Eq. 8 improvement factor), and each rule guards a way those numbers
have historically gone silently wrong:

  TL001 nondeterministic-rng
      No std::rand/srand, std::random_device, time()-seeding or wall-clock
      reads anywhere in src/ except src/common/rng.{cpp,hpp}. Every
      simulation must be exactly reproducible from its explicit seed; a
      single random_device() hidden in a constructor makes a failing
      entropy estimate unreproducible.

  TL002 float-type
      No `float` in src/model/ or src/stattests/. The entropy-bound
      numerics (Gaussian tail sums, chi-square survival functions) lose
      the paper's claimed precision in single precision; everything is
      double end to end.

  TL003 fp-literal-equality
      No ==/!= against a floating-point literal in src/model/ or
      src/stattests/. Exact comparison against computed FP values is
      almost always a bug in the estimator code; the rare legitimate
      exact-zero guard carries a justified suppression.

  TL004 nodiscard-result
      Every estimator / health-test result type (struct or class named
      *Result, *Report, *Outcome, *Verdict, *Assessment) must be declared
      [[nodiscard]]. Dropping a health-test verdict on the floor is the
      TRNG equivalent of ignoring an error code.

  TL005 test-include
      src/ must not #include anything from tests/. Production code that
      reaches into the test tree inverts the dependency graph and breaks
      standalone library builds.

  TL006 per-bit-pushback
      No BitStream::push_back on named BitStream objects in src/ outside
      src/common/bitstream.{cpp,hpp} (the container's own implementation).
      The batched BitSource layer exists precisely so hot paths assemble
      packed words and append_words() them; a per-bit push_back loop
      silently reintroduces the bit-at-a-time datapath the refactor
      removed. Genuinely bit-serial algorithms (ASCII parsers, von
      Neumann rejection) carry a justified suppression.

  TL009 socket-confinement
      No BSD socket calls (socket, socketpair, bind, listen, accept,
      connect, send*, recv*) in src/ outside src/server/. The entropy
      daemon owns the transport; a socket opened from the core or model
      layers would make the hermetic simulation library network-facing
      and untestable without a peer.

  TL008 kernel-equivalence-test
      Every kernel declared in a `wordpar` namespace in a header under
      src/stattests/ must be exercised by name in a tests/ file whose
      filename contains "equivalence". The word-parallel battery's whole
      correctness story is bit-identity with the tests-only oracle
      (tests/sp800_22_oracle.hpp, compared in
      tests/test_battery_equivalence.cpp); a kernel that nothing
      compares against its oracle is an unchecked rewrite of a
      statistical test.

Suppressions
------------
A finding is suppressed by a marker on the same line or the line
immediately above:

    // trng-lint: allow(TL003) -- exact zero is the documented sentinel

The ` -- justification` part is mandatory; an allow() without a written
justification is itself an error (TL000). Suppressions are deliberately
line-scoped — there is no file-level or rule-level kill switch.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

ALLOW_RE = re.compile(
    r"//\s*trng-lint:\s*allow\(\s*(TL\d{3})\s*\)\s*(?:--\s*(\S.*))?")

FP_LITERAL = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"


@dataclasses.dataclass(frozen=True)
class Finding:
    path: pathlib.Path
    line: int
    rule: str
    name: str
    message: str
    suppressed: bool = False
    justification: str | None = None

    def render(self, root: pathlib.Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: {self.rule} [{self.name}] {self.message}"

    def to_json(self, root: pathlib.Path) -> dict:
        try:
            rel = str(self.path.relative_to(root))
        except ValueError:
            rel = str(self.path)
        out = {"rule": self.rule, "name": self.name, "file": rel,
               "line": self.line, "message": self.message,
               "suppressed": self.suppressed}
        if self.justification:
            out["justification"] = self.justification
        return out


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment and string-literal contents with spaces, keeping
    newlines so offsets still map to the original line numbers. Handles //,
    /* */, "..." and '...' with escapes; raw string literals are treated as
    ordinary strings (good enough for this codebase, which has none)."""
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


class Rule:
    rule_id: str = "TL000"
    name: str = "unnamed"
    doc: str = ""

    def applies_to(self, rel: pathlib.PurePosixPath) -> bool:
        raise NotImplementedError

    def check(self, rel: pathlib.PurePosixPath, path: pathlib.Path,
              stripped: str) -> list[tuple[int, str]]:
        """Returns (line, message) pairs for the stripped file content."""
        raise NotImplementedError


def _under(rel: pathlib.PurePosixPath, *prefixes: str) -> bool:
    return any(str(rel).startswith(p) for p in prefixes)


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class PatternRule(Rule):
    """Findings are regex matches over comment/string-stripped content."""

    patterns: list[tuple[re.Pattern, str]] = []

    def check(self, rel, path, stripped):
        findings = []
        for pattern, message in self.patterns:
            for m in pattern.finditer(stripped):
                findings.append((_line_of(stripped, m.start()), message))
        return findings


class NondeterministicRng(PatternRule):
    rule_id = "TL001"
    name = "nondeterministic-rng"
    doc = ("no std::rand/srand, std::random_device, time()-seeding or "
           "wall-clock reads outside src/common/rng.{cpp,hpp}")
    patterns = [
        (re.compile(r"\bs?rand\s*\("),
         "C rand()/srand() is banned; use trng::common::Xoshiro256StarStar"),
        (re.compile(r"\bstd::rand\b"),
         "std::rand is banned; use trng::common::Xoshiro256StarStar"),
        (re.compile(r"\brandom_device\b"),
         "std::random_device breaks simulation determinism; seeds must be "
         "explicit (see src/common/rng.hpp)"),
        (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
         "time()-based seeding breaks simulation determinism"),
        (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)"
                    r"\s*::\s*now\b"),
         "wall-clock reads in library code break simulation determinism; "
         "timing belongs in bench/"),
    ]

    def applies_to(self, rel):
        if str(rel) in ("src/common/rng.cpp", "src/common/rng.hpp"):
            return False
        return _under(rel, "src/")


class FloatType(PatternRule):
    rule_id = "TL002"
    name = "float-type"
    doc = "no `float` in src/model/ or src/stattests/ (numerics are double)"
    patterns = [
        (re.compile(r"\bfloat\b"),
         "single-precision float is banned in entropy-bound numerics; "
         "use double"),
    ]

    def applies_to(self, rel):
        return _under(rel, "src/model/", "src/stattests/")


class FpLiteralEquality(PatternRule):
    rule_id = "TL003"
    name = "fp-literal-equality"
    doc = ("no ==/!= against a floating-point literal in src/model/ or "
           "src/stattests/")
    patterns = [
        (re.compile(r"[=!]=\s*" + FP_LITERAL),
         "exact ==/!= against a floating-point literal; compare with a "
         "tolerance or justify the exact sentinel"),
        (re.compile(FP_LITERAL + r"\s*[=!]=(?!=)"),
         "exact ==/!= against a floating-point literal; compare with a "
         "tolerance or justify the exact sentinel"),
    ]

    def applies_to(self, rel):
        return _under(rel, "src/model/", "src/stattests/")


class NodiscardResult(Rule):
    rule_id = "TL004"
    name = "nodiscard-result"
    doc = ("struct/class *Result, *Report, *Outcome, *Verdict, *Assessment "
           "definitions must be [[nodiscard]]")

    DEF_RE = re.compile(
        r"(?<![\w:])(?:struct|class)\s+"
        r"(?P<attrs>(?:\[\[[^\]]*\]\]\s*)*)"
        r"(?P<name>[A-Za-z_]\w*(?:Result|Report|Outcome|Verdict|Assessment))"
        r"\s*(?:final\s*)?(?::[^;{}]*)?\{")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, rel, path, stripped):
        findings = []
        for m in self.DEF_RE.finditer(stripped):
            if "nodiscard" not in m.group("attrs"):
                findings.append((
                    _line_of(stripped, m.start()),
                    f"result type '{m.group('name')}' must be declared "
                    f"[[nodiscard]] so callers cannot drop a verdict"))
        return findings


class TestInclude(PatternRule):
    rule_id = "TL005"
    name = "test-include"
    doc = "src/ must not #include anything from tests/"
    # Runs on raw-ish stripped text where string contents are blanked, so
    # match the include path on the raw line instead.
    patterns = []

    INCLUDE_RE = re.compile(r'#\s*include\s*["<]([^">]+)[">]')

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, rel, path, stripped):
        findings = []
        raw = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(raw.splitlines(), start=1):
            m = self.INCLUDE_RE.search(line)
            if not m:
                continue
            inc = m.group(1)
            if inc.startswith("tests/") or "../tests" in inc \
                    or inc.startswith("test_snippets/"):
                findings.append((
                    lineno,
                    f"'#include \"{inc}\"' pulls the test tree into src/; "
                    f"move the shared code under src/"))
        return findings


class PerBitPushBack(Rule):
    rule_id = "TL006"
    name = "per-bit-pushback"
    doc = ("no BitStream::push_back on named BitStream objects in src/ "
           "outside src/common/bitstream.{cpp,hpp}; assemble words and "
           "append_words() instead")

    # Pass 1: names bound to BitStream objects (locals, members, reference
    # parameters). Scanning declarations keeps the rule from firing on
    # push_back calls against unrelated containers.
    DECL_RE = re.compile(
        r"\b(?:common::)?BitStream\b\s*&?\s*([A-Za-z_]\w*)\b")

    def applies_to(self, rel):
        if str(rel) in ("src/common/bitstream.cpp",
                        "src/common/bitstream.hpp"):
            return False
        return _under(rel, "src/")

    def check(self, rel, path, stripped):
        names = {m.group(1) for m in self.DECL_RE.finditer(stripped)}
        if not names:
            return []
        findings = []
        # Pass 2: per-bit appends through any of those names.
        alt = "|".join(sorted(re.escape(n) for n in names))
        call_re = re.compile(r"\b(?:" + alt + r")\s*\.\s*push_back\s*\(")
        for m in call_re.finditer(stripped):
            findings.append((
                _line_of(stripped, m.start()),
                "per-bit BitStream::push_back in library code; build packed "
                "words and append_words() them (or implement generate_into), "
                "or justify the bit-serial loop with a suppression"))
        return findings


class ThreadConfinement(Rule):
    rule_id = "TL007"
    name = "thread-confinement"
    doc = ("no .detach() anywhere in src/ and no raw std::thread/"
           "std::jthread outside src/service/ and src/server/; those two "
           "layers own their worker threads and always join them")

    # .detach() is banned everywhere in src/ (service included): a detached
    # thread outlives the rings/metrics it references and cannot be joined
    # at shutdown, which is exactly how use-after-free races get in.
    DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")

    # Matches the std::thread/std::jthread type itself; std::this_thread::*
    # (sleep/yield helpers) intentionally does not match.
    THREAD_RE = re.compile(r"\bstd\s*::\s*j?thread\b")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, rel, path, stripped):
        findings = []
        for m in self.DETACH_RE.finditer(stripped):
            findings.append((
                _line_of(stripped, m.start()),
                "detached threads cannot be joined at shutdown and outlive "
                "the state they reference; keep the handle and join it"))
        if not _under(rel, "src/service/", "src/server/"):
            for m in self.THREAD_RE.finditer(stripped):
                findings.append((
                    _line_of(stripped, m.start()),
                    "raw std::thread outside src/service/ and src/server/; "
                    "thread ownership is confined to those layers "
                    "(Producer/EntropyPool, ServerDaemon sessions) so every "
                    "worker is provably joined"))
        return findings


class SocketConfinement(PatternRule):
    rule_id = "TL009"
    name = "socket-confinement"
    doc = ("no BSD socket calls (socket/socketpair/bind/listen/accept/"
           "connect/send*/recv*) in src/ outside src/server/; the daemon "
           "owns the transport, the simulation library stays hermetic")

    # Matches a bare or globally-qualified call — `bind(`, `::bind(` — but
    # not `std::bind(`, `obj.connect(` or `ptr->accept(`: the optional `::`
    # is consumed by the pattern, and the lookbehind rejects any word
    # character, member access or further qualification in front of it.
    patterns = [
        (re.compile(
            r"(?<![\w.>:])(?:::\s*)?"
            r"(?:socket|socketpair|bind|listen|accept4?|connect|"
            r"send(?:to|msg)?|recv(?:from|msg)?)\s*\("),
         "BSD socket call outside src/server/; network transport is "
         "confined to the daemon layer"),
    ]

    def applies_to(self, rel):
        if _under(rel, "src/server/"):
            return False
        return _under(rel, "src/")


class KernelEquivalenceTest(Rule):
    rule_id = "TL008"
    name = "kernel-equivalence-test"
    doc = ("every kernel declared in a wordpar namespace in a header under "
           "src/stattests/ must be called by name in a tests/ file whose "
           "name contains 'equivalence' (the bit-identity suite against the "
           "tests-only oracle)")

    NAMESPACE_RE = re.compile(
        r"\bnamespace\s+(?:trng\s*::\s*stat\s*::\s*)?wordpar\b")
    # A declaration line: return type(s), then the kernel name, then its
    # parameter list. Anchored to line starts so parameter continuation
    # lines do not match.
    DECL_RE = re.compile(
        r"^\s*(?:[\w:]+(?:\s*[&*])?\s+)+([a-z_]\w*)\s*\(", re.MULTILINE)

    def __init__(self) -> None:
        self._corpus_cache: dict[pathlib.Path, str] = {}

    def applies_to(self, rel):
        return _under(rel, "src/stattests/") and rel.suffix == ".hpp"

    def _equivalence_corpus(self, root: pathlib.Path) -> str:
        cached = self._corpus_cache.get(root)
        if cached is None:
            texts = []
            tests = root / "tests"
            if tests.is_dir():
                for p in sorted(tests.rglob("*")):
                    if (p.is_file() and p.suffix in SOURCE_SUFFIXES
                            and "equivalence" in p.name):
                        texts.append(
                            p.read_text(encoding="utf-8", errors="replace"))
            cached = "\n".join(texts)
            self._corpus_cache[root] = cached
        return cached

    def check(self, rel, path, stripped):
        ns = self.NAMESPACE_RE.search(stripped)
        if not ns:
            return []
        root = path.parents[len(rel.parts) - 1]
        corpus = self._equivalence_corpus(root)
        findings = []
        for m in self.DECL_RE.finditer(stripped, ns.end()):
            name = m.group(1)
            if re.search(r"\b" + re.escape(name) + r"\s*\(", corpus):
                continue
            findings.append((
                _line_of(stripped, m.start(1)),
                f"word-parallel kernel '{name}' is never exercised by any "
                f"tests/*equivalence* file; compare it against the "
                f"tests-only oracle in an equivalence suite"))
        return findings


RULES: list[Rule] = [
    NondeterministicRng(),
    FloatType(),
    FpLiteralEquality(),
    NodiscardResult(),
    TestInclude(),
    PerBitPushBack(),
    ThreadConfinement(),
    SocketConfinement(),
    KernelEquivalenceTest(),
]


def apply_suppressions(path: pathlib.Path, findings: list[Finding],
                       raw_lines: list[str]) -> list[Finding]:
    """Marks findings carrying a justified allow() marker on the finding
    line or the line above as suppressed (they stay in the list so --json
    can report them); emits TL000 for unjustified or dangling markers."""
    out = []
    used_markers: set[int] = set()

    markers: dict[int, tuple[str, str | None]] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            markers[lineno] = (m.group(1), m.group(2))

    for f in findings:
        suppressed = False
        for marker_line in (f.line, f.line - 1):
            marker = markers.get(marker_line)
            if marker and marker[0] == f.rule:
                used_markers.add(marker_line)
                if marker[1]:
                    out.append(dataclasses.replace(
                        f, suppressed=True, justification=marker[1]))
                    suppressed = True
                else:
                    out.append(Finding(
                        f.path, marker_line, "TL000", "bad-suppression",
                        f"allow({f.rule}) without a '-- justification'; "
                        f"every suppression must say why"))
                    suppressed = True  # reported as TL000 instead
                break
        if not suppressed:
            out.append(f)

    for lineno, (rule_id, _) in markers.items():
        if lineno not in used_markers:
            out.append(Finding(
                path, lineno, "TL000", "bad-suppression",
                f"allow({rule_id}) marker does not match any finding on "
                f"this or the next line; delete it"))
    return out


def lint_file(path: pathlib.Path, rel: pathlib.PurePosixPath) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    findings: list[Finding] = []
    for rule in RULES:
        if not rule.applies_to(rel):
            continue
        for line, message in rule.check(rel, path, stripped):
            findings.append(Finding(path, line, rule.rule_id, rule.name,
                                    message))
    # Suppression markers live in comments, so they are matched on raw lines.
    raw_lines = raw.splitlines()
    has_markers = any(ALLOW_RE.search(line) for line in raw_lines)
    if findings or has_markers:
        findings = apply_suppressions(path, findings, raw_lines)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def collect_files(root: pathlib.Path) -> list[pathlib.Path]:
    src = root / "src"
    if not src.is_dir():
        print(f"trng_lint: no src/ directory under {root}", file=sys.stderr)
        raise SystemExit(2)
    return sorted(p for p in src.rglob("*")
                  if p.is_file() and p.suffix in SOURCE_SUFFIXES)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="TRNG repository invariant linter")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root; <root>/src is linted")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout "
                             "(suppressed findings included, flagged)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id} {rule.name}: {rule.doc}")
        return 0

    root = args.root.resolve()
    findings: list[Finding] = []
    files = collect_files(root)
    for path in files:
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        findings.extend(lint_file(path, rel))

    unsuppressed = [f for f in findings if not f.suppressed]
    if args.json:
        print(json.dumps([f.to_json(root) for f in findings], indent=2))
    else:
        for f in unsuppressed:
            print(f.render(root))
    if not args.quiet:
        by_rule: collections.Counter[str] = collections.Counter()
        suppressed: collections.Counter[str] = collections.Counter()
        for f in findings:
            (suppressed if f.suppressed else by_rule)[f.rule] += 1
        print(f"trng_lint: {len(files)} files, "
              f"{len(unsuppressed)} finding(s), "
              f"{len(findings) - len(unsuppressed)} suppressed",
              file=sys.stderr)
        if by_rule or suppressed:
            print("  rule    findings  suppressed", file=sys.stderr)
            for rid in sorted(set(by_rule) | set(suppressed)):
                print(f"  {rid}  {by_rule.get(rid, 0):8d}  "
                      f"{suppressed.get(rid, 0):10d}", file=sys.stderr)
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
