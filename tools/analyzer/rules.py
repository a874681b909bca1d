"""The analyzer's rules, all over the shared fact schema (facts.py).

TL rules are lexical: regex passes over the comment/string-stripped
text (`TUFacts.stripped`). They guard the ways the reproduction's
numbers (Eq. 3 bin masses, the Eq. 5 entropy bound, the Eq. 8
improvement factor) have historically gone silently wrong, plus the
layering the library depends on.

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
      Hot paths assemble packed words and append_words() them; a per-bit
      push_back loop silently reintroduces the bit-at-a-time datapath.
      Genuinely bit-serial algorithms (ASCII parsers, von Neumann
      rejection) carry a justified suppression.

  TL007 thread-confinement
      No .detach() anywhere in src/, and no raw std::thread/std::jthread
      outside src/service/ and src/server/. Those two layers own their
      worker threads and always join them; a detached thread outlives
      the rings and metrics it references.

  TL008 kernel-equivalence-test
      Every kernel declared in a `wordpar` namespace in a header under
      src/stattests/ must be exercised by name in a tests/ file whose
      filename contains "equivalence". The word-parallel battery's
      correctness story is bit-identity with the tests-only oracle
      (tests/sp800_22_oracle.hpp); a kernel that nothing compares
      against its oracle is an unchecked rewrite of a statistical test.
      Outside src/stattests/, a `// trng-analyzer: kernel` line marks
      the function declared after it as such a kernel (for example
      common::xor_fold_words, checked against the per-bit fold in
      tests/oracles.hpp).

  TL009 socket-confinement
      No BSD socket calls (socket, socketpair, bind, listen, accept,
      connect, send*, recv*) in src/ outside src/server/. The entropy
      daemon owns the transport; a socket opened from the core or model
      layers would make the hermetic simulation library network-facing.

SA rules are semantic: they read the scope, call and dataflow facts.

  SA001 condvar-discipline
      Every condition_variable wait must either use the predicate
      overload or be the statement *directly* controlled by a re-checking
      loop (`while (!pred) cv.wait(lk);`). A naked wait that merely sits
      inside a larger work loop does not qualify: the loop's condition
      governs the work item, not the wake-up state, so a stop() or
      close() landing between the state check and the sleep is lost and
      the consumer parks forever. The motivating bug was exactly that
      shape in EntropyPool::draw.

  SA002 unit-safety
      Bit counts and word counts must not mix. Raw /64, *64, %64, <<6,
      >>6, &63 conversions on unit-carrying values (common::Bits/Words
      or *_bits/*_words/nbits/nwords names), and arithmetic/comparison
      mixing a bits name with a words name, must go through the typed
      helpers in src/common/units.hpp (bits_to_words, words_to_bits,
      word_index, bit_offset). Loop indices and other unsuffixed
      locals are out of scope by design.

  SA003 fp-taint
      In src/core/, no float/double-derived value may reach bit emission
      (BitStream append/push_back, or packed-word stores in
      generate_into-shaped code). Taint propagates through arithmetic,
      casts and assignments; a comparison yields an untainted bool —
      that is the one legitimate quantization boundary (threshold
      crossings, probability draws). src/model/ is exempt: estimator
      numerics are float math by nature and never emit bits.

  SA004 lock-scope
      No blocking call while holding a ring/pool lock guard, except the
      designated wait points: a cv wait whose lock argument is the held
      guard. Generator draws (generate/generate_into/next_bit...),
      sleeps, joins and WordRing::push are blocking; running them under
      a mutex turns the lock into a convoy and, for push-vs-drain
      cycles, a deadlock.

  SA005 lockset-consistency
      Per shared member field, the set of guards held at each access
      across a TU must be consistent: either every access is unguarded
      (thread-confined or pre-start state) or every access holds a
      common mutex. Mixed guarded/unguarded access and non-intersecting
      guard sets are exactly the shapes TSan only catches when a test
      interleaves them. A `// trng-analyzer: guards(field, mu)`
      annotation turns inference into a declared contract: every access
      must then hold `mu`. Atomics and the sync objects themselves
      (`*mu_`, `*cv_`, ...) are exempt by construction.

  SA006 atomics-discipline
      Every std::atomic declaration carries a declared role
      (`// trng-analyzer: atomic(<role>)`): counter and gauge tolerate
      any order (monotonic tallies / racy-by-design snapshots); flag
      requires release-publish/acquire-observe (seq_cst, or the default,
      is fine — relaxed is not); index-producer/index-consumer (the
      lock-free SPSC ring protocol) additionally require the order to
      be spelled explicitly at every operation. Universally invalid
      combinations (acquire store, release load) are flagged regardless
      of role. This is the pre-flight gate for the ROADMAP lock-free
      ring refactor.

  SA007 entropy-leak-taint
      Buffers that receive raw entropy (BitSource::generate_into
      output, WordRing payloads, EntropyPool::draw destinations) taint
      every value derived from them; tainted values must not reach
      logging (printf family, stream inserts), metrics/JSON
      serialization helpers, to_string/format, or exception messages.
      Counts and verdicts are fine; words are not. This is the
      paper's raw-vs-conditioned boundary as a compile-time check.

  SA008 lock-order / SA009 typestate-protocol
      Interprocedural rules over the cross-TU model in interproc.py; see
      the rule classes below.

A finding is suppressed by a marker on the same line or the line
immediately above:

    // trng-analyzer: allow(TL003) -- exact zero is the documented sentinel

The ` -- justification` part is mandatory; an allow() without one, or
one that matches no finding, is itself a finding (SA000). Suppressions
are deliberately line-scoped: there is no file- or rule-level switch.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
import time

from . import facts

ALLOW_RE = re.compile(
    r"//\s*trng-analyzer:\s*allow\(\s*((?:TL|SA)\d{3})\s*\)"
    r"\s*(?:--\s*(\S.*))?")


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


def _under(rel: pathlib.PurePosixPath, *prefixes: str) -> bool:
    return any(str(rel).startswith(p) for p in prefixes)


@dataclasses.dataclass
class RepoContext:
    """Cross-TU annotation knowledge: locking contracts and atomic roles
    are declared in headers but checked at use sites in other TUs, so
    the driver builds this table in a pre-pass over every file before
    any rule runs. When a TU is checked standalone (tests, single-file
    mode) the context degrades gracefully to that TU's own facts."""
    guards: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    roles: dict[str, str | None] = dataclasses.field(default_factory=dict)
    atomics: set[str] = dataclasses.field(default_factory=set)
    tus: list[facts.TUFacts] = dataclasses.field(default_factory=list)
    _model: object = dataclasses.field(default=None, repr=False)

    def model(self):
        """Lazily-built interprocedural model (call graph + lock graph)
        over every absorbed TU; shared by SA008/SA009 so the graph is
        constructed once per run."""
        if self._model is None:
            from . import interproc
            self._model = interproc.Model(self.tus)
        return self._model

    def absorb(self, tu: facts.TUFacts) -> None:
        self.tus.append(tu)
        self._model = None
        for ga in tu.guard_annots:
            mutex = facts.tail_name(ga.mutex) or ga.mutex
            self.guards.setdefault(ga.field, set()).add(mutex)
        for ad in tu.atomic_decls:
            self.atomics.add(ad.name)
            # First annotated declaration wins; an unannotated redecl
            # must not erase a role declared at the canonical site.
            if ad.role is not None or ad.name not in self.roles:
                self.roles[ad.name] = ad.role


def build_repo_context(tus: list[facts.TUFacts]) -> RepoContext:
    repo = RepoContext()
    for tu in tus:
        repo.absorb(tu)
    return repo


class Rule:
    rule_id: str = "SA000"
    name: str = "unnamed"
    doc: str = ""

    def applies_to(self, rel: pathlib.PurePosixPath) -> bool:
        raise NotImplementedError

    def check(self, tu: facts.TUFacts,
              repo: RepoContext) -> list[tuple[int, str]]:
        raise NotImplementedError


# ------------------------------------------------------------- TL rules

FP_LITERAL = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"


class PatternRule(Rule):
    """Findings are regex matches over the stripped text."""

    patterns: list[tuple[re.Pattern, str]] = []

    def check(self, tu, repo):
        return [(facts.line_of(tu.stripped, m.start()), message)
                for pattern, message in self.patterns
                for m in pattern.finditer(tu.stripped)]


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

    def check(self, tu, repo):
        return [(facts.line_of(tu.stripped, m.start()),
                 f"result type '{m.group('name')}' must be declared "
                 f"[[nodiscard]] so callers cannot drop a verdict")
                for m in self.DEF_RE.finditer(tu.stripped)
                if "nodiscard" not in m.group("attrs")]


class TestInclude(Rule):
    rule_id = "TL005"
    name = "test-include"
    doc = "src/ must not #include anything from tests/"

    # Include paths are string contents, which the stripped text blanks,
    # so this rule matches on the raw lines.
    INCLUDE_RE = re.compile(r'#\s*include\s*["<]([^">]+)[">]')

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, tu, repo):
        findings = []
        for lineno, line in enumerate(tu.raw.splitlines(), start=1):
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

    def check(self, tu, repo):
        names = {m.group(1) for m in self.DECL_RE.finditer(tu.stripped)}
        if not names:
            return []
        # Pass 2: per-bit appends through any of those names.
        alt = "|".join(sorted(re.escape(n) for n in names))
        call_re = re.compile(r"\b(?:" + alt + r")\s*\.\s*push_back\s*\(")
        return [(facts.line_of(tu.stripped, m.start()),
                 "per-bit BitStream::push_back in library code; build "
                 "packed words and append_words() them (or implement "
                 "generate_into), or justify the bit-serial loop with a "
                 "suppression")
                for m in call_re.finditer(tu.stripped)]


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

    def check(self, tu, repo):
        findings = [(facts.line_of(tu.stripped, m.start()),
                     "detached threads cannot be joined at shutdown and "
                     "outlive the state they reference; keep the handle "
                     "and join it")
                    for m in self.DETACH_RE.finditer(tu.stripped)]
        if not _under(tu.rel, "src/service/", "src/server/"):
            findings += [(facts.line_of(tu.stripped, m.start()),
                          "raw std::thread outside src/service/ and "
                          "src/server/; thread ownership is confined to "
                          "those layers (Producer/EntropyPool, ServerDaemon "
                          "sessions) so every worker is provably joined")
                         for m in self.THREAD_RE.finditer(tu.stripped)]
        return findings


class KernelEquivalenceTest(Rule):
    rule_id = "TL008"
    name = "kernel-equivalence-test"
    doc = ("every kernel declared in a wordpar namespace in a header under "
           "src/stattests/, and every src/ function declared right after a "
           "`// trng-analyzer: kernel` line, must be called by name in a "
           "tests/ file whose name contains 'equivalence' (the bit-identity "
           "suite against the tests-only oracle)")

    NAMESPACE_RE = re.compile(
        r"\bnamespace\s+(?:trng\s*::\s*stat\s*::\s*)?wordpar\b")
    KERNEL_RE = re.compile(r"//\s*trng-analyzer:\s*kernel\b")
    # A declaration line: return type(s), then the kernel name, then its
    # parameter list. Anchored to line starts so parameter continuation
    # lines do not match.
    DECL_RE = re.compile(
        r"^\s*(?:[\w:]+(?:\s*[&*])?\s+)+([a-z_]\w*)\s*\(", re.MULTILINE)

    def __init__(self) -> None:
        self._corpus_cache: dict[pathlib.Path, str] = {}

    def applies_to(self, rel):
        return _under(rel, "src/")

    def _equivalence_corpus(self, root: pathlib.Path) -> str:
        cached = self._corpus_cache.get(root)
        if cached is None:
            cached = "\n".join(
                p.read_text(encoding="utf-8", errors="replace")
                for p in sorted((root / "tests").rglob("*"))
                if p.is_file() and p.suffix in facts.SOURCE_SUFFIXES
                and "equivalence" in p.name)
            self._corpus_cache[root] = cached
        return cached

    def _kernel_decls(self, tu):
        """Name matches of every kernel declaration in the TU: each one in
        a wordpar namespace of a src/stattests/ header, and the first
        declaration after each `// trng-analyzer: kernel` annotation."""
        decls = []
        ns = self.NAMESPACE_RE.search(tu.stripped)
        if ns and _under(tu.rel, "src/stattests/") and tu.rel.suffix == ".hpp":
            decls.extend(self.DECL_RE.finditer(tu.stripped, ns.end()))
        for annot in self.KERNEL_RE.finditer(tu.raw):
            decl = self.DECL_RE.search(tu.stripped, annot.end())
            if decl and all(decl.start(1) != d.start(1) for d in decls):
                decls.append(decl)
        return decls

    def check(self, tu, repo):
        decls = self._kernel_decls(tu)
        if not decls:
            return []
        root = tu.path.parents[len(tu.rel.parts) - 1]
        corpus = self._equivalence_corpus(root)
        findings = []
        for m in decls:
            name = m.group(1)
            if re.search(r"\b" + re.escape(name) + r"\s*\(", corpus):
                continue
            findings.append((
                facts.line_of(tu.stripped, m.start(1)),
                f"kernel '{name}' is never exercised by any "
                f"tests/*equivalence* file; compare it against the "
                f"tests-only oracle in an equivalence suite"))
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
        return _under(rel, "src/") and not _under(rel, "src/server/")


# ----------------------------------------------------------------- SA001

_TRIVIAL_CONDS = {"", "true", "1", "(true)", "(1)"}


class CondvarDiscipline(Rule):
    rule_id = "SA001"
    name = "condvar-discipline"
    doc = ("condition_variable waits must use the predicate overload or "
           "be directly controlled by a re-checking loop; a naked wait "
           "loses wakeups that race the sleep")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def _is_condvar(self, tu: facts.TUFacts, recv: str) -> bool:
        base = recv.split(".")[-1].split("->")[-1]
        t = tu.decl_types().get(base, "")
        if "condition_variable" in t:
            return True
        low = base.lower()
        return "cv" in low or "cond" in low

    def check(self, tu, repo):
        findings = []
        guard_vars = {g.var for g in tu.guards}
        for w in tu.waits:
            if not self._is_condvar(tu, w.recv):
                continue
            # Predicate overload: wait(lock, pred) has 2 top-level args,
            # wait_for/wait_until(lock, time, pred) has 3.
            need = 2 if w.member == "wait" else 3
            if len(w.args) >= need:
                continue
            # Timed waits without a predicate still return a reason code
            # the caller must interpret; only flag them when the first
            # argument is not even a known lock (same sanity bar as
            # below), otherwise the naked-wait rule stays focused.
            if not w.args:
                continue
            first = w.args[0].strip()
            if guard_vars and first not in guard_vars:
                # Waiting on something that is not a TU-visible guard:
                # out of this rule's reach (SA004 covers foreign locks).
                continue
            cond = (w.immediate_loop_cond or "").replace(" ", "")
            if w.immediate_loop_cond is not None \
                    and cond not in _TRIVIAL_CONDS:
                continue
            if w.immediate_loop_cond is not None:
                findings.append((w.line, (
                    f"{w.recv}.{w.member}({first}) re-check loop has a "
                    f"trivial condition; the loop must re-test the "
                    f"awaited state")))
            else:
                findings.append((w.line, (
                    f"naked {w.recv}.{w.member}({first}): use the "
                    f"predicate overload (or `while (!pred) wait;`) so "
                    f"every wakeup re-checks the awaited state; a stop "
                    f"racing this sleep is otherwise lost")))
        return findings


# ----------------------------------------------------------------- SA002

_BITS_ID = r"[A-Za-z_]\w*(?:_bits|_nbits)|nbits|bit_count|block_bits"
_WORDS_ID = r"[A-Za-z_]\w*(?:_words|_nwords)|nwords|word_count"

_CONV_PATTERNS = [
    (re.compile(r"\b(" + _BITS_ID + r")\b(?!\s*\()"
                r"(?:\s*\.\s*count\s*\(\s*\))?"
                r"\s*(?:\+\s*63\s*\)\s*)?/\s*64\b"),
     "raw bits->words division; use common::bits_to_words() / "
     "common::word_index()"),
    (re.compile(r"\b(" + _BITS_ID + r")\b(?!\s*\()"
                r"(?:\s*\.\s*count\s*\(\s*\))?"
                r"\s*(?:>>\s*6|%\s*64|&\s*63)(?!\d)"),
     "raw bit-offset arithmetic; use common::word_index() / "
     "common::bit_offset()"),
    (re.compile(r"\b(" + _WORDS_ID + r")\b(?!\s*\()"
                r"(?:\s*\.\s*count\s*\(\s*\))?"
                r"\s*(?:\*\s*64\b|<<\s*6(?!\d))"),
     "raw words->bits multiplication; use common::words_to_bits()"),
]

_MIX_PATTERNS = [
    re.compile(r"\b(" + _BITS_ID + r")\b(?!\s*\()\s*"
               r"(?:[+\-]|<=?|>=?|==|!=)\s*"
               r"\b(" + _WORDS_ID + r")\b(?!\s*\()"),
    re.compile(r"\b(" + _WORDS_ID + r")\b(?!\s*\()\s*"
               r"(?:[+\-]|<=?|>=?|==|!=)\s*"
               r"\b(" + _BITS_ID + r")\b(?!\s*\()"),
]


class UnitSafety(Rule):
    rule_id = "SA002"
    name = "unit-safety"
    doc = ("no raw /64, *64, %64, <<6, >>6, &63 conversions or "
           "bits/words mixing on unit-carrying values; use the typed "
           "helpers in src/common/units.hpp")

    EXEMPT = ("src/common/units.hpp", "src/common/bitstream.hpp",
              "src/common/bitstream.cpp")

    def applies_to(self, rel):
        if str(rel) in self.EXEMPT:
            return False
        return _under(rel, "src/core/", "src/service/", "src/stattests/",
                      "src/common/")

    def check(self, tu, repo):
        findings = []
        for pattern, message in _CONV_PATTERNS:
            for m in pattern.finditer(tu.stripped):
                findings.append((
                    facts.line_of(tu.stripped, m.start()),
                    f"'{m.group(0).strip()}': {message}"))
        for pattern in _MIX_PATTERNS:
            for m in pattern.finditer(tu.stripped):
                findings.append((
                    facts.line_of(tu.stripped, m.start()),
                    f"'{m.group(0).strip()}' mixes a bit count with a "
                    f"word count; convert explicitly with "
                    f"bits_to_words()/words_to_bits()"))
        return findings


# ----------------------------------------------------------------- SA003

_FP_TYPES = ("float", "double")
_CMP_OPS = re.compile(r"(?<![<>=!])(?:<=?|>=?|==|!=)(?![<>=])")
_NUMERIC_DECL_TYPES = re.compile(
    r"^(?:const)?(?:std::)?(?:u?int\d+_t|size_t|auto|float|double|"
    r"unsigned|long|int)$")


def _paren_depth_map(expr: str) -> list[int]:
    depths, d = [], 0
    for c in expr:
        if c == "(":
            d += 1
        depths.append(d)
        if c == ")":
            d = max(0, d - 1)
    return depths


_CAST_TEMPLATE_RE = re.compile(
    r"\b(?:static|reinterpret|const|dynamic)_cast\s*<[^<>]*>")


def _has_bare_use(expr: str, tainted: set[str]) -> str | None:
    """Name of a tainted variable used in `expr` outside any comparison
    subexpression; None when every use is quantized by a comparison.

    Quantized means: within the tainted identifier's minimal enclosing
    parenthesis level (or the whole expression), a comparison operator
    appears at that same level — the FP value only feeds a bool.
    """
    if not tainted:
        return None
    # Cast angle brackets would read as </> comparisons; blank the
    # template argument list (a cast never quantizes, it launders).
    expr = _CAST_TEMPLATE_RE.sub(lambda m: " cast" + " " * (len(m.group(0))
                                                           - 5), expr)
    depths = _paren_depth_map(expr)
    for m in re.finditer(r"[A-Za-z_]\w*", expr):
        name = m.group(0)
        if name not in tainted:
            continue
        level = depths[m.start()]
        quantized = False
        for cm in _CMP_OPS.finditer(expr):
            if depths[cm.start()] <= level:
                quantized = True
                break
        if not quantized:
            return name
    return None


class FpTaint(Rule):
    rule_id = "SA003"
    name = "fp-taint"
    doc = ("no float/double-derived value may reach bit emission in "
           "src/core/ (BitStream appends, packed-word stores); quantize "
           "through an explicit comparison first")

    _EMIT_CALLEES = {"push_back", "append_bit", "append_words"}
    _WORD_LHS = re.compile(r"^(?:\*\s*)?(\w+)\s*(?:\[.*\])?$")

    def applies_to(self, rel):
        return _under(rel, "src/core/")

    def check(self, tu, repo):
        findings = []
        types = tu.decl_types()

        # Seed: declared float/double vars, per function span.
        by_func: dict[tuple[int, int], set[str]] = {}
        for d in tu.decls:
            if d.type_text.replace("const", "") in _FP_TYPES:
                by_func.setdefault(
                    (d.func_start_line, d.func_end_line), set()).add(d.name)

        # Propagate through assignments to numeric locals (fixpoint).
        changed = True
        while changed:
            changed = False
            for a in tu.assigns:
                span = (a.func_start_line, a.func_end_line)
                tainted = by_func.get(span, set())
                if not tainted:
                    continue
                lhs_base = a.lhs.split("[")[0]
                if lhs_base in tainted:
                    continue
                lhs_type = types.get(lhs_base, "")
                if lhs_type and not _NUMERIC_DECL_TYPES.match(lhs_type):
                    continue
                if _has_bare_use(a.rhs, tainted):
                    tainted.add(lhs_base)
                    changed = True

        def tainted_at(line: int) -> set[str]:
            for (fs, fe), names in by_func.items():
                if fs and fs <= line <= fe:
                    return names
            return set()

        # Sink 1: packed-word stores (words[i] = .., word |= ..) where
        # the destination is uint64-typed or the canonical out-param.
        for a in tu.assigns:
            tainted = tainted_at(a.line)
            if not tainted:
                continue
            m = self._WORD_LHS.match(a.lhs)
            if not m:
                continue
            base = m.group(1)
            base_type = types.get(base, "")
            is_word_dst = ("uint64" in base_type or base in ("words", "word")
                           or base.endswith("_word") or
                           base.endswith("_words"))
            if not is_word_dst:
                continue
            bare = _has_bare_use(a.rhs, tainted)
            if bare:
                findings.append((a.line, (
                    f"float/double-derived '{bare}' flows into packed "
                    f"word '{a.lhs} {a.op} ...'; bits must come from an "
                    f"explicit comparison, not FP arithmetic")))

        # Sink 2: BitStream emission calls.
        for c in tu.calls:
            if c.callee not in self._EMIT_CALLEES:
                continue
            tainted = tainted_at(c.line)
            if not tainted or not c.args:
                continue
            recv_base = (c.recv or "").split(".")[-1].split("->")[-1]
            recv_type = types.get(recv_base, "")
            if "BitStream" not in recv_type and \
                    recv_base not in ("bits", "stream", "out"):
                continue
            bare = _has_bare_use(c.args[0], tainted)
            if bare:
                findings.append((c.line, (
                    f"float/double-derived '{bare}' emitted via "
                    f"{recv_base}.{c.callee}(); quantize through a "
                    f"comparison before emission")))
        return findings


# ----------------------------------------------------------------- SA004

class LockScope(Rule):
    rule_id = "SA004"
    name = "lock-scope"
    doc = ("no blocking call (generator draws, sleeps, joins, "
           "WordRing::push, foreign cv waits) while holding a lock "
           "guard; cv waits on the held guard are the designated wait "
           "points")

    _BLOCKING = {
        "sleep_for": "sleeps under a held lock convoy every other thread",
        "sleep_until": "sleeps under a held lock convoy every other "
                       "thread",
        "join": "joining a thread under a held lock deadlocks if the "
                "thread needs that lock to exit",
        "generate": "generator draws are unbounded work; holding a lock "
                    "across one starves the other side",
        "generate_into": "generator draws are unbounded work; holding a "
                         "lock across one starves the other side",
        "generate_raw": "generator draws are unbounded work; holding a "
                        "lock across one starves the other side",
        "next_bit": "generator draws are unbounded work; holding a lock "
                    "across one starves the other side",
        "next_raw_bit": "generator draws are unbounded work; holding a "
                        "lock across one starves the other side",
        "push": "WordRing::push blocks on a full ring; calling it under "
                "a lock the drainer needs is a deadlock",
        "draw": "EntropyPool::draw blocks on empty rings; calling it "
                "under a lock a producer needs is a deadlock",
    }
    _WAIT_MEMBERS = {"wait", "wait_for", "wait_until"}

    def applies_to(self, rel):
        return _under(rel, "src/core/", "src/service/")

    def check(self, tu, repo):
        findings = []
        if not tu.guards:
            return findings
        # Guard scopes by line; the fact schema keeps line granularity,
        # which is exact for this codebase's one-statement-per-line style.
        guards = [(g.line, g.scope_end_line, g.var) for g in tu.guards]

        def held_at(line: int) -> list[str]:
            return [v for (a, b, v) in guards if a <= line <= b]

        for c in tu.calls:
            held = held_at(c.line)
            if not held:
                continue
            if c.callee in self._WAIT_MEMBERS:
                first = c.args[0].strip() if c.args else ""
                if first in held and len(held) == 1:
                    continue  # designated wait point on the held guard
                if not any(g.var == first for g in tu.guards):
                    continue  # not a lock-taking wait (e.g. future.wait)
                others = sorted(v for v in held if v != first)
                findings.append((c.line, (
                    f"{c.recv or ''}.{c.callee}({first}) sleeps while "
                    f"still holding {', '.join(others)}; the wait "
                    f"releases only its own lock, so every other held "
                    f"guard convoys its contenders")))
                continue
            why = self._BLOCKING.get(c.callee)
            if why is None:
                continue
            # Guard declarations themselves match the call regex
            # (constructor syntax); skip calls that *are* guard ctors.
            if any(g.line == c.line and g.var == c.callee
                   for g in tu.guards):
                continue
            recv = f"{c.recv}." if c.recv else ""
            findings.append((c.line, (
                f"blocking call {recv}{c.callee}() while holding lock "
                f"guard {', '.join(sorted(held))}: {why}")))
        return findings


# ----------------------------------------------------------------- SA005

# Synchronization objects are what guards are made of, not what they
# protect; their access pattern (locked in some places, notified outside
# the lock in others) is correct by design.
_SYNC_SUFFIXES = ("mu_", "cv_", "mutex_", "cond_", "lock_")

_LOCKED_FN_RE = re.compile(r"\b[A-Za-z_]\w*_locked\s*\(")


def _locked_fn_spans(stripped: str) -> list[tuple[int, int]]:
    """Line spans of `*_locked` function *definitions*. The suffix is the
    repository's caller-holds-the-lock contract: the body runs under the
    caller's guard, so its accesses carry no lexical lockset of their
    own. Calls and declarations (no following brace) are skipped."""
    spans = []
    for m in _LOCKED_FN_RE.finditer(stripped):
        i = stripped.find("(", m.start())
        depth, j = 1, i + 1
        while j < len(stripped) and depth:
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
            j += 1
        k = j
        while k < len(stripped) and stripped[k] not in "{;":
            k += 1
        if k >= len(stripped) or stripped[k] == ";":
            continue
        depth, e = 1, k + 1
        while e < len(stripped) and depth:
            if stripped[e] == "{":
                depth += 1
            elif stripped[e] == "}":
                depth -= 1
            e += 1
        spans.append((facts.line_of(stripped, k),
                      facts.line_of(stripped, e - 1)))
    return spans


class LocksetConsistency(Rule):
    rule_id = "SA005"
    name = "lockset-consistency"
    doc = ("every access to a shared member field must hold a consistent "
           "guard set: all-unguarded (thread-confined) or a common mutex; "
           "declare intent with // trng-analyzer: guards(field, mu); "
           "bodies of *_locked helpers run under the caller's guard and "
           "are exempt by convention")

    def applies_to(self, rel):
        return _under(rel, "src/service/", "src/stattests/", "src/server/")

    def check(self, tu, repo):
        findings = []
        guards = [(g.line, g.scope_end_line,
                   facts.tail_name(g.mutex) or g.mutex)
                  for g in tu.guards]

        def lockset(line: int) -> set[str]:
            return {m for (a, b, m) in guards if a <= line <= b}

        locked_spans = _locked_fn_spans(tu.stripped)

        def in_locked_helper(line: int) -> bool:
            return any(a <= line <= b for (a, b) in locked_spans)

        by_field: dict[str, list[facts.FieldAccess]] = {}
        for fa in tu.field_accesses:
            if fa.name.endswith(_SYNC_SUFFIXES):
                continue
            if fa.name in repo.atomics:
                continue   # SA006 owns atomics; locksets don't apply
            if in_locked_helper(fa.line):
                continue   # caller-holds-the-lock contract (*_locked)
            by_field.setdefault(fa.name, []).append(fa)

        for field in sorted(by_field):
            accesses = sorted(by_field[field], key=lambda fa: fa.line)
            sets = [lockset(fa.line) for fa in accesses]

            declared = repo.guards.get(field)
            if declared:
                for fa, held in zip(accesses, sets):
                    if not (held & declared):
                        findings.append((fa.line, (
                            f"'{field}' accessed without its declared "
                            f"guard {'/'.join(sorted(declared))} "
                            f"(guards(...) annotation); held here: "
                            f"{', '.join(sorted(held)) or 'nothing'}")))
                continue

            if all(not s for s in sets):
                continue   # consistently unguarded: thread-confined state

            if any(not s for s in sets):
                first = next(fa for fa, s in zip(accesses, sets) if not s)
                locked = next(s for s in sets if s)
                findings.append((first.line, (
                    f"mixed guarded/unguarded access to '{field}': this "
                    f"access holds no lock while other accesses in this "
                    f"TU hold {', '.join(sorted(locked))}; either every "
                    f"access locks or none does (annotate guards("
                    f"{field}, ...) to declare the contract)")))
                continue

            inter = set(sets[0])
            for fa, held in zip(accesses[1:], sets[1:]):
                if not (inter & held):
                    findings.append((fa.line, (
                        f"disjoint guard sets for '{field}': this access "
                        f"holds {', '.join(sorted(held))} but earlier "
                        f"accesses hold {', '.join(sorted(inter))}; "
                        f"non-intersecting locksets do not exclude each "
                        f"other")))
                    break
                inter &= held
        return findings


# ----------------------------------------------------------------- SA006

# Orders that actually synchronize for each operation kind; None means
# the order was left implicit, i.e. seq_cst — always strong enough.
_STORE_OK = {None, "release", "seq_cst"}
_LOAD_OK = {None, "acquire", "seq_cst"}
_RMW_OK = {None, "acq_rel", "seq_cst", "release", "acquire"}

# Combinations the standard rejects or demotes regardless of intent.
_STORE_INVALID = {"acquire", "consume", "acq_rel"}
_LOAD_INVALID = {"release", "acq_rel"}


class AtomicsDiscipline(Rule):
    rule_id = "SA006"
    name = "atomics-discipline"
    doc = ("every std::atomic carries a role annotation (counter, gauge, "
           "flag, index-producer, index-consumer); relaxed is legal only "
           "for counter/gauge, flag needs release-store/acquire-load, "
           "index-* additionally require explicit orders everywhere")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, tu, repo):
        findings = []
        for ad in tu.atomic_decls:
            if ad.role is None:
                findings.append((ad.line, (
                    f"std::atomic '{ad.name}' has no role annotation; "
                    f"declare // trng-analyzer: atomic(<role>) with role "
                    f"in {{{', '.join(facts.ATOMIC_ROLES)}}} so the "
                    f"memory-order protocol is checkable")))
            elif ad.role not in facts.ATOMIC_ROLES:
                findings.append((ad.line, (
                    f"unknown atomic role '{ad.role}' on '{ad.name}'; "
                    f"valid roles: {', '.join(facts.ATOMIC_ROLES)}")))

        for op in tu.atomic_ops:
            role = repo.roles.get(op.member)
            if op.member not in repo.atomics:
                continue   # .load()/.store() on something non-atomic

            # Standard-level sanity first, independent of role.
            if op.kind == "store" and op.order in _STORE_INVALID:
                findings.append((op.line, (
                    f"'{op.member}.{op.op}' with memory_order_{op.order}: "
                    f"a store cannot acquire; this is undefined or "
                    f"silently demoted")))
                continue
            if op.kind == "load" and op.order in _LOAD_INVALID:
                findings.append((op.line, (
                    f"'{op.member}.{op.op}' with memory_order_{op.order}: "
                    f"a load cannot release; this is undefined or "
                    f"silently demoted")))
                continue
            if op.fail_order in ("release", "acq_rel"):
                findings.append((op.line, (
                    f"'{op.member}.{op.op}' failure order "
                    f"memory_order_{op.fail_order}: the failure load of a "
                    f"compare-exchange cannot release")))
                continue

            if role is None or role in ("counter", "gauge"):
                # counter/gauge: monotonic tallies and racy-by-design
                # snapshots — any order (typically relaxed) is fine.
                # Unannotated atomics were already flagged at the decl.
                continue

            ok = {"load": _LOAD_OK, "store": _STORE_OK,
                  "rmw": _RMW_OK}[op.kind]
            if role == "flag":
                if op.order is not None and op.order not in ok:
                    findings.append((op.line, (
                        f"role(flag) '{op.member}.{op.op}' uses "
                        f"memory_order_{op.order}; a flag publishes "
                        f"state, so stores need release (or seq_cst/"
                        f"default) and loads need acquire — relaxed "
                        f"orders lose the happens-before edge")))
                continue

            # index-producer / index-consumer: the SPSC ring protocol.
            if op.order is None:
                findings.append((op.line, (
                    f"role({role}) '{op.member}.{op.op}' leaves the "
                    f"memory order implicit; ring index operations must "
                    f"spell the acquire/release protocol explicitly so "
                    f"the pairing is auditable")))
                continue
            if op.order not in ok - {None}:
                findings.append((op.line, (
                    f"role({role}) '{op.member}.{op.op}' uses "
                    f"memory_order_{op.order}; the publish protocol "
                    f"requires release stores, acquire loads and acq_rel "
                    f"read-modify-writes — nothing weaker")))
        return findings


# ----------------------------------------------------------------- SA007

# Callee -> index of the buffer argument the call taints. Most entropy
# interfaces lead with the destination buffer; the sharded pool and the
# DRBG conditioner take the shard index first, buffer second.
_TAINT_SOURCE_CALLS = {"generate_into": 0, "pop_some": 0, "draw": 0,
                       "draw_from_shard": 1}

# Definitions of the entropy-carrying interfaces taint their own word
# buffer parameter: the body of generate_into writes raw entropy into
# it, the body of push reads raw entropy out of it.
_TAINT_DEF_RE = re.compile(
    r"\b(generate_into|push|pop_some|draw|draw_from_shard)\s*"
    r"\(([^)]*)\)[^;{}]*\{")

_WORD_PTR_PARAM_RE = re.compile(
    r"(?:const\s+)?(?:std\s*::\s*)?uint64_t\s*\*\s*(\w+)")

_PRINT_SINKS = {"printf", "fprintf", "sprintf", "snprintf", "puts",
                "fputs"}
_EXCEPTION_SINKS = {"runtime_error", "logic_error", "invalid_argument",
                    "out_of_range", "domain_error", "length_error",
                    "range_error"}
_FORMAT_SINKS = {"to_string", "format", "emit_u64", "emit_double",
                 "emit_string"}

_COPY_DST_FIRST = {"memcpy", "memmove"}
_COPY_DST_LAST = {"copy", "copy_n"}

# The frontend cannot tell a function *declaration* from a call, so
# `pop_some(std::uint64_t* out, ...)` arrives as a call whose first
# "argument" is a parameter declaration. Its head identifier is then a
# type or namespace, never a buffer — reject those so parameter lists
# never seed taint.
_TYPE_HEADS = {"const", "constexpr", "std", "common", "trng", "core",
               "unsigned", "signed", "void", "bool", "char", "short",
               "int", "long", "float", "double", "auto", "size_t",
               "uint8_t", "uint32_t", "uint64_t"}

_STREAM_NAMES = {"cout", "cerr", "clog", "os", "oss"}
_STREAM_INSERT_RE = re.compile(r"\b([A-Za-z_]\w*)\s*<<(?![<=])")

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _mentions(expr: str, tainted: set[str]) -> str | None:
    for name in _IDENT_RE.findall(expr or ""):
        if name in tainted:
            return name
    return None


class EntropyLeakTaint(Rule):
    rule_id = "SA007"
    name = "entropy-leak-taint"
    doc = ("values reaching generate_into output buffers, WordRing "
           "payloads or EntropyPool::draw destinations are "
           "entropy-tainted and must not flow into logging, JSON/metrics "
           "serialization, exception messages or stdout; counts and "
           "verdicts are fine, words are not")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def _seed(self, tu: facts.TUFacts) -> set[str]:
        tainted: set[str] = set()
        for c in tu.calls:
            idx = _TAINT_SOURCE_CALLS.get(c.callee)
            if idx is not None:
                # Conditioner::draw(shard, out, ...) leads with the shard
                # index; the pool/source draw(out, ...) leads with the
                # buffer. Disambiguate on the receiver.
                if c.callee == "draw" and c.recv and \
                        "conditioner" in c.recv.lower():
                    idx = 1
                if len(c.args) > idx:
                    name = facts.head_name(c.args[idx])
                    if name and name not in _TYPE_HEADS:
                        tainted.add(name)
            elif c.callee == "push" and c.args and c.recv and \
                    "ring" in c.recv.lower():
                name = facts.head_name(c.args[0])
                if name and name not in _TYPE_HEADS:
                    tainted.add(name)
        for m in _TAINT_DEF_RE.finditer(tu.stripped):
            pm = _WORD_PTR_PARAM_RE.search(m.group(2))
            if pm:
                tainted.add(pm.group(1))
        return tainted

    def check(self, tu, repo):
        findings = []
        tainted = self._seed(tu)
        if not tainted:
            return findings

        # Propagate through assignments and buffer copies to fixpoint.
        changed = True
        while changed:
            changed = False
            for a in tu.assigns:
                lhs = facts.head_name(a.lhs)
                if lhs and lhs not in tainted and _mentions(a.rhs, tainted):
                    tainted.add(lhs)
                    changed = True
            for c in tu.calls:
                if c.callee in _COPY_DST_FIRST and len(c.args) >= 2:
                    dst, srcs = c.args[0], c.args[1:]
                elif c.callee in _COPY_DST_LAST and len(c.args) >= 2:
                    dst, srcs = c.args[-1], c.args[:-1]
                else:
                    continue
                dst_name = facts.head_name(dst)
                if dst_name and dst_name not in tainted and \
                        any(_mentions(s, tainted) for s in srcs):
                    tainted.add(dst_name)
                    changed = True

        # Sink 1: calls that format, print or throw the value.
        sinks = _PRINT_SINKS | _EXCEPTION_SINKS | _FORMAT_SINKS
        flagged_lines: set[int] = set()
        for c in tu.calls:
            if c.callee not in sinks:
                continue
            hit = next((n for a in c.args
                        if (n := _mentions(a, tainted))), None)
            if hit is None or c.line in flagged_lines:
                continue
            flagged_lines.add(c.line)
            if c.callee in _PRINT_SINKS:
                how = "printed"
            elif c.callee in _EXCEPTION_SINKS:
                how = "put into an exception message"
            else:
                how = "serialized"
            findings.append((c.line, (
                f"entropy-tainted '{hit}' is {how} via {c.callee}(); "
                f"raw words must never leave the drawn-entropy path — "
                f"log counts or verdicts instead")))

        # Sink 2: stream inserts (text-based over the stripped view).
        for m in _STREAM_INSERT_RE.finditer(tu.stripped):
            recv = m.group(1)
            if recv not in _STREAM_NAMES and \
                    not recv.endswith(("_os", "_oss", "stream")):
                continue
            stmt_end = tu.stripped.find(";", m.end())
            if stmt_end < 0:
                stmt_end = len(tu.stripped)
            hit = _mentions(tu.stripped[m.end():stmt_end], tainted)
            line = facts.line_of(tu.stripped, m.start())
            if hit is None or line in flagged_lines:
                continue
            flagged_lines.add(line)
            findings.append((line, (
                f"entropy-tainted '{hit}' streamed to '{recv}'; raw "
                f"words must never leave the drawn-entropy path — log "
                f"counts or verdicts instead")))
        return findings


# ----------------------------------------------------------------- SA008

class LockOrderConsistency(Rule):
    rule_id = "SA008"
    name = "lock-order"
    doc = ("repo-wide lock acquisition order must be acyclic: nodes are "
           "mutex members qualified by owning class, an edge A -> B "
           "means B is acquired (lexically or through the cross-TU call "
           "graph) while A is held, try-lock acquisitions never block "
           "and condvar waits release; a cycle — including one closed "
           "by a declared `// trng-analyzer: lock-order(a, b)` edge — "
           "is a deadlock some thread interleaving can reach")

    def applies_to(self, rel):
        return _under(rel, "src/")

    def check(self, tu, repo):
        return list(repo.model().sa008_findings().get(str(tu.rel), []))


# ----------------------------------------------------------------- SA009

class TypestateProtocols(Rule):
    rule_id = "SA009"
    name = "typestate-protocol"
    doc = ("stateful protocol contracts checked against a declarative "
           "table: the SP 800-90A DRBG lifecycle (no generate before "
           "instantiate; a generate/seeding status — kReseedRequired "
           "included — must be consumed, and a failed seeding gate must "
           "not fall through to generate; no second generate while the "
           "first status is still unchecked), the quarantine admission "
           "state machine (only declared transitions, and only inside "
           "the state switch except a reset to the start state), and "
           "WordRing SPSC role confinement (no function may reach both "
           "producer-side and consumer-side ring operations, per the "
           "SA006 index-producer/index-consumer roles)")

    # --- protocol table -------------------------------------------------
    # DRBG lifecycle (SP 800-90A): receivers are classified as DRBGs by
    # declared type or by the `drbg` naming convention; `fill_seed` is
    # the seeding gate whose bool failure result guards generate.
    _DRBG_TYPES = ("HashDrbg", "HmacDrbg", "Drbg")
    _DRBG_HINT = "drbg"
    _GATES = ("fill_seed",)
    # Quarantine admission state machine (mirrors QuarantinePolicy).
    _Q_FIELD = "state_"
    _Q_ENUM = "AdmitState"
    _Q_START = "kHealthy"
    _Q_TRANSITIONS = {
        ("kHealthy", "kQuarantined"),
        ("kQuarantined", "kProbation"),
        ("kProbation", "kQuarantined"),
        ("kProbation", "kHealthy"),
    }
    # SPSC ring role confinement: member-call spellings per side, plus
    # the SA006 atomic index roles reached through the call graph.
    _PRODUCER_CALLS = ("push", "try_push")
    _CONSUMER_CALLS = ("pop_some",)
    _RING_HINT = "ring"

    _GEN_RE = re.compile(
        r"([A-Za-z_][\w.\[\]>-]*?)\s*(?:\.|->)\s*generate\s*\(")
    _DRBG_LOCAL_RE = re.compile(
        r"\bunique_ptr\s*<[^;{}()]*?Drbg[^;{}()]*?>\s+(\w+)\s*;")

    def applies_to(self, rel):
        return _under(rel, "src/service/", "src/server/")

    def check(self, tu, repo):
        findings: list[tuple[int, str]] = []
        self._check_discarded_status(tu, findings)
        self._check_generate_before_instantiate(tu, findings)
        self._check_unchecked_then_generate(tu, findings)
        self._check_quarantine_transitions(tu, findings)
        self._check_spsc_roles(tu, repo, findings)
        findings.sort()
        return findings

    # ------------------------------------------------------------ DRBG

    def _is_drbg_recv(self, recv: str, decl_types: dict[str, str]) -> bool:
        tail = facts.tail_name(recv) or ""
        if self._DRBG_HINT in tail.lower():
            return True
        base = facts.head_name(recv)
        t = decl_types.get(base or "", "")
        return any(d in t for d in self._DRBG_TYPES)

    def _drbg_generates(self, tu):
        """(match, line, normalized receiver) for every DRBG-classified
        generate call in the stripped text."""
        decl_types = tu.decl_types()
        out = []
        for m in self._GEN_RE.finditer(tu.stripped):
            recv = m.group(1)
            if not self._is_drbg_recv(recv, decl_types):
                continue
            out.append((m, facts.line_of(tu.stripped, m.start()),
                        re.sub(r"\s+", "", recv)))
        return out

    def _check_discarded_status(self, tu, findings):
        text = tu.stripped
        sites = [(m.start(), m.group(1) + " generate", ln)
                 for m, ln, _ in self._drbg_generates(tu)]
        for gate in self._GATES:
            for m in re.finditer(rf"(?<![\w.>:]){gate}\s*\(", text):
                sites.append((m.start(), gate,
                              facts.line_of(text, m.start())))
        for off, what, line in sites:
            prev = text[:off].rstrip()
            if not prev or prev[-1] in ";{}":
                findings.append((line, (
                    f"DRBG status of '{what.split()[0]}' discarded as a "
                    f"bare statement; kReseedRequired (or a failed "
                    f"seeding gate) silently ignored breaks the "
                    f"SP 800-90A reseed contract")))

    def _check_generate_before_instantiate(self, tu, findings):
        text = tu.stripped
        lines = text.splitlines()
        for m in self._DRBG_LOCAL_RE.finditer(text):
            name = m.group(1)
            line = facts.line_of(text, m.start())
            span = self._innermost_fn(tu, line)
            if span is None:
                continue     # member declaration, not a local
            use_re = re.compile(
                rf"\b{re.escape(name)}\s*(?:\.|->)\s*(generate|reseed)"
                rf"\s*\(")
            ctor_re = re.compile(
                rf"\b{re.escape(name)}\s*(?:=(?!=)|\.\s*reset\s*\()")
            line_start = text.rfind("\n", 0, m.start()) + 1
            decl_end_col = m.end() - line_start
            for ln in range(line, min(span.end_line, len(lines)) + 1):
                seg = lines[ln - 1]
                if ln == line:
                    seg = seg[decl_end_col:]
                if ctor_re.search(seg):
                    break
                um = use_re.search(seg)
                if um:
                    findings.append((ln, (
                        f"'{name}->{um.group(1)}' before the DRBG is "
                        f"instantiated (local unique_ptr still null); "
                        f"SP 800-90A requires instantiate before "
                        f"generate/reseed")))
                    break

    def _check_unchecked_then_generate(self, tu, findings):
        text = tu.stripped
        per_fn: dict[tuple[int, int], list] = {}
        for m, line, recv in self._drbg_generates(tu):
            span = self._innermost_fn(tu, line)
            if span is None:
                continue
            # `DrbgStatus st = drbg->generate(...)`: the status variable
            # is the identifier just before a trailing `=`.
            status = None
            prev = text[:m.start()].rstrip()
            if prev.endswith("=") and not prev.endswith(("==", "!=",
                                                         "<=", ">=")):
                svm = re.search(r"([A-Za-z_]\w*)\s*\Z", prev[:-1])
                status = svm.group(1) if svm else None
            per_fn.setdefault((span.start_line, span.end_line),
                              []).append((m, line, recv, status))
        for sites in per_fn.values():
            sites.sort(key=lambda s: s[0].start())
            for (m1, _l1, r1, status), (m2, l2, r2, _s2) in zip(
                    sites, sites[1:]):
                if r1 != r2 or status is None:
                    continue
                between = text[m1.end():m2.start()]
                if re.search(rf"\b{re.escape(status)}\b", between):
                    continue
                if "reseed" in between:
                    continue
                findings.append((l2, (
                    f"second generate on '{r2}' while status "
                    f"'{status}' from the previous generate is still "
                    f"unchecked; a dropped kReseedRequired would "
                    f"generate from a stale DRBG state")))

    # ------------------------------------------------- quarantine FSM

    def _check_quarantine_transitions(self, tu, findings):
        text = tu.stripped
        switch_spans = []
        for m in re.finditer(
                rf"switch\s*\(\s*(?:this\s*->\s*)?{self._Q_FIELD}\s*\)"
                rf"\s*\{{", text):
            open_off = m.end() - 1
            switch_spans.append((open_off, facts.match_brace(
                text, open_off)))
        case_re = re.compile(
            rf"case\s+{self._Q_ENUM}\s*::\s*(k\w+)\s*:|default\s*:")
        assign_re = re.compile(
            rf"(?<![\w.>])(?:this\s*->\s*)?{self._Q_FIELD}\s*=(?!=)\s*"
            rf"{self._Q_ENUM}\s*::\s*(k\w+)")
        for m in assign_re.finditer(text):
            to = m.group(1)
            line = facts.line_of(text, m.start())
            span = None
            for a, b in switch_spans:
                if a < m.start() <= b and (
                        span is None or (b - a) < (span[1] - span[0])):
                    span = (a, b)
            if span is None:
                if to != self._Q_START:
                    findings.append((line, (
                        f"quarantine state set to {to} outside the "
                        f"`switch ({self._Q_FIELD})` transition table; "
                        f"only a reset to {self._Q_START} may bypass "
                        f"declared transitions")))
                continue
            frm = None
            for cm in case_re.finditer(text, span[0], m.start()):
                frm = cm.group(1) or "default"
            if frm is None or frm == "default":
                continue
            if (frm, to) not in self._Q_TRANSITIONS:
                findings.append((line, (
                    f"undeclared quarantine transition {frm} -> {to}; "
                    f"the admission state machine declares only "
                    f"{sorted(self._Q_TRANSITIONS)}")))

    # ----------------------------------------------- SPSC confinement

    def _innermost_fn(self, tu, line):
        best = None
        for fd in tu.funcs:
            if fd.start_line <= line <= fd.end_line:
                if best is None or (fd.end_line - fd.start_line) < \
                        (best.end_line - best.start_line):
                    best = fd
        return best

    def _check_spsc_roles(self, tu, repo, findings):
        model = repo.model()
        roles = repo.roles
        memo: dict[int, tuple[frozenset, frozenset]] = {}

        def ring_recv(call) -> bool:
            tail = facts.tail_name(call.recv or "") or ""
            return self._RING_HINT in tail.lower()

        def reach(f, stack) -> tuple[frozenset, frozenset]:
            key = id(f)
            if key in memo:
                return memo[key]
            if key in stack:
                return frozenset(), frozenset()
            stack.add(key)
            prod, cons = set(), set()
            for op in f.atomic_ops:
                if op.kind not in ("store", "rmw"):
                    continue
                role = roles.get(op.member)
                if role == "index-producer":
                    prod.add(f"{op.member}.{op.op}")
                elif role == "index-consumer":
                    cons.add(f"{op.member}.{op.op}")
            for call in f.calls:
                if call.recv is not None and ring_recv(call):
                    if call.callee in self._PRODUCER_CALLS:
                        prod.add(f"{call.recv}.{call.callee}")
                    elif call.callee in self._CONSUMER_CALLS:
                        cons.add(f"{call.recv}.{call.callee}")
                for t in model.resolve(call, f):
                    tp, tc = reach(t, stack)
                    if tp:
                        prod.add(f"{call.callee} -> {sorted(tp)[0]}")
                    if tc:
                        cons.add(f"{call.callee} -> {sorted(tc)[0]}")
            stack.discard(key)
            memo[key] = (frozenset(prod), frozenset(cons))
            return memo[key]

        rel = str(tu.rel)
        for f in model.funcs:
            if f.rel != rel or f.fd.kind != "fn" or not f.fd.name:
                continue
            prod, cons = reach(f, set())
            if prod and cons:
                findings.append((f.fd.start_line, (
                    f"'{f.qual}' reaches both producer-side "
                    f"({sorted(prod)[0]}) and consumer-side "
                    f"({sorted(cons)[0]}) SPSC ring operations; the "
                    f"single-producer/single-consumer split requires "
                    f"disjoint role sets per function")))


RULES: list[Rule] = [
    NondeterministicRng(),
    FloatType(),
    FpLiteralEquality(),
    NodiscardResult(),
    TestInclude(),
    PerBitPushBack(),
    ThreadConfinement(),
    KernelEquivalenceTest(),
    SocketConfinement(),
    CondvarDiscipline(),
    UnitSafety(),
    FpTaint(),
    LockScope(),
    LocksetConsistency(),
    AtomicsDiscipline(),
    EntropyLeakTaint(),
    LockOrderConsistency(),
    TypestateProtocols(),
]


def apply_suppressions(path: pathlib.Path, findings: list[Finding],
                       raw_lines: list[str],
                       rule_ids: set[str] | None = None) -> list[Finding]:
    """Line-scoped justified suppressions: a marker on the finding line
    or the line above suppresses it (the finding is kept, flagged
    `suppressed`, for --json reporting); an allow() without
    justification or matching finding is an SA000. Under a `rule_ids`
    subset, markers for rules that did not run are not judged."""
    out: list[Finding] = []
    used_markers: set[int] = set()

    markers: dict[int, tuple[str, str | None]] = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            markers[lineno] = (m.group(1), m.group(2))

    for f in findings:
        handled = False
        for marker_line in (f.line, f.line - 1):
            marker = markers.get(marker_line)
            if marker and marker[0] == f.rule:
                used_markers.add(marker_line)
                if marker[1]:
                    out.append(dataclasses.replace(
                        f, suppressed=True, justification=marker[1]))
                else:
                    out.append(Finding(
                        f.path, marker_line, "SA000", "bad-suppression",
                        f"allow({f.rule}) without a '-- justification'; "
                        f"every suppression must say why"))
                handled = True
                break
        if not handled:
            out.append(f)

    for lineno, (rule_id, _) in markers.items():
        if lineno not in used_markers and \
                (rule_ids is None or rule_id in rule_ids):
            out.append(Finding(
                path, lineno, "SA000", "bad-suppression",
                f"allow({rule_id}) marker does not match any finding on "
                f"this or the next line; delete it"))
    return out


def check_tu(tu: facts.TUFacts,
             repo: RepoContext | None = None,
             rule_ids: set[str] | None = None,
             timings: dict[str, float] | None = None) -> list[Finding]:
    """Runs every rule (or the `rule_ids` subset) over one TU.

    `timings`, when given, accumulates per-rule wall seconds across
    calls — the driver feeds it to the stderr summary so a slow rule is
    bisectable from CI output."""
    if repo is None:
        repo = build_repo_context([tu])
    findings: list[Finding] = []
    for rule in RULES:
        if rule_ids is not None and rule.rule_id not in rule_ids:
            continue
        if not rule.applies_to(tu.rel):
            continue
        t0 = time.perf_counter()
        rule_findings = rule.check(tu, repo)
        if timings is not None:
            timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + \
                (time.perf_counter() - t0)
        for line, message in rule_findings:
            findings.append(Finding(tu.path, line, rule.rule_id,
                                    rule.name, message))
    # Suppression markers live in comments, so they match raw lines.
    raw_lines = tu.raw.splitlines()
    has_markers = any(ALLOW_RE.search(line) for line in raw_lines)
    if findings or has_markers:
        findings = apply_suppressions(tu.path, findings, raw_lines,
                                      rule_ids)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
