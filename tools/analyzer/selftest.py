#!/usr/bin/env python3
"""Self-test for the TRNG analyzer.

Runs the analyzer over the fixture tree in tests/lint/fixtures/ (which
mirrors the repo's src/ and tests/ layout so path-scoped rules apply
exactly as in production) and asserts each TL and SA rule fires
precisely on its bad fixtures and stays silent on the good ones. The
assertions run against the --json output, which also pins the
machine-readable schema the CI artifact upload depends on.

Exit codes: 0 all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
ANALYZE = REPO / "tools" / "analyzer" / "analyze.py"
FIXTURES = REPO / "tests" / "lint" / "fixtures"

RULE_IDS = [f"TL{i:03d}" for i in range(1, 10)] + \
    [f"SA{i:03d}" for i in range(1, 10)]

# Every unsuppressed (file, rule) pair the fixture run must produce — no
# more, no less. Multiset: a pair listed twice must fire exactly twice.
EXPECTED = sorted([
    ("src/core/bad_rand.cpp", "TL001"),      # srand(
    ("src/core/bad_rand.cpp", "TL001"),      # time(nullptr)
    ("src/core/bad_rand.cpp", "TL001"),      # rand()
    ("src/core/bad_rand.cpp", "TL001"),      # std::rand -> rand(
    ("src/core/bad_rand.cpp", "TL001"),      # std::rand token
    ("src/core/bad_rand.cpp", "TL001"),      # random_device
    ("src/core/bad_rand.cpp", "TL001"),      # steady_clock::now
    ("src/model/bad_float.cpp", "TL002"),    # declaration
    ("src/model/bad_float.cpp", "TL002"),    # static_cast<float>
    ("src/model/bad_fp_eq.cpp", "TL003"),    # literal rhs
    ("src/model/bad_fp_eq.cpp", "TL003"),    # literal lhs
    ("src/stattests/bad_result.hpp", "TL004"),
    ("src/core/bad_test_include.cpp", "TL005"),
    ("src/core/bad_test_include.cpp", "TL005"),
    ("src/core/bad_pushback.cpp", "TL006"),  # reference parameter
    ("src/core/bad_pushback.cpp", "TL006"),  # per-bit loop
    # Cross-hit: the SA003 fixture's tainted emission (line 24) is also a
    # per-bit push_back on a named BitStream, so TL006 fires there too.
    ("src/core/sa003_bad.cpp", "TL006"),
    ("src/core/bad_thread.cpp", "TL007"),    # std::thread construction
    ("src/core/bad_thread.cpp", "TL007"),    # .detach()
    ("src/core/bad_thread.cpp", "TL007"),    # std::thread member
    ("src/stattests/wordpar_kernels.hpp", "TL008"),  # uncovered_kernel
    ("src/core/bad_socket.cpp", "TL009"),    # ::socket(
    ("src/core/bad_socket.cpp", "TL009"),    # ::bind(
    ("src/core/bad_socket.cpp", "TL009"),    # bare recv(
    ("src/service/sa001_bad.cpp", "SA001"),   # naked wait in work loop
    ("src/service/sa001_bad.cpp", "SA001"),   # while(true) trivial cond
    ("src/core/sa002_bad.cpp", "SA002"),      # (nbits + 63) / 64
    ("src/core/sa002_bad.cpp", "SA002"),      # nbits & 63
    ("src/core/sa002_bad.cpp", "SA002"),      # ring_words * 64
    ("src/core/sa002_bad.cpp", "SA002"),      # block_bits <= capacity_words
    ("src/core/sa003_bad.cpp", "SA003"),      # tainted packed-word store
    ("src/core/sa003_bad.cpp", "SA003"),      # tainted push_back
    ("src/service/sa004_bad.cpp", "SA004"),   # generate_into under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # push under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # sleep_for under lock
    ("src/service/sa004_bad.cpp", "SA004"),   # wait holding a second lock
    ("src/service/sa005_bad.cpp", "SA005"),   # mixed guarded/unguarded
    ("src/service/sa005_bad.cpp", "SA005"),   # disjoint guard sets
    ("src/service/sa005_bad.cpp", "SA005"),   # declared guards() violated
    ("src/server/sa005_server_bad.cpp", "SA005"),  # rule covers src/server/
    ("src/service/sa006_bad.cpp", "SA006"),   # atomic without a role
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed store on a flag
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed load on a flag
    ("src/service/sa006_bad.cpp", "SA006"),   # implicit-order index store
    ("src/service/sa006_bad.cpp", "SA006"),   # relaxed index load
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to printf
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to a stream
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word to to_string
    ("src/service/sa007_bad.cpp", "SA007"),   # raw word in an exception
    ("src/server/sa007_shard_bad.cpp", "SA007"),  # draw_from_shard arg 1
    ("src/service/sa008_bad.cpp", "SA008"),   # front -> back acquisition
    ("src/service/sa008_bad.cpp", "SA008"),   # reversed, contradicts decl
    ("src/service/sa008_xtu_a.cpp", "SA008"),  # cross-TU cycle, side A
    ("src/service/sa008_xtu_b.cpp", "SA008"),  # cross-TU cycle, side B
    ("src/server/sa009_bad.cpp", "SA009"),    # generate before instantiate
    ("src/server/sa009_bad.cpp", "SA009"),    # discarded generate status
    ("src/server/sa009_bad.cpp", "SA009"),    # unchecked-then-generate
    ("src/service/sa009_state_bad.cpp", "SA009"),  # undeclared transition
    ("src/service/sa009_state_bad.cpp", "SA009"),  # naked non-reset assign
    ("src/service/sa009_state_bad.cpp", "SA009"),  # SPSC role mixing
    ("src/model/suppressed_bad.cpp", "SA000"),     # TL003 unjustified
    ("src/model/dangling_allow.cpp", "SA000"),     # TL003 matches nothing
    ("src/service/suppressed_bad.cpp", "SA000"),   # SA001 unjustified
    ("src/service/dangling_allow.cpp", "SA000"),   # SA004 matches nothing
])

# Files that must exist and produce no unsuppressed finding at all: the
# path exemptions (rng.cpp, bitstream.cpp), comment/string stripping,
# justified suppressions and every rule's good fixture.
MUST_BE_CLEAN = [
    "src/common/rng.cpp",
    "src/common/bitstream.cpp",
    "src/model/comment_only.cpp",
    "src/model/suppressed_ok.cpp",
    "src/core/clean.cpp",
    "src/service/clean_thread.cpp",
    "src/server/clean_socket.cpp",
    "src/service/sa001_good.cpp",
    "src/core/sa002_good.cpp",
    "src/core/sa003_good.cpp",
    "src/service/sa004_good.cpp",
    "src/service/sa005_good.cpp",
    "src/service/sa006_good.cpp",
    "src/service/sa007_good.cpp",
    "src/service/suppressed_ok.cpp",
    "src/server/sa005_locked_good.cpp",
    "src/service/sa008_good.cpp",
    "src/server/sa009_good.cpp",
    "src/service/sa009_state_good.cpp",
]

# (file, rule) pairs that must appear as suppressed=true in --json, no
# more, no less: the justified marker hides the finding from the exit
# code but not from the machine-readable report.
EXPECTED_SUPPRESSED = sorted([
    ("src/core/bad_pushback.cpp", "TL006"),
    ("src/model/suppressed_ok.cpp", "TL003"),   # marker on the line above
    ("src/model/suppressed_ok.cpp", "TL003"),   # marker on the same line
    ("src/service/suppressed_ok.cpp", "SA001"),
])


def run_analyzer(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZE), "--root", str(FIXTURES),
         "--quiet", *extra],
        capture_output=True, text=True)


def multiset_diff(got: list, want: list) -> tuple[list, list]:
    """(missing, extra) between two lists compared as multisets."""
    missing = list(want)
    extra = []
    for item in got:
        if item in missing:
            missing.remove(item)
        else:
            extra.append(item)
    return missing, extra


def check_dot(failures: list[str]) -> None:
    """--dot emits a structurally valid Graphviz digraph of the fixture
    lock graph: no graphviz dependency, just the line grammar plus one
    known edge (the declared Vault contract, dashed) and one cycle."""
    with tempfile.TemporaryDirectory() as td:
        dot_path = pathlib.Path(td) / "lock.dot"
        dot_proc = run_analyzer("--dot", str(dot_path))
        if dot_proc.returncode not in (0, 1):
            failures.append(f"--dot run exit code {dot_proc.returncode}")
        dot = dot_path.read_text() if dot_path.is_file() else ""
    lines = [ln for ln in dot.splitlines() if ln.strip()]
    node_re = re.compile(r'^  "[^"]+";$')
    edge_re = re.compile(
        r'^  "[^"]+" -> "[^"]+" \[label="[^"]*"(?:, style=dashed)?\];$')
    if not lines or lines[0] != "digraph lock_order {" or lines[-1] != "}":
        failures.append("--dot output missing digraph wrapper")
    for ln in lines[1:-1]:
        if not (node_re.match(ln) or edge_re.match(ln)):
            failures.append(f"--dot line fails the grammar: {ln!r}")
            break
    if '"Vault::alpha_mu_" -> "Vault::beta_mu_"' not in dot:
        failures.append("--dot missing the Vault observed edge")
    if "style=dashed" not in dot:
        failures.append("--dot missing a declared (dashed) edge")
    if '"Pair::left_mu_" -> "Pair::right_mu_"' not in dot or \
            '"Pair::right_mu_" -> "Pair::left_mu_"' not in dot:
        failures.append("--dot missing the cross-TU cycle edges")


def main() -> int:
    proc = run_analyzer("--json")

    failures: list[str] = []
    if proc.returncode != 1:
        failures.append(
            f"expected exit code 1 (findings present), got "
            f"{proc.returncode}: {proc.stderr.strip()}")

    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"analyzer selftest: --json output is not JSON: {exc}",
              file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1

    for entry in report:
        for key in ("rule", "file", "line", "message", "suppressed"):
            if key not in entry:
                failures.append(f"--json entry missing '{key}': {entry}")
                break

    unsuppressed = sorted((e["file"], e["rule"]) for e in report
                          if not e.get("suppressed"))
    suppressed = sorted((e["file"], e["rule"]) for e in report
                        if e.get("suppressed"))

    # A clean-file check on a missing file passes without running.
    for path in MUST_BE_CLEAN:
        if not (FIXTURES / path).is_file():
            failures.append(f"clean fixture {path} does not exist")
        hits = [f for f in unsuppressed if f[0] == path]
        if hits:
            failures.append(f"false positive(s) in {path}: {hits}")

    missing, extra = multiset_diff(unsuppressed, EXPECTED)
    if missing:
        failures.append(f"expected findings never fired: {missing}")
    if extra:
        failures.append(f"unexpected findings: {extra}")

    missing, extra = multiset_diff(suppressed, EXPECTED_SUPPRESSED)
    if missing:
        failures.append(
            f"justified suppressions not reported in --json: {missing}")
    if extra:
        failures.append(f"unexpected suppressed findings: {extra}")

    # Suppressed findings must carry their written justification.
    for entry in report:
        if entry.get("suppressed") and not entry.get("justification"):
            failures.append(
                f"suppressed finding without justification text: {entry}")

    # The human-readable path agrees with --json on the verdict.
    plain = run_analyzer()
    if plain.returncode != 1:
        failures.append(
            f"plain run exit code {plain.returncode}, expected 1")
    for path in MUST_BE_CLEAN:
        if path in plain.stdout:
            failures.append(f"plain output mentions clean file {path}")

    # The rule table stays documented.
    rules_proc = subprocess.run(
        [sys.executable, str(ANALYZE), "--list-rules"],
        capture_output=True, text=True)
    for rule_id in RULE_IDS:
        if rule_id not in rules_proc.stdout:
            failures.append(f"--list-rules does not document {rule_id}")

    # --rules scoping: a subset run reports only that subset's findings
    # (and still exits 1 because the subset has unsuppressed hits). The
    # fixtures' markers for rules outside the subset are not judged, so
    # no SA000 may appear either.
    subset = run_analyzer("--json", "--rules", "SA008,SA009")
    try:
        subset_report = json.loads(subset.stdout)
    except json.JSONDecodeError:
        subset_report = None
        failures.append("--rules SA008,SA009 --json output is not JSON")
    if subset_report is not None:
        got = sorted((e["file"], e["rule"]) for e in subset_report
                     if not e.get("suppressed")
                     and e["rule"] in ("SA008", "SA009"))
        want = sorted(p for p in EXPECTED if p[1] in ("SA008", "SA009"))
        if got != want:
            failures.append(
                f"--rules SA008,SA009 findings mismatch: {got} != {want}")
        stray = [e for e in subset_report
                 if e["rule"] not in ("SA008", "SA009")]
        if stray:
            failures.append(
                f"--rules subset leaked other rules: {stray[:3]}")
        if subset.returncode != 1:
            failures.append(
                f"--rules subset exit code {subset.returncode}, expected 1")

    check_dot(failures)

    if failures:
        print("analyzer selftest: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("--- analyzer --json stdout ---", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        return 1

    print(f"analyzer selftest: OK ({len(EXPECTED)} expected findings, "
          f"{len(EXPECTED_SUPPRESSED)} suppressed, "
          f"{len(MUST_BE_CLEAN)} clean files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
