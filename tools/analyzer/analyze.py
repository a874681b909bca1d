#!/usr/bin/env python3
"""TRNG analyzer CLI.

Runs the lexical TL rules and the semantic SA rules
(tools/analyzer/rules.py) over every source file under <root>/src.

    python3 tools/analyzer/analyze.py                     # whole repo
    python3 tools/analyzer/analyze.py --json              # machine output
    python3 tools/analyzer/analyze.py --only src/sim      # scoped sweep
    python3 tools/analyzer/analyze.py --rules SA008,SA009 --dot lock.dot

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import sys

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from analyzer import facts, frontend_lite, rules
else:
    from . import facts, frontend_lite, rules


def collect_files(root: pathlib.Path,
                  only: list[str] | None = None) -> list[pathlib.Path]:
    """All analyzable sources under <root>/src, headers included (guard
    scopes and unit contracts live there).

    `only` restricts the *reported* set, not the parsed set — callers
    filter after parsing so cross-TU context (annotations in headers
    outside the prefix) stays complete. This helper just validates the
    prefixes exist so a typo'd --only fails loudly instead of silently
    analyzing nothing."""
    src = root / "src"
    if not src.is_dir():
        print(f"trng_analyzer: no src/ directory under {root}",
              file=sys.stderr)
        raise SystemExit(2)
    for prefix in only or []:
        if not (root / prefix).exists():
            print(f"trng_analyzer: --only prefix '{prefix}' does not "
                  f"exist under {root}", file=sys.stderr)
            raise SystemExit(2)
    return sorted(p for p in src.rglob("*")
                  if p.is_file() and p.suffix in facts.SOURCE_SUFFIXES)


def rel_matches(rel: pathlib.PurePosixPath, only: list[str]) -> bool:
    """True when `rel` sits under one of the --only prefixes."""
    rel_str = rel.as_posix()
    return any(rel_str == p or rel_str.startswith(p.rstrip("/") + "/")
               for p in only)


def print_summary(findings: list[rules.Finding], nfiles: int,
                  timings: dict[str, float] | None = None,
                  rule_ids: set[str] | None = None) -> None:
    by_rule: collections.Counter[str] = collections.Counter()
    suppressed: collections.Counter[str] = collections.Counter()
    for f in findings:
        (suppressed if f.suppressed else by_rule)[f.rule] += 1
    timings = timings or {}
    print(f"trng_analyzer: {nfiles} files", file=sys.stderr)
    print("  rule    findings  suppressed        ms", file=sys.stderr)
    for rule in rules.RULES:
        rid = rule.rule_id
        if rule_ids is not None and rid not in rule_ids:
            continue
        print(f"  {rid}  {by_rule.get(rid, 0):8d}  "
              f"{suppressed.get(rid, 0):10d}  "
              f"{timings.get(rid, 0.0) * 1000:8.1f}", file=sys.stderr)
    if by_rule.get("SA000") or suppressed.get("SA000"):
        print(f"  SA000  {by_rule.get('SA000', 0):8d}  "
              f"{suppressed.get('SA000', 0):10d}  {0.0:8.1f}",
              file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="TRNG analyzer (lexical TL and semantic SA rules)")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(
                            __file__).resolve().parent.parent.parent,
                        help="repository root; <root>/src is analyzed")
    parser.add_argument("--only", action="append", default=None,
                        metavar="PREFIX",
                        help="report findings only for files under this "
                             "repo-relative prefix (repeatable, e.g. "
                             "--only src/sim); every TU is still parsed "
                             "so cross-TU annotations keep working")
    parser.add_argument("--rules", default=None, metavar="IDS",
                        help="comma-separated rule subset to run, e.g. "
                             "--rules SA008,SA009 (complements --only's "
                             "path scoping; default: all rules)")
    parser.add_argument("--dot", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="write the repo-wide lock acquisition-order "
                             "graph (SA008's input) as Graphviz DOT; "
                             "declared lock-order edges are dashed")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout "
                             "(suppressed findings included, flagged)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-rule summary")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in rules.RULES:
            print(f"{rule.rule_id} {rule.name}: {rule.doc}")
        return 0

    rule_ids: set[str] | None = None
    if args.rules is not None:
        rule_ids = {r.strip() for r in args.rules.split(",") if r.strip()}
        known = {rule.rule_id for rule in rules.RULES}
        unknown = rule_ids - known
        if unknown:
            print(f"trng_analyzer: unknown rule id(s): "
                  f"{', '.join(sorted(unknown))}; known: "
                  f"{', '.join(sorted(known))}", file=sys.stderr)
            return 2

    root = args.root.resolve()
    files = collect_files(root, args.only)

    # Pass 1: parse every TU. Annotations (locking contracts, atomic
    # roles) live in headers but govern accesses in other TUs, so the
    # cross-TU context must exist before any rule runs — even under
    # --only, which filters reporting, not parsing.
    tus: list[facts.TUFacts] = []
    for path in files:
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        tus.append(frontend_lite.parse(path, rel))
    repo = rules.build_repo_context(tus)

    # Pass 2: rules per TU against the shared context, reported only
    # for TUs inside the --only scope (all of them by default).
    scoped = [tu for tu in tus
              if args.only is None or rel_matches(tu.rel, args.only)]
    findings: list[rules.Finding] = []
    timings: dict[str, float] = {}
    for tu in scoped:
        findings.extend(rules.check_tu(tu, repo, rule_ids=rule_ids,
                                       timings=timings))

    if args.dot is not None:
        args.dot.write_text(repo.model().to_dot(), encoding="utf-8")

    unsuppressed = [f for f in findings if not f.suppressed]
    if args.json:
        print(json.dumps([f.to_json(root) for f in findings], indent=2))
    else:
        for f in unsuppressed:
            print(f.render(root))
    if not args.quiet:
        print_summary(findings, len(scoped), timings, rule_ids)
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
