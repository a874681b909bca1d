"""TRNG analyzer: the repository's one static-analysis tool.

Two rule families run over one fact schema (tools/analyzer/facts.py):

  TL rules  lexical invariants over the comment/string-stripped text —
            banned tokens (nondeterministic RNGs, float, exact FP
            literal compares), missing [[nodiscard]], layering (test
            includes, thread and socket confinement), per-bit appends
            and untested word-parallel kernels.
  SA rules  scopes and dataflow — which lock guards are live at a call
            site, whether a condition_variable wait re-checks its
            predicate, whether a floating-point value can reach bit
            emission, whether a bit count is used where a word count
            belongs, plus the cross-TU lock-order and typestate rules.

One frontend (tools/analyzer/frontend_lite.py) builds the facts: a
tokenizer with brace/scope tracking that needs nothing beyond the
standard library. Rules live in tools/analyzer/rules.py; see
tools/analyzer/analyze.py for the CLI and tools/analyzer/selftest.py for
the fixture-driven self-test.
"""
