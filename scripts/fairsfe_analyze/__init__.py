"""fairsfe-analyze — static analysis for the fairsfe determinism contract.

One tool, one pipeline over a real C++ token stream:

  1. tokenizer.py   a genuine C++ tokenizer (raw strings, digit separators,
                    nested templates, comments) producing (kind, text, line,
                    col) tokens;
  2. tu.py          a per-translation-unit structural pass over the token
                    stream: function/scope tracking, statement-level flow
                    facts, Rng fork/draw events, message-kind call sites,
                    taint-source annotations;
  3. rules.py       the per-TU token rules (nondeterminism sources, pointer-
                    and hash-ordered containers, Rng fork discipline, layer
                    boundaries), whose findings ride in the TU's facts;
  4. analyses.py    the global analyses over the merged per-TU facts:
                    Rng stream lineage, secret-flow taint, message-schema
                    conformance, and unordered iteration across includes;
  5. driver.py      compile_commands-aware TU collection, a content-hash
                    result cache, parallel extraction, LINT-ALLOW /
                    DECLASSIFY handling, and text/JSON/SARIF output.

The contracts enforced are the ones every number this reproduction reports
rests on: no ambient randomness or address/hash-order iteration in protocol
code, pairwise-independent forked Rng streams, secrets never reaching
transcripts/logs/check messages unmasked, and sender/receiver agreement on
message kinds (DESIGN.md §9).
"""

ANALYZER_NAME = "fairsfe-analyze"
# Bump whenever extraction or analysis semantics change: the version is part
# of the per-TU cache key, so stale facts can never survive an upgrade.
ANALYZER_VERSION = "2.0.0"
