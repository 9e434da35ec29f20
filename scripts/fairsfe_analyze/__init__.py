"""fairsfe-analyze — cross-TU dataflow static analysis for the fairsfe tree.

Where fairsfe-lint (scripts/fairsfe_lint.py) matches single lines against
regexes, this package runs a real (if lightweight) analysis pipeline:

  1. tokenizer.py   a genuine C++ tokenizer (raw strings, digit separators,
                    nested templates, comments) producing (kind, text, line,
                    col) tokens;
  2. tu.py          a per-translation-unit structural pass over the token
                    stream: function/scope tracking, statement-level flow
                    facts, Rng fork/draw events, message-kind call sites,
                    taint-source annotations;
  3. analyses.py    three global analyses over the merged per-TU facts:
                    Rng stream lineage, secret-flow taint, and message-schema
                    conformance;
  4. driver.py      compile_commands-aware TU collection, a content-hash
                    result cache, parallel extraction, LINT-ALLOW /
                    DECLASSIFY handling, and text/JSON/SARIF output.

The contracts enforced are the ones every number this reproduction reports
rests on: pairwise-independent forked Rng streams, secrets never reaching
transcripts/logs/check messages unmasked, and sender/receiver agreement on
message kinds (DESIGN.md §14).
"""

ANALYZER_NAME = "fairsfe-analyze"
# Bump whenever extraction or analysis semantics change: the version is part
# of the per-TU cache key, so stale facts can never survive an upgrade.
ANALYZER_VERSION = "1.1.0"
