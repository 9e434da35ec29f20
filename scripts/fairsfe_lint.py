#!/usr/bin/env python3
"""fairsfe-lint — repo-specific determinism-contract linter.

Every guarantee this codebase makes (bit-identical utility estimates across
1/2/8 threads, golden-tested fault identity, byte-identical fairbench tables)
rests on a determinism contract. This linter makes the statically visible part
of that contract machine-checked:

  nondeterminism            Nondeterminism sources (std::random_device,
                            rand/srand, time(), clock(), system_clock,
                            high_resolution_clock) are banned everywhere.
                            All randomness must flow from a forked Rng stream;
                            wall time may only be read via steady_clock (used
                            for throughput reporting, never protocol-visible).
  pointer-keyed-order       Associative containers keyed by pointer iterate in
                            address order, which ASLR randomizes per process.
                            Banned everywhere.
  unordered-container       unordered_map/unordered_set declarations in the
                            message/transcript-producing layers (src/sim,
                            src/mpc, src/fair, src/adversary) need a
                            LINT-ALLOW with a proof that their iteration order
                            is never protocol-visible.
  unordered-iteration       Iterating an unordered container (range-for,
                            .begin()/.end()) in those same layers — hash-order
                            dependent output. The identifier table is built
                            from the file and its directly-included in-repo
                            headers.
  rng-fork-discipline       Rng streams must be derived via fork()/fork_at(),
                            never copied, re-seeded from a draw of another
                            stream, or seeded from an integer literal inside
                            src/ (seeding belongs at the estimator boundary).
  uninitialized-pod-member  In src/crypto, scalar POD class members without an
                            initializer — reading one is UB and, under
                            sanitizers, value-nondeterministic.
  bare-assert               assert()/<cassert> in src/ — invariants must go
                            through FAIRSFE_CHECK / FAIRSFE_DCHECK
                            (src/util/check.h) whose on/off status is
                            explicit, not whatever NDEBUG happens to be.
  direct-ot-access          Naming OtHub or encode_ot_send* outside src/mpc.
                            The OT hub is the substitution point of the
                            offline/online phase split (DESIGN.md §10):
                            callers must obtain the hybrid slot via
                            mpc::make_gmw_functionality(cfg) /
                            mpc::make_ot_functionality() so PreprocMode stays
                            a config switch. tests/ are exempt (they unit-test
                            the hub itself).
  lane-word-shares          Raw lane-word arithmetic (LaneWord,
                            transpose64x64, transpose_to/from_words) outside
                            src/util, src/circuit and src/mpc. The bit-sliced
                            representation (DESIGN.md §11) keeps its
                            masked-lane and rng-draw-order contracts inside
                            that boundary; estimator/scenario/bench code must
                            consume the typed SlicedBatchFn / SlicedGmwRunner
                            surface instead of slicing shares by hand. tests/
                            are exempt (they unit-test the transpose).
  gamma-literal             Raw PayoffVector{...} brace-literals outside
                            src/rpd. A γ vector spelled inline re-encodes a
                            payoff by hand, so the same logical vector can
                            silently drift between the TUs that share it;
                            call a named preset from rpd::payoff
                            (src/rpd/payoff.h) instead. tests/ are exempt
                            (they pin the presets' numeric values).
  raw-socket-access         POSIX socket API (<sys/socket.h>-family includes,
                            socket/bind/listen/accept/connect calls) outside
                            src/net. The process's entire network surface must
                            stay auditable from src/net/socket.cpp (its header
                            comment enumerates every raw call site); everything
                            above it — daemon, benches, tests — talks
                            net::Stream / net::*Listener / net::*_connect.

Escape hatch: a finding is suppressed by `// LINT-ALLOW(rule): reason` on the
same line or on a comment line directly above it. The reason is mandatory
(`allow-missing-reason` otherwise) and an allow that suppresses nothing is
itself a finding (`unused-allow`), so stale annotations can't accumulate.
Allows naming a rule owned by fairsfe-analyze (scripts/fairsfe_analyze/) are
the analyzer's to track and are ignored here.

Output: --format text|json|sarif (SARIF/JSON share one schema with
fairsfe-analyze); findings carry line and column. --changed-only restricts
the lint set to files changed vs. the merge-base with the default branch.

The linter is compile_commands-aware: given --compile-commands (exported by
`cmake --preset lint`), the lint set is the listed translation units plus all
headers under the scan roots, so generated/excluded TUs never drift into or
out of the lint set silently. Without it, the scan roots are walked directly.

Matching runs on comment- and string-stripped text, so prose never trips a
rule. Heuristic and line-based by design: wrong in the rare multi-line
declaration, cheap enough to gate every CI run (see scripts/lint.sh).

Self-test: --self-test lints scripts/lint_fixtures/ (each fixture line
carrying `// EXPECT(rule)` must be flagged with exactly that rule; every
unmarked line must be clean; fixture paths are interpreted relative to src/
so scoped rules apply). Wired as a tier1 ctest.
"""

import argparse
import json
import os
import re
import sys

# The deeper cross-TU analyzer (scripts/fairsfe_analyze/) shares this repo's
# LINT-ALLOW grammar and the SARIF/JSON emitters; import its flat modules the
# same way its own driver does.
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fairsfe_analyze"))
import analyses as _analyses  # noqa: E402
import sarif as _sarif  # noqa: E402
from driver import changed_files  # noqa: E402

# Rules owned by fairsfe-analyze. A LINT-ALLOW naming one of these is the
# analyzer's business: it tracks usage itself, so the linter must neither
# suppress with it nor flag it as unknown/unused.
ANALYZER_RULE_NAMES = frozenset(_analyses.RULE_NAMES)

LINT_VERSION = "2.0.0"  # 2.0: column numbers, --format, --changed-only
CPP_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
SCAN_ROOTS = ("src", "bench", "examples", "tests")
PROTOCOL_DIRS = ("src/sim", "src/mpc", "src/fair", "src/adversary")

ALLOW_RE = re.compile(r"LINT-ALLOW\((?P<rule>[a-z-]+)\)(?::\s*(?P<reason>.*?))?\s*(?:\*/)?\s*$")
EXPECT_RE = re.compile(r"EXPECT\((?P<rule>[a-z-]+)\)")
UNORDERED_DECL_ID_RE = re.compile(r"unordered_(?:map|set)<[^;]*>\s+(\w+)\s*[;{=]")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Keeps the matched rules honest: a banned token in prose or a log string is
    not a finding. Raw string literals are not handled (none in this repo).
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def class_body_lines(stripped):
    """Line numbers (1-based) whose start is directly inside a class/struct body.

    Tracks a brace stack; a `{` opened by a class/struct head pushes a class
    context, any other `{` (function body, initializer, lambda) pushes a
    plain block, so locals and nested function bodies are excluded.
    """
    lines = set()
    stack = []  # True = class body, False = other block
    pending_class = False
    for lineno, line in enumerate(stripped.split("\n"), start=1):
        if stack and stack[-1]:
            lines.add(lineno)
        for m in re.finditer(r"\b(class|struct|union|enum)\b|[{};)]", line):
            tok = m.group(0)
            if tok in ("class", "struct", "union"):
                pending_class = True
            elif tok == "enum":
                pending_class = False  # enum bodies hold enumerators, not members
            elif tok == ")":
                # A `{` right after a parameter list is a function body, even
                # when `class` appeared earlier on the line (template heads).
                pending_class = False
            elif tok == "{":
                stack.append(pending_class)
                pending_class = False
            elif tok == "}":
                if stack:
                    stack.pop()
            elif tok == ";":
                pending_class = False  # forward declaration
    return lines


class Rule:
    def __init__(self, name, dirs, message):
        self.name = name
        self.dirs = dirs  # path prefixes (relative, '/'-separated); None = everywhere
        self.message = message

    def in_scope(self, relpath):
        if self.dirs is None:
            return True
        return any(relpath == d or relpath.startswith(d + "/") for d in self.dirs)

    def check(self, ctx):
        raise NotImplementedError


class RegexRule(Rule):
    def __init__(self, name, dirs, message, patterns, skip_preprocessor=False):
        super().__init__(name, dirs, message)
        self.patterns = [re.compile(p) for p in patterns]
        self.skip_preprocessor = skip_preprocessor

    def check(self, ctx):
        for lineno, line in enumerate(ctx.stripped_lines, start=1):
            if self.skip_preprocessor and line.lstrip().startswith("#"):
                continue
            for pat in self.patterns:
                m = pat.search(line)
                if m:
                    yield (lineno, m.start() + 1,
                           f"{self.message} (matched `{m.group(0).strip()}`)")
                    break


class DirectOtAccessRule(RegexRule):
    """Everywhere EXCEPT src/mpc (the hub's own layer) and tests/ (which
    unit-test the hub). An exclusion list, so the rule follows new scan roots
    automatically."""

    EXEMPT = ("src/mpc", "tests")

    def __init__(self):
        super().__init__(
            "direct-ot-access", None,
            "direct OT-hybrid access outside src/mpc: obtain the slot via "
            "mpc::make_gmw_functionality()/make_ot_functionality() so the "
            "offline/online PreprocMode substitution stays a config switch",
            [r"\bOtHub\b", r"\bencode_ot_send\w*\s*\("])

    def in_scope(self, relpath):
        return not any(relpath == d or relpath.startswith(d + "/")
                       for d in self.EXEMPT)


class LaneWordSharesRule(RegexRule):
    """Everywhere EXCEPT the layers that own the bit-sliced representation —
    src/util (the transpose boundary), src/circuit (the sliced reference
    evaluator), src/mpc (the sliced GMW runner) — and tests/. Hand-rolled
    lane-word share arithmetic elsewhere would bypass the masked-lane and
    rng-draw-order contracts that keep sliced and scalar runs bit-identical
    (DESIGN.md §11); such code must go through the SlicedBatchFn /
    SlicedGmwRunner surface. An exclusion list, like direct-ot-access, so the
    rule follows new scan roots automatically."""

    EXEMPT = ("src/util", "src/circuit", "src/mpc", "tests")

    def __init__(self):
        super().__init__(
            "lane-word-shares", None,
            "raw lane-word share arithmetic outside src/util|circuit|mpc: use "
            "the SlicedBatchFn / SlicedGmwRunner surface (mpc/gmw_sliced.h) so "
            "lane masking and draw order stay inside the audited boundary",
            [r"\bLaneWord\b", r"\btranspose64x64\b",
             r"\btranspose_(?:to|from)_words\b"])

    def in_scope(self, relpath):
        return not any(relpath == d or relpath.startswith(d + "/")
                       for d in self.EXEMPT)


class GammaLiteralRule(RegexRule):
    """Everywhere EXCEPT src/rpd (the payoff presets' own definition layer)
    and tests/ (which pin the presets' numeric values). A raw
    PayoffVector{...} brace-literal anywhere else re-encodes a γ vector by
    hand, so the same logical vector can silently drift between the TUs that
    share it; experiment/bench code must call a named rpd::payoff preset
    (src/rpd/payoff.h). An exclusion list, like direct-ot-access, so the rule
    follows new scan roots automatically."""

    EXEMPT = ("src/rpd", "tests")

    def __init__(self):
        super().__init__(
            "gamma-literal", None,
            "raw PayoffVector brace-literal outside src/rpd: use a named "
            "rpd::payoff preset (src/rpd/payoff.h) so each gamma's value is "
            "defined exactly once",
            # A PayoffVector brace-init with contents, directly
            # (`PayoffVector{0.25, ...}`) or through a named declaration
            # (`PayoffVector g{g11 / 2, ...}`). Empty braces (value-init) and
            # the default constructor carry no literal and stay legal.
            [r"\bPayoffVector\s*(?:\w+\s*)?\{[^}]"])

    def in_scope(self, relpath):
        return not any(relpath == d or relpath.startswith(d + "/")
                       for d in self.EXEMPT)


class RawSocketAccessRule(RegexRule):
    """Everywhere EXCEPT src/net — the one directory allowed to touch the
    POSIX socket API. Auditing the process's network surface must mean
    auditing src/net/socket.cpp (its header comment enumerates every raw call
    site); a stray socket()/bind()/connect()/accept()/listen() or a
    <sys/socket.h>-family include elsewhere silently widens that surface.
    Everything above src/net speaks net::Stream / net::*Listener /
    net::*_connect. An exclusion list, like direct-ot-access, so the rule
    follows new scan roots automatically."""

    EXEMPT = ("src/net",)

    def __init__(self):
        super().__init__(
            "raw-socket-access", None,
            "raw socket API outside src/net: use net::Stream / "
            "net::TcpListener / net::UnixListener / net::*_connect "
            "(src/net/socket.h) so the process's network surface stays "
            "auditable in one place",
            [
                r"#\s*include\s*<sys/socket\.h>",
                r"#\s*include\s*<sys/un\.h>",
                r"#\s*include\s*<netinet/[\w.]+>",
                r"#\s*include\s*<arpa/inet\.h>",
                r"#\s*include\s*<netdb\.h>",
                # The call sites. The lookbehind excludes word chars (so
                # tcp_connect/unix_connect wrappers don't match), member
                # access `.`/`->` (listener methods), and a preceding `:`
                # (so `net::...`/`std::bind` qualified names only match when
                # the `::`-prefixed alternative matches from a clean
                # position).
                r"(?<![\w.>:])(?:::\s*)?(?:socket|bind|listen|accept|connect)\s*\(",
            ])

    def in_scope(self, relpath):
        return not any(relpath == d or relpath.startswith(d + "/")
                       for d in self.EXEMPT)


class BareAssertRule(RegexRule):
    def __init__(self):
        super().__init__(
            "bare-assert", ("src",),
            "use FAIRSFE_CHECK/FAIRSFE_DCHECK from util/check.h, not assert()",
            [r"\bassert\s*\(", r"#\s*include\s*<cassert>"])

    def check(self, ctx):
        if ctx.relpath == "src/util/check.h":
            return  # the invariant layer itself
        yield from super().check(ctx)


class UnorderedIterationRule(Rule):
    """Iteration over identifiers declared with an unordered container type."""

    def __init__(self):
        super().__init__(
            "unordered-iteration", PROTOCOL_DIRS,
            "iteration order of an unordered container is hash/seed-dependent "
            "and must never reach messages or transcripts")

    def check(self, ctx):
        idents = set(UNORDERED_DECL_ID_RE.findall(ctx.stripped))
        for header in ctx.included_headers:
            idents.update(UNORDERED_DECL_ID_RE.findall(header))
        if not idents:
            return
        alt = "|".join(re.escape(i) for i in sorted(idents))
        pats = [
            re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(" + alt + r")\b"),
            re.compile(r"\b(" + alt + r")\s*\.\s*(?:c?begin|c?end)\s*\("),
        ]
        for lineno, line in enumerate(ctx.stripped_lines, start=1):
            for pat in pats:
                m = pat.search(line)
                if m:
                    yield (lineno, m.start(1) + 1,
                           f"{self.message} (iterates `{m.group(1)}`)")
                    break


class UninitializedPodMemberRule(Rule):
    MEMBER_RE = re.compile(
        r"^\s*(?:mutable\s+)?"
        r"(?:std::)?(?:u?int(?:8|16|32|64|ptr)?_t|size_t|ptrdiff_t|bool|char|short"
        r"|int|long(?:\s+long)?|unsigned(?:\s+(?:char|short|int|long))?|float|double"
        r"|std::array<[^;={]*>)"
        r"\s+\w+(?:\s*\[[^\]]*\])?\s*;\s*$")
    SKIP_RE = re.compile(r"\b(?:static|constexpr|using|typedef|friend|operator)\b")

    def __init__(self):
        super().__init__(
            "uninitialized-pod-member", ("src/crypto",),
            "scalar member without initializer: reading it is UB and "
            "value-nondeterministic — default-initialize it")

    def check(self, ctx):
        member_lines = class_body_lines(ctx.stripped)
        for lineno, line in enumerate(ctx.stripped_lines, start=1):
            if lineno not in member_lines:
                continue
            if self.SKIP_RE.search(line):
                continue
            if self.MEMBER_RE.match(line):
                yield lineno, len(line) - len(line.lstrip()) + 1, self.message


RULES = [
    RegexRule(
        "nondeterminism", None,
        "nondeterminism source — all randomness must come from a forked Rng "
        "stream and wall time only from steady_clock",
        [
            r"\brandom_device\b",
            r"\bsrand\b",
            r"(?<![\w.>])rand\s*\(",
            r"(?<![\w.>])time\s*\(",
            r"(?<![\w.>])clock\s*\(",
            r"\bsystem_clock\b",
            r"\bhigh_resolution_clock\b",
        ]),
    RegexRule(
        "pointer-keyed-order", None,
        "associative container keyed by pointer iterates in address order, "
        "which ASLR randomizes per process",
        [r"\b(?:unordered_)?(?:multi)?(?:map|set)<\s*(?:const\s+)?[\w:]+(?:<[^<>]*>)?\s*\*"]),
    RegexRule(
        "unordered-container", PROTOCOL_DIRS,
        "unordered container in a message-producing layer: prove its iteration "
        "order is never protocol-visible in a LINT-ALLOW, or use an "
        "ordered/indexed structure",
        [r"\bunordered_(?:map|set)\s*<"],
        skip_preprocessor=True),
    UnorderedIterationRule(),
    RegexRule(
        "rng-fork-discipline", ("src",),
        "derive Rng streams with fork()/fork_at(); never copy a stream, "
        "re-seed from another stream's draw, or hard-code a seed in src/",
        [
            r"\bRng\s+\w+\s*=\s*\w+\s*;",                  # Rng a = rng;  (copy)
            r"\bRng(?:\s+\w+)?\s*[({][^;]*\.\s*u64\s*\(\)",  # Rng(rng.u64())
            r"\bRng(?:\s+\w+)?\s*[({]\s*\d",                 # Rng(42)  (literal seed)
        ]),
    UninitializedPodMemberRule(),
    BareAssertRule(),
    DirectOtAccessRule(),
    LaneWordSharesRule(),
    GammaLiteralRule(),
    RawSocketAccessRule(),
]

RULE_NAMES = {r.name for r in RULES} | {"unused-allow", "allow-missing-reason"}


class FileContext:
    def __init__(self, relpath, text, included_headers):
        self.relpath = relpath
        self.raw_lines = text.split("\n")
        self.stripped = strip_comments_and_strings(text)
        self.stripped_lines = self.stripped.split("\n")
        self.included_headers = included_headers  # stripped texts


def parse_allows(raw_lines):
    """Map target line -> list of [rule, reason, allow_lineno, allow_col,
    used-flag].

    A trailing allow targets its own line; an allow on a comment-only line
    targets the next line. Allows naming an analyzer-owned rule are skipped
    entirely — fairsfe-analyze tracks their usage itself.
    """
    allows = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        if m.group("rule") in ANALYZER_RULE_NAMES:
            continue
        comment_pos = line.find("//")
        block_pos = line.find("/*")
        pos = min(p for p in (comment_pos, block_pos) if p >= 0) if max(
            comment_pos, block_pos) >= 0 else -1
        own_line = pos >= 0 and not line[:pos].strip()
        target = lineno + 1 if own_line else lineno
        allows.setdefault(target, []).append(
            [m.group("rule"), (m.group("reason") or "").strip(), lineno,
             m.start() + 1, False])
    return allows


def load_included_headers(path, root):
    """Stripped text of in-repo headers directly included by `path`."""
    texts = []
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError:
        return texts
    for m in INCLUDE_RE.finditer(text):
        inc = m.group(1)
        for cand in (os.path.join(root, "src", inc),
                     os.path.join(os.path.dirname(path), inc)):
            if os.path.isfile(cand):
                try:
                    with open(cand, encoding="utf-8", errors="replace") as f:
                        texts.append(strip_comments_and_strings(f.read()))
                except OSError:
                    pass
                break
    return texts


def lint_file(path, relpath, root, pretend_relpath=None):
    """Lint one file; returns a list of (lineno, col, rule, message) findings."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(0, 0, "io-error", str(e))]
    effective = pretend_relpath if pretend_relpath is not None else relpath
    ctx = FileContext(effective, text, load_included_headers(path, root))
    allows = parse_allows(ctx.raw_lines)

    findings = []
    for rule in RULES:
        if not rule.in_scope(effective):
            continue
        for lineno, col, message in rule.check(ctx):
            line_allows = allows.get(lineno, [])
            suppressed = False
            for entry in line_allows:
                if entry[0] == rule.name and entry[1]:
                    entry[4] = True
                    suppressed = True
            if not suppressed:
                findings.append((lineno, col, rule.name, message))

    for target, entries in sorted(allows.items()):
        for rule_name, reason, allow_lineno, allow_col, used in entries:
            if rule_name not in RULE_NAMES:
                findings.append((allow_lineno, allow_col, "unused-allow",
                                 f"LINT-ALLOW names unknown rule `{rule_name}`"))
            elif not reason:
                findings.append((allow_lineno, allow_col, "allow-missing-reason",
                                 f"LINT-ALLOW({rule_name}) must carry a reason "
                                 "after the colon"))
            elif not used:
                findings.append((allow_lineno, allow_col, "unused-allow",
                                 f"LINT-ALLOW({rule_name}) suppresses nothing on "
                                 f"line {target} — remove it"))
    findings.sort()
    return findings


def collect_files(root, compile_commands):
    """The lint set: TUs from compile_commands (if given) + walked sources."""
    files = set()
    if compile_commands:
        try:
            with open(compile_commands, encoding="utf-8") as f:
                for entry in json.load(f):
                    p = os.path.normpath(
                        os.path.join(entry.get("directory", root), entry["file"]))
                    if p.endswith(CPP_EXTENSIONS) and os.path.isfile(p):
                        rel = os.path.relpath(p, root)
                        if not rel.startswith(".."):
                            files.add(rel)
        except (OSError, ValueError, KeyError) as e:
            print(f"fairsfe-lint: warning: cannot read {compile_commands}: {e}; "
                  "falling back to a directory walk", file=sys.stderr)
    for scan_root in SCAN_ROOTS:
        base = os.path.join(root, scan_root)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if compile_commands and not name.endswith(".h"):
                    continue  # TU set comes from compile_commands
                if name.endswith(CPP_EXTENSIONS):
                    files.add(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def rules_meta():
    """(name, description, scope) triples for the SARIF rules table."""
    meta = []
    for rule in RULES:
        if rule.dirs is not None:
            scope = ", ".join(rule.dirs)
        elif getattr(rule, "EXEMPT", None):
            scope = "everywhere except " + ", ".join(rule.EXEMPT)
        else:
            scope = "everywhere"
        meta.append((rule.name, rule.message, scope))
    meta.append(("unused-allow", "LINT-ALLOW that suppresses nothing",
                 "everywhere"))
    meta.append(("allow-missing-reason", "LINT-ALLOW without a reason",
                 "everywhere"))
    return meta


def run_lint(root, compile_commands, explicit_files, fmt="text",
             changed_only=False):
    if changed_only:
        scoped = tuple(r + "/" for r in SCAN_ROOTS)
        rels = [f for f in changed_files(root)
                if f.startswith(scoped) and f.endswith(CPP_EXTENSIONS)]
        rels = sorted(set(rels) | {
            os.path.relpath(os.path.abspath(f), root) for f in explicit_files})
    elif explicit_files:
        rels = [os.path.relpath(os.path.abspath(f), root) for f in explicit_files]
    else:
        rels = collect_files(root, compile_commands)
    all_findings = []
    for rel in rels:
        rel_posix = rel.replace(os.sep, "/")
        for lineno, col, rule, message in lint_file(
                os.path.join(root, rel), rel_posix, root):
            all_findings.append({"rule": rule, "path": rel_posix,
                                 "line": lineno, "col": col,
                                 "message": message})
    out = _sarif.render(all_findings, fmt, "fairsfe-lint", LINT_VERSION,
                        rules_meta())
    if out:
        print(out)
    if fmt == "text":
        if all_findings:
            print(f"fairsfe-lint: {len(all_findings)} finding(s) in "
                  f"{len(rels)} file(s)")
        else:
            print(f"fairsfe-lint: clean ({len(rels)} files)")
    return 1 if all_findings else 0


def run_self_test(root):
    """Lint the fixture corpus; findings must equal the EXPECT(...) markers."""
    fixture_dir = os.path.join(root, "scripts", "lint_fixtures")
    failures = 0
    checked = 0
    for dirpath, dirnames, filenames in os.walk(fixture_dir):
        if dirpath == fixture_dir and "analyze" in dirnames:
            dirnames.remove("analyze")  # fairsfe-analyze's corpus, not ours
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(CPP_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, fixture_dir).replace(os.sep, "/")
            # Fixtures pretend to live under src/ so dir-scoped rules apply
            # (e.g. lint_fixtures/crypto/x.cc lints as src/crypto/x.cc).
            pretend = "src/" + rel
            expected = set()
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    for m in EXPECT_RE.finditer(line):
                        expected.add((lineno, m.group("rule")))
            got = {(lineno, rule)
                   for lineno, _col, rule, _ in lint_file(path, rel, root, pretend)}
            checked += 1
            for lineno, rule in sorted(expected - got):
                print(f"SELF-TEST FAIL {rel}:{lineno}: expected [{rule}], not flagged")
                failures += 1
            for lineno, rule in sorted(got - expected):
                print(f"SELF-TEST FAIL {rel}:{lineno}: unexpected [{rule}]")
                failures += 1
    if checked == 0:
        print(f"SELF-TEST FAIL: no fixtures found under {fixture_dir}")
        return 1
    if failures:
        print(f"fairsfe-lint self-test: {failures} failure(s) over {checked} fixtures")
        return 1
    print(f"fairsfe-lint self-test: OK ({checked} fixtures)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        epilog="examples:\n"
               "  python3 scripts/fairsfe_lint.py "
               "--compile-commands build-lint/compile_commands.json\n"
               "  python3 scripts/fairsfe_lint.py --changed-only\n"
               "  python3 scripts/fairsfe_lint.py --format sarif src/mpc/gmw.cpp\n")
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script's dir)")
    ap.add_argument("--compile-commands", default=None, metavar="JSON",
                    help="compile_commands.json to take the TU set from")
    ap.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text", help="output format (default: text)")
    ap.add_argument("--changed-only", action="store_true",
                    help="lint only files changed vs. the merge-base with the "
                         "default branch (plus any explicitly listed files)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus under scripts/lint_fixtures/ "
                         "(the analyze/ subtree belongs to fairsfe-analyze)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*", help="lint only these files")
    args = ap.parse_args()

    root = os.path.abspath(args.root or
                           os.path.join(os.path.dirname(__file__), os.pardir))
    if args.list_rules:
        for name, message, scope in rules_meta():
            print(f"{name:26} [{scope}] {message}")
        return 0
    if args.self_test:
        return run_self_test(root)
    return run_lint(root, args.compile_commands, args.files,
                    fmt=args.format, changed_only=args.changed_only)


if __name__ == "__main__":
    sys.exit(main())
