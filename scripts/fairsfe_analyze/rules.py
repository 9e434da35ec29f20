"""Per-TU token rules: the local half of the determinism contract (DESIGN.md §9).

Each rule reads one TU's token stream (tokenizer.py), so a banned name split
across lines, a raw string holding a quote, or a word inside a comment or a
literal is seen exactly as the compiler sees it. Rules are scoped by the TU's
repo-relative path, which is part of the facts cache key, so the findings are
stored in the TU's facts and served from the cache like every other fact.

`unordered-iteration` is the one rule that needs another file: its
identifiers come from this TU and the in-repo headers it includes directly.
Extraction records the TU's unordered declarations, its quoted includes and
its iteration sites; analyses.analyze_unordered_iteration joins them.

Code rules also read the bodies of `#define` directives (a macro can smuggle
`rand()` in as well as a function can), except `unordered-container`, whose
scope is declarations.
"""

import re
from collections import namedtuple

from tokenizer import tokenize

PROTOCOL_DIRS = ("src/sim", "src/mpc", "src/fair", "src/adversary")


def under(path, dirs):
    """Is `path` inside one of `dirs` (repo-relative, '/'-separated)?"""
    return any(path == d or path.startswith(d + "/") for d in dirs)


class Rule(namedtuple("Rule", ["name", "dirs", "exempt", "message"])):
    """dirs: path prefixes the rule covers (None = everywhere); exempt:
    prefixes it never covers, so everywhere-but rules follow new scan roots."""

    def in_scope(self, path):
        return ((self.dirs is None or under(path, self.dirs))
                and not under(path, self.exempt))

    @property
    def scope(self):
        if self.dirs is not None:
            return ", ".join(self.dirs)
        if self.exempt:
            return "everywhere except " + ", ".join(self.exempt)
        return "everywhere"


RULES = [
    Rule("nondeterminism", None, (),
         "nondeterminism source — all randomness must come from a forked Rng "
         "stream and wall time only from steady_clock"),
    Rule("pointer-keyed-order", None, (),
         "associative container keyed by pointer iterates in address order, "
         "which ASLR randomizes per process"),
    Rule("unordered-container", PROTOCOL_DIRS, (),
         "unordered container in a message-producing layer: prove its "
         "iteration order is never protocol-visible in a LINT-ALLOW, or use "
         "an ordered/indexed structure"),
    Rule("unordered-iteration", PROTOCOL_DIRS, (),
         "iteration order of an unordered container is hash/seed-dependent "
         "and must never reach messages or transcripts"),
    Rule("rng-fork-discipline", ("src",), (),
         "derive Rng streams with fork()/fork_at(); never copy a stream, "
         "re-seed from another stream's draw, or hard-code a seed in src/"),
    Rule("uninitialized-pod-member", ("src/crypto",), (),
         "scalar member without initializer: reading it is UB and "
         "value-nondeterministic — default-initialize it"),
    Rule("bare-assert", ("src",), ("src/util/check.h",),
         "use FAIRSFE_CHECK/FAIRSFE_DCHECK from util/check.h, not assert()"),
    Rule("direct-ot-access", None, ("src/mpc", "tests"),
         "direct OT-hybrid access outside src/mpc: obtain the slot via "
         "mpc::make_gmw_functionality()/make_ot_functionality(), the only "
         "places that decide which OT hub, if any, a run gets"),
    Rule("lane-word-shares", None, ("src/util", "src/circuit", "src/mpc",
                                    "tests"),
         "raw lane-word share arithmetic outside src/util|circuit|mpc: use "
         "the SlicedBatchFn / SlicedGmwRunner surface (mpc/gmw_sliced.h) so "
         "lane masking and draw order stay inside the audited boundary"),
    Rule("gamma-literal", None, ("src/rpd", "tests"),
         "raw PayoffVector brace-literal outside src/rpd: use a named "
         "rpd::payoff preset (src/rpd/payoff.h) so each gamma's value is "
         "defined exactly once"),
    Rule("raw-socket-access", None, ("src/net",),
         "raw socket API outside src/net: use net::Stream / "
         "net::Listener / net::*_connect "
         "(src/net/socket.h) so the process's network surface stays "
         "auditable in one place"),
]
MESSAGES = {r.name: r.message for r in RULES}

INCLUDE_RE = re.compile(r'#\s*include\s*(?:<([^>]+)>|"([^"]+)")')
DEFINE_RE = re.compile(r"#\s*define\b")
SOCKET_HEADERS = {"sys/socket.h", "sys/un.h", "arpa/inet.h", "netdb.h"}
ASSERT_HEADERS = {"cassert", "assert.h"}

UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset"}
ASSOCIATIVE = UNORDERED | {"map", "set", "multimap", "multiset"}
ITER_METHODS = {"begin", "end", "cbegin", "cend"}
SOCKET_CALLS = {"socket", "bind", "listen", "accept", "connect"}
LANE_WORD_NAMES = {"LaneWord", "transpose64x64", "transpose_to_words",
                   "transpose_from_words"}
# Keywords that may sit right before a global-scope `::name(` call.
STATEMENT_KEYWORDS = {"return", "co_return", "throw", "case", "else", "do",
                      "new", "delete", "co_await", "co_yield"}
SCALAR_WORDS = {"bool", "char", "char8_t", "char16_t", "char32_t", "wchar_t",
                "short", "int", "long", "signed", "unsigned", "float",
                "double"}
SCALAR_TYPEDEF_RE = re.compile(r"^(?:u?int(?:8|16|32|64|ptr)?_t|size_t|ptrdiff_t)$")
MEMBER_SKIP = {"static", "constexpr", "using", "typedef", "friend", "operator"}
ACCESS_LABELS = {"public", "private", "protected"}


def _is(tok, text):
    return tok is not None and tok.kind == "punct" and tok.text == text


def _at(toks, i):
    return toks[i] if 0 <= i < len(toks) else None


def _close_angle(toks, i):
    """Index of the `>` (or `>>`) closing the `<` at toks[i]; -1 when a
    statement or block boundary comes first."""
    depth = 0
    for k in range(i, len(toks)):
        t = toks[k]
        if t.kind != "punct":
            continue
        if t.text == "<":
            depth += 1
        elif t.text in (">", ">>"):
            depth -= len(t.text)
            if depth <= 0:
                return k
        elif t.text in (";", "{", "}"):
            return -1
    return -1


# -- predicates: toks[i] is the ident the rule is keyed on -------------------

def _always(toks, i):
    return True


def _free_call(toks, i):
    """`name(` not reached through `.`/`->` (std::name( and ::name( count)."""
    prev = _at(toks, i - 1)
    return _is(_at(toks, i + 1), "(") and not (_is(prev, ".") or _is(prev, "->"))


def _call(toks, i):
    return _is(_at(toks, i + 1), "(")


def _raw_socket_call(toks, i):
    """A free or global-scope socket call; `net::x::bind(`, `std::bind(` and
    member calls are other APIs."""
    if not _free_call(toks, i):
        return False
    prev = _at(toks, i - 1)
    if not _is(prev, "::"):
        return True
    qual = _at(toks, i - 2)
    if qual is None:
        return True
    if qual.kind == "ident":
        return qual.text in STATEMENT_KEYWORDS
    return qual.kind == "punct" and qual.text not in (">", ")", "::")


def _pointer_key(toks, i):
    """`map<[const] Name[<...>] [const] *`: the key type is a pointer."""
    if not _is(_at(toks, i + 1), "<"):
        return False
    j = i + 2
    t = _at(toks, j)
    if t is not None and t.kind == "ident" and t.text == "const":
        j += 1
    if _is(_at(toks, j), "::"):
        j += 1
    t = _at(toks, j)
    if t is None or t.kind != "ident":
        return False
    j += 1
    while _is(_at(toks, j), "::") and _at(toks, j + 1) is not None and \
            toks[j + 1].kind == "ident":
        j += 2
    if _is(_at(toks, j), "<"):
        close = _close_angle(toks, j)
        if close == -1 or toks[close].text != ">":
            return False
        j = close + 1
    t = _at(toks, j)
    if t is not None and t.kind == "ident" and t.text == "const":
        j += 1
    return _is(_at(toks, j), "*")


def _opens_template(toks, i):
    return _is(_at(toks, i + 1), "<")


def _rng_misuse(toks, i):
    """`Rng a = b;` (copy), `Rng [a](... x.u64() ...)` (re-seed from a draw)
    or `Rng [a](42` (literal seed)."""
    j = i + 1
    t = _at(toks, j)
    if t is not None and t.kind == "ident":
        src = _at(toks, j + 2)
        if _is(_at(toks, j + 1), "=") and src is not None and \
                src.kind in ("ident", "number") and _is(_at(toks, j + 3), ";"):
            return True
        j += 1
    opener = _at(toks, j)
    if not (_is(opener, "(") or _is(opener, "{")):
        return False
    first = _at(toks, j + 1)
    if first is not None and first.kind == "number":
        return True
    close = ")" if opener.text == "(" else "}"
    depth = 0
    for k in range(j, len(toks)):
        t = toks[k]
        if t.kind != "punct":
            continue
        if t.text == ";":
            return False
        if t.text == opener.text:
            depth += 1
        elif t.text == close:
            depth -= 1
            if depth == 0:
                return False
        elif t.text in (".", "->") and k + 3 < len(toks) and \
                toks[k + 1].text == "u64" and _is(toks[k + 2], "(") and \
                _is(toks[k + 3], ")"):
            return True
    return False


def _gamma_literal(toks, i):
    """`PayoffVector [name]{` with contents; empty braces value-initialize,
    and `struct PayoffVector {` is the type's own definition."""
    prev = _at(toks, i - 1)
    if prev is not None and prev.text in ("struct", "class"):
        return False
    j = i + 1
    t = _at(toks, j)
    if t is not None and t.kind == "ident":
        j += 1
    return _is(_at(toks, j), "{") and not _is(_at(toks, j + 1), "}")


# ident text -> [(rule, predicate)]
CHECKS = {}


def _register(rule, names, pred):
    for name in names:
        CHECKS.setdefault(name, []).append((rule, pred))


_register("nondeterminism", ("random_device", "srand", "system_clock",
                             "high_resolution_clock"), _always)
_register("nondeterminism", ("rand", "time", "clock"), _free_call)
_register("pointer-keyed-order", ASSOCIATIVE, _pointer_key)
_register("unordered-container", UNORDERED, _opens_template)
_register("rng-fork-discipline", ("Rng",), _rng_misuse)
_register("bare-assert", ("assert",), _call)
_register("direct-ot-access", ("OtHub",), _always)
_register("lane-word-shares", LANE_WORD_NAMES, _always)
_register("gamma-literal", ("PayoffVector",), _gamma_literal)
_register("raw-socket-access", SOCKET_CALLS, _raw_socket_call)


def _macro_bodies(pp_tokens):
    """Token streams of the `#define` directives, at their source positions."""
    streams = []
    for pp in pp_tokens:
        if not DEFINE_RE.match(pp.text):
            continue
        toks = []
        for t in tokenize(" " + pp.text[1:]):
            if t.kind == "comment":
                continue
            col = t.col + pp.col - 1 if t.line == 1 else t.col
            toks.append(t._replace(line=t.line + pp.line - 1, col=col))
        streams.append(toks)
    return streams


def _scan(toks, active, out):
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        checks = CHECKS.get(t.text)
        if checks is None and t.text.startswith("encode_ot_send"):
            checks = [("direct-ot-access", _call)]
        for rule, pred in checks or ():
            if rule in active and pred(toks, i):
                out.append((rule, t))


def _uninitialized_member(stmt):
    """Token of a class-body statement `[mutable] scalar name[[N]];` that
    carries no initializer; None otherwise."""
    while len(stmt) > 2 and stmt[0].text in ACCESS_LABELS and _is(stmt[1], ":"):
        stmt = stmt[2:]
    if not stmt or any(t.kind == "ident" and t.text in MEMBER_SKIP
                       for t in stmt):
        return None
    head = stmt[0]
    k = 1 if head.text == "mutable" else 0
    if _at(stmt, k) is not None and stmt[k].text == "std" and \
            _is(_at(stmt, k + 1), "::"):
        k += 2
    t = _at(stmt, k)
    if t is None or t.kind != "ident":
        return None
    if t.text in SCALAR_WORDS:
        while _at(stmt, k) is not None and stmt[k].text in SCALAR_WORDS:
            k += 1
    elif SCALAR_TYPEDEF_RE.match(t.text):
        k += 1
    elif t.text == "array" and _is(_at(stmt, k + 1), "<"):
        close = _close_angle(stmt, k + 1)
        if close == -1:
            return None
        k = close + 1
    else:
        return None
    name = _at(stmt, k)
    if name is None or name.kind != "ident":
        return None
    k += 1
    if _is(_at(stmt, k), "["):
        while k < len(stmt) and not _is(stmt[k], "]"):
            k += 1
        k += 1
    return head if k == len(stmt) - 1 and _is(stmt[k], ";") else None


def _unordered_facts(toks, in_protocol):
    """Names declared `unordered_*<...> name [;{=]`, and (protocol layers
    only) every range-for source and `x.begin()`-style receiver as
    [name, line, col] iteration sites."""
    decls = set()
    sites = []
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        if t.text in UNORDERED and _opens_template(toks, i):
            close = _close_angle(toks, i + 1)
            name = _at(toks, close + 1) if close != -1 else None
            after = _at(toks, close + 2)
            if name is not None and name.kind == "ident" and after is not None \
                    and after.kind == "punct" and after.text in (";", "{", "="):
                decls.add(name.text)
        elif not in_protocol:
            continue
        elif t.text == "for" and _is(_at(toks, i + 1), "("):
            src = _range_for_source(toks, i + 1)
            if src is not None:
                sites.append([src.text, src.line, src.col])
        elif _is(_at(toks, i + 1), ".") and _at(toks, i + 2) is not None and \
                toks[i + 2].text in ITER_METHODS and _is(_at(toks, i + 3), "("):
            sites.append([t.text, t.line, t.col])
    return sorted(decls), sites


def _range_for_source(toks, open_paren):
    """First identifier after a range-for's top-level `:` (`this->` skipped);
    None for a classic for loop."""
    depth = 0
    for k in range(open_paren, len(toks)):
        t = toks[k]
        if t.kind != "punct":
            continue
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                return None
        elif depth == 1 and t.text in (";", "?"):
            return None
        elif depth == 1 and t.text == ":":
            k += 1
            if _at(toks, k) is not None and toks[k].text == "this" and \
                    _is(_at(toks, k + 1), "->"):
                k += 2
            src = _at(toks, k)
            return src if src is not None and src.kind == "ident" else None
    return None


def check_tu(relpath, code, pp_tokens, member_stmts):
    """Token-rule facts for one TU: (findings, unordered_decls, includes,
    unordered_iters). One finding per (line, rule), at its first column."""
    active = {r.name for r in RULES if r.in_scope(relpath)}
    hits = []
    if active:
        _scan(code, active, hits)
        macro_active = active - {"unordered-container"}
        for body in _macro_bodies(pp_tokens):
            _scan(body, macro_active, hits)
    includes = []
    for pp in pp_tokens:
        m = INCLUDE_RE.match(pp.text)
        if not m:
            continue
        if m.group(2):
            includes.append(m.group(2))
            continue
        header = m.group(1).strip()
        if "raw-socket-access" in active and (
                header in SOCKET_HEADERS or header.startswith("netinet/")):
            hits.append(("raw-socket-access", pp))
        if "bare-assert" in active and header in ASSERT_HEADERS:
            hits.append(("bare-assert", pp))
    if "uninitialized-pod-member" in active:
        for stmt in member_stmts:
            tok = _uninitialized_member(stmt)
            if tok is not None:
                hits.append(("uninitialized-pod-member", tok))
    findings = {}
    for rule, tok in sorted(hits, key=lambda h: (h[1].line, h[1].col)):
        text = " ".join(tok.text.split()) if tok.kind == "pp" else tok.text
        findings.setdefault((tok.line, rule), {
            "rule": rule, "path": relpath, "line": tok.line, "col": tok.col,
            "message": "%s (matched `%s`)" % (MESSAGES[rule], text)})
    decls, sites = _unordered_facts(code, "unordered-iteration" in active)
    return list(findings.values()), decls, includes, sites
