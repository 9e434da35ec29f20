"""Per-translation-unit symbol/flow pass.

One pass over the token stream (tokenizer.py) tracking scopes — namespaces,
classes, functions, loops, plain blocks — and splitting function bodies into
statements. From each TU it extracts a JSON-serializable *facts* dict:

  functions     per-function statement flow facts (declarations, assignments,
                receiver calls, sink shapes), Rng fork/draw event streams in
                program order, and the set of Rng-typed variables;
  kinds         encode_<kind>/decode_<kind> call sites (message-schema pass);
  taint_sources TAINT-SOURCE(category) annotations bound to the declaration
                they precede;
  declassify    DECLASSIFY(reason) markers with their target lines;
  handles       ANALYZE-HANDLES(kind) markers for hand-rolled decoders;
  allows        LINT-ALLOW(rule): reason markers;
  findings      the token rules' findings (rules.py), plus the unordered
                declarations, quoted includes and iteration sites that the
                cross-file unordered-iteration join reads.

The pass is deliberately lightweight — no templates instantiated, no
overload resolution — but it is *structural*: scopes nest correctly, raw
strings and comments never confuse it, and every fact carries a real
line/column. The analyses (analyses.py) run on the merged facts of all TUs.

Facts are pure data so driver.py can cache them by content hash and farm
extraction out to worker processes.
"""

import re

import rules
from tokenizer import tokenize, string_value

RNG_DRAW_METHODS = {"u64", "below", "bit", "bytes", "fill", "uniform"}
QUALIFIER_KEYWORDS = {
    "static", "const", "constexpr", "inline", "mutable", "thread_local",
    "volatile", "extern", "register", "unsigned", "signed", "virtual",
    "explicit", "friend", "typename",
}
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else",
                    "return", "case", "default", "goto", "break", "continue",
                    "sizeof", "new", "delete", "throw", "co_return"}
LOG_CALLS = {"printf", "fprintf", "fputs", "puts", "perror"}
CHECK_MACROS = {"FAIRSFE_CHECK", "FAIRSFE_DCHECK"}
KIND_CALL_RE = re.compile(r"^(encode|decode)_([a-z0-9_]+)$")

# Variables that count as Rng streams even when their declaration is in
# another TU (class members like `rng_`, references like `run_rng`). The
# codebase's naming contract makes this sound: every such name is an Rng.
RNG_NAME_RE = re.compile(r"(?:^|_)rng_?$|^rng$|^rng_$")

ALLOW_RE = re.compile(
    r"LINT-ALLOW\((?P<rule>[a-z-]+)\)(?::\s*(?P<reason>.*?))?\s*(?:\*/)?\s*$")
TAINT_SOURCE_RE = re.compile(
    r"TAINT-SOURCE\((?P<category>[a-z-]+)\)(?::\s*(?P<reason>.*))?")
DECLASSIFY_RE = re.compile(r"DECLASSIFY\((?P<reason>[^)]*)\)")
HANDLES_RE = re.compile(r"ANALYZE-HANDLES\((?P<kind>[a-z0-9_]+)\)")
EMITS_RE = re.compile(r"ANALYZE-EMITS\((?P<kind>[a-z0-9_]+)\)")


class _Scope:
    __slots__ = ("kind", "name", "sid", "vars")

    def __init__(self, kind, name, sid):
        self.kind = kind  # namespace | class | function | loop | block
        self.name = name
        self.sid = sid
        self.vars = {}  # var -> type string


def _find_matching(tokens, i, open_t, close_t, step=1):
    """Index of the token matching tokens[i] (an open_t); -1 if unbalanced."""
    depth = 0
    n = len(tokens)
    while 0 <= i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return i
        i += step
    return -1


def _receiver_chain(tokens, i):
    """Canonical receiver string for a method call: tokens[i] is the method
    ident, tokens[i-1] is `.` or `->`. Walks back over ident chains and call
    results: `ctx.rng().fork` -> "ctx.rng()"."""
    j = i - 1
    if j < 0 or tokens[j].kind != "punct" or tokens[j].text not in (".", "->"):
        return None
    parts = []
    j -= 1
    while j >= 0:
        t = tokens[j]
        if t.kind == "punct" and t.text == ")":
            open_i = _find_matching(tokens, j, ")", "(", step=-1)
            if open_i <= 0:
                break
            parts.append("()")
            j = open_i - 1
            continue
        if t.kind == "ident":
            parts.append(t.text)
            j -= 1
            if j >= 0 and tokens[j].kind == "punct" and tokens[j].text in (
                    ".", "->", "::"):
                parts.append("." if tokens[j].text != "::" else "::")
                j -= 1
                continue
            break
        break
    if not parts:
        return None
    return "".join(reversed(parts))


def _call_args(tokens, open_paren):
    """Top-level comma-split args of the call whose `(` is at open_paren.
    Returns (close_index, [arg]) where arg = {"idents", "strings", "numbers"}."""
    close = _find_matching(tokens, open_paren, "(", ")")
    if close == -1:
        return -1, []
    args = []
    cur = {"idents": [], "strings": [], "numbers": []}
    depth = 0
    nonempty = False
    for k in range(open_paren + 1, close):
        t = tokens[k]
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "," and depth == 0:
                args.append(cur)
                cur = {"idents": [], "strings": [], "numbers": []}
                continue
            nonempty = True
        elif t.kind == "ident":
            cur["idents"].append(t.text)
            nonempty = True
        elif t.kind == "string":
            cur["strings"].append(string_value(t))
            nonempty = True
        elif t.kind == "number":
            cur["numbers"].append(t.text)
            nonempty = True
        elif t.kind == "char":
            nonempty = True
    if nonempty or args:
        args.append(cur)
    return close, args


def _parse_decl(tokens):
    """Heuristic single-declarator parse: `qualifiers Type<...>&* name ...`.
    Returns (type_str, var_name) or None. `tokens` is a statement slice."""
    i = 0
    n = len(tokens)
    while i < n and tokens[i].kind == "ident" and tokens[i].text in QUALIFIER_KEYWORDS:
        i += 1
    if i >= n or tokens[i].kind != "ident" or tokens[i].text in CONTROL_KEYWORDS:
        return None
    type_parts = [tokens[i].text]
    i += 1
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text == "::" and i + 1 < n and tokens[i + 1].kind == "ident":
            type_parts.append(tokens[i + 1].text)
            i += 2
            continue
        if t.kind == "punct" and t.text == "<":
            close = _find_matching(tokens, i, "<", ">")
            if close == -1:
                return None
            i = close + 1
            continue
        break
    while i < n and tokens[i].kind == "punct" and tokens[i].text in ("&", "&&", "*"):
        i += 1
    if i >= n or tokens[i].kind != "ident" or tokens[i].text in CONTROL_KEYWORDS:
        return None
    var = tokens[i].text
    i += 1
    if i >= n:
        return type_parts[-1], var
    nxt = tokens[i]
    if nxt.kind == "punct" and nxt.text in ("=", "(", "{", ";", ",", ":"):
        # `Type var = ...`, `Type var(...)`, `Type var{...}`, range-for colon.
        return type_parts[-1], var
    return None


def _rng_params(header_tokens):
    """Rng-typed parameter names from a function header token slice."""
    out = {}
    for k, t in enumerate(header_tokens):
        if t.kind == "ident" and t.text == "Rng":
            j = k + 1
            while (j < len(header_tokens) and header_tokens[j].kind == "punct"
                   and header_tokens[j].text in ("&", "&&", "*")):
                j += 1
            if j < len(header_tokens) and header_tokens[j].kind == "ident":
                out[header_tokens[j].text] = "Rng"
    return out


def _is_lambda_header(header):
    """Does this header (tokens since the last statement boundary) end in a
    lambda introducer + parameter list, i.e. `...](args) [quals] [-> T]`?
    Used to give lambda bodies nested inside argument lists a real scope."""
    k = len(header) - 1
    # Strip trailing qualifiers and `-> Type`.
    while k >= 0:
        t = header[k]
        if t.kind == "ident" and (t.text in ("mutable", "noexcept", "const")
                                  or k >= 1 and header[k - 1].kind == "punct"
                                  and header[k - 1].text in ("->", "::")):
            k -= 1
            continue
        if t.kind == "punct" and t.text in ("->", "::", "<", ">", "&", "*"):
            k -= 1
            continue
        break
    if k < 0:
        return False
    t = header[k]
    if t.kind == "punct" and t.text == "]":
        return True  # `[x] { ... }`
    if t.kind == "punct" and t.text == ")":
        open_i = _find_matching(header[:k + 1], k, ")", "(", step=-1)
        if open_i > 0:
            b = header[open_i - 1]
            return b.kind == "punct" and b.text == "]"
    return False


class _Extractor:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.all_tokens = tokenize(text)
        self.tokens = [t for t in self.all_tokens if t.kind not in ("comment", "pp")]
        self.pp_tokens = [t for t in self.all_tokens if t.kind == "pp"]
        # Lines holding code or a directive: a comment there is trailing, so
        # its annotation targets its own line rather than the next one.
        self.code_lines = {t.line for t in self.tokens}
        for t in self.pp_tokens:
            self.code_lines.update(range(t.line, t.line + t.text.count("\n") + 1))
        self.member_stmts = []  # statement token slices directly in a class
        self.facts = {
            "relpath": relpath,
            "functions": [],
            "kinds": [],
            "taint_sources": [],
            "declassify": [],
            "handles": [],
            "emits": [],
            "allows": {},
        }
        self.scopes = [_Scope("file", "", 0)]
        self.next_sid = 1
        self.fn_stack = []  # indices into facts["functions"]
        self.pending_loop_decls = None

    # -- scope helpers ------------------------------------------------------

    def cur_fn(self):
        return self.facts["functions"][self.fn_stack[-1]] if self.fn_stack else None

    def lookup_var(self, name):
        """(type, scope) for a visible variable, innermost first."""
        for sc in reversed(self.scopes):
            if name in sc.vars:
                return sc.vars[name], sc
        return None, None

    def declare(self, var, typ):
        self.scopes[-1].vars[var] = typ

    def in_loop(self):
        for sc in reversed(self.scopes):
            if sc.kind == "loop":
                return sc
            if sc.kind == "function":
                break
        return None

    # -- annotations --------------------------------------------------------

    def parse_annotations(self, raw_lines):
        comments = [t for t in self.all_tokens if t.kind == "comment"]
        for t in comments:
            for lineno_off, line_text in enumerate(t.text.split("\n")):
                lineno = t.line + lineno_off
                m = ALLOW_RE.search(line_text)
                if m:
                    own_line = lineno not in self.code_lines
                    target = lineno + 1 if own_line else lineno
                    self.facts["allows"].setdefault(str(target), []).append(
                        [m.group("rule"), (m.group("reason") or "").strip(), lineno])
                m = TAINT_SOURCE_RE.search(line_text)
                if m:
                    subj = self._annotation_subject(lineno)
                    self.facts["taint_sources"].append({
                        "category": m.group("category"),
                        "reason": (m.group("reason") or "").strip(),
                        "line": lineno,
                        "subject": subj[0],
                        "kind": subj[1],
                    })
                m = DECLASSIFY_RE.search(line_text)
                if m:
                    own_line = lineno not in self.code_lines
                    target = lineno + 1 if own_line else lineno
                    self.facts["declassify"].append({
                        "line": lineno,
                        "target": target,
                        "reason": m.group("reason").strip(),
                    })
                for m in HANDLES_RE.finditer(line_text):
                    self.facts["handles"].append(
                        {"kind": m.group("kind"), "line": lineno})
                for m in EMITS_RE.finditer(line_text):
                    self.facts["emits"].append(
                        {"kind": m.group("kind"), "line": lineno})

    def _annotation_subject(self, comment_line):
        """Bind a TAINT-SOURCE annotation to the declaration it precedes (or
        shares a line with): a class/struct name, a function name (ident
        before the first `(`), or the declared variable/member name."""
        line_toks = [t for t in self.tokens if t.line == comment_line]
        if not line_toks:
            nxt = min((t.line for t in self.tokens if t.line > comment_line),
                      default=None)
            if nxt is None:
                return None, None
            line_toks = [t for t in self.tokens if t.line == nxt]
        for k, t in enumerate(line_toks):
            if t.kind == "ident" and t.text in ("class", "struct"):
                if k + 1 < len(line_toks) and line_toks[k + 1].kind == "ident":
                    return line_toks[k + 1].text, "type"
        for k, t in enumerate(line_toks):
            if (t.kind == "punct" and t.text == "(" and k > 0
                    and line_toks[k - 1].kind == "ident"):
                return line_toks[k - 1].text, "func"
        decl = _parse_decl(line_toks)
        if decl:
            return decl[1], "member"
        return None, None

    # -- main scan ----------------------------------------------------------

    def run(self):
        toks = self.tokens
        n = len(toks)
        i = 0
        stmt_start = 0
        paren_depth = 0
        # Each `{` pushes ("scope", saved_paren_depth) or ("init", None).
        # Lambda bodies nested inside argument lists get real scopes: the
        # paren depth is saved and reset so statement splitting works inside.
        brace_stack = []
        while i < n:
            t = toks[i]
            if t.kind == "punct":
                if t.text == "(":
                    paren_depth += 1
                elif t.text == ")":
                    paren_depth = max(0, paren_depth - 1)
                elif t.text == ";" and paren_depth == 0:
                    self.handle_statement(toks[stmt_start:i + 1])
                    stmt_start = i + 1
                elif t.text == "{":
                    header = toks[stmt_start:i]
                    if paren_depth == 0:
                        self.open_scope(header, i)
                        brace_stack.append(("scope", 0))
                        stmt_start = i + 1
                    elif _is_lambda_header(header):
                        self.open_scope(header, i)
                        brace_stack.append(("scope", paren_depth))
                        paren_depth = 0
                        stmt_start = i + 1
                    else:
                        brace_stack.append(("init", None))
                elif t.text == "}":
                    kind, saved = brace_stack.pop() if brace_stack else ("scope", 0)
                    if kind == "scope":
                        if stmt_start < i:
                            self.handle_statement(toks[stmt_start:i])
                        self.close_scope()
                        paren_depth = saved
                        stmt_start = i + 1
            i += 1
        if stmt_start < n:
            self.handle_statement(toks[stmt_start:])
        return self.facts

    def open_scope(self, header, brace_idx):
        kind, name = self._classify_brace(header)
        sc = _Scope(kind, name, self.next_sid)
        self.next_sid += 1
        if kind == "function":
            self.facts["functions"].append({
                "name": name,
                "line": header[0].line if header else self.tokens[brace_idx].line,
                "params": [],
                "stmts": [],
                "forks": [],
                "draws": [],
            })
            self.fn_stack.append(len(self.facts["functions"]) - 1)
            sc.vars.update(_rng_params(header))
            # Non-Rng params still matter for taint seeding by declared type.
            self._declare_params(sc, header)
            self.facts["functions"][-1]["params"] = [
                [typ, var] for var, typ in sc.vars.items()]
        elif kind == "loop" and header:
            # Header declarations (loop induction vars, range-for vars)
            # belong to the loop scope.
            self._register_header_decls(sc, header)
        if kind == "block" and any(t.kind == "punct" and t.text == "="
                                   for t in header):
            # `auto f = [..](..) {` — the lambda variable lives in the
            # *enclosing* scope (so calls to it are not mistaken for
            # free-function calls, e.g. kind-named local callables).
            decl = _parse_decl(header)
            if decl:
                self.declare(decl[1], decl[0])
        self.scopes.append(sc)

    def _declare_params(self, sc, header):
        open_i = None
        for k, t in enumerate(header):
            if t.kind == "punct" and t.text == "(":
                open_i = k
                break
        if open_i is None:
            return
        close_i = _find_matching(header, open_i, "(", ")")
        if close_i == -1:
            close_i = len(header)
        depth = 0
        start = open_i + 1
        for k in range(open_i + 1, close_i + 1):
            t = header[k] if k < close_i else None
            is_split = t is None or (t.kind == "punct" and t.text == "," and depth == 0)
            if t is not None and t.kind == "punct":
                if t.text in ("(", "<", "[", "{"):
                    depth += 1
                elif t.text in (")", ">", "]", "}"):
                    depth -= 1
            if is_split:
                decl = _parse_decl(header[start:k])
                if decl:
                    sc.vars.setdefault(decl[1], decl[0])
                start = k + 1

    def _register_header_decls(self, sc, header):
        open_i = None
        for k, t in enumerate(header):
            if t.kind == "punct" and t.text == "(":
                open_i = k
                break
        if open_i is None:
            return
        close_i = _find_matching(header, open_i, "(", ")")
        if close_i == -1:
            return
        inner = header[open_i + 1:close_i]
        piece = []
        for t in inner:
            if t.kind == "punct" and t.text in (";", ":"):
                decl = _parse_decl(piece)
                if decl:
                    sc.vars[decl[1]] = decl[0]
                piece = []
            else:
                piece.append(t)
        decl = _parse_decl(piece)
        if decl:
            sc.vars[decl[1]] = decl[0]

    def _classify_brace(self, header):
        """What scope does this `{` open? Decided by the *first* top-level
        paren group in the header — its preceding token distinguishes control
        statements, function definitions (incl. constructors with initializer
        lists, whose trailing `: member_(x)` parens would fool a backwards
        scan), lambdas, and plain braces."""
        if not header:
            return "block", ""
        idents = [t.text for t in header if t.kind == "ident"]
        texts = set(idents)
        # Headers *led* by a control keyword classify on it, so `if constexpr
        # (...)` / `return Foo{...}` never read as definitions.
        if idents:
            if idents[0] in ("for", "while", "do"):
                return "loop", ""
            if idents[0] in ("if", "switch", "else", "try", "case", "default",
                            "return", "throw", "co_return"):
                return "block", ""
        first_paren = None
        for k, t in enumerate(header):
            if t.kind == "punct" and t.text == "(":
                first_paren = k
                break
        if first_paren is None:
            if "namespace" in texts:
                return ("namespace",
                        idents[-1] if idents[-1] != "namespace" else "")
            if "enum" in texts:
                return "block", ""
            if {"class", "struct", "union"} & texts:
                for k, t in enumerate(header):
                    if t.kind == "ident" and t.text in ("class", "struct",
                                                        "union"):
                        for t2 in header[k + 1:]:
                            if t2.kind == "ident" and t2.text not in (
                                    "final", "public", "private", "protected"):
                                return "class", t2.text
                        break
                return "class", ""
            if idents and idents[0] == "do":
                return "loop", ""
            if header[-1].kind == "punct" and header[-1].text == "]":
                return "block", ""  # no-parameter lambda `[x] { ... }`
            return "block", ""
        before = header[first_paren - 1] if first_paren > 0 else None
        if before is None:
            return "block", ""
        if before.kind == "punct":
            if before.text == "]":
                # Lambda body: scoped so its locals don't leak, but unnamed —
                # statements inside attribute to the enclosing function.
                return "block", ""
            # `operator==(...)`, `operator()(...)` definitions.
            if first_paren >= 2 and header[first_paren - 2].kind == "ident" \
                    and header[first_paren - 2].text == "operator":
                return "function", "operator" + before.text
            return "block", ""
        if before.text in ("for", "while"):
            return "loop", ""
        if before.text in ("if", "switch", "catch") or \
                before.text in CONTROL_KEYWORDS:
            return "block", ""
        name = before.text
        if name in ("TEST", "TEST_F", "TEST_P", "TYPED_TEST", "TYPED_TEST_P"):
            close = _find_matching(header, first_paren, "(", ")")
            inner = [t.text for t in header[first_paren + 1:close]
                     if t.kind == "ident"] if close != -1 else []
            return "function", "%s(%s)" % (name, ".".join(inner))
        return "function", name

    def close_scope(self):
        if len(self.scopes) <= 1:
            return
        sc = self.scopes.pop()
        if sc.kind == "function" and self.fn_stack:
            self.fn_stack.pop()

    # -- statements ---------------------------------------------------------

    def handle_statement(self, stmt):
        if not stmt:
            return
        in_class = self.scopes[-1].kind == "class"
        if in_class:
            self.member_stmts.append(stmt)
            decl = _parse_decl(stmt)
            if decl:
                self.scopes[-1].vars[decl[1]] = decl[0]
            return
        # Declarations register into the current scope; control headers
        # (`for (...)` bodies without braces) handled in open_scope.
        first = stmt[0]
        decl = None
        if first.kind == "ident" and first.text not in CONTROL_KEYWORDS:
            decl = _parse_decl(stmt)
            if decl:
                typ, var = decl
                if typ == "auto":
                    typ = self._infer_auto_type(stmt)
                self.declare(var, typ)
                decl = (typ, var)
        self.extract_stmt_facts(stmt, decl)

    def _infer_auto_type(self, stmt):
        for k, t in enumerate(stmt):
            if t.kind == "ident" and t.text in ("fork", "fork_at"):
                if k + 1 < len(stmt) and stmt[k + 1].kind == "punct" and \
                        stmt[k + 1].text == "(":
                    return "Rng"
        return "auto"

    def is_rng_var(self, name):
        typ, _ = self.lookup_var(name)
        if typ is not None:
            return typ.startswith("Rng")
        return bool(RNG_NAME_RE.search(name))

    def is_rng_receiver(self, chain):
        if chain is None:
            return False
        head = chain.split(".")[0].split("::")[-1].rstrip("()")
        if chain.endswith("()"):
            # `ctx.rng()`-style accessor: last call name decides.
            last = chain[:-2].split(".")[-1].split("::")[-1]
            return bool(RNG_NAME_RE.search(last)) or last == "Rng"
        return self.is_rng_var(head)

    def extract_stmt_facts(self, stmt, decl):
        fn = self.cur_fn()
        toks = stmt
        n = len(toks)
        idents = [t.text for t in toks if t.kind == "ident"]
        has_xor = any(t.kind == "punct" and t.text in ("^", "^=") for t in toks)

        # Assignment target: first ident chain followed by a plain `=`.
        assign_to = None
        for k in range(n - 1):
            if (toks[k].kind == "ident" and toks[k + 1].kind == "punct"
                    and toks[k + 1].text in ("=", "^=")):
                # A member chain (msg.body = ...) assigns to its head.
                j = k
                while j >= 2 and toks[j - 1].kind == "punct" and \
                        toks[j - 1].text in (".", "->") and toks[j - 2].kind == "ident":
                    j -= 2
                assign_to = toks[j].text
                break
        if decl:
            assign_to = decl[1]

        calls = []       # plain call names
        recv_calls = []  # [receiver, method, [arg idents]]
        check_msg_idents = []
        loop_sc = self.in_loop()

        k = 0
        while k < n:
            t = toks[k]
            if t.kind == "ident" and k + 1 < n and toks[k + 1].kind == "punct" \
                    and toks[k + 1].text == "(":
                name = t.text
                recv = _receiver_chain(toks, k)
                close, args = _call_args(toks, k + 1)
                arg_idents = [i for a in args for i in a["idents"]]
                if recv is None:
                    calls.append(name)
                    if name in CHECK_MACROS and len(args) > 1:
                        for a in args[1:]:
                            check_msg_idents.extend(a["idents"])
                else:
                    recv_calls.append([recv, name, arg_idents])

                if name in ("fork", "fork_at") and recv is not None and \
                        self.is_rng_receiver(recv) and fn is not None:
                    label = args[0]["strings"][0] if args and args[0]["strings"] else None
                    index_lit = None
                    index_idents = []
                    if name == "fork_at" and len(args) > 1:
                        if args[1]["numbers"] and not args[1]["idents"]:
                            index_lit = args[1]["numbers"][0]
                        index_idents = args[1]["idents"]
                    parent_typ, parent_sc = self.lookup_var(
                        recv.split(".")[0].split("::")[-1])
                    parent_local_to_loop = False
                    if loop_sc is not None and parent_sc is not None:
                        parent_local_to_loop = parent_sc.sid >= loop_sc.sid
                    fn["forks"].append({
                        "line": t.line, "col": t.col,
                        "parent": recv, "label": label, "kind": name,
                        "index_lit": index_lit, "index_idents": index_idents,
                        "target": assign_to,
                        "psid": parent_sc.sid if parent_sc else -1,
                        "in_loop": loop_sc is not None,
                        "parent_local_to_loop": parent_local_to_loop,
                    })
                elif name in RNG_DRAW_METHODS and recv is not None and \
                        self.is_rng_receiver(recv) and fn is not None:
                    _typ, dsc = self.lookup_var(
                        recv.split(".")[0].split("::")[-1])
                    fn["draws"].append({
                        "line": t.line, "col": t.col,
                        "parent": recv, "method": name,
                        "psid": dsc.sid if dsc else -1,
                    })

                m = KIND_CALL_RE.match(name)
                # Locally-declared callables (`auto encode_out = [..](..)`)
                # are not message-kind codecs.
                if m and self.lookup_var(name)[0] is None:
                    enclosing = fn["name"] if fn else None
                    self.facts["kinds"].append({
                        "kind": m.group(2),
                        "role": m.group(1),
                        "line": t.line, "col": t.col,
                        "fn": enclosing,
                        "is_call": enclosing is not None and enclosing != name,
                    })
            k += 1

        if fn is None:
            return
        sinks = self._detect_sinks(toks, idents, calls, recv_calls,
                                   check_msg_idents)
        fn["stmts"].append({
            "line": toks[0].line,
            "col": toks[0].col,
            "decl": list(decl) if decl else None,
            "assign_to": assign_to,
            "xor": has_xor,
            "idents": idents,
            "calls": calls,
            "recv_calls": recv_calls,
            "sinks": sinks,
        })

    def _detect_sinks(self, toks, idents, calls, recv_calls,
                      check_msg_idents):
        sinks = []
        line, col = toks[0].line, toks[0].col
        iset = set(idents)
        if ({"cout", "cerr", "clog"} & iset) or (set(calls) & LOG_CALLS):
            sinks.append({"sink": "log", "line": line, "col": col,
                          "args": idents})
        transcriptish = [i for i in iset if "transcript" in i.lower()]
        for rc in recv_calls:
            if "transcript" in rc[0].lower():
                transcriptish.append(rc[0])
        if transcriptish:
            sinks.append({"sink": "transcript", "line": line, "col": col,
                          "args": idents})
        if check_msg_idents:
            sinks.append({"sink": "check", "line": line, "col": col,
                          "args": check_msg_idents})
        return sinks


def extract_facts(relpath, text):
    """Public entry: facts dict for one TU."""
    ex = _Extractor(relpath, text)
    ex.parse_annotations(text.split("\n"))
    facts = ex.run()
    (facts["findings"], facts["unordered_decls"], facts["includes"],
     facts["unordered_iters"]) = rules.check_tu(relpath, ex.tokens,
                                                ex.pp_tokens, ex.member_stmts)
    return facts
