"""A real C++ tokenizer (the part regexes cannot fake).

Produces a flat token list with 1-based line/column positions. Handles the
lexical constructs that defeat line-regex tools:

  * raw string literals  R"delim( ... )delim"  with arbitrary delimiters and
    embedded newlines/quotes (plus u8R/uR/LR prefixes);
  * ordinary string/char literals with escape sequences;
  * line and block comments (emitted as `comment` tokens so annotation
    grammars — LINT-ALLOW, TAINT-SOURCE, DECLASSIFY, ANALYZE-HANDLES — can be
    parsed positionally);
  * pp-numbers with digit separators (1'000'000, 0xFF'FFu, 1.5e-3);
  * preprocessor directives, folded (with line continuations) into a single
    `pp` token so `#include <sys/socket.h>` never reads as template syntax;
    their comments come out as `comment` tokens, blanked from the `pp` text;
  * maximal-munch punctuation (`>>=`, `<=>`, `::`, `->*`, ...) — template
    closers like `vector<vector<int>>` come out as `>` handling left to the
    (rare) consumer, exactly like the C++ grammar itself.

The token stream is lossless enough for scope tracking and statement
splitting, and strictly positioned so findings carry real columns.
"""

from collections import namedtuple

Token = namedtuple("Token", ["kind", "text", "line", "col"])

# Longest-match-first punctuation table (C++23 operator set).
PUNCTUATORS = [
    "...", "<=>", "->*", "<<=", ">>=",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "##",
    "{", "}", "[", "]", "(", ")", ";", ":", "?", ".", "+", "-", "*", "/",
    "%", "&", "|", "^", "!", "~", "<", ">", "=", ",", "#",
]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")

# String-literal prefixes, longest first ("u8R" before "u8" before "u").
_STRING_PREFIXES = ["u8R", "uR", "UR", "LR", "R", "u8", "u", "U", "L"]


class _Cursor:
    """Position-tracking scanner over the source text."""

    __slots__ = ("text", "n", "i", "line", "col")

    def __init__(self, text):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.line = 1
        self.col = 1

    def peek(self, k=0):
        j = self.i + k
        return self.text[j] if j < self.n else ""

    def startswith(self, s):
        return self.text.startswith(s, self.i)

    def advance(self, k=1):
        """Move forward k chars, maintaining line/col."""
        for _ in range(k):
            if self.i >= self.n:
                return
            if self.text[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1


def _scan_raw_string(cur):
    """cur sits at the opening `"` of R"delim( ... )delim". Returns end index."""
    # R"  delim  (   ...   )  delim  "
    j = cur.i + 1
    text = cur.text
    k = j
    while k < cur.n and text[k] not in "(\\ \t\n\"":
        k += 1
    if k >= cur.n or text[k] != "(":
        # Ill-formed raw string; treat as ordinary string to stay robust.
        return _scan_string_end(cur.text, cur.i, '"')
    delim = text[j:k]
    closer = ")" + delim + '"'
    end = text.find(closer, k + 1)
    return (end + len(closer)) if end != -1 else cur.n


def _scan_string_end(text, i, quote):
    """Index one past the closing quote of an ordinary string/char literal."""
    j = i + 1
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == quote or c == "\n":  # unterminated: stop at EOL, stay robust
            return j + 1
        j += 1
    return n


def _scan_number_end(text, i):
    """pp-number: digits, identifier chars, quotes-as-separators, exponents."""
    j = i
    n = len(text)
    while j < n:
        c = text[j]
        if c in _IDENT_CONT or c == ".":
            # e+/e-/p+/p- exponent signs ride along.
            if c in "eEpP" and j + 1 < n and text[j + 1] in "+-":
                j += 2
                continue
            j += 1
        elif c == "'" and j + 1 < n and text[j + 1] in _IDENT_CONT:
            j += 2  # digit separator
        else:
            break
    return j


def _scan_directive(cur):
    """cur sits at the `#` of a directive. Returns the `pp` token (comments
    blanked out of its text) followed by the directive's comment tokens, and
    leaves cur at the newline that ends the logical line."""
    text = cur.text
    start, line, col = cur.i, cur.line, cur.col
    parts = []
    comments = []
    j = start
    seg = start  # start of the code run not yet copied into parts
    while j < cur.n:
        c = text[j]
        if c == "\n":
            if text[seg:j].rstrip().endswith("\\"):
                j += 1
                continue
            break
        if c in "\"'":
            # An unterminated literal (`#error don't`) ends at the newline.
            e = _scan_string_end(text, j, c)
            nl = text.find("\n", j, e)
            j = e if nl == -1 else nl
            continue
        if c == "/" and text.startswith(("//", "/*"), j):
            if text[j + 1] == "/":
                e = text.find("\n", j)
                e = cur.n if e == -1 else e
            else:
                e = text.find("*/", j + 2)
                e = cur.n if e == -1 else e + 2
            parts.append(text[seg:j])
            # Blank the comment but keep its newlines, so every byte of the
            # directive's text stays at its source position.
            parts.append("".join(ch if ch == "\n" else " " for ch in text[j:e]))
            cur.advance(j - cur.i)
            comments.append(Token("comment", text[j:e], cur.line, cur.col))
            j = seg = e
            continue
        j += 1
    parts.append(text[seg:j])
    cur.advance(j - cur.i)
    return [Token("pp", "".join(parts).rstrip(), line, col)] + comments


def tokenize(text):
    """Tokenize C++ source into a list of Token."""
    tokens = []
    cur = _Cursor(text)
    at_line_start = True  # only whitespace seen since the last newline

    while cur.i < cur.n:
        c = cur.peek()
        line, col = cur.line, cur.col

        if c == "\n":
            cur.advance()
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            cur.advance()
            continue

        # Comments.
        if c == "/" and cur.peek(1) == "/":
            end = cur.text.find("\n", cur.i)
            end = cur.n if end == -1 else end
            tokens.append(Token("comment", cur.text[cur.i:end], line, col))
            cur.advance(end - cur.i)
            continue
        if c == "/" and cur.peek(1) == "*":
            end = cur.text.find("*/", cur.i + 2)
            end = cur.n if end == -1 else end + 2
            tokens.append(Token("comment", cur.text[cur.i:end], line, col))
            cur.advance(end - cur.i)
            continue

        # Preprocessor directive: fold the whole logical line (with \ splices)
        # into one token; its comments become comment tokens of their own.
        if c == "#" and at_line_start:
            tokens.extend(_scan_directive(cur))
            continue

        at_line_start = False

        # String/char literals, including prefixed and raw forms.
        if c in "\"'":
            quote = c
            if quote == '"':
                end = _scan_string_end(cur.text, cur.i, '"')
            else:
                end = _scan_string_end(cur.text, cur.i, "'")
            tokens.append(Token("string" if quote == '"' else "char",
                                cur.text[cur.i:end], line, col))
            cur.advance(end - cur.i)
            continue
        if c in _IDENT_START:
            # Prefixed literal?
            matched_prefix = None
            for pref in _STRING_PREFIXES:
                if cur.startswith(pref) and cur.peek(len(pref)) == '"':
                    matched_prefix = pref
                    break
            if matched_prefix is not None:
                if matched_prefix.endswith("R"):
                    save = cur.i
                    cur.advance(len(matched_prefix))  # now at the quote
                    end = _scan_raw_string(cur)
                    tokens.append(Token("string", cur.text[save:end], line, col))
                    cur.advance(end - cur.i)
                else:
                    end = _scan_string_end(cur.text,
                                           cur.i + len(matched_prefix), '"')
                    tokens.append(Token("string", cur.text[cur.i:end], line, col))
                    cur.advance(end - cur.i)
                continue
            # Ordinary identifier / keyword.
            j = cur.i + 1
            while j < cur.n and cur.text[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token("ident", cur.text[cur.i:j], line, col))
            cur.advance(j - cur.i)
            continue

        # Numbers (incl. `.5` form).
        if c in _DIGITS or (c == "." and cur.peek(1) in _DIGITS):
            end = _scan_number_end(cur.text, cur.i)
            tokens.append(Token("number", cur.text[cur.i:end], line, col))
            cur.advance(end - cur.i)
            continue

        # Punctuation, maximal munch.
        for p in PUNCTUATORS:
            if cur.startswith(p):
                tokens.append(Token("punct", p, line, col))
                cur.advance(len(p))
                break
        else:
            # Unknown byte (extended charset, stray backslash): skip it.
            cur.advance()

    return tokens


def code_tokens(tokens):
    """Tokens with comments and preprocessor directives filtered out."""
    return [t for t in tokens if t.kind not in ("comment", "pp")]


def string_value(tok):
    """Best-effort literal value of a string token (no escape decoding needed
    for the label use-case: fork labels are plain ASCII)."""
    text = tok.text
    if "R" in text.split('"', 1)[0]:  # raw literal prefix
        body = text.split("(", 1)
        if len(body) == 2:
            inner = body[1]
            close = inner.rfind(")")
            return inner[:close] if close != -1 else inner
        return text
    # strip prefix and quotes
    start = text.find('"')
    end = text.rfind('"')
    if 0 <= start < end:
        return text[start + 1:end]
    return text
