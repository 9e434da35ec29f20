#!/usr/bin/env python3
"""Unit tests for the fairsfe-analyze foundations: the C++ tokenizer and the
cross-TU fork-label graph. Pure Python — wired as a tier1 ctest that runs
without a compiler (see tests/CMakeLists.txt).

Run directly:  python3 scripts/fairsfe_analyze/test_analyzer.py
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analyses  # noqa: E402
import driver  # noqa: E402
import tokenizer  # noqa: E402
import tu  # noqa: E402
from cache import FactsCache  # noqa: E402


def kinds_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


class TokenizerTest(unittest.TestCase):
    def test_raw_string_with_delimiter(self):
        # The closing sequence is )xx" — a bare )" inside must not end it.
        src = 'auto s = R"xx(a ")" b\nc)xx";'
        toks = tokenizer.tokenize(src)
        strings = [t for t in toks if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertEqual(strings[0].text, 'R"xx(a ")" b\nc)xx"')
        self.assertEqual(tokenizer.string_value(strings[0]), 'a ")" b\nc')
        # The final `;` still lexes, on the raw string's last line.
        semi = [t for t in toks if t.text == ";"]
        self.assertEqual(len(semi), 1)
        self.assertEqual(semi[0].line, 2)

    def test_prefixed_raw_string(self):
        toks = tokenizer.tokenize('auto s = u8R"(π)";')
        strings = [t for t in toks if t.kind == "string"]
        self.assertEqual(len(strings), 1)
        self.assertEqual(strings[0].text, 'u8R"(π)"')

    def test_comments_are_tokens_not_dropped(self):
        src = "int a; // trailing note\n/* block\nspans */ int b;"
        toks = tokenizer.tokenize(src)
        comments = [t for t in toks if t.kind == "comment"]
        self.assertEqual([c.text for c in comments],
                         ["// trailing note", "/* block\nspans */"])
        # code_tokens() strips them; the code stream is intact.
        code = kinds_texts(tokenizer.code_tokens(toks))
        self.assertEqual(code, [("ident", "int"), ("ident", "a"),
                                ("punct", ";"), ("ident", "int"),
                                ("ident", "b"), ("punct", ";")])

    def test_comment_lookalike_inside_string(self):
        toks = tokenizer.tokenize('log("see // not a comment");')
        self.assertEqual([t.kind for t in toks if t.kind == "comment"], [])
        strings = [t for t in toks if t.kind == "string"]
        self.assertEqual(strings[0].text, '"see // not a comment"')

    def test_digit_separators(self):
        toks = tokenizer.tokenize("x = 1'000'000 + 0xFF'FFu + 1.5e-3;")
        nums = [t.text for t in toks if t.kind == "number"]
        self.assertEqual(nums, ["1'000'000", "0xFF'FFu", "1.5e-3"])

    def test_char_literal_is_not_a_separator(self):
        # `'a'` after a number boundary must lex as a char literal, not glue.
        toks = tokenizer.tokenize("f(2, 'a');")
        chars = [t.text for t in toks if t.kind == "char"]
        self.assertEqual(chars, ["'a'"])

    def test_nested_template_closers_maximal_munch(self):
        # Like the C++ lexer itself, `>>` is one token; consumers that care
        # about template nesting split it (none of ours need to).
        toks = tokenizer.tokenize("std::vector<std::vector<int>> v;")
        puncts = [t.text for t in toks if t.kind == "punct"]
        self.assertIn(">>", puncts)
        self.assertEqual(puncts.count(">"), 0)

    def test_preprocessor_folding(self):
        src = '#include <sys/socket.h>\n#define M(a, b) \\\n  ((a) < (b))\nint x;'
        toks = tokenizer.tokenize(src)
        pps = [t for t in toks if t.kind == "pp"]
        self.assertEqual(len(pps), 2)
        self.assertIn("((a) < (b))", pps[1].text)  # continuation folded in
        # The include's angle brackets never became punctuation.
        self.assertNotIn(("punct", "<"), kinds_texts(toks)[:3])
        idents = [t.text for t in toks if t.kind == "ident"]
        self.assertEqual(idents, ["int", "x"])

    def test_directive_comments_are_comment_tokens(self):
        src = "#include <cassert>  // LINT-ALLOW(bare-assert): why\n" \
              "#define N /* a\n b */ 2\nint x;"
        toks = tokenizer.tokenize(src)
        pps = [t for t in toks if t.kind == "pp"]
        self.assertEqual(pps[0].text, "#include <cassert>")
        self.assertEqual(pps[1].text, "#define N     \n      2")
        comments = [(t.text, t.line, t.col) for t in toks
                    if t.kind == "comment"]
        self.assertEqual(comments, [
            ("// LINT-ALLOW(bare-assert): why", 1, 21),
            ("/* a\n b */", 2, 11)])
        self.assertEqual([t.text for t in toks if t.kind == "ident"],
                         ["int", "x"])

    def test_positions_are_one_based(self):
        toks = tokenizer.tokenize("ab\n  cd")
        self.assertEqual((toks[0].line, toks[0].col), (1, 1))
        self.assertEqual((toks[1].line, toks[1].col), (2, 3))


def graph_for(src, relpath="src/mpc/unit.cpp"):
    facts = tu.extract_facts(relpath, src)
    return analyses.build_fork_graph([facts])


class ForkGraphTest(unittest.TestCase):
    def test_duplicate_plain_fork_collides(self):
        g = graph_for("""
            void f(Rng& rng) {
              Rng a = rng.fork("worker");
              Rng b = rng.fork("worker");
            }
        """)
        self.assertEqual(len(g["collisions"]), 1)
        self.assertIn("call order", g["collisions"][0]["why"])

    def test_distinct_labels_do_not_collide(self):
        g = graph_for("""
            void f(Rng& rng) {
              Rng a = rng.fork("left");
              Rng b = rng.fork("right");
            }
        """)
        self.assertEqual(g["collisions"], [])

    def test_fork_at_same_literal_index_collides(self):
        g = graph_for("""
            void f(Rng& rng) {
              Rng a = rng.fork_at("slot", 3);
              Rng b = rng.fork_at("slot", 3);
            }
        """)
        self.assertEqual(len(g["collisions"]), 1)
        self.assertIn("literal", g["collisions"][0]["why"])

    def test_fork_at_distinct_or_variable_index_is_fine(self):
        g = graph_for("""
            void f(Rng& rng, std::size_t i) {
              Rng a = rng.fork_at("slot", 0);
              Rng b = rng.fork_at("slot", 1);
              Rng c = rng.fork_at("slot", i);
              Rng d = rng.fork_at("slot", i + 1);
            }
        """)
        self.assertEqual(g["collisions"], [])

    def test_fresh_parents_in_sibling_scopes_are_distinct_streams(self):
        # Each block declares its own `Rng rng(seed)`; the same (fn, parent,
        # label) triple must not merge across declaration scopes.
        g = graph_for("""
            void f(std::uint64_t seed) {
              {
                Rng rng(seed);
                Rng a = rng.fork("w");
              }
              {
                Rng rng(seed + 1);
                Rng b = rng.fork("w");
              }
            }
        """)
        self.assertEqual(g["collisions"], [])

    def test_collisions_do_not_cross_functions(self):
        g = graph_for("""
            void f(Rng& rng) { Rng a = rng.fork("w"); }
            void g(Rng& rng) { Rng a = rng.fork("w"); }
        """)
        self.assertEqual(g["collisions"], [])

    def test_edges_name_parent_and_child(self):
        g = graph_for("""
            void f(Rng& rng) {
              Rng child = rng.fork("sub");
            }
        """)
        self.assertEqual(len(g["edges"]), 1)
        e = g["edges"][0]
        self.assertEqual(e["label"], "sub")
        self.assertEqual(e["kind"], "fork")
        self.assertTrue(e["parent"].endswith(":f:rng"))
        self.assertTrue(e["child"].endswith(":f:child"))
        self.assertIn(e["parent"], g["nodes"])
        self.assertIn(e["child"], g["nodes"])

    def test_gtest_bodies_stay_separate(self):
        # TEST(Suite, Name) bodies must not merge into one function scope.
        g = graph_for("""
            TEST(RngTest, ForksLeft) {
              Rng rng(7);
              Rng a = rng.fork("w");
            }
            TEST(RngTest, ForksRight) {
              Rng rng(7);
              Rng a = rng.fork("w");
            }
        """, relpath="tests/test_rng.cpp")
        self.assertEqual(g["collisions"], [])


class CacheEvictionTest(unittest.TestCase):
    """A run deletes every cache entry it neither read nor wrote."""

    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="fairsfe-analyze-test-")
        self.addCleanup(shutil.rmtree, self.root)
        os.makedirs(os.path.join(self.root, "src"))
        for name in ("a.cpp", "b.cpp"):
            with open(os.path.join(self.root, "src", name), "w") as f:
                f.write("int %s() { return 1; }\n" % name[0])
        self.cache_dir = os.path.join(self.root, "cache")

    def entries(self):
        return sorted(name for _dirpath, _dirnames, names in os.walk(self.cache_dir)
                      for name in names if name.endswith(".json"))

    def run_once(self):
        cache = FactsCache(self.cache_dir)
        driver.run_analysis(self.root, None, cache, jobs=1)
        return cache

    def test_stale_entry_is_evicted_and_live_entries_stay(self):
        self.run_once()
        live = self.entries()
        self.assertEqual(len(live), 2)
        stale_dir = os.path.join(self.cache_dir, "ff")
        os.makedirs(stale_dir, exist_ok=True)
        stale = os.path.join(stale_dir, "ff" + "0" * 62 + ".json")
        with open(stale, "w") as f:
            f.write("{}")
        cache = self.run_once()
        self.assertFalse(os.path.exists(stale))
        self.assertEqual(self.entries(), live)
        self.assertEqual((cache.hits, cache.misses), (2, 0))

if __name__ == "__main__":
    unittest.main()
