"""fairsfe-analyze driver: TU collection, caching, parallelism, output.

Pipeline per run:

  1. collect the TU set — translation units named by compile_commands.json
     (when given) plus every header under the scan roots, so facts from
     header-only types (Message, AuthShare2) participate;
  2. extract per-TU facts, served from the content-hash cache when the file
     is unchanged, farmed out to a process pool otherwise;
  3. run the global analyses (analyses.py) over the merged facts, which
     carry each TU's token-rule findings (rules.py);
  4. apply LINT-ALLOW suppressions, emit unused-allow (also for an allow
     naming no known rule) and allow-missing-reason findings;
  5. render text / json / sarif.

Exit status: 0 clean, 1 findings, 2 usage/environment errors.
"""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from __init__ import ANALYZER_NAME, ANALYZER_VERSION  # noqa: E402
import analyses  # noqa: E402
import sarif  # noqa: E402
import tu  # noqa: E402
from cache import FactsCache, key_for  # noqa: E402

CPP_EXTENSIONS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")
SCAN_ROOTS = ("src", "bench", "examples", "tests")
FIXTURE_SUBDIR = os.path.join("scripts", "lint_fixtures")


def collect_files(root, compile_commands):
    """TU set: compile_commands entries (if given) + walked sources/headers."""
    files = set()
    have_cc = False
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
            have_cc = True
        except (OSError, ValueError, KeyError) as e:
            print("fairsfe-analyze: warning: cannot read %s: %s; falling back "
                  "to a directory walk" % (compile_commands, e),
                  file=sys.stderr)
    for scan_root in SCAN_ROOTS:
        base = os.path.join(root, scan_root)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if have_cc and not name.endswith((".h", ".hh", ".hpp")):
                    continue  # TU set comes from compile_commands
                if name.endswith(CPP_EXTENSIONS):
                    files.add(os.path.relpath(
                        os.path.join(dirpath, name), root))
    return sorted(f.replace(os.sep, "/") for f in files)


def _extract_worker(item):
    relpath, text = item
    return tu.extract_facts(relpath, text)


def extract_all(root, rels, cache, jobs):
    """Facts for every TU, cache-first, misses in parallel."""
    facts_by_rel = {}
    misses = []
    for rel in rels:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print("fairsfe-analyze: warning: cannot read %s: %s" % (rel, e),
                  file=sys.stderr)
            continue
        key = key_for(rel, text)
        facts = cache.get(key)
        if facts is not None:
            facts_by_rel[rel] = facts
        else:
            misses.append((rel, text, key))
    if misses:
        items = [(rel, text) for rel, text, _ in misses]
        if jobs > 1 and len(items) > 1:
            with multiprocessing.Pool(jobs) as pool:
                results = pool.map(_extract_worker, items, chunksize=4)
        else:
            results = [_extract_worker(it) for it in items]
        for (rel, _text, key), facts in zip(misses, results):
            facts_by_rel[rel] = facts
            cache.put(key, facts)
    return [facts_by_rel[rel] for rel in sorted(facts_by_rel)]


def apply_allows(findings, facts_list):
    """Suppress findings covered by LINT-ALLOW(rule): reason, then report
    unused, unknown and reasonless allows."""
    allow_map = {}  # (path, line, rule) -> entry {used, reason, line}
    entries = []
    for facts in facts_list:
        path = facts["relpath"]
        for target, lst in facts["allows"].items():
            for rule, reason, lineno in lst:
                e = {"path": path, "target": int(target), "rule": rule,
                     "reason": reason, "line": lineno, "used": False}
                allow_map[(path, int(target), rule)] = e
                entries.append(e)
    kept = []
    for f in findings:
        e = allow_map.get((f["path"], f["line"], f["rule"]))
        if e is not None and e["reason"]:
            e["used"] = True
            continue
        kept.append(f)
    for e in entries:
        if e["rule"] not in analyses.RULE_NAMES:
            kept.append({"rule": "unused-allow", "path": e["path"],
                         "line": e["line"], "col": 1,
                         "message": "LINT-ALLOW names unknown rule `%s`"
                                    % e["rule"]})
        elif not e["reason"]:
            kept.append({"rule": "allow-missing-reason", "path": e["path"],
                         "line": e["line"], "col": 1,
                         "message": "LINT-ALLOW(%s) must carry a reason "
                                    "after the colon" % e["rule"]})
        elif not e["used"]:
            kept.append({"rule": "unused-allow", "path": e["path"],
                         "line": e["line"], "col": 1,
                         "message": "LINT-ALLOW(%s) suppresses nothing on "
                                    "line %d — remove it"
                                    % (e["rule"], e["target"])})
    kept.sort(key=lambda f: (f["path"], f["line"], f["col"], f["rule"]))
    return kept


def run_analysis(root, compile_commands, cache, jobs, only_files=None):
    rels = collect_files(root, compile_commands)
    facts_list = extract_all(root, rels, cache, jobs)
    cache.evict_stale()
    findings = apply_allows(analyses.run_all(facts_list), facts_list)
    if only_files is not None:
        keep = {f.replace(os.sep, "/") for f in only_files}
        findings = [f for f in findings if f["path"] in keep]
    return findings, len(facts_list)


def changed_files(root):
    """Files changed vs. the merge-base with the default branch + worktree."""
    def git(*args):
        return subprocess.run(["git", "-C", root] + list(args),
                              capture_output=True, text=True)
    base = None
    for ref in ("origin/main", "main"):
        r = git("merge-base", "HEAD", ref)
        if r.returncode == 0:
            base = r.stdout.strip()
            break
    names = set()
    if base:
        r = git("diff", "--name-only", base, "HEAD")
        if r.returncode == 0:
            names.update(r.stdout.split())
    r = git("diff", "--name-only", "HEAD")
    if r.returncode == 0:
        names.update(r.stdout.split())
    r = git("ls-files", "--others", "--exclude-standard")
    if r.returncode == 0:
        names.update(r.stdout.split())
    return sorted(n for n in names if n.endswith(CPP_EXTENSIONS))


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

def run_self_test(root):
    """Each immediate subdirectory of scripts/lint_fixtures/ is one
    analysis universe; file paths inside it are mapped under src/ so layer
    scoping applies (loop_fork/mpc/a.cc analyzes as src/mpc/a.cc).
    Findings must equal the EXPECT(rule) markers exactly."""
    import re
    expect_re = re.compile(r"EXPECT\((?P<rule>[a-z-]+)\)")
    fixture_root = os.path.join(root, FIXTURE_SUBDIR)
    if not os.path.isdir(fixture_root):
        print("SELF-TEST FAIL: no fixtures under %s" % fixture_root)
        return 1
    failures = 0
    universes = 0
    for uni in sorted(os.listdir(fixture_root)):
        uni_dir = os.path.join(fixture_root, uni)
        if not os.path.isdir(uni_dir):
            continue
        facts_list = []
        expected = set()
        for dirpath, dirnames, filenames in os.walk(uni_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(CPP_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, uni_dir).replace(os.sep, "/")
                pretend = "src/" + rel
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                for lineno, line in enumerate(text.split("\n"), start=1):
                    for m in expect_re.finditer(line):
                        expected.add((pretend, lineno, m.group("rule")))
                facts_list.append(tu.extract_facts(pretend, text))
        if not facts_list:
            continue
        universes += 1
        findings = apply_allows(analyses.run_all(facts_list), facts_list)
        got = {(f["path"], f["line"], f["rule"]) for f in findings}
        for path, lineno, rule in sorted(expected - got):
            print("SELF-TEST FAIL %s/%s:%d: expected [%s], not flagged"
                  % (uni, path, lineno, rule))
            failures += 1
        for path, lineno, rule in sorted(got - expected):
            print("SELF-TEST FAIL %s/%s:%d: unexpected [%s]"
                  % (uni, path, lineno, rule))
            failures += 1
    if universes == 0:
        print("SELF-TEST FAIL: no fixture universes under %s" % fixture_root)
        return 1
    if failures:
        print("fairsfe-analyze self-test: %d failure(s) over %d universes"
              % (failures, universes))
        return 1
    print("fairsfe-analyze self-test: OK (%d universes)" % universes)
    return 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog=ANALYZER_NAME,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        epilog="examples:\n"
               "  python3 scripts/fairsfe_analyze/__main__.py "
               "--compile-commands build-lint/compile_commands.json\n"
               "  python3 scripts/fairsfe_analyze/__main__.py --self-test\n"
               "  python3 scripts/fairsfe_analyze/__main__.py "
               "--changed-only --format sarif\n")
    ap.add_argument("--root", default=None,
                    help="repository root (default: grandparent of this file)")
    ap.add_argument("--compile-commands", default=None, metavar="JSON",
                    help="compile_commands.json to take the TU set from")
    ap.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text", help="output format (default: text)")
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker processes (default: cpu count)")
    ap.add_argument("--cache-dir", default=None,
                    help="facts cache directory "
                         "(default: <root>/build-lint/fairsfe-analyze-cache)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the facts cache entirely")
    ap.add_argument("--changed-only", action="store_true",
                    help="report findings only for files changed vs. the "
                         "merge-base (facts still come from the whole tree)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus under scripts/lint_fixtures/")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="report findings only for these files")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir))
    if args.list_rules:
        for name, desc, scope in analyses.RULES:
            print("%-24s [%s] %s" % (name, scope, desc))
        return 0
    if args.self_test:
        return run_self_test(root)

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.path.join(
            root, "build-lint", "fairsfe-analyze-cache")
    cache = FactsCache(cache_dir)
    jobs = args.jobs or (os.cpu_count() or 1)

    only = None
    if args.changed_only:
        only = changed_files(root)
        if args.files:
            only = sorted(set(only) | {os.path.relpath(
                os.path.abspath(f), root) for f in args.files})
    elif args.files:
        only = [os.path.relpath(os.path.abspath(f), root) for f in args.files]

    findings, n_tus = run_analysis(root, args.compile_commands, cache, jobs,
                                   only_files=only)
    out = sarif.render(findings, args.format, ANALYZER_NAME, ANALYZER_VERSION,
                       analyses.RULES)
    if out:
        print(out)
    if args.format == "text":
        if findings:
            print("fairsfe-analyze: %d finding(s) over %d TUs "
                  "(cache: %d hit, %d miss)"
                  % (len(findings), n_tus, cache.hits, cache.misses))
        else:
            print("fairsfe-analyze: clean (%d TUs; cache: %d hit, %d miss)"
                  % (n_tus, cache.hits, cache.misses))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
