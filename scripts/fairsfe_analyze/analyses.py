"""Global analyses over merged per-TU facts.

Four analyses, each a pure function from a list of TU facts dicts
(tu.extract_facts output) to findings:

  lineage     Rng stream lineage: the global fork-label graph, duplicate
              labels under one parent, un-indexed fork() in loops, and
              parent-stream draws after a child fork (protocol layers only);
  taint       secret-flow taint: forward propagation from TAINT-SOURCE
              declarations to transcript/log/check sinks, untainted by
              masking XOR or DECLASSIFY;
  schema      message-schema conformance: kinds encoded but never decoded
              (and vice versa);
  token rules the per-TU findings of rules.py, carried in the facts, plus
              unordered-iteration, which joins a TU's iteration sites with
              the unordered declarations of the headers it includes.

A finding is {"rule", "path", "line", "col", "message"}. LINT-ALLOW
filtering and unused-allow detection live in driver.py so both text and
SARIF output see the same post-suppression stream.
"""

import posixpath

import rules

# Kinds whose decode side is a Reader loop rather than a decode_<kind>()
# helper get an `// ANALYZE-HANDLES(kind)` annotation at the parse site; the
# annotation is the structured equivalent of a decode call.

# Every rule the tool reports, as (name, description, scope): --list-rules
# and the SARIF rules table both read this one list.
RULES = [(r.name, r.message, r.scope) for r in rules.RULES] + [
    ("rng-label-collision",
     "two fork sites derive the same (parent, label[, index]) stream",
     "src"),
    ("rng-fork-in-loop",
     "fork() in a loop body without fork_at(label, i) indexing",
     "src"),
    ("rng-draw-after-fork",
     "draw from a parent stream after a child fork",
     "src/sim|mpc|fair|adversary"),
    ("secret-to-transcript",
     "tainted value reaches a transcript without mask/DECLASSIFY",
     "src"),
    ("secret-to-log",
     "tainted value reaches stdout/stderr/printf without mask/DECLASSIFY",
     "src"),
    ("secret-to-check",
     "tainted value interpolated into a FAIRSFE_CHECK message",
     "src"),
    ("orphan-message-kind",
     "message kind encoded but never decoded, or decoded but never encoded",
     "src"),
    ("unused-declassify",
     "DECLASSIFY marker on a line with no tainted sink",
     "src"),
    ("unused-allow",
     "LINT-ALLOW that suppresses nothing, or names no known rule",
     "everywhere"),
    ("allow-missing-reason",
     "LINT-ALLOW without a reason",
     "everywhere"),
]
RULE_NAMES = {r[0] for r in RULES}


def _finding(rule, path, line, col, message):
    return {"rule": rule, "path": path, "line": line, "col": col,
            "message": message}


# ---------------------------------------------------------------------------
# 1. Rng stream lineage
# ---------------------------------------------------------------------------

def build_fork_graph(facts_list):
    """Global fork-label graph.

    Nodes are streams: the root of each TU-function's parent expressions plus
    one node per fork site. Edges go parent -> child, labelled with the fork
    label and kind. Collisions: two *distinct* sites deriving the same
    (scope, parent, label) where the derivation cannot be disambiguated —
    both plain fork() (stream identity then depends on call order), or both
    fork_at() with the same literal index.
    """
    nodes = {}
    edges = []
    sites = {}  # (path, fn, parent, label) -> [fork event + path/fn]
    for facts in facts_list:
        path = facts["relpath"]
        for fn in facts["functions"]:
            for fk in fn["forks"]:
                parent_key = "%s:%s:%s" % (path, fn["name"], fk["parent"])
                child_name = fk["target"] or "%s@%d" % (fk["label"] or "?",
                                                        fk["line"])
                child_key = "%s:%s:%s" % (path, fn["name"], child_name)
                nodes.setdefault(parent_key, {"path": path, "fn": fn["name"],
                                              "var": fk["parent"]})
                nodes.setdefault(child_key, {"path": path, "fn": fn["name"],
                                             "var": child_name})
                edges.append({
                    "parent": parent_key, "child": child_key,
                    "label": fk["label"], "kind": fk["kind"],
                    "index_lit": fk["index_lit"], "line": fk["line"],
                    "col": fk["col"], "path": path,
                })
                if fk["label"] is not None:
                    # Keyed by the parent's declaration scope id, so a fresh
                    # `Rng rng(seed)` in each of several sibling blocks (or
                    # lambdas) never reads as one shared stream.
                    key = (path, fn["name"], fk["parent"],
                           fk.get("psid", -1), fk["label"])
                    sites.setdefault(key, []).append(dict(fk, path=path,
                                                          fn=fn["name"]))
    collisions = []
    for key, evts in sites.items():
        lines = {e["line"] for e in evts}
        if len(lines) < 2:
            continue
        plain = [e for e in evts if e["kind"] == "fork"]
        if len({e["line"] for e in plain}) >= 2:
            collisions.append({"key": key, "events": plain,
                               "why": "two fork() sites share the label; "
                                      "stream identity depends on call order"})
            continue
        by_index = {}
        for e in evts:
            if e["kind"] == "fork_at" and e["index_lit"] is not None and \
                    not e["index_idents"]:
                by_index.setdefault(e["index_lit"], []).append(e)
        for idx, same in by_index.items():
            if len({e["line"] for e in same}) >= 2:
                collisions.append({"key": key, "events": same,
                                   "why": "two fork_at() sites use literal "
                                          "index %s" % idx})
    return {"nodes": nodes, "edges": edges, "collisions": collisions}


def analyze_lineage(facts_list):
    findings = []
    graph = build_fork_graph(facts_list)
    for coll in graph["collisions"]:
        path, fn, parent = coll["key"][0], coll["key"][1], coll["key"][2]
        label = coll["key"][-1]
        if not path.startswith("src/"):
            continue  # tests/bench build ad-hoc streams; goldens pin src only
        evts = sorted(coll["events"], key=lambda e: e["line"])
        first = evts[0]
        others = ", ".join("line %d" % e["line"] for e in evts[1:])
        findings.append(_finding(
            "rng-label-collision", path, first["line"], first["col"],
            'duplicate stream derivation %s.fork*("%s") in %s() (also at %s): '
            "%s" % (parent, label, fn, others, coll["why"])))

    for facts in facts_list:
        path = facts["relpath"]
        if not path.startswith("src/"):
            continue
        for fn in facts["functions"]:
            # fork() in a loop whose parent survives across iterations: every
            # iteration advances the same counter, so stream identity depends
            # on iteration order/count. fork_at(label, i) states the index.
            for fk in fn["forks"]:
                if fk["kind"] == "fork" and fk["in_loop"] and \
                        not fk["parent_local_to_loop"]:
                    findings.append(_finding(
                        "rng-fork-in-loop", path, fk["line"], fk["col"],
                        '%s.fork("%s") inside a loop in %s(): use '
                        'fork_at("%s", i) so the stream index is explicit '
                        "and iteration-order independent"
                        % (fk["parent"], fk["label"], fn["name"],
                           fk["label"])))
            # Draws from a parent after a child fork (protocol layers): the
            # parent's draw stream and its children interleave, so reordering
            # the fork silently reshuffles every downstream sample.
            if not rules.under(path, rules.PROTOCOL_DIRS):
                continue
            first_fork = {}
            for fk in fn["forks"]:
                p = (fk["parent"], fk.get("psid", -1))
                if p not in first_fork or fk["line"] < first_fork[p]["line"]:
                    first_fork[p] = fk
            for dr in fn["draws"]:
                fk = first_fork.get((dr["parent"], dr.get("psid", -1)))
                if fk is not None and dr["line"] > fk["line"]:
                    findings.append(_finding(
                        "rng-draw-after-fork", path, dr["line"], dr["col"],
                        "%s.%s() in %s() draws from a stream already forked "
                        'at line %d (fork "%s"): draw before forking, or '
                        "fork a dedicated child for these draws"
                        % (dr["parent"], dr["method"], fn["name"],
                           fk["line"], fk["label"])))
    return findings


# ---------------------------------------------------------------------------
# 2. Secret-flow taint
# ---------------------------------------------------------------------------

_SINK_RULE = {"transcript": "secret-to-transcript", "log": "secret-to-log",
              "check": "secret-to-check"}


def _collect_sources(facts_list):
    types, funcs, members = {}, {}, {}
    for facts in facts_list:
        for src in facts["taint_sources"]:
            subj = src["subject"]
            if subj is None:
                continue
            dst = {"type": types, "func": funcs, "member": members}[src["kind"]]
            dst[subj] = src["category"]
    return types, funcs, members


def analyze_taint(facts_list):
    findings = []
    types, funcs, members = _collect_sources(facts_list)
    for facts in facts_list:
        path = facts["relpath"]
        if not rules.under(path, ("src",)):
            continue
        declassified = {d["target"]: d for d in facts["declassify"]}
        declassify_used = set()
        for fn in facts["functions"]:
            tainted = {}  # var -> category
            for typ, var in fn.get("params", []):
                if typ in types:
                    tainted[var] = types[typ]
                if var in members:
                    tainted[var] = members[var]
            # Forward propagation to fixpoint (loops feed taint backwards).
            for _round in range(4):
                changed = False
                for st in fn["stmts"]:
                    changed |= _propagate(st, tainted, types, funcs, members)
                if not changed:
                    break
            # Sink pass with fresh positional state so a taint introduced
            # *after* a sink (later loop iterations aside) does not flag it.
            state = dict((v, c) for v, c in tainted.items())
            for st in fn["stmts"]:
                for sink in st["sinks"]:
                    hot = sorted(v for v in sink["args"] if v in state)
                    if not hot or st["xor"]:
                        continue
                    if st["line"] in declassified:
                        declassify_used.add(st["line"])
                        continue
                    cat = state[hot[0]]
                    findings.append(_finding(
                        _SINK_RULE[sink["sink"]], path, sink["line"],
                        sink["col"],
                        "%s value `%s` reaches %s sink in %s() without a "
                        "masking XOR or DECLASSIFY(reason)"
                        % (cat, hot[0], sink["sink"], fn["name"])))
        for target, d in sorted(declassified.items()):
            if target not in declassify_used:
                findings.append(_finding(
                    "unused-declassify", path, d["line"], 1,
                    "DECLASSIFY(%s) marks line %d but no tainted value "
                    "reaches a sink there" % (d["reason"], target)))
    return findings


def _propagate(st, tainted, types, funcs, members):
    """One forward step over a statement; returns True if taint set grew."""
    changed = False
    decl = st["decl"]
    target = st["assign_to"]
    rhs_idents = set(st["idents"])
    if target:
        rhs_idents.discard(target)

    newly = None
    if decl and decl[0] in types:
        newly = types[decl[0]]
    if target and target in members:
        # `key_ = ...` keeps member sources tainted wherever assigned.
        newly = members[target]
    for name in st["calls"]:
        if name in funcs:
            newly = funcs[name]
    for _recv, meth, _args in st["recv_calls"]:
        if meth in funcs:
            newly = funcs[meth]
    hot = [v for v in rhs_idents if v in tainted or v in members]
    if newly is None and hot and target:
        if st["xor"]:
            return changed  # masking XOR launders the assigned value
        v = hot[0]
        newly = tainted.get(v) or members.get(v)
    # Bare member reads taint the member name itself so sink args match.
    for v in rhs_idents & set(members):
        if v not in tainted:
            tainted[v] = members[v]
            changed = True
    if newly is not None and target and tainted.get(target) != newly:
        tainted[target] = newly
        changed = True
    return changed


# ---------------------------------------------------------------------------
# 3. Message-schema conformance
# ---------------------------------------------------------------------------

def analyze_schema(facts_list):
    findings = []
    encoded = {}  # kind -> first call site (path, line, col)
    decoded = set()
    handled = set()
    for facts in facts_list:
        path = facts["relpath"]
        for site in facts["kinds"]:
            if not site["is_call"]:
                continue
            kind = site["kind"]
            if site["role"] == "encode":
                encoded.setdefault(kind, (path, site["line"], site["col"]))
            else:
                decoded.add(kind)
        for h in facts["handles"]:
            handled.add(h["kind"])
        for e in facts.get("emits", []):
            encoded.setdefault(e["kind"], (path, e["line"], 1))
    decode_sites = {}
    for facts in facts_list:
        for site in facts["kinds"]:
            if site["is_call"] and site["role"] == "decode":
                decode_sites.setdefault(
                    site["kind"], (facts["relpath"], site["line"], site["col"]))
    for kind, (path, line, col) in sorted(encoded.items()):
        if kind not in decoded and kind not in handled:
            findings.append(_finding(
                "orphan-message-kind", path, line, col,
                'message kind "%s" is encoded here but no counterpart ever '
                "decodes it (no decode_%s() call or ANALYZE-HANDLES(%s) "
                "site)" % (kind, kind, kind)))
    for kind, (path, line, col) in sorted(decode_sites.items()):
        if kind not in encoded and kind not in handled:
            findings.append(_finding(
                "orphan-message-kind", path, line, col,
                'message kind "%s" is decoded here but nothing ever encodes '
                "it (no encode_%s() call)" % (kind, kind)))
    return findings


# ---------------------------------------------------------------------------
# 4. Token rules and unordered iteration
# ---------------------------------------------------------------------------

def analyze_unordered_iteration(facts_list):
    """Iteration sites whose source was declared as an unordered container in
    the TU itself or in an in-repo header it includes directly (resolved
    under src/ first, then beside the TU)."""
    findings = []
    by_rel = {f["relpath"]: f for f in facts_list}
    for facts in facts_list:
        if not facts["unordered_iters"]:
            continue
        path = facts["relpath"]
        names = set(facts["unordered_decls"])
        for inc in facts["includes"]:
            for cand in ("src/" + inc, posixpath.normpath(
                    posixpath.join(posixpath.dirname(path), inc))):
                if cand in by_rel:
                    names.update(by_rel[cand]["unordered_decls"])
                    break
        seen = set()
        for name, line, col in facts["unordered_iters"]:
            if name in names and line not in seen:
                seen.add(line)
                findings.append(_finding(
                    "unordered-iteration", path, line, col,
                    "%s (iterates `%s`)"
                    % (rules.MESSAGES["unordered-iteration"], name)))
    return findings


def run_all(facts_list):
    findings = []
    for facts in facts_list:
        findings.extend(facts["findings"])
    findings.extend(analyze_unordered_iteration(facts_list))
    findings.extend(analyze_lineage(facts_list))
    findings.extend(analyze_taint(facts_list))
    findings.extend(analyze_schema(facts_list))
    findings.sort(key=lambda f: (f["path"], f["line"], f["col"], f["rule"]))
    return findings
