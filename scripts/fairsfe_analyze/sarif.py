"""Machine-readable output: SARIF 2.1.0 and plain JSON.

Findings are dicts with rule/path/line/col/message (col optional).
"""

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def to_sarif(findings, tool_name, tool_version, rules_meta=None):
    """Build a SARIF 2.1.0 log dict.

    rules_meta: optional iterable of (name, description, scope) used to fill
    the tool.driver.rules table; rules only seen in findings are synthesized.
    """
    rule_index = {}
    rules = []

    def rule_id(name, desc=""):
        if name not in rule_index:
            rule_index[name] = len(rules)
            rules.append({
                "id": name,
                "shortDescription": {"text": desc or name},
            })
        return rule_index[name]

    for name, desc, scope in (rules_meta or []):
        idx = rule_id(name, desc)
        rules[idx]["properties"] = {"scope": scope}

    results = []
    for f in findings:
        region = {"startLine": int(f["line"])}
        col = f.get("col")
        if col:
            region["startColumn"] = int(col)
        results.append({
            "ruleId": f["rule"],
            "ruleIndex": rule_id(f["rule"]),
            "level": "error",
            "message": {"text": f["message"]},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f["path"]},
                    "region": region,
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "version": tool_version,
                "rules": rules,
            }},
            "results": results,
        }],
    }


def render(findings, fmt, tool_name, tool_version, rules_meta=None):
    """Render findings in `fmt` ∈ {text, json, sarif} to a string."""
    if fmt == "sarif":
        return json.dumps(to_sarif(findings, tool_name, tool_version,
                                   rules_meta), indent=2, sort_keys=True)
    if fmt == "json":
        return json.dumps({"tool": tool_name, "version": tool_version,
                           "findings": findings}, indent=2, sort_keys=True)
    lines = []
    for f in findings:
        col = f.get("col")
        pos = "%s:%d" % (f["path"], f["line"])
        if col:
            pos += ":%d" % col
        lines.append("%s: [%s] %s" % (pos, f["rule"], f["message"]))
    return "\n".join(lines)
