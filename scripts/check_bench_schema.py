#!/usr/bin/env python3
"""Structural (and optionally exact) diff for bench JSON artifacts.

Many bench *values* are machine- and load-dependent, so CI cannot pin them.
The *shape* — which fields each table emits, and of what kind — is part of
the bench's contract with downstream tooling, and a refactor that silently
drops or renames a field should fail the build. This script reduces a JSON
document to its recursive shape and diffs two shapes:

  - dict  -> {key: shape(value)} with keys sorted
  - list  -> the union shape of all element shapes (so rows may vary in
             count but not in structure)
  - scalar -> its type name (bool before int: bool is an int in Python)

With --exact, every value must also be equal, except at the paths named by
--ignore (repeatable). A path joins keys with '.' and marks list elements
with '[]', e.g. 'budget_sweep[].window_peak_bytes' or 'rss'; an ignored path
skips its whole subtree. Use it for artifacts whose values are
deterministic by construction (bytes, counts, flags), ignoring the fields
that depend on scheduling or the host.

Usage: check_bench_schema.py [--exact [--ignore PATH]...]
                             GOLDEN.json CANDIDATE.json [GOLDEN CANDIDATE]...
Each GOLDEN/CANDIDATE pair is diffed independently. Exits 0 when every
pair matches, 1 with a per-path report for each pair that differs.
"""

import argparse
import json
import sys


def shape(node):
    if isinstance(node, dict):
        return {key: shape(value) for key, value in sorted(node.items())}
    if isinstance(node, list):
        merged = None
        for element in node:
            merged = merge(merged, shape(element))
        return [merged if merged is not None else "empty"]
    if isinstance(node, bool):
        return "bool"
    if isinstance(node, (int, float)):
        return "number"
    if node is None:
        return "null"
    return type(node).__name__


def merge(a, b):
    """Union of two shapes; mismatches collapse to a tagged pair so the
    diff below reports them at the right path."""
    if a is None:
        return b
    if a == b:
        return a
    if isinstance(a, dict) and isinstance(b, dict):
        return {k: merge(a.get(k), b.get(k)) for k in sorted(set(a) | set(b))}
    if isinstance(a, list) and isinstance(b, list):
        return [merge(a[0], b[0])]
    return ("mismatch", a, b)


def diff(golden, candidate, path, out):
    if isinstance(golden, dict) and isinstance(candidate, dict):
        for key in sorted(set(golden) | set(candidate)):
            here = f"{path}.{key}" if path else key
            if key not in candidate:
                out.append(f"missing field: {here}")
            elif key not in golden:
                out.append(f"new field: {here}")
            else:
                diff(golden[key], candidate[key], here, out)
        return
    if isinstance(golden, list) and isinstance(candidate, list):
        diff(golden[0], candidate[0], path + "[]", out)
        return
    if golden != candidate:
        out.append(f"type changed at {path}: {golden!r} -> {candidate!r}")


def value_diff(golden, candidate, path, ignore, out):
    if path in ignore:
        return
    if isinstance(golden, dict) and isinstance(candidate, dict):
        for key in sorted(set(golden) & set(candidate)):
            here = f"{path}.{key}" if path else key
            value_diff(golden[key], candidate[key], here, ignore, out)
        return
    if isinstance(golden, list) and isinstance(candidate, list):
        if len(golden) != len(candidate):
            out.append(f"length changed at {path}: "
                       f"{len(golden)} -> {len(candidate)}")
        for g, c in zip(golden, candidate):
            value_diff(g, c, path + "[]", ignore, out)
        return
    if golden != candidate:
        out.append(f"value changed at {path}: {golden!r} -> {candidate!r}")


def check_pair(golden_path, candidate_path, exact, ignore):
    with open(golden_path) as f:
        golden = json.load(f)
    with open(candidate_path) as f:
        candidate = json.load(f)
    problems = []
    diff(shape(golden), shape(candidate), "", problems)
    if exact:
        value_diff(golden, candidate, "", ignore, problems)
    what = "values" if exact else "schema"
    if problems:
        print(f"bench {what} drift ({golden_path} vs {candidate_path}):")
        for p in problems:
            print(f"  {p}")
        return False
    print(f"bench {what} OK: {candidate_path} matches {golden_path}")
    return True


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff bench JSON artifacts by shape, or exactly.")
    parser.add_argument("--exact", action="store_true",
                        help="also require equal values")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="PATH",
                        help="with --exact, a path whose values may differ")
    parser.add_argument("files", nargs="+",
                        metavar="GOLDEN CANDIDATE")
    args = parser.parse_args(argv[1:])
    if len(args.files) % 2 != 0:
        parser.error("files must come in GOLDEN CANDIDATE pairs")
    if args.ignore and not args.exact:
        parser.error("--ignore needs --exact")
    ok = True
    for i in range(0, len(args.files), 2):
        ok &= check_pair(args.files[i], args.files[i + 1], args.exact,
                         set(args.ignore))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
