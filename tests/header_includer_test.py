#!/usr/bin/env python3
"""Fails when a header under src/ has no includer outside its own .cc (dead code).

    python3 tests/header_includer_test.py
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ["src", "tests", "bench", "tools", "examples", "perfbench"]
INCLUDE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+\.h)"', re.M)

includers = {}  # header -> files that include it
headers = []
for top in SCANNED:
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in names:
            if not name.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), ROOT)
            if top == "src" and name.endswith(".h"):
                headers.append(rel)
            for header in INCLUDE.findall(open(os.path.join(ROOT, rel)).read()):
                includers.setdefault(header, set()).add(rel)

orphans = sorted(h for h in headers if not includers.get(h, set()) - {h[:-2] + ".cc"})
for header in orphans:
    print(f"{header}: no includer outside {header[:-2]}.cc")
sys.exit(1 if orphans else 0)
