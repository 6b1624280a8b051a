#!/usr/bin/env python3
"""Size report: lines per ``src/repro`` package and config fields.

ROADMAP aim 2 ("the same behaviour from the least code") as two numbers
per run: ``make loc`` prints a markdown table, CI appends it to the job
summary.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

lines = Counter()
for path in sorted(SRC.rglob("*.py")):
    package = path.relative_to(SRC).parts[0] if path.parent != SRC else "(top level)"
    lines[package] += len(path.read_text().splitlines())
fields = sum(
    isinstance(node, ast.AnnAssign)
    for cls in ast.parse((SRC / "config.py").read_text()).body
    if isinstance(cls, ast.ClassDef)
    for node in cls.body
)
print("| src/repro package | lines |\n|---|---:|")
for package, count in sorted(lines.items()):
    print(f"| {package} | {count} |")
print(f"| **total** | **{sum(lines.values())}** |")
print(f"\n`repro.config` dataclass fields: **{fields}**")
