#!/usr/bin/env python3
"""Vectorization gate for the gravity drain loops (gcc only).

Recompiles one translation unit with exactly the flags the build uses (read
from the build tree's compile_commands.json) plus gcc's vectorizer reports
(-fopt-info-vec-optimized -fopt-info-vec-missed), and checks every
`#pragma omp simd` loop in that file: each must be reported "loop vectorized"
somewhere inside its body and never "couldn't vectorize loop". gcc places a
loop's report at the first statement it analyses, so a loop is matched by its
line range, from the `for` line to its closing brace.

The drains are templates instantiated for double and float and cloned per
ISA, so one loop yields several reports; a failure in any one instantiation
or clone shows up as a "couldn't vectorize loop" inside the range.

Run as a ctest (`kernel_vectorize`). `--self-test` proves the gate can fail:
it drops -fno-math-errno from the command line, which puts std::sqrt's errno
branch back into the loops, and asserts that the gate then rejects them.

  tools/vec_gate.py --build-dir build --source src/tree/kernel_backend.cpp
"""

import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+simd\b")
REPORT_RE = re.compile(r"^(?P<path>[^:\s]+):(?P<line>\d+):(?P<col>\d+): "
                       r"(?P<kind>optimized|missed): (?P<msg>.*)$")
ERRNO_FLAG = "-fno-math-errno"


def simd_loops(source_text):
    """(pragma line, for line, last line) of every `#pragma omp simd` loop,
    1-based. The loop's extent is found by brace matching from its `for`."""
    lines = source_text.splitlines()
    loops = []
    for idx, text in enumerate(lines):
        if not PRAGMA_RE.match(text):
            continue
        first = idx + 1
        depth, opened, last = 0, False, None
        for j in range(first, len(lines)):
            for ch in lines[j]:
                if ch == "{":
                    depth, opened = depth + 1, True
                elif ch == "}":
                    depth -= 1
            if opened and depth == 0:
                last = j
                break
        if last is None:
            raise SystemExit(f"vec_gate: cannot find the body of the loop at line {first + 1}")
        loops.append((idx + 1, first + 1, last + 1))
    return loops


def compile_entry(build_dir, source):
    db = pathlib.Path(build_dir) / "compile_commands.json"
    try:
        entries = json.loads(db.read_text())
    except OSError as e:
        raise SystemExit(f"vec_gate: cannot read {db}: {e}")
    for entry in entries:
        path = pathlib.Path(entry["directory"]) / entry["file"]
        if path.resolve() == source.resolve():
            return entry
    raise SystemExit(f"vec_gate: {source} is not in {db}")


def entry_args(entry):
    args = entry.get("arguments") or shlex.split(entry["command"])
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        out.append(a)
    return out


def vectorizer_reports(entry, args, source):
    """Compile with gcc's vectorizer reports; return {line: [(kind, msg)]}
    for reports located in `source`."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = args + ["-o", os.path.join(tmp, "tu.o"),
                      "-fopt-info-vec-optimized", "-fopt-info-vec-missed"]
        proc = subprocess.run(cmd, cwd=entry["directory"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("vec_gate: compile failed:\n" + " ".join(cmd) + "\n" + proc.stderr)
    reports = {}
    for text in proc.stderr.splitlines():
        m = REPORT_RE.match(text)
        if not m:
            continue
        path = pathlib.Path(entry["directory"]) / m["path"]
        if path.resolve() != source.resolve():
            continue
        reports.setdefault(int(m["line"]), []).append((m["kind"], m["msg"]))
    return reports


def check(loops, reports, source_lines):
    """Error strings, one per loop that is not fully vectorized."""
    errors = []
    if not loops:
        errors.append("no `#pragma omp simd` loops found: nothing to gate")
    for pragma, first, last in loops:
        vectorized = missed = 0
        for line in range(first, last + 1):
            for kind, msg in reports.get(line, []):
                if kind == "optimized" and msg.startswith("loop vectorized"):
                    vectorized += 1
                elif kind == "missed" and msg.startswith("couldn't vectorize loop"):
                    missed += 1
        head = f"line {first}: {source_lines[first - 1].strip()}"
        if vectorized == 0 or missed > 0:
            errors.append(f"{head} -- {vectorized} vectorized, {missed} not vectorized")
        else:
            print(f"ok  {head} ({vectorized} vectorized reports)")
    return errors


def run_gate(build_dir, source, drop_errno_flag=False):
    entry = compile_entry(build_dir, source)
    args = entry_args(entry)
    if drop_errno_flag:
        if ERRNO_FLAG not in args:
            raise SystemExit(f"vec_gate: {ERRNO_FLAG} is not on the build's command line")
        args = [a for a in args if a != ERRNO_FLAG]
    text = source.read_text()
    return check(simd_loops(text), vectorizer_reports(entry, args, source), text.splitlines())


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", required=True, help="build tree with compile_commands.json")
    ap.add_argument("--source", required=True, help="translation unit to gate")
    ap.add_argument("--self-test", action="store_true",
                    help=f"verify the gate fails once {ERRNO_FLAG} is dropped")
    args = ap.parse_args()
    source = pathlib.Path(args.source)

    if args.self_test:
        if run_gate(args.build_dir, source):
            print("self-test needs a passing gate, but the build's own flags already fail it")
            return 1
        errors = run_gate(args.build_dir, source, drop_errno_flag=True)
        if not errors:
            print(f"self-test FAILED: the gate still passes without {ERRNO_FLAG}")
            return 1
        print(f"self-test ok: without {ERRNO_FLAG} the gate rejects {len(errors)} loop(s):")
        for e in errors:
            print("  " + e)
        return 0

    errors = run_gate(args.build_dir, source)
    if errors:
        print(f"vec_gate: {len(errors)} drain loop(s) do not vectorize:")
        for e in errors:
            print("  " + e)
        return 1
    print("vec_gate: every `#pragma omp simd` loop vectorizes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
