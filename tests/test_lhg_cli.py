#!/usr/bin/env python3
"""End-to-end checks of the built lhg_cli binary: bad input exits 65
(the CLI's data-error code), a build | verify pipe exits 0.

Usage: test_lhg_cli.py <path/to/lhg_cli> <case>
Registered in tests/CMakeLists.txt as one ctest per case.
"""

import subprocess
import sys


def run(cli, args, stdin=b""):
    return subprocess.run([cli, *args], input=stdin, capture_output=True,
                          timeout=60, check=False)


def expect_exit(result, code, what):
    if result.returncode != code:
        sys.exit(f"{what}: exit {result.returncode}, expected {code}\n"
                 f"stdout: {result.stdout[:400]!r}\n"
                 f"stderr: {result.stderr[:400]!r}")


def trailing_garbage_argument(cli):
    expect_exit(run(cli, ["build", "12x", "4"]), 65, "build 12x 4")


def oversized_edge_list_header(cli):
    expect_exit(run(cli, ["stats"], b"2000000000 1\n0 1\n"), 65,
                "stats on a 2e9-node header")


def duplicate_edge(cli):
    expect_exit(run(cli, ["stats"], b"3 3\n0 1\n1 2\n0 1"), 65,
                "stats on a duplicate edge")


def build_verify_pipe(cli):
    built = run(cli, ["build", "20", "3"])
    expect_exit(built, 0, "build 20 3")
    expect_exit(run(cli, ["verify", "3"], built.stdout), 0,
                "build 20 3 | verify 3")


CASES = {
    "TrailingGarbageArgument": trailing_garbage_argument,
    "OversizedEdgeListHeader": oversized_edge_list_header,
    "DuplicateEdge": duplicate_edge,
    "BuildVerifyPipe": build_verify_pipe,
}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[2] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} <lhg_cli> <{'|'.join(CASES)}>")
    CASES[sys.argv[2]](sys.argv[1])
    print("OK")
