#!/usr/bin/env python3
"""End-to-end checks of the built lhg_cli binary: bad input exits 65
(the CLI's data-error code), a build | verify pipe exits 0, and no
mutated argument list ends the process by a signal.

Usage: test_lhg_cli.py <path/to/lhg_cli> <case>
Registered in tests/CMakeLists.txt as one ctest per case.
"""

import resource
import subprocess
import sys

# Address-space ceiling for mutated argument lists: a size that slips
# past validation fails fast on allocation instead of exhausting memory.
ADDRESS_SPACE_LIMIT = 2 << 30


def sanitized(cli):
    # Sanitizer runtimes reserve terabytes of shadow address space, so an
    # RLIMIT_AS ceiling would stop them before main().
    with open(cli, "rb") as binary:
        data = binary.read()
    return b"__asan_init" in data or b"__tsan_init" in data


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run(cli, args, stdin=b"", limited=False):
    return subprocess.run([cli, *args], input=stdin, capture_output=True,
                          timeout=60, check=False,
                          preexec_fn=limit_address_space if limited else None)


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


def overflowing_k(cli):
    # 2k does not fit in 32 bits: no LHG on 20 nodes, nothing allocated.
    answered = run(cli, ["exists", "20", "1073741824"])
    expect_exit(answered, 0, "exists 20 1073741824")
    lines = answered.stdout.decode().splitlines()
    if len(lines) != 3 or not all("EX=no" in line for line in lines):
        sys.exit(f"exists 20 1073741824: expected EX=no on every line, got "
                 f"{answered.stdout!r}")
    expect_exit(run(cli, ["build", "20", "1073741824"]), 65,
                "build 20 1073741824")


# Sizes that parse and are merely large: each must be refused against the
# shared node cap (10^7) before anything is allocated.
OVERSIZED_ARGV = [
    ["exists", "9223372036854775807", "4"],
    ["exists", "1000000000000", "4"],
    ["route", "2147483647", "4", "0", "1"],
]

# Arguments mutated to the boundaries a numeric field is most likely to
# mishandle: negative, zero, scientific notation, just past int32 and
# int64, a 40-digit run, an empty string, an unknown constraint, and the
# oversized sizes above.  None of them may make lhg_cli allocate without
# bound.
MUTATED_ARGV = [
    ["build", "-5", "4"],
    ["build", "1e9", "4"],
    ["build", "0", "4"],
    ["build", "", "4"],
    ["build", "2147483648", "4"],
    ["build", "9223372036854775808", "4"],
    ["build", "1234567890123456789012345678901234567890", "4"],
    ["build", "20", "-2147483648"],
    ["build", "20", "3", "purple"],
    ["build", "20", "3", "jd"],
    ["verify", "0"],
    ["verify", "-1"],
    ["flood", "0", "99999999999"],
    ["flood", "-1"],
    ["flood", "0", "-3"],
    ["flood", "0", "2147483647"],
    ["flood", "19", "19"],
    ["route", "64", "4", "0", "-1"],
    ["route", "64", "4", "0", "64"],
    ["route", "-64", "4", "0", "1"],
    ["route", "64", "4", "63", "0"],
    ["exists", "-5", "4"],
    ["exists", "20", "-1"],
    ["exists", "9223372036854775808", "4"],
    ["plan", "-5", "4"],
    ["plan", "20", "1"],
    *OVERSIZED_ARGV,
]


def mutated_arguments(cli):
    graph = run(cli, ["build", "20", "3"])
    expect_exit(graph, 0, "build 20 3")
    limited = not sanitized(cli)
    for args in MUTATED_ARGV:
        result = run(cli, args, graph.stdout, limited)
        if result.returncode not in (0, 1, 65):
            sys.exit(f"lhg_cli {' '.join(args)}: exit {result.returncode}, "
                     f"expected 0, 1 or 65 (negative = killed by a signal)\n"
                     f"stderr: {result.stderr[:400]!r}")
        if args in OVERSIZED_ARGV:
            expect_exit(result, 65, " ".join(args))
            if b"limit of 10000000 nodes" not in result.stderr:
                sys.exit(f"lhg_cli {' '.join(args)}: stderr does not name "
                         f"the node cap\nstderr: {result.stderr[:400]!r}")


CASES = {
    "TrailingGarbageArgument": trailing_garbage_argument,
    "OversizedEdgeListHeader": oversized_edge_list_header,
    "DuplicateEdge": duplicate_edge,
    "BuildVerifyPipe": build_verify_pipe,
    "MutatedArguments": mutated_arguments,
    "OverflowingK": overflowing_k,
}

if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[2] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} <lhg_cli> <{'|'.join(CASES)}>")
    CASES[sys.argv[2]](sys.argv[1])
    print("OK")
