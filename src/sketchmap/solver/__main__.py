"""Command-line entry: run SMT-LIB2 commands from stdin, answer on stdout.

Each top-level command runs as soon as its line arrives, and whatever it
prints is flushed at once, so the same reader serves a one-shot script
piped in whole and a long-lived session that sends query after query,
each opened by (reset) and closed by an (echo ...) the parent waits for.

Input the solver cannot take (a malformed s-expression, an unsupported
command or head, an ill-sorted term, a bad literal, a width above
qfbv.MAX_WIDTH, a term too large to allocate) stops it with (error "...")
on stderr and exit code 1; terms are read without recursion, so their
depth is bounded by memory alone.  At the end of the input the exit code
is 0.

The portfolio's bundled child runs this same main() without importing
it: the parent sends the compiled code of this module, qfbv, aig and sat
over the child's stdin (portfolio._bundled_code), and the child builds
them as modules of an empty sketchmap.solver package.  So these modules
import nothing of sketchmap outside sketchmap.solver, and only through
relative imports.
"""

import sys

from .qfbv import Reader, Script, SolverInputError


def main() -> int:
    reader = Reader()
    script = Script()
    try:
        for line in sys.stdin:
            for cmd in reader.feed(line):
                script.run_command(cmd)
                if script.output:
                    sys.stdout.write("\n".join(script.output) + "\n")
                    sys.stdout.flush()
                    script.output.clear()
        reader.finish()
    except SolverInputError as e:
        print(f"(error \"{e}\")", file=sys.stderr)
        return 1
    except OverflowError as e:
        print(f"(error \"too large: {e}\")", file=sys.stderr)
        return 1
    except MemoryError:
        print("(error \"out of memory\")", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
