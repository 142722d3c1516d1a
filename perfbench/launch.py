"""Run one repkit CLI command in this process with span tracing on.

    python3 perfbench/launch.py SPAN_FILE COMMAND [ARGS...]

Behaves like ``python -m repkit.cli COMMAND [ARGS...]`` (same stdout and
exit code) and writes the spans of the run to SPAN_FILE.
"""

import sys

from spans import Tracer


def main() -> int:
    span_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import repkit.cli
    tracer.install()
    tracer.op = " ".join(args)
    code = 0
    try:
        tracer.wrap("cli.main", repkit.cli.main)(args, prog_name="repkit")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
