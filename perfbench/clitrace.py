"""Traced cold CLI process: `clitrace.py SPANS_OUT <leolab arguments...>`.

Runs leolab.cli.main in a fresh interpreter, like the `leolab` entry point,
with spans recorded around the library's public functions, then writes the
spans to SPANS_OUT and exits with main's exit code.
"""

import json
import sys

import leolab.cli
import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    code = 0
    try:
        leolab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.take()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
