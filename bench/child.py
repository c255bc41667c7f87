"""Run one CLI request in this fresh interpreter; print one JSON result line.

Usage: python3 child.py SRC SPANS REQUEST_ID [ARG ...]

SRC is the directory that holds the ``coxeter_ehrhart`` package.  SPANS is
"-" for an untraced run, or the file to write the request's spans
to, in which case the package's public functions are traced.  With no ARG
the child only imports the package.  ``import_s`` covers the package import
alone and ``main_s`` the call of ``cli.main`` (parsing, work and rendering),
so interpreter start-up counts in neither.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
_start = time.perf_counter()
import coxeter_ehrhart.cli as cli  # noqa: E402

_imported = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    spans_path, request_id, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    src = os.path.realpath(sys.argv[1])
    result = {
        "import_s": _imported - _start,
        "package": os.path.realpath(cli.__file__).startswith(src + os.sep),
    }
    if argv:
        tracer = None
        if spans_path != "-":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result["rc"] = cli.main(argv + ["--format", "json"])
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception:  # reported as a failed request, never raised
            result["error"] = traceback.format_exc()
        result["main_s"] = time.perf_counter() - start
        result["stdout"] = out.getvalue()
        result["stderr"] = err.getvalue()
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["absent"] = tracer.absent
            tracer.write(spans_path, request_id)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
