"""Traced CLI child: installs the tracer's wrappers, then runs loopshift's CLI.

    python3 perfbench/launcher.py SPANS_OUT.json <loopshift CLI arguments>

Writes the spans, counts and the time ``import loopshift.cli`` took to
SPANS_OUT.json and exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import tracing

    t0 = time.perf_counter_ns()
    import loopshift.cli
    import_ns = time.perf_counter_ns() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return loopshift.cli.main(argv)
    except SystemExit as exc:  # usage errors exit through argparse
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        export = tracer.export()
        export["import_ns"] = import_ns
        Path(spans_out).write_text(json.dumps(export))


if __name__ == "__main__":
    sys.exit(main())
