"""One benchmark op: import trisol from the checkout and call `trisol.cli.main`.

Run as `python3 perfbench/child.py RESULT_JSON [--trace] [--probe] -- CLI_ARGS...`
from a checkout root.  Writes the monotonic time at which `main` was entered
(the parent subtracts its spawn time to get the set-up time), the wall time
of `main`, its return code, the name of any exception it raised, and with
`--trace` the spans and counters of tracer.py.  `--probe` stops before
`main`, to sample set-up time alone.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _record_errors(cli, result):
    """Keep the class name of an exception a subcommand raises; main still
    turns it into its exit code and stderr message."""
    for name in ("cmd_solve", "cmd_oracle"):
        handler = getattr(cli, name, None)
        if handler is None:
            continue

        def wrapper(cfg, handler=handler):
            try:
                return handler(cfg)
            except Exception as exc:
                result["error"] = type(exc).__name__
                raise
        setattr(cli, name, wrapper)


def run(result_path: str, trace: bool, probe: bool, argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import trisol.cli as cli
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"imported trisol from {cli.__file__}, not from this checkout")
    result = {"error": None}
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    _record_errors(cli, result)
    result["main_entered"] = time.monotonic()
    if probe:
        Path(result_path).write_text(json.dumps(result))
        os._exit(0)     # skip interpreter teardown: only set-up is sampled
    start = time.perf_counter()
    try:
        result["rc"] = cli.main(argv)
    except BaseException as exc:  # a traceback out of main is itself a finding
        result["error"] = type(exc).__name__
        result["rc"] = None
        raise
    finally:
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = tracer.record()
        Path(result_path).write_text(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    args = sys.argv[1:]
    split = args.index("--")
    flags = args[1:split]
    sys.exit(run(args[0], "--trace" in flags, "--probe" in flags, args[split + 1:]))
