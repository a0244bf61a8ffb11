"""Start rot4's command line the way its console script does.

    python3 bench/launch.py ARGS...              same as `rot4 ARGS...`
    python3 bench/launch.py --trace OUT ARGS...  same, tracing rot4's functions;
                                                 writes {totals, spans} as JSON
                                                 to OUT
    python3 bench/launch.py --import-time MOD    prints the seconds `import MOD` takes

rot4 is found through PYTHONPATH, which the benchmark points at the
checkout's src directory.
"""

import sys
import time


def _traced(out_path: str, argv: list[str]) -> int:
    import json

    import rot4.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = rot4.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--import-time"]:
        start = time.perf_counter()
        __import__(argv[1])
        print(repr(time.perf_counter() - start))
        return 0
    if argv[:1] == ["--trace"]:
        return _traced(argv[1], argv[2:])
    from rot4.cli import entrypoint

    sys.argv = ["rot4", *argv]
    return entrypoint()


if __name__ == "__main__":
    sys.exit(main())
