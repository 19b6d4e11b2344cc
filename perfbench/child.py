"""One workload process: a CLI invocation or the library call `cn`.

    python3 perfbench/child.py [--trace FILE] cli <nilchar arguments...>
    python3 perfbench/child.py [--trace FILE] cn <cartan-matrix-json> <degree>

`cn` computes `nilcone_series(build_root_datum(cartan), degree)` and prints
it in the JSON layout of `nilchar cn --json`. With `--trace`, the layer
boundaries listed in `spans.py` record spans, which are written to FILE when
the process ends. Untraced CLI repetitions do not use this script: they run
`python -m nilchar.cli` directly.
"""

from __future__ import annotations

import json
import sys

from nilchar import build_root_datum, cli, nilcone_series


def run_cn(cartan, degree: int) -> int:
    datum = build_root_datum(cartan)
    series = nilcone_series(datum, degree)
    payload = {"command": "cn", "cartan_matrix": cartan, "degree": degree, "rows": series.to_records()}
    print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    recorder = None
    if trace_path is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(
            recorder,
            spans.BOUNDARIES
            + [
                ("__main__", "run_cn", "cli", None, True),
                ("__main__", "build_root_datum", "config.load", None, True),
            ],
        )
    try:
        kind, args = argv[0], argv[1:]
        if kind == "cli":
            return cli.main(args)
        if kind == "cn":
            return run_cn(json.loads(args[0]), int(args[1]))
        print(f"unknown workload kind {kind!r}", file=sys.stderr)
        return 1
    finally:
        if recorder is not None:
            sys.stdout.flush()
            recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
