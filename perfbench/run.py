"""Product-path benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload oneshot-analyze --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout: the program under test is imported
from ``./src``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run (spans go to ``.perfbench/``).  Earlier lines carry the scaling-fit
points or the per-size-band rows.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("oneshot-analyze", "oneshot-lint", "serve-mixed")


def _import_program() -> None:
    """Put the checkout's ``src`` first and insist the program comes
    from there: a benchmark without its program must fail, not measure
    some other copy."""
    sys.path[:0] = [SRC, HERE]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, "
                         f"not from {SRC}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload; returns ``attempted``, ``failed``, ``metrics``
    and the diagnostic extras (``problems``, ``fit`` or ``rows``)."""
    if workload == "serve-mixed":
        import serve_mixed

        return serve_mixed.run(seed, seconds, trace, ROOT, tiny=tiny)
    import oneshot

    return oneshot.run(workload, seed, seconds, trace, ROOT, tiny=tiny)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for problem in out.get("problems", ()):
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    for point in out.get("fit", ()):
        print(json.dumps({"fit_point": point}))
    for row in out.get("rows", ()):
        print(json.dumps({"row": row}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
