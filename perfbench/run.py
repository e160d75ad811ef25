"""Repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Options: ``--seed N`` (inputs and op order), ``--seconds S`` (measuring
time), ``--trace 0|1`` (end-to-end metrics, or the traced per-layer run),
``--size full|tiny`` (tiny runs every workload and check in seconds) and
``--expected FILE`` (expected output digests, default
``perfbench/expected.json``).  ``--workload all`` runs every workload and
prints each metric by name and unit.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, the names listed in
``BENCHMARK.json``).  Without the program's sources next to this
directory it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Tuple

import common

WORKLOADS = ("paper-tables", "power-tables", "service-mix")


def _load_spec() -> Dict[str, Any]:
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _program_missing() -> str:
    """Why the program cannot be imported, or an empty string."""
    if not (common.SRC / "repro" / "__init__.py").is_file():
        return f"no program sources under {common.SRC.name}/repro"
    sys.path.insert(0, str(common.SRC))
    try:
        import repro.experiments  # noqa: F401
        import repro.service.client  # noqa: F401
    except Exception as error:  # noqa: BLE001 - reported, then exit 2
        return f"cannot import the program: {type(error).__name__}: {error}"
    return ""


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, size: common.Size,
    expected_path: str,
) -> Tuple[common.Tally, Dict[str, float]]:
    if name == "service-mix":
        import service_mix

        return service_mix.run_service(seed, seconds, traced, size)
    import paper_power

    expected = common.load_expected(expected_path, size.name)
    return paper_power.run_tables(name, seed, seconds, traced, size, expected)


def _metrics(
    spec: Dict[str, Any], measured: Dict[str, float], traced: bool
) -> Dict[str, Dict[str, Any]]:
    """Measured values with their units: every end-to-end metric, or with
    ``traced`` every per-layer metric, each measured by the workload."""
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(measured) != set(listed):
        raise KeyError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(listed) - set(measured))}, "
            f"unlisted {sorted(set(measured) - set(listed))}"
        )
    return {
        name: {"value": float(measured[name]), "unit": unit}
        for name, unit in listed.items()
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(common.SIZES), default="full")
    parser.add_argument("--expected", default="")
    args = parser.parse_args(argv)

    missing = _program_missing()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    spec = _load_spec()
    size = common.SIZES[args.size]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            tally, measured = run_workload(
                name, args.seed, args.seconds, bool(args.trace), size, args.expected
            )
            attempted += tally.attempted
            failed += tally.failed
            reported = _metrics(spec, measured, bool(args.trace))
            if args.workload == "all":
                for metric, entry in reported.items():
                    print(f"{name:14s} {metric:34s} {entry['value']:14.6g} {entry['unit']}")
                reported = {f"{name}/{k}": v for k, v in reported.items()}
            metrics.update(reported)
    finally:
        common.cleanup_tmp()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
