"""Regenerate ``expected.json``: the digest of every op's output text.

``python3 perfbench/make_expected.py`` runs each op once per size, with
the same child process the benchmark times, and records what it printed.
Run it only when the program's output is meant to change; the Tables 2-9
text is pinned by the golden tables, so normally it never is.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from common import HERE, SIZES, SRC, OpServer
from paper_power import GROUPS, group_key


def expected_for(size_name: str) -> Dict[str, Any]:
    size = SIZES[size_name]
    server = OpServer()
    digests = {}
    try:
        for workload, groups in GROUPS.items():
            length = (
                size.paper_length if workload == "paper-tables" else size.power_length
            )
            for group in groups:
                op = {"tables": list(group), "mode": "direct", "length": length,
                      "cache_dir": None}
                result = server.run(op, 600)
                digests[group_key(group)] = result["digest"]
                if "net_toggles" in result:
                    net_toggles = result["net_toggles"]
    finally:
        server.close()
    return {"digests": digests, "net_toggles": net_toggles}


def main() -> int:
    sys.path.insert(0, str(SRC))
    expected = {name: expected_for(name) for name in sorted(SIZES)}
    with open(HERE / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
