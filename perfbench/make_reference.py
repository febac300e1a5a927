"""Write the reference stdout of every fixed CLI command of the benchmark.

Run from the repository root when an intended change alters an output:

    python3 perfbench/make_reference.py

Masked keys (see ``workloads.MASKED_KEYS``) are stored masked.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, argv in workloads.CLI_COMMANDS.items():
        rc, text = workloads.run_cli(argv)
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return 1
        (workloads.REFERENCE_DIR / f"{name}.out").write_bytes(
            workloads.masked(name, text).encode("utf-8"))
        print(f"wrote {name}.out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
