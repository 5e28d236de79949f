"""Run one sysmean CLI call with spans recorded, then write their summary.

Usage: python traced_cli.py SUMMARY.json <sysmean arguments...>
The exit status is the CLI's own.
"""
import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    import sysmean.cli

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = sysmean.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
