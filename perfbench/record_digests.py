"""Record the stdout digests that corpus-cli checks bundled instances against.

    python3 perfbench/record_digests.py

Run this only at a commit whose outputs are known to be right: the digests
are the byte-identical gate on every later change.  It rewrites
perfbench/corpus_digests.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for label, _, argv, _ in workloads.bundled_ops():
        code, stdout, stderr = workloads.run_cli(argv)
        if code != 0:
            print(f"{label}: exit code {code}: {stderr.strip()}", file=sys.stderr)
            return 1
        digests[label] = workloads.stdout_digest(stdout)
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=2) + "\n",
                                      encoding="utf-8")
    print(f"{len(digests)} digests -> {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
