"""Write the golden outputs of every catalog op.

    python3 perfbench/make_golden.py [workload ...]

Run from the root of a checkout at the commit whose outputs are the
reference. Each op is run once, its key outputs stored under its key and
parameter fingerprint, and then checked against what was stored, so the
independent routes must hold before a golden file is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def make(workload: str, root: Path) -> int:
    import inputs
    import workloads

    catalog = inputs.catalog(workload)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        inputs.write_files(catalog, Path(tmp))
        runners = workloads.prepare(catalog, Path(tmp))
        goldens = {}
        tally = workloads.Tally()
        for op in catalog.ops():
            out = runners[op.key]()
            goldens[op.key] = {"sig": op.sig, **workloads.summarize(op, out)}
            workloads.check(op, out, None, goldens[op.key], tally)
    if tally.failed:
        print(f"{workload}: {tally.failed} of {tally.attempted} units fail their checks:",
              *tally.notes, sep="\n  ", file=sys.stderr)
        return 1
    lines = [json.dumps(k) + ": " + json.dumps(v) for k, v in goldens.items()]
    text = '{"workload": %s, "ops": {\n%s\n}}\n' % (json.dumps(workload), ",\n".join(lines))
    (HERE / "golden").mkdir(exist_ok=True)
    (HERE / "golden" / f"{workload}.json").write_text(text, encoding="utf-8")
    print(f"{workload}: {len(goldens)} ops, {tally.attempted} units checked")
    return 0


def main(argv: list[str]) -> int:
    import inputs

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    status = 0
    for workload in argv or inputs.WORKLOADS:
        status |= make(workload, root)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
