"""Record the outputs that seed 0 of each workload must reproduce.

    python3 benchmarks/record_reference.py

Runs one round of every workload at full and smoke size and writes
``reference.json``: the metrics.csv digest of each MLP training (compared
byte for byte) and the losses of the ResNet trainings and of every epoch-mode
round (compared within a float32 tolerance).  Re-record only for a change
that is meant to alter the arithmetic.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0


def main() -> int:
    from workloads import WORKLOADS

    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        empty = Path(tmp) / "none.json"
        empty.write_text("{}")
        for name in WORKLOADS:
            for size in ("full", "smoke"):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                       "--seconds", "1", "--reference", str(empty)] + (["--smoke"] if size == "smoke" else [])
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                out = HERE.parent / ".bench_out" / name / size / f"result-seed{SEED}-trace0.json"
                result = json.loads(out.read_text())
                if result["failures"]:
                    print(f"{name} {size}: {result['failures']}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[size] = dict(seed=SEED, **result["outputs"])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
