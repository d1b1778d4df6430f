"""Fast self-test of the benchmark itself (about 10 s).

    python3 benchmarks/selftest.py

Runs both workloads at smoke size, untraced and traced, and checks that
every metric named in BENCHMARK.json prints by name with its unit and sample
count, that the final JSON line has the contracted shape, and that nothing
fails.  Then checks that a deliberately wrong reference digest makes
fail_ratio non-zero, and that the benchmark exits non-zero, printing no
result, when the pgl sources are missing.  Exits 1 on any problem.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")

problems = []


def expect(ok: bool, what: str):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        m = LINE.match(line)
        if m:
            out[m[1]] = (float(m[2]), m[3], int(m[4]))
    return out


def check_maps(bench: dict, metric_map: dict):
    for key in ("end_to_end", "per_layer"):
        mine = [{k: m[k] for k in bench[key][0]} for m in metric_map[key]]
        expect(mine == bench[key], f"metric_map.json {key} disagrees with BENCHMARK.json")
    mine = [{"name": w["name"], "why": w["why"]} for w in metric_map["workloads"]]
    expect(mine == bench["workloads"], "metric_map.json workloads disagree with BENCHMARK.json")


def check_run(workload, trace, names, units):
    proc = run(workload, trace)
    what = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {set(last)}")
    expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
           f"{what}: correct={last['correct']} failed={last['failed']}/{last['attempted']}")
    expect(list(last["metrics"]) == names, f"{what}: result metrics {list(last['metrics'])}")
    printed = printed_metrics(proc.stdout)
    for name in names:
        value, unit, n = printed.get(name, (None, None, -1))
        expect(unit == units[name], f"{what}: {name} printed with unit {unit}, want {units[name]}")
        expect(n >= 1 or trace == 1, f"{what}: {name} printed with sample count {n}")
        expect(last["metrics"].get(name, {}).get("unit") == units[name], f"{what}: {name} unit in JSON")
    expect(printed.get("fail_ratio", (None,))[0] == 0, f"{what}: fail_ratio not printed as 0")


def check_wrong_digest():
    reference = json.loads((HERE / "reference.json").read_text())
    reference["mlp-spirals"]["smoke"]["train"]["pgl"]["metrics_csv_sha256"] = "0" * 64
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wrong = SCRATCH / "wrong-reference.json"
    wrong.write_text(json.dumps(reference))
    proc = run("mlp-spirals", 0, ["--reference", str(wrong)])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    ratio = printed_metrics(proc.stdout).get("fail_ratio", (0,))[0]
    expect(proc.returncode == 0 and last["failed"] > 0 and not last["correct"] and ratio > 0,
           f"a wrong reference digest left fail_ratio at {ratio}")


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("mlp-spirals", 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    check_maps(bench, metric_map)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in bench[key]]
        units = {m["name"]: m["unit"] for m in bench[key]}
        for workload in [w["name"] for w in bench["workloads"]]:
            check_run(workload, trace, names, units)
    check_wrong_digest()
    check_bare_directory()
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
