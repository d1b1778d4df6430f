"""Driving the command-line surface end to end from Python: write a config,
train, verify determinism, evaluate the checkpoint, and estimate memory.

Run:  python3 demos/05_cli_roundtrip.py
"""

import json
import tempfile
from pathlib import Path

from pgl.cli import main

config = {
    "network": {"kind": "mlp", "widths": [32, 32, 32, 32], "num_classes": 3},
    "blocks": 2,
    "regime": "pgl",
    "epochs": 12,
    "P": 5, "Q": 1,
    "lr0": 0.1,
    "batch_size": 32,
    "seed": 0,
    "dataset": {"kind": "spirals", "classes": 3, "n_per_class": 128,
                "test_n_per_class": 128, "noise": 0.05},
}

with tempfile.TemporaryDirectory(prefix="pgl_demo_") as tmp:
    workdir = Path(tmp)
    config["out_dir"] = str(workdir / "run1")
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    print(f"config written to {cfg_path}\n")

    print("== pgl train ==")
    main(["train", "--config", str(cfg_path)])

    print("\n== determinism: same config + seed, second run ==")
    main(["train", "--config", str(cfg_path), "--out", str(workdir / "run2")])
    b1 = (workdir / "run1" / "metrics.csv").read_bytes()
    b2 = (workdir / "run2" / "metrics.csv").read_bytes()
    print(f"metrics.csv byte-identical across runs: {b1 == b2}")

    print("\n== pgl eval (reload the checkpoint) ==")
    main(["eval", "--ckpt", str(workdir / "run1" / "final.ckpt"), "--config", str(cfg_path)])

    print("\n== pgl memest ==")
    main(["memest", "--config", str(cfg_path)])

    print("\n== first lines of the metrics file ==")
    for line in (workdir / "run1" / "metrics.csv").read_text().splitlines()[:4]:
        print(f"  {line}")
