"""The three training regimes on the spiral task, desk scale.

Greedy local training (dgl) updates each block against its own head;
end-to-end training (bp) backpropagates one global loss; the guided regime
(pgl) runs local epochs punctuated by short bursts of global updates every
P epochs.  This prints the epoch calendar and a small three-way comparison.

Run:  python3 demos/03_training_regimes.py   (about a minute on CPU)
"""

from pgl.config import RunConfig, SpiralsSpec
from pgl.network import MlpSpec
from pgl.training import GUIDED, Schedule, mode_of_epoch, train

print("== the guided-epoch calendar (P=10, Q=2) ==")
s = Schedule(E=40, P=10, Q=2, regime="pgl")
line = "".join("G" if mode_of_epoch(e, s) == GUIDED else "." for e in range(40))
print(f"epochs 0..39: {line}")
s = Schedule(E=160, P=10, Q=2, regime="pgl")
print(f"guided epochs in E=160 at P=10, Q=2: {sum(mode_of_epoch(e, s) == GUIDED for e in range(s.E))}")

print("\n== three regimes, one seed, depth-8 MLP on 3-class spirals ==")


def run(regime, P=5, Q=1):
    cfg = RunConfig(network=MlpSpec(widths=[64] * 8, num_classes=3), blocks=4,
                    aux="aux_adapt", regime=regime, epochs=30, P=P, Q=Q,
                    lr0=0.1, batch_size=64, seed=0,
                    dataset=SpiralsSpec(classes=3, n_per_class=256,
                                        test_n_per_class=512, noise=0.05)).validate()
    records, model, _ = train(cfg)
    return records


for regime in ("bp", "pgl", "dgl"):
    records = run(regime)
    guided = sum(r.mode == "guided" for r in records)
    print(f"{regime:4s}: {guided:>2} guided epochs, "
          f"final train acc {records[-1].train_acc:.3f}, test acc {records[-1].test_acc:.3f}")

print("\n== per-block local losses under dgl (greedy blocks stay noisier early) ==")
records = run("dgl")
for r in records[::6] + [records[-1]]:
    losses = " ".join(f"{v:.3f}" for v in r.local_losses)
    print(f"  epoch {r.epoch:>2}  local losses [{losses}]")
