"""The training loop: epoch scheduling, Nesterov SGD with weight decay and
cosine annealing, local and globally-guided epochs, and evaluation.

Three regimes share one loop.  ``dgl`` runs every epoch on per-block local
losses.  ``bp`` runs every epoch end-to-end on the one-block model, plain
backprop of the unsplit network.  ``pgl`` interleaves: local epochs,
punctuated by Q guided epochs whenever the epoch index crosses a multiple
of the period P.  During guidance the global loss updates the backbone
while local losses update only the auxiliary heads.  Every update, local,
global or head, is one ``NesterovSGD.step`` of a parameter group the model
fixed when it was built, so no step walks a layer, and each group's
parameters and velocities are updated in place as one array.  A guided
step is gradient checkpointing with one segment per block: a no-grad pass
stores each block's input, then the blocks are re-forwarded and updated
one at a time, last first, so it holds one block's graph and gradients,
as a local step does, beside the stored inputs.  ``panel`` runs a grid of
configs over seeds and ``paired`` compares two of its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import layers as L
from . import tensor as T
from .errors import ConfigError, ContractError, DomainError, ShapeError
from .memory import eval_rows
from .tensor import Tensor

LOCAL = "local"
GUIDED = "guided"

REGIMES = ("pgl", "dgl", "bp")


@dataclass
class Schedule:
    E: int
    P: int = 10
    Q: int = 2
    regime: str = "pgl"

    def validate(self):
        if self.E < 1:
            raise ConfigError(f"E must be >= 1, got {self.E}")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.regime == "pgl" and not 1 <= self.Q < self.P:
            # P > E is allowed: guidance simply never fires (collapses to dgl).
            raise ConfigError(f"pgl needs 1 <= Q < P, got P={self.P}, Q={self.Q}")


def mode_of_epoch(e: int, schedule: Schedule) -> str:
    """Guided iff some k >= 1 has kP <= e < kP + Q; epoch 0 is always local."""
    if not 0 <= e < schedule.E:
        raise ConfigError(f"epoch {e} out of [0, {schedule.E})")
    if schedule.regime == "dgl":
        return LOCAL
    if schedule.regime == "bp":
        return GUIDED
    return GUIDED if e >= schedule.P and e % schedule.P < schedule.Q else LOCAL


def lr_at(e: int, E: int, lr0: float) -> float:
    """Cosine annealing from lr0 at epoch 0 toward 0 at epoch E."""
    if not 0 <= e < E:
        raise ConfigError(f"epoch {e} out of [0, {E})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * e / E))


class NesterovSGD:
    """g <- grad + wd*theta; v <- mu*v + g; theta <- theta - lr*(g + mu*v).

    ``step`` updates one ``network.ParamGroup`` as one array: it gathers the
    group's gradients, popped from ``backward``'s result, into one array
    beside ``wd * theta``, and updates the group's array and its one velocity
    array in place, in the formula's operation order (IEEE addition and
    multiplication commute, and every operation is elementwise, so every bit
    matches the per-parameter, out-of-place formula).  Beyond the gradients
    a step allocates that one array and one temporary (``mu * v``), each the
    group's size.  Velocities persist across epoch-mode switches; a group's
    first step copies its velocity from its first gradient.  ``velocity``
    maps each stepped group's name to its velocity array, laid out like the
    group's ``data``, so ``group.views`` names its parts.  Weight decay
    applies to every parameter, biases and batchnorm affine terms included.
    """

    def __init__(self, momentum: float = 0.9, weight_decay: float = 1e-4):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {}          # group name -> velocity array

    def step(self, group, grads: dict, lr: float):
        """Update ``group``, popping each of its parameters' gradients out of
        ``grads``; a missing one raises ``ContractError``, a misshapen one
        ``ShapeError``, and so does a parameter whose array is no longer a
        view of the group's, before anything is updated."""
        rebound = group.rebound()
        if rebound is not None:
            raise ContractError(f"parameter {rebound} is no longer a view of group {group.name}'s "
                                "array, which the optimizer steps; write parameters in place")
        mu = np.float32(self.momentum)
        wd = np.float32(self.weight_decay)
        lr = np.float32(lr)
        gd = wd * group.data
        for (name, p), (_, view) in zip(group, group.views(gd)):
            view += _popped_grad(grads, name, p)
        v = self.velocity.get(group.name)
        if v is None:
            v = self.velocity[group.name] = gd.copy()
        else:
            v *= mu
            v += gd
        gd += mu * v
        gd *= lr
        group.data -= gd


def _popped_grad(grads: dict, name: str, p) -> np.ndarray:
    g = grads.pop(p.node_id, None)
    if g is None:
        raise ContractError(f"no gradient for parameter {name}")
    if g.shape != p.shape:
        raise ShapeError(f"gradient shape {list(g.shape)} != param shape {list(p.shape)} ({name})")
    return g.data


# ---------------------------------------------------------------------------
# epochs

def _update(logits: Tensor, y, groups, opt: NesterovSGD, lr: float) -> float:
    """Step each of ``groups`` on the cross entropy of ``logits`` and return
    its value; ``backward`` releases the graph before the optimizer steps."""
    loss = L.softmax_cross_entropy(logits, y)
    grads = T.backward(loss)
    for group in groups:
        opt.step(group, grads, lr)
    return loss.item()


def _local_step(model, j: int, h: Tensor, y, opt: NesterovSGD, lr: float):
    """Update block j (and its head) from its local loss on an untracked input.

    Returns (loss value, an untracked tensor over X_j's array), the array
    a guided step stores for block j+1, with the bytes and strides its
    producer gave it.  The step holds X_j's array, not the
    tensor: a ``tensor.Remade`` would pin the arrays its rebuild reads
    through the update, and while the array is held, the head's conv reads
    it back without a rebuild.  Block j's graph dies on return, before
    block j+1 runs forward; inlined into ``local_epoch`` it would live
    through that forward and raise the local step's peak.
    """
    x_j, logits = model.forward_local(h, j, train=True)
    out = x_j.data
    del x_j
    # block J has no head: its classifier gives the logits
    groups = [model.block_params[j - 1], *model.head_params[j - 1:j]]
    return _update(logits, y, groups, opt, lr), Tensor(out)


def local_epoch(model, batch_list, opt: NesterovSGD, lr: float) -> list:
    """One sweep of greedy per-block updates.

    For each mini-batch, blocks run in order: forward the block and its head
    on an untracked tensor over the previous block's output array (the
    array a guided step stores, not a copy), then ``_update`` block
    j's group together with head j's.  The activation handed to the next
    block comes from the pre-update weights (one forward sweep per batch).
    Only that boundary array outlives ``_local_step``, so one block's graph
    is alive at a time.  Returns per-block mean losses.
    """
    J = model.J
    sums = [0.0] * J
    seen = 0
    for x, y in batch_list:
        n = len(y)
        h = Tensor(x)
        for j in range(1, J + 1):
            loss, h = _local_step(model, j, h, y, opt, lr)
            sums[j - 1] += loss * n
        seen += n
    return [s / seen for s in sums]


def guided_epoch(model, batch_list, opt: NesterovSGD, lr: float,
                 update_aux: bool = True):
    """One sweep of global-loss updates over the whole backbone.

    Per mini-batch, a no-grad, train-mode pass runs blocks 1..J-1 and keeps
    each block's output array X_j; when ``update_aux``, head j steps on its
    loss over an untracked tensor over X_j right away, so the heads stay out
    of the global graph.  Then, for j = J down to 1, block j is re-forwarded
    from a requires-grad leaf over its stored input (block 1 from the data),
    ``backward`` runs from the global loss (j = J) or from the gradient that
    block j+1's walk filed under its leaf, and block j's group steps.  Each
    seed comes from pre-update weights, so every value equals that of one
    backward over the whole chain followed by one update, while one block's
    graph and gradients are alive at a time, beside the stored inputs.  A
    stored input is dropped once its block has walked, and batchnorm
    updates its running statistics in the re-forward only.
    Returns (mean global loss, per-block aux losses or None).
    """
    J = model.J
    gsum = 0.0
    asums = [0.0] * (J - 1)
    seen = 0
    for x, y in batch_list:
        n = len(y)
        ins = [x]                     # block j's input array, j = 1..J
        for j in range(1, J):
            with T.no_grad():
                ins.append(model.forward_block(Tensor(ins[-1]), j, train=True).data)
            if update_aux:
                logits = model.aux_logits(Tensor(ins[-1]), j, train=True)
                asums[j - 1] += _update(logits, y, model.head_params[j - 1:j], opt, lr) * n
        for j in range(J, 0, -1):
            h = Tensor(ins.pop(), requires_grad=j > 1)
            if j == J:
                loss = L.softmax_cross_entropy(model.forward_block(h, j, train=True), y)
                grads = T.backward(loss)
            else:
                # the block output and the seed are the walk's alone
                grads = T.backward(model.forward_block(h, j, train=True), grads.pop(key).data)
            key = h.node_id
            del h                     # X_{j-1}: block j-1's re-forward makes it again
            opt.step(model.block_params[j - 1], grads, lr)
        gsum += loss.item() * n
        seen += n
    aux_means = [s / seen for s in asums] if (update_aux and J > 1) else None
    return gsum / seen, aux_means


def evaluate(model, batch_list) -> float:
    """Fraction of argmax(global logits) == label, in eval mode."""
    return _evaluate(model, batch_list)[0]


def _evaluate(model, batch_list, check_collapse: bool = False):
    """(accuracy, collapsed): ``collapsed`` is whether every row got bitwise
    the same logits, or None unless ``check_collapse``."""
    correct = 0
    total = 0
    first = None
    collapsed = True if check_collapse else None
    with T.no_grad():
        for x, y in batch_list:
            logits = model.forward_global(Tensor(x), train=False)
            pred = np.argmax(logits.data, axis=1)
            correct += int((pred == np.asarray(y)).sum())
            total += len(y)
            if collapsed:
                bits = logits.data.view(f"u{logits.dtype.itemsize}")
                first = bits[0] if first is None else first
                collapsed = bool((bits == first).all())
    return correct / total, collapsed


# ---------------------------------------------------------------------------
# the full loop

@dataclass
class MetricsRecord:
    epoch: int
    mode: str
    lr: float
    global_loss: float | None
    local_losses: list          # length J; None where untracked
    train_acc: float
    test_acc: float


def train(config):
    """Run the configured regime end to end.

    Returns (metrics records, model, optimizer).  After each epoch a
    non-finite mean loss (global or any block's) raises ``DomainError``
    naming the epoch and the loss.  After the last epoch, so does a model
    that gives every training row bitwise the same logits: it has collapsed
    to a constant guess, whatever its accuracy.
    Accuracies are evaluated in batches of ``memory.eval_rows`` rows; logits
    match training-sized batches bit for bit unless BLAS sums a small GEMM
    (a few dozen rows) in a row-count-dependent order.
    """
    schedule = Schedule(config.epochs, config.P, config.Q, config.regime)
    schedule.validate()
    model = config.build_model()
    train_set, test_set = config.build_datasets()
    opt = NesterovSGD(config.momentum, config.weight_decay)
    rows = eval_rows(config.plan(), config.batch_size)

    J = config.blocks
    records = []
    for e in range(schedule.E):
        lr = lr_at(e, schedule.E, config.lr0)
        mode = mode_of_epoch(e, schedule)
        batch_list = D.batches(train_set, config.batch_size, config.seed, e)
        if mode == LOCAL:
            local_losses = local_epoch(model, batch_list, opt, lr)
            global_loss = None
        else:
            global_loss, aux = guided_epoch(model, batch_list, opt, lr)
            local_losses = (aux + [None]) if aux is not None else [None] * J
        named = [("global", global_loss)] + [(f"block {j}", v) for j, v in enumerate(local_losses, 1)]
        for where, v in named:
            if v is not None and not math.isfinite(v):
                raise DomainError(f"epoch {e}: {where} loss is {v}; training diverged")
        train_eval = D.batches(train_set, rows, None, 0)
        if e < schedule.E - 1:
            train_acc = evaluate(model, train_eval)
        else:
            train_acc, collapsed = _evaluate(model, train_eval, check_collapse=True)
            if collapsed:
                raise DomainError(f"epoch {e}: every training row gets the same logits; "
                                  "training collapsed to a constant guess")
        test_acc = evaluate(model, D.batches(test_set, rows, None, 0))
        records.append(MetricsRecord(e, mode, lr, global_loss, list(local_losses),
                                     train_acc, test_acc))
    return records, model, opt


# ---------------------------------------------------------------------------
# seed panels

# One-sided 95 % Student-t quantiles t_{0.95, d} for d = 1..29 degrees of
# freedom, from the standard t table (numpy has no t quantile).
T95 = (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
       1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
       1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699)


def panel(config, cells, seeds):
    """Yield (cell, seed, final test accuracy) for each cell of ``cells``, a map
    from cell to config overrides, and each seed, in order; every cell's
    config is validated before the first run."""
    configs = {cell: config.with_overrides(**overrides).validate() for cell, overrides in cells.items()}
    for cell, cell_config in configs.items():
        for seed in seeds:
            yield cell, seed, train(cell_config.with_overrides(seed=seed))[0][-1].test_acc


def paired(a, b):
    """(mean, SE, t) of the per-seed difference of accuracies ``a - b`` in points,
    with t = ``T95`` at n - 1 d.o.f. (its 29-d.o.f. value past 29, which is
    conservative)."""
    diff = 100.0 * (np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    n = len(diff)
    if n < 2:
        raise ConfigError(f"a paired difference needs at least 2 seeds, got {n}")
    return float(diff.mean()), float(diff.std(ddof=1)) / np.sqrt(n), T95[min(n - 1, len(T95)) - 1]
