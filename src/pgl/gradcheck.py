"""Finite-difference verification of every differentiable primitive and layer.

The oracle is independent of the autodiff graph: central differences with
step 1e-3, evaluated in float64.  Each case runs several random small shapes
and reports the worst elementwise error, measured relative to
max(1, |numeric|).  A case projects its op's output onto a random weight
``w`` so the check exercises the full Jacobian: the numeric side
differentiates sum(out * w) in numpy, and the analytic side is the
vector-Jacobian product ``backward(out, w)``; neither adds a graph op.
Batchnorm runs as the networks run it, on NHWC memory in train mode: eval
mode builds no graph.  The same suite backs both the pytest gradient tests
and the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import tensor as T
from .network import ResidualUnit
from .tensor import Tensor

FD_STEP = 1e-3
DEFAULT_TOL = 1e-4
BN_TOL = 1e-3


def numerical_grad(f, inputs, w, h: float = FD_STEP):
    """Central-difference gradients of sum(f(inputs) * w), one element at a
    time, perturbed in place, so an input keeps its memory order."""
    grads = []
    with T.no_grad():
        for t in inputs:
            g = np.zeros_like(t.data)
            for i in np.ndindex(t.shape):
                orig = t.data[i]
                t.data[i] = orig + h
                fp = float(np.sum(f(inputs).data * w))
                t.data[i] = orig - h
                fm = float(np.sum(f(inputs).data * w))
                t.data[i] = orig
                g[i] = (fp - fm) / (2.0 * h)
            grads.append(g)
    return grads


def analytic_grad(f, inputs, w):
    grads = T.backward(f(inputs), w)
    out = []
    for t in inputs:
        g = grads.get(t.node_id)
        out.append(np.zeros_like(t.data) if g is None else g.data)
    return out


def max_rel_err(f, inputs, w) -> float:
    """Worst |analytic - numeric| / max(1, |numeric|) over all input elements."""
    ana = analytic_grad(f, inputs, w)
    num = numerical_grad(f, inputs, w)
    worst = 0.0
    for a, n in zip(ana, num):
        denom = np.maximum(1.0, np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)) if a.size else 0.0)
    return worst


def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _proj(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


# ---------------------------------------------------------------------------
# cases: each yields (inputs, f, w) for several random shapes, where f maps
# the inputs to the op's output and w is the projection of that output.
# Ops resolve at call time, so the suite always checks the live implementation.

def _case_relu(rng):
    for _ in range(5):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        a = _leaf(rng, shape)
        kink = 0.05   # keep every input off the kink at 0, where FD straddles it
        a.data = np.where(np.abs(a.data) < kink, a.data + np.sign(a.data + 1e-12) * kink, a.data)
        yield [a], lambda ts: T.relu(ts[0]), _proj(rng, shape)


def _case_global_avg_pool(rng):
    for _ in range(5):
        n, c, h, wd = (int(v) for v in rng.integers(1, 5, size=4))
        yield [_leaf(rng, (n, c, h, wd))], lambda ts: L.global_avg_pool(ts[0]), _proj(rng, (n, c))


def _case_linear(rng):
    for _ in range(5):
        n, di, do = rng.integers(1, 6, size=3)
        x, wgt, b = _leaf(rng, (n, di)), _leaf(rng, (di, do)), _leaf(rng, (do,))
        yield [x, wgt, b], lambda ts: L.linear_forward(*ts), _proj(rng, (n, do))


# (k, stride, pad, H): random kernels at stride 1 and 2, a 3x3 stride-1
# pad-1 conv (im2col's contiguous-run lowering, which a random k reaches
# only at k=3), the C != O convs of a downsampling residual block (3x3
# stride 2 and the 1x1 stride-2 pad-0 projection), and a 3x3 stride-2 pad-0
# conv on H=8 that drops the last row
_CONV_CASES = [(None, 1, 0, None), (None, 2, 1, None), (None, 1, 1, None), (3, 1, 1, None),
               (3, 2, 1, None), (1, 2, 0, None), (3, 2, 0, 8)]


def _case_conv2d(rng):
    for k, stride, padv, h in _CONV_CASES:
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        o = c + 1
        h = int(rng.integers(4, 7)) if h is None else h
        k = int(rng.integers(1, 4)) if k is None else k
        x = _leaf(rng, (n, c, h, h))
        wgt = _leaf(rng, (o, c, k, k))
        oh = L.conv_out_size(h, k, stride, padv)
        yield [x, wgt], lambda ts, s=stride, p=padv: L.conv2d_forward(*ts, stride=s, pad=p), \
            _proj(rng, (n, o, oh, oh))


_SKIPS = ("nhwc", "c-order", "untracked")


def _batchnorm_case(relu=False, conv=False, skip=False):
    """Train-mode batchnorm on NHWC memory, as a conv hands it on; with
    ``relu``, the relu after it in the same node; with ``conv`` as well,
    feeding a 3x3 "same" conv, which rebuilds that node's output for its
    weight gradient.  With ``skip``, a residual tail relu(bn(x) + skip),
    the draws taking turns over ``_SKIPS``: a tracked skip in NHWC memory
    (another tail's output), a tracked C-order one (a skip of any layout is
    added in place into the NHWC output) and an untracked one.  A draw with
    a pre-activation within 0.05 of relu's kink is redrawn, as
    ``_case_relu`` moves its inputs off the kink."""
    def gen(rng):
        made = 0
        while made < (6 if skip else 5):
            n, c, h = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
            x = _leaf(rng, (n, h, h, c))
            x.data = x.data.transpose(0, 3, 1, 2)
            gamma = _leaf(rng, (c,), 0.5, 1.5)
            beta = _leaf(rng, (c,))
            w = _proj(rng, (n, c, h, h))
            state = L.BatchNormState.init(c)
            inputs = [x, gamma, beta]
            s = None
            if skip:
                kind = _SKIPS[made % len(_SKIPS)]
                s = _leaf(rng, (n, h, h, c))
                s.data = s.data.transpose(0, 3, 1, 2)
                if kind == "c-order":
                    s.data = np.ascontiguousarray(s.data)
                if kind == "untracked":
                    s = Tensor(s.data)
                else:
                    inputs.append(s)
            if relu or skip:
                with T.no_grad():
                    pre = L.batchnorm_forward(x, gamma, beta, state).data
                    if np.min(np.abs(pre if s is None else pre + s.data)) < 0.05:
                        continue
            if conv:
                inputs.append(_leaf(rng, (c + 1, c, 3, 3)))
                w = _proj(rng, (n, c + 1, h, h))

            def f(ts, st=state, sk=s):                   # a tracked skip is also ts[3]
                out = L.batchnorm_forward(*ts[:3], st, relu=relu, skip=sk)
                return L.conv2d_forward(out, ts[3], stride=1, pad=1) if conv else out
            made += 1
            yield inputs, f, w
    return gen


def _case_cross_entropy(rng):
    for _ in range(5):
        n, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        logits = _leaf(rng, (n, c), -2.0, 2.0)
        labels = rng.integers(0, c, size=n)
        yield [logits], lambda ts, y=labels: L.softmax_cross_entropy(ts[0], y), np.ones(())


def _case_residual(rng):
    for i in range(5):
        c = int(rng.integers(2, 4))
        stride = 1 + (i % 2)
        out_c = c if stride == 1 else c + 1
        block = ResidualUnit(c, out_c, stride, rng=rng)
        params = [p for _, p in block.named_params("b")]
        for p in params:
            p.data = rng.uniform(-0.5, 0.5, size=p.shape)  # float64 for the oracle
        h = int(rng.integers(4, 6))
        x = _leaf(rng, (2, c, h, h))
        oh = L.conv_out_size(h, 3, stride, 1)
        yield [x] + params, lambda ts, blk=block: blk.forward(ts[0], train=True), \
            _proj(rng, (2, out_c, oh, oh))


CASES = [
    ("relu", _case_relu, DEFAULT_TOL),
    ("global_avg_pool", _case_global_avg_pool, DEFAULT_TOL),
    ("linear", _case_linear, DEFAULT_TOL),
    ("conv2d", _case_conv2d, DEFAULT_TOL),
    ("batchnorm", _batchnorm_case(), BN_TOL),
    ("batchnorm_relu", _batchnorm_case(relu=True), BN_TOL),
    ("batchnorm_skip", _batchnorm_case(skip=True), BN_TOL),
    ("conv2d_remade_input", _batchnorm_case(relu=True, conv=True), BN_TOL),
    ("cross_entropy", _case_cross_entropy, DEFAULT_TOL),
    ("residual_block", _case_residual, BN_TOL),
]


def run_case(name: str, seed: int = 0) -> float:
    """Worst finite-difference error for one named op."""
    import zlib

    gen = {n: g for n, g, _ in CASES}[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    worst = 0.0
    for inputs, f, w in gen(rng):
        worst = max(worst, max_rel_err(f, inputs, w))
    return worst


def run_suite(seed: int = 0):
    """Run every case; returns [(name, max_err, tolerance, passed)]."""
    results = []
    for name, _, tol in CASES:
        err = run_case(name, seed)
        results.append((name, err, tol, err < tol))
    return results
