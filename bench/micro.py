"""MLP micro timings at a workload's architecture and batch size.

After one warm-up training pass, each round times `mlp.gradients` on each
of STEPS batches, `mlp.predict_proba` on one batch, and `mlp.train` over
the same STEPS batches; the figures are medians over the rounds. Timing
the rounds interleaved keeps machine noise from landing on one side of
the update time, which is derived as step time minus gradient time and so
also holds the per-step batch gather and shuffle.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from votestack import mlp

STEPS = 16
ROUNDS = 5


def mlp_micro(layer_sizes: tuple[int, ...], batch_size: int, learning_rate: float,
              momentum: float, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(STEPS * batch_size, layer_sizes[0]))
    y = rng.integers(0, layer_sizes[-1], size=STEPS * batch_size)
    batches = [(X[i:i + batch_size], y[i:i + batch_size])
               for i in range(0, len(y), batch_size)]
    config = mlp.MlpConfig(layer_sizes=layer_sizes, epochs=1, batch_size=batch_size,
                           learning_rate=learning_rate, momentum=momentum, seed=seed)
    model = mlp.init(config)
    mlp.train(mlp.init(config), X, y)

    grad, forward, step = [], [], []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for xb, yb in batches:
            mlp.gradients(model, xb, yb)
        t1 = time.perf_counter()
        mlp.predict_proba(model, batches[0][0])
        t2 = time.perf_counter()
        fresh = mlp.init(config)
        t3 = time.perf_counter()
        mlp.train(fresh, X, y)
        t4 = time.perf_counter()
        grad.append((t1 - t0) / STEPS)
        forward.append(t2 - t1)
        step.append((t4 - t3) / STEPS)
    grad_s, step_s = statistics.median(grad), statistics.median(step)
    return {
        "mlp.forward_ms": 1e3 * statistics.median(forward),
        "mlp.grad_ms": 1e3 * grad_s,
        "mlp.update_ms": 1e3 * (step_s - grad_s),
    }
