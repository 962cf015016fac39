#!/usr/bin/env python3
"""One full reservoir run on the NARMA10 benchmark.

Builds a 100-node oscillator network, lets the coupling weights co-evolve
with the phases over the development span, fits the linear readout by
ridge regression, and predicts one step ahead with teacher forcing.
"""

import numpy as np

from kuramoto_rc import ReservoirConfig, gen_narma10, order_parameter, run_pipeline

cfg = ReservoirConfig(seed=7)
data = gen_narma10(cfg.len_train + cfg.len_test, seed=1)

result = run_pipeline(cfg, data)
r, _ = order_parameter(result.dev_phases)
variance = np.var(data.targets[cfg.test_span])

print(f"reservoir size          : {cfg.n} oscillators at {cfg.density:.0%} density")
print(f"coupling strength       : {cfg.lam}, spectral target {cfg.spectral_target}")
print(f"development / train / test lengths: "
      f"{cfg.len_adev} / {cfg.len_train} / {cfg.len_test}")
print()
print(f"synchrony after development: r = {r:.3f}")
print(f"train MSE               : {result.train_mse:.6f}")
print(f"test MSE                : {result.test_mse:.6f}")
print(f"no-skill baseline Var(y): {variance:.6f}")
print(f"skill (MSE / Var)       : {result.test_mse / variance:.3f}")
print()
print("last five predictions vs targets:")
targets = data.targets[cfg.test_span][-5:]
for pred, target in zip(result.predictions[-5:], targets):
    print(f"  {pred: .5f}   {target: .5f}")
