#!/usr/bin/env python3
"""How the coupling-weight distribution reshapes during development.

Live weights start from very different beta distributions; development
under the same input reshapes both. The per-step histogram table is what
the batch study writes out for plotting.
"""

import numpy as np

from kuramoto_rc import ReservoirConfig, SweepSpec, run_weight_distribution_study

spec = SweepSpec(
    task="narma10",
    base=ReservoirConfig(len_adev=60),
    axes={"beta": [-np.pi / 2]},
    trials=1,
    master_seed=3,
)
result = run_weight_distribution_study(
    spec, initial_params=[(0.4, 0.4), (10.0, 10.0)], bins=12
)

_, snapshots = result.tables["snapshots"]
for rec in result.records:
    combo = rec["combo_index"]
    print(
        f"initial Beta({rec['initial_a']}, {rec['initial_b']}) -> developed fit "
        f"({rec['fitted_a']:.3f}, {rec['fitted_b']:.3f})"
        + (f"  [{rec['fault']}]" if rec["fault"] else "")
    )
    for step in (1, 10, 60):
        counts = [
            r["count"]
            for r in snapshots
            if r["combo_index"] == combo and r["step"] == step
        ]
        peak = max(counts) or 1
        bars = " ".join(str(int(round(9 * c / peak))) for c in counts)
        print(f"  step {step:>3} histogram (relative):  {bars}")
    print()
