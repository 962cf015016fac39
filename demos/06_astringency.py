#!/usr/bin/env python3
"""Do differently initialized coupling matrices converge under development?

Several networks share one sparsity pattern, one frequency draw, and one
input stream, but reseed their initial live weights. The study reports the
matrix distances to the first trial before and after development, in both
the signed (cancellation-prone) and absolute modes.
"""

from kuramoto_rc import ReservoirConfig, SweepSpec, run_astringency

spec = SweepSpec(
    task="narma10",
    base=ReservoirConfig(beta=0.0),
    axes={"density": [0.05, 0.2]},
    trials=8,
    master_seed=6,
    workers=2,
)
result = run_astringency(spec)

for agg in result.aggregates:
    print(f"density {agg['density']}:")
    print(
        f"  initial distances   signed {agg['initial_signed_median']: .3f}   "
        f"absolute {agg['initial_absolute_median']:.3f}"
    )
    print(
        f"  developed distances signed {agg['developed_signed_median']: .3f}   "
        f"absolute {agg['developed_absolute_median']:.3f}"
    )
    ratio = agg["developed_absolute_median"] / agg["initial_absolute_median"]
    print(f"  absolute contraction factor: {ratio:.3f}")
    print()
