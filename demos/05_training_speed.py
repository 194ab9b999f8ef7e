"""Wall-clock cost of the closed-form training loop.

Training runs from class statistics: one Gram product X X^T and one
eigendecomposition of it per call, then per iteration a small
eigendecomposition (d_s) and a handful of dense products whose size does
not depend on the instance count; there is no gradient descent. The
script times training at increasing instance counts, ending at a
benchmark around the scale of a mid-sized image dataset with
deep-network features (20000 instances of dimension 1024).
"""

from zsadjust import (
    HyperParams,
    SynthSpec,
    benchmark_training,
    split,
    synthesize,
)

print(f"{'instances':>10} {'d_v':>6} {'d_s':>5} {'median':>9} {'max':>9}")
for d_v, per_class in [(256, 50), (512, 150), (1024, 500)]:
    spec = SynthSpec(d_v=d_v, d_s=85, seen_count=40, unseen_count=10,
                     per_class=per_class, noise_sigma=0.05,
                     shift_sigma=0.1, seed=0)
    dataset, table, _ = synthesize(spec)
    seen, _ = split(dataset, table)
    hp = HyperParams(iterations=5, tol=0.0)
    result = benchmark_training((seen, table), hp, repeats=1)
    m = 40 * per_class
    print(f"{m:>10} {d_v:>6} {85:>5} {result.median_ms / 1e3:>8.2f}s "
          f"{result.max_ms / 1e3:>8.2f}s")
