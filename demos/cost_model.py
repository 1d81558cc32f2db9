"""Two headline numbers from the analytic cost model.

1. Extending a pyramid head down to stride 4 roughly triples its cost: the
   new level alone has as many cells as a 4/(4/3)-geometric tail, so
   flops(P2) / flops(P3..P7) lands at ~3.0 for power-of-two images.

2. If only ~1% of the stride-4 and stride-8 cells are active, a submanifold
   head pays at most 1% of the dense cost there -- even in the worst case
   where every active cell has all nine neighbors active.

Run:  python demos/cost_model.py
"""

import numpy as np

from cascadequery import (
    KeySet,
    build_rulebook,
    head_flops_dense,
    head_flops_sparse,
    level_dims,
    p2_cost_increase,
)
from cascadequery.model import TOWER_DEPTH

C, A, K = 256, 1, 4  # production-scale head width


def main():
    print("cost of adding the stride-4 level")
    print(f"{'image':>10}  {'flops(P2) / flops(P3..P7)':>26}")
    for size in (512, 500, 640, 1024, 768):
        print(f"{size:>7}px  {p2_cost_increase(size, size):>26.4f}")

    print("\nsparse head cost at 1% active, C=256, 512px image")
    total_dense = total_worst = total_real = 0
    rng = np.random.default_rng(0)
    for level in (2, 3):
        h, w = level_dims(512, 512, level)
        keys = h * w // 100
        dense = head_flops_dense(h, w, C, A, K)
        # one rulebook per level, shared by every conv of the head
        worst = head_flops_sparse([9 * keys] * (TOWER_DEPTH + 1), C, A, K)  # fully surrounded
        flat = rng.choice(h * w, size=keys, replace=False)   # scattered keys
        rb = build_rulebook(KeySet(level, h, w, flat))
        real = head_flops_sparse([rb.num_entries] * (TOWER_DEPTH + 1), C, A, K)
        total_dense, total_worst, total_real = (
            total_dense + dense, total_worst + worst, total_real + real)
        print(f"  P{level} ({h}x{w}): {keys} keys -> worst {worst / dense:.4%}, "
              f"scattered {real / dense:.4%} of {dense:,} dense MACs")
    print(f"  P2+P3 together: worst {total_worst / total_dense:.4%}, "
          f"scattered {total_real / total_dense:.4%}  (bound: 1%)")

    print("\nwhy the bound is exact: a key contributes one rulebook entry per")
    print("active neighbor, at most nine; the dense model charges every cell")
    print("exactly nine taps. So cost scales with the active fraction.")


if __name__ == "__main__":
    main()
