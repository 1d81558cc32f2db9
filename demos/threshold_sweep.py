"""Sweep the query threshold and watch keys, MACs, and wall time shrink.

A higher threshold admits fewer queries, so every level computes fewer keys
and the pipeline gets monotonically cheaper. Key counts shrink exactly;
wall time follows with scheduler noise on top.

Run:  python demos/threshold_sweep.py
"""

from cascadequery import (
    Blob,
    QueryConfig,
    make_fixture_weights,
    make_synthetic_pyramid,
    run_benchmark,
)
from cascadequery.analysis import sweep_sigmas

SEED, IMAGE, CHANNELS = 4, 256, 16


def main():
    blobs = [
        Blob(cx=80.0, cy=96.0, width=7.0, height=7.0, class_id=1, amplitude=28.0),
        Blob(cx=190.0, cy=60.0, width=6.0, height=8.0, class_id=0, amplitude=24.0),
        Blob(cx=140.0, cy=200.0, width=8.0, height=8.0, class_id=2, amplitude=26.0),
    ]
    pyr = make_synthetic_pyramid(SEED, IMAGE, IMAGE, 2, 7, CHANNELS, blobs)
    weights = make_fixture_weights(SEED, CHANNELS, 1, 4)

    configs = [QueryConfig(strategy="csq", sigma=s) for s in sweep_sigmas()[::2]]
    dense, *sweep = run_benchmark(
        pyr, weights, [QueryConfig(strategy="dense")] + configs, repeats=5)

    print(f"dense baseline: {dense.best_end_to_end_millis:.1f} ms\n")
    print(f"{'sigma':>6} {'P3 keys':>8} {'P2 keys':>8} {'MACs vs dense':>14} {'ms':>7}")
    dense_flops = sum(dense.level_flops.values())
    for r in sweep:
        flops = sum(r.level_flops.values())
        print(f"{r.sigma:>6.2f} {r.level_keys[3]:>8} {r.level_keys[2]:>8} "
              f"{flops / dense_flops:>13.1%} {r.best_end_to_end_millis:>7.1f}")

    print("\nkeys never increase with sigma; time tracks them through the noise.")


if __name__ == "__main__":
    main()
