"""Show how each sparse execution path relates to the dense head.

Builds one synthetic fixture and compares every strategy's outputs, at the
positions it kept, against a dense reference run:

  ccq  masked dense      -> bitwise identical at any threshold (same
                            arithmetic; it just discards the other cells)
  csq  submanifold conv  -> bitwise identical when the threshold is 0
                            (every cell active: the same conv kernel runs
                            over the same neighbour table); above 0 it
                            reads missing neighbors as zero, which is the
                            approximation that buys its speed
  cq   submanifold conv  -> matches dense at every key, border keys
       over the halo        included: it runs over every cell within the
                            receptive-field radius (5) of a key, so every
                            input a key's output reads is present; the
                            halo is the work it pays for

Run:  python demos/sparse_equals_dense.py
"""

import numpy as np

from cascadequery import (
    Blob,
    QueryConfig,
    make_fixture_weights,
    make_synthetic_pyramid,
    run_pipeline,
)

SEED, IMAGE, CHANNELS = 7, 256, 16


def rows_from_dense(dense_map, keys):
    return dense_map.values[:, keys.ys, keys.xs].T


def worst_rel(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / scale


def compare(result, dense):
    for rec in result.records:
        if not rec.output.is_sparse:
            continue
        keys = rec.computed_keys
        got = rec.output.cls_logits.features
        want = rows_from_dense(dense.record(rec.level).output.cls_logits, keys)
        tag = ("bitwise" if np.array_equal(got, want)
               else f"rel err {worst_rel(got, want):.1e}")
        print(f"  P{rec.level}: {len(keys):4d} keys vs dense -> {tag}")


def main():
    blobs = [
        Blob(cx=70.0, cy=90.0, width=7.0, height=7.0, class_id=1, amplitude=30.0),
        Blob(cx=180.0, cy=150.0, width=8.0, height=6.0, class_id=2, amplitude=28.0),
    ]
    pyr = make_synthetic_pyramid(SEED, IMAGE, IMAGE, 2, 7, CHANNELS, blobs)
    weights = make_fixture_weights(SEED, CHANNELS, 1, 4)
    print(f"fixture: {IMAGE}px image, {CHANNELS} channels, {len(blobs)} planted objects")

    dense = run_pipeline(pyr, weights, QueryConfig(strategy="dense"))
    print(f"\ndense reference: {dense.total_flops:,} MACs, {dense.total_millis:.1f} ms")

    runs = [
        ("ccq", 0.15, "masked dense: full arithmetic, rows kept at keys"),
        ("csq", 0.0, "submanifold with every cell active"),
        ("csq", 0.15, "submanifold on the key blanket only; edge rows feel "
                      "the zeroed neighbors"),
        ("cq", 0.15, "submanifold over the keys' receptive-field halo, rows kept "
                     "at keys"),
    ]
    for strategy, sigma, story in runs:
        result = run_pipeline(pyr, weights, QueryConfig(strategy=strategy, sigma=sigma))
        print(f"\n{strategy} at sigma={sigma} -- {story}")
        print(f"  ({result.total_flops / dense.total_flops:.1%} of dense MACs)")
        compare(result, dense)


if __name__ == "__main__":
    main()
