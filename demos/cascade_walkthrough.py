"""Walk the query cascade down a pyramid, level by level.

The head runs densely on the coarse levels. From the starting level down,
positions whose query score clears the threshold become queries; each query
owns a 2x2 block of cells one level finer, and only those cells are computed.
The query branch runs only where its scores pick the next level's cells.
This script prints what happens at every step and draws the finest level's
key mask so you can see the blanket of computed cells around each object.

Run:  python demos/cascade_walkthrough.py [sigma]
"""

import sys

import numpy as np

from cascadequery import (
    Blob,
    QueryConfig,
    head_flops_dense,
    make_fixture_weights,
    make_synthetic_pyramid,
    run_pipeline,
)

SEED, IMAGE, CHANNELS = 11, 256, 16


def draw_mask(rec, blobs):
    grid = np.full((rec.height, rec.width), ".", dtype="<U1")
    grid[rec.computed_keys.ys, rec.computed_keys.xs] = "#"
    stride = 1 << rec.level
    for b in blobs:
        grid[int(b.cy) // stride, int(b.cx) // stride] = "O"
    return "\n".join("".join(row) for row in grid)


def main():
    sigma = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    blobs = [
        Blob(cx=64.0, cy=64.0, width=6.0, height=6.0, class_id=0, amplitude=32.0),
        Blob(cx=176.0, cy=192.0, width=7.0, height=8.0, class_id=3, amplitude=27.0),
    ]
    pyr = make_synthetic_pyramid(SEED, IMAGE, IMAGE, 2, 7, CHANNELS, blobs)
    weights = make_fixture_weights(7, CHANNELS, 1, 4)
    result = run_pipeline(pyr, weights, QueryConfig(strategy="csq", sigma=sigma))

    print(f"cascade at sigma={sigma} on a {IMAGE}px fixture\n")
    for rec in result.records:
        cells = rec.height * rec.width
        if rec.mode == "dense":
            queries = rec.extracted_queries
            q = f", {len(queries)} queries extracted" if queries is not None else ""
            print(f"P{rec.level} ({rec.height}x{rec.width})  dense over {cells} cells{q}")
        else:
            keys = rec.computed_keys
            queries = rec.extracted_queries
            q = f", {len(queries)} queries onward" if queries is not None else ""
            print(f"P{rec.level} ({rec.height}x{rec.width})  sparse: {len(keys)} keys "
                  f"({len(keys) / cells:.1%} of cells){q}")
    subnets = (head_flops_dense(1, 1, CHANNELS, 1, 4, query=False)
               / head_flops_dense(1, 1, CHANNELS, 1, 4))
    print(f"\ntotal: {result.total_flops:,} MACs = "
          f"{result.total_flops / result.dense_equiv_flops:.1%} of the full three-branch "
          f"head on every level\n(the dense strategy runs {subnets:.1%} of it: the cls and "
          f"reg branches, no query branch)")

    finest = result.records[-1]
    print(f"\nP{finest.level} key mask (# computed, O object center, . skipped):\n")
    print(draw_mask(finest, blobs))


if __name__ == "__main__":
    main()
