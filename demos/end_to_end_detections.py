"""Compare final detection lists between the dense and sparse pipelines.

The fixture weights are random, so the boxes below are not evidence of
objects -- they are fingerprints of the arithmetic. That is exactly what
makes them a sharp test: any divergence between execution paths shows up
in the decoded, thresholded, NMS-filtered list.

Two things to watch:

  ccq keeps the dense arithmetic and only masks outputs. Its list matches
      dense exactly once the threshold is low enough that the query gate
      keeps every scoring candidate; above that, masked-out cells can no
      longer suppress their neighbors and the list drifts.
  csq genuinely skips work (submanifold conv), so borderline values shift
      and the list is merely similar -- at a fraction of the MACs.

Run:  python demos/end_to_end_detections.py
"""

import json

from cascadequery import (
    AnchorConfig,
    Blob,
    QueryConfig,
    box_iou,
    detections_from_result,
    detections_to_json,
    make_fixture_weights,
    make_synthetic_pyramid,
    run_pipeline,
)

PYRAMID_SEED, WEIGHT_SEED, IMAGE, CHANNELS, CLASSES = 9, 2, 256, 16, 4
SCORE, TOP_K = 0.3, 10


def show(dets, limit=4):
    for d in dets[:limit]:
        x1, y1, x2, y2 = d.box
        print(f"  P{d.level} class {d.class_id} score {d.score:.3f} "
              f"box ({x1:8.1f},{y1:8.1f})-({x2:8.1f},{y2:8.1f})")
    if len(dets) > limit:
        print(f"  ... and {len(dets) - limit} more")


def main():
    blobs = [
        Blob(cx=60.0, cy=48.0, width=7.0, height=7.0, class_id=1, amplitude=30.0),
        Blob(cx=150.0, cy=130.0, width=8.0, height=8.0, class_id=2, amplitude=28.0),
    ]
    pyr = make_synthetic_pyramid(PYRAMID_SEED, IMAGE, IMAGE, 2, 7, CHANNELS, blobs)
    weights = make_fixture_weights(WEIGHT_SEED, CHANNELS, 1, CLASSES)
    anchors = AnchorConfig(num_anchors=1)

    def detect(strategy, sigma=0.05):
        result = run_pipeline(pyr, weights, QueryConfig(strategy=strategy, sigma=sigma))
        dets = detections_from_result(result, anchors, CLASSES,
                                      score_threshold=SCORE, top_k=TOP_K)
        return result, dets

    _, dense = detect("dense")
    dense_json = json.dumps(detections_to_json(dense))
    print(f"dense: {len(dense)} detections (score > {SCORE}, top {TOP_K})")
    show(dense)

    print("\nccq (masked dense), tightening the gate:")
    for sigma in (0.05, 0.15, 0.3):
        result, dets = detect("ccq", sigma)
        keys = {rec.level: len(rec.computed_keys)
                for rec in result.records if rec.computed_keys is not None}
        same = json.dumps(detections_to_json(dets)) == dense_json
        verdict = "identical JSON" if same else "list drifts"
        print(f"  sigma={sigma:<5} keys P3/P2 = {keys[3]}/{keys[2]:<4} -> {verdict}")

    result, sparse = detect("csq")
    kept = sum(1 for d in dense
               if any(s.class_id == d.class_id and box_iou(s.box, d.box) > 0.5
                      for s in sparse))
    print(f"\ncsq at sigma=0.05: {kept}/{len(dense)} dense detections recovered "
          f"at IoU > 0.5,\nusing {result.total_flops / result.dense_equiv_flops:.1%} "
          f"of the dense MACs")
    show(sparse)


if __name__ == "__main__":
    main()
