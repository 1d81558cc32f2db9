"""Sparse query cascades over feature pyramids.

A detection head runs densely on coarse pyramid levels; positions scoring above
a threshold become queries, map to their 2x2 children one level down, and only
those children are computed — with submanifold sparse convolutions at the
keys (csq) or over the keys' receptive-field halo, narrowed conv by conv (cq),
or with masked dense compute (ccq). The model module states the head's
MAC-level cost rule beside its layout; the analysis module builds cost
reports on it and carries a benchmark harness.
"""

from .analysis import (BenchResult, bench_csv, bench_json, inbounds_pairs,
                       p2_cost_increase, run_benchmark)
from .errors import (CascadeQueryError, ConfigurationError, FormatError,
                     ValidationError)
from .model import (Blob, FeaturePyramid, HeadOutput, HeadWeights, head_flops_dense,
                    head_flops_sparse, load_pyramid, load_weights, make_fixture_weights,
                    make_synthetic_pyramid, run_dense_head, run_sparse_head, save_pyramid,
                    save_weights)
from .postproc import (AnchorConfig, Candidates, Detection, anchor_boxes,
                       box_iou, decode_boxes, detections_from_output,
                       detections_from_result, detections_to_json, encode_boxes,
                       nms)
from .query import (CascadeResult, LevelRecord, QueryConfig, extract_queries,
                    map_queries_to_keys, run_pipeline)
from .sparse import (KeySet, Rulebook, SparseFeature, build_rulebook, dilate,
                     gather, sparse_conv, sparse_relu)
from .targets import (GroundTruthObject, GroundTruthSet, LossConfig, TargetMaps,
                      beta_schedule, distance_map, focal_loss, is_small_for_level,
                      level_dims, level_loss, level_scale, query_target_for_level,
                      small_centers_on_grid, smooth_l1, total_loss)
from .tensor import ConvWeights, DenseTensor, conv2d, relu

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig", "BenchResult", "Blob", "Candidates", "CascadeQueryError",
    "CascadeResult",
    "ConfigurationError", "ConvWeights", "DenseTensor", "Detection",
    "FeaturePyramid", "FormatError", "GroundTruthObject",
    "GroundTruthSet", "HeadOutput", "HeadWeights", "KeySet", "LevelRecord",
    "LossConfig", "QueryConfig", "Rulebook", "SparseFeature", "TargetMaps",
    "ValidationError", "anchor_boxes", "bench_csv", "bench_json",
    "beta_schedule", "box_iou", "build_rulebook", "conv2d", "decode_boxes",
    "detections_from_output", "detections_from_result", "detections_to_json",
    "dilate", "distance_map",
    "encode_boxes", "extract_queries", "focal_loss", "gather",
    "head_flops_dense", "head_flops_sparse", "inbounds_pairs",
    "is_small_for_level", "level_dims", "level_loss", "level_scale",
    "load_pyramid", "load_weights", "make_fixture_weights",
    "make_synthetic_pyramid", "map_queries_to_keys", "nms",
    "p2_cost_increase", "query_target_for_level", "relu",
    "run_benchmark", "run_dense_head", "run_pipeline", "run_sparse_head",
    "save_pyramid", "save_weights",
    "small_centers_on_grid", "smooth_l1", "sparse_conv",
    "sparse_relu", "total_loss",
]
