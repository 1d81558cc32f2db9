"""Library error paths that no end-to-end test reaches: each call raises its
own exception type with a message naming the fault."""

import numpy as np
import pytest

from cascadequery import (CascadeResult, ConvWeights, DenseTensor, FeaturePyramid, KeySet,
                          QueryConfig, SparseFeature, TargetMaps, beta_schedule,
                          build_rulebook, decode_boxes, gather, make_fixture_weights,
                          make_synthetic_pyramid, run_dense_head, run_sparse_head,
                          sparse_conv)
from cascadequery.errors import ConfigurationError, ValidationError

W8 = make_fixture_weights(0, 8, 1, 4)
KEYS = KeySet.full(2, 2, 2)

CASES = {
    "pyramid-without-levels": (lambda: FeaturePyramid(64, 64, {}),
                               ConfigurationError, "pyramid has no levels"),
    "dense-head-channels": (lambda: run_dense_head(DenseTensor(np.zeros((4, 2, 2))), W8, KEYS),
                            ConfigurationError, "feature has 4 channels, head expects 8"),
    "sparse-head-channels": (lambda: run_sparse_head(SparseFeature(KEYS, np.zeros((4, 4))), W8),
                             ConfigurationError, "value features have 4 channels"),
    "fixture-image-empty": (lambda: make_synthetic_pyramid(0, 0, 64, 2, 7, 4),
                            ConfigurationError, "image dims must be positive"),
    "pyramid-level-negative": (lambda: FeaturePyramid(64, 64, {-1: DenseTensor(
        np.zeros((1, 128, 128)))}), ConfigurationError, "level -1 lies outside [0, 30]"),
    "pyramid-level-float": (lambda: FeaturePyramid(64, 64, {2.0: DenseTensor(
        np.zeros((1, 16, 16)))}), ConfigurationError, "level 2.0 lies outside [0, 30]"),
    "pyramid-level-bool": (lambda: FeaturePyramid(64, 64, {True: DenseTensor(
        np.zeros((1, 32, 32)))}), ConfigurationError, "level True lies outside [0, 30]"),
    "fixture-weights-empty": (lambda: make_fixture_weights(0, 0, 1, 4),
                              ConfigurationError, "must be positive"),
    "keyset-bounds": (lambda: KeySet(2, 0, 4), ValidationError, "bounds must be positive"),
    "keyset-pairs": (lambda: KeySet(2, 4, 4, [[1, 2]]), ValidationError, "flat list of cells"),
    "sparse-feature-rank": (lambda: SparseFeature(KEYS, np.zeros(4)),
                            ValidationError, "must be (num_keys, C)"),
    "sparse-feature-rows": (lambda: SparseFeature(KEYS, np.zeros((3, 4))),
                            ValidationError, "feature rows (3) != key count (4)"),
    "gather-bounds": (lambda: gather(DenseTensor(np.zeros((1, 4, 4))), KeySet.full(2, 3, 4)),
                      ValidationError, "do not match tensor"),
    "sparse-conv-channels": (lambda: sparse_conv(
        SparseFeature(KEYS, np.zeros((4, 2))),
        ConvWeights(np.zeros((3, 3, 3, 3)), np.zeros(3)), build_rulebook(KEYS)),
        ConfigurationError, "weights expect 3"),
    "decode-shapes": (lambda: decode_boxes(np.zeros((2, 4)), np.zeros((3, 4))),
                      ValidationError, "differ in shape"),
    "target-map-rank": (lambda: TargetMaps(2, np.zeros(4)), ValidationError, "must be 2-D"),
    "beta-schedule-empty": (lambda: beta_schedule([]), ConfigurationError,
                            "at least one level"),
    "record-missing": (lambda: CascadeResult("dense", QueryConfig(), 64, 64, 8, [], 0.0,
                                             0).record(3),
                       KeyError, "no record for level 3"),
}


@pytest.mark.parametrize("name", CASES)
def test_error_path_raises_its_type_and_names_the_fault(name):
    call, kind, fragment = CASES[name]
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is kind
    assert fragment in str(exc.value)
