"""The benchmark's workloads and the seeded pools of pyramids they run.

A workload fixes a strategy, an image size, a channel count and a weight seed.
The weight seed belongs to the workload's definition: the synthetic towers are
random projections, so it sets how wide the query gate fires around an object
(seed 7 at C=64 is tight, seed 2 at C=16 is broad). The benchmark's --seed
only chooses the pyramids: each pool image gets its own noise background and
planted objects, derived from (seed, pool index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import cascadequery as cq

LEVELS = (2, 7)
SIGMA = 0.15
NUM_ANCHORS = 1
NUM_CLASSES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    image: int
    channels: int
    weight_seed: int
    objects: str        # "weak2" or "bright3", see make_blobs
    # Per-image cost varies with where the objects land, so the pool is sized
    # to keep its median steady from seed to seed, yet small enough to be
    # cycled at least twice in a 25 s run.
    pool_size: int

    def config(self) -> cq.QueryConfig:
        return cq.QueryConfig(strategy=self.strategy, sigma=SIGMA)

    def describe(self) -> dict:
        return {
            "strategy": self.strategy, "sigma": SIGMA, "image_px": self.image,
            "channels": self.channels, "weight_seed": self.weight_seed,
            "objects": self.objects, "levels": list(LEVELS), "pool_size": self.pool_size,
        }


WORKLOADS = {w.name: w for w in (
    Workload("csq-sparse",
             "paper regime: fine levels under 1% active, so coarse dense conv2d dominates",
             "csq", 512, 64, 7, "weak2", 32),
    Workload("csq-busy",
             "broad gate and bright objects: many candidates, so NMS and the sparse layer dominate",
             "csq", 512, 16, 2, "bright3", 16),
    Workload("dense-ref",
             "full-map conv2d on every level, no sparse or crop path: the reference cost",
             "dense", 256, 64, 7, "weak2", 16),
    Workload("cq-crop",
             "csq-sparse's inputs through per-key crops: the only workload running crop_patch",
             "cq", 512, 64, 7, "weak2", 16),
)}


def make_blobs(objects: str, rng: np.random.Generator, image: float) -> list[cq.Blob]:
    """Planted objects. "weak2": two moderate objects, weak enough to keep the
    finest levels under 1% active with a tight gate. "bright3": three small,
    bright objects away from the border.

    The amplitudes are fixed, evenly spaced over the recipe's range, and the
    rest (position, size, class) is drawn from `rng`. Amplitude sets how many
    keys and candidates an image yields, so drawing it too would make the cost
    of a pool, and with it every timing, move from seed to seed."""
    if objects == "weak2":
        count, margin, size, amp = 2, 0.15, (8.0, 13.0), (9.0, 13.0)
    elif objects == "bright3":
        count, margin, size, amp = 3, 0.12, (6.0, 9.0), (25.0, 40.0)
    else:
        raise ValueError(f"unknown object recipe {objects!r}")
    return [
        cq.Blob(cx=float(rng.uniform(margin, 1.0 - margin) * image),
                cy=float(rng.uniform(margin, 1.0 - margin) * image),
                width=float(rng.uniform(*size)),
                height=float(rng.uniform(*size)),
                class_id=int(rng.integers(0, NUM_CLASSES)),
                amplitude=amp[0] + (amp[1] - amp[0]) * (j + 0.5) / count)
        for j in range(count)
    ]


def make_weights(wl: Workload) -> cq.HeadWeights:
    return cq.make_fixture_weights(wl.weight_seed, wl.channels, NUM_ANCHORS, NUM_CLASSES)


def make_pool(wl: Workload, seed: int, size: int | None = None
              ) -> list[tuple[cq.FeaturePyramid, list[cq.Blob]]]:
    """The first `size` (default: all) pyramids of the workload's pool, with
    their planted objects. Workloads that share image size, channels and object
    recipe get the same pyramids for the same seed."""
    pool = []
    for k in range(wl.pool_size if size is None else size):
        ss = np.random.SeedSequence([seed, k])
        pyr_seed, blob_seed = (int(s) for s in ss.generate_state(2))
        blobs = make_blobs(wl.objects, np.random.default_rng(blob_seed), float(wl.image))
        pyr = cq.make_synthetic_pyramid(pyr_seed, wl.image, wl.image, *LEVELS,
                                        wl.channels, blobs)
        pool.append((pyr, blobs))
    return pool
