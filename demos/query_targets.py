"""What the query head is trained to say yes to.

An object supervises a level only if it is small there (shorter than the
level's minimum anchor scale). Around each such object's grid cell, every
cell within a fixed radius becomes a positive -- so the target is a small
disc per object per level, and coarser levels see fewer, then zero, discs.

Run:  python demos/query_targets.py
"""

from cascadequery import (
    GroundTruthObject,
    GroundTruthSet,
    level_scale,
    query_target_for_level,
)

IMAGE = 256


def draw(target, marks):
    rows = []
    for y in range(target.shape[0]):
        rows.append("".join(
            "O" if (x, y) in marks else ("+" if target[y, x] else ".")
            for x in range(target.shape[1])))
    return "\n".join(rows)


def main():
    objects = [
        GroundTruthObject(cx=60.0, cy=72.0, width=9.0, height=9.0, class_id=0),
        GroundTruthObject(cx=180.0, cy=140.0, width=30.0, height=24.0, class_id=1),
        GroundTruthObject(cx=120.0, cy=210.0, width=90.0, height=70.0, class_id=2),
    ]
    gt = GroundTruthSet(IMAGE, IMAGE, objects)
    for o in objects:
        print(f"object at ({o.cx:.0f},{o.cy:.0f}), {o.width:.0f}x{o.height:.0f}px")

    for level in (3, 4, 5):
        h = w = IMAGE >> level
        scale = level_scale(level)
        small = [o for o in gt.objects if max(o.width, o.height) < scale]
        target = query_target_for_level(gt, level, h, w)
        print(f"\nP{level} ({w}x{w} cells, minimum anchor scale {scale:.0f}px): "
              f"{len(small)} of {len(objects)} objects are small here, "
              f"{int(target.sum())} positive cells")
        stride = 1 << level
        marks = {(int(o.cx) // stride, int(o.cy) // stride) for o in small}
        print(draw(target, marks))

    print("\n(O object center, + positive within the radius, . negative;")
    print(" big objects vanish from fine levels because coarser anchors own them)")


if __name__ == "__main__":
    main()
