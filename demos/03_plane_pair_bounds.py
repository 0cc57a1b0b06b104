"""2-vector projection bounds and the certified two-planes optimum.

Part 1 compares the exact projection-sum constant 2 cos(a1/2) cos(a2/2)
of a plane pair (a1, a2 its characteristic angles) with the largest sum
over random simple unit 2-vectors: for an orthogonal pair (constant 1,
with an explicit equality family attaining it) and for tilted pairs, where
the sum of the constant's maximizer is printed next to it.

Part 2 builds the union of the two coordinate 2-planes inside a 4D grid box,
checks that it spans the two linking-loop constraints, and certifies its
global optimality: the projection lower bound equals its weighted area.

Run:  python demos/03_plane_pair_bounds.py
"""

import math

import numpy as np

from spanmin import (PlanePair, PlaneRegion, WeightField, build_grid_complex,
                     equality_family, is_spanning, projection_lower_bound,
                     verify_projection_bounds, weighted_measure)
from spanmin.grassmann import projection_maximizer, projection_sums
from spanmin.problems import generate_faceset, linking_loops


def main():
    print("== projection-sum bounds on the Grassmannian ==")
    pair = PlanePair.orthogonal()
    rep = verify_projection_bounds(pair, samples=200_000, seed=1)
    print(f"orthogonal pair:   max |p1|+|p2| = {rep.max_sum:.9f} "
          f"<= bound {rep.bound:g} (margin {rep.margin:.2e})")

    fam = np.array([equality_family(pair, a)
                    for a in np.linspace(0, math.pi / 2, 64)])
    rep = verify_projection_bounds(pair, samples=1000, seed=1, include=fam)
    print(f"with equality family injected: max = {rep.max_sum:.12f} "
          f"(bound attained)")

    for theta in (math.pi / 3, math.pi / 4, math.pi / 6):
        tilted = PlanePair.from_angles(theta, theta)
        rep = verify_projection_bounds(tilted, samples=200_000, seed=2)
        xi = projection_maximizer(tilted)
        attained = projection_sums(tilted, xi[None])[0]
        print(f"alpha1 = {theta:.4f}:    sampled max = {rep.max_sum:.9f} "
              f"<= constant {rep.bound:.9f} "
              f"= maximizer's sum {attained:.9f}")

    print()
    print("== certified optimum: two orthogonal planes in a 4D box ==")
    K = build_grid_complex(4, [2, 2, 2, 2])
    F = generate_faceset("two-planes-orthogonal", K, 2)
    loops = linking_loops(K.grid.box)
    print(f"candidate set: {len(F)} triangles on the two coordinate planes")
    print(f"spans both linking loops: {is_spanning(K, F, loops)}")

    J = weighted_measure(F, WeightField.uniform(1.0))
    frame1 = np.array([[1., 0., 0., 0.], [0., 1., 0., 0.]])
    frame2 = np.array([[0., 0., 1., 0.], [0., 0., 0., 1.]])
    disks = (PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)),
             PlaneRegion("box", (0.0, 0.0, 2.0, 2.0)))
    bound = projection_lower_bound(F, frame1, frame2, disks, resolution=512)
    print(f"weighted area J = {J:g}")
    print(f"projection lower bound = {bound:g}")
    print(f"certified optimal: {abs(J - bound) <= 1e-9 * J}")


if __name__ == "__main__":
    main()
