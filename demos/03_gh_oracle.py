"""The exact GH oracle: correspondences, distortion, witnesses, isometry.

Run: python3 demos/03_gh_oracle.py
"""

import numpy as np

import ghgraph as gg

# Distances between finite metric spaces are computed exactly by a search
# over correspondences generated from map pairs.
# Input matrices are validated (symmetry, triangle inequality, ...).
X = gg.FiniteMetricSpace.from_line([0.0, 1.0])
Y = gg.FiniteMetricSpace.from_line([0.0, 2.0])
value, witness = gg.gh_exact(X, Y)
print("two-point spaces, diameters 1 vs 2:")
print("  gh =", value, "(half the diameter gap)")
print("  witness pairs:", witness.pairs)
print("  distortion of witness:", gg.distortion(witness, X, Y))

# Witnesses always realize exactly twice the reported value, so every
# answer ships with its own proof of the upper half.
G = gg.theta_graph(3.0, 4.0, 5.0)
A = gg.restrict_metric(G, gg.point_set(G, ["p", ("e3", 2.0)]))
B = gg.restrict_metric(G, gg.point_set(G, [("e1", 1.0), ("e2", 2.0), "q"]))
value, witness = gg.gh_exact(A, B)
print("\ntheta-graph subsets:", value)
print("  witness:", witness.pairs)
assert gg.distortion(witness, A, B) == 2 * value

# The same call answers a guard when the search would be too large, with
# the bracket it had reached. The search narrows [lower, upper] by deciding
# whether any map pair beats a threshold: each "no" raises the lower end
# past half the diameter gap, each "yes" lowers the upper end to the map
# pair it found.
fine = gg.restrict_metric(G, gg.epsilon_net(G, 0.3))
coarse = gg.restrict_metric(G, gg.epsilon_net(G, 0.5))
print("\nhalf the diameter gap:", abs(fine.d.max() - coarse.d.max()) / 2)
try:
    gg.gh_exact(fine, coarse, guard=500)
except gg.GuardExceeded as exc:
    print("guarded:", exc)
    print("  bracket:", exc.bracket)
print("  unguarded:", gg.gh_exact(fine, coarse)[0])

# gh(X, X) is always zero; the search recognizes it immediately.
print("\nself distance:", gg.gh_exact(A, A)[0])

# Isometry testing is the degenerate case: distance-preserving bijections.
perm = np.array([2, 0, 1])
shuffled = gg.FiniteMetricSpace(B.d[np.ix_(perm, perm)])
ok, mapping = gg.is_isometric(B, shuffled)
print("shuffled copy isometric?", ok, "via", mapping)
ok, _ = gg.is_isometric(A, B)
print("different sizes isometric?", ok)
