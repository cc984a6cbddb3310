"""
Factoring through a (2,4)-biregular subgraph
============================================

When some k Y-vertices have pairwise disjoint neighborhoods covering X,
deleting them leaves a (2,4)-biregular graph whose Eulerian half-factor
machinery stitches length-2 pieces into a factor of length-6 paths.
"""

from interval6.bigraph import biregular34_k, delete_y, is_biregular
from interval6.checker import check_proper_path_factor, node_path
from interval6.generators import random_34_biregular
from interval6.pathfactor import find_y_cover, p3_half_factor, p7_factor_via_24

# hunt for a random instance admitting a cover (most small ones do not,
# so this scans seeds; k=1 always works since K_{3,4} is the only case)
g = None
for seed in range(200):
    cand = random_34_biregular(2, seed=seed)
    if find_y_cover(cand) is not None:
        g, found_seed = cand, seed
        break
assert g is not None
k = biregular34_k(g)
print(f"instance: seed {found_seed}, |X|={g.x_count} |Y|={g.y_count} (k={k})")

cover = find_y_cover(g)
print("cover Y-vertices:", list(cover))
for j in cover:
    print(f"  y{j} touches", sorted(i for _, i in g.y_adj[j]))

h, _, _ = delete_y(g, cover)
print("peeled graph is (2,4)-biregular:", is_biregular(h, 2, 4))

# per Y-vertex of h, its two edge ids in one Euler parity class
pairs = p3_half_factor(h.x_count, h.y_count, h.edges, 0)
print(f"half factor: {len(pairs)} length-2 pieces, for example:")
n = h.x_count
for y, (e1, e2) in enumerate(pairs[:3]):
    p = node_path(n, (h.edges[e1][0], n + y, h.edges[e2][0]), (e1, e2))
    print(" ", " ".join(v.label for v in p.vertices))

factor = p7_factor_via_24(g)
assert factor is not None and check_proper_path_factor(g, factor)
print("stitched factor lengths:", sorted(p.length for p in factor.paths))
