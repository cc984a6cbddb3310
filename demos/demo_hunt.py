"""
Hunting for a counterexample
============================

Every simple (3,4)-biregular instance checked so far has a proper path
factor. This scans a few hundred random instances; any definitive miss
would be a publishable find. The CLI version parallelizes the same scan:
`interval6 hunt --k 2 --trials 500 --seed 1 --jobs 8`.
"""

from collections import Counter

from interval6.generators import random_34_biregular
from interval6.pathfactor import pivot_path_factor, search_proper_path_factor

K = 2
TRIALS = 300
tally = Counter()
lengths = Counter()

for seed in range(TRIALS):
    g = random_34_biregular(K, seed=seed)
    res = search_proper_path_factor(g, max_nodes=10_000_000)
    tally[res.status] += 1
    if res.status == "found":
        lengths.update(p.length for p in res.factor.paths)
    elif res.status == "none":
        # double-check with the structurally different pivot search before celebrating
        assert pivot_path_factor(g, max_nodes=10_000_000).status == "none"
        print(f"COUNTEREXAMPLE at seed {seed}: no proper path factor")

print(f"k={K}, {TRIALS} instances:", dict(tally))
print("path lengths seen:", dict(sorted(lengths.items())))
