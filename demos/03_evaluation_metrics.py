"""
Evaluation measures on hand-checkable inputs
============================================

ACCR, CONN and SEA on inputs small enough to check by hand; TIME comes
from the trial runner, which reads the clock around the pipeline stages.
"""

import numpy as np
from scipy import sparse

from sscomp import ExperimentConfig, Labels, SyntheticSpec, run_trials
from sscomp.metrics import accuracy, connectivity, sea_ratio
from sscomp.omp import CoefMatrix
from sscomp.spectral import AffinityMatrix

# --- accuracy ---------------------------------------------------------
# label ids are arbitrary: swapping them scores the same
truth = Labels(np.array([0, 0, 1, 1]), 2)
swapped = Labels(np.array([1, 1, 0, 0]), 2)
one_off = Labels(np.array([0, 1, 1, 1]), 2)
print("accuracy, swapped ids :", accuracy(swapped, truth))   # 100.0
print("accuracy, one mistake :", accuracy(one_off, truth))   # 75.0

# --- connectivity -----------------------------------------------------
# a complete graph on m vertices has algebraic connectivity m/(m-1);
# disconnect one cluster and the score collapses to 0
m = 4
clique = np.ones((m, m)) - np.eye(m)
a = AffinityMatrix(sparse.csr_array(clique))
print("clique connectivity   :", connectivity(a, Labels(np.zeros(m, int), 1)))

broken = np.zeros((4, 4))
broken[0, 1] = broken[1, 0] = 1.0
broken[2, 3] = broken[3, 2] = 1.0   # two components, one cluster
a = AffinityMatrix(sparse.csr_array(broken))
print("disconnected cluster  :", connectivity(a, Labels(np.zeros(4, int), 1)))

# --- SEA --------------------------------------------------------------
# symmetrizing C into |C| + |C^T| can at best keep the same sparsity
# pattern (ratio 0.5) and at worst double it (ratio 1.0)
symmetric = CoefMatrix.from_triplets([0, 1], [1, 0], [2.0, -3.0], 3)
one_way = CoefMatrix.from_triplets([0, 0], [1, 2], [1.0, 1.0], 3)
mixed = CoefMatrix.from_triplets([0, 1, 2], [1, 0, 1], [1.0, 1.0, 1.0], 3)
print("SEA symmetric pattern :", sea_ratio(symmetric))       # 0.5
print("SEA one-way pattern   :", sea_ratio(one_way))         # 1.0
print("SEA mixed pattern     :", round(sea_ratio(mixed), 4)) # 4/6

# --- timing -----------------------------------------------------------
# run_trials returns one (report, predicted labels) pair per trial; each
# trial times budget selection, self-expression, affinity and spectral
# clustering, while data preparation and the other metrics fall outside
cfg = ExperimentConfig(SyntheticSpec(3, 2, 12, 8, rng_seed=1), n_clusters=3, k=3)
[(report, _)] = run_trials(cfg)
print(f"trial time            : {report.time_seconds:.4f}s (accr {report.accr})")
