"""The three distributed protocols side by side on one instance.

A correlated classical state with a near-pure A marginal is where the
in-place protocol earns its name: the coherent-measurement protocol borrows
log|X| qubits, the compressed one borrows log(L+1), and the Uhlmann
embedding borrows almost nothing while distilling at the same rate.
"""

import numpy as np

from puredist import bounds
from puredist.compression import Instance, compress_measurement, compress_seeds
from puredist.protocols import purity_trace, run_fewqubits, run_kd_oneshot, run_protocol_a
from puredist.sampling import basis_povm, classical_correlated_pure, purified_input

rng = np.random.default_rng(11)
eps = 0.25

# |A| = 8 with 90% of the mass on one symbol; B = 4 correlated through a
# cyclic shift of a skewed conditional.
pa = np.full(8, 0.1 / 7)
pa[0] = 0.9
cond = np.array([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3])
joint = np.array([pa[a] * np.roll(cond, a % 4) for a in range(8)])
psi = purified_input(classical_correlated_pure(rng, 8, 4, joint=joint))
povm = basis_povm(8, "A")

inst = Instance(psi, povm, eps)
view = compress_measurement(inst, K=4, L=16, seed=1)
rows = [run_protocol_a(inst, seed=1), *run_kd_oneshot([view]), *run_fewqubits([view])]

print(f"{'protocol':<12} {'alice':>5} {'bob':>4} {'borrow':>6} {'comm':>5} "
      f"{'net':>4} {'error':>8} {'case':>5}")
for t in rows:
    print(f"{t.protocol:<12} {t.distilled_alice:>5} {t.distilled_bob:>4} "
          f"{t.borrowed:>6} {t.communication:>5} {t.net_rate:>4} "
          f"{t.final_error:>8.4f} {str(t.case or '-'):>5}")

up = bounds.distributed_upper_bound(inst)
print("\ndistributed upper bound (slack-free):", round(up, 3),
      "  declared slack:", round(np.log2(1 / eps), 3), "bits")

report = bounds.rate_report([view])[0]
print("borrow comparison: compressed", report.c_borrow, "vs in-place",
      report.d_borrow, " margin", round(report.margin, 3))

# The purity measure never increases along the allowable operations.
print("\npurity bookkeeping along the coherent-measurement protocol (4 x 2):")
small_joint = np.array([[0.40, 0.05], [0.05, 0.20], [0.04, 0.16], [0.06, 0.04]])
small_joint /= small_joint.sum()
psi_small = purified_input(classical_correlated_pure(rng, 4, 2, joint=small_joint))
for step, value in purity_trace(Instance(psi_small, basis_povm(4, "A"), 0.1)):
    print(f"  {step:<18} {value:+.4f}")

# Seed sweep: medians absorb the compression randomness.
print("\nseed sweep (net rate / borrowed):")
views = compress_seeds(inst, K=4, L=16, seeds=range(8))
for name, runs in (("kd-oneshot", run_kd_oneshot(views)),
                   ("fewqubits", run_fewqubits(views))):
    nets, borrows = [t.net_rate for t in runs], [t.borrowed for t in runs]
    print(f"  {name:<11} net median {np.median(nets):+.0f}  "
          f"borrow median {np.median(borrows):.0f}")
