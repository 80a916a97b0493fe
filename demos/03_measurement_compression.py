"""Measurement compression: many outcomes -> K small POVMs plus a decoder.

Builds the randomized K x L table for a basis measurement on one half of a
Bell pair, validates it exactly against the ideal post-measurement state,
and shows the two statistical effects the protocols rely on: the error
shrinks as L grows (paired seeds), and most (k, l) cells are "nice" in the
entropic sense that drives derandomization.
"""

import numpy as np

from puredist.compression import (
    Compression,
    Instance,
    compress_measurement,
    find_good_k,
    nice_sets,
    per_k_errors,
    validate_compression,
)
from puredist.protocols import verify_derandomization
from puredist.sampling import basis_povm, bell_pair, purified_input

psi = purified_input(bell_pair())
povm = basis_povm(2, "A")
eps = 0.1

inst = Instance(psi, povm, eps)
view = compress_measurement(inst, K=4, L=32, seed=7)
rep = validate_compression(view)
print("K x L table:", view.K, "x", view.L, "  normalization c =", round(view.c_norm, 4))
print("ideal vs simulated (exact trace distance):", round(rep.ideal_vs_simulated, 4))
print("per-pair state distance:", round(rep.per_pair_state_dist, 6))
print("failure outcome mass   :", round(rep.bot_mass, 4))
print("Q_KL vs uniform        :", round(rep.qkl_vs_uniform, 4))

# Paired growth in L: per-(k,l) seed streams mean a bigger table shares all
# its old cells, so the comparison is a true paired sample.
print("\n   L   median error over 20 seeds")
for L in (8, 16, 32, 64):
    errs = [validate_compression(compress_measurement(inst, K=4, L=L, seed=s)).ideal_vs_simulated
            for s in range(20)]
    print(f"  {L:3d}  {np.median(errs):.4f}")

# Derandomization: the good rows are almost all of them.
rep = verify_derandomization(view)
print("\nnice pair fraction:", rep["fraction"], ">= bound", round(rep["bound"], 3),
      "->", "ok" if rep["passed"] else "FAILED")

tprime, nice = nice_sets(view)
k = find_good_k(view)
[errs] = per_k_errors([view])
print("qualifying k's:", tprime)
print("chosen k:", k, " per-k error", round(errs[k], 4),
      " median", round(float(np.median(errs)), 4))

# The table serializes as its recipe (K, L, seed and the decode table it
# checks), and from_json redraws it.
text = view.to_json()
print("\nserialized size:", len(text), "bytes; round-trips:",
      np.array_equal(view.decode, Compression.from_json(text, inst).decode))
