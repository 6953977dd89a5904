"""Koopman spectrum of viscous Burgers flow from snapshot data.

The Burgers equation on [-1, 1] with homogeneous Dirichlet conditions is
conjugate to the linear heat equation, so its Koopman generator spectrum
contains -alpha (pi/2)^2 for alpha = 1, 2, 3, ...  This script simulates 50
snapshot pairs from 10 random trajectories, fits the composition operator on
a 27-functional nonlinear basis, and checks that the dominant generator
eigenvalues land on those targets.

Run:  python3 demos/burgers_spectrum.py
"""

import numpy as np

import koopid

model = koopid.burgers_model()
print(f"model: {model.name} on [{model.grid.x_min:g}, {model.grid.x_max:g}], "
      f"{model.grid.num_points} nodes")

print("simulating 50 snapshot pairs from 10 trajectories (ts = 0.2) ...")
dataset = koopid.generate_pairs(
    model, koopid.ICFamily.BURGERS, num_trajectories=10, total_pairs=50,
    t_s=0.2, seed=1,
)

basis = koopid.build_burgers_basis(seed=1)
print(f"fitting the Koopman matrix on {len(basis)} functionals "
      "<cos(a_j pi x/2 + b_j pi/2), u^k>^l ...")
xi1, xi2 = koopid.build_data_matrices(dataset, basis)
fit = koopid.edmd_fit(xi1, xi2, dataset.sampling_time)
result = koopid.spectrum(fit)

print("\nten lowest-residual generator eigenvalues:")
targets = [-alpha * (np.pi / 2) ** 2 for alpha in (1, 2, 3)]
defined = ~np.isnan(result.lambda_l)
for lam_l, score in zip(result.lambda_l[defined][:10], result.residual_scores[defined][:10]):
    hits = [t for t in targets if abs(lam_l.real - t) <= 0.1 * abs(t)]
    note = f"   <- matches -{targets.index(hits[0]) + 1}(pi/2)^2" if hits else ""
    print(f"  lambda_L = {lam_l.real:+9.4f} {lam_l.imag:+8.4f}i "
          f"(residual {score:.2e}){note}")

print(f"\nheat-conjugacy targets: {[round(t, 4) for t in targets]}")
