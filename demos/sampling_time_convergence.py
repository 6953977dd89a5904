"""Sampling-time convergence of the lifting identification.

The lifting estimates converge to the true coefficients as the sampling
time shrinks (the scaled matrix logarithm approaches the generator).  This
script reruns the 12-term PDE identification over a decreasing ladder of
sampling times and prints the error trend; the rate is not guaranteed, only
the trend.

Run:  python3 demos/sampling_time_convergence.py
"""

import koopid
from koopid.operators import describe_term

model = koopid.pde1_model()
candidates = koopid.Dictionary(model.dictionary.terms)
weight = koopid.Bump(5.0, recentered=True)
ts_ladder = [0.3, 0.15, 0.075, 0.0375]

print(f"rerunning the lifting identification at ts = {ts_ladder} ...")
report = koopid.ts_convergence_study(
    model, candidates, weight, ts_ladder, koopid.ICFamily.PDE1,
    num_trajectories=25, total_pairs=50, seed=1, burn_in=1.5,
)

print(f"\n{'ts':>8}{'max abs error':>16}")
for t_s, errors in zip(report.t_s, report.errors):
    print(f"{t_s:>8g}{errors.max():>16.5f}")

print(f"\nerror shrinks monotonically: {report.monotone}")
idx = int(report.errors[-1].argmax())
print(f"at the smallest sampling time the worst term is "
      f"{describe_term(candidates.terms[idx])} with error {report.errors[-1, idx]:.5f}")
