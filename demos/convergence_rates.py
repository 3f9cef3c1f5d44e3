"""Total-variation convergence rates against the corrected measures.

The law of S_n = n^{-1/2} (F_1 + ... + F_n) is computed exactly on a grid
by inverting the characteristic function with an FFT, the corrected
Gaussian density is evaluated on the same grid, and the L1 distance
between them (the total variation, no 1/2 factor) is fitted on a log-log
scale.  Three regimes:

  * skewed law vs plain Gaussian        -> slope -1/2,
  * skewed law vs first correction      -> slope -1,
  * moment-matched law vs plain Gaussian-> slope -1 without any corrector.
"""

from edgeworth import RateConfig, run_rate

N_GRID = (32, 64, 128, 256, 512, 1024)

for dist, r, story in [
    ("exponential", 2, "skewed summands, no correction"),
    ("exponential", 3, "same summands, one corrector term"),
    ("uniform", 3, "third moment vanishes: Gaussian is already first-order"),
]:
    report = run_rate(RateConfig(dist=dist, r=r, n_list=N_GRID))
    print(f"{dist} at order r={r}  ({story})")
    print(f"  {'n':>6} {'tv_mid':>14} {'interval width':>16}")
    for n, tv in zip(report.n_values, report.tv_values):
        print(f"  {n:>6} {tv.mid:>14.6e} {tv.width:>16.2e}")
    print(
        f"  fitted slope {report.slope:+.4f} +- {report.slope_stderr:.4f}"
        f"  (theory {report.expected_slope:+.1f})  -> {report.verdict}\n"
    )

print("The interval widths are the certified slack (moment tail bounds plus")
print("shared singular mass); they are orders of magnitude below the distances,")
print("so the fitted slopes are meaningful.")
