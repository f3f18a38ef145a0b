#!/usr/bin/env bash
# Smoke checks of the installed `circle-interp` console script: version,
# nodes, the exit codes of a malformed flag and of a NaN node, interp on
# the FFT path with its dense CSV, interval with its dense and node CSVs,
# the node CSV's angles at n = 4096 against their closed form,
# interval and symmetric trig on the closed-form Jacobi alphas of the
# Chebyshev weights, trig in both variants, a sweep that must write its
# CSV, and a para-orthogonal sweep and trig interpolant read from a
# measure file (the sweep's node midpoints are not rotation-symmetric),
# the same nodes from a Bernstein-Szego file, the exit code of an h with a
# zero on the circle, and a check report past overflow.
#
#   scripts/ci_console_smoke.sh [OUT_DIR]
#
# OUT_DIR holds the file outputs; it defaults to $RUNNER_TEMP, else a fresh
# temporary directory.
set -euo pipefail

out_dir="${1:-${RUNNER_TEMP:-$(mktemp -d)}}"

circle-interp --version
circle-interp nodes --n 4
rc=0
circle-interp interval --n 8 --weight foo --corpus smooth-exp || rc=$?
test "$rc" -eq 1
printf '0.0\nnan\n1.0\n' > "$out_dir/nan-nodes.txt"
rc=0
circle-interp check --nodes "$out_dir/nan-nodes.txt" || rc=$?
test "$rc" -eq 1
circle-interp interp --n 2048 --corpus holder:0.6 --dense "$out_dir/interp.csv"
test -s "$out_dir/interp.csv"
circle-interp interval --n 8 --variant mu2 --corpus smooth-exp \
    --dense "$out_dir/interval.csv" --nodes-out "$out_dir/interval-nodes.csv"
test -s "$out_dir/interval.csv"
test -s "$out_dir/interval-nodes.csv"
for weight in chebyshev1 chebyshev2 chebyshev3 chebyshev4; do
    circle-interp interval --n 8 --weight "$weight" --corpus smooth-exp \
        --nodes-out "$out_dir/interval-$weight-nodes.csv"
    test -s "$out_dir/interval-$weight-nodes.csv"
done
# the Chebyshev-1 mu1 angles are the circle zeros' arguments, within 1e-14
# of (2j - 1) pi / (2n); acos(x_j) is up to 1.1e-13 off next to x = +-1
circle-interp interval --n 4096 --weight chebyshev1 --variant mu1 --corpus smooth-exp \
    --grid 16 --nodes-out "$out_dir/interval-4096-nodes.csv"
python -c 'import sys, numpy as np
t = np.sort(np.loadtxt(sys.argv[1], delimiter=",", skiprows=1)[:, 2])
ref = (2 * np.arange(1, len(t) + 1) - 1) * np.pi / (2 * len(t))
sys.exit(bool(len(t) != 4096 or np.max(np.abs(t - ref)) > 1e-14))' "$out_dir/interval-4096-nodes.csv"
circle-interp trig --n 32 --weight chebyshev2 --corpus lipschitz
circle-interp trig --n 32 --corpus lipschitz
circle-interp trig --n 128 --variant para --corpus holder:0.6
circle-interp sweep --ns 256:2048 --corpus holder:0.6 --out "$out_dir/sweep"
test -s "$out_dir/sweep.csv"
echo '{"kind": "verblunsky", "alphas": [[0.5, 0]]}' > "$out_dir/alpha-half.json"
# h = 1 - z/2 is the same measure as alpha = [0.5], read off h exactly
echo '{"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-0.5, 0]]}' > "$out_dir/bs-half.json"
circle-interp nodes --n 64 --measure "$out_dir/alpha-half.json" > "$out_dir/nodes-alpha.txt"
circle-interp nodes --n 64 --measure "$out_dir/bs-half.json" > "$out_dir/nodes-bs.txt"
cmp "$out_dir/nodes-alpha.txt" "$out_dir/nodes-bs.txt"
# h = 1 - z has a zero on the circle: refused as invalid input
echo '{"kind": "bernstein-szego", "h_coeffs": [[1, 0], [-1, 0]]}' > "$out_dir/bs-circle.json"
rc=0
circle-interp check --n 64 --measure "$out_dir/bs-circle.json" || rc=$?
test "$rc" -eq 1
circle-interp sweep --family para-orthogonal --measure "$out_dir/alpha-half.json" \
    --ns 16:64 --corpus holder:0.6 --out "$out_dir/sweep-para"
test -s "$out_dir/sweep-para.csv"
circle-interp trig --n 64 --variant para --measure "$out_dir/alpha-half.json" --corpus holder:0.6
# alpha_k = 0.7 (-1)^k at n = 1024: (ii) and the Lebesgue function peak
# near 1e469 and 1e385, past the largest double, so L_hat and lebesgue_max
# are null and only their log10 fields are finite
python -c 'import json, sys
alphas = [[0.7 * (-1) ** k, 0.0] for k in range(1024)]
json.dump({"kind": "verblunsky", "alphas": alphas}, open(sys.argv[1], "w"))' "$out_dir/alt-inf.json"
circle-interp check --n 1024 --measure "$out_dir/alt-inf.json" --out "$out_dir/check-alt-inf.json"
python -c 'import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(not (r["L_hat"] is None and r["lebesgue_max"] is None
              and r["log10_L_hat"] > 308 and r["log10_lebesgue_max"] > 308))' "$out_dir/check-alt-inf.json"
