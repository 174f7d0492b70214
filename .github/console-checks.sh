#!/usr/bin/env bash
# The console-script checks: run the installed `perfcode` command and compare
# its outputs with pinned bytes and digests.  Run it from an empty directory;
# it writes its files there.  bash -e, as a workflow `run:` step uses.
set -e

# measured LIMIT_MB CMD...: run CMD, print its wall time and peak RSS
# (ru_maxrss of the child), and fail when the peak passes LIMIT_MB (0: no limit)
measured() {
  python - "$@" <<'PY'
import resource, subprocess, sys, time
limit_mb, cmd = int(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
rc = subprocess.call(cmd)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{' '.join(cmd)}: {time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MB")
if limit_mb and peak_mb > limit_mb:
    sys.exit(f"peak RSS {peak_mb:.0f} MB is over the {limit_mb} MB limit")
sys.exit(rc)
PY
}

perfcode series --r 6 > series6.txt
printf '%s\n' tau_id=r6-0.6.2.5.4.3.1.7.48.54.50.53.52.51.49.55.16.22.18.21.20.19.17.23.40.46.42.45.44.43.41.47.32.38.34.37.36.35.33.39.24.30.26.29.28.27.25.31.8.14.10.13.12.11.9.15.56.62.58.61.60.59.57.63 \
  length=128 rank=124 kernel_dim=114 non_mollard=true neighbor_transitive=true | diff - series6.txt
# the subgroup DFS, in its deterministic order
perfcode enum-regular --r 3 --out groups.json
echo "92f02b6ebedc75965fff93aa075d6ceb5b9cceaf3dd858f7075790b612fa0972  groups.json" | sha256sum -c
# the complete r=4 DFS, 62,896 groups: the only full-size check of it
perfcode enum-regular --r 4 --out groups4.json
echo "077313fd1728c13e297f8ca617c09ee50892c6f789264af8048196f666afefa1  groups4.json" | sha256sum -c
perfcode catalog-taus --r 3 --out catalog.json
echo "4217bfb1f8902574459fe4f566184ebeae86a4cef68035d269a6b02d6e1397d2  catalog.json" | sha256sum -c
# the complete r=4 catalog, 2,415,420 taus: the only full-size check of the
# automorphisms carried by conjugation to 62,857 of the 62,896 groups
measured 0 perfcode catalog-taus --r 4 --out catalog4.json
echo "2c52aa2991eb0aa45aa75c9daf8682d940efd6a102780a8a28c91dfd531fec86  catalog4.json" | sha256sum -c
# its complete classification, 9 classes: the only full-size check of the
# classifier's orbit pass, whose conjugation edges come from perfcode.algebra;
# its peak RSS must stay under 1 GB
measured 1024 perfcode classify --catalog catalog4.json --out classes4.csv --format csv
echo "4c40b4342330598db631231ac8de071d307bf8a2d20fcfe654d2c405b7aa2861  classes4.csv" | sha256sum -c
perfcode classify --catalog catalog.json --out classes.csv --format csv
echo "783af1a6ef35bc15c3d4599327a8cbf8c88b8bb1e215d61db6e3a728277d3150  classes.csv" | sha256sum -c
perfcode classify --catalog catalog.json --out classes.json
echo "567b03bde247c3ef04ba938e7fe7586191b0f5098d10ecf8ec2ef4ebce2842a3  classes.json" | sha256sum -c
# the classification is canonical: a seeded shuffle of the catalog rows gives the same bytes
python -c "import json, random; rows = json.load(open('catalog.json')); random.Random(19).shuffle(rows); json.dump(rows, open('shuffled.json', 'w'))"
perfcode classify --catalog shuffled.json --out shuffled.csv --format csv
echo "783af1a6ef35bc15c3d4599327a8cbf8c88b8bb1e215d61db6e3a728277d3150  shuffled.csv" | sha256sum -c
perfcode classify --catalog shuffled.json --out shuffled-classes.json
echo "567b03bde247c3ef04ba938e7fe7586191b0f5098d10ecf8ec2ef4ebce2842a3  shuffled-classes.json" | sha256sum -c
# 200 seeded random zero-fixing r=4 taus in 190 classes: the miss-heavy path,
# where most taus found a class of their own and get its aut_order search
python -c "import json, random; rng = random.Random(28); json.dump([{'r': 4, 'group_id': i, 'aut_id': 0, 'tau': [0] + rng.sample(range(1, 16), 15)} for i in range(200)], open('random4.json', 'w'))"
perfcode classify --catalog random4.json --out random4.csv --format csv
echo "0b71bdc5b0ebfdc93f071033b723413fddeaea8b8a317f797038984acbda5de5  random4.csv" | sha256sum -c
echo '{"r": 3, "perm": [0, 1, 2, 4, 3, 5, 6, 7]}' > tau.json
perfcode sqs --tau tau.json --out tau.sqs
perfcode check-sqs --in tau.sqs
# the same system with its 70th quadruple line, "2 4 8 14", deleted and the
# header's b lowered to match: exit 1, naming the least triple left uncovered
sed -e '1s/ b=140$/ b=139/' -e '71d' tau.sqs > broken.sqs
rc=0
perfcode check-sqs --in broken.sqs 2> broken.err || rc=$?
test "$rc" -eq 1
echo 'triple (2, 4, 8) covered 0 times (expected 1)' | diff - broken.err
# the tau^-1-against-tau search through the installed script: a
# non-linear r=4 tau that is not point transitive, and a point
# transitive non-linear r=5 tau
echo '{"r": 4, "perm": [0, 10, 4, 7, 13, 11, 8, 9, 5, 3, 6, 12, 2, 1, 15, 14]}' > tau4.json
perfcode report --tau tau4.json > report4.txt
printf '%s\n' tau_id=r4-0a47db89536c21fe coordinate_transitive=false \
  transitive=unverified neighbor_transitive=false | diff - report4.txt
# one class reached through both double cosets: tau4.json's tau, which is not
# point transitive, and seeded rows sigma_B tau sigma_A^-1 and
# sigma_B tau^-1 sigma_A^-1; a merge across the two takes the side-swap
# (t = 1) witness of sqs_isomorphic
python - <<'PY'
import json, random
from perfcode import PointPerm, compose, gl_enumerate, invert_perm, sigma_m
rng = random.Random(30)
mats = list(gl_enumerate(4))
tau = PointPerm(4, tuple(json.load(open("tau4.json"))["perm"]))
rows = [tau.images]
for t in [tau] * 4 + [invert_perm(tau)] * 4:
    a, b = rng.choice(mats), rng.choice(mats)
    rows.append(compose(compose(sigma_m(b), t), invert_perm(sigma_m(a))).images)
json.dump([{"r": 4, "group_id": i, "aut_id": 0, "tau": list(row)} for i, row in enumerate(rows)], open("swap4.json", "w"))
PY
perfcode classify --catalog swap4.json --out swap4.csv --format csv
test "$(tail -n +2 swap4.csv | cut -d, -f8 | sort -u)" = 0
echo "2bf17c536346c90b02fc1fa67faf9090fb5edac0af02005848e66e65fa90b28b  swap4.csv" | sha256sum -c
echo '{"r": 5, "perm": [0, 2, 1, 3, 16, 22, 17, 7, 8, 30, 13, 11, 24, 10, 29, 15, 4, 6, 21, 23, 20, 18, 5, 19, 12, 26, 25, 31, 28, 14, 9, 27]}' > tau5.json
perfcode report --tau tau5.json > report5.txt
printf '%s\n' tau_id=r5-0.2.1.3.16.22.17.7.8.30.13.11.24.10.29.15.4.6.21.23.20.18.5.19.12.26.25.31.28.14.9.27 \
  coordinate_transitive=true transitive=unverified neighbor_transitive=false | diff - report5.txt
# a float r and a string perm are malformed input: exit 3
echo '{"r": 3.9, "perm": "02134567"}' > bad.json
rc=0
perfcode report --tau bad.json || rc=$?
test "$rc" -eq 3
# a usage error is malformed input too: exit 3, never 2 (budget exhaustion)
rc=0
perfcode classify --out classes.json || rc=$?
test "$rc" -eq 3
