#!/usr/bin/env bash
# Runs every self-checking binary listed in scripts/determinism-matrix.txt
# at PMIOT_THREADS 1, 4 and 16 in each given build directory, and diffs each
# run's stdout against the first build's PMIOT_THREADS=1 run. Any difference,
# or any nonzero exit, fails the script. Usage:
#
#   scripts/determinism-matrix.sh build [build-nosimd ...]
#
# Pass a PMIOT_SIMD=ON and a PMIOT_SIMD=OFF build to check scalar/SIMD
# parity as well as pool-width invariance. Each run gets a fresh working
# directory, so files a bench writes (BENCH_*.json, checkpoints) never leak
# between runs; "wrote ..." lines name those files and are not compared.
set -u -o pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
list="${root}/scripts/determinism-matrix.txt"
threads="1 4 16"

if [[ $# -eq 0 ]]; then
  echo "usage: scripts/determinism-matrix.sh build-dir [build-dir ...]" >&2
  exit 2
fi
builds=()
for b in "$@"; do
  builds+=("$(cd "${b}" && pwd)")
done

out="$(mktemp -d)"
trap 'rm -rf "${out}"' EXIT
status=0

# The list is read on fd 3 so a bench reading stdin cannot swallow it.
while read -r name binary args <&3; do
  [[ -z "${name}" || "${name}" == \#* ]] && continue
  reference=""
  for b in "${builds[@]}"; do
    for t in ${threads}; do
      tag="$(basename "${b}")_t${t}"
      work="${out}/${name}_${tag}"
      mkdir -p "${work}"
      # shellcheck disable=SC2086  # args is a word list by design
      if ! (cd "${work}" && PMIOT_THREADS="${t}" "${b}/${binary}" ${args} \
              > stdout.txt 2> stderr.txt); then
        echo "FAIL ${name} (${tag}): exit status nonzero" >&2
        tail -n 20 "${work}/stderr.txt" >&2
        status=1
        continue
      fi
      grep -v '^wrote ' "${work}/stdout.txt" > "${work}/stable.txt"
      if [[ -z "${reference}" ]]; then
        reference="${work}/stable.txt"
      elif ! diff -u "${reference}" "${work}/stable.txt"; then
        echo "FAIL ${name} (${tag}): stdout differs from the first run" >&2
        status=1
        continue
      fi
      echo "ok   ${name} (${tag})"
    done
  done
done 3< "${list}"

exit "${status}"
