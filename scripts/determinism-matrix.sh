#!/usr/bin/env bash
# Runs every self-checking binary listed in scripts/determinism-matrix.txt
# at PMIOT_THREADS 1, 4 and 16 in each given build directory, with metrics
# off and with PMIOT_METRICS=1. Any nonzero exit fails the script, and so
# does any difference in what the determinism contract pins:
#
#   * stdout with metrics off: identical to the first build's
#     PMIOT_THREADS=1 run;
#   * stdout with metrics on: identical to the metrics-off run;
#   * BENCH_*.json a run writes: identical with metrics on and off once the
#     wall-clock "results" block is removed;
#   * the deterministic metrics snapshot on stderr (everything before the
#     "-- nondeterministic" marker): identical to the same build's
#     PMIOT_THREADS=1 snapshot, and that one identical to the first
#     build's, with at least one counter line (and, for the binaries named
#     in `expect_counter` below, that counter).
#
# Usage:
#
#   scripts/determinism-matrix.sh [--allow-counter NAME ...] build \
#       [build-parent ...]
#
# One build checks pool-width invariance. Pass a second build of the parent
# commit (first or second; every build is held to the first build's
# outputs) to check that a change leaves every primary output and counter
# byte-identical as well. A change that moves a deterministic counter on
# purpose names it with `--allow-counter NAME` (repeatable): between two
# builds, that counter may differ from the first build's value, and the
# script prints both values. Within a build every counter must still match
# at every width and with metrics on or off, and stdout and BENCH payloads
# are compared byte for byte as always. Each run gets a fresh working
# directory, so files a bench writes (BENCH_*.json, checkpoints) never leak
# between runs; "wrote ..." lines name those files and are not compared.
set -u -o pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
list="${root}/scripts/determinism-matrix.txt"
threads="1 4 16"

# A counter each of these binaries' metrics snapshot must report.
declare -A expect_counter=(
  [sec4]=par.batches
  [fig2]=ml.fhmm.chain_eliminations
  [fleet]=fleet.packets
  [campaign]=ml.forest.trees_walked
  [arena]=net.arena.windows
)

usage() {
  echo "usage: scripts/determinism-matrix.sh [--allow-counter NAME ...]" \
       "build-dir [build-dir ...]" >&2
  exit 2
}
allowed=()
builds=()
while [[ $# -gt 0 ]]; do
  if [[ "$1" == --allow-counter ]]; then
    [[ $# -ge 2 && -n "$2" ]] || usage
    allowed+=("$2")
    shift 2
  else
    builds+=("$(cd "$1" && pwd)") || exit 2
    shift
  fi
done
[[ ${#builds[@]} -gt 0 ]] || usage

out="$(mktemp -d)"
trap 'rm -rf "${out}"' EXIT
status=0

# run NAME TAG THREADS METRICS BINARY ARGS...: runs one binary in a fresh
# working directory ${out}/NAME_TAG_mMETRICS and strips "wrote ..." lines
# from its stdout into stable.txt. Returns nonzero (after reporting) on a
# failed run.
run() {
  local name="$1" tag="$2" width="$3" metrics="$4" binary="$5"
  shift 5
  local work="${out}/${name}_${tag}_m${metrics}"
  mkdir -p "${work}"
  if ! (cd "${work}" && PMIOT_METRICS="${metrics}" PMIOT_THREADS="${width}" \
          "${binary}" "$@" > stdout.txt 2> stderr.txt); then
    echo "FAIL ${name} (${tag}, PMIOT_METRICS=${metrics}): exit status" \
         "nonzero" >&2
    tail -n 20 "${work}/stderr.txt" >&2
    return 1
  fi
  grep -v '^wrote ' "${work}/stdout.txt" > "${work}/stable.txt"
}

# Prints the first difference between two BENCH json files once each one's
# "results" block (wall-clock timings) is removed; exits nonzero if any.
same_bench_payload() {
  python3 - "$1" "$2" <<'EOF'
import json
import sys

off, on = (json.load(open(path)) for path in sys.argv[1:3])
for doc in (off, on):
    doc.pop("results", None)
if off != on:
    sys.exit(f"payloads differ:\n{off}\n{on}")
EOF
}

# counter_value SNAPSHOT NAME: the value of counter NAME, or "absent".
counter_value() {
  awk -v name="$2" '$1 == "counter" && $2 == name { print $3; found = 1 }
                    END { if (!found) print "absent" }' "$1"
}

# without_allowed SNAPSHOT: the snapshot minus the allowed counters' lines.
without_allowed() {
  awk -v names="${allowed[*]}" '
    BEGIN { split(names, n, " "); for (i in n) skip[n[i]] = 1 }
    !($1 == "counter" && ($2 in skip))' "$1"
}

# same_across_builds NAME FIRST OTHER: diffs two builds' snapshots without
# the allowed counters, and prints each allowed counter whose value moved.
# Returns nonzero on any other difference.
same_across_builds() {
  local name="$1" first="$2" other="$3" counter before after
  for counter in "${allowed[@]}"; do
    before="$(counter_value "${first}" "${counter}")"
    after="$(counter_value "${other}" "${counter}")"
    if [[ "${before}" != "${after}" ]]; then
      echo "allowed ${name}: counter ${counter} ${before} -> ${after}"
    fi
  done
  diff -u <(without_allowed "${first}") <(without_allowed "${other}")
}

# The list is read on fd 3 so a bench reading stdin cannot swallow it.
while read -r name binary args <&3; do
  [[ -z "${name}" || "${name}" == \#* ]] && continue
  reference=""
  metrics_reference=""
  for i in "${!builds[@]}"; do
    b="${builds[${i}]}"
    build_metrics=""
    for t in ${threads}; do
      # The position keeps two builds with one basename (build/ in two
      # checkouts) from sharing, and overwriting, a working directory.
      tag="${i}-$(basename "${b}")_t${t}"
      off="${out}/${name}_${tag}_m0"
      on="${out}/${name}_${tag}_m1"
      # shellcheck disable=SC2086  # args is a word list by design
      if ! run "${name}" "${tag}" "${t}" 0 "${b}/${binary}" ${args}; then
        status=1
        continue
      fi
      if [[ -z "${reference}" ]]; then
        reference="${off}/stable.txt"
      elif ! diff -u "${reference}" "${off}/stable.txt"; then
        echo "FAIL ${name} (${tag}): stdout differs from the first run" >&2
        status=1
        continue
      fi

      # shellcheck disable=SC2086
      if ! run "${name}" "${tag}" "${t}" 1 "${b}/${binary}" ${args}; then
        status=1
        continue
      fi
      if ! diff -u "${off}/stable.txt" "${on}/stable.txt"; then
        echo "FAIL ${name} (${tag}): stdout changes with PMIOT_METRICS=1" >&2
        status=1
        continue
      fi
      for json in "${off}"/BENCH_*.json; do
        [[ -e "${json}" ]] || continue
        if ! same_bench_payload "${json}" "${on}/$(basename "${json}")"; then
          echo "FAIL ${name} (${tag}): $(basename "${json}") changes with" \
               "PMIOT_METRICS=1" >&2
          status=1
          continue 2
        fi
      done
      sed '/-- nondeterministic/,$d' "${on}/stderr.txt" > "${on}/metrics.txt"
      if ! grep -q '^counter ' "${on}/metrics.txt"; then
        echo "FAIL ${name} (${tag}): metrics snapshot has no counter" >&2
        status=1
        continue
      fi
      counter="${expect_counter[${name}]:-}"
      if [[ -n "${counter}" ]] &&
           ! grep -q "^counter ${counter} " "${on}/metrics.txt"; then
        echo "FAIL ${name} (${tag}): metrics snapshot lacks ${counter}" >&2
        status=1
        continue
      fi
      # Each build's first snapshot is held to the first build's, allowed
      # counters aside; every other snapshot to its own build's first.
      if [[ -z "${build_metrics}" ]]; then
        build_metrics="${on}/metrics.txt"
        if [[ -z "${metrics_reference}" ]]; then
          metrics_reference="${on}/metrics.txt"
        elif ! same_across_builds "${name}" "${metrics_reference}" \
                "${on}/metrics.txt"; then
          echo "FAIL ${name} (${tag}): deterministic metrics differ from" \
               "the first build's" >&2
          status=1
          continue
        fi
      elif ! diff -u "${build_metrics}" "${on}/metrics.txt"; then
        echo "FAIL ${name} (${tag}): deterministic metrics differ from this" \
             "build's first run" >&2
        status=1
        continue
      fi
      echo "ok   ${name} (${tag})"
    done
  done
done 3< "${list}"

exit "${status}"
