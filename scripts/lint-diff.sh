#!/usr/bin/env bash
# Diff-aware pmiot_lint for PR feedback: the analyzer still indexes the
# whole tree (the privacy-flow/check-coverage/no-alloc rules need the full
# cross-TU call graph to be sound) but reporting is restricted to files
# changed since the merge base, so a PR is judged on its own lines. The
# full-tree run (ctest pmiot_lint.tree) remains the gate of record. Usage:
#
#   scripts/lint-diff.sh [base-ref] [binary]
#
# base-ref defaults to origin/main; binary to the default build location.
set -u -o pipefail

cd "$(dirname "$0")/.."
base_ref="${1:-origin/main}"
binary="${2:-build/tools/pmiot_lint/pmiot_lint}"

if [[ ! -x "${binary}" ]]; then
  echo "lint-diff: ${binary} not built (cmake --build build --target pmiot_lint)" >&2
  exit 2
fi

merge_base="$(git merge-base HEAD "${base_ref}" 2> /dev/null || true)"
if [[ -z "${merge_base}" ]]; then
  echo "lint-diff: cannot resolve merge base against ${base_ref};" \
       "falling back to the full-tree run" >&2
  exec "${binary}" --root . --baseline tools/pmiot_lint/baseline.txt \
       src reference bench tests tools
fi

changed="$(mktemp)"
trap 'rm -f "${changed}"' EXIT
git diff --name-only --diff-filter=d "${merge_base}" -- \
    'src/*' 'reference/*' 'bench/*' 'tests/*' 'tools/*' > "${changed}"

if [[ ! -s "${changed}" ]]; then
  echo "lint-diff: no lintable files changed since ${merge_base:0:12}"
  exit 0
fi

echo "lint-diff: $(wc -l < "${changed}") changed files vs ${merge_base:0:12}"
exec "${binary}" --root . --baseline tools/pmiot_lint/baseline.txt \
     --only-listed "${changed}" src reference bench tests tools
