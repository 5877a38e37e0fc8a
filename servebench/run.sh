#!/usr/bin/env bash
# Serving benchmark entry point. Run from the root of a suu source tree:
#
#   bash servebench/run.sh --workload mc-heavy --seed 1 --seconds 10 --trace 0
#
# Builds the suu CLI and the load generator from source with dune,
# then runs the load generator, which prints its result as the last line of
# standard output. Build output goes to standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/suu_cli.ml ] || [ ! -d lib ]; then
  echo "servebench: run from the root of a suu source tree (dune-project, bin/, lib/)" >&2
  exit 2
fi

# Keep every build artefact inside the tree.
export DUNE_CACHE=disabled
dune build --root . bin/suu_cli.exe servebench/main.exe 1>&2

if [ -d .git ]; then
  SERVEBENCH_GIT=$(git describe --always --dirty 2>/dev/null || echo unknown)
  export SERVEBENCH_GIT
fi

exec _build/default/servebench/main.exe --exe _build/default/bin/suu_cli.exe "$@"
