#!/bin/sh
# Build the suite and the dca daemon from this source tree, then run one
# workload:
#
#   sh benchsuite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the tree.  Everything the run writes (the dune
# build, daemon sockets, caches and traces) stays inside the tree; the
# shared dune cache outside it is not used.
set -u

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f benchsuite/dune ]; then
  echo "benchsuite: run from the root of a dca source tree (dune-project, lib/, bin/)" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . benchsuite/suite.exe bin/dca_cli.exe 1>&2 || exit 3

exec ./_build/default/benchsuite/suite.exe --dca ./_build/default/bin/dca_cli.exe "$@"
