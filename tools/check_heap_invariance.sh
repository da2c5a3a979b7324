#!/usr/bin/env bash
# Runs each binary twice, under the default allocator and under the
# noreuse_malloc shim, and fails if the two stdouts differ anywhere but the
# wall-clock sim.wall.* rows.  A binary that passes prints virtual-time
# results that do not depend on where glibc reuses freed heap blocks.
#
#   tools/check_heap_invariance.sh <build-dir> <binary>...
set -euo pipefail

shim="$(cd "$1" && pwd)/tools/noreuse_malloc/libnoreuse_malloc.so"
shift
[ -f "$shim" ] || { echo "missing $shim" >&2; exit 2; }

status=0
for bin in "$@"; do
  plain=$("$bin" | grep -v 'sim\.wall\.')
  noreuse=$(LD_PRELOAD="$shim" "$bin" | grep -v 'sim\.wall\.')
  if [ "$plain" = "$noreuse" ]; then
    echo "heap-layout invariant: $bin"
  else
    echo "heap-layout dependent: $bin (default allocator < > noreuse_malloc)"
    diff <(echo "$plain") <(echo "$noreuse") || true
    status=1
  fi
done
exit "$status"
