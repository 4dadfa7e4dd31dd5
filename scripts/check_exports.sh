#!/bin/sh
# Dead-export lint: every value a library interface (lib/*/*.mli)
# exports must be named somewhere outside its own implementation, in
# lib, bin, benchmark, bench, test or examples.  The match is on the
# bare word, so it can only miss dead exports, never flag live ones.
# Prints each export with no reference and exits 1 if there is any.
#
# Usage: scripts/check_exports.sh   (from anywhere in the repository)
set -eu
cd "$(dirname "$0")/.."

# Kept on purpose: Sim.process_name for charging wall time to the
# process that spent it (ROADMAP item 2), and the Pm_kv, Pm_index and
# Pm_queue APIs for the workload axis (ROADMAP item 5).
allowed() {
  case "$1" in
    Sim.process_name | Pm_kv.* | Pm_index.* | Pm_queue.*) return 0 ;;
    *) return 1 ;;
  esac
}

dead=0
for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  module=$(printf '%s' "$base" | sed 's/^./\U&/')
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    allowed "$module.$name" && continue
    if ! grep -rqw --include='*.ml' --exclude="$base.ml" -e "$name" \
      lib bin benchmark bench test examples; then
      echo "$module.$name"
      dead=$((dead + 1))
    fi
  done
done
[ "$dead" -eq 0 ]
