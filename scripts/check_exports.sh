#!/bin/sh
# Dead-export lint: every value a library interface (lib/*/*.mli)
# exports must be named somewhere outside its own implementation, in
# lib, bin, benchmark, bench, test or examples.  A use counts only by
# qualified path (Module.name, Module.Sub.name, with any library
# prefix), or by the bare name in a file that opens, includes or
# aliases the module (open, let open, Module.( ... ), include, or
# module X = ...Module).  Prints each export with no use and exits 1 if
# there is any.
#
# Usage: scripts/check_exports.sh   (from anywhere in the repository)
set -eu
cd "$(dirname "$0")/.."

# Kept on purpose: Sim.process_name for charging wall time to the
# process that spent it (ROADMAP item 4), and the Pm_kv, Pm_index and
# Pm_queue APIs for the workload axis (ROADMAP item 7).
allowed() {
  case "$1" in
    Sim.process_name | Pm_kv.* | Pm_index.* | Pm_queue.*) return 0 ;;
    *) return 1 ;;
  esac
}

dirs="lib bin benchmark bench test examples"
path="([A-Z][A-Za-z0-9_']*\.)*"

dead=0
for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  module=$(printf '%s' "$base" | sed 's/^./\U&/')
  # shellcheck disable=SC2086
  openers=$(grep -rlE --include='*.ml' --exclude="$base.ml" \
    -e "(open!?|include)[[:space:]]+$path$module\b" \
    -e "module[[:space:]]+[A-Z][A-Za-z0-9_']*[[:space:]]*=[[:space:]]*$path$module\b" \
    -e "\b$module\.$path\(" \
    $dirs || true)
  for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    allowed "$module.$name" && continue
    # shellcheck disable=SC2086
    if grep -rqE --include='*.ml' --exclude="$base.ml" -e "\b$module\.$path$name\b" $dirs; then
      continue
    fi
    # shellcheck disable=SC2086
    if [ -n "$openers" ] && grep -qw -e "$name" $openers; then
      continue
    fi
    echo "$module.$name"
    dead=$((dead + 1))
  done
done
[ "$dead" -eq 0 ]
