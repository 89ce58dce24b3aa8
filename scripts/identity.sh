#!/bin/sh
# identity.sh checks that a change keeps the simulator's output
# byte-identical: it builds bwchar, sweep, topoview and the examples at REF
# (exported with git archive into a temporary directory that an exit trap
# removes) and from the working tree, runs both builds on the same commands
# and compares their stdout and exit status byte for byte:
#
#   - bwchar all and all-ext;
#   - the dc-train sweep (ZeRO-3, fat-tree:nodes=1024, 2level) at 1 and 2
#     shards;
#   - the 27-cell grid {fat-tree:nodes=256, rail-only:nodes=64,pod=4,
#     dragonfly:nodes=64} × {flat, 2level, multiring} × {ddp, zero2, zero3}
#     at 4 shards, each cell as a table and as JSON;
#   - topoview on the testbed, fat-tree:nodes=64 and dragonfly:nodes=64;
#   - the examples quickstart, capacity_planner, dualnode_zero,
#     nvme_placement and stress_test.
#
# It prints one "same" or "DIFFERS" line per check and exits 1 if any check
# differs. It starts no daemon. Usage, from anywhere in the repository:
#
#   scripts/identity.sh REF      (or: make identity REF=<commit>)
set -eu

REF=${1:-}
if [ -z "$REF" ]; then
	echo "usage: scripts/identity.sh REF" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
	echo "identity: $REF names no commit" >&2
	exit 2
fi

TMP=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
# dash skips the EXIT trap when a signal kills the shell; turning INT, TERM
# and HUP into an ordinary exit makes it run.
trap 'exit 1' INT TERM HUP

EXAMPLES="quickstart capacity_planner dualnode_zero nvme_placement stress_test"
PKGS="./cmd/bwchar ./cmd/sweep ./cmd/topoview"
for ex in $EXAMPLES; do
	PKGS="$PKGS ./examples/$ex"
done

mkdir "$TMP/src" "$TMP/ref" "$TMP/new"
git archive "$REF" | tar -x -C "$TMP/src"
# $PKGS is unquoted on purpose: it splits into one argument per package.
(cd "$TMP/src" && go build -o "$TMP/ref/" $PKGS)
go build -o "$TMP/new/" $PKGS

fail=0
# check NAME BIN ARGS... runs both builds of BIN on ARGS and compares their
# stdout followed by their exit status.
check() {
	name=$1
	bin=$2
	shift 2
	for side in ref new; do
		code=0
		"$TMP/$side/$bin" "$@" >"$TMP/$side.out" 2>/dev/null || code=$?
		echo "exit $code" >>"$TMP/$side.out"
	done
	if cmp -s "$TMP/ref.out" "$TMP/new.out"; then
		echo "same     $name"
	else
		echo "DIFFERS  $name"
		fail=1
	fi
}

check "bwchar all" bwchar all
check "bwchar all-ext" bwchar all-ext
for shards in 1 2; do
	check "dc-train sweep, $shards shards" sweep -json -parallel 1 -iterations 3 -strategy zero3 \
		-topo fat-tree:nodes=1024 -algo 2level -shards "$shards" -sizes 10,40,max
done
for topo in fat-tree:nodes=256 rail-only:nodes=64,pod=4 dragonfly:nodes=64; do
	for algo in flat 2level multiring; do
		for strategy in ddp zero2 zero3; do
			cell="sweep -topo $topo -algo $algo -strategy $strategy -shards 4 -sizes 1,max -iterations 2"
			check "$cell" sweep -topo "$topo" -algo "$algo" -strategy "$strategy" \
				-shards 4 -sizes 1,max -iterations 2
			check "$cell -json" sweep -json -topo "$topo" -algo "$algo" -strategy "$strategy" \
				-shards 4 -sizes 1,max -iterations 2
		done
	done
done
check "topoview" topoview
for topo in fat-tree:nodes=64 dragonfly:nodes=64; do
	check "topoview -topo $topo" topoview -topo "$topo"
done
for ex in $EXAMPLES; do
	check "example $ex" "$ex"
done
exit "$fail"
