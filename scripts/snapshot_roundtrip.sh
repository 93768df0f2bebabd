#!/bin/sh
# End-to-end check of the network-snapshot artifact format through the
# CLI: run sresim with a cold snapshot directory (builds + persists),
# run it again against the now-warm directory (loads the artifact), and
# require byte-identical simulation output — the bit-identity contract
# of DESIGN.md §6. Also proves a second design point gets its own
# artifact rather than colliding with the first, and that the build's
# bytes do not depend on the worker-pool width (layers are built
# concurrently on the pool).
# Usage: snapshot_roundtrip.sh <path-to-sresim-binary>
set -eu

BIN=${1:?usage: snapshot_roundtrip.sh <sresim binary>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

run() {
	"$BIN" -network MNIST -mode orc+dof -windows 12 -snapshot-dir "$DIR/snaps" "$@"
}

run >"$DIR/cold.txt"
COUNT=$(ls "$DIR/snaps"/*.sresnap | wc -l)
if [ "$COUNT" -ne 1 ]; then
	echo "snapshot_roundtrip: expected 1 artifact after the cold run, found $COUNT" >&2
	exit 1
fi

run >"$DIR/warm.txt"
if ! diff -u "$DIR/cold.txt" "$DIR/warm.txt"; then
	echo "snapshot_roundtrip: snapshot-loaded run diverged from the fresh build" >&2
	exit 1
fi

# A different seed is a different build point: new artifact, no collision.
run -seed 7 >/dev/null
COUNT=$(ls "$DIR/snaps"/*.sresnap | wc -l)
if [ "$COUNT" -ne 2 ]; then
	echo "snapshot_roundtrip: expected 2 artifacts after a second seed, found $COUNT" >&2
	exit 1
fi

# The same build at two pool widths must persist byte-identical artifacts.
for w in 1 4; do
	"$BIN" -network CIFAR-10 -mode orc+dof -windows 12 -workers "$w" \
		-snapshot-dir "$DIR/width$w" >/dev/null
done
A=$(ls "$DIR/width1"/*.sresnap)
B=$(ls "$DIR/width4"/*.sresnap)
if ! cmp "$A" "$B"; then
	echo "snapshot_roundtrip: CIFAR-10 artifacts built at -workers 1 and -workers 4 differ" >&2
	exit 1
fi

echo "snapshot_roundtrip: OK (fresh and snapshot-loaded outputs identical; artifacts identical across widths)"
