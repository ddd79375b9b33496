#!/usr/bin/env bash
# Lists production functions that no binary links, and fails on any that
# scripts/unreached.allow does not name.
#
#   scripts/unreached.sh          # print the unlinked set, gate on the allowlist
#   scripts/unreached.sh -list    # print the unlinked set only, never fail
#
# Every main package of the module and rumorbench are built with inlining
# off (-gcflags=all=-l), so a function the linker keeps shows up as its
# own text symbol. A top-level func or method declared in a non-test file
# under internal/ that appears in no binary's symbol table is code only
# its own tests reach. Each one that stays on purpose (public API reached
# only through rumornet.go's aliases, the DP5(4) oracle, read-only test
# accessors, test fixtures) has a line in scripts/unreached.allow:
#
#   internal/pkg Recv.Func  # why it stays
#
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
mode=${1:-gate}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin"

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086
go build -gcflags=all=-l -o "$tmp/bin/" $mains
(cd rumorbench && go build -gcflags=all=-l -o "$tmp/bin/rumorbench" .)

# Linked: "internal/pkg Recv.Func" for every text symbol of the module's
# internal packages. Closures (.funcN), generic shapes ([...]) and the
# pointer-receiver wrapper's (*T) are folded onto their declaration.
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
	sed -n 's|^rumornet/\(internal/[^.]*\)\.\(.*\)$|\1 \2|p' |
	sed -E 's/\[[^]]*\]//g; s/\(\*([A-Za-z0-9_]+)\)/\1/; s/\.func[0-9]+(\.[0-9]+)*$//; s/\.(gowrap|deferwrap)[0-9]+$//; s/-fm$//' |
	awk '{ n = split($2, p, "."); if (n > 2) $2 = p[1] "." p[2]; print }' |
	sort -u >"$tmp/linked"

# Declared: every top-level func and method in non-test files under
# internal/, except init. gofmt puts each declaration at column 0.
find internal -name '*.go' ! -name '*_test.go' -print0 | sort -z |
	xargs -0 awk '
		/^func / {
			dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
			line = $0
			if (line ~ /^func \(/) {
				recv = line; sub(/^func \([^)]*[ *]/, "", recv); sub(/[^A-Za-z0-9_].*$/, "", recv)
				if (line ~ /^func \([A-Za-z0-9_]*\)/) { recv = line; sub(/^func \(/, "", recv); sub(/\).*$/, "", recv) }
				name = line; sub(/^func \([^)]*\) */, "", name)
				sub(/[^A-Za-z0-9_].*$/, "", name)
				name = recv "." name
			} else {
				name = line; sub(/^func /, "", name); sub(/[^A-Za-z0-9_].*$/, "", name)
			}
			if (name != "init") print dir, name
		}' |
	sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unreached"

if [[ $mode == -list ]]; then
	cat "$tmp/unreached"
	exit 0
fi

sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' scripts/unreached.allow |
	awk '{ print $1, $2 }' | sort -u >"$tmp/allowed"

missing=$(comm -23 "$tmp/unreached" "$tmp/allowed")
stale=$(comm -13 "$tmp/unreached" "$tmp/allowed")
n=$(wc -l <"$tmp/unreached")
status=0
if [[ -n $missing ]]; then
	echo "unreached: linked by no binary and not in scripts/unreached.allow:" >&2
	echo "$missing" | sed 's/^/  /' >&2
	echo "delete the code, or allowlist it with the reason it stays" >&2
	status=1
fi
if [[ -n $stale ]]; then
	echo "unreached: allowlisted but linked or gone (drop the line):" >&2
	echo "$stale" | sed 's/^/  /' >&2
	status=1
fi
[[ $status == 0 ]] && echo "unreached: ok ($n unlinked, all allowlisted)"
exit $status
