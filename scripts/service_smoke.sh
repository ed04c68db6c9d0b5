#!/usr/bin/env bash
# End-to-end smoke test for `xclusterctl serve --stdin`: builds a synopsis
# from the bundled example document, feeds a scripted request stream
# through the serve protocol, and validates the responses (including the
# batch framing: header + exactly k item lines). Also exercises the
# multi-query estimate path through the synopsis store, and checks that
# `estimate --explain` and `evaluate` print identical output for the same
# synopsis as `.xcs` and as `.xcsf`.
#
# Usage: scripts/service_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
XCLUSTERCTL="$BUILD_DIR/tools/xclusterctl"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

fail() {
  echo "service_smoke: FAIL: $*" >&2
  exit 1
}

[ -x "$XCLUSTERCTL" ] || fail "$XCLUSTERCTL not built"

# 1. Build a synopsis to serve.
"$XCLUSTERCTL" build --in examples/books.xml --bstr 0 \
  --out "$WORKDIR/books.xcs" >/dev/null

# 2. Scripted session through the line protocol.
cat > "$WORKDIR/session.txt" <<'EOF'
# smoke session
help
load books WORKDIR/books.xcs
list
estimate books //book
estimate books ][not-a-query
estimate missing //book
batch books 3
//book
//book[/price]
][broken
estimate books //book[/price]
batch books 2
//book
//book[/price]
stats
drop books
quit
EOF
sed -i "s#WORKDIR#$WORKDIR#" "$WORKDIR/session.txt"

"$XCLUSTERCTL" serve --stdin --workers 2 \
  < "$WORKDIR/session.txt" > "$WORKDIR/out.txt"

echo "--- serve responses ---"
cat "$WORKDIR/out.txt"

expect_line() { # expect_line <lineno> <grep-pattern>
  sed -n "${1}p" "$WORKDIR/out.txt" | grep -Eq "$2" \
    || fail "line $1 !~ /$2/: $(sed -n "${1}p" "$WORKDIR/out.txt")"
}

expect_line 1 '^ok help'
expect_line 2 '^ok load books gen=[0-9]+ clusters=[0-9]+'
expect_line 3 '^ok list 1$'
expect_line 4 '^synopsis books '
expect_line 5 '^ok estimate [0-9.eE+-]+ us=[0-9]+'
expect_line 6 '^err InvalidArgument'
expect_line 7 '^err NotFound'
expect_line 8 '^ok batch n=3 ok=2 err=1 us=[0-9]+'
expect_line 9 '^0 ok [0-9.eE+-]+ us=[0-9]+'
expect_line 10 '^1 ok [0-9.eE+-]+ us=[0-9]+'
expect_line 11 '^2 err InvalidArgument'
expect_line 12 '^ok estimate [0-9.eE+-]+ us=[0-9]+'
expect_line 13 '^ok batch n=2 ok=2 err=0 us=[0-9]+'
expect_line 14 '^0 ok [0-9.eE+-]+ us=[0-9]+'
expect_line 15 '^1 ok [0-9.eE+-]+ us=[0-9]+'
expect_line 16 '^ok stats synopses=1 workers=2 '
expect_line 17 '^ok drop books$'
expect_line 18 '^ok bye$'
[ "$(wc -l < "$WORKDIR/out.txt")" -eq 18 ] \
  || fail "expected exactly 18 response lines"

# Every batch slot must report the identical estimate string as the
# single-query `estimate` line for the same query (batches are gated to be
# bit-identical to the inline estimator). Line 5 answers //book, line 12
# //book[/price]; both batches carry them as items 0 and 1.
field() { sed -n "${1}p" "$WORKDIR/out.txt" | awk '{print $3}'; }
for pair in "5 9" "12 10" "5 14" "12 15"; do
  set -- $pair
  [ "$(field "$1")" = "$(field "$2")" ] \
    || fail "estimate/batch mismatch: line $1 $(field "$1") vs line $2 $(field "$2")"
done

# 3. Multi-query estimate through the synopsis store.
printf '//book\n//book[/price]\n' > "$WORKDIR/queries.txt"
"$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.xcs" \
  --queries "$WORKDIR/queries.txt" --workers 2 > "$WORKDIR/multi.txt"
echo "--- multi-query estimate ---"
cat "$WORKDIR/multi.txt"
[ "$(grep -c '//book' "$WORKDIR/multi.txt")" -eq 2 ] \
  || fail "expected 2 per-query result lines"
grep -q '^# 2 queries: ok=2 ' "$WORKDIR/multi.txt" \
  || fail "missing latency summary line"

# 4. Compile the synopsis to the flat mmap image, verify it, serve from
# it, and prove the .xcsf path reports the identical estimate strings as
# the .xcs path (the mapped estimator is gated to be bit-identical).
"$XCLUSTERCTL" compile --in "$WORKDIR/books.xcs" \
  --out "$WORKDIR/books.xcsf" >/dev/null
"$XCLUSTERCTL" verify --synopsis "$WORKDIR/books.xcsf" --quiet \
  || fail "compiled .xcsf does not verify"
"$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.xcsf" \
  --queries "$WORKDIR/queries.txt" --workers 2 > "$WORKDIR/multi_xcsf.txt"
echo "--- multi-query estimate (.xcsf) ---"
cat "$WORKDIR/multi_xcsf.txt"
[ "$(grep -c '//book' "$WORKDIR/multi_xcsf.txt")" -eq 2 ] \
  || fail "expected 2 per-query result lines from the .xcsf path"
# Per-query lines are `estimate us=N query`; the timings legitimately
# differ between runs, so diff only estimate + query.
awk '/^[^#]/ {print $1, $3}' "$WORKDIR/multi.txt" > "$WORKDIR/est_xcs.txt"
awk '/^[^#]/ {print $1, $3}' "$WORKDIR/multi_xcsf.txt" > "$WORKDIR/est_xcsf.txt"
diff -u "$WORKDIR/est_xcs.txt" "$WORKDIR/est_xcsf.txt" \
  || fail ".xcs and .xcsf estimates differ"

# 5. EXPLAIN and workload evaluation: both formats open as the same
# FlatSynopsis, so the printed breakdown and error report must match byte
# for byte. The workload's true selectivities are exact counts over
# examples/books.xml.
printf '%s\t%s\t%s\n' \
  Struct 150 '//book' \
  Struct 325 '//book/author' \
  Struct 150 '//book[/price]' \
  Struct 325 '//book//name' \
  Numeric 76 '//book/year[range(1990,2020)]' \
  String 40 '//book/title[contains(Graph)]' > "$WORKDIR/books.tsv"
for format in xcs xcsf; do
  "$XCLUSTERCTL" estimate --synopsis "$WORKDIR/books.$format" \
    --query '//book[/price]/author' --explain \
    > "$WORKDIR/explain_$format.txt" \
    || fail "estimate --explain failed on .$format"
  "$XCLUSTERCTL" evaluate --synopsis "$WORKDIR/books.$format" \
    --workload "$WORKDIR/books.tsv" > "$WORKDIR/evaluate_$format.txt" \
    || fail "evaluate failed on .$format"
done
echo "--- estimate --explain ---"
cat "$WORKDIR/explain_xcs.txt"
echo "--- evaluate ---"
cat "$WORKDIR/evaluate_xcs.txt"
diff -u "$WORKDIR/explain_xcs.txt" "$WORKDIR/explain_xcsf.txt" \
  || fail ".xcs and .xcsf explain output differs"
diff -u "$WORKDIR/evaluate_xcs.txt" "$WORKDIR/evaluate_xcsf.txt" \
  || fail ".xcs and .xcsf evaluate reports differ"

echo "service_smoke: OK"
