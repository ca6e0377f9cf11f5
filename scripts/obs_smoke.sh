#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability smoke test.
#
# Builds the real binaries, generates an XMark document, materializes a
# store, boots xvserve with the observability flags on (slow-query log,
# debug listener), drives queries and an update over HTTP, then asserts:
#
#   - GET /metrics serves the key series with non-zero values,
#     including the per-view read counter and a latency histogram count;
#   - the slow-query log captured structured lines (threshold 1ns);
#   - the debug listener serves /debug/pprof/ and /debug/traces,
#     and the public listener does NOT serve the profiler;
#   - `xv stats` scrapes the live daemon;
#   - `xv gen | xv summary` works as a pipe, and `xv contain` exits 1 on a
#     negative verdict and 2 on a usage error (the CLI's exit-status rule).
#
# CI runs this after the unit tests; it needs nothing beyond the Go
# toolchain, curl and a POSIX shell.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

mkdir -p "$tmp/bin"
go build -o "$tmp/bin" ./cmd/xv ./cmd/xvserve
xv="$tmp/bin/xv"

"$xv" gen -corpus xmark -scale 1 >"$tmp/doc.xml"
"$xv" build -doc "$tmp/doc.xml" -out "$tmp/store" \
    -v 'VNAME=site(//item[id](/name[v]))' >/dev/null

# The offline tools compose over a pipe: a summary read from stdin.
piped=$("$xv" gen -scale 1 | "$xv" summary)
case "$piped" in
'<stdin>: '*'|S| = '*) ;;
*) echo "obs_smoke: xv gen | xv summary printed: $piped"; exit 1 ;;
esac

# Exit statuses: 0 yes, 1 a negative verdict, 2 a usage error.
status() { "$@" >/dev/null 2>&1 && echo 0 || echo $?; }
got=$(status "$xv" contain -summary 'a(b(c))' -p 'a(/b[id])' -q 'a(//b[id])')
[ "$got" -eq 0 ] || { echo "obs_smoke: contained pair exited $got, want 0"; exit 1; }
got=$(status "$xv" contain -summary 'a(b c)' -p 'a(/b[id] /c)' -q 'a(/b[id](/c))')
[ "$got" -eq 1 ] || { echo "obs_smoke: non-contained pair exited $got, want 1"; exit 1; }
got=$(status "$xv" contain -summary 'a(b c)' -p 'a(/b[id] /c)')
[ "$got" -eq 2 ] || { echo "obs_smoke: contain without -q exited $got, want 2"; exit 1; }

"$tmp/bin/xvserve" -dir "$tmp/store" -addr 127.0.0.1:0 \
    -debugaddr 127.0.0.1:0 -slowquery 1ns -log "$tmp/slow.log" \
    >"$tmp/serve.log" &
pid=$!

# The daemon announces both listeners, one per line, with ephemeral ports.
addr="" debug=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^xvserve: serving .* on //p' "$tmp/serve.log")
    debug=$(sed -n 's/^xvserve: debug listener .* on //p' "$tmp/serve.log")
    [ -n "$addr" ] && [ -n "$debug" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "obs_smoke: daemon died:"; cat "$tmp/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] && [ -n "$debug" ] || { echo "obs_smoke: daemon never announced its listeners"; exit 1; }

# Drive the pipeline: two queries (miss then hit), one traced, one update.
curl -fsS -G --data-urlencode 'q=site(//item[id](/name[v]))' "http://$addr/query" >/dev/null
traced=$(curl -fsS -G --data-urlencode 'q=site(//item[id](/name[v]))' --data-urlencode 'trace=1' \
    "http://$addr/query")
# A value predicate the view does not store runs as a selection over the
# scan — the vectorized kernel path — and must report exec_path.
vec=$(curl -fsS -G --data-urlencode 'q=site(//item[id](/name[v]{v!=""}))' "http://$addr/query")
case "$vec" in
*'"exec_path":"vectorized"'*) ;;
*) echo "obs_smoke: selective query did not run vectorized: $vec"; exit 1 ;;
esac
case "$traced" in
*'"trace"'*) ;;
*) echo "obs_smoke: trace=1 returned no trace"; exit 1 ;;
esac
curl -fsS -X POST -d '[{"op":"insert","parent":"1","subtree":"item(name \"smoke\")"}]' \
    "http://$addr/update" >/dev/null
# Three concurrent writers exercise the group-commit path (they may merge
# into one epoch or commit as several groups; either way the committer's
# instruments must fire). Wait on the curls by pid — a bare `wait` would
# also wait on the daemon.
writers=""
for i in 1 2 3; do
    curl -fsS -X POST -d '[{"op":"insert","parent":"1","subtree":"item(name \"grp'"$i"'\")"}]' \
        "http://$addr/update" >/dev/null &
    writers="$writers $!"
done
for w in $writers; do wait "$w"; done

# Key series must be present and non-zero on the scrape.
metrics=$(curl -fsS "http://$addr/metrics")
for series in \
    'xvserve_queries_total' \
    'xvserve_rows_served_total' \
    'xvserve_rewrites_run_total' \
    'xvserve_updates_applied_total' \
    'xvserve_tuples_added_total' \
    'xvserve_rewrite_seconds_count' \
    'xvserve_exec_seconds_count' \
    'xvserve_maintain_seconds_count' \
    'xvserve_group_commits_total' \
    'xvserve_commit_group_size_count' \
    'xvserve_commit_group_size_sum' \
    'xvserve_commit_queue_wait_seconds_count' \
    'xvserve_view_reads_total{view="VNAME"}' \
    'xvserve_vec_kernels_total{kernel="select_value"}' \
    'xvserve_vec_blocks_scanned_total' \
    'xvserve_http_requests_total{path="/query",code="200"}' \
    'go_goroutines'; do
    val=$(printf '%s\n' "$metrics" | awk -v s="$series" '$1 == s { print $2 }')
    case "$val" in
    '' | 0) echo "obs_smoke: series $series missing or zero (got '$val')"; exit 1 ;;
    esac
done

# Threshold 1ns: every pipeline request logged exactly one slog JSON line
# (3 queries + 4 updates).
lines=$(wc -l <"$tmp/slow.log")
[ "$lines" -eq 7 ] || { echo "obs_smoke: want 7 slow-log lines, got $lines:"; cat "$tmp/slow.log"; exit 1; }
grep -q '"request_id"' "$tmp/slow.log" || { echo "obs_smoke: slow log lacks request ids"; exit 1; }

# Debug listener: profiler, metrics and traces live there...
curl -fsS "http://$debug/debug/pprof/" >/dev/null
curl -fsS "http://$debug/metrics" >"$tmp/debug_metrics"
grep -q '^xvserve_queries_total' "$tmp/debug_metrics" \
    || { echo "obs_smoke: debug /metrics empty"; exit 1; }
curl -fsS "http://$debug/debug/traces" >"$tmp/traces.json"
grep -q '"request_id"' "$tmp/traces.json" \
    || { echo "obs_smoke: /debug/traces has no records"; exit 1; }
# ...and the profiler must NOT leak onto the public listener.
if curl -fsS "http://$addr/debug/pprof/" >/dev/null 2>&1; then
    echo "obs_smoke: pprof exposed on the public listener"
    exit 1
fi

# The CLI scraper summarizes the same daemon. (Capture, then grep: under
# pipefail a quitting `grep -q` would SIGPIPE the scraper.)
summary=$("$xv" stats -addr "$addr")
printf '%s\n' "$summary" | grep -q 'phase latencies' \
    || { echo "obs_smoke: xv stats printed no quantiles"; exit 1; }
printf '%s\n' "$summary" | grep -q 'commit groups:' \
    || { echo "obs_smoke: xv stats printed no commit-group summary"; exit 1; }

echo "obs_smoke: OK"
