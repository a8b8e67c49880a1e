#!/usr/bin/env bash
# server-smoke.sh is the end-to-end check of the HTTP server: it builds
# hidb-server and hidb-crawl into a temporary directory and serves AdultLike
# at k=256 with no session flags three times: from the in-memory engine,
# from the disk engine (-engine disk, store file built on first run), and
# from a 4-band disk store in the same data dir, which must get a store of
# its own (shards=4 in the server log). Each pass crawls over HTTP with 16 workers and checks the paper's cost
# metric (778 queries) on the crawler's report and on the anonymous session
# in GET /stats, the engine kind in /stats, and a clean exit 0 after
# SIGTERM. It also checks that the removed -quota flag is refused.
#
# Usage: scripts/server-smoke.sh   (GO overrides the go command)
set -euo pipefail

GO=${GO:-go}
ADDR=127.0.0.1:18321
URL=http://$ADDR
WANT=778

tmp=$(mktemp -d)
server_pid=
cleanup() {
	if [ -n "$server_pid" ]; then
		kill "$server_pid" 2>/dev/null || true
		wait "$server_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "server-smoke: $*" >&2
	if [ -f "$tmp/server.log" ]; then
		echo "--- server log" >&2
		cat "$tmp/server.log" >&2
	fi
	exit 1
}

"$GO" build -o "$tmp/hidb-server" ./cmd/hidb-server
"$GO" build -o "$tmp/hidb-crawl" ./cmd/hidb-crawl

# -quota is gone: per-client budgets are -quota-per-client.
if timeout 10 "$tmp/hidb-server" -quota 5 -addr 127.0.0.1:0 >"$tmp/quota.log" 2>&1; then
	fail "hidb-server -quota 5 exited 0, want an undefined-flag error"
fi
grep -q 'flag provided but not defined: -quota' "$tmp/quota.log" ||
	fail "hidb-server -quota 5 did not fail as an undefined flag: $(cat "$tmp/quota.log")"

# smoke_pass KIND [FLAGS...] serves AdultLike at k=256 with the given extra
# flags, crawls it, and checks the query count, the engine kind and the
# SIGTERM exit.
smoke_pass() {
	local kind=$1
	shift
	"$tmp/hidb-server" -dataset adult -k 256 -addr "$ADDR" "$@" >"$tmp/server.log" 2>&1 &
	server_pid=$!

	local ready=
	for _ in $(seq 1 300); do
		kill -0 "$server_pid" 2>/dev/null || fail "$kind: hidb-server exited before serving"
		if curl -sf "$URL/healthz" >/dev/null; then
			ready=1
			break
		fi
		sleep 0.1
	done
	[ -n "$ready" ] || fail "$kind: /healthz never answered"

	local crawl stats anon engine status
	crawl=$("$tmp/hidb-crawl" -url "$URL" -workers 16) || fail "$kind: hidb-crawl failed: $crawl"
	echo "$crawl"
	echo "$crawl" | grep -Eq "^queries +$WANT( |\$)" || fail "$kind: crawl did not report queries $WANT"

	stats=$(curl -sf "$URL/stats") || fail "$kind: GET /stats failed"
	anon=$(echo "$stats" | jq '[.sessions[] | select(.token == "") | .queries] | .[0]')
	[ "$anon" = "$WANT" ] || fail "$kind: /stats anonymous session paid $anon queries, want $WANT: $stats"
	engine=$(echo "$stats" | jq -r '.engine.kind')
	[ "$engine" = "$kind" ] || fail "/stats engine kind $engine, want $kind: $stats"
	echo "$kind engine: anonymous session paid $anon queries"

	kill -TERM "$server_pid"
	status=0
	wait "$server_pid" || status=$?
	server_pid=
	[ "$status" -eq 0 ] || fail "$kind: hidb-server exited $status after SIGTERM, want 0"
}

smoke_pass mem
smoke_pass disk -engine disk -data-dir "$tmp/data"
smoke_pass disk -engine disk -data-dir "$tmp/data" -shards 4
grep -q 'shards=4' "$tmp/server.log" || fail "disk -shards 4: server did not serve 4 bands"
echo "server-smoke: ok"
