#!/usr/bin/env bash
# server-smoke.sh is the end-to-end check of the default HTTP server: it
# builds hidb-server and hidb-crawl into a temporary directory, serves
# AdultLike at k=256 with no session flags, crawls it over HTTP with 16
# workers, and checks the paper's cost metric (778 queries) three ways: on
# the crawler's report, on the anonymous session in GET /stats, and on a
# clean exit 0 after SIGTERM. It also checks that the removed -quota flag
# is refused.
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

"$tmp/hidb-server" -dataset adult -k 256 -addr "$ADDR" >"$tmp/server.log" 2>&1 &
server_pid=$!

ready=
for _ in $(seq 1 300); do
	kill -0 "$server_pid" 2>/dev/null || fail "hidb-server exited before serving"
	if curl -sf "$URL/healthz" >/dev/null; then
		ready=1
		break
	fi
	sleep 0.1
done
[ -n "$ready" ] || fail "/healthz never answered"

crawl=$("$tmp/hidb-crawl" -url "$URL" -workers 16) || fail "hidb-crawl failed: $crawl"
echo "$crawl"
echo "$crawl" | grep -Eq "^queries +$WANT( |\$)" || fail "crawl did not report queries $WANT"

stats=$(curl -sf "$URL/stats") || fail "GET /stats failed"
anon=$(echo "$stats" | jq '[.sessions[] | select(.token == "") | .queries] | .[0]')
[ "$anon" = "$WANT" ] || fail "/stats anonymous session paid $anon queries, want $WANT: $stats"
echo "anonymous session: $anon queries"

kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=
[ "$status" -eq 0 ] || fail "hidb-server exited $status after SIGTERM, want 0"
echo "server-smoke: ok"
