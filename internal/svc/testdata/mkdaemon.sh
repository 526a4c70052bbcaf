#!/usr/bin/env bash
# Writes a risasvc data directory with a journal suffix to replay: curl-driven
# placements (short lifetimes so departures release mid-run), a box fail/heal,
# a scheduler swap and an addrack, then kill -9 (no Close).
# usage: mkdaemon.sh <risasvc binary> <data dir> <placements out> [port]
set -euo pipefail
BIN=$1; DIR=$2; OUT=$3; P=${4:-18331}; U=http://127.0.0.1:$P
rm -rf "$DIR"
"$BIN" -addr 127.0.0.1:$P -dir "$DIR" -racks 2 -spare-racks 1 -snapshot-every 64 2>/dev/null &
PID=$!
for _ in $(seq 1 100); do curl -fsS $U/healthz >/dev/null 2>&1 && break; sleep 0.1; done
place() { # ids from..to, VM fields from a fixed LCG
  awk -v a="$1" -v b="$2" 'BEGIN{ s=12345; t=0;
    for(i=0;i<=b;i++){ s=(s*1103515245+12345)%2147483648; g=s%20; s=(s*1103515245+12345)%2147483648; c=5+s%28;
      s=(s*1103515245+12345)%2147483648; r=5+s%28; s=(s*1103515245+12345)%2147483648; l=900+s%900; t+=g;
      if(i>=a) printf "{\"id\":%d,\"tier\":0,\"arrival\":%d,\"lifetime\":%d,\"cpu\":%d,\"ram\":%d,\"storage\":128}\n", i,t,l,c,r } }' |
  while read -r body; do curl -fsS -XPOST $U/place -d "$body" >/dev/null; done
}
place 0 79
curl -fsS -XPOST $U/fail -d '{"scope":"box","rack":1,"box":2}' >/dev/null
place 80 139
curl -fsS -XPOST $U/swap -d '{"algo":"RISA-BF"}' >/dev/null
place 140 189
curl -fsS -XPOST $U/heal -d '{"scope":"box","rack":1,"box":2}' >/dev/null
curl -fsS -XPOST $U/addrack >/dev/null
place 190 224
curl -fsS $U/placements >"$OUT"
curl -fsS $U/stats; echo
kill -9 $PID; wait $PID 2>/dev/null || true
