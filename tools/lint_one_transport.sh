#!/usr/bin/env bash
# One-transport lint: the socket tier exists once. The connection driver
# in crates/server/src/transport.rs owns the listening socket and the
# framed read; the server and the router are backends behind it. The
# other end of every connection is `RemoteCollector`
# (crates/server/src/client.rs): the client and the router's downstream
# links are that one handle, so it alone dials and reads replies through
# transport.rs's `read_reply` (`read_frame` + verify + owned decode). A
# second accept loop, dialer, reply read, socket-side header parse or
# checksum body is how the tiers drifted apart before, so this script
# fails CI on any of them:
#
#   * `TcpListener::bind(`  only in crates/server/src/transport.rs
#   * `TcpStream::connect`  (`connect(` or `connect_timeout(`) only in
#                           crates/server/src/client.rs: one dialer
#   * `read_reply(`         called only there (transport.rs defines it)
#   * `Header::parse(`      only in transport.rs, plus wire.rs's pure slice
#                           decoder (`Frame::decode`, which reads no socket)
#   * `fn checksum`         defined exactly once (crates/wal/src/record.rs;
#                           `ldp_server::wire::checksum` re-exports it)
#
# and one decode per frame layout in crates/server/src/wire.rs:
# `Frame::decode_body` parses every layout into the owned `Frame`, and
# only the ingest payload has a borrowed form, so
#
#   * `pub struct` / `pub enum` with a lifetime parameter: only
#                           `IngestView` and `FrameView` (ingest or owned)
#   * `fn into_owned`       not at all (nothing borrowed mirrors `Frame`)
#
# and, since a router connection is one thread driving its downstream handles (no
# writer thread per downstream, no queue, no gate), under crates/router/src:
#
#   * `thread::Builder` / `thread::spawn(`  exactly once (the health probe)
#   * `Mutex` / `Condvar`                   not at all
#
# and one set of books on the wire: every counter reaches it through the
# `Metrics` frame (`Backend::metrics`), never a second hand-copied ledger,
# so anywhere under crates/:
#
#   * `StatsBody` / `QueryStats` / `fn stats(`  not at all
#
# Only non-test library code is scanned: every `*.rs` under a `src/` of
# `crates/`, up to its first `#[cfg(test)]`. Integration tests and
# `benchmark/` build fake peers and measure codec stages on purpose.
#
# Usage: tools/lint_one_transport.sh  (from anywhere; exits non-zero on
# violations and prints each offending line).

set -u

repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root" || exit 1

transport='crates/server/src/transport.rs'
client='crates/server/src/client.rs'
wire='crates/server/src/wire.rs'

# "<file>:<lineno>:<code>" for every non-test line, trailing `//` comments
# (and so whole doc/comment lines) blanked.
non_test_code() {
    find crates -path '*/src/*' -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { line = $0; sub(/\/\/.*/, "", line); print FILENAME ":" FNR ":" line }
        '
}

violations=0
report() { # <rule text> <offending lines>
    [ -z "$2" ] && return
    echo "one-transport lint: $1" >&2
    while IFS= read -r line; do
        echo "  $line" >&2
        violations=$((violations + 1))
    done <<<"$2"
}

code="$(non_test_code)"

report "TcpListener::bind( outside $transport (bind through ldp_server::Transport):" \
    "$(grep -F 'TcpListener::bind(' <<<"$code" | grep -v "^$transport:")"

report "TcpStream::connect outside $client (dial through ldp_server::RemoteCollector):" \
    "$(grep -F 'TcpStream::connect' <<<"$code" | grep -v "^$client:")"

report "read_reply( outside $client / $transport (read replies through ldp_server::RemoteCollector):" \
    "$(grep -F 'read_reply(' <<<"$code" | grep -Ev "^($client|$transport):")"

report "Header::parse( outside $transport / $wire (read through ldp_server::read_reply):" \
    "$(grep -F 'Header::parse(' <<<"$code" | grep -Ev "^($transport|$wire):")"

checksums="$(grep -E '\bfn checksum\b' <<<"$code")"
if [ "$(grep -c . <<<"$checksums")" -ne 1 ]; then
    report "fn checksum must be defined exactly once (found $(grep -c . <<<"$checksums")):" \
        "${checksums:-<none>}"
fi

wire_code="$(grep "^$wire:" <<<"$code")"
report "borrowed pub type in $wire other than IngestView / FrameView (decode a reply with Frame::decode_body):" \
    "$(grep -E "pub (struct|enum) [A-Za-z0-9_]+<'" <<<"$wire_code" |
        grep -Ev "pub (struct|enum) (IngestView|FrameView)<'")"

report "fn into_owned in $wire (one decode per frame layout, no borrowed mirror of Frame):" \
    "$(grep -E '\bfn into_owned\b' <<<"$wire_code")"

router_code="$(grep '^crates/router/src/' <<<"$code")"
spawns="$(grep -E 'thread::Builder|thread::spawn\(' <<<"$router_code")"
if [ "$(grep -c . <<<"$spawns")" -ne 1 ]; then
    report "crates/router/src spawns exactly one thread, the health probe (found $(grep -c . <<<"$spawns")):" \
        "${spawns:-<none>}"
fi

report "Mutex / Condvar under crates/router/src (a connection's thread owns its links outright):" \
    "$(grep -E '\b(Mutex|Condvar)\b' <<<"$router_code")"

report "a second ledger on the wire (counters travel only in Frame::Metrics):" \
    "$(grep -E '\b(StatsBody|QueryStats)\b|\bfn stats\(' <<<"$code")"

if [ "$violations" -gt 0 ]; then
    echo "one-transport lint: $violations violation(s)." >&2
    exit 1
fi

echo "one-transport lint: OK (one listener, one dialer, one reply read, one socket-side header parse, one checksum, one decode per frame layout, one router thread per connection, one set of books on the wire)."
