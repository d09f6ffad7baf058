#!/usr/bin/env bash
# One-transport lint: the socket tier exists once. The connection driver
# in crates/server/src/transport.rs owns the listening socket and the
# framed read; the server and the router are backends behind it. The
# other end of every connection is `RemoteCollector`
# (crates/server/src/client.rs): the client and the router's downstream
# links are that one handle, so it alone dials and reads replies through
# transport.rs's `read_reply` (`FrameReader::next` + verify + owned
# decode). A second accept loop, dialer, reply read, frame reader, header
# parse or checksum body is how the tiers drifted apart before, so this
# script fails CI on any of them:
#
#   * `TcpListener::bind(`  only in crates/server/src/transport.rs
#   * `TcpStream::connect`  (`connect(` or `connect_timeout(`) only in
#                           crates/server/src/client.rs: one dialer
#   * `read_reply(`         called only there (transport.rs defines it)
#   * `Header::parse(`      only in crates/wal/src/record.rs, whose
#                           `split_frame` is the one header parse under
#                           every frame read: the `FrameReader` the
#                           transport, `RemoteCollector` and the log's
#                           replay and checkpoint read share, and
#                           `Frame::decode`'s pure slice decode
#   * `struct FrameReader`  defined exactly once (record.rs)
#   * `fn read_full` / `fn read_frame` / `fn scan_segment`: nowhere under
#                           crates/, tests and comments included (the
#                           socket's and the log's own read loops are gone)
#   * `fn checksum`         defined exactly once (crates/wal/src/record.rs;
#                           `ldp_server::wire::checksum` re-exports it)
#
# and one envelope, on the wire and on disk: every file the write-ahead
# log writes, segment and checkpoint alike, is a file of wire frames, so
# the frame header is defined once, in crates/wal/src/record.rs
# (`ldp_server::wire` re-exports it):
#
#   * `const MAGIC`, `const HEADER_LEN`, `const WIRE_VERSION` and the
#                           envelope writer `fn envelope`: only there
#   * `encode_record` / `decode_record` / `RecordKind` / `ScanStop` /
#     `RECORD_HEADER_LEN` / `MAX_RECORD_BODY`, and the checkpoint's own
#     envelope `LDPK` / `CHECKPOINT_STATE_AT` / `fn read_checkpoint`:
#                           nowhere under crates/, tests and comments
#                           included (the log's own record codec and
#                           checkpoint envelope are gone)
#   * `checksum(`           nowhere in crates/wal/src/log.rs, tests
#                           included: every byte the log writes goes
#                           through `envelope`, every byte it reads
#                           through `Header::verify`
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
# writer thread per downstream, no queue, no gate) and a downstream's liveness
# is read off the `Metrics` fan-out (no background prober), under
# crates/router/src:
#
#   * `thread::Builder` / `thread::spawn(` / `thread::scope(`  not at all
#   * `Mutex` / `Condvar`                   not at all
#
# and one set of books on the wire: every counter reaches it through the
# `Metrics` frame (`Backend::metrics`), never a second hand-copied ledger,
# so anywhere under crates/:
#
#   * `StatsBody` / `QueryStats` / `fn stats(`  not at all
#
# and a server runs only the transport's threads (each query refreshes
# the view it reads; nothing refreshes it in the background):
#
#   * `thread::Builder` / `thread::spawn(` / `thread::scope(`  not at all
#                           in crates/server/src/serve.rs
#
# and one disk: the write-ahead log reaches the filesystem only through
# its `Disk` seam, so a model disk under it sees every byte it makes
# durable, in the non-test part of crates/wal/src/*.rs (the lines before
# the `#[cfg(test)]` + `mod` pair, as tools/loc.sh counts them):
#
#   * `fs::` / `File::` / `OpenOptions`  only in crates/wal/src/disk.rs
#
# Apart from the record-codec, old-reader and log-checksum rules, only non-test
# library code is scanned: every `*.rs` under a `src/` of `crates/`, up to its first
# `#[cfg(test)]`. Integration tests and `benchmark/` build fake peers and
# measure codec stages on purpose.
#
# Usage: tools/lint_one_transport.sh  (from anywhere; exits non-zero on
# violations and prints each offending line).

set -u

repo_root="$(cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo_root" || exit 1

transport='crates/server/src/transport.rs'
client='crates/server/src/client.rs'
wire='crates/server/src/wire.rs'
record='crates/wal/src/record.rs'
wal_log='crates/wal/src/log.rs'
wal_disk='crates/wal/src/disk.rs'
serve='crates/server/src/serve.rs'

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

# "<file>:<lineno>:<code>" for every line of crates/wal/src/*.rs before
# its `#[cfg(test)]` + `mod` pair, trailing `//` comments blanked.
wal_non_test_code() {
    find crates/wal/src -name '*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { done = 0; held = "" }
            done { next }
            held != "" {
                if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) { done = 1; next }
                print held
                held = ""
            }
            {
                line = $0
                sub(/\/\/.*/, "", line)
                out = FILENAME ":" FNR ":" line
            }
            $0 ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = out; next }
            { print out }
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

report "Header::parse( outside $record (read frames through FrameReader or split_frame):" \
    "$(grep -F 'Header::parse(' <<<"$code" | grep -v "^$record:")"

readers="$(grep -E '\bstruct FrameReader\b' <<<"$code")"
if [ "$(grep -c . <<<"$readers")" -ne 1 ]; then
    report "struct FrameReader must be defined exactly once (found $(grep -c . <<<"$readers")):" \
        "${readers:-<none>}"
fi

report "a second frame read loop under crates/ (every frame is read through FrameReader):" \
    "$(grep -rnE '\bfn (read_full|read_frame|scan_segment)\b' --include='*.rs' crates)"

checksums="$(grep -E '\bfn checksum\b' <<<"$code")"
if [ "$(grep -c . <<<"$checksums")" -ne 1 ]; then
    report "fn checksum must be defined exactly once (found $(grep -c . <<<"$checksums")):" \
        "${checksums:-<none>}"
fi

report "the envelope defined outside $record (one envelope on the wire and on disk):" \
    "$(grep -E '\bconst (MAGIC|HEADER_LEN|WIRE_VERSION)\b|\bfn envelope\b' <<<"$code" |
        grep -v "^$record:")"

report "the log's own record codec under crates/ (a log record is a wire frame):" \
    "$(grep -rnE '\b(encode_record|decode_record|RecordKind|ScanStop|RECORD_HEADER_LEN|MAX_RECORD_BODY)\b' \
        --include='*.rs' crates)"

report "the checkpoint's own envelope under crates/ (a checkpoint is a file of wire frames):" \
    "$(grep -rnE 'LDPK|\bCHECKPOINT_STATE_AT\b|\bfn read_checkpoint\b' --include='*.rs' crates)"

report "checksum( in $wal_log (the log writes through envelope, reads through Header::verify):" \
    "$(grep -nE '\bchecksum\(' "$wal_log" | sed "s|^|$wal_log:|")"

wire_code="$(grep "^$wire:" <<<"$code")"
report "borrowed pub type in $wire other than IngestView / FrameView (decode a reply with Frame::decode_body):" \
    "$(grep -E "pub (struct|enum) [A-Za-z0-9_]+<'" <<<"$wire_code" |
        grep -Ev "pub (struct|enum) (IngestView|FrameView)<'")"

report "fn into_owned in $wire (one decode per frame layout, no borrowed mirror of Frame):" \
    "$(grep -E '\bfn into_owned\b' <<<"$wire_code")"

router_code="$(grep '^crates/router/src/' <<<"$code")"
report "a thread spawned under crates/router/src (the transport's threads are the router's only ones):" \
    "$(grep -E 'thread::(Builder|spawn\(|scope\()' <<<"$router_code")"

report "Mutex / Condvar under crates/router/src (a connection's thread owns its links outright):" \
    "$(grep -E '\b(Mutex|Condvar)\b' <<<"$router_code")"

report "a second ledger on the wire (counters travel only in Frame::Metrics):" \
    "$(grep -E '\b(StatsBody|QueryStats)\b|\bfn stats\(' <<<"$code")"

report "a thread spawned in $serve (a query refreshes the view it reads):" \
    "$(grep "^$serve:" <<<"$code" | grep -E 'thread::(Builder|spawn\(|scope\()')"

report "the filesystem reached outside $wal_disk (the log goes through its Disk):" \
    "$(wal_non_test_code | grep -E '\bfs::|\bFile::|\bOpenOptions\b' | grep -v "^$wal_disk:")"

if [ "$violations" -gt 0 ]; then
    echo "one-transport lint: $violations violation(s)." >&2
    exit 1
fi

echo "one-transport lint: OK (one listener, one dialer, one reply read, one frame reader and one header parse for sockets and the log, one checksum, one envelope on the wire and on disk (segments and checkpoints), one decode per frame layout, one router thread per connection and no other, one set of books on the wire, no server thread besides the transport's, one disk under the log)."
