//! Crash recovery across a **real process boundary**: an `ldp-server`
//! child running with `--data-dir` is SIGKILLed mid-life — no Drop, no
//! seal, no flush beyond what the ack protocol already forced — and a
//! fresh process pointed at the same directory must recover every acked
//! report exactly (counts exact, means within 1e-9 of the pre-kill
//! answers) and keep serving. A subsequent clean shutdown (stdin EOF)
//! must seal the log so the next boot replays zero records.
//!
//! Same child-supervision contract as `federation.rs`, except durable
//! children print `RECOVERED records=<n> rows=<n> clean=<bool>` before
//! `LISTENING <addr>` — the spawn here reads lines until the banner and
//! keeps the recovery report for the assertions.

use ldp_collector::ReportBatch;
use ldp_server::RemoteCollector;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-9;

fn assert_close(a: f64, b: f64, what: &str) {
    let ok = (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0);
    assert!(ok, "{what}: {a} vs {b} (diff {})", (a - b).abs());
}

/// Builds the `ldp-server` binary once per test process.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest.parent().expect("workspace root");
        let status = Command::new(env!("CARGO"))
            .args(["build", "-q", "-p", "ldp-server", "--bins"])
            .current_dir(root)
            .status()
            .expect("spawn cargo build for ldp-server");
        assert!(status.success(), "building ldp-server failed");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        target.join("debug")
    })
}

/// The `RECOVERED records=<n> rows=<n> clean=<bool>` boot banner.
#[derive(Debug)]
struct RecoveredBanner {
    records: u64,
    rows: u64,
    clean: bool,
}

/// A durable `ldp-server` child: `RECOVERED …` then `LISTENING <addr>`
/// on stdout; stdin EOF requests graceful shutdown (seal); kill() is the
/// crash fixture.
struct DurableChild {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    recovered: RecoveredBanner,
}

/// `ldp-server --data-dir <data_dir>` with both pipes the contract uses.
fn durable_command(data_dir: &Path) -> Command {
    let mut command = Command::new(bin_dir().join("ldp-server"));
    command
        .args(["--data-dir", data_dir.to_str().expect("utf-8 temp dir")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    command
}

impl DurableChild {
    fn spawn(data_dir: &Path) -> Self {
        Self::spawn_command(&mut durable_command(data_dir))
    }

    fn spawn_command(command: &mut Command) -> Self {
        let mut child = command.spawn().expect("spawn durable ldp-server");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut recovered = None;
        let addr = loop {
            let line = lines
                .next()
                .expect("child prints LISTENING before stdout closes")
                .expect("read child stdout");
            if let Some(rest) = line.strip_prefix("RECOVERED ") {
                recovered = Some(parse_recovered(rest));
            } else if let Some(rest) = line.strip_prefix("LISTENING ") {
                break rest.parse().expect("child address parses");
            } else {
                panic!("unexpected child banner: {line}");
            }
        };
        let recovered = recovered.expect("durable child prints RECOVERED before LISTENING");
        let stdin = child.stdin.take();
        Self {
            child,
            stdin,
            addr,
            recovered,
        }
    }

    /// SIGKILL: the crash. Nothing in the process gets to run — only
    /// what the WAL already fsynced survives.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DurableChild {
    fn drop(&mut self) {
        drop(self.stdin.take()); // EOF = graceful shutdown (checkpoint + seal)
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

fn parse_recovered(rest: &str) -> RecoveredBanner {
    let mut records = None;
    let mut rows = None;
    let mut clean = None;
    for field in rest.split_whitespace() {
        let (key, value) = field.split_once('=').expect("key=value banner field");
        match key {
            "records" => records = Some(value.parse().expect("records count")),
            "rows" => rows = Some(value.parse().expect("rows count")),
            "clean" => clean = Some(value.parse().expect("clean flag")),
            other => panic!("unexpected RECOVERED field: {other}"),
        }
    }
    RecoveredBanner {
        records: records.expect("records field"),
        rows: rows.expect("rows field"),
        clean: clean.expect("clean field"),
    }
}

/// Deterministic batches (same LCG family as `federation.rs`).
fn synthetic_batches(batches: usize, batch_size: usize, salt: u64) -> Vec<ReportBatch> {
    let mut state = 0xC4A5_11FEu64.wrapping_add(salt);
    (0..batches)
        .map(|_| {
            let mut batch = ReportBatch::with_capacity(batch_size);
            for _ in 0..batch_size {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                batch.push(
                    (state >> 33) % 128,
                    (state >> 17) % 8,
                    ((state >> 5) % 4096) as f64 / 4096.0,
                );
            }
            batch
        })
        .collect()
}

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The whole lifecycle in one test (the boots are sequential by nature):
/// fresh boot → acked ingest → SIGKILL → recovery boot (exact state,
/// still serving) → more acked ingest → clean shutdown → sealed boot
/// (zero replay, combined state).
#[test]
fn sigkill_then_restart_recovers_every_acked_report() {
    let dir = temp_data_dir("lifecycle");
    const BATCH: usize = 256;
    let first_wave = synthetic_batches(3, BATCH, 1);
    let second_wave = synthetic_batches(2, BATCH, 2);

    // Boot 1: fresh directory.
    let mut child = DurableChild::spawn(&dir);
    assert_eq!(
        child.recovered.records, 0,
        "fresh dir has nothing to replay"
    );
    let (pre_total, pre_users, pre_mean) = {
        let mut client = RemoteCollector::connect(child.addr).expect("connect");
        for batch in &first_wave {
            client.ingest(batch).expect("ingest");
        }
        let ack = client.sync().expect("sync");
        assert_eq!(ack.accepted, (3 * BATCH) as u64, "every report acked");
        let summary = client.summary().expect("summary");
        let mean = client.population_mean().expect("population mean");
        (summary.total_reports, summary.user_count, mean)
    };

    // The crash: SIGKILL, nothing flushes, nothing seals.
    child.kill();

    // Boot 2: recovery replays exactly the acked frames.
    let child = DurableChild::spawn(&dir);
    assert!(!child.recovered.clean, "a SIGKILLed log is not sealed");
    assert_eq!(child.recovered.records, 3, "one WAL record per acked frame");
    assert_eq!(child.recovered.rows, (3 * BATCH) as u64);
    {
        let mut client = RemoteCollector::connect(child.addr).expect("reconnect");
        let summary = client.summary().expect("summary");
        assert_eq!(summary.total_reports, pre_total, "ledger exact after crash");
        assert_eq!(summary.user_count, pre_users, "user census exact");
        match (client.population_mean().expect("population mean"), pre_mean) {
            (Some(a), Some(b)) => assert_close(a, b, "population mean across the crash"),
            (a, b) => panic!("population mean availability changed: {a:?} vs {b:?}"),
        }
        let metrics = client.metrics().expect("metrics");
        assert_eq!(
            metrics.counter("wal.recovered_records"),
            Some(3),
            "wire metrics carry the replay"
        );

        // The recovered server keeps serving: second wave, acked.
        for batch in &second_wave {
            client.ingest(batch).expect("ingest after recovery");
        }
        let ack = client.sync().expect("sync after recovery");
        assert_eq!(
            ack.accepted,
            (2 * BATCH) as u64,
            "second wave acked in full"
        );
    }
    drop(child); // stdin EOF → graceful shutdown → checkpoint + seal

    // Boot 3: a sealed log replays nothing and remembers everything.
    let child = DurableChild::spawn(&dir);
    assert!(child.recovered.clean, "graceful shutdown must seal");
    assert_eq!(
        child.recovered.records, 0,
        "clean shutdown leaves zero records to replay"
    );
    {
        let mut client = RemoteCollector::connect(child.addr).expect("connect 3");
        let summary = client.summary().expect("summary 3");
        assert_eq!(
            summary.total_reports,
            (5 * BATCH) as u64,
            "both waves survive the crash + the clean restart"
        );
    }
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every entry of `dir` by name with its bytes (`None` for a directory).
fn dir_image(dir: &Path) -> BTreeMap<String, Option<Vec<u8>>> {
    std::fs::read_dir(dir)
        .expect("data dir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).ok())
        })
        .collect()
}

/// A log directory without this build's format stamp — what every data
/// directory written before the four-lane checksum looks like — stops the
/// boot with an error naming the log format, and no byte of it changes:
/// the old binary would have read every record as damage and booted empty.
#[test]
fn an_unstamped_log_refuses_to_boot_and_is_left_unchanged() {
    let dir = temp_data_dir("unstamped");
    let child = DurableChild::spawn(&dir);
    {
        let mut client = RemoteCollector::connect(child.addr).expect("connect");
        client
            .ingest(&synthetic_batches(1, 64, 4)[0])
            .expect("ingest");
        assert_eq!(client.sync().expect("sync").accepted, 64);
    }
    drop(child); // checkpoint + seal
    std::fs::remove_file(dir.join("FORMAT")).expect("the log is stamped");
    let before = dir_image(&dir);
    assert!(before.keys().any(|name| name.starts_with("seg-")));

    let refused = durable_command(&dir)
        .stderr(Stdio::piped())
        .output()
        .expect("run ldp-server");
    assert!(
        !refused.status.success(),
        "must not boot: {:?}",
        refused.status
    );
    let stdout = String::from_utf8_lossy(&refused.stdout);
    assert!(!stdout.contains("LISTENING"), "must not serve: {stdout}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("log format"), "stderr: {stderr}");
    assert_eq!(dir_image(&dir), before, "the directory is byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `LDP_WAL_FLUSH` is the operator's durability policy, so a value the
/// parser does not know (group commit asked for in milliseconds) must
/// stop the boot — exit 2, no `LISTENING` — rather than silently run an
/// fsync per ack; a well-formed value boots and serves.
#[test]
fn unparseable_wal_flush_refuses_to_boot() {
    let dir = temp_data_dir("flush-env");

    let refused = durable_command(&dir)
        .env("LDP_WAL_FLUSH", "batched:2ms")
        .stderr(Stdio::null())
        .output()
        .expect("run ldp-server");
    assert_eq!(refused.status.code(), Some(2), "usage exit");
    let stdout = String::from_utf8_lossy(&refused.stdout);
    assert!(!stdout.contains("LISTENING"), "must not serve: {stdout}");

    let child =
        DurableChild::spawn_command(durable_command(&dir).env("LDP_WAL_FLUSH", "batched:2000000"));
    let mut client = RemoteCollector::connect(child.addr).expect("connect");
    let batch = &synthetic_batches(1, 64, 3)[0];
    client.ingest(batch).expect("ingest");
    assert_eq!(client.sync().expect("sync").accepted, 64);
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}
