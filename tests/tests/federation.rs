//! Multi-process federation: an in-process [`Router`] (and the
//! `ldp-router` binary) over **real `ldp-server` child processes** must
//! agree with one big single-process collector on every query verb —
//! counts exactly, means within 1e-9 (float summation order is the only
//! permitted difference) — and must degrade loudly, not wrongly, when a
//! downstream dies.
//!
//! The child binaries are built once per test process with the ambient
//! `cargo` (offline, path-only deps) and supervised over pipes: each
//! child prints `LISTENING <addr>` and exits when its stdin closes.

use ldp_collector::ReportBatch;
use ldp_router::{downstream_of, Router, RouterConfig};
use ldp_server::RemoteCollector;
use ldp_telemetry::{MetricValue, TelemetrySnapshot};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-9;

/// |a - b| within 1e-9, relative for large magnitudes.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(close(a, b), "{what}: {a} vs {b} (diff {})", (a - b).abs());
}

fn assert_opt_close(a: Option<f64>, b: Option<f64>, what: &str) {
    match (a, b) {
        (Some(a), Some(b)) => assert_close(a, b, what),
        (None, None) => {}
        _ => panic!("{what}: {a:?} vs {b:?}"),
    }
}

/// Builds the `ldp-server` / `ldp-router` binaries once per test process
/// and returns the directory they land in.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest.parent().expect("workspace root");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "-q",
                "-p",
                "ldp-server",
                "-p",
                "ldp-router",
                "--bins",
            ])
            .current_dir(root)
            .status()
            .expect("spawn cargo build for federation binaries");
        assert!(status.success(), "building federation binaries failed");
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target"));
        target.join("debug")
    })
}

/// A supervised child process speaking the LISTENING/stdin-EOF contract.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ChildProc {
    fn spawn(binary: &str, args: &[String]) -> Self {
        let mut child = Command::new(bin_dir().join(binary))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {binary}: {e}"));
        let stdout = child.stdout.take().expect("child stdout piped");
        let line = BufReader::new(stdout)
            .lines()
            .next()
            .expect("child prints LISTENING")
            .expect("read child stdout");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected child banner: {line}"))
            .parse()
            .expect("child address parses");
        let stdin = child.stdin.take();
        Self { child, stdin, addr }
    }

    /// Hard-kills the process (the degraded-mode fixture).
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        drop(self.stdin.take()); // EOF = graceful shutdown request
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

fn spawn_servers(n: usize, extra: &[&str]) -> Vec<ChildProc> {
    let args: Vec<String> = extra.iter().map(|s| (*s).to_string()).collect();
    (0..n)
        .map(|_| ChildProc::spawn("ldp-server", &args))
        .collect()
}

/// Deterministic synthetic workload: `batches` columnar batches, values
/// in [0, 1), users and slots spread by an LCG.
fn synthetic_batches(
    batches: usize,
    batch_size: usize,
    users: u64,
    slots: u64,
) -> Vec<ReportBatch> {
    let mut state = 0xD00D_F00Du64;
    (0..batches)
        .map(|_| {
            let mut batch = ReportBatch::with_capacity(batch_size);
            for _ in 0..batch_size {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let user = (state >> 33) % users;
                let slot = (state >> 17) % slots;
                let value = ((state >> 5) % 4096) as f64 / 4096.0;
                batch.push(user, slot, value);
            }
            batch
        })
        .collect()
}

/// Uploads every batch through `client` and returns the sync ledger.
/// `name` summed over every collector a router's metrics carry, at any
/// depth of `downstream.NN.` nesting.
fn fleet_counter(metrics: &TelemetrySnapshot, name: &str) -> u64 {
    let nested = format!(".{name}");
    metrics
        .entries
        .iter()
        .filter(|e| e.name.starts_with("downstream.") && e.name.ends_with(&nested))
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{} is not a counter: {other:?}", e.name),
        })
        .sum()
}

fn upload(client: &mut RemoteCollector, batches: &[ReportBatch]) -> ldp_collector::IngestOutcome {
    for batch in batches {
        client.ingest(batch).expect("ingest");
    }
    client.sync().expect("sync")
}

/// Every query verb, router vs one big collector, within 1e-9.
fn assert_all_verbs_agree(
    fed: &mut RemoteCollector,
    single: &mut RemoteCollector,
    slots: u64,
    what: &str,
) {
    // population mean
    assert_opt_close(
        fed.population_mean().expect("fed population"),
        single.population_mean().expect("single population"),
        &format!("{what}: population mean"),
    );
    // summary
    let (fs, ss) = (
        fed.summary().expect("fed"),
        single.summary().expect("single"),
    );
    assert_eq!(fs.total_reports, ss.total_reports, "{what}: total_reports");
    assert_eq!(fs.user_count, ss.user_count, "{what}: user_count");
    assert_eq!(fs.retained_base, ss.retained_base, "{what}: retained_base");
    assert_eq!(fs.slot_end, ss.slot_end, "{what}: slot_end");
    assert_eq!(fs.frozen_count, ss.frozen_count, "{what}: frozen_count");
    assert_opt_close(
        fs.population_mean,
        ss.population_mean,
        &format!("{what}: summary population mean"),
    );
    // windowed mean: a retained window, a partially-expired window, and
    // the full stream
    let base = ss.retained_base;
    let end = ss.slot_end;
    let ranges = [
        (base, end),
        (base + (end - base) / 2, end),
        (0, end),
        (base, base + 1),
    ];
    for (lo, hi) in ranges {
        if lo >= hi {
            continue;
        }
        assert_opt_close(
            fed.windowed_mean(lo..hi).expect("fed windowed"),
            single.windowed_mean(lo..hi).expect("single windowed"),
            &format!("{what}: windowed mean {lo}..{hi}"),
        );
    }
    // slot means over everything ever (expired slots must be None on
    // both sides)
    let fed_means = fed.slot_means(0..slots).expect("fed slot means");
    let single_means = single.slot_means(0..slots).expect("single slot means");
    assert_eq!(fed_means.len(), single_means.len());
    for (slot, (f, s)) in fed_means.iter().zip(&single_means).enumerate() {
        assert_opt_close(*f, *s, &format!("{what}: slot {slot} mean"));
    }
    // parts: the raw mergeable contribution
    let fp = fed.query_parts(0..u64::MAX).expect("fed parts");
    let sp = single.query_parts(0..u64::MAX).expect("single parts");
    assert_eq!(fp.retained_base, sp.retained_base, "{what}: parts base");
    assert_eq!(fp.slot_end, sp.slot_end, "{what}: parts end");
    assert_eq!(fp.total_reports, sp.total_reports, "{what}: parts totals");
    assert_eq!(fp.user_count, sp.user_count, "{what}: parts users");
    assert_close(
        fp.user_mean_sum,
        sp.user_mean_sum,
        &format!("{what}: parts mean sum"),
    );
    assert_eq!(
        fp.frozen.count, sp.frozen.count,
        "{what}: parts frozen count"
    );
    assert_close(
        fp.frozen.sum,
        sp.frozen.sum,
        &format!("{what}: parts frozen sum"),
    );
    for (slot, (f, s)) in fp.slots.iter().zip(&sp.slots).enumerate() {
        assert_eq!(f.count, s.count, "{what}: part slot {slot} count");
        assert_close(f.sum, s.sum, &format!("{what}: part slot {slot} sum"));
        assert_close(
            f.sum_sq,
            s.sum_sq,
            &format!("{what}: part slot {slot} sum_sq"),
        );
    }
    // metrics: every downstream's report ledger, summed
    let (fm, sm) = (
        fed.metrics().expect("fed metrics"),
        single.metrics().expect("single metrics"),
    );
    for name in ["collector.reports.accepted", "collector.reports.rejected"] {
        assert_eq!(
            fleet_counter(&fm, name),
            sm.counter(name).expect("registered"),
            "{what}: {name}"
        );
    }
    // (`downstream.NN.answered` is the one gauge of that name; the
    // `*.queries.answered` books are counters.)
    let answered: Vec<_> = fm
        .entries
        .iter()
        .filter(|e| e.name.ends_with(".answered") && matches!(e.value, MetricValue::Gauge(_)))
        .collect();
    assert!(
        !answered.is_empty() && answered.iter().all(|e| e.value == MetricValue::Gauge(1)),
        "{what}: every downstream answered: {answered:?}"
    );
    assert_eq!(
        fm.counter("router.frames.failed"),
        Some(0),
        "{what}: no failed frames at the router"
    );
}

/// The tentpole pin: a router over three real `ldp-server` processes is
/// indistinguishable (≤ 1e-9) from one big collector, on every verb.
#[test]
fn federated_queries_agree_with_single_collector() {
    const SLOTS: u64 = 24;
    let downstreams = spawn_servers(3, &[]);
    let single = spawn_servers(1, &[]);
    let router = Router::bind(
        downstreams.iter().map(|c| c.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind router");

    let batches = synthetic_batches(12, 1024, 500, SLOTS);
    let total: usize = batches.iter().map(ReportBatch::len).sum();

    let mut fed = RemoteCollector::connect(router.local_addr()).expect("connect router");
    let mut one = RemoteCollector::connect(single[0].addr).expect("connect single");
    let fed_ack = upload(&mut fed, &batches);
    let one_ack = upload(&mut one, &batches);
    assert_eq!(fed_ack, one_ack, "sync ledgers agree");
    assert_eq!(fed_ack.accepted, total as u64, "every report durable");

    assert_all_verbs_agree(&mut fed, &mut one, SLOTS, "unbounded retention");

    // The router's own books: every row went to exactly one downstream,
    // spread per the routing hash.
    let metrics = router.metrics();
    let routed: u64 = (0..3)
        .map(|i| {
            metrics
                .counter(&format!("router.downstream.{i:02}.rows"))
                .expect("per-downstream row counter")
        })
        .sum();
    assert_eq!(routed, total as u64, "partition is a partition");
    for i in 0..3 {
        let rows = metrics
            .counter(&format!("router.downstream.{i:02}.rows"))
            .unwrap();
        assert!(rows > 0, "downstream {i} got no rows");
        assert_eq!(
            metrics
                .counter(&format!("router.downstream.{i:02}.lost_frames"))
                .unwrap(),
            0
        );
    }
}

/// Routers stack: a front router over a router over two real servers
/// answers every verb like one collector, and its one `Metrics` reply
/// carries both servers' ledgers two levels down.
#[test]
fn stacked_routers_agree_and_nest_their_metrics() {
    const SLOTS: u64 = 16;
    let downstreams = spawn_servers(2, &[]);
    let single = spawn_servers(1, &[]);
    let inner = Router::bind(
        downstreams.iter().map(|c| c.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind inner router");
    let front =
        Router::bind(vec![inner.local_addr()], RouterConfig::default()).expect("bind front router");

    let batches = synthetic_batches(6, 512, 200, SLOTS);
    let mut fed = RemoteCollector::connect(front.local_addr()).expect("connect front");
    let mut one = RemoteCollector::connect(single[0].addr).expect("connect single");
    assert_eq!(upload(&mut fed, &batches), upload(&mut one, &batches));

    assert_all_verbs_agree(&mut fed, &mut one, SLOTS, "stacked routers");

    let (fm, sm) = (
        fed.metrics().expect("front"),
        one.metrics().expect("single"),
    );
    for name in ["collector.reports.accepted", "collector.reports.rejected"] {
        let nested: u64 = (0..2)
            .map(|k| {
                fm.counter(&format!("downstream.00.downstream.{k:02}.{name}"))
                    .expect("two levels down")
            })
            .sum();
        assert_eq!(nested, sm.counter(name).expect("registered"), "{name}");
    }
    for answered in [
        "downstream.00.answered",
        "downstream.00.downstream.00.answered",
        "downstream.00.downstream.01.answered",
    ] {
        assert_eq!(fm.gauge(answered), Some(1), "{answered}");
    }
    assert!(fm.counter("downstream.00.router.ingest.rows") > Some(0));
}

/// Same agreement with bounded retention: every downstream expires
/// independently, and the merged answers still anchor exactly where the
/// single collector's do.
#[test]
fn federated_queries_agree_under_bounded_retention() {
    const SLOTS: u64 = 40;
    const RETAIN: &str = "12";
    let downstreams = spawn_servers(2, &["--retention", RETAIN]);
    let single = spawn_servers(1, &["--retention", RETAIN]);
    let router = Router::bind(
        downstreams.iter().map(|c| c.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind router");

    let batches = synthetic_batches(10, 1024, 300, SLOTS);
    let mut fed = RemoteCollector::connect(router.local_addr()).expect("connect router");
    let mut one = RemoteCollector::connect(single[0].addr).expect("connect single");
    let fed_ack = upload(&mut fed, &batches);
    let one_ack = upload(&mut one, &batches);
    assert_eq!(fed_ack, one_ack, "sync ledgers agree under retention");

    assert_all_verbs_agree(&mut fed, &mut one, SLOTS, "bounded retention");
}

/// The `ldp-router` binary speaks the same supervisor contract as
/// `ldp-server`, so a whole federation can be run from a shell — and
/// refuses to boot a federation that could only answer wrongly or `BUSY`.
#[test]
fn router_binary_routes_end_to_end() {
    let downstreams = spawn_servers(2, &[]);
    let mut args = Vec::new();
    for child in &downstreams {
        args.push("--downstream".to_string());
        args.push(child.addr.to_string());
    }

    let a = downstreams[0].addr.to_string();
    let refusals: [(&[&str], i32); 2] = [
        // The same downstream twice would count its users twice.
        (&["--downstream", &a, "--downstream", &a], 1),
        // A cap of 0 would answer every client BUSY.
        (&["--downstream", &a, "--max-connections", "0"], 2),
    ];
    for (refused_args, code) in refusals {
        let refused = Command::new(bin_dir().join("ldp-router"))
            .args(refused_args)
            .output()
            .expect("run ldp-router");
        assert_eq!(refused.status.code(), Some(code), "{refused_args:?}");
        let stdout = String::from_utf8_lossy(&refused.stdout);
        assert!(!stdout.contains("LISTENING"), "{refused_args:?}: {stdout}");
    }

    let router = ChildProc::spawn("ldp-router", &args);

    let mut client = RemoteCollector::connect(router.addr).expect("connect router binary");
    let mut batch = ReportBatch::new();
    for user in 0..200u64 {
        batch.push(user, user % 6, (user % 10) as f64 / 10.0);
    }
    client.ingest(&batch).expect("ingest");
    assert_eq!(client.sync().expect("sync").accepted, 200);
    let summary = client.summary().expect("summary");
    assert_eq!(summary.total_reports, 200);
    assert_eq!(summary.user_count, 200);
    client.metrics().expect("metrics through router binary");
}

/// Degraded mode: kill one downstream and the very next `Metrics` query
/// reports it unanswered; the router refuses exact answers with a typed
/// DEGRADED error, keeps transport verbs alive, and counts what it had to
/// drop.
#[test]
fn dead_downstream_degrades_loudly_not_wrongly() {
    const SLOTS: u64 = 8;
    let mut downstreams = spawn_servers(2, &[]);
    let router = Router::bind(
        downstreams.iter().map(|c| c.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind router");

    let batches = synthetic_batches(2, 512, 100, SLOTS);
    let mut client = RemoteCollector::connect(router.local_addr()).expect("connect");
    let ack = upload(&mut client, &batches);
    assert_eq!(ack.accepted, 1024, "healthy federation acks everything");

    // Liveness is read off traffic: each downstream answered this query,
    // or it did not.
    let answered = |metrics: &TelemetrySnapshot| {
        [0, 1].map(|i| metrics.gauge(&format!("downstream.{i:02}.answered")))
    };
    let metrics = client.metrics().expect("metrics");
    assert_eq!(answered(&metrics), [Some(1), Some(1)], "both answer");
    downstreams[1].kill();
    let metrics = client.metrics().expect("metrics after the kill");
    assert_eq!(answered(&metrics), [Some(1), Some(0)], "death observed");

    // Exact-answer verbs refuse with the typed DEGRADED code (mapped to
    // ErrorKind::Other by the client).
    let err = client
        .population_mean()
        .expect_err("population must degrade");
    assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");
    assert!(err.to_string().contains("downstreams unavailable"), "{err}");
    let err = client.summary().expect_err("summary must degrade");
    assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");

    // Ingest keeps flowing to the healthy set; the barrier reports the
    // gap instead of a short ledger.
    for batch in &batches {
        client.ingest(batch).expect("ingest to healthy set");
    }
    let err = client.sync().expect_err("sync must degrade");
    assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");

    // Metrics still answer: the router itself is healthy.
    let metrics = client.metrics().expect("metrics while degraded");
    assert_eq!(
        metrics.gauge("downstream.01.answered"),
        Some(0),
        "liveness exported"
    );
    assert!(
        metrics
            .counter("router.downstream.01.lost_rows")
            .unwrap_or(0)
            > 0,
        "dropped rows are counted"
    );
    assert!(
        metrics
            .counter("router.downstream.01.degraded_acks")
            .unwrap_or(0)
            > 0,
        "degraded barriers are counted"
    );
}

/// Routing is deterministic and user-granular: every row of a user goes
/// to the same downstream the hash names.
#[test]
fn routing_respects_the_published_hash() {
    let downstreams = spawn_servers(2, &[]);
    let router = Router::bind(
        downstreams.iter().map(|c| c.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind router");

    // Users that all route to downstream 0 under the published hash.
    let picked: Vec<u64> = (0..5_000u64)
        .filter(|&u| downstream_of(u, 2) == 0)
        .take(50)
        .collect();
    let mut batch = ReportBatch::new();
    for &user in &picked {
        batch.push(user, 0, 0.25);
    }
    let mut client = RemoteCollector::connect(router.local_addr()).expect("connect");
    client.ingest(&batch).expect("ingest");
    assert_eq!(client.sync().expect("sync").accepted, picked.len() as u64);

    let metrics = router.metrics();
    assert_eq!(
        metrics.counter("router.downstream.00.rows"),
        Some(picked.len() as u64)
    );
    assert_eq!(metrics.counter("router.downstream.01.rows"), Some(0));

    // And the one downstream that got them agrees it owns those users.
    let mut direct = RemoteCollector::connect(downstreams[0].addr).expect("connect downstream");
    assert_eq!(
        direct.summary().expect("summary").user_count,
        picked.len() as u64
    );
}
