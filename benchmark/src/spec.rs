//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics with the end-to-end metric each is
//! expected to move. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

use crate::topology::TopologyKind;
use ldp_server::FlushPolicy;
use std::time::Duration;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the median may worsen
    /// before `diff` calls it a regression.
    pub bound: f64,
    /// Absolute slack in the metric's unit: a worsening smaller than this
    /// is never a regression (set-up time is short, so 10% of it is
    /// within timer and page-cache noise).
    pub abs_slack: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEndMetric] = &[
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.2,
        meaning: "input generation + bind + warm-up before a timed window (median of the run's seven set-ups)",
    },
    EndToEndMetric {
        name: "rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
        meaning: "rows through the workload's path per second: acked ingest rows, replayed rows, or values perturbed + uploaded + aggregated (mean of the faster half of the run's half-second slices, all rounds pooled)",
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
        meaning: "VmHWM of the run's process, MiB (servers and load generator share it)",
    },
];

/// A per-layer metric, reported by the traced run. No bound: it explains
/// an end-to-end change, it does not gate one.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is timed or counted, by public API.
    pub timed: &'static str,
    /// Which end-to-end metric it should move, on which workload; on
    /// every other workload the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    timed: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        timed,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[LayerMetric] = &[
    layer(
        "mechanisms.sw_perturb.ns_per_value",
        "ns",
        Lower,
        "Mechanism::perturb_into (SW, eps=2)",
        "rows_per_s -> fleet_capp",
    ),
    layer(
        "core.capp_publish.ns_per_value",
        "ns",
        Lower,
        "StreamMechanism::publish_into (Capp, eps=2, w=10)",
        "rows_per_s -> fleet_capp",
    ),
    layer(
        "core.app_publish.ns_per_value",
        "ns",
        Lower,
        "StreamMechanism::publish_into (App)",
        "shares code with capp; must not pay for a capp win",
    ),
    layer(
        "core.ipp_publish.ns_per_value",
        "ns",
        Lower,
        "StreamMechanism::publish_into (Ipp)",
        "shares code with capp; must not pay for a capp win",
    ),
    layer(
        "wire.encode.ns_per_row",
        "ns",
        Lower,
        "Frame::encode_ingest_into",
        "rows_per_s -> ingest_hot (gateway thread)",
    ),
    layer(
        "wire.checksum.ns_per_row",
        "ns",
        Lower,
        "Header::verify",
        "rows_per_s -> ingest_hot",
    ),
    layer(
        "wire.decode_widen.ns_per_row",
        "ns",
        Lower,
        "FrameView::decode_body + IngestView::columns",
        "rows_per_s -> ingest_hot, recover",
    ),
    layer(
        "wire.query_codec.ns_per_op",
        "ns",
        Lower,
        "encode + decode of the four query/reply pairs",
        "dashboard.queries_per_s, dashboard.query_p50_us -> sync_small",
    ),
    layer(
        "collector.fold.ns_per_row",
        "ns",
        Lower,
        "Collector::ingest_outcome(&ReportColumns) at the workload's table size",
        "rows_per_s -> ingest_cold (most), recover; small on ingest_hot",
    ),
    layer(
        "collector.pool.runs",
        "count",
        Higher,
        "collector.pool.runs counter over the traced windows",
        "rows_per_s -> ingest_cold only (0 elsewhere)",
    ),
    layer(
        "collector.pool.steal_share",
        "ratio",
        Higher,
        "collector.pool.steals / collector.pool.runs",
        "rows_per_s -> ingest_cold only",
    ),
    layer(
        "collector.refresh.us_per_op",
        "us",
        Lower,
        "QueryEngine::refresh after one folded frame",
        "dashboard.query_p99_us, dashboard.queries_per_s -> sync_small",
    ),
    layer(
        "collector.query.ns_per_op",
        "ns",
        Lower,
        "LiveView::{population_mean, windowed_mean} + slot table read",
        "dashboard.queries_per_s -> sync_small",
    ),
    layer(
        "collector.checkpoint_encode.ms_per_op",
        "ms",
        Lower,
        "Collector::encode_checkpoint at the workload's state size",
        "client.ack_tail_us, rows_per_s -> durable_fleet",
    ),
    layer(
        "collector.checkpoint_restore.ms_per_op",
        "ms",
        Lower,
        "Collector::restore_checkpoint",
        "setup of a restarted server; recover with checkpoints",
    ),
    layer(
        "collector.checkpoint.bytes",
        "B",
        Lower,
        "length of the checkpoint blob",
        "checkpoint write time -> durable_fleet",
    ),
    layer(
        "wal.append.ns_per_row",
        "ns",
        Lower,
        "Wal::append",
        "rows_per_s -> durable_fleet",
    ),
    layer(
        "wal.barrier.us_per_op",
        "us",
        Lower,
        "Wal::barrier after one 1,024-row append",
        "client.ack_p50_us -> sync_small",
    ),
    layer(
        "wal.open_scan.ns_per_row",
        "ns",
        Lower,
        "Wal::open on the stage pass's log",
        "rows_per_s -> recover",
    ),
    layer(
        "wal.bytes_per_row",
        "B",
        Lower,
        "wal.appended_bytes / acked rows (exact count)",
        "log growth; wire header growth -> durable workloads",
    ),
    layer(
        "wal.syncs",
        "count",
        Lower,
        "wal.flush_nanos sample count (barrier fsyncs) over the traced windows",
        "explains client.ack_tail_us -> durable_fleet, sync_small",
    ),
    layer(
        "wal.checkpoints",
        "count",
        Lower,
        "wal.checkpoints counter",
        "explains client.ack_tail_us -> durable_fleet",
    ),
    layer(
        "wal.segments",
        "count",
        Lower,
        "wal.segments gauge at the end of the windows",
        "disk bound -> durable workloads",
    ),
    layer(
        "durable.ingest_frame.ns_per_row",
        "ns",
        Lower,
        "Durability::ingest_frame (append + decode + fold)",
        "rows_per_s -> durable_fleet",
    ),
    layer(
        "durable.checkpoint.ms_per_op",
        "ms",
        Lower,
        "Durability::checkpoint_now",
        "client.ack_tail_us -> durable_fleet",
    ),
    layer(
        "durable.replay.ns_per_row",
        "ns",
        Lower,
        "durable::recover span minus the Wal::open scan of the same log",
        "rows_per_s -> recover",
    ),
    layer(
        "client.ingest_call.ns_per_row",
        "ns",
        Lower,
        "time inside RemoteCollector::ingest (encode + write, incl. back-pressure)",
        "equals e2e ns/row when the server side is the bottleneck",
    ),
    layer(
        "client.sync_wait.share",
        "ratio",
        Lower,
        "share of the traced window spent blocked in sync()",
        "high => pipeline drains at barriers: client.ack_* everywhere",
    ),
    layer(
        "client.ack_p50_us",
        "us",
        Lower,
        "median wait for the workload's acknowledgement over the untraced windows: sync() -> IngestAck, one recover(), or one fleet drive()",
        "what a gateway waits per barrier; in these closed loops it also lowers rows_per_s on the same workload",
    ),
    layer(
        "client.ack_tail_us",
        "us",
        Lower,
        "tail of the same wait: the highest of p99/p95/p90/p75 with ten samples beyond it, never above the workload's percentile",
        "checkpoints, group commit and the fan-out barrier -> durable_fleet; the fsync -> sync_small",
    ),
    layer(
        "serve.decode.reported_ns_per_row",
        "ns",
        Lower,
        "server.frame.decode_nanos sum / rows via Server::metrics(): checksum verify + borrowed parse, not the widen",
        "cross-check of wire.checksum",
    ),
    layer(
        "serve.fold.reported_ns_per_row",
        "ns",
        Lower,
        "collector.ingest.fold_nanos sum / rows via Server::metrics()",
        "cross-check of collector.fold",
    ),
    layer(
        "serve.residual.ns_per_row",
        "ns",
        Lower,
        "e2e ns/row - reported decode - reported fold",
        "socket read, frame loop, widen, scheduling, WAL append: what a transport refactor must hold",
    ),
    layer(
        "serve.bytes_in_per_row",
        "B",
        Lower,
        "front bytes.in / rows (exact count)",
        "wire header growth",
    ),
    layer(
        "serve.frames_failed",
        "count",
        Lower,
        "frames.failed over every service",
        "must stay 0",
    ),
    layer(
        "router.route_key.ns_per_row",
        "ns",
        Lower,
        "downstream_of over a user column",
        "rows_per_s -> durable_fleet",
    ),
    layer(
        "router.hop.ns_per_row",
        "ns",
        Lower,
        "durable_fleet e2e ns/row - same inputs sent straight to one durable server",
        "rows_per_s, client.ack_p50_us -> durable_fleet",
    ),
    layer(
        "router.skew",
        "ratio",
        Lower,
        "max / mean of router.downstream.NN.rows",
        "slowest downstream sets client.ack_* -> durable_fleet",
    ),
    layer(
        "router.lost_rows",
        "count",
        Lower,
        "sum of router.downstream.NN.lost_rows",
        "must stay 0",
    ),
    layer(
        "router.fanout_sync.reported_us_per_op",
        "us",
        Lower,
        "router.fanout.sync_nanos sum / count via Router::metrics()",
        "client.ack_p50_us -> durable_fleet",
    ),
    layer(
        "telemetry.record.ns_per_op",
        "ns",
        Lower,
        "Histogram::record + Counter::inc",
        "rows_per_s -> ingest_hot, dashboard.queries_per_s -> sync_small",
    ),
    layer(
        "telemetry.snapshot.us_per_op",
        "us",
        Lower,
        "Registry::snapshot at the server's catalogue size",
        "metrics query cost",
    ),
    layer(
        "dashboard.queries_per_s",
        "1/s",
        Higher,
        "dashboard beside the gateway: answered query verbs / window (sync_small only)",
        "the read side of sync_small; drops when writes hold the view longer",
    ),
    layer(
        "dashboard.query_p50_us",
        "us",
        Lower,
        "per query call, four verbs in turn",
        "view refresh + reply path -> sync_small",
    ),
    layer(
        "dashboard.query_p99_us",
        "us",
        Lower,
        "per query call, n >= 1e5",
        "refresh under the write gate -> sync_small",
    ),
    layer(
        "loadgen.trace_overhead_pct",
        "%",
        Lower,
        "(untraced - traced) / untraced rows_per_s",
        "validity of the traced run",
    ),
];

/// What a socket workload sends and to what.
#[derive(Debug, Clone, Copy)]
pub struct SocketShape {
    pub users: u64,
    pub frame_rows: usize,
    /// Frames in the pre-generated ring; a multiple of `sync_every`.
    pub ring_frames: usize,
    /// Frames between `sync()` calls.
    pub sync_every: u64,
    pub topology: TopologyKind,
    /// One dashboard connection queries beside the gateway (reads beside
    /// writes).
    pub dashboard_beside: bool,
}

/// What a workload does.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Socket(SocketShape),
    /// `frames` × 8,192-row records written in set-up, then replayed.
    Recover {
        users: u64,
        frames: usize,
    },
    /// CAPP over SW, `cohorts` × `cohort_users` users × `slots` slots.
    Fleet {
        cohorts: usize,
        cohort_users: usize,
        slots: usize,
        epsilon: f64,
        w: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    /// Percentile `client.ack_tail_us` is read at on this workload.
    pub ack_tail_pct: f64,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// end-to-end metrics to their bounds. `run` runs every workload.
    pub gated: bool,
}

/// The ROADMAP's canonical ingest batch.
pub const CANONICAL_FRAME_ROWS: usize = 8_192;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest_hot",
        why: "1 gateway -> plain Server, 10k users, 8192-row frames: table in cache, so wire + serve do the work; WAL and router idle",
        kind: Kind::Socket(SocketShape {
            users: 10_000,
            frame_rows: CANONICAL_FRAME_ROWS,
            ring_frames: 256,
            sync_every: 8,
            topology: TopologyKind::Plain,
            dashboard_beside: false,
        }),
        ack_tail_pct: 99.0,
        gated: true,
    },
    Workload {
        name: "ingest_cold",
        why: "same path, 1M users, 32768-row frames: table misses cache and the fold pool engages, so collector fold does the work",
        kind: Kind::Socket(SocketShape {
            users: 1_000_000,
            frame_rows: 32_768,
            ring_frames: 128,
            sync_every: 2,
            topology: TopologyKind::Plain,
            dashboard_beside: false,
        }),
        ack_tail_pct: 99.0,
        gated: true,
    },
    Workload {
        name: "durable_fleet",
        why: "1 gateway -> Router -> 2 durable Servers (group commit 2 ms): the headline topology; router partition/fan-out and WAL do the extra work",
        kind: Kind::Socket(SocketShape {
            users: 10_000,
            frame_rows: CANONICAL_FRAME_ROWS,
            ring_frames: 256,
            sync_every: 4,
            topology: TopologyKind::Routed {
                downstreams: 2,
                flush: FlushPolicy::Batched(Duration::from_millis(2)),
            },
            dashboard_beside: false,
        }),
        ack_tail_pct: 99.0,
        gated: true,
    },
    Workload {
        name: "sync_small",
        why: "1024-row ingest+sync back-to-back on a durable Server (fsync per ack) beside a dashboard: latency that bigger buffers or coarser batching would lose",
        kind: Kind::Socket(SocketShape {
            users: 10_000,
            frame_rows: 1_024,
            ring_frames: 256,
            sync_every: 1,
            topology: TopologyKind::Durable(FlushPolicy::Barrier),
            dashboard_beside: true,
        }),
        ack_tail_pct: 90.0,
        gated: false,
    },
    Workload {
        name: "recover",
        why: "repeated durable::recover() of a 128-frame log: the WAL is read not written; decode + fold with no socket",
        kind: Kind::Recover {
            users: 10_000,
            frames: 128,
        },
        ack_tail_pct: 90.0,
        gated: true,
    },
    Workload {
        name: "fleet_capp",
        why: "in-process ClientFleet running CAPP over SW (eps=2, w=10): the paper's algorithm; ldp-core + ldp-mechanisms do the work, no wire or WAL",
        kind: Kind::Fleet {
            cohorts: 32,
            cohort_users: 125,
            slots: 1_000,
            epsilon: 2.0,
            w: 10,
        },
        ack_tail_pct: 99.0,
        gated: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists.
pub fn gated_workloads() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().filter(|w| w.gated)
}

/// Names are `[A-Za-z0-9_.-]+`, start with a letter or digit, and are at
/// most 64 characters — the contract `BENCHMARK.json` is checked against.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn name_validation() {
        for good in [
            "rows_per_s",
            "wire.encode.ns_per_row",
            "a",
            "9lives",
            "x-y.z_1",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/no",
            "µs",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("rows/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn rings_end_on_a_sync_boundary() {
        for w in WORKLOADS {
            if let Kind::Socket(shape) = w.kind {
                assert_eq!(shape.ring_frames as u64 % shape.sync_every, 0, "{}", w.name);
            }
        }
    }

    /// `BENCHMARK.json` is written by hand to the driver's contract; this
    /// keeps it saying what the code does.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Value> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let text = |v: &Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), gated_workloads().count());
        for (listed, ours) in workloads.iter().zip(gated_workloads()) {
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "why"), ours.why);
        }
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit);
            assert_eq!(text(listed, "better"), ours.better.as_str());
            assert_eq!(listed.get("bound").unwrap().as_f64().unwrap(), ours.bound);
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(listed, "name"), ours.name);
            assert_eq!(text(listed, "unit"), ours.unit);
            assert_eq!(text(listed, "better"), ours.better.as_str());
        }
    }
}
