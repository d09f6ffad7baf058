//! A router connection costs **one** thread, however many downstreams it
//! fans out to: K front connections raise the process's thread count by
//! K, not K·(N+1). The downstreams run out of process (real `ldp-server`
//! children, supervised as in `federation.rs`: `LISTENING <addr>` on
//! stdout, exit on stdin EOF), so every thread counted is the router's —
//! and this file holds one test, so no sibling test spawns any meanwhile.
//! Linux-only: the count is `/proc/self/task`.
#![cfg(target_os = "linux")]

use ldp_collector::ReportBatch;
use ldp_router::{Router, RouterConfig};
use ldp_server::RemoteCollector;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// An `ldp-server` child; dropped = stdin closed = graceful exit.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    fn spawn(binary: &Path) -> Self {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ldp-server");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("child stdout piped"))
            .read_line(&mut banner)
            .expect("read child stdout");
        let addr = banner
            .trim_end()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected child banner: {banner}"))
            .parse()
            .expect("child address parses");
        Self { child, addr }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        drop(self.child.stdin.take()); // EOF = graceful shutdown request
        let _ = self.child.wait();
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list own threads")
        .count()
}

#[test]
fn k_front_connections_cost_k_threads_not_k_times_the_downstreams() {
    const DOWNSTREAMS: usize = 3;
    const CONNECTIONS: usize = 4;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let built = Command::new(env!("CARGO"))
        .args(["build", "-q", "-p", "ldp-server", "--bins"])
        .current_dir(root)
        .status()
        .expect("spawn cargo build for ldp-server");
    assert!(built.success(), "building ldp-server failed");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), Into::into);
    let binary = target.join("debug").join("ldp-server");
    let servers: Vec<ServerChild> = (0..DOWNSTREAMS)
        .map(|_| ServerChild::spawn(&binary))
        .collect();

    let mut router = Router::bind(
        servers.iter().map(|s| s.addr).collect(),
        RouterConfig::default(),
    )
    .expect("bind router");
    let before = threads(); // harness + accept loop

    let mut batch = ReportBatch::new();
    for user in 0..64 {
        batch.push(user, 0, 0.5);
    }
    let clients: Vec<RemoteCollector> = (0..CONNECTIONS)
        .map(|_| {
            // A synced ingest has dialed and used every downstream link.
            let mut client = RemoteCollector::connect(router.local_addr()).unwrap();
            client.ingest(&batch).unwrap();
            assert_eq!(client.sync().unwrap().accepted, 64);
            client
        })
        .collect();
    assert_eq!(threads() - before, CONNECTIONS, "one thread per connection");

    drop(clients);
    router.shutdown();
}
