//! `ldp-router` — the federation front as a standalone process.
//!
//! Prints `LISTENING <addr>` on stdout once the front socket is bound
//! (how a parent process or test harness learns the ephemeral port),
//! then routes until stdin reaches EOF — the same supervisor contract as
//! the `ldp-server` binary, so one harness can run a whole federation.
//!
//! ```text
//! ldp-router --downstream ADDR [--downstream ADDR ...]
//!            [--bind ADDR] [--max-connections N]
//! ```
//!
//! A repeated `--downstream` exits 1 before binding (its users would be
//! counted twice); `--max-connections 0` is refused like a bad flag.

use ldp_router::{Router, RouterConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ldp-router --downstream ADDR [--downstream ADDR ...] \
         [--bind ADDR] [--max-connections N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut bind = String::from("127.0.0.1:0");
    let mut downstreams: Vec<SocketAddr> = Vec::new();
    let mut config = RouterConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--bind" => bind = value,
            "--downstream" => match value.to_socket_addrs() {
                Ok(mut addrs) => match addrs.next() {
                    Some(addr) => downstreams.push(addr),
                    None => return usage(),
                },
                Err(e) => {
                    eprintln!("ldp-router: downstream {value}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--max-connections" => match value.parse() {
                Ok(v) => config.max_connections = v,
                Err(_) => return usage(),
            },
            _ => return usage(),
        }
    }
    if downstreams.is_empty() {
        return usage();
    }
    // A tier that refuses every connection is a typo, not a setting.
    if config.max_connections == 0 {
        eprintln!("ldp-router: --max-connections must be at least 1");
        return usage();
    }

    let router = match Router::bind_addr(bind.as_str(), downstreams, config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("ldp-router: bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The parent parses this line to learn the ephemeral port; flush so
    // it never sits in a pipe buffer.
    println!("LISTENING {}", router.local_addr());
    let _ = std::io::stdout().flush();

    // Route until the parent closes our stdin (or we're killed).
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    drop(router); // graceful shutdown: joins the accept and connection threads
    ExitCode::SUCCESS
}
