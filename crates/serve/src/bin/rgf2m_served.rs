//! The synthesis daemon: a long-lived server turning (field, method,
//! target, seed) requests into Table V-grade implementation reports,
//! backed by the in-memory pipeline cache and (optionally) the
//! persistent artifact store.
//!
//! Usage:
//!   rgf2m-served [--tcp HOST:PORT | --unix PATH] [--store DIR] [--workers N]
//!
//!   --tcp HOST:PORT   listen on localhost TCP (default 127.0.0.1:7208;
//!                     port 0 picks a free port, printed on stdout)
//!   --unix PATH       listen on a Unix-domain socket instead
//!   --store DIR       persist reports under DIR (content-addressed
//!                     rgf2m-artifact/2 documents; survives restarts)
//!   --workers N       computation threads (default: one per CPU)
//!
//! The daemon prints one readiness line (`rgf2m-served listening on
//! ...`) once accepting, then serves until a `shutdown` request drains
//! it. Protocol: one JSON object per line — see the `rgf2m_serve`
//! crate docs or README "Serving".

use std::io::Write as _;

use rgf2m_serve::net::Endpoint;
use rgf2m_serve::server::{self, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let endpoint = match (arg_value("--tcp"), arg_value("--unix")) {
        (Some(_), Some(_)) => die("give --tcp or --unix, not both"),
        (Some(addr), None) => Endpoint::Tcp(addr),
        (None, Some(path)) => Endpoint::Unix(path.into()),
        (None, None) => Endpoint::Tcp("127.0.0.1:7208".into()),
    };
    let mut config = ServerConfig::new(endpoint);
    if let Some(dir) = arg_value("--store") {
        config = config.with_store_root(dir);
    }
    if let Some(n) = arg_value("--workers") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| die("--workers wants an integer"));
        config = config.with_workers(n);
    }

    let handle = server::spawn(config).unwrap_or_else(|e| die(&format!("cannot bind: {e}")));
    banner(&format!("rgf2m-served listening on {}", handle.endpoint()));
    match handle.join() {
        Ok(()) => banner("rgf2m-served: drained, bye"),
        Err(e) => die(&format!("server error: {e}")),
    }
}

/// Writes a status line to stdout. A daemon outlives whoever started
/// it, so a closed stdout (its reader gone) must not stop it: the line
/// is dropped and serving, or the drain, carries on.
fn banner(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}").and_then(|()| out.flush());
}

fn die(msg: &str) -> ! {
    eprintln!("rgf2m-served: {msg}");
    std::process::exit(1);
}
