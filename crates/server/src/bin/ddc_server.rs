//! Standalone streaming-DDC server.
//!
//! ```text
//! cargo run --release -p ddc-server --bin ddc_server -- --addr 127.0.0.1:4016
//! ```
//!
//! Runs until stdin reaches EOF or a line reading `quit` arrives, then
//! shuts down gracefully (drains live sessions, joins every thread).

use ddc_server::{serve, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ddc_server [--addr HOST:PORT] [--max-sessions N] [--queue-cap N]\n\
         defaults: --addr 127.0.0.1:4016 --max-sessions 8 --queue-cap 8"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:4016".to_string();
    let mut cfg = ServerConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut k = 0;
    while k < args.len() {
        let need = |k: usize| args.get(k + 1).cloned().unwrap_or_else(|| usage());
        match args[k].as_str() {
            "--addr" => {
                addr = need(k);
                k += 2;
            }
            "--max-sessions" => {
                cfg.max_sessions = need(k).parse().unwrap_or_else(|_| usage());
                k += 2;
            }
            "--queue-cap" => {
                cfg.default_queue_cap = need(k).parse().unwrap_or_else(|_| usage());
                cfg.max_queue_cap = cfg.max_queue_cap.max(cfg.default_queue_cap);
                k += 2;
            }
            _ => usage(),
        }
    }

    let max_sessions = cfg.max_sessions;
    let handle = match serve(addr.as_str(), cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ddc_server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "ddc-server listening on {} ({} session slots); EOF or 'quit' on stdin stops it",
        handle.local_addr(),
        max_sessions
    );

    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let joined = handle.shutdown(Duration::from_secs(10));
    if joined {
        println!("ddc-server: clean shutdown");
    } else {
        eprintln!("ddc-server: shutdown timed out with sessions still live");
        std::process::exit(1);
    }
}
