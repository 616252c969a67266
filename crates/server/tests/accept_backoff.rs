//! Descriptor exhaustion at the listener. A standalone `ddc_server`
//! runs under a lowered open-file limit while more clients connect than
//! it has descriptors for, so `accept` keeps failing with EMFILE and
//! the pending connections keep the listener readable. The server must
//! back off instead of spinning on that readiness, count the failures,
//! and serve normally once the descriptors come back.

#![cfg(target_os = "linux")]

use ddc_core::chain::FixedDdc;
use ddc_server::client::Client;
use ddc_server::wire::{Backpressure, ConfigPreset, Frame, IqPayload};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Connections held open at once: more than the lowered limit lets the
/// server accept, so most of them wait in the listen backlog.
const HELD: usize = 26;

/// Descriptors the server may open beyond what it holds when idle.
const SPARE_FDS: usize = 6;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI on the architectures CI runs).
const USER_HZ: f64 = 100.0;

/// A running `ddc_server`, killed on drop so a failing assertion never
/// leaves it behind.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Server {
    /// Starts the binary on an ephemeral port, with `ulimit -n` set in
    /// its own shell only when `fd_limit` is given, and reads the bound
    /// address from its banner.
    fn start(fd_limit: Option<usize>) -> Server {
        let limit = fd_limit.map_or(String::new(), |n| format!("ulimit -n {n}; "));
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!("{limit}exec \"$0\" --addr 127.0.0.1:0"))
            .arg(env!("CARGO_BIN_EXE_ddc_server"))
            // The epoll backend's descriptor count is what SPARE_FDS is
            // measured against.
            .env_remove("DDC_FORCE_POLL")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ddc_server");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("server banner");
        let addr = banner
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        // Keep draining stdout so the shutdown message never blocks.
        std::thread::spawn(move || for _ in stdout.lines() {});
        Server {
            stdin: child.stdin.take(),
            child,
            addr,
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `quit` and waits for a clean exit.
    fn quit(mut self) {
        let mut stdin = self.stdin.take().unwrap();
        stdin.write_all(b"quit\n").unwrap();
        drop(stdin);
        let status = self.child.wait().expect("wait for ddc_server");
        assert!(status.success(), "ddc_server exited with {status}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn open_fds(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read the server's fd table")
        .count()
}

/// User plus system CPU time the process has used, in seconds.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / USER_HZ
}

/// One session on a fresh connection: Hello, Configure, one batch that
/// must come back bit-exact, then the server's accept-failure count.
fn serve_one_batch(addr: &str) -> u64 {
    let input: Vec<i32> = (0..2688 * 8u32)
        .map(|k| (k.wrapping_mul(2_654_435_761) >> 20) as i32 - 2048)
        .collect();
    let mut client = Client::connect(addr, "accept-backoff").expect("Hello");
    client
        .configure(ConfigPreset::Drm, 10e6, Backpressure::Block, 8)
        .expect("Configure");
    client.send_samples(0, &input).expect("send batch");
    let got = match client.recv().expect("Iq ack") {
        Frame::Iq(IqPayload { pairs, .. }) => pairs,
        other => panic!("expected Iq, got {other:?}"),
    };
    let expect: Vec<(i64, i64)> = FixedDdc::new(ddc_core::DdcConfig::drm(10e6))
        .process_block(&input)
        .into_iter()
        .map(|z| (z.i, z.q))
        .collect();
    assert!(!expect.is_empty());
    assert_eq!(got, expect, "served batch differs from FixedDdc");
    let report = client.request_metrics().expect("metrics");
    let text = String::from_utf8(report.body).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("ddc_server_accept_failures_total "))
        .expect("accept failure counter in the scrape");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn exhausted_descriptors_do_not_spin_the_listener() {
    // The idle server's descriptor count (stdio, listener, one poller
    // per shard) depends on the host's core count; measure it so the
    // limit leaves exactly SPARE_FDS for connections on any host.
    let probe = Server::start(None);
    let idle = open_fds(probe.pid());
    probe.quit();
    assert!(idle + SPARE_FDS < HELD, "{idle} idle descriptors");

    let limit = idle + SPARE_FDS;
    let server = Server::start(Some(limit));
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(&server.addr).expect("connect into the backlog"))
        .collect();
    // Wait until the server has accepted all it can; every later
    // accept fails with EMFILE.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds(server.pid()) < limit {
        assert!(
            Instant::now() < deadline,
            "server never reached its fd limit"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = cpu_seconds(server.pid());
    std::thread::sleep(Duration::from_secs(2));
    let burned = cpu_seconds(server.pid()) - before;
    assert!(
        burned < 0.2,
        "server burned {burned:.2} s of CPU in 2 s with its descriptors exhausted"
    );
    drop(held);

    // Descriptors come back as the held sessions close; a fresh client
    // is served in full. Run it on a thread so a wedged server fails
    // the test instead of hanging it (the server is killed on drop,
    // which unblocks the client).
    let addr = server.addr.clone();
    let (done, wait) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let failures = serve_one_batch(&addr);
        let _ = done.send(());
        failures
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(Duration::from_secs(30)) {
        panic!("fresh client not served 30 s after the descriptors came back");
    }
    let failures = client
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    assert!(failures > 0, "accept failures were not counted");
    server.quit();
}
