//! The `ddc_server` child process: spawned on an ephemeral port, its
//! stdout drained until it exits (the server panics if it prints its
//! shutdown line into a closed pipe), stopped with `quit` on stdin and
//! killed if it does not exit within a bound.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the server may take to print its listening address.
const START_BOUND: Duration = Duration::from_secs(10);

/// A running server.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    drain: Option<JoinHandle<()>>,
    /// `host:port` the server listens on.
    pub addr: String,
    /// The server's process id, as `/proc` names it.
    pub pid: String,
}

/// Takes the address out of the server's banner line
/// (`ddc-server listening on 127.0.0.1:40123 (8 session slots); ...`).
pub fn parse_listen_line(line: &str) -> Option<String> {
    let rest = line.split_once("listening on ")?.1;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

impl ServerProc {
    /// Starts `bin` on `127.0.0.1:0` and waits for its address.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::Builder::new()
            .name("server-stdout".into())
            .spawn(move || {
                let mut sent = false;
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if !sent {
                        if let Some(addr) = parse_listen_line(&line) {
                            let _ = tx.send(addr);
                            sent = true;
                        }
                    }
                }
            })
            .map_err(|e| format!("cannot spawn stdout reader: {e}"))?;
        let pid = child.id().to_string();
        let mut server = ServerProc {
            child,
            stdin: None,
            drain: Some(drain),
            addr: String::new(),
            pid,
        };
        server.stdin = server.child.stdin.take();
        match rx.recv_timeout(START_BOUND) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => Err("server printed no listening address".into()),
        }
    }

    /// Kills the server at once (a wedged run's last resort: every
    /// blocked client read then fails instead of hanging).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// Sends `quit` and waits up to `bound` for the process to exit;
    /// kills it after that. Returns true when the bound was hit.
    pub fn stop(mut self, bound: Duration) -> bool {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let start = Instant::now();
        let timed_out = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break false,
                Ok(None) if start.elapsed() < bound => std::thread::sleep(Duration::from_millis(2)),
                _ => break true,
            }
        };
        self.reap();
        timed_out
    }

    /// Kills if still running, waits for the exit and for the stdout
    /// reader to see EOF.
    fn reap(&mut self) {
        self.stdin = None;
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_yields_the_address() {
        let line = "ddc-server listening on 127.0.0.1:40123 (8 session slots); EOF or 'quit' \
                    on stdin stops it";
        assert_eq!(parse_listen_line(line), Some("127.0.0.1:40123".into()));
        assert_eq!(parse_listen_line("ddc-server: clean shutdown"), None);
    }
}
