//! Client side of the streaming protocol: a blocking connection with
//! sequence-checked receive, splittable into independent send/receive
//! halves for concurrent streaming (the shape `loadgen` uses).

use crate::wire::{
    read_frame, Backpressure, ChainPlan, ConfigPreset, Configure, ErrorFrame, Frame, FrameBuf,
    FrameReadError, Hello, MetricsReport, QosProfile, StatsReport, TraceReport,
};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// Errors of a client exchange.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not parse.
    Protocol(String),
    /// The server sent an Error frame.
    Remote(ErrorFrame),
    /// The server answered with the wrong frame type.
    Unexpected(&'static str, String),
    /// The server's sequence numbers skipped.
    SeqGap {
        /// Next sequence number the client expected.
        expected: u32,
        /// Sequence number actually received.
        got: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote(e) => write!(f, "server error {}: {}", e.code, e.message),
            ClientError::Unexpected(wanted, got) => {
                write!(f, "expected {wanted}, server sent {got}")
            }
            ClientError::SeqGap { expected, got } => {
                write!(f, "server sequence gap: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Eof => ClientError::Protocol("connection closed".into()),
            FrameReadError::Io(e) => ClientError::Io(e),
            FrameReadError::Wire(w) => ClientError::Protocol(w.to_string()),
        }
    }
}

/// Sending half: owns the outbound sequence counter and one reusable
/// encode buffer, so steady-state streaming allocates nothing — each
/// Samples batch is serialised and checksummed into that buffer and
/// handed to the kernel as a single vectored write.
pub struct ClientSender {
    stream: TcpStream,
    buf: FrameBuf,
    seq: u32,
}

impl ClientSender {
    /// Sends one frame with the next outbound sequence number.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.buf.encode(frame, seq);
        self.buf.write_to(&mut self.stream)
    }

    /// Sends one Samples batch straight from the borrowed slice, with
    /// no intermediate `Vec<i32>`.
    pub fn send_samples(&mut self, batch_index: u64, samples: &[i32]) -> io::Result<()> {
        self.send_samples_traced(batch_index, samples, 0)
    }

    /// [`ClientSender::send_samples`] with a span-trace stamp (0 =
    /// untraced, byte-identical to the untraced path).
    pub fn send_samples_traced(
        &mut self,
        batch_index: u64,
        samples: &[i32],
        trace_id: u64,
    ) -> io::Result<()> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.buf
            .encode_samples_traced(seq, batch_index, samples, trace_id);
        self.buf.write_to(&mut self.stream)
    }
}

/// Receiving half: validates the server's sequence numbers. Payload
/// bytes land in one reusable scratch buffer instead of a fresh
/// allocation per frame.
pub struct ClientReceiver {
    reader: BufReader<TcpStream>,
    scratch: Vec<u8>,
    expected_seq: u32,
}

impl ClientReceiver {
    /// Receives the next frame, enforcing sequence continuity.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        let (seq, frame) = read_frame(&mut self.reader, &mut self.scratch)?;
        if seq != self.expected_seq {
            return Err(ClientError::SeqGap {
                expected: self.expected_seq,
                got: seq,
            });
        }
        self.expected_seq = self.expected_seq.wrapping_add(1);
        Ok(frame)
    }
}

/// A connected, handshaken session. Use directly for lock-step
/// request/response flows, or [`Client::split`] for concurrent
/// streaming.
pub struct Client {
    sender: ClientSender,
    receiver: ClientReceiver,
    /// QoS profile the next Configure carries (default Throughput).
    qos: QosProfile,
    /// Server-side trace sampling interval the next Configure carries
    /// (default 0 = off).
    trace_interval: u32,
    /// The server's Hello banner.
    pub server_hello: Hello,
}

impl Client {
    /// Connects and performs the Hello handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, info: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let mut sender = ClientSender {
            stream,
            buf: FrameBuf::new(),
            seq: 0,
        };
        let mut receiver = ClientReceiver {
            reader: BufReader::new(read_half),
            scratch: Vec::new(),
            expected_seq: 0,
        };
        sender.send(&Frame::Hello(Hello {
            info: info.to_string(),
        }))?;
        let server_hello = match receiver.recv()? {
            Frame::Hello(h) => h,
            Frame::Error(e) => return Err(ClientError::Remote(e)),
            other => return Err(ClientError::Unexpected("Hello", format!("{other:?}"))),
        };
        Ok(Client {
            sender,
            receiver,
            qos: QosProfile::Throughput,
            trace_interval: 0,
            server_hello,
        })
    }

    /// Sets the QoS profile carried by subsequent Configure frames:
    /// `QosProfile::Latency { budget_us }` asks the server to bound
    /// end-to-end batch latency (quarter-budget DSP slices,
    /// timing-annotated Iq acks) instead of maximising bulk
    /// throughput. Chain sessions only ([`Client::configure`] /
    /// [`Client::configure_spec`]): the server refuses a latency
    /// budget on channelizer and subscriber plans with `BAD_CONFIG`,
    /// since nothing in their path enforces one. Returns `self` so it
    /// chains before `configure*`.
    pub fn with_qos(mut self, qos: QosProfile) -> Self {
        self.qos = qos;
        self
    }

    /// In-place variant of [`Client::with_qos`].
    pub fn set_qos(&mut self, qos: QosProfile) {
        self.qos = qos;
    }

    /// Sets the server-side trace head-sampling interval carried by
    /// subsequent Configure frames: every `n`th accepted batch that
    /// arrives without a client trace stamp gets a server-allocated
    /// trace ID. 0 (the default) disables server-side sampling. Chains
    /// before `configure*`.
    pub fn with_trace_interval(mut self, n: u32) -> Self {
        self.trace_interval = n;
        self
    }

    /// In-place variant of [`Client::with_trace_interval`].
    pub fn set_trace_interval(&mut self, n: u32) {
        self.trace_interval = n;
    }

    /// Configures the session; returns the server's initial stats
    /// snapshot (which names the session's channel).
    pub fn configure(
        &mut self,
        preset: ConfigPreset,
        tune_freq: f64,
        policy: Backpressure,
        queue_cap: u32,
    ) -> Result<StatsReport, ClientError> {
        self.configure_plan(ChainPlan::Preset { preset, tune_freq }, policy, queue_cap)
    }

    /// Configures the session with an explicit [`ddc_core::ChainSpec`]
    /// — the path for plans no preset describes. The spec travels
    /// binary-encoded inside the Configure frame.
    pub fn configure_spec(
        &mut self,
        spec: &ddc_core::ChainSpec,
        policy: Backpressure,
        queue_cap: u32,
    ) -> Result<StatsReport, ClientError> {
        self.configure_plan(ChainPlan::Spec(spec.clone()), policy, queue_cap)
    }

    /// Opens a channelizer ingest session: this connection streams the
    /// wideband input, and per-channel outputs fan out to subscriber
    /// sessions attached with [`Client::subscribe`] under the spec's
    /// name. The ingest's own Samples batches are acknowledged with
    /// empty Iq frames (outputs travel on the subscriber connections).
    pub fn configure_channelizer(
        &mut self,
        spec: &ddc_core::ChannelizerSpec,
        policy: Backpressure,
        queue_cap: u32,
    ) -> Result<StatsReport, ClientError> {
        self.configure_plan(ChainPlan::Channelizer(spec.clone()), policy, queue_cap)
    }

    /// Attaches this connection to one channel of a live channelizer
    /// bank (opened by another session via
    /// [`Client::configure_channelizer`]). The session then receives
    /// that channel's Iq frames; it must not send Samples.
    pub fn subscribe(
        &mut self,
        name: &str,
        channel: u32,
        policy: Backpressure,
        queue_cap: u32,
    ) -> Result<StatsReport, ClientError> {
        self.configure_plan(
            ChainPlan::Subscribe {
                name: name.to_string(),
                channel,
            },
            policy,
            queue_cap,
        )
    }

    fn configure_plan(
        &mut self,
        plan: ChainPlan,
        policy: Backpressure,
        queue_cap: u32,
    ) -> Result<StatsReport, ClientError> {
        self.sender.send(&Frame::Configure(Configure {
            plan,
            policy,
            queue_cap,
            qos: self.qos,
            trace_interval: self.trace_interval,
        }))?;
        match self.receiver.recv()? {
            Frame::StatsReport(r) => Ok(r),
            Frame::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected("StatsReport", format!("{other:?}"))),
        }
    }

    /// Drains the server's span-trace rings into a Chrome trace-event
    /// JSON fragment (see [`TraceReport`]).
    pub fn request_trace(&mut self) -> Result<TraceReport, ClientError> {
        self.sender.send(&Frame::TraceRequest)?;
        match self.receiver.recv()? {
            Frame::TraceReport(t) => Ok(t),
            Frame::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected("TraceReport", format!("{other:?}"))),
        }
    }

    /// Requests a telemetry snapshot in the Prometheus text format.
    pub fn request_metrics(&mut self) -> Result<MetricsReport, ClientError> {
        self.sender.send(&Frame::MetricsRequest)?;
        match self.receiver.recv()? {
            Frame::MetricsReport(m) => Ok(m),
            Frame::Error(e) => Err(ClientError::Remote(e)),
            other => Err(ClientError::Unexpected(
                "MetricsReport",
                format!("{other:?}"),
            )),
        }
    }

    /// Sends one Samples batch.
    pub fn send_samples(&mut self, batch_index: u64, samples: &[i32]) -> io::Result<()> {
        self.sender.send_samples(batch_index, samples)
    }

    /// Sends one Samples batch stamped with a span-trace id (see
    /// [`ClientSender::send_samples_traced`]).
    pub fn send_samples_traced(
        &mut self,
        batch_index: u64,
        samples: &[i32],
        trace_id: u64,
    ) -> io::Result<()> {
        self.sender
            .send_samples_traced(batch_index, samples, trace_id)
    }

    /// Sends an arbitrary frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.sender.send(frame)
    }

    /// Receives the next frame.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        self.receiver.recv()
    }

    /// Splits into independent halves so one thread can stream samples
    /// while another drains I/Q frames.
    pub fn split(self) -> (ClientSender, ClientReceiver) {
        (self.sender, self.receiver)
    }
}
