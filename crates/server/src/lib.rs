//! # ddc-server — the DDC as a streaming network service
//!
//! The paper's GC4016 is fed by a *continuous* 64.512 MSPS ADC stream:
//! the DDC is not a batch kernel but a service with arrival-rate,
//! latency and backlog constraints. This crate gives the repo that
//! missing layer: a std-only TCP server in which every session owns a
//! bit-true [`ddc_core::FixedDdc`] (or a channelizer bank), spoken to
//! over a length-prefixed, checksummed binary frame protocol, plus the
//! matching client library and the `loadgen` traffic generator.
//!
//! * [`wire`] — versioned frame types (Hello/Configure/Samples/Iq/
//!   Stats/Error/Shutdown) with pure, socket-free encode/decode,
//!   including the zero-copy Samples decode and the fused-checksum
//!   [`wire::FrameBuf`] egress encoders.
//! * [`queue`] — the bounded per-session input queue behind the three
//!   backpressure policies (block, drop-oldest, disconnect).
//! * [`session`] — the per-connection state machine (handshake →
//!   configured → streaming → draining) with partial-read/partial-write
//!   cursors and the session's own DSP, driven by its shard.
//! * [`sys`] — the thin scoped-`unsafe` readiness shim: epoll on
//!   Linux, a portable `poll(2)` fallback elsewhere, plus a pipe-based
//!   cross-thread waker.
//! * [`server`] — the sharded run-to-completion runtime: N shard
//!   threads, each multiplexing its sessions' non-blocking sockets and
//!   running every accepted batch to completion in bounded slices, the
//!   listener on shard 0, graceful drain-then-join shutdown.
//! * [`client`] — blocking client with sequence-checked receive,
//!   splittable for concurrent send/receive.
//!
//! No external dependencies: sockets are `std::net`, threading is
//! `std::thread`, synchronisation is `Mutex`/`Condvar`/atomics —
//! matching the repo's offline-build constraint. `unsafe` is denied
//! crate-wide and allowed only inside [`sys`], whose whole job is to
//! wrap four syscalls (`epoll_create1`/`epoll_ctl`/`epoll_wait` or
//! `poll`, plus `pipe2`) behind a safe API.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod queue;
pub mod server;
pub mod session;
pub mod sys;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{serve, ServerConfig, ServerHandle};
pub use wire::{Backpressure, ConfigPreset, Frame};
