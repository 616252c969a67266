//! Sampled end-to-end span tracing: a per-batch flight recorder.
//!
//! Aggregate counters (the [`crate::MetricsHandle`] world) answer "how
//! much"; this module answers "which batch, where, when". A
//! [`TraceSink`] owns a set of [`SpanRing`]s plus an interned span-name
//! table built at configure time. Recording a span is a handful of
//! atomic operations: no locks, no heap allocation, never blocks. A
//! [`TraceHandle`] gates recording exactly like `MetricsHandle` gates
//! metrics: disabled is a single branch on an always-`None` option, and
//! the DSP results are bit-exact either way because tracing only
//! *observes*.
//!
//! Span events come in three kinds — `begin`, `end`, `instant` — with
//! timestamps measured from the sink's shared origin instant, so rings
//! written by different threads merge into one timeline. The
//! [`TraceSink::render_chrome`] exporter pairs begin/end events by span
//! ID (orphans from ring overwrite are dropped, never emitted
//! unbalanced) and renders Chrome trace-event JSON objects that
//! Perfetto loads directly.
//!
//! # The ring's claim/complete protocol
//!
//! A [`SpanRing`] is a power-of-two array of five-word slots: a stamp
//! and four payload words. Any number of threads may push; one thread
//! drains. A push takes sequence `s` with one `fetch_add` on `head`,
//! then claims slot `s mod cap` with a compare-exchange on its stamp,
//! only from an even stamp below `2s+1`. It writes the payload and
//! publishes by storing `2s+2`. So a slot's stamp only grows, and one
//! writer owns a slot at a time. A writer that finds the slot owned
//! (odd stamp) or holding a newer sequence loses the claim and
//! publishes nothing. Every push, published or not, then bumps the
//! ring's completion counter, which [`SpanRing::produced`] reports.
//!
//! A drain walks the sequences from its cursor up to `head`, and counts
//! each one either delivered or dropped:
//! - a slot stamped exactly `2s+2` is copied and kept if the stamp
//!   reads the same afterwards; a copy torn by a later writer is
//!   dropped;
//! - a slot stamped higher was overwritten: dropped;
//! - a slot stamped lower is not published yet, so the drain stops
//!   there, unless the completion counter (read before `head`) equalled
//!   `head`: then every claimed push had finished, its writer lost the
//!   claim, and it is dropped;
//! - sequences more than a ring's worth behind `head` are dropped at
//!   once.
//!
//! Once the writers are quiet, one drain therefore ends with the
//! delivered and dropped counts summing to the produced count. Slots
//! start all-zero (stamp 0 is claimable by every sequence), so an idle
//! ring commits no memory until it is written. Everything is an
//! `AtomicU64`: there is no `unsafe`, and a racing copy can at worst be
//! torn, which the stamp re-check rejects.

use std::collections::HashMap;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span event kinds.
pub mod span_kind {
    /// Span opened (paired with [`END`] by span ID).
    pub const BEGIN: u8 = 1;
    /// Span closed.
    pub const END: u8 = 2;
    /// Point event (no pairing).
    pub const INSTANT: u8 = 3;
}

/// One recorded span event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Ring-local sequence number (gap-free per ring).
    pub seq: u64,
    /// Nanoseconds since the sink's origin instant.
    pub t_ns: u64,
    /// Trace this event belongs to (never 0 for recorded events).
    pub trace_id: u64,
    /// Span identity pairing begin with end (0 for instants).
    pub span_id: u64,
    /// One of [`span_kind`].
    pub kind: u8,
    /// Index into the sink's interned name table.
    pub name: u16,
    /// Logical execution track (shard, worker, client session).
    pub track: u32,
}

/// Packs kind/name/track into one payload word.
#[inline]
fn pack_meta(kind: u8, name: u16, track: u32) -> u64 {
    (kind as u64) | ((name as u64) << 8) | ((track as u64) << 24)
}

#[inline]
fn unpack_meta(meta: u64) -> (u8, u16, u32) {
    (meta as u8, (meta >> 8) as u16, (meta >> 24) as u32)
}

#[derive(Debug)]
struct Slot {
    /// 0 = never written; `2s+1` = writing seq `s`; `2s+2` = published.
    stamp: AtomicU64,
    t_ns: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    meta: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Self {
            stamp: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        }
    }
}

/// Bounded, drop-counted ring of [`SpanEvent`]s that any number of
/// threads may write and one thread drains (the claim/complete protocol
/// in the module docs): writers never block and never allocate, a slow
/// reader loses the oldest spans and the loss is counted, and torn
/// reads are rejected by stamp re-validation.
#[derive(Debug)]
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Sequence numbers claimed by writers.
    head: AtomicU64,
    /// Pushes finished, whether they published or lost the claim.
    /// Bumped with `Release` after the push's last stamp store, so a
    /// drain that reads it with `Acquire` sees every counted push's
    /// final stamp.
    completed: AtomicU64,
    /// Next sequence number to drain (single consumer).
    cursor: AtomicU64,
    dropped: AtomicU64,
    origin: Instant,
}

impl SpanRing {
    /// Creates a ring holding up to `capacity` span events (rounded up
    /// to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        Self::with_origin(capacity, Instant::now())
    }

    /// Creates a ring whose timestamps count from `origin`. Rings that
    /// will be merged must share one origin.
    pub fn with_origin(capacity: usize, origin: Instant) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::new()).collect();
        Self {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            origin,
        }
    }

    /// Slot capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total pushes finished, published or lost.
    pub fn produced(&self) -> u64 {
        self.completed.load(Relaxed)
    }

    /// Total span events lost to overwrite or a lost claim, as counted
    /// by drains.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// The instant timestamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds elapsed since the ring's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records a span event at an explicit timestamp. Never blocks,
    /// never allocates; overwrites the oldest undrained event when the
    /// ring is full, and records nothing (a counted drop) when another
    /// writer holds the slot or has already published a newer event in
    /// it.
    #[inline]
    pub fn push_at(&self, t_ns: u64, trace_id: u64, span_id: u64, kind: u8, name: u16, track: u32) {
        let seq = self.head.fetch_add(1, Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        let writing = 2 * seq + 1;
        let mut stamp = slot.stamp.load(SeqCst);
        // Claim only from a published (even) stamp older than ours.
        while stamp & 1 == 0 && stamp < writing {
            match slot
                .stamp
                .compare_exchange_weak(stamp, writing, SeqCst, SeqCst)
            {
                Ok(_) => {
                    #[cfg(test)]
                    tests::in_claim_window();
                    slot.t_ns.store(t_ns, Release);
                    slot.trace_id.store(trace_id, Release);
                    slot.span_id.store(span_id, Release);
                    slot.meta.store(pack_meta(kind, name, track), Release);
                    // Release pairs with the drain's stamp load: a drain
                    // that reads `writing + 1` sees this payload. If its
                    // copy picks up a later writer's payload instead,
                    // that writer's claim happened before it, so the
                    // drain's stamp re-check sees the claim and rejects
                    // the copy.
                    slot.stamp.store(writing + 1, Release);
                    break;
                }
                Err(now) => stamp = now,
            }
        }
        self.completed.fetch_add(1, Release);
    }

    /// Records a span event stamped "now".
    #[inline]
    pub fn push(&self, trace_id: u64, span_id: u64, kind: u8, name: u16, track: u32) {
        self.push_at(self.now_ns(), trace_id, span_id, kind, name, track);
    }

    /// Drains every published span since the last drain into `out`, in
    /// sequence order; returns how many spans were newly detected as
    /// dropped. Single-consumer: concurrent drains of one ring race on
    /// the cursor and would double-deliver.
    pub fn drain_into(&self, out: &mut Vec<SpanEvent>) -> u64 {
        // Completions first: if they still equal the claims read after
        // them, every claimed push had finished, so a slot stamped
        // below its sequence lost its claim rather than being mid-push.
        let completed = self.completed.load(Acquire);
        let head = self.head.load(Acquire);
        let quiet = completed == head;
        let cap = self.slots.len() as u64;
        let mut cursor = self.cursor.load(Relaxed);
        let mut newly_dropped = 0u64;

        if head.saturating_sub(cursor) > cap {
            let lost = head - cap - cursor;
            newly_dropped += lost;
            cursor = head - cap;
        }

        while cursor < head {
            let slot = &self.slots[(cursor as usize) & (self.slots.len() - 1)];
            let want = 2 * cursor + 2;
            let s1 = slot.stamp.load(SeqCst);
            if s1 < want && !quiet {
                break;
            }
            if s1 != want {
                newly_dropped += 1;
                cursor += 1;
                continue;
            }
            let t_ns = slot.t_ns.load(Acquire);
            let trace_id = slot.trace_id.load(Acquire);
            let span_id = slot.span_id.load(Acquire);
            let (kind, name, track) = unpack_meta(slot.meta.load(Acquire));
            if slot.stamp.load(SeqCst) == want {
                out.push(SpanEvent {
                    seq: cursor,
                    t_ns,
                    trace_id,
                    span_id,
                    kind,
                    name,
                    track,
                });
            } else {
                newly_dropped += 1;
            }
            cursor += 1;
        }

        self.cursor.store(cursor, Relaxed);
        self.dropped.fetch_add(newly_dropped, Relaxed);
        newly_dropped
    }
}

/// Trace IDs the sink generates itself (server-side head sampling) set
/// the top bit so they can never collide with client-stamped IDs,
/// which the wire layer requires to be nonzero and keep the top bit
/// clear.
pub const SERVER_TRACE_BIT: u64 = 1 << 63;

/// The shared span recorder: a set of merge-compatible [`SpanRing`]s
/// (writers pick one by track), an interned span-name table, and the
/// span/trace ID allocators. Built once at configure time; recording
/// afterwards is lock-free and allocation-free.
#[derive(Debug)]
pub struct TraceSink {
    rings: Box<[SpanRing]>,
    names: Mutex<Vec<String>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    origin: Instant,
}

impl TraceSink {
    /// Builds a sink with `rings` rings (rounded up to a power of two,
    /// minimum 1) of `capacity` spans each, all sharing one origin.
    pub fn new(rings: usize, capacity: usize) -> Self {
        Self::with_origin(rings, capacity, Instant::now())
    }

    /// Builds a sink whose timestamps count from `origin` (so spans can
    /// share a timebase with values recorded outside the sink).
    pub fn with_origin(rings: usize, capacity: usize, origin: Instant) -> Self {
        let n = rings.max(1).next_power_of_two();
        let rings: Vec<SpanRing> = (0..n)
            .map(|_| SpanRing::with_origin(capacity, origin))
            .collect();
        Self {
            rings: rings.into_boxed_slice(),
            names: Mutex::new(vec!["span".to_string()]),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            origin,
        }
    }

    /// The instant all span timestamps are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds elapsed since the sink's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Interns a span name and returns its index; registering the same
    /// name twice returns the same index. Configure-time only (takes a
    /// lock and may allocate). The table is capped at `u16::MAX`
    /// entries; overflow falls back to index 0 ("span").
    pub fn register_name(&self, name: &str) -> u16 {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as u16;
        }
        if names.len() >= u16::MAX as usize {
            return 0;
        }
        names.push(name.to_string());
        (names.len() - 1) as u16
    }

    /// The interned name for `idx` ("span" for unknown indices).
    pub fn name_of(&self, idx: u16) -> String {
        let names = self.names.lock().unwrap();
        names
            .get(idx as usize)
            .cloned()
            .unwrap_or_else(|| "span".to_string())
    }

    /// Allocates a fresh nonzero span ID.
    #[inline]
    pub fn alloc_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Relaxed)
    }

    /// Allocates a fresh server-originated trace ID (top bit set, so
    /// it cannot collide with client-stamped IDs).
    #[inline]
    pub fn alloc_trace_id(&self) -> u64 {
        SERVER_TRACE_BIT | self.next_trace.fetch_add(1, Relaxed)
    }

    #[inline]
    fn ring(&self, track: u32) -> &SpanRing {
        &self.rings[(track as usize) & (self.rings.len() - 1)]
    }

    /// The sink's rings (for direct drains in tests).
    pub fn rings(&self) -> &[SpanRing] {
        &self.rings
    }

    /// Total span events ever pushed across all rings.
    pub fn produced(&self) -> u64 {
        self.rings.iter().map(|r| r.produced()).sum()
    }

    /// Total span events lost to overwrite, as counted by drains.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Records an instant event stamped "now".
    #[inline]
    pub fn instant(&self, track: u32, trace_id: u64, name: u16) {
        let ring = self.ring(track);
        ring.push(trace_id, 0, span_kind::INSTANT, name, track);
    }

    /// Records an instant event at an explicit timestamp.
    #[inline]
    pub fn instant_at(&self, t_ns: u64, track: u32, trace_id: u64, name: u16) {
        self.ring(track)
            .push_at(t_ns, trace_id, 0, span_kind::INSTANT, name, track);
    }

    /// Opens a span now and returns its ID (close with [`Self::end`]).
    #[inline]
    pub fn begin(&self, track: u32, trace_id: u64, name: u16) -> u64 {
        let span_id = self.alloc_span_id();
        self.ring(track)
            .push(trace_id, span_id, span_kind::BEGIN, name, track);
        span_id
    }

    /// Closes a span opened with [`Self::begin`].
    #[inline]
    pub fn end(&self, track: u32, trace_id: u64, span_id: u64, name: u16) {
        self.ring(track)
            .push(trace_id, span_id, span_kind::END, name, track);
    }

    /// Records a complete span as a begin/end pair at explicit
    /// timestamps (the common shape: the caller timed the work and
    /// emits both events after the fact).
    #[inline]
    pub fn span(&self, track: u32, trace_id: u64, name: u16, t0_ns: u64, t1_ns: u64) {
        let span_id = self.alloc_span_id();
        let ring = self.ring(track);
        ring.push_at(t0_ns, trace_id, span_id, span_kind::BEGIN, name, track);
        ring.push_at(
            t1_ns.max(t0_ns),
            trace_id,
            span_id,
            span_kind::END,
            name,
            track,
        );
    }

    /// Drains all rings into `out`, merged and ordered by timestamp;
    /// returns the newly detected drop count. Single-consumer.
    pub fn drain(&self, out: &mut Vec<SpanEvent>) -> u64 {
        let start = out.len();
        let mut dropped = 0;
        for ring in self.rings.iter() {
            dropped += ring.drain_into(out);
        }
        out[start..].sort_by_key(|e| (e.t_ns, e.seq));
        dropped
    }

    /// Renders drained span events as Chrome trace-event JSON objects,
    /// appended to `out` as a comma-separated fragment (no enclosing
    /// brackets — the caller splices fragments into one `traceEvents`
    /// array). Returns the number of events written.
    ///
    /// Begin/end events are paired by span ID; pairs missing either
    /// side (lost to ring overwrite) are dropped so the output always
    /// balances. Each track becomes one `pid`/`tid` (offset by
    /// `pid_base`), events carry `cat` so the two sides of the wire
    /// are distinguishable, and every event's trace ID rides in
    /// `args.trace` as a hex string.
    pub fn render_chrome(
        &self,
        spans: &[SpanEvent],
        cat: &str,
        pid_base: u32,
        out: &mut String,
    ) -> usize {
        let names = self.names.lock().unwrap().clone();
        render_chrome_events(spans, &names, cat, pid_base, out)
    }
}

/// Cheap-to-clone handle the hot path consults before recording.
/// Mirrors [`crate::MetricsHandle`]: disabled is the default and costs
/// one branch on an always-`None` option.
#[derive(Clone, Debug, Default)]
pub struct TraceHandle(Option<Arc<TraceSink>>);

impl TraceHandle {
    /// The no-op handle.
    pub const fn disabled() -> Self {
        Self(None)
    }

    /// A live handle recording into `sink`.
    pub fn enabled(sink: Arc<TraceSink>) -> Self {
        Self(Some(sink))
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The sink to record into, if enabled.
    #[inline]
    pub fn get(&self) -> Option<&TraceSink> {
        self.0.as_deref()
    }

    /// The shared sink allocation, if enabled (for draining).
    pub fn shared(&self) -> Option<&Arc<TraceSink>> {
        self.0.as_ref()
    }
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

struct Interval {
    t0: u64,
    t1: u64,
    trace_id: u64,
    name: u16,
}

/// Serialises trace events into one comma-spliced JSON fragment,
/// tracking whether a separator is needed before the next object.
struct ChromeWriter<'a> {
    out: &'a mut String,
    cat: &'a str,
    first: bool,
}

impl ChromeWriter<'_> {
    fn event(&mut self, ph: char, pid: u32, tid: u32, t_ns: u64, name: &str, trace_id: u64) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(&format!(
            "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"name\":\"",
            t_ns as f64 / 1000.0
        ));
        json_escape_into(name, self.out);
        self.out.push_str("\",\"cat\":\"");
        json_escape_into(self.cat, self.out);
        self.out.push('"');
        if ph == 'i' {
            self.out.push_str(",\"s\":\"t\"");
        }
        self.out
            .push_str(&format!(",\"args\":{{\"trace\":\"{trace_id:#x}\"}}}}"));
    }
}

/// Renders span events (see [`TraceSink::render_chrome`]) against an
/// explicit name table. Exposed for renderers that drained the events
/// elsewhere.
pub fn render_chrome_events(
    spans: &[SpanEvent],
    names: &[String],
    cat: &str,
    pid_base: u32,
    out: &mut String,
) -> usize {
    let name_of = |idx: u16| -> &str {
        names
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("span")
    };
    // Pair begin/end by span ID; orphans (lost to overwrite) drop.
    let mut pairs: HashMap<u64, (Option<&SpanEvent>, Option<&SpanEvent>)> = HashMap::new();
    let mut by_track: HashMap<u32, (Vec<Interval>, Vec<&SpanEvent>)> = HashMap::new();
    for ev in spans {
        match ev.kind {
            span_kind::BEGIN => {
                pairs.entry(ev.span_id).or_default().0.get_or_insert(ev);
            }
            span_kind::END => {
                pairs.entry(ev.span_id).or_default().1.get_or_insert(ev);
            }
            span_kind::INSTANT => {
                by_track.entry(ev.track).or_default().1.push(ev);
            }
            _ => {}
        }
    }
    for (b, e) in pairs.values() {
        if let (Some(b), Some(e)) = (b, e) {
            by_track.entry(b.track).or_default().0.push(Interval {
                t0: b.t_ns,
                t1: e.t_ns.max(b.t_ns),
                trace_id: b.trace_id,
                name: b.name,
            });
        }
    }

    let mut written = 0usize;
    let first = out.is_empty() || out.ends_with('[');
    let mut w = ChromeWriter { out, cat, first };
    let mut tracks: Vec<u32> = by_track.keys().copied().collect();
    tracks.sort_unstable();
    for track in tracks {
        let (mut intervals, mut instants) = by_track.remove(&track).unwrap();
        let pid = pid_base + track;
        for ev in instants.drain(..) {
            w.event('i', pid, track, ev.t_ns, name_of(ev.name), ev.trace_id);
            written += 1;
        }
        // Sort by (start asc, end desc) and emit with a stack sweep so
        // begin/end events nest properly per tid; a child that would
        // outlive its parent is clamped to the parent's end.
        intervals.sort_by_key(|a| (a.t0, std::cmp::Reverse(a.t1)));
        let mut stack: Vec<Interval> = Vec::new();
        for mut iv in intervals {
            while let Some(top) = stack.last() {
                if top.t1 <= iv.t0 {
                    let top = stack.pop().unwrap();
                    w.event('E', pid, track, top.t1, name_of(top.name), top.trace_id);
                    written += 1;
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                iv.t1 = iv.t1.min(top.t1);
            }
            w.event('B', pid, track, iv.t0, name_of(iv.name), iv.trace_id);
            written += 1;
            stack.push(iv);
        }
        while let Some(top) = stack.pop() {
            w.event('E', pid, track, top.t1, name_of(top.name), top.trace_id);
            written += 1;
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::sync::mpsc;

    type Hook = Box<dyn FnMut()>;

    thread_local! {
        /// Runs on this thread between a span writer claiming its slot
        /// and publishing it.
        static CLAIM_WINDOW: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// The test seam [`SpanRing::push_at`] calls.
    pub(super) fn in_claim_window() {
        CLAIM_WINDOW.with(|h| {
            if let Some(f) = h.borrow_mut().as_mut() {
                f();
            }
        });
    }

    /// Pushes the span whose every word derives from `a`.
    fn push_tagged(ring: &SpanRing, a: u64) {
        ring.push_at(a, a ^ 0x5aa5, !a, span_kind::INSTANT, a as u16, 0);
    }

    fn is_tagged(ev: &SpanEvent) -> bool {
        let a = ev.t_ns;
        (ev.trace_id, ev.span_id, ev.kind, ev.name)
            == (a ^ 0x5aa5, !a, span_kind::INSTANT, a as u16)
    }

    /// Writer A parks between claiming slot 0 and publishing it while
    /// writer B laps the ring three times. B's pushes that land on A's
    /// slot lose the claim instead of writing under A, and once both
    /// are done one drain accounts for every push with no torn span.
    #[test]
    fn writer_parked_mid_push_while_another_laps_is_accounted_exactly() {
        const CAP: u64 = 8;
        let ring = Arc::new(SpanRing::new(CAP as usize));
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let writer_a = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                CLAIM_WINDOW.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        parked_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                    }))
                });
                push_tagged(&ring, 0);
            })
        };
        parked_rx.recv().unwrap();
        for a in 1..=3 * CAP {
            push_tagged(&ring, a);
        }
        release_tx.send(()).unwrap();
        writer_a.join().unwrap();

        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(ring.produced(), 3 * CAP + 1);
        assert_eq!(
            out.len() as u64 + dropped,
            ring.produced(),
            "delivered + dropped must equal produced"
        );
        assert!(out.iter().all(is_tagged), "torn span in {out:?}");
        // The newest lap survives except the push that met A's claim.
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (2 * CAP + 1..3 * CAP).collect::<Vec<_>>());
    }

    #[test]
    fn span_events_roundtrip_through_ring() {
        let sink = TraceSink::new(1, 64);
        let n_ingest = sink.register_name("ingest");
        let n_service = sink.register_name("service");
        assert_ne!(n_ingest, n_service);
        assert_eq!(sink.register_name("ingest"), n_ingest);
        assert_eq!(sink.name_of(n_service), "service");

        sink.instant_at(10, 3, 0x42, n_ingest);
        sink.span(3, 0x42, n_service, 20, 50);
        let mut out = Vec::new();
        assert_eq!(sink.drain(&mut out), 0);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].kind, span_kind::INSTANT);
        assert_eq!(out[0].t_ns, 10);
        assert_eq!(out[1].kind, span_kind::BEGIN);
        assert_eq!(out[2].kind, span_kind::END);
        assert_eq!(out[1].span_id, out[2].span_id);
        assert!(out.iter().all(|e| e.trace_id == 0x42 && e.track == 3));
    }

    #[test]
    fn handle_mirrors_metrics_handle() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        assert!(h.get().is_none());
        assert!(TraceHandle::default().get().is_none());
        let sink = Arc::new(TraceSink::new(1, 8));
        let h = TraceHandle::enabled(Arc::clone(&sink));
        assert!(h.is_enabled());
        h.get().unwrap().instant(0, 1, 0);
        assert_eq!(sink.produced(), 1);
    }

    #[test]
    fn server_trace_ids_have_top_bit() {
        let sink = TraceSink::new(1, 8);
        let id = sink.alloc_trace_id();
        assert_ne!(id & SERVER_TRACE_BIT, 0);
        assert_ne!(id, SERVER_TRACE_BIT);
    }

    #[test]
    fn drain_merges_rings_in_time_order() {
        let sink = TraceSink::new(4, 16);
        // Tracks 0..4 map to distinct rings; explicit timestamps out
        // of push order must come back sorted.
        sink.instant_at(30, 0, 1, 0);
        sink.instant_at(10, 1, 1, 0);
        sink.instant_at(20, 2, 1, 0);
        let mut out = Vec::new();
        assert_eq!(sink.drain(&mut out), 0);
        let ts: Vec<u64> = out.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn render_chrome_balances_and_drops_orphans() {
        let sink = TraceSink::new(1, 64);
        let n = sink.register_name("service");
        sink.span(1, 0xabc, n, 100, 900);
        sink.span(1, 0xabc, n, 200, 400); // nested child
        sink.instant_at(300, 1, 0xabc, n);
        let mut spans = Vec::new();
        sink.drain(&mut spans);
        // Fabricate an orphan: a BEGIN whose END was overwritten.
        spans.push(SpanEvent {
            seq: 99,
            t_ns: 500,
            trace_id: 0xabc,
            span_id: 0xdead,
            kind: span_kind::BEGIN,
            name: n,
            track: 1,
        });
        let mut out = String::new();
        let written = sink.render_chrome(&spans, "server", 1000, &mut out);
        // 2 balanced pairs + 1 instant; orphan dropped.
        assert_eq!(written, 5);
        assert_eq!(out.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 1);
        assert!(out.contains("\"pid\":1001"));
        assert!(out.contains("\"name\":\"service\""));
        assert!(out.contains("\"trace\":\"0xabc\""));
        assert!(!out.contains("0xdead"));
        // The fragment splices into a valid JSON array.
        let doc = format!("[{out}]");
        assert!(doc.starts_with("[{") && doc.ends_with("}]"));
        // Begin/end nest: outer B, inner B, inner E, outer E
        // (timestamps render as microseconds: 100 ns -> 0.100).
        let b_outer = out.find("\"ts\":0.100").unwrap();
        let b_inner = out.find("\"ts\":0.200").unwrap();
        let e_inner = out.find("\"ts\":0.400").unwrap();
        let e_outer = out.find("\"ts\":0.900").unwrap();
        assert!(b_outer < b_inner && b_inner < e_inner && e_inner < e_outer);
    }

    #[test]
    fn render_escapes_names() {
        let names = vec!["we\"ird\\name".to_string()];
        let spans = [SpanEvent {
            seq: 0,
            t_ns: 5,
            trace_id: 7,
            span_id: 0,
            kind: span_kind::INSTANT,
            name: 0,
            track: 0,
        }];
        let mut out = String::new();
        render_chrome_events(&spans, &names, "c", 0, &mut out);
        assert!(out.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let ring = SpanRing::new(8);
        let total = 24u64;
        for i in 0..total {
            ring.push_at(i, i, i, span_kind::INSTANT, 0, 0);
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, total - ring.capacity() as u64);
        assert_eq!(out.len(), ring.capacity());
        assert_eq!(out.first().unwrap().seq, total - ring.capacity() as u64);
        assert_eq!(out.len() as u64 + ring.dropped(), ring.produced());
    }

    proptest! {
        /// Multi-writer tear/overwrite stress: several producers hammer
        /// a small sink (rings shared between tracks) while payload
        /// invariants tie every word of a span together. After
        /// merge-and-drain: delivered + dropped == produced and no
        /// delivered span is torn.
        #[test]
        fn stress_no_torn_spans_after_merge_and_drain(
            writers in 2usize..5,
            per_writer in 100u64..2_000,
            cap in 8usize..128,
        ) {
            use std::sync::atomic::Ordering::Relaxed as R;
            let sink = Arc::new(TraceSink::new(2, cap));
            let produced_target = writers as u64 * per_writer;
            // Payload invariant derived from a single counter `a`:
            // trace = a*PHI ^ k, span = a ^ 0x5aa5, name = a as u16,
            // kind = 1 + (a % 3), track = (a % 7) as u32.
            let payload = |a: u64| {
                let kind = 1 + (a % 3) as u8;
                (
                    a.wrapping_mul(0x9E37_79B9) ^ (kind as u64),
                    a ^ 0x5aa5,
                    kind,
                    a as u16,
                    (a % 7) as u32,
                )
            };
            let stop = Arc::new(AtomicU64::new(0));
            let mut delivered = Vec::new();
            let mut drain_dropped = 0u64;
            std::thread::scope(|s| {
                for w in 0..writers as u64 {
                    let sink = Arc::clone(&sink);
                    s.spawn(move || {
                        for i in 0..per_writer {
                            let a = w * per_writer + i;
                            let (trace, span, kind, name, track) = payload(a);
                            sink.rings()[(track as usize) & 1]
                                .push_at(a, trace, span, kind, name, track);
                        }
                    });
                }
                let consumer = {
                    let sink = Arc::clone(&sink);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut dropped = 0;
                        while stop.load(R) == 0 {
                            dropped += sink.drain(&mut out);
                            std::thread::yield_now();
                        }
                        dropped += sink.drain(&mut out);
                        (out, dropped)
                    })
                };
                while sink.produced() < produced_target {
                    std::thread::yield_now();
                }
                stop.store(1, R);
                let (out, dropped) = consumer.join().unwrap();
                delivered = out;
                drain_dropped = dropped;
            });
            prop_assert_eq!(sink.produced(), produced_target);
            prop_assert_eq!(delivered.len() as u64 + drain_dropped, produced_target);
            prop_assert_eq!(sink.dropped(), drain_dropped);
            for ev in &delivered {
                let a = ev.t_ns;
                let (trace, span, kind, name, track) = payload(a);
                prop_assert_eq!(
                    (ev.trace_id, ev.span_id, ev.kind, ev.name, ev.track),
                    (trace, span, kind, name, track),
                    "torn span: {:?}", ev
                );
            }
        }
    }
}
