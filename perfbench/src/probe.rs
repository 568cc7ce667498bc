//! Tracing from outside the program: span accumulators, allocation counts,
//! and wrappers around the public traits whose calls they time.
//!
//! Nothing here reaches inside the simulator. A span is the wall time of a
//! call into a public function or trait object; a child span (a load-balancer
//! call inside `Rosebud::tick`, say) is timed by a wrapper the benchmark
//! installs, so the parent's self time is its span less its children.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use rosebud::accel::{Accelerator, RegRead, ResourceUsage};
use rosebud::core::ports::{EgressPort, IngressPort, PortClock};
use rosebud::core::{LoadBalancer, SharedEgress, SlotTracker};
use rosebud::kernel::Cycle;
use rosebud::net::{GenPort, Packet, PacketId, TrafficGen};
use rosebud::shell::ShellBackend;

/// Heap allocations made by the process, counted by the benchmark binary's
/// global allocator (zero in unit tests, which run without it).
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocations.
pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation of `bytes`.
pub fn count_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

/// Accumulated wall time and allocations of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// An open span: the start time and allocation counts.
pub struct Open {
    t: Instant,
    allocs: u64,
    bytes: u64,
}

/// Opens a span now.
pub fn open() -> Open {
    Open {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        t: Instant::now(),
    }
}

impl Open {
    /// Closes the span into `span`.
    pub fn close(self, span: &mut Span) {
        span.ns += self.t.elapsed().as_nanos() as u64;
        span.calls += 1;
        span.allocs += ALLOCS.load(Relaxed) - self.allocs;
        span.alloc_bytes += ALLOC_BYTES.load(Relaxed) - self.bytes;
    }
}

/// A span accumulator shared with a wrapper that has moved into the
/// simulator, which requires `Send`.
#[derive(Debug, Default)]
pub struct SharedSpan {
    ns: AtomicU64,
    calls: AtomicU64,
    on: std::sync::atomic::AtomicBool,
}

impl SharedSpan {
    fn add(&self, start: Instant) {
        if self.on.load(Relaxed) {
            self.ns
                .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
            self.calls.fetch_add(1, Relaxed);
        }
    }

    /// Starts or stops accumulating (calls outside the window are ignored).
    pub fn enable(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    /// `(ns, calls)` so far.
    pub fn read(&self) -> (u64, u64) {
        (self.ns.load(Relaxed), self.calls.load(Relaxed))
    }
}

/// Every shared span one traced system carries.
#[derive(Debug, Default)]
pub struct SysSpans {
    pub lb: SharedSpan,
    pub accel: SharedSpan,
    pub accel_regs: SharedSpan,
    pub egress: SharedSpan,
}

impl SysSpans {
    pub fn enable(&self, on: bool) {
        for s in [&self.lb, &self.accel, &self.accel_regs, &self.egress] {
            s.enable(on);
        }
    }
}

/// Times [`LoadBalancer::assign`].
pub struct TimedLb {
    pub inner: Box<dyn LoadBalancer>,
    pub spans: Arc<SysSpans>,
}

impl LoadBalancer for TimedLb {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn assign(&mut self, pkt: &Packet, tracker: &SlotTracker, enabled: u64) -> Option<usize> {
        let t = Instant::now();
        let r = self.inner.assign(pkt, tracker, enabled);
        self.spans.lb.add(t);
        r
    }

    fn prepend(&mut self, pkt: &Packet) -> Option<Vec<u8>> {
        self.inner.prepend(pkt)
    }

    fn host_read(&mut self, addr: u32) -> u32 {
        self.inner.host_read(addr)
    }

    fn host_write(&mut self, addr: u32, value: u32) {
        self.inner.host_write(addr, value);
    }

    fn resources(&self, num_rpus: usize) -> ResourceUsage {
        self.inner.resources(num_rpus)
    }
}

/// Times [`Accelerator::tick`] and counts register accesses.
pub struct TimedAccel {
    pub inner: Box<dyn Accelerator>,
    pub spans: Arc<SysSpans>,
}

impl Accelerator for TimedAccel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read_reg(&mut self, offset: u32) -> RegRead {
        let t = Instant::now();
        let r = self.inner.read_reg(offset);
        self.spans.accel_regs.add(t);
        r
    }

    fn write_reg(&mut self, offset: u32, value: u32) {
        let t = Instant::now();
        self.inner.write_reg(offset, value);
        self.spans.accel_regs.add(t);
    }

    fn tick(&mut self, pmem: &[u8]) {
        let t = Instant::now();
        self.inner.tick(pmem);
        self.spans.accel.add(t);
    }

    fn is_busy(&self) -> bool {
        self.inner.is_busy()
    }

    fn load_table(&mut self, offset: u32, data: &[u8]) {
        self.inner.load_table(offset, data);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn resources(&self) -> ResourceUsage {
        self.inner.resources()
    }
}

/// A bound egress port: times each offer into a [`SharedEgress`].
pub struct TimedEgress {
    pub sink: SharedEgress,
    pub spans: Arc<SysSpans>,
}

impl EgressPort<Packet> for TimedEgress {
    fn can_accept(&self, len_bytes: u64) -> bool {
        self.sink.can_accept(len_bytes)
    }

    fn offer(&mut self, pkt: Packet, len_bytes: u64, now: Cycle) -> Result<(), Packet> {
        let t = Instant::now();
        let r = self.sink.offer(pkt, len_bytes, now);
        self.spans.egress.add(t);
        r
    }

    fn backlog(&self) -> usize {
        self.sink.backlog()
    }
}

/// Times a traffic generator's `generate`.
pub struct TimedGen {
    pub inner: Box<dyn TrafficGen>,
    pub span: Rc<RefCell<Span>>,
}

impl TrafficGen for TimedGen {
    fn generate(&mut self, id: PacketId, ts: Cycle) -> Packet {
        let o = open();
        let pkt = self.inner.generate(id, ts);
        o.close(&mut self.span.borrow_mut());
        pkt
    }

    fn next_size(&self) -> usize {
        self.inner.next_size()
    }
}

/// The traced loop's ingress: a paced generator port that counts the
/// frames it offers to the MACs (re-offers included).
pub struct CountingPort {
    pub inner: GenPort,
    pub offered: u64,
}

impl IngressPort<Packet> for CountingPort {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        let pkt = self.inner.poll(now)?;
        self.offered += 1;
        Some(pkt)
    }

    fn give_back(&mut self, item: Packet) {
        self.inner.give_back(item);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        self.inner.clock(now)
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}

/// Live-shell backend counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendStats {
    pub recv: Span,
    pub empty_recvs: u64,
    pub send: Span,
}

/// Times a [`ShellBackend`]'s calls.
pub struct TimedBackend<B> {
    pub inner: B,
    pub stats: Rc<RefCell<BackendStats>>,
}

impl<B: ShellBackend> ShellBackend for TimedBackend<B> {
    fn recv_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        let o = open();
        let frames = self.inner.recv_frames();
        let mut s = self.stats.borrow_mut();
        o.close(&mut s.recv);
        if frames.is_empty() {
            s.empty_recvs += 1;
        }
        frames
    }

    fn send_frame(&mut self, port: u8, frame: &[u8]) {
        let o = open();
        self.inner.send_frame(port, frame);
        o.close(&mut self.stats.borrow_mut().send);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
