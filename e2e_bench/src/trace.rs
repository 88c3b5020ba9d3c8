//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer by the shims in
//! [`crate::shims`] and by the round driver, kept in memory, and written to
//! a file when the run ends. Recording is off unless [`set_enabled`] turned
//! it on, so an untraced round pays one relaxed atomic load per shimmed call.
//!
//! Parentage: a span started on a driver thread is a child of the innermost
//! span open on that thread. Work the coordinator does on its own threads in
//! answer to an admin call (mix hops, shard publishes) has no thread-local
//! parent; it is parented to the admin span open at the time, which the
//! driver publishes through [`AdminScope`]. Admin calls never overlap client
//! calls, so this attribution is exact.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique, nonzero.
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `coordinator.submit` or `mixd.h1.process`.
    pub name: &'static str,
    /// `alpenhorn_obs::correlation_id(protocol, round)` of the round the work
    /// belonged to.
    pub correlation: u64,
    /// Driver thread index, or [`SERVER_THREAD`] for coordinator-side work.
    pub thread: u8,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process's trace epoch.
    pub end_ns: u64,
    /// Payload bytes the call carried (shard bytes, batch bytes), else 0.
    pub bytes: u64,
    /// Whether the call failed.
    pub failed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// [`Span::thread`] for spans recorded on coordinator-side threads.
pub const SERVER_THREAD: u8 = u8::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ADMIN_PARENT: AtomicU64 = AtomicU64::new(0);
static ADMIN_CORRELATION: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// (driver thread index, correlation of the round being driven, open
    /// span ids innermost last).
    static CONTEXT: RefCell<(u8, u64, Vec<u64>)> = const { RefCell::new((SERVER_THREAD, 0, Vec::new())) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Marks the calling thread as driver thread `index`.
pub fn set_thread(index: u8) {
    CONTEXT.with(|c| c.borrow_mut().0 = index);
}

/// Sets the round the calling thread is driving, as a correlation id.
pub fn set_correlation(correlation: u64) {
    CONTEXT.with(|c| c.borrow_mut().1 = correlation);
}

/// Takes every recorded span, leaving the store empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store mutex"))
}

/// What a traced call reports back about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Payload bytes carried.
    pub bytes: u64,
    /// Whether the call failed.
    pub failed: bool,
}

fn push(span: Span) {
    SPANS.lock().expect("span store mutex").push(span);
}

/// Runs `f` inside a span on a driver thread. `outcome` inspects the result.
pub fn in_span<R>(
    name: &'static str,
    f: impl FnOnce() -> R,
    outcome: impl FnOnce(&R) -> Outcome,
) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (thread, correlation, parent) = CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let parent = c.2.last().copied().unwrap_or(0);
        c.2.push(id);
        (c.0, c.1, parent)
    });
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    CONTEXT.with(|c| c.borrow_mut().2.pop());
    let Outcome { bytes, failed } = outcome(&result);
    push(Span {
        id,
        parent,
        name,
        correlation,
        thread,
        start_ns,
        end_ns,
        bytes,
        failed,
    });
    result
}

/// Runs `f` inside a span recorded on a coordinator-side thread, parented to
/// the admin call in progress.
pub fn in_server_span<R>(
    name: &'static str,
    f: impl FnOnce() -> R,
    outcome: impl FnOnce(&R) -> Outcome,
) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = ADMIN_PARENT.load(Ordering::SeqCst);
    let correlation = ADMIN_CORRELATION.load(Ordering::SeqCst);
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    let Outcome { bytes, failed } = outcome(&result);
    push(Span {
        id,
        parent,
        name,
        correlation,
        thread: SERVER_THREAD,
        start_ns,
        end_ns,
        bytes,
        failed,
    });
    result
}

/// Publishes the innermost open span of the calling thread as the parent of
/// coordinator-side spans until dropped. Held around admin calls.
pub struct AdminScope(());

impl AdminScope {
    /// Opens the scope.
    pub fn open() -> Self {
        let (parent, correlation) = CONTEXT.with(|c| {
            let c = c.borrow();
            (c.2.last().copied().unwrap_or(0), c.1)
        });
        ADMIN_CORRELATION.store(correlation, Ordering::SeqCst);
        ADMIN_PARENT.store(parent, Ordering::SeqCst);
        AdminScope(())
    }
}

impl Drop for AdminScope {
    fn drop(&mut self) {
        ADMIN_PARENT.store(0, Ordering::SeqCst);
    }
}

/// Writes spans as tab-separated lines with a header.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tname\tcorrelation\tthread\tstart_ns\tend_ns\tbytes\tfailed"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{:#x}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.name,
            s.correlation,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.bytes,
            s.failed
        )?;
    }
    out.flush()
}
