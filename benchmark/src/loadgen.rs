//! The load generator: one thread, closed loop or open loop, checking
//! every answer it receives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_core::MtlSwitch;
use mtl_runtime::{ClassifiedBatch, RuntimeHandle, Ticket, UNSERVED_VERSION};
use oflow::HeaderValues;

use crate::spans::{Spans, BATCHES_PER_PHASE, OFF};
use crate::stats::{median, quantile, spread};

/// One trace cycle and the answer the oracle expects for each batch of
/// it. Traffic answers do not depend on the table version (see
/// [`crate::inputs::churn_rule`]), so one expectation serves the run.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub batches: &'a [Arc<[HeaderValues]>],
    pub expected: &'a [Vec<Option<u32>>],
}

/// Operations attempted and failed. A packet fails if it comes back
/// unserved or with the wrong rule; an update fails if it is refused or
/// never becomes visible; a restore fails if a byte differs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one operation and whether it went wrong.
    pub fn count(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Counts one served batch against what the oracle expects.
    pub fn check(&mut self, got: &ClassifiedBatch, want: &[Option<u32>]) {
        self.attempted += want.len() as u64;
        if got.rows != want || got.versions.contains(&UNSERVED_VERSION) {
            let right = got
                .rows
                .iter()
                .zip(&got.versions)
                .zip(want)
                .filter(|((row, &version), want)| row == want && version != UNSERVED_VERSION)
                .count();
            self.failed += (want.len() - right) as u64;
        }
    }
}

/// Longest throughput slice; a phase shorter than a second is cut into
/// four.
const SLICE: Duration = Duration::from_millis(250);

/// Closed-loop results; [`ClosedLoop::merge`] pools the samples of
/// several rounds (`tally` stays the phase's own: the caller sums it).
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Packets per second of each full slice.
    pub slices: Vec<f64>,
    pub batches: u64,
    /// Sum over batches of submit -> answer time, ns.
    round_trips_ns: f64,
    elapsed_s: f64,
    pub tally: Tally,
}

impl ClosedLoop {
    pub fn merge(&mut self, other: ClosedLoop) {
        self.slices.extend(other.slices);
        self.batches += other.batches;
        self.round_trips_ns += other.round_trips_ns;
        self.elapsed_s += other.elapsed_s;
    }

    /// `pps`, wherever this crate says it: the median slice — not the
    /// phase mean, which one stolen quarter second would drag down.
    pub fn pps(&self) -> f64 {
        median(&self.slices)
    }

    /// Interquartile range of the slices over their median.
    pub fn slice_iqr(&self) -> f64 {
        spread(&self.slices)
    }

    /// Mean submit -> answer time of a batch, ns.
    pub fn round_trip_ns(&self) -> f64 {
        self.round_trips_ns / self.batches as f64
    }

    pub fn batches_per_s(&self) -> f64 {
        self.batches as f64 / self.elapsed_s
    }
}

/// Closed loop: keeps `window` batches outstanding for `length`,
/// submitting the next as soon as the oldest is answered. Spans (one per
/// batch, with `submit` and `wait` children) go under `phase`.
pub fn closed_loop(
    handle: &RuntimeHandle<MtlSwitch>,
    traffic: Traffic<'_>,
    window: usize,
    length: Duration,
    spans: &mut Spans,
    phase: u32,
) -> ClosedLoop {
    let slice = SLICE.min(length / 4);
    let mut slice_packets = vec![0u64; (length.as_nanos() / slice.as_nanos()) as usize];
    let mut out = ClosedLoop::default();
    let mut next = 0usize;
    // (ticket, batch index, submitted at, batch span)
    let mut outstanding: VecDeque<(Ticket, usize, Instant, u32)> = VecDeque::with_capacity(window);
    let start = Instant::now();
    loop {
        while outstanding.len() < window && start.elapsed() < length {
            let i = next % traffic.batches.len();
            next += 1;
            let traced = if next as u64 <= BATCHES_PER_PHASE { phase } else { OFF };
            let span = spans.open("batch", traced, next as u32);
            let submitted = Instant::now();
            let ticket =
                spans.time("submit", span, || handle.submit(Arc::clone(&traffic.batches[i])));
            outstanding.push_back((ticket, i, submitted, span));
        }
        let Some((ticket, i, submitted, span)) = outstanding.pop_front() else { break };
        let got = spans.time("wait", span, || ticket.wait());
        spans.close(span);
        out.round_trips_ns += submitted.elapsed().as_nanos() as f64;
        out.batches += 1;
        let done = start.elapsed();
        if let Some(packets) = slice_packets.get_mut((done.as_nanos() / slice.as_nanos()) as usize)
        {
            *packets += got.rows.len() as u64;
        }
        out.tally.check(&got, &traffic.expected[i]);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.slices = slice_packets.iter().map(|&p| p as f64 / slice.as_secs_f64()).collect();
    out
}

/// When an open-loop phase ends.
#[derive(Clone, Copy)]
pub enum Until<'a> {
    /// After this much of the schedule has been sent.
    Elapsed(Duration),
    /// When another thread (the churn phase's updater) sets the flag.
    Set(&'a AtomicBool),
}

/// Open-loop results; [`OpenLoop::merge`] pools the samples of several
/// rounds (`tally` stays the phase's own: the caller sums it).
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per batch: answered at - due at, ns.
    pub latency_ns: Vec<f64>,
    /// Per batch: how late the generator itself ran, ns — sent at minus
    /// the first moment it could have sent (the later of the due time and
    /// the previous answer). Time spent waiting for a slow answer is the
    /// runtime's and is charged to `latency_ns`, not here.
    pub late_ns: Vec<f64>,
    /// Batches behind schedule when the phase's time was up.
    pub backlog_end: u64,
    /// Seconds between two batches falling due.
    pub interval_s: f64,
    pub tally: Tally,
}

impl OpenLoop {
    pub fn merge(&mut self, other: OpenLoop) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.backlog_end += other.backlog_end;
        self.interval_s = other.interval_s;
    }

    /// Whether the generator kept its schedule: it may not itself run
    /// later than one batch interval (p99), nor end the phase more than
    /// a batch behind.
    pub fn kept_schedule(&self) -> bool {
        quantile(&self.late_ns, 0.99) <= self.interval_s * 1e9 && self.backlog_end <= 1
    }
}

/// Spins until `due`. The generator has its CPU to itself but for the
/// churn phase's updater, which runs at the lowest priority and gets the
/// CPU whenever the generator blocks waiting for an answer; a sleep here
/// would overshoot by tens of microseconds to a millisecond on a
/// virtual machine and show up as generator lateness.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: batch `k` falls due at `start + k * interval` whatever the
/// runtime is doing, and its latency is timed from that instant — not
/// from when it was actually sent — so a stall is charged to every batch
/// it delays (no coordinated omission). One thread sends a batch and
/// waits for its answer; when an answer takes longer than the interval
/// the next batch goes out late, as it would leave a queue late behind a
/// busy single server, and the schedule-based timing counts that wait.
pub fn open_loop(
    handle: &RuntimeHandle<MtlSwitch>,
    traffic: Traffic<'_>,
    rate_pps: f64,
    until: Until<'_>,
    spans: &mut Spans,
    phase: u32,
) -> OpenLoop {
    let batch = traffic.batches[0].len();
    let interval = Duration::from_secs_f64(batch as f64 / rate_pps);
    let mut out = OpenLoop { interval_s: interval.as_secs_f64(), ..OpenLoop::default() };
    let start = Instant::now();
    let mut answered = start;
    let mut k = 0u32;
    loop {
        let due = start + interval * k;
        match until {
            Until::Elapsed(length) if due.duration_since(start) >= length => break,
            Until::Set(stop) if stop.load(SeqCst) => {
                // What fell due but was never sent.
                let due_by_now = (start.elapsed().as_secs_f64() / out.interval_s) as u64;
                out.backlog_end = due_by_now.saturating_sub(u64::from(k));
                break;
            }
            _ => {}
        }
        wait_until(due);
        if let Until::Elapsed(length) = until {
            // Sent, but only after the phase's time was up.
            out.backlog_end += u64::from(start.elapsed() >= length);
        }
        let i = k as usize % traffic.batches.len();
        k += 1;
        let traced = if u64::from(k) <= BATCHES_PER_PHASE { phase } else { OFF };
        let span = spans.open("batch", traced, k);
        out.late_ns.push(due.max(answered).elapsed().as_nanos() as f64);
        let ticket = spans.time("submit", span, || handle.submit(Arc::clone(&traffic.batches[i])));
        let got = spans.time("wait", span, || ticket.wait());
        spans.close(span);
        answered = Instant::now();
        out.latency_ns.push(answered.duration_since(due).as_nanos() as f64);
        out.tally.check(&got, &traffic.expected[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_generator_that_runs_late_or_ends_behind_did_not_keep_schedule() {
        let interval_s = 1e-3;
        let on_time = OpenLoop { late_ns: vec![2e3; 200], interval_s, ..OpenLoop::default() };
        assert!(on_time.kept_schedule());
        // Three of 200 sends more than an interval late: the p99 is late.
        let mut late_ns = vec![2e3; 197];
        late_ns.extend([2e6; 3]);
        assert!(!OpenLoop { late_ns, interval_s, ..OpenLoop::default() }.kept_schedule());
        assert!(!OpenLoop { backlog_end: 2, ..on_time }.kept_schedule());
    }
}
