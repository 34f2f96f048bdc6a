//! Batch-lookup throughput and allocation accounting over the classifier
//! registry.
//!
//! The north-star workload is a switch serving heavy traffic, which
//! classifies packet *vectors*, not single packets. Every engine speaks
//! [`classifier_api::Classifier::classify_batch`]; the decomposition
//! architecture overrides it with an engine-major pipeline that amortises
//! per-field dispatch across the vector. This experiment measures, per
//! registered engine and on one thread (multi-core serving is the
//! runtime's job — see the `runtime` experiment's shard sweep):
//!
//! * wall-clock per-packet cost of the per-packet loop vs the batch entry
//!   point (checking on the way that both agree);
//! * heap allocations per packet on the warmed single-packet path, via
//!   [`crate::alloc_probe`] — the decomposition architecture's lookup is
//!   required to be **zero**.

use crate::alloc_probe;
use crate::data::Workloads;
use crate::output::{obj, render_table, write_json, Json, ToJson};
use crate::registry::standard_registry;
use crate::table1::probe_trace;
use std::time::Instant;

/// One engine's throughput measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Registry category.
    pub category: String,
    /// Engine display name.
    pub name: String,
    /// Nanoseconds per packet, one `classify` call per packet.
    pub single_ns_per_packet: f64,
    /// Nanoseconds per packet through `classify_batch`.
    pub batch_ns_per_packet: f64,
    /// `single / batch` (>1 means batching helps).
    pub batch_speedup: f64,
    /// Heap allocations per packet on the warmed single-packet path.
    pub allocs_per_packet: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        obj([
            ("category", self.category.as_str().into()),
            ("name", self.name.as_str().into()),
            ("single_ns_per_packet", self.single_ns_per_packet.into()),
            ("batch_ns_per_packet", self.batch_ns_per_packet.into()),
            ("batch_speedup", self.batch_speedup.into()),
            ("allocs_per_packet", self.allocs_per_packet.into()),
        ])
    }
}

/// The throughput comparison.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Router measured.
    pub router: String,
    /// Packets per measured repetition.
    pub batch_size: usize,
    /// Per-engine rows.
    pub rows: Vec<Row>,
}

impl ToJson for Throughput {
    fn to_json(&self) -> Json {
        obj([
            ("router", self.router.as_str().into()),
            ("batch_size", self.batch_size.into()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// Runs the experiment on one routing set.
///
/// # Panics
/// Panics if any engine's batch path disagrees with its per-packet path
/// — that would invalidate the comparison (and the engine).
#[must_use]
pub fn run(w: &Workloads, router: &str, batch_size: usize, reps: usize) -> Throughput {
    let set = w.routing_of(router).expect("routing set exists");
    let headers = probe_trace(w, router, batch_size);
    let registry = standard_registry(set).expect("registry builds on paper workloads");

    let rows = registry
        .iter()
        .map(|(category, classifier)| {
            // Agreement first: a fast batch path that returns different
            // answers would be worthless.
            let batch = classifier.classify_batch(&headers);
            for (h, b) in headers.iter().zip(&batch) {
                assert_eq!(
                    *b,
                    classifier.classify(h),
                    "{category}: batch and single disagree on {h}"
                );
            }

            let start = Instant::now();
            let mut sink = 0usize;
            for _ in 0..reps {
                for h in &headers {
                    sink = sink.wrapping_add(classifier.classify(h).unwrap_or(0) as usize);
                }
            }
            let single = start.elapsed();

            let start = Instant::now();
            for _ in 0..reps {
                sink = sink.wrapping_add(classifier.classify_batch(&headers).len());
            }
            let batch_time = start.elapsed();

            // Allocation probe: the agreement and timing loops above have
            // warmed every reusable buffer to its high-water mark, so
            // what is counted here is the steady state.
            let (sunk, allocs) = alloc_probe::allocations_in(|| {
                let mut s = 0usize;
                for h in &headers {
                    s = s.wrapping_add(classifier.classify(h).unwrap_or(0) as usize);
                }
                s
            });
            sink = sink.wrapping_add(sunk);

            let packets = (reps * headers.len()) as f64;
            // Keep the sink live so the loops cannot be elided.
            std::hint::black_box(sink);

            let single_ns = single.as_nanos() as f64 / packets;
            let batch_ns = batch_time.as_nanos() as f64 / packets;
            Row {
                category: category.to_owned(),
                name: classifier.name().to_owned(),
                single_ns_per_packet: single_ns,
                batch_ns_per_packet: batch_ns,
                batch_speedup: if batch_ns > 0.0 { single_ns / batch_ns } else { 1.0 },
                allocs_per_packet: allocs as f64 / headers.len() as f64,
            }
        })
        .collect();

    Throughput { router: router.to_owned(), batch_size, rows }
}

/// Prints the comparison and writes JSON.
pub fn report(w: &Workloads) {
    let t = run(w, "boza", 2048, 6);
    println!("== Batch throughput on {} ({} packets/batch, one thread) ==", t.router, t.batch_size);
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.category.clone(),
                r.name.clone(),
                format!("{:.0}", r.single_ns_per_packet),
                format!("{:.0}", r.batch_ns_per_packet),
                format!("{:.2}x", r.batch_speedup),
                format!("{:.2}", r.allocs_per_packet),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["category", "engine", "single ns/pkt", "batch ns/pkt", "speedup", "allocs/pkt",],
            &rows
        )
    );
    write_json("throughput", &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_agrees_and_measures() {
        let w = Workloads::shared_quick();
        // Small trace: the assertions inside run() are the point; timing
        // numbers just have to be present and positive.
        let t = run(w, "bbra", 256, 1);
        assert_eq!(t.rows.len(), 5);
        for r in &t.rows {
            assert!(r.single_ns_per_packet > 0.0, "{}", r.category);
            assert!(r.batch_ns_per_packet > 0.0, "{}", r.category);
        }
    }

    /// The PR's acceptance criterion: the architecture's warmed
    /// single-packet lookup performs zero heap allocations.
    #[test]
    fn mtl_single_packet_path_is_allocation_free() {
        let w = Workloads::shared_quick();
        let t = run(w, "bbra", 256, 1);
        let mtl = t.rows.iter().find(|r| r.name == "mtl").expect("mtl row");
        assert_eq!(
            mtl.allocs_per_packet, 0.0,
            "MtlSwitch::classify must not allocate after warmup"
        );
    }
}
