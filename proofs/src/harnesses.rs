//! Exhaustive `cargo test` harnesses over the protocol models.
//!
//! Each harness checks one property for **every** case within stated
//! bounds: the [`mck`](crate::mck) checker walks every interleaving of
//! a scenario, and the input sweeps enumerate every capacity, start
//! offset, operation sequence and key in range. The cross-check
//! harnesses pin each model to the production code it models, so the
//! models cannot drift from the code.
//!
//! | Harness | Property | Exhaustive over |
//! |---|---|---|
//! | `snapshot_reclamation` | no use-after-free, double-free or leak on the retire/collect path | all schedules of 1–2 readers × 1–3 publishes |
//! | `ring_indices` | free-running indices never alias an occupied slot; the recover drain rescues exactly the backlog | capacities 2/4/8 × wrap-adjacent and ordinary starts × all 2^12 push/pop sequences |
//! | `doorbell_wakeup` | no missed wakeup between the pending check and the park | all schedules of 0–3 jobs |
//! | `simd_model_matches_real_mbt` | the model's lane walk and scalar walk equal the real `ofalgo::Mbt` walks | generated tries × every key |
//! | `snapshot_model_matches_real_cell` | the snapshot model agrees with the real `SnapshotCell` | one publish/load schedule |
//! | `ring_model_matches_real_spsc` | the ring model agrees with the real SPSC ring at the capacity boundary | one fill/drain cycle |

/// The harnesses, run by plain `cargo test`. Each covers its property
/// over an input space that is enumerable in milliseconds, and
/// cross-checks the models against the real implementations.
#[cfg(test)]
mod shims {
    use crate::mck::Checker;
    use crate::models::doorbell::DoorbellScenario;
    use crate::models::ring::RingModel;
    use crate::models::simd::{ModelTrie, LANES};
    use crate::models::snapshot::{Bug, SnapshotScenario};
    use ofalgo::{Label, Mbt, StrideSchedule, MULTI_WAY};

    /// Exhaustive DFS over every reader/writer/collect schedule, up to
    /// two readers.
    #[test]
    fn snapshot_reclamation() {
        for (readers, publishes) in [(1, 2), (1, 3), (2, 1), (2, 2)] {
            let sc = SnapshotScenario { readers, publishes, bug: Bug::None };
            let out = Checker::default().explore(&sc);
            assert!(out.passed(), "readers {readers} publishes {publishes}: {out:?}");
        }
    }

    /// Every small power-of-two capacity, wrap-adjacent and ordinary
    /// start offsets, and all 2^12 push/pop sequences — each followed by the
    /// `Producer::recover` drain, which must rescue exactly the
    /// buffered backlog from whatever state the sequence left.
    #[test]
    fn ring_indices() {
        for cap in [2usize, 4, 8] {
            for start in [0usize, 1, usize::MAX, usize::MAX - 1, usize::MAX - 3, usize::MAX - 7] {
                for ops in 0u32..1 << 12 {
                    let mut m = RingModel::new(cap, start, false);
                    for bit in 0..12 {
                        let step = if ops >> bit & 1 == 1 { m.push() } else { m.pop() };
                        step.unwrap_or_else(|e| {
                            panic!("cap {cap} start {start:#x} ops {ops:#014b}: {e}")
                        });
                    }
                    m.recover().unwrap_or_else(|e| {
                        panic!("cap {cap} start {start:#x} ops {ops:#014b}: recover: {e}")
                    });
                }
            }
        }
    }

    /// Exhaustive DFS over every submit/park schedule.
    #[test]
    fn doorbell_wakeup() {
        for jobs in 0..=3 {
            let out = Checker::default().explore(&DoorbellScenario { jobs, bare_notify: false });
            assert!(out.passed(), "jobs {jobs}: {out:?}");
        }
    }

    /// The model trie must agree with the real `ofalgo::Mbt` — scalar
    /// and multi-key walks — on identical prefix sets, over the whole
    /// key space. This pins the SIMD kernel model to the code it
    /// models: if either walk or the packed layout drifts, this
    /// harness fails. (A deterministic LCG generates the prefix sets;
    /// no RNG dependency.)
    #[test]
    fn simd_model_matches_real_mbt() {
        assert_eq!(LANES, MULTI_WAY, "lane-count drift between model and production");
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        for strides in [vec![2u32, 2], vec![3, 2, 2], vec![4, 4]] {
            let total: u32 = strides.iter().sum();
            for _ in 0..8 {
                let mut model = ModelTrie::new(&strides);
                let mut real = Mbt::new(StrideSchedule::new(strides.clone()));
                for label in 1..=12u32 {
                    let len = rng() as u32 % (total + 1);
                    let value = if len == 0 {
                        0
                    } else {
                        (rng() & ((1 << total) - 1)) >> (total - len) << (total - len)
                    };
                    model.insert(value, len, label);
                    real.insert(value, len, Label(label));
                }
                assert!(model.is_valid());
                let keys: Vec<u64> = (0..1u64 << total).collect();
                let mut multi = vec![None; keys.len()];
                real.lookup_multi(&keys, &mut multi);
                for group in keys.chunks(LANES) {
                    let lanes = model.lookup_lanes(group);
                    let chains = model.chain_lanes(group);
                    for (i, &key) in group.iter().enumerate() {
                        let want = real.lookup(key).map(|(l, len)| (l.0, len));
                        assert_eq!(model.lookup_scalar(key), want, "scalar model drift, key {key}");
                        assert_eq!(lanes[i], want, "lane model drift, key {key}");
                        assert_eq!(
                            multi[key as usize].map(|(l, len)| (l.0, len)),
                            want,
                            "real multi-key walk drift, key {key}"
                        );
                        let want_chain: Vec<(u32, u32)> =
                            real.chain(key).iter().map(|(l, len)| (l.0, len)).collect();
                        assert_eq!(chains[i], want_chain, "chain model drift, key {key}");
                    }
                }
            }
        }
    }

    /// The modeled snapshot protocol must agree with the real
    /// `SnapshotCell` on the observable schedule the models fix:
    /// versions, retire-backlog bounds, and value visibility.
    #[test]
    fn snapshot_model_matches_real_cell() {
        use std::sync::Arc;
        let cell = Arc::new(mtl_runtime::snapshot::SnapshotCell::new(0u64));
        let reader = cell.register("proofs");
        let held = reader.load();
        assert_eq!((held.version, held.value), (1, 0));
        for i in 1..=3u64 {
            assert_eq!(cell.publish(i), i + 1, "publish returns the bumped version");
        }
        // The reader is quiescent, so at most the just-retired image
        // lingers — the model's check_final drains the same backlog.
        assert!(cell.retired_len() <= 1, "backlog {}", cell.retired_len());
        assert_eq!(reader.load().value, 3);
    }

    /// The modeled ring must agree with the real SPSC ring on
    /// fill/drain behaviour at the capacity boundary.
    #[test]
    fn ring_model_matches_real_spsc() {
        let (mut tx, mut rx) = mtl_runtime::ring::spsc::<u64>(4);
        let mut model = RingModel::new(4, 0, false);
        for i in 0..4u64 {
            assert!(tx.push(i).is_ok());
            assert_eq!(model.push(), Ok(true));
        }
        assert!(tx.push(99).is_err(), "real ring full");
        assert_eq!(model.push(), Ok(false), "model ring full");
        for _ in 0..4 {
            assert!(rx.pop().is_some());
            assert_eq!(model.pop(), Ok(true));
        }
        assert_eq!(rx.pop(), None);
        assert_eq!(model.pop(), Ok(false));
    }
}
