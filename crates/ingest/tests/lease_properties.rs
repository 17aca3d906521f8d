//! Property tests for the fencing-epoch lease state machine.
//!
//! [`FenceGuard`] is the shard-side half of the fleet lease protocol: the
//! router offers `(epoch, ttl)` pairs and the guard must (a) never let the
//! epoch regress, (b) fence itself exactly once when a lease lapses, and
//! (c) stay fenced until a strictly higher epoch arrives. These tests
//! drive random operation sequences through the clock-injected API
//! (`grant_at` / `check_expiry_at`) against a trivial shadow model, and
//! then check the downstream promise: a fenced guard refuses durable
//! writes at every [`SessionStore`] entry point.

use std::path::PathBuf;
use std::sync::Arc;

use paramount::FaultLog;
use paramount_ingest::{FenceGuard, Hello, LeaseAck, SessionStore, StoreConfig, WireOp};
use paramount_poset::random::SplitMix64;

/// One step of the lease state machine as seen by a shard.
#[derive(Clone, Debug)]
enum LeaseStep {
    /// Router offers a lease: `LEASE paramount/1 epoch=<e> ttl-ms=<t>`.
    Grant { epoch: u64, ttl_ms: u64 },
    /// Wall clock advances and the shard runs its expiry sweep.
    Tick { advance_ms: u64 },
    /// Operator or shutdown path force-fences the shard.
    Fence,
}

/// Cases per law.
const CASES: usize = 256;

/// `CASES` inputs drawn by `draw` from one fixed stream.
fn cases<T>(mut draw: impl FnMut(&mut SplitMix64) -> T) -> impl Iterator<Item = T> {
    let mut rng = SplitMix64::new(0x1ea5e);
    (0..CASES).map(move |_| draw(&mut rng))
}

/// 1–47 steps, grants and ticks four times as likely as a force-fence.
fn steps(rng: &mut SplitMix64) -> Vec<LeaseStep> {
    (0..rng.range(1..48))
        .map(|_| match rng.range(0..9) {
            0..=3 => LeaseStep::Grant {
                epoch: rng.range(0..8) as u64,
                ttl_ms: rng.range(0..400) as u64,
            },
            4..=7 => LeaseStep::Tick {
                advance_ms: rng.range(0..600) as u64,
            },
            _ => LeaseStep::Fence,
        })
        .collect()
}

/// 1–15 clock advances of up to `u64::MAX / 64` each.
fn advances(rng: &mut SplitMix64) -> Vec<u64> {
    (0..rng.range(1..16))
        .map(|_| rng.next_u64() % (u64::MAX / 64))
        .collect()
}

/// Shadow model of the guard: the spec in three fields.
#[derive(Clone, Copy, Debug, Default)]
struct Model {
    epoch: u64,
    fenced: bool,
    /// Lease deadline in model-clock ms; `0` means never leased.
    deadline: u64,
}

impl Model {
    fn grant(&mut self, now: u64, epoch: u64, ttl_ms: u64) -> LeaseAck {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.fenced = false;
            self.deadline = now.saturating_add(ttl_ms).max(1);
        } else if epoch == self.epoch && !self.fenced && self.epoch != 0 {
            self.deadline = now.saturating_add(ttl_ms).max(1);
        }
        LeaseAck {
            epoch: self.epoch,
            fenced: self.fenced,
        }
    }

    fn tick(&mut self, now: u64) -> bool {
        let fires = self.deadline != 0 && now >= self.deadline && !self.fenced;
        if fires {
            self.fenced = true;
        }
        fires
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("paramount-lease-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The guard tracks the shadow model exactly: epochs never regress,
/// acks echo `max(current, offered)`, a fence fires at most once per
/// lapse, and only a strictly higher epoch clears it.
#[test]
fn guard_matches_model_and_epochs_never_regress() {
    for steps in cases(steps) {
        let guard = FenceGuard::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for step in &steps {
            let epoch_before = guard.epoch();
            let fenced_before = guard.is_fenced();
            match step {
                LeaseStep::Grant { epoch, ttl_ms } => {
                    let ack = guard.grant_at(now, *epoch, *ttl_ms);
                    let want = model.grant(now, *epoch, *ttl_ms);
                    assert_eq!(ack, want);
                    assert_eq!(ack.epoch, epoch_before.max(*epoch));
                    if fenced_before && *epoch <= epoch_before {
                        assert!(
                            guard.is_fenced(),
                            "only a strictly higher epoch may clear a fence"
                        );
                    }
                }
                LeaseStep::Tick { advance_ms } => {
                    now = now.saturating_add(*advance_ms);
                    let fired = guard.check_expiry_at(now);
                    assert_eq!(fired, model.tick(now));
                    if fired {
                        assert!(
                            !guard.check_expiry_at(now),
                            "check_expiry reports each fence exactly once"
                        );
                    }
                }
                LeaseStep::Fence => {
                    guard.fence();
                    model.fenced = true;
                }
            }
            assert!(guard.epoch() >= epoch_before, "epochs never regress");
            assert_eq!(guard.epoch(), model.epoch);
            assert_eq!(guard.is_fenced(), model.fenced);
        }
    }
}

/// A guard that was never granted a lease has nothing to lose and
/// never self-fences, no matter how far the clock advances.
#[test]
fn unleased_guards_never_expire() {
    for advances in cases(advances) {
        let guard = FenceGuard::new();
        let mut now = 0u64;
        for advance in advances {
            now = now.saturating_add(advance);
            assert!(!guard.check_expiry_at(now));
            assert!(!guard.is_fenced());
        }
        assert_eq!(guard.epoch(), 0);
    }
}

/// Whatever sequence of grants, lapses, and force-fences a shard
/// lives through, the durable layer obeys the guard: appends succeed
/// exactly while unfenced, and once fenced every entry point —
/// append, checkpoint, create, recover — refuses.
#[test]
fn fenced_guards_refuse_durable_writes_at_every_entry_point() {
    for steps in cases(steps) {
        let dir = scratch_dir("entry");
        let guard = Arc::new(FenceGuard::new());
        let cfg = StoreConfig {
            guard: Some(Arc::clone(&guard)),
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg.clone()).unwrap();
        let mut now = 0u64;
        let mut accepted = 0u64;
        for (i, step) in steps.iter().enumerate() {
            match step {
                LeaseStep::Grant { epoch, ttl_ms } => {
                    guard.grant_at(now, *epoch, *ttl_ms);
                }
                LeaseStep::Tick { advance_ms } => {
                    now = now.saturating_add(*advance_ms);
                    guard.check_expiry_at(now);
                }
                LeaseStep::Fence => guard.fence(),
            }
            let fenced = guard.is_fenced();
            let append = store.append_event(0, &WireOp::Write(format!("x{i}")));
            assert_eq!(
                append.is_err(),
                fenced,
                "append must succeed exactly while unfenced"
            );
            if !fenced {
                accepted += 1;
            }
        }
        if guard.is_fenced() {
            assert!(store.checkpoint(0, &FaultLog::default()).is_err());
            let other = scratch_dir("entry-create");
            assert!(SessionStore::create(&other, 2, &Hello::new(2), cfg.clone()).is_err());
            let _ = std::fs::remove_dir_all(&other);
            drop(store);
            assert!(SessionStore::recover(&dir, cfg).is_err());
        } else {
            store.sync().unwrap(); // a dropped store discards its tail
            drop(store);
            let recovered = SessionStore::recover(&dir, cfg).unwrap().unwrap();
            assert_eq!(recovered.events.len() as u64, accepted);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
