//! Live metrics: lock-free rolling-window histograms any thread can
//! snapshot while workers keep updating them.
//!
//! The lifetime [`Histogram`] answers "what happened since the process
//! started", which is the wrong question for an operator watching a
//! long-running server: after an hour of traffic, a one-minute latency
//! spike vanishes into the lifetime p99. A [`WindowedHistogram`] keeps N
//! rotating log₂-bucket slots, each covering `window/N` of wall time, so a
//! snapshot merges only the slots that fall inside the last window —
//! p50/p99 reflect the last ~10 s, not the whole process.
//!
//! Everything on the write path is a handful of relaxed atomic adds (same
//! discipline as the metrics registry: the measurement must cost less than
//! what it measures). Rotation is driven by the *caller's* clock — a
//! millisecond timestamp — so the machinery is deterministic under test.
//! [`LiveRegistry`] bundles one windowed histogram per [`HistId`] behind a
//! monotonic wall clock and is what the serve subsystem snapshots for its
//! admin endpoint.

use crate::json::Json;
use crate::metrics::{bucket_index, bucket_lo, HistId, Histogram, HISTS, N_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sizing of a rolling telemetry window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Total window the rolling quantiles cover, in milliseconds.
    pub window_ms: u64,
    /// Rotating slots the window is divided into. More slots = smoother
    /// expiry at the cost of `slots × N_BUCKETS` atomics per histogram.
    pub slots: usize,
}

impl LiveConfig {
    /// Defaults: a 10 s window in 10 one-second slots.
    pub fn new() -> Self {
        LiveConfig {
            window_ms: 10_000,
            slots: 10,
        }
    }

    /// Override the window length.
    pub fn with_window_ms(mut self, ms: u64) -> Self {
        self.window_ms = ms;
        self
    }

    /// Override the slot count.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Window length with the zero hazard removed: a zero-length window
    /// could never hold an observation (every snapshot would be empty), so
    /// it is treated as the default 10 s — the same defusing discipline as
    /// `ObsConfig`'s flight-window-0 guard.
    pub fn effective_window_ms(&self) -> u64 {
        if self.window_ms == 0 {
            10_000
        } else {
            self.window_ms
        }
    }

    /// Slot count with the zero hazard removed: zero slots would divide by
    /// zero on every observe, so it is treated as 1 (the window becomes a
    /// single coarse bucket).
    pub fn effective_slots(&self) -> usize {
        self.slots.max(1)
    }
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig::new()
    }
}

/// Marker for a slot that has never been written.
const EMPTY_EPOCH: u64 = u64::MAX;

/// One rotating window slot: a log₂ histogram plus the slot-sequence
/// number (epoch) it currently holds data for.
#[derive(Debug)]
struct Slot {
    epoch: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            epoch: AtomicU64::new(EMPTY_EPOCH),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A merged, point-in-time view of a window (or of a lifetime histogram):
/// plain `u64`s, so it can be inspected, merged, and serialized without
/// touching the live atomics again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observed values inside the window.
    pub sum: u64,
    /// Merged log₂ bucket occupancies.
    pub buckets: [u64; N_BUCKETS],
}

impl Default for WindowSnapshot {
    fn default() -> Self {
        WindowSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

/// The representative value reported for bucket `idx`: the midpoint of
/// the bucket's `[2^(k-1), 2^k)` range (0 for the zero bucket). Quantiles
/// from log₂ buckets are approximate by construction; the midpoint halves
/// the worst-case error versus reporting the lower bound.
fn bucket_rep(idx: usize) -> u64 {
    let lo = bucket_lo(idx);
    lo + lo / 2
}

impl WindowSnapshot {
    /// Whether the window saw no observations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the windowed observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate (`q` in 0..=100) from the log₂
    /// buckets, reported as the matched bucket's midpoint. `None` when the
    /// window is empty — an empty window has no p50, and pretending it is
    /// 0 would read as "the server got infinitely fast" on a dashboard.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_rep(idx));
            }
        }
        // Unreachable when count == Σ buckets, but a racing writer can
        // leave count ahead of the buckets for an instant.
        Some(bucket_rep(N_BUCKETS - 1))
    }

    /// Merge another snapshot into this one (e.g. the rolling window into
    /// the lifetime view, or windows from several shards).
    pub fn merge(&mut self, other: &WindowSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// JSON export: count, sum, and the quantile ladder the admin
    /// endpoint serves (`null` quantiles when empty).
    pub fn to_json(&self) -> Json {
        let q = |p: f64| self.quantile(p).map_or(Json::Null, Json::U64);
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("mean", Json::F64(self.mean())),
            ("p50", q(50.0)),
            ("p90", q(90.0)),
            ("p99", q(99.0)),
        ])
    }
}

impl Histogram {
    /// The lifetime histogram as a [`WindowSnapshot`], so lifetime and
    /// windowed views merge and quantile through the same code.
    pub fn snapshot(&self) -> WindowSnapshot {
        let mut snap = WindowSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: [0; N_BUCKETS],
        };
        for (idx, slot) in snap.buckets.iter_mut().enumerate() {
            *slot = self.bucket(idx);
        }
        snap
    }

    /// Nearest-rank quantile estimate over the lifetime buckets. See
    /// [`WindowSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

/// A log₂ histogram over a rolling wall-clock window, plus the lifetime
/// histogram fed by the same observations.
///
/// Timestamps are caller-supplied milliseconds on any monotonic scale
/// (e.g. "ms since server start"). Writers may race a slot reset when a
/// slot is being recycled for a new epoch; a racing observation can land
/// in a just-cleared slot or be cleared with it — an acceptable telemetry
/// error of at most one observation per rotation, never a torn value.
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Vec<Slot>,
    slot_ms: u64,
    lifetime: Histogram,
}

impl WindowedHistogram {
    /// A window of `cfg.window_ms` milliseconds in `cfg.slots` slots.
    pub fn new(cfg: LiveConfig) -> Self {
        let slots = cfg.effective_slots();
        let slot_ms = (cfg.effective_window_ms() / slots as u64).max(1);
        WindowedHistogram {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            slot_ms,
            lifetime: Histogram::default(),
        }
    }

    /// Milliseconds one slot covers.
    pub fn slot_ms(&self) -> u64 {
        self.slot_ms
    }

    /// Milliseconds the full window covers.
    pub fn window_ms(&self) -> u64 {
        self.slot_ms * self.slots.len() as u64
    }

    /// Record `value` at time `now_ms`, into both the current window slot
    /// and the lifetime histogram.
    pub fn observe(&self, now_ms: u64, value: u64) {
        let epoch = now_ms / self.slot_ms;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let current = slot.epoch.load(Ordering::Relaxed);
        if current != epoch {
            // The slot holds a previous rotation (or nothing): the first
            // writer of the new epoch claims and clears it. Losers of the
            // claim race simply add into the freshly cleared slot.
            if slot
                .epoch
                .compare_exchange(current, epoch, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                for bucket in &slot.buckets {
                    bucket.store(0, Ordering::Relaxed);
                }
                slot.count.store(0, Ordering::Relaxed);
                slot.sum.store(0, Ordering::Relaxed);
            }
        }
        slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        self.lifetime.observe(value);
    }

    /// Merge the slots still inside the window ending at `now_ms` into a
    /// snapshot. Slots whose epoch has rotated out are skipped, so an
    /// idle histogram decays to empty as time passes.
    pub fn window(&self, now_ms: u64) -> WindowSnapshot {
        let current = now_ms / self.slot_ms;
        let oldest = current.saturating_sub(self.slots.len() as u64 - 1);
        let mut snap = WindowSnapshot::default();
        for slot in &self.slots {
            let epoch = slot.epoch.load(Ordering::Relaxed);
            if epoch == EMPTY_EPOCH || epoch < oldest || epoch > current {
                continue;
            }
            snap.count += slot.count.load(Ordering::Relaxed);
            snap.sum += slot.sum.load(Ordering::Relaxed);
            for (mine, bucket) in snap.buckets.iter_mut().zip(slot.buckets.iter()) {
                *mine += bucket.load(Ordering::Relaxed);
            }
        }
        snap
    }

    /// The lifetime histogram fed by every observation this window ever
    /// saw, regardless of rotation.
    pub fn lifetime(&self) -> &Histogram {
        &self.lifetime
    }
}

/// Live telemetry registry: one [`WindowedHistogram`] per [`HistId`]
/// behind a shared monotonic clock. Workers call [`LiveRegistry::observe`]
/// on the hot path (a few relaxed atomic adds); any thread snapshots with
/// [`LiveRegistry::window`] without stopping the world.
#[derive(Debug)]
pub struct LiveRegistry {
    started: Instant,
    hists: [WindowedHistogram; HISTS.len()],
}

impl LiveRegistry {
    /// A registry whose windows follow `cfg`.
    pub fn new(cfg: LiveConfig) -> Self {
        LiveRegistry {
            started: Instant::now(),
            hists: std::array::from_fn(|_| WindowedHistogram::new(cfg)),
        }
    }

    /// Milliseconds since the registry was created (the clock every
    /// observation is stamped with).
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Record a value at the current wall clock.
    pub fn observe(&self, id: HistId, value: u64) {
        self.observe_at(id, self.now_ms(), value);
    }

    /// Record a value at an explicit timestamp (deterministic tests).
    pub fn observe_at(&self, id: HistId, now_ms: u64, value: u64) {
        self.hists[id as usize].observe(now_ms, value);
    }

    /// Rolling-window snapshot at the current wall clock.
    pub fn window(&self, id: HistId) -> WindowSnapshot {
        self.window_at(id, self.now_ms())
    }

    /// Rolling-window snapshot at an explicit timestamp.
    pub fn window_at(&self, id: HistId, now_ms: u64) -> WindowSnapshot {
        self.hists[id as usize].window(now_ms)
    }

    /// Lifetime histogram of a series.
    pub fn lifetime(&self, id: HistId) -> &Histogram {
        self.hists[id as usize].lifetime()
    }

    /// Milliseconds the rolling windows cover.
    pub fn window_ms(&self) -> u64 {
        self.hists[0].window_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ms: u64, slots: usize) -> LiveConfig {
        LiveConfig::new()
            .with_window_ms(window_ms)
            .with_slots(slots)
    }

    #[test]
    fn zero_window_and_slots_are_defused() {
        assert_eq!(cfg(0, 10).effective_window_ms(), 10_000);
        assert_eq!(cfg(5_000, 0).effective_slots(), 1);
        // A degenerate config still produces a working histogram.
        let h = WindowedHistogram::new(cfg(0, 0));
        h.observe(0, 42);
        assert_eq!(h.window(0).count, 1);
        assert!(h.slot_ms() >= 1);
    }

    #[test]
    fn window_rotates_out_old_observations() {
        // 1000 ms window, 10 slots of 100 ms.
        let h = WindowedHistogram::new(cfg(1000, 10));
        h.observe(0, 10);
        h.observe(50, 20);
        h.observe(500, 30);
        assert_eq!(h.window(500).count, 3);
        // At t=1000 the slot holding t∈[0,100) is exactly one window old
        // and must have rotated out; the t=500 slot survives.
        let snap = h.window(1000);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 30);
        // Far in the future everything has rotated out...
        assert!(h.window(10_000).is_empty());
        // ...but the lifetime histogram keeps all three.
        assert_eq!(h.lifetime().count(), 3);
        assert_eq!(h.lifetime().sum(), 60);
    }

    #[test]
    fn rotation_boundary_is_exact() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        h.observe(99, 1); // epoch 0
                          // The last instant epoch 0 is still in the window of width 10
                          // slots is epoch 9, i.e. now_ms in [900, 1000).
        assert_eq!(h.window(999).count, 1);
        assert_eq!(h.window(1000).count, 0, "one full window later: expired");
    }

    #[test]
    fn slot_reuse_clears_stale_data() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        h.observe(0, 7); // epoch 0, slot 0
                         // Epoch 10 maps to slot 0 again; the write must clear the old
                         // epoch's contents before landing.
        h.observe(1000, 9);
        let snap = h.window(1000);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 9);
        assert_eq!(h.lifetime().count(), 2);
    }

    #[test]
    fn empty_window_quantiles_are_none() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        let snap = h.window(0);
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(50.0), None);
        assert_eq!(snap.quantile(99.0), None);
        assert_eq!(snap.mean(), 0.0);
        let json = snap.to_json();
        assert_eq!(json.get("p50").unwrap(), &Json::Null);
        assert_eq!(json.get("count").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        // 99 small values and one huge outlier, all in one slot.
        for _ in 0..99 {
            h.observe(0, 100); // bucket [64,128), midpoint 96
        }
        h.observe(0, 1 << 20); // bucket [2^20, 2^21), midpoint 1.5×2^20
        let snap = h.window(0);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile(50.0), Some(96));
        assert_eq!(snap.quantile(99.0), Some(96));
        assert_eq!(snap.quantile(100.0), Some((1 << 20) + (1 << 19)));
        // q clamps: negative behaves like 0 (first occupied bucket).
        assert_eq!(snap.quantile(-5.0), Some(96));
    }

    #[test]
    fn window_snapshot_merges_with_the_lifetime_histogram() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        h.observe(0, 10); // will rotate out
        h.observe(2000, 50);
        h.observe(2100, 70);
        let window = h.window(2100);
        assert_eq!(window.count, 2);
        let lifetime = h.lifetime().snapshot();
        assert_eq!(lifetime.count, 3);
        // The window is a subset of the lifetime: merging the *expired*
        // remainder back in reproduces the lifetime exactly.
        let mut merged = window.clone();
        let mut expired = WindowSnapshot {
            count: lifetime.count - window.count,
            sum: lifetime.sum - window.sum,
            ..Default::default()
        };
        for (idx, slot) in expired.buckets.iter_mut().enumerate() {
            *slot = lifetime.buckets[idx] - window.buckets[idx];
        }
        merged.merge(&expired);
        assert_eq!(merged, lifetime);
        // And Histogram::quantile agrees with its snapshot's quantile.
        assert_eq!(h.lifetime().quantile(50.0), lifetime.quantile(50.0));
    }

    #[test]
    fn registry_stamps_and_snapshots_per_series() {
        let reg = LiveRegistry::new(cfg(10_000, 10));
        reg.observe_at(HistId::ServeRequestLatencyUs, 100, 200);
        reg.observe_at(HistId::ServeQueueDepth, 100, 3);
        let lat = reg.window_at(HistId::ServeRequestLatencyUs, 100);
        assert_eq!(lat.count, 1);
        assert!(reg.window_at(HistId::ServeQueueDepth, 100).count == 1);
        // Series are independent.
        assert_eq!(reg.window_at(HistId::DetectionSearchCycles, 100).count, 0);
        assert_eq!(reg.lifetime(HistId::ServeRequestLatencyUs).count(), 1);
        assert_eq!(reg.window_ms(), 10_000);
        // The wall-clock path works too (cannot assert timing, only flow).
        reg.observe(HistId::ServeRequestLatencyUs, 300);
        assert_eq!(reg.lifetime(HistId::ServeRequestLatencyUs).count(), 2);
        assert!(reg.window(HistId::ServeRequestLatencyUs).count >= 1);
    }

    #[test]
    fn snapshot_json_carries_the_quantile_ladder() {
        let h = WindowedHistogram::new(cfg(1000, 10));
        for value in [100u64, 200, 400, 800] {
            h.observe(0, value);
        }
        let json = h.window(0).to_json();
        assert_eq!(json.get("count").unwrap().as_u64(), Some(4));
        assert!(json.get("p50").unwrap().as_u64().is_some());
        assert!(json.get("p99").unwrap().as_u64().is_some());
        assert!(json.get("mean").unwrap().as_f64().is_some());
    }
}
