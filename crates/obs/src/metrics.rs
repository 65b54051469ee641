//! The metrics registry: monotonic counters and log₂-bucketed histograms.
//!
//! All slots are fixed at compile time and backed by atomics, so the hot
//! path is a relaxed `fetch_add` — no locks, no allocation, and per-core
//! increments aggregate without coordination. This is the discipline
//! sampling-based detectors need: the measurement layer must cost less
//! than what it measures.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Memory accesses executed.
    Accesses,
    /// TLB misses observed (all cores).
    TlbMisses,
    /// Detection searches that actually ran.
    DetectionSearches,
    /// Cycles charged by detection hooks.
    DetectionOverheadCycles,
    /// TLB entries (or entry pairs) compared across all searches.
    SearchEntriesCompared,
    /// Communication-matrix increments recorded.
    MatrixIncrements,
    /// Barriers crossed.
    Barriers,
    /// Thread migrations performed.
    Migrations,
    /// Periodic HM interrupts fired.
    Ticks,
    /// Communication-matrix snapshots taken.
    SnapshotsTaken,
    /// Trace events overwritten in the ring buffer.
    EventsDropped,
    /// Hierarchical-mapper matching levels run.
    MapperRounds,
    /// Phase changes flagged by windowed detection.
    PhaseChanges,
    /// Mapping-service requests received (all request kinds).
    ServeRequests,
    /// Mapping-service requests rejected because the work queue was full.
    ServeOverloaded,
    /// Mapping-service requests that exceeded their deadline.
    ServeTimeouts,
    /// Mapping-service result-cache hits (including coalesced waiters).
    ServeCacheHits,
    /// Mapping-service result-cache misses (leader computations).
    ServeCacheMisses,
    /// Mapping-service `map` requests admitted for parsing (a subset of
    /// `ServeRequests`, which counts every request kind).
    ServeMapRequests,
    /// Mapping-service frames rejected before parsing (bad length, bad
    /// JSON, wrong protocol version).
    ServeBadFrames,
    /// Mapping-service requests that parsed but were invalid.
    ServeBadRequests,
    /// Mapping-service requests refused because shutdown had begun.
    ServeShuttingDown,
    /// Mapping-service requests lost server-side (worker dropped them).
    ServeInternalErrors,
    /// Mapping-service cache waiters coalesced onto an in-flight leader
    /// (a subset of `ServeCacheHits`).
    ServeCacheCoalesced,
    /// Mapping-service requests slower than the slow-log threshold.
    ServeSlowRequests,
    /// Flight-recorder windows closed.
    FlightWindows,
    /// Flight-recorder windows dropped from the bounded ring.
    FlightWindowsDropped,
    /// Streaming sessions opened.
    SessionsOpened,
    /// Streaming sessions closed by the client.
    SessionsClosed,
    /// Streaming sessions evicted (idle timeout or capacity pressure).
    SessionsEvicted,
    /// Matrix deltas ingested across all streaming sessions.
    SessionDeltas,
    /// Remaps the drift judge triggered (threshold crossed, new mapping
    /// installed).
    RemapsTriggered,
    /// Remaps the control loop suppressed (drift below threshold, or
    /// inside the cooldown window).
    RemapsSuppressed,
    /// Remaps whose matching was warm-started on every level.
    WarmStartHits,
    /// Remaps where at least one level fell back to a cold solve.
    WarmStartFallbacks,
    /// Mapping-service event-loop iterations (one per `epoll_wait`
    /// return that found work or a wakeup).
    ServeLoopTicks,
    /// Mapping-service connections accepted by the readiness loop.
    ServeConnsAccepted,
}

/// All counters, in registry order.
pub const COUNTERS: [CounterId; 37] = [
    CounterId::Accesses,
    CounterId::TlbMisses,
    CounterId::DetectionSearches,
    CounterId::DetectionOverheadCycles,
    CounterId::SearchEntriesCompared,
    CounterId::MatrixIncrements,
    CounterId::Barriers,
    CounterId::Migrations,
    CounterId::Ticks,
    CounterId::SnapshotsTaken,
    CounterId::EventsDropped,
    CounterId::MapperRounds,
    CounterId::PhaseChanges,
    CounterId::ServeRequests,
    CounterId::ServeOverloaded,
    CounterId::ServeTimeouts,
    CounterId::ServeCacheHits,
    CounterId::ServeCacheMisses,
    CounterId::ServeMapRequests,
    CounterId::ServeBadFrames,
    CounterId::ServeBadRequests,
    CounterId::ServeShuttingDown,
    CounterId::ServeInternalErrors,
    CounterId::ServeCacheCoalesced,
    CounterId::ServeSlowRequests,
    CounterId::FlightWindows,
    CounterId::FlightWindowsDropped,
    CounterId::SessionsOpened,
    CounterId::SessionsClosed,
    CounterId::SessionsEvicted,
    CounterId::SessionDeltas,
    CounterId::RemapsTriggered,
    CounterId::RemapsSuppressed,
    CounterId::WarmStartHits,
    CounterId::WarmStartFallbacks,
    CounterId::ServeLoopTicks,
    CounterId::ServeConnsAccepted,
];

impl CounterId {
    /// Stable schema name.
    pub fn as_str(self) -> &'static str {
        match self {
            CounterId::Accesses => "accesses",
            CounterId::TlbMisses => "tlb_misses",
            CounterId::DetectionSearches => "detection_searches",
            CounterId::DetectionOverheadCycles => "detection_overhead_cycles",
            CounterId::SearchEntriesCompared => "search_entries_compared",
            CounterId::MatrixIncrements => "matrix_increments",
            CounterId::Barriers => "barriers",
            CounterId::Migrations => "migrations",
            CounterId::Ticks => "ticks",
            CounterId::SnapshotsTaken => "snapshots_taken",
            CounterId::EventsDropped => "events_dropped",
            CounterId::MapperRounds => "mapper_rounds",
            CounterId::PhaseChanges => "phase_changes",
            CounterId::ServeRequests => "serve_requests",
            CounterId::ServeOverloaded => "serve_overloaded",
            CounterId::ServeTimeouts => "serve_timeouts",
            CounterId::ServeCacheHits => "serve_cache_hits",
            CounterId::ServeCacheMisses => "serve_cache_misses",
            CounterId::ServeMapRequests => "serve_map_requests",
            CounterId::ServeBadFrames => "serve_bad_frames",
            CounterId::ServeBadRequests => "serve_bad_requests",
            CounterId::ServeShuttingDown => "serve_shutting_down",
            CounterId::ServeInternalErrors => "serve_internal_errors",
            CounterId::ServeCacheCoalesced => "serve_cache_coalesced",
            CounterId::ServeSlowRequests => "serve_slow_requests",
            CounterId::FlightWindows => "flight_windows",
            CounterId::FlightWindowsDropped => "flight_windows_dropped",
            CounterId::SessionsOpened => "sessions_opened",
            CounterId::SessionsClosed => "sessions_closed",
            CounterId::SessionsEvicted => "sessions_evicted",
            CounterId::SessionDeltas => "session_deltas",
            CounterId::RemapsTriggered => "remaps_triggered",
            CounterId::RemapsSuppressed => "remaps_suppressed",
            CounterId::WarmStartHits => "warm_start_hits",
            CounterId::WarmStartFallbacks => "warm_start_fallbacks",
            CounterId::ServeLoopTicks => "serve_loop_ticks",
            CounterId::ServeConnsAccepted => "serve_conns_accepted",
        }
    }
}

/// Histogram identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Cycles charged per detection search.
    DetectionSearchCycles,
    /// Cycles between consecutive TLB misses (machine-wide).
    TlbMissInterArrival,
    /// Per-increment amount added to a matrix cell.
    MatrixIncrementAmount,
    /// Matched-pair weight captured per hierarchical-mapper level.
    MapperLevelWeight,
    /// Mapping-service request latency in host microseconds (frame
    /// received to response ready).
    ServeRequestLatencyUs,
    /// Work-queue depth observed at each mapping-service enqueue.
    ServeQueueDepth,
    /// Streaming-session remap latency in host microseconds (drift
    /// decision to new mapping installed).
    ServeRemapLatencyUs,
    /// Frames decoded together per mapping-service event-loop tick (the
    /// batch the shared resident state is evaluated against).
    ServeBatchSize,
}

/// All histograms, in registry order.
pub const HISTS: [HistId; 8] = [
    HistId::DetectionSearchCycles,
    HistId::TlbMissInterArrival,
    HistId::MatrixIncrementAmount,
    HistId::MapperLevelWeight,
    HistId::ServeRequestLatencyUs,
    HistId::ServeQueueDepth,
    HistId::ServeRemapLatencyUs,
    HistId::ServeBatchSize,
];

impl HistId {
    /// Stable schema name.
    pub fn as_str(self) -> &'static str {
        match self {
            HistId::DetectionSearchCycles => "detection_search_cycles",
            HistId::TlbMissInterArrival => "tlb_miss_inter_arrival_cycles",
            HistId::MatrixIncrementAmount => "matrix_increment_amount",
            HistId::MapperLevelWeight => "mapper_level_weight",
            HistId::ServeRequestLatencyUs => "serve_request_latency_us",
            HistId::ServeQueueDepth => "serve_queue_depth",
            HistId::ServeRemapLatencyUs => "serve_remap_latency_us",
            HistId::ServeBatchSize => "serve_batch_size",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds exactly 0, bucket `k` (k ≥ 1)
/// holds values in `[2^(k-1), 2^k)`; bucket 64 holds `[2^63, u64::MAX]`.
pub const N_BUCKETS: usize = 65;

/// The log₂ bucket a value falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `idx`.
pub fn bucket_lo(idx: usize) -> u64 {
    match idx {
        0 => 0,
        k => 1u64 << (k - 1),
    }
}

/// A lock-free log₂ histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Occupancy of bucket `idx`.
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets[idx].load(Ordering::Relaxed)
    }

    /// JSON export: only non-empty buckets, each as
    /// `{"lo":2^(k-1),"count":n}`.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = (0..N_BUCKETS)
            .filter(|&k| self.bucket(k) > 0)
            .map(|k| {
                Json::obj(vec![
                    ("lo", Json::U64(bucket_lo(k))),
                    ("count", Json::U64(self.bucket(k))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("count", Json::U64(self.count())),
            ("sum", Json::U64(self.sum())),
            ("min", self.min().map_or(Json::Null, Json::U64)),
            ("max", self.max().map_or(Json::Null, Json::U64)),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every power of two starts a new bucket at its own lower bound.
        for k in 1..64 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1);
            assert_eq!(bucket_lo(k + 1), v);
            assert_eq!(bucket_index(v - 1), k, "value {v}-1");
        }
    }

    #[test]
    fn histogram_tracks_stats() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        for v in [0, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.bucket(bucket_index(5)), 2);
        assert_eq!(h.bucket(bucket_index(0)), 1);
        assert!((h.mean() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_json_only_lists_occupied_buckets() {
        let h = Histogram::default();
        h.observe(3);
        h.observe(3);
        h.observe(100);
        let j = h.to_json();
        let buckets = j.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("lo").unwrap().as_u64(), Some(2));
        assert_eq!(buckets[0].get("count").unwrap().as_u64(), Some(2));
        assert_eq!(buckets[1].get("lo").unwrap().as_u64(), Some(64));
        assert_eq!(j.get("min").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn bucket_round_trip_at_extremes() {
        // u64::MAX lands in the last bucket, whose lower bound maps back
        // into the same bucket — the round-trip property at the top edge.
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_lo(N_BUCKETS - 1), 1u64 << 63);
        assert_eq!(bucket_index(bucket_lo(N_BUCKETS - 1)), N_BUCKETS - 1);
        // And at the bottom edge: bucket 0 holds exactly 0.
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_index(bucket_lo(0)), 0);
        // Every bucket's lower bound maps back into that bucket.
        for k in 0..N_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(k)), k, "bucket {k}");
        }
    }

    #[test]
    fn observe_zero_and_max_are_tracked() {
        let h = Histogram::default();
        h.observe(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.bucket(0), 1);
        h.observe(u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket(N_BUCKETS - 1), 1);
        // JSON keeps both extreme buckets.
        let j = h.to_json();
        let buckets = j.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("lo").unwrap().as_u64(), Some(0));
        assert_eq!(buckets[1].get("lo").unwrap().as_u64(), Some(1u64 << 63));
    }

    #[test]
    fn empty_histogram_stats_are_well_defined() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let j = h.to_json();
        assert_eq!(j.get("min").unwrap(), &Json::Null);
        assert_eq!(j.get("max").unwrap(), &Json::Null);
        assert!(j.get("buckets").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn names_are_distinct() {
        let mut counter_names: Vec<_> = COUNTERS.iter().map(|c| c.as_str()).collect();
        counter_names.sort_unstable();
        counter_names.dedup();
        assert_eq!(counter_names.len(), COUNTERS.len());
        let mut hist_names: Vec<_> = HISTS.iter().map(|h| h.as_str()).collect();
        hist_names.sort_unstable();
        hist_names.dedup();
        assert_eq!(hist_names.len(), HISTS.len());
        // The acceptance floor: at least 8 distinct series in the registry.
        assert!(COUNTERS.len() + HISTS.len() >= 8);
    }
}
