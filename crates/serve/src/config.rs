//! Server construction parameters, with the zero hazards guarded.
//!
//! Mirrors the `ObsConfig` flight-window-0 precedent: a nonsensical zero
//! is defused at the point of use instead of hanging or panicking deep in
//! the server. Zero workers or a zero-capacity queue would deadlock every
//! request, so both clamp to 1; a zero-capacity cache simply disables
//! caching (every request computes).

/// Mapping-server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads computing mappings.
    pub workers: usize,
    /// Maximum requests waiting in the work queue; a full queue answers
    /// `overloaded` instead of blocking the connection.
    pub queue_capacity: usize,
    /// Maximum mappings retained in the LRU result cache.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own, in
    /// milliseconds. 0 = no default deadline.
    pub default_deadline_ms: u64,
    /// Largest accepted frame payload in bytes; oversized frames are
    /// answered with a `bad_frame` error and the connection is closed
    /// (framing cannot be resynchronized).
    pub max_frame_bytes: usize,
    /// Rolling telemetry window the admin endpoint's live quantiles
    /// cover, in milliseconds. 0 is defused to the 10 s default.
    pub telemetry_window_ms: u64,
    /// Rotating slots the telemetry window is divided into. 0 is defused
    /// to 1 (a single coarse slot).
    pub telemetry_slots: usize,
    /// Requests slower than this (host microseconds) are appended to the
    /// slow-request log. 0 disables slow logging.
    pub slow_threshold_us: u64,
    /// Answer plain-text `GET` requests on the service port with a
    /// metrics exposition (so `curl`/scrapers work without speaking the
    /// frame protocol).
    pub http_stats: bool,
    /// Maximum concurrently open streaming sessions; an `open_session`
    /// over the limit is answered `overloaded`. 0 is defused to 1.
    pub max_sessions: usize,
    /// Default decay shift of each session's sliding window: every delta
    /// keeps `1 - 2^-shift` of the accumulated history (shift 1 halves
    /// it, shift 4 keeps 93.75%). Shifts above 63 clamp to 63; 0 is the
    /// memoryless window.
    pub session_decay_shift: u32,
    /// Default remap threshold: a delta whose decayed window scores a
    /// cosine similarity (in ppm) *below* this against the installed
    /// mapping's reference matrix triggers a remap. Values above
    /// 1,000,000 clamp to 1,000,000.
    pub session_drift_threshold_ppm: u64,
    /// Default cooldown, in deltas, after a remap during which further
    /// threshold crossings are suppressed (hysteresis against phase
    /// oscillation). 0 = remap on every crossing.
    pub session_cooldown_deltas: u64,
    /// Idle eviction: sessions that have not seen a delta for this many
    /// milliseconds are evicted on the next registry access. 0 = never
    /// evict.
    pub session_idle_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

impl ServeConfig {
    /// Defaults: 4 workers, 64 queued requests, 128 cached mappings, no
    /// default deadline, 1 MiB frames, a 10 s telemetry window in 10
    /// slots, slow logging off, HTTP exposition on.
    pub fn new() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline_ms: 0,
            max_frame_bytes: 1 << 20,
            telemetry_window_ms: 10_000,
            telemetry_slots: 10,
            slow_threshold_us: 0,
            http_stats: true,
            max_sessions: 32,
            session_decay_shift: 2,
            session_drift_threshold_ppm: 800_000,
            session_cooldown_deltas: 2,
            session_idle_ms: 60_000,
        }
    }

    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Override the queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Override the cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Override the default deadline (0 = none).
    pub fn with_default_deadline_ms(mut self, ms: u64) -> Self {
        self.default_deadline_ms = ms;
        self
    }

    /// Override the telemetry window length (0 = the 10 s default).
    pub fn with_telemetry_window_ms(mut self, ms: u64) -> Self {
        self.telemetry_window_ms = ms;
        self
    }

    /// Override the telemetry slot count (0 = one slot).
    pub fn with_telemetry_slots(mut self, slots: usize) -> Self {
        self.telemetry_slots = slots;
        self
    }

    /// Override the slow-request threshold (0 disables slow logging).
    pub fn with_slow_threshold_us(mut self, us: u64) -> Self {
        self.slow_threshold_us = us;
        self
    }

    /// Enable or disable the plain-text HTTP exposition path.
    pub fn with_http_stats(mut self, enabled: bool) -> Self {
        self.http_stats = enabled;
        self
    }

    /// Override the open-session cap (0 is defused to 1).
    pub fn with_max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = sessions;
        self
    }

    /// Override the default session decay shift (clamped to 63).
    pub fn with_session_decay_shift(mut self, shift: u32) -> Self {
        self.session_decay_shift = shift;
        self
    }

    /// Override the default drift threshold in ppm (clamped to 1e6).
    pub fn with_session_drift_threshold_ppm(mut self, ppm: u64) -> Self {
        self.session_drift_threshold_ppm = ppm;
        self
    }

    /// Override the default remap cooldown in deltas (0 = none).
    pub fn with_session_cooldown_deltas(mut self, deltas: u64) -> Self {
        self.session_cooldown_deltas = deltas;
        self
    }

    /// Override the idle-eviction timeout (0 = never evict).
    pub fn with_session_idle_ms(mut self, ms: u64) -> Self {
        self.session_idle_ms = ms;
        self
    }

    /// Worker count with the zero hazard removed: zero workers would leave
    /// every queued request unanswered forever, so it is treated as 1.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Queue capacity with the zero hazard removed: a zero-capacity queue
    /// would reject every request as `overloaded`, making the server
    /// unable to do any work at all, so it is treated as 1.
    pub fn effective_queue_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }

    /// Cache capacity as an option: 0 means "no caching" (the meaningful
    /// reading), never "insert then instantly evict" — evicting a
    /// single-flight leader's pending slot would strand its followers.
    pub fn effective_cache_capacity(&self) -> Option<usize> {
        if self.cache_capacity == 0 {
            None
        } else {
            Some(self.cache_capacity)
        }
    }

    /// The default deadline as an option (0 = none).
    pub fn effective_default_deadline_ms(&self) -> Option<u64> {
        if self.default_deadline_ms == 0 {
            None
        } else {
            Some(self.default_deadline_ms)
        }
    }

    /// Frame-size cap with the zero hazard removed: a cap below the
    /// smallest well-formed request would reject everything, so anything
    /// under 64 bytes is treated as 64.
    pub fn effective_max_frame_bytes(&self) -> usize {
        self.max_frame_bytes.max(64)
    }

    /// Telemetry sizing with the zero hazards removed (mirroring the
    /// `ObsConfig` flight-window-0 guard): a zero-length window could
    /// never hold an observation — every admin snapshot would report empty
    /// quantiles forever — so it is treated as the 10 s default; zero
    /// slots would divide by zero on every observation, so it is treated
    /// as one slot. The defusing itself lives in
    /// [`LiveConfig`](tlbmap_obs::LiveConfig)'s own `effective_*` guards.
    pub fn effective_telemetry(&self) -> tlbmap_obs::LiveConfig {
        let cfg = tlbmap_obs::LiveConfig::new()
            .with_window_ms(self.telemetry_window_ms)
            .with_slots(self.telemetry_slots);
        tlbmap_obs::LiveConfig {
            window_ms: cfg.effective_window_ms(),
            slots: cfg.effective_slots(),
        }
    }

    /// The slow-request threshold as an option (0 = slow logging off).
    pub fn effective_slow_threshold_us(&self) -> Option<u64> {
        if self.slow_threshold_us == 0 {
            None
        } else {
            Some(self.slow_threshold_us)
        }
    }

    /// Session cap with the zero hazard removed: a zero-session server
    /// would answer every `open_session` `overloaded` while advertising
    /// the feature, so it is treated as 1.
    pub fn effective_max_sessions(&self) -> usize {
        self.max_sessions.max(1)
    }

    /// Decay shift clamped to 63 — `v >> 64` is not a meaningful decay
    /// and would panic in debug builds.
    pub fn effective_session_decay_shift(&self) -> u32 {
        self.session_decay_shift.min(63)
    }

    /// Drift threshold clamped to 1e6 ppm: cosine similarity never
    /// exceeds 1, so a larger threshold would remap on *every* delta —
    /// almost certainly a typo, not intent.
    pub fn effective_session_drift_threshold_ppm(&self) -> u64 {
        self.session_drift_threshold_ppm.min(1_000_000)
    }

    /// Idle-eviction timeout as an option (0 = sessions never expire).
    pub fn effective_session_idle_ms(&self) -> Option<u64> {
        if self.session_idle_ms == 0 {
            None
        } else {
            Some(self.session_idle_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_and_queue_clamp_to_one() {
        let cfg = ServeConfig::new().with_workers(0).with_queue_capacity(0);
        assert_eq!(cfg.effective_workers(), 1);
        assert_eq!(cfg.effective_queue_capacity(), 1);
    }

    #[test]
    fn zero_cache_capacity_disables_caching() {
        assert_eq!(
            ServeConfig::new()
                .with_cache_capacity(0)
                .effective_cache_capacity(),
            None
        );
        assert_eq!(
            ServeConfig::new()
                .with_cache_capacity(9)
                .effective_cache_capacity(),
            Some(9)
        );
    }

    #[test]
    fn zero_deadline_means_none() {
        assert_eq!(ServeConfig::new().effective_default_deadline_ms(), None);
        assert_eq!(
            ServeConfig::new()
                .with_default_deadline_ms(250)
                .effective_default_deadline_ms(),
            Some(250)
        );
    }

    #[test]
    fn tiny_frame_cap_is_floored() {
        let mut cfg = ServeConfig::new();
        cfg.max_frame_bytes = 0;
        assert_eq!(cfg.effective_max_frame_bytes(), 64);
    }

    #[test]
    fn zero_telemetry_window_and_slots_are_defused() {
        // Satellite guard: a zero-length or zero-bucket telemetry window
        // must be rejected at construction, not hand every admin snapshot
        // an empty histogram (window 0) or a divide-by-zero (slots 0).
        let cfg = ServeConfig::new()
            .with_telemetry_window_ms(0)
            .with_telemetry_slots(0);
        let live = cfg.effective_telemetry();
        assert_eq!(live.window_ms, 10_000);
        assert_eq!(live.slots, 1);
        let explicit = ServeConfig::new()
            .with_telemetry_window_ms(5_000)
            .with_telemetry_slots(5)
            .effective_telemetry();
        assert_eq!(explicit.window_ms, 5_000);
        assert_eq!(explicit.slots, 5);
    }

    #[test]
    fn zero_slow_threshold_disables_slow_logging() {
        assert_eq!(ServeConfig::new().effective_slow_threshold_us(), None);
        assert_eq!(
            ServeConfig::new()
                .with_slow_threshold_us(250_000)
                .effective_slow_threshold_us(),
            Some(250_000)
        );
    }

    #[test]
    fn session_knob_hazards_are_defused() {
        // A zero-session cap, a 64-bit decay shift, and a >1.0 cosine
        // threshold are all configuration typos that would make streaming
        // unusable (or panic); each clamps to its nearest sane value.
        let cfg = ServeConfig::new()
            .with_max_sessions(0)
            .with_session_decay_shift(200)
            .with_session_drift_threshold_ppm(5_000_000)
            .with_session_idle_ms(0);
        assert_eq!(cfg.effective_max_sessions(), 1);
        assert_eq!(cfg.effective_session_decay_shift(), 63);
        assert_eq!(cfg.effective_session_drift_threshold_ppm(), 1_000_000);
        assert_eq!(cfg.effective_session_idle_ms(), None);
        let cfg = ServeConfig::new()
            .with_max_sessions(8)
            .with_session_decay_shift(3)
            .with_session_drift_threshold_ppm(900_000)
            .with_session_cooldown_deltas(5)
            .with_session_idle_ms(30_000);
        assert_eq!(cfg.effective_max_sessions(), 8);
        assert_eq!(cfg.effective_session_decay_shift(), 3);
        assert_eq!(cfg.effective_session_drift_threshold_ppm(), 900_000);
        assert_eq!(cfg.session_cooldown_deltas, 5);
        assert_eq!(cfg.effective_session_idle_ms(), Some(30_000));
    }

    #[test]
    fn nonzero_values_pass_through() {
        let cfg = ServeConfig::new()
            .with_workers(7)
            .with_queue_capacity(3)
            .with_cache_capacity(11);
        assert_eq!(cfg.effective_workers(), 7);
        assert_eq!(cfg.effective_queue_capacity(), 3);
        assert_eq!(cfg.effective_cache_capacity(), Some(11));
    }
}
