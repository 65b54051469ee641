//! The structured event schema.
//!
//! Every event carries the global cycle estimate at which it happened (the
//! running core's clock — the engine's global minimum at dispatch time).
//! Events serialize to one JSON object per line (JSONL) and to Chrome
//! `trace_event` records loadable in `chrome://tracing` / Perfetto, where
//! one simulated cycle is displayed as one microsecond.

use crate::json::Json;

/// Which detection mechanism produced a search event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Software-managed TLB detector (per-miss sampled search).
    Sm,
    /// Hardware-managed TLB detector (periodic all-pairs search).
    Hm,
    /// Ground-truth full-trace detector.
    GroundTruth,
}

impl Mechanism {
    /// Stable schema name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mechanism::Sm => "sm",
            Mechanism::Hm => "hm",
            Mechanism::GroundTruth => "gt",
        }
    }
}

/// One traced occurrence. Field units: `cycle` is the simulated global
/// cycle, `charged_cycles` is detection overhead charged to the core,
/// `vpn` is a virtual page number.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A TLB miss, before the fill.
    TlbMiss {
        /// Global cycle.
        cycle: u64,
        /// Faulting core.
        core: u32,
        /// Faulting thread.
        thread: u32,
        /// Missing virtual page number.
        vpn: u64,
        /// `true` for a data miss, `false` for an instruction miss.
        data: bool,
    },
    /// A whole-TLB flush (thread migration cools both involved cores).
    TlbFlush {
        /// Global cycle.
        cycle: u64,
        /// Flushed core.
        core: u32,
    },
    /// A detection search began.
    SearchStart {
        /// Global cycle.
        cycle: u64,
        /// Detecting mechanism.
        mech: Mechanism,
        /// Core running (and paying for) the search.
        core: u32,
    },
    /// A detection search finished.
    SearchEnd {
        /// Global cycle (same as the matching start: searches are atomic
        /// in simulated time; their cost is `charged_cycles`).
        cycle: u64,
        /// Detecting mechanism.
        mech: Mechanism,
        /// Core that ran the search.
        core: u32,
        /// TLB entries (SM) or entry pairs (HM) compared.
        entries: u64,
        /// Matches found and recorded into the matrix.
        matches: u64,
        /// Overhead cycles charged to the core.
        charged_cycles: u64,
    },
    /// The communication matrix cell `(a, b)` grew by `amount`.
    MatrixInc {
        /// Global cycle.
        cycle: u64,
        /// First thread of the pair.
        a: u32,
        /// Second thread of the pair.
        b: u32,
        /// Units of communication added.
        amount: u64,
    },
    /// All threads crossed barrier `index`.
    Barrier {
        /// Release cycle.
        cycle: u64,
        /// Zero-based barrier index.
        index: u64,
    },
    /// A thread migrated between cores at a barrier.
    Migration {
        /// Release cycle of the triggering barrier.
        cycle: u64,
        /// Migrated thread.
        thread: u32,
        /// Previous core.
        from_core: u32,
        /// New core.
        to_core: u32,
    },
    /// A detection window diverged from its phase's reference pattern
    /// (phase change).
    PhaseChange {
        /// Global cycle.
        cycle: u64,
        /// Index of the window that closed.
        window: u64,
        /// The phase id the run just entered (phase 0 never emits).
        phase: u64,
        /// Cosine similarity to the reference pattern, scaled by 1e6
        /// (kept integral so traces stay byte-stable).
        similarity_ppm: u64,
    },
    /// A periodic communication-matrix snapshot was taken.
    Snapshot {
        /// Global cycle.
        cycle: u64,
        /// Zero-based snapshot index.
        index: u64,
    },
    /// One matching level of the hierarchical mapper completed.
    MapperRound {
        /// Matching level (0 = thread pairs).
        level: u32,
        /// Groups before merging.
        groups_before: u32,
        /// Groups after merging.
        groups_after: u32,
        /// Total communication weight captured by the matched pairs.
        weight: u64,
    },
    /// One mapping-service request completed, with its span timings.
    /// Times are host microseconds (the service runs off the wall clock,
    /// not the simulated one — `cycle()` reports 0 like `MapperRound`).
    ServeRequest {
        /// Request ID minted at accept: connection ID in the high bits,
        /// per-connection sequence number in the low 32.
        req_id: u64,
        /// Stable request-kind name (`map`, `health`, `stats`, `admin`,
        /// `shutdown`).
        kind: &'static str,
        /// Time from frame arrival to request parsed.
        parse_us: u64,
        /// Time spent waiting in the work queue (0 for inline requests).
        queue_us: u64,
        /// Time a worker spent computing (cache probe + mapper).
        compute_us: u64,
        /// Frame arrival to response ready.
        total_us: u64,
        /// Whether the result came from the cache.
        cached: bool,
        /// `"ok"` or the stable error-code name.
        outcome: &'static str,
    },
    /// A streaming session's drift judge crossed the remap threshold and a
    /// new mapping was installed. Times are host microseconds; like
    /// [`Event::ServeRequest`], `cycle()` reports 0.
    Remap {
        /// Session ID the remap belongs to.
        session: u64,
        /// Delta sequence number (within the session) that triggered it.
        seq: u64,
        /// Cosine similarity of the decayed window to the installed
        /// mapping's reference matrix, scaled by 1e6 (integral so traces
        /// stay byte-stable — the [`Event::PhaseChange`] convention).
        similarity_ppm: u64,
        /// Time spent recomputing the mapping.
        compute_us: u64,
    },
}

impl Event {
    /// Stable schema name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            Event::TlbMiss { .. } => "tlb_miss",
            Event::TlbFlush { .. } => "tlb_flush",
            Event::SearchStart { .. } => "search_start",
            Event::SearchEnd { .. } => "search_end",
            Event::MatrixInc { .. } => "matrix_inc",
            Event::Barrier { .. } => "barrier",
            Event::Migration { .. } => "migration",
            Event::PhaseChange { .. } => "phase_change",
            Event::Snapshot { .. } => "snapshot",
            Event::MapperRound { .. } => "mapper_round",
            Event::ServeRequest { .. } => "serve_request",
            Event::Remap { .. } => "remap",
        }
    }

    /// The cycle the event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::TlbMiss { cycle, .. }
            | Event::TlbFlush { cycle, .. }
            | Event::SearchStart { cycle, .. }
            | Event::SearchEnd { cycle, .. }
            | Event::MatrixInc { cycle, .. }
            | Event::Barrier { cycle, .. }
            | Event::Migration { cycle, .. }
            | Event::PhaseChange { cycle, .. }
            | Event::Snapshot { cycle, .. } => cycle,
            Event::MapperRound { .. } | Event::ServeRequest { .. } | Event::Remap { .. } => 0,
        }
    }

    /// JSONL representation: `{"ev":<name>,"cycle":...,<fields>}`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ev".to_string(), Json::Str(self.name().to_string())),
            ("cycle".to_string(), Json::U64(self.cycle())),
        ];
        let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
        match *self {
            Event::TlbMiss {
                core,
                thread,
                vpn,
                data,
                ..
            } => {
                push("core", Json::U64(core.into()));
                push("thread", Json::U64(thread.into()));
                push("vpn", Json::U64(vpn));
                push("data", Json::Bool(data));
            }
            Event::TlbFlush { core, .. } => push("core", Json::U64(core.into())),
            Event::SearchStart { mech, core, .. } => {
                push("mech", Json::Str(mech.as_str().to_string()));
                push("core", Json::U64(core.into()));
            }
            Event::SearchEnd {
                mech,
                core,
                entries,
                matches,
                charged_cycles,
                ..
            } => {
                push("mech", Json::Str(mech.as_str().to_string()));
                push("core", Json::U64(core.into()));
                push("entries", Json::U64(entries));
                push("matches", Json::U64(matches));
                push("charged_cycles", Json::U64(charged_cycles));
            }
            Event::MatrixInc { a, b, amount, .. } => {
                push("a", Json::U64(a.into()));
                push("b", Json::U64(b.into()));
                push("amount", Json::U64(amount));
            }
            Event::Barrier { index, .. } => push("index", Json::U64(index)),
            Event::Migration {
                thread,
                from_core,
                to_core,
                ..
            } => {
                push("thread", Json::U64(thread.into()));
                push("from_core", Json::U64(from_core.into()));
                push("to_core", Json::U64(to_core.into()));
            }
            Event::PhaseChange {
                window,
                phase,
                similarity_ppm,
                ..
            } => {
                push("window", Json::U64(window));
                push("phase", Json::U64(phase));
                push("similarity_ppm", Json::U64(similarity_ppm));
            }
            Event::Snapshot { index, .. } => push("index", Json::U64(index)),
            Event::MapperRound {
                level,
                groups_before,
                groups_after,
                weight,
            } => {
                push("level", Json::U64(level.into()));
                push("groups_before", Json::U64(groups_before.into()));
                push("groups_after", Json::U64(groups_after.into()));
                push("weight", Json::U64(weight));
            }
            Event::ServeRequest {
                req_id,
                kind,
                parse_us,
                queue_us,
                compute_us,
                total_us,
                cached,
                outcome,
            } => {
                push("req_id", Json::U64(req_id));
                push("kind", Json::Str(kind.to_string()));
                push("parse_us", Json::U64(parse_us));
                push("queue_us", Json::U64(queue_us));
                push("compute_us", Json::U64(compute_us));
                push("total_us", Json::U64(total_us));
                push("cached", Json::Bool(cached));
                push("outcome", Json::Str(outcome.to_string()));
            }
            Event::Remap {
                session,
                seq,
                similarity_ppm,
                compute_us,
            } => {
                push("session", Json::U64(session));
                push("seq", Json::U64(seq));
                push("similarity_ppm", Json::U64(similarity_ppm));
                push("compute_us", Json::U64(compute_us));
            }
        }
        Json::Obj(pairs)
    }

    /// Chrome `trace_event` representation. Searches render as complete
    /// (`ph:"X"`) slices whose duration is the charged overhead; everything
    /// else is an instant event on its core/thread track.
    pub fn to_chrome(&self) -> Json {
        let (ph, tid, dur) = match *self {
            Event::SearchEnd {
                core,
                charged_cycles,
                ..
            } => ("X", u64::from(core), Some(charged_cycles.max(1))),
            // Service requests render as complete slices whose duration
            // is the request's wall time in microseconds.
            Event::ServeRequest { total_us, .. } => ("X", 0, Some(total_us.max(1))),
            // Remaps render as slices on their session's track.
            Event::Remap {
                session,
                compute_us,
                ..
            } => ("X", session, Some(compute_us.max(1))),
            Event::TlbMiss { core, .. }
            | Event::TlbFlush { core, .. }
            | Event::SearchStart { core, .. } => ("i", u64::from(core), None),
            Event::Migration { thread, .. } => ("i", u64::from(thread), None),
            _ => ("i", 0, None),
        };
        let mut pairs = vec![
            ("name".to_string(), Json::Str(self.name().to_string())),
            ("ph".to_string(), Json::Str(ph.to_string())),
            ("ts".to_string(), Json::U64(self.cycle())),
            ("pid".to_string(), Json::U64(0)),
            ("tid".to_string(), Json::U64(tid)),
        ];
        if let Some(d) = dur {
            pairs.push(("dur".to_string(), Json::U64(d)));
        }
        if ph == "i" {
            // Instant scope: thread-local.
            pairs.push(("s".to_string(), Json::Str("t".to_string())));
        }
        pairs.push(("args".to_string(), self.to_json()));
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape_is_stable() {
        let e = Event::TlbMiss {
            cycle: 1234,
            core: 3,
            thread: 5,
            vpn: 0x77,
            data: true,
        };
        assert_eq!(
            e.to_json().render(),
            "{\"ev\":\"tlb_miss\",\"cycle\":1234,\"core\":3,\"thread\":5,\"vpn\":119,\"data\":true}"
        );
    }

    #[test]
    fn search_end_renders_duration_in_chrome() {
        let e = Event::SearchEnd {
            cycle: 100,
            mech: Mechanism::Sm,
            core: 2,
            entries: 28,
            matches: 3,
            charged_cycles: 231,
        };
        let chrome = e.to_chrome();
        assert_eq!(chrome.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(chrome.get("dur").unwrap().as_u64(), Some(231));
        assert_eq!(chrome.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(
            chrome.get("args").unwrap().get("mech").unwrap().as_str(),
            Some("sm")
        );
    }

    #[test]
    fn every_event_names_itself() {
        let events = [
            Event::TlbMiss {
                cycle: 0,
                core: 0,
                thread: 0,
                vpn: 0,
                data: false,
            },
            Event::TlbFlush { cycle: 0, core: 0 },
            Event::SearchStart {
                cycle: 0,
                mech: Mechanism::Hm,
                core: 0,
            },
            Event::SearchEnd {
                cycle: 0,
                mech: Mechanism::GroundTruth,
                core: 0,
                entries: 0,
                matches: 0,
                charged_cycles: 0,
            },
            Event::MatrixInc {
                cycle: 0,
                a: 0,
                b: 1,
                amount: 1,
            },
            Event::Barrier { cycle: 0, index: 0 },
            Event::Migration {
                cycle: 0,
                thread: 0,
                from_core: 0,
                to_core: 1,
            },
            Event::PhaseChange {
                cycle: 0,
                window: 0,
                phase: 1,
                similarity_ppm: 0,
            },
            Event::Snapshot { cycle: 0, index: 0 },
            Event::MapperRound {
                level: 0,
                groups_before: 8,
                groups_after: 4,
                weight: 9,
            },
            Event::ServeRequest {
                req_id: (7 << 32) | 3,
                kind: "map",
                parse_us: 12,
                queue_us: 80,
                compute_us: 150,
                total_us: 260,
                cached: false,
                outcome: "ok",
            },
            Event::Remap {
                session: 2,
                seq: 17,
                similarity_ppm: 431_000,
                compute_us: 90,
            },
        ];
        let mut names: Vec<_> = events.iter().map(|e| e.name()).collect();
        names.dedup();
        assert_eq!(names.len(), events.len(), "names must be distinct");
        for e in &events {
            let rendered = e.to_json().render();
            assert!(rendered.contains(e.name()));
            // Every event parses back as valid JSON.
            assert!(crate::json::Json::parse(&rendered).is_ok());
            assert!(crate::json::Json::parse(&e.to_chrome().render()).is_ok());
        }
    }
}
