//! Property tests of request decoding: whatever sizes a client names,
//! `Request::from_json` answers with a value or an error — it never
//! panics and never tries to allocate what the frame only claims.

use proptest::prelude::*;
use tlbmap_obs::Json;
use tlbmap_serve::{Request, MAX_SESSION_THREADS};

/// A size as a hostile client would pick it: mostly plausible, often near
/// the session cap or the old 2^16 arity limit, sometimes far beyond.
fn size() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=8,
        0u64..=(2 * MAX_SESSION_THREADS as u64),
        0u64..=(1 << 16),
        (1u64 << 16)..=(1 << 17),
        (1u64 << 17)..=u64::MAX,
    ]
}

fn topology(chips: u64, l2_per_chip: u64, cores_per_l2: u64) -> Json {
    Json::obj(vec![
        ("chips", Json::U64(chips)),
        ("l2_per_chip", Json::U64(l2_per_chip)),
        ("cores_per_l2", Json::U64(cores_per_l2)),
    ])
}

/// A `map` matrix claiming `n` threads. Small claims carry a full (valid)
/// zero matrix; larger ones carry `n` empty rows, so the row count agrees
/// with `n` while the cells do not.
fn matrix(n: u64) -> Json {
    let rows = if n <= 16 {
        (0..n)
            .map(|_| Json::Arr((0..n).map(|_| Json::U64(0)).collect()))
            .collect()
    } else if n <= 1 << 17 {
        (0..n).map(|_| Json::Arr(Vec::new())).collect()
    } else {
        vec![Json::Arr(Vec::new()); 3]
    };
    Json::obj(vec![("n", Json::U64(n)), ("rows", Json::Arr(rows))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn session_requests_decode_within_the_thread_cap(
        (chips, l2_per_chip, cores_per_l2) in (size(), size(), size()),
        n in size(),
        cells in prop::collection::vec((0u64..300, 0u64..300, 0u64..1000), 0..6),
    ) {
        let open = Json::obj(vec![
            ("v", Json::U64(1)),
            ("req", Json::Str("open_session".into())),
            ("topology", topology(chips, l2_per_chip, cores_per_l2)),
        ]);
        if let Ok(Request::OpenSession { topo, .. }) = Request::from_json(&open) {
            prop_assert!(topo.num_cores() <= MAX_SESSION_THREADS);
        }

        let cells = cells
            .into_iter()
            .map(|(i, j, v)| Json::Arr(vec![Json::U64(i), Json::U64(j), Json::U64(v)]))
            .collect();
        let delta = Json::obj(vec![
            ("v", Json::U64(1)),
            ("req", Json::Str("delta".into())),
            ("session", Json::U64(1)),
            ("n", Json::U64(n)),
            ("cells", Json::Arr(cells)),
        ]);
        if let Ok(Request::Delta { delta, .. }) = Request::from_json(&delta) {
            prop_assert!((1..=MAX_SESSION_THREADS).contains(&delta.num_threads()));
        }
    }

    #[test]
    fn map_requests_decode_without_sizing_by_the_claim(
        n in size(),
        (chips, l2_per_chip, cores_per_l2) in (size(), size(), size()),
    ) {
        let map = Json::obj(vec![
            ("v", Json::U64(1)),
            ("req", Json::Str("map".into())),
            ("matrix", matrix(n)),
            ("topology", topology(chips, l2_per_chip, cores_per_l2)),
        ]);
        if let Ok(Request::Map { matrix, .. }) = Request::from_json(&map) {
            prop_assert!(matrix.num_threads() as u64 == n && n <= 16);
        }
    }
}
