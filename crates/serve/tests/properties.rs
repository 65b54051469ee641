//! Property tests of request decoding: whatever sizes a client names,
//! `Request::from_json` answers with a value or an error — it never
//! panics and never tries to allocate what the frame only claims. And of
//! streaming sessions: every remap is the one-shot map of the window.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tlbmap_core::{CommMatrix, DecayedMatrix};
use tlbmap_mapping::HierarchicalMapper;
use tlbmap_obs::{Json, Recorder};
use tlbmap_serve::{DeltaDecision, Request, ServeConfig, SessionRegistry, MAX_SESSION_THREADS};
use tlbmap_sim::Topology;

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

/// One `delta` cell as a hostile client would send it: mostly small
/// ordered pairs (so cells repeat), sometimes out of range or not
/// upper-triangle, with amounts that are small, near `u64::MAX`, or
/// anything.
fn cell() -> impl Strategy<Value = (u64, u64, u64)> {
    let index = || {
        prop_oneof![
            16 => 0u64..4,
            1 => 0u64..=(MAX_SESSION_THREADS as u64 + 1),
            1 => any::<u64>(),
        ]
    };
    let amount = prop_oneof![
        4 => 0u64..1000,
        2 => (u64::MAX - 1000)..=u64::MAX,
        1 => any::<u64>(),
    ];
    (index(), index(), amount, prop::bool::weighted(0.9)).prop_map(|(a, b, v, ordered)| {
        if ordered {
            (a.min(b), a.max(b), v)
        } else {
            (a, b, v)
        }
    })
}

/// A cell as the wire carries it; `mutation` < 3 breaks it into something
/// that is not an `[i, j, amount]` triple of unsigned integers.
fn render((i, j, v): (u64, u64, u64), mutation: u64) -> Json {
    let amount = match mutation {
        0 => Json::I64(-1),
        1 => Json::Str("7".into()),
        _ => Json::U64(v),
    };
    let mut triple = vec![Json::U64(i), Json::U64(j), amount];
    if mutation == 2 {
        triple.pop();
    }
    Json::Arr(triple)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_cells_sum_with_checked_arithmetic(
        n in prop_oneof![3 => 1u64..=8, 1 => 1u64..=(MAX_SESSION_THREADS as u64)],
        cells in prop::collection::vec((cell(), 0u64..64), 0..8),
    ) {
        // The model: every triple well formed and upper-triangle within
        // `n`, and every pair's amounts summing within u64.
        let mut valid = true;
        let mut sums = std::collections::BTreeMap::new();
        for &((i, j, v), mutation) in &cells {
            valid &= mutation >= 3 && i < j && j < n;
            if valid {
                let sum = sums.entry((i as usize, j as usize)).or_insert(Some(0u64));
                *sum = sum.and_then(|s: u64| s.checked_add(v));
                valid &= sum.is_some();
            }
        }
        let rendered = cells.iter().map(|&(c, mutation)| render(c, mutation)).collect();
        let frame = Json::obj(vec![
            ("v", Json::U64(1)),
            ("req", Json::Str("delta".into())),
            ("session", Json::U64(1)),
            ("n", Json::U64(n)),
            ("cells", Json::Arr(rendered)),
        ]);
        match Request::from_json(&frame) {
            Ok(Request::Delta { delta, .. }) => {
                prop_assert!(valid, "accepted an invalid frame");
                prop_assert_eq!(delta.num_threads() as u64, n);
                for (i, j, v) in delta.pairs() {
                    let want = sums.get(&(i, j)).copied().flatten().unwrap_or(0);
                    prop_assert_eq!(v, want);
                }
            }
            Ok(other) => prop_assert!(false, "decoded {other:?}"),
            Err(_) => prop_assert!(!valid, "refused a valid frame"),
        }
    }
}

/// A session delta for `n` threads: a random perfect pairing carrying
/// heavy traffic over light noise, or (`tie_heavy`) every pair at weight
/// 1 or 2, where many pairings tie for the optimum.
fn session_delta(n: usize, tie_heavy: bool, rng: &mut SmallRng) -> CommMatrix {
    let mut delta = CommMatrix::new(n);
    if tie_heavy {
        for i in 0..n {
            for j in i + 1..n {
                delta.add(i, j, rng.gen_range(1..=2));
            }
        }
    } else {
        let mut threads: Vec<usize> = (0..n).collect();
        threads.shuffle(rng);
        for pair in threads.chunks(2) {
            delta.add(pair[0], pair[1], rng.gen_range(100..1000));
        }
        for _ in 0..n {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            delta.add(i, j, rng.gen_range(0..4));
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A session remap maps its decayed window exactly as a one-shot
    /// `HierarchicalMapper::map` of that window does, whatever the decay,
    /// threshold and cooldown, on pair-structured and tie-heavy streams.
    #[test]
    fn session_remaps_equal_one_shot_maps(
        n in prop::sample::select(vec![8usize, 16, 32]),
        seed in any::<u64>(),
        tie_share in prop::sample::select(vec![0.0f64, 0.5, 1.0]),
        deltas in 1usize..24,
        shift in 0u32..4,
        threshold_ppm in prop_oneof![1 => 0u64..=1_000_000, 3 => 900_000u64..=1_000_000],
        cooldown in 0u64..3,
    ) {
        let topo = Topology::scaled(n).unwrap();
        let (mapper, rec) = (HierarchicalMapper::new(), Recorder::disabled());
        let registry = SessionRegistry::new(&ServeConfig::new());
        let (id, initial) = registry
            .open(topo, Some(shift), Some(threshold_ppm), Some(cooldown), &rec)
            .unwrap();
        let mut mirror = DecayedMatrix::new(n, shift);
        prop_assert_eq!(initial, mapper.map(mirror.window(), &topo).as_slice().to_vec());
        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..deltas {
            let delta = session_delta(n, rng.gen_bool(tie_share), &mut rng);
            mirror.ingest(&delta);
            let outcome = registry.delta(id, &delta, &rec).unwrap();
            if outcome.decision == DeltaDecision::Remap {
                let one_shot = mapper.map(mirror.window(), &topo);
                prop_assert_eq!(
                    outcome.mapping.as_deref(),
                    Some(one_shot.as_slice()),
                    "delta {} of {n} threads, shift {shift}, threshold {threshold_ppm}, \
                     cooldown {cooldown}: session {:?}, one-shot {:?}",
                    step + 1,
                    outcome.mapping,
                    one_shot.as_slice()
                );
            }
        }
    }
}
