//! Where a `map` request's codec time goes, step by step.
//!
//! Builds `N` distinct 64-thread `map` requests shaped like the mapping
//! service's benchmark requests (32 heavy pairs in a shuffled pairing plus
//! 64 light random cells, on `Topology::scaled(64)`) and times each step
//! of each request on its own:
//!
//! - `to_json`: `Request::to_json`, building the request tree;
//! - `render`: `Json::render` of that tree;
//! - `request_drop`: dropping it;
//! - `encode`: `write_frame` of a fresh `to_json` (the client's send);
//! - `parse`: `Json::parse` of the payload;
//! - `from_json`: `Request::from_json` of the parsed tree;
//! - `parsed_drop`: dropping the parsed tree;
//! - `decode`: `read_frame` plus `Request::from_json` (what the client
//!   and the server pay to read a frame);
//! - `fingerprint`: `CommMatrix::fingerprint`, the cache key every `map`
//!   computes, hit or miss.
//!
//! Prints each step's median over the requests in µs, then the length and
//! FNV-1a digest of all frames, which change if any byte on the wire does.
//!
//! Run with:
//! `cargo run --release -p tlbmap-serve --example codec_steps -- [N] [SEED]`
//! (defaults 400 and 1).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;
use tlbmap_core::CommMatrix;
use tlbmap_obs::Json;
use tlbmap_serve::protocol::{read_frame, write_frame};
use tlbmap_serve::Request;
use tlbmap_sim::Topology;

const THREADS: usize = 64;
const STEPS: [&str; 9] = [
    "to_json",
    "render",
    "request_drop",
    "encode",
    "parse",
    "from_json",
    "parsed_drop",
    "decode",
    "fingerprint",
];

/// A request matrix: heavy shuffled pairs and light random cells.
fn pair_matrix(n: usize, rng: &mut SmallRng) -> CommMatrix {
    let mut m = CommMatrix::new(n);
    let mut threads: Vec<usize> = (0..n).collect();
    threads.shuffle(rng);
    for pair in threads.chunks(2) {
        m.add(pair[0], pair[1], rng.gen_range(1_000..5_000));
    }
    for _ in 0..n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            m.add(a, b, rng.gen_range(1..100));
        }
    }
    m
}

/// Microseconds that `f` took, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_secs_f64() * 1e6, out)
}

fn arg(i: usize, default: u64) -> u64 {
    std::env::args()
        .nth(i)
        .map(|a| a.parse().expect("arguments are N and SEED"))
        .unwrap_or(default)
}

fn main() {
    let (count, seed) = (arg(1, 400).max(1) as usize, arg(2, 1));
    let topo = Topology::scaled(THREADS).expect("64 is a power of two");
    let mut rng = SmallRng::seed_from_u64(seed);
    let requests: Vec<Request> = (0..count)
        .map(|_| Request::Map {
            matrix: pair_matrix(THREADS, &mut rng),
            topo,
            deadline_ms: None,
            delay_ms: 0,
        })
        .collect();

    let mut times = vec![Vec::with_capacity(count); STEPS.len()];
    let (mut bytes, mut digest) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for request in &requests {
        let (to_json, tree) = timed(|| request.to_json());
        let (render, text) = timed(|| tree.render());
        let (request_drop, ()) = timed(|| drop(tree));
        let (encode, frame) = timed(|| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &request.to_json()).expect("writing to memory cannot fail");
            frame
        });
        let (parse, parsed) = timed(|| Json::parse(&text).expect("a rendered tree parses"));
        let (from_json, decoded) = timed(|| Request::from_json(&parsed));
        let (parsed_drop, ()) = timed(|| drop(parsed));
        let (decode, read) = timed(|| {
            read_frame(&mut Cursor::new(&frame), usize::MAX)
                .map_err(|e| e.to_string())
                .and_then(|json| Request::from_json(&json))
        });
        let Request::Map { matrix, .. } = request else {
            unreachable!("every request is a map");
        };
        let (fingerprint, _) = timed(|| matrix.fingerprint());
        assert!(decoded.as_ref() == Ok(request) && read.as_ref() == Ok(request));
        for (step, us) in [
            to_json,
            render,
            request_drop,
            encode,
            parse,
            from_json,
            parsed_drop,
            decode,
            fingerprint,
        ]
        .into_iter()
        .enumerate()
        {
            times[step].push(us);
        }
        bytes += frame.len();
        for &b in &frame {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    println!("{count} map requests of {THREADS} threads, seed {seed}, median us per request");
    for (name, mut us) in STEPS.into_iter().zip(times) {
        us.sort_by(f64::total_cmp);
        println!("{name:<12} {:>8.2}", us[us.len() / 2]);
    }
    println!("frames {bytes} bytes, digest {digest:016x}");
}
