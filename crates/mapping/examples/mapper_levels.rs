//! Where a hierarchical map's time goes, level by level.
//!
//! Maps `N` distinct 64-thread matrices shaped like the mapping service's
//! benchmark requests (32 heavy pairs in a shuffled pairing plus 64 light
//! random cells) onto `Topology::scaled(64)`. For each matching level it
//! prints the group count, how many levels the O(n²) certified pairing
//! decided, the time to build the level's group weights and the time to
//! match them; then the time of a whole `HierarchicalMapper::map` and a
//! digest of all mappings, which changes if any choice does. Times are
//! means per matrix; each figure is the median over `REPS` passes.
//!
//! Run with:
//! `cargo run --release -p tlbmap-mapping --example mapper_levels -- [N] [SEED] [REPS]`
//! (defaults 200, 1 and 7).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tlbmap_core::CommMatrix;
use tlbmap_mapping::hierarchy_map::Levels;
use tlbmap_mapping::{certified_unique_pairing, HierarchicalMapper};
use tlbmap_sim::Topology;

const THREADS: usize = 64;

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

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn arg(i: usize, default: u64) -> u64 {
    std::env::args()
        .nth(i)
        .map(|a| a.parse().expect("arguments are N, SEED and REPS"))
        .unwrap_or(default)
}

fn main() {
    let (count, seed, reps) = (arg(1, 200) as usize, arg(2, 1), arg(3, 7).max(1));
    let topo = Topology::scaled(THREADS).expect("64 is a power of two");
    let mut rng = SmallRng::seed_from_u64(seed);
    let matrices: Vec<CommMatrix> = (0..count).map(|_| pair_matrix(THREADS, &mut rng)).collect();
    let mapper = HierarchicalMapper::new();
    let levels = THREADS.trailing_zeros() as usize;

    // Which levels the certified pairing decides (the rest run the blossom).
    let mut certified = vec![0usize; levels];
    for m in &matrices {
        let mut state = Levels::new(m).expect("matrix within the bound");
        for c in certified.iter_mut() {
            let (g, w) = (state.groups(), state.weights());
            if certified_unique_pairing(g, &|i, j| w[i * g + j]).is_some() {
                *c += 1;
            }
            state.pair();
            state.merge();
        }
    }

    let (mut weights, mut matching) = (vec![Vec::new(); levels], vec![Vec::new(); levels]);
    let mut whole = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for rep in 0..reps {
        let (mut wsum, mut msum) = (vec![0f64; levels], vec![0f64; levels]);
        for m in &matrices {
            let t = Instant::now();
            let mut state = Levels::new(m).expect("matrix within the bound");
            wsum[0] += t.elapsed().as_secs_f64();
            for level in 0..levels {
                let t = Instant::now();
                std::hint::black_box(state.pair());
                msum[level] += t.elapsed().as_secs_f64();
                let t = Instant::now();
                state.merge();
                if level + 1 < levels {
                    wsum[level + 1] += t.elapsed().as_secs_f64();
                }
            }
        }
        let t = Instant::now();
        for m in &matrices {
            let mapping = mapper.map(std::hint::black_box(m), &topo);
            if rep == 0 {
                for &core in mapping.as_slice() {
                    digest = (digest ^ core as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        whole.push(t.elapsed().as_secs_f64() * 1e6 / count as f64);
        for level in 0..levels {
            weights[level].push(wsum[level] * 1e6 / count as f64);
            matching[level].push(msum[level] * 1e6 / count as f64);
        }
    }

    println!("{count} matrices of {THREADS} threads, seed {seed}, median of {reps} passes");
    println!("level  groups  certified  weights_us  matching_us");
    for level in 0..levels {
        println!(
            "{level:>5}  {:>6}  {:>5}/{count:<3}  {:>10.1}  {:>11.1}",
            THREADS >> level,
            certified[level],
            median(weights[level].clone()),
            median(matching[level].clone()),
        );
    }
    println!("whole map {:.1} us", median(whole));
    println!("mapping digest {digest:016x}");
}
