//! List ranking by pointer jumping — the classic CREW PRAM primitive.
//!
//! Given a linked list (`next[v]` = successor; the terminal points to
//! itself), compute each node's distance to the terminal in ⌈log₂ n⌉
//! lock-step rounds: every round, `rank[v] += rank[next[v]]` and
//! `next[v] = next[next[v]]`. Reads are concurrent (many nodes share a
//! successor mid-contraction), writes are exclusive (each node writes only
//! its own slots) — CREW, no write arbitration needed. It is here as the
//! second half of the paper's future-work comparison axis (exclusive-write
//! algorithms on the same substrate as the CRCW kernels) and as a
//! non-graph exercise of the lock-step driver.
//!
//! Work O(n log n), depth O(log n) — the textbook non-optimal version;
//! the optimal O(n)-work variant (sparse ruling sets) is noted as an
//! extension in DESIGN.md.

use std::sync::atomic::{AtomicU32, Ordering};

use pram_exec::ThreadPool;

/// Distance of every node to its chain's terminal (`next[v] == v`).
///
/// # Panics
/// Panics if `next` has out-of-range successors or more than `u32::MAX`
/// nodes.
///
/// ```
/// use pram_algos::list_rank::list_rank;
/// use pram_exec::ThreadPool;
///
/// // 2 -> 0 -> 1 -> 1 (terminal)
/// let pool = ThreadPool::new(2);
/// assert_eq!(list_rank(&[1, 1, 0], &pool), vec![1, 0, 2]);
/// ```
pub fn list_rank(next: &[u32], pool: &ThreadPool) -> Vec<u32> {
    let n = next.len();
    assert!(n <= u32::MAX as usize, "node ids are u32");
    for (v, &s) in next.iter().enumerate() {
        assert!((s as usize) < n, "next[{v}] = {s} out of range");
    }
    if n == 0 {
        return vec![];
    }

    // Double-buffered (rank, next) so every round is read-then-write clean.
    let rank: [Vec<AtomicU32>; 2] = [
        next.iter()
            .enumerate()
            .map(|(v, &s)| AtomicU32::new(u32::from(s as usize != v)))
            .collect(),
        (0..n).map(|_| AtomicU32::new(0)).collect(),
    ];
    let nxt: [Vec<AtomicU32>; 2] = [
        next.iter().map(|&s| AtomicU32::new(s)).collect(),
        (0..n).map(|_| AtomicU32::new(0)).collect(),
    ];

    let rounds_run = pool.run(|ctx| {
        // log2(n) jumps suffice; converge_rounds stops earlier when no
        // pointer moved.
        let max_rounds = (usize::BITS - n.leading_zeros()) + 1;
        let c = ctx.converge_rounds(max_rounds, [0, 0], |round, _| {
            let mut moved = 0;
            let cur = ((round.get() - 1) % 2) as usize;
            let (rs, rd) = (&rank[cur], &rank[1 - cur]);
            let (ns, nd) = (&nxt[cur], &nxt[1 - cur]);
            // The round's closing rendezvous orders these writes before the
            // next round's reads.
            ctx.for_each_nowait(0..n, |v| {
                let s = ns[v].load(Ordering::Relaxed) as usize;
                let jumped = ns[s].load(Ordering::Relaxed); // concurrent read
                rd[v].store(
                    rs[v].load(Ordering::Relaxed) + rs[s].load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                nd[v].store(jumped, Ordering::Relaxed); // exclusive write
                if jumped as usize != s {
                    moved += 1;
                }
            });
            [moved, 0]
        });
        c.rounds
    });

    // Round i writes buffer i % 2, so after r rounds the ranks live in
    // buffer r % 2.
    let last = (rounds_run % 2) as usize;
    rank[last]
        .iter()
        .map(|r| r.load(Ordering::Relaxed))
        .collect()
}

/// Serial reference: rank by walking each chain once from its terminal.
pub fn list_rank_serial(next: &[u32]) -> Vec<u32> {
    let n = next.len();
    let mut rank = vec![u32::MAX; n];
    for start in 0..n {
        if rank[start] != u32::MAX {
            continue;
        }
        // Walk to the terminal (or a node with a known rank), stacking.
        let mut path = vec![];
        let mut v = start as u32;
        while rank[v as usize] == u32::MAX && next[v as usize] != v {
            path.push(v);
            rank[v as usize] = u32::MAX - 1; // visiting marker
            v = next[v as usize];
            if rank[v as usize] == u32::MAX - 1 {
                panic!("next[] contains a cycle");
            }
        }
        let mut base = if next[v as usize] == v {
            rank[v as usize] = if rank[v as usize] == u32::MAX {
                0
            } else {
                rank[v as usize]
            };
            rank[v as usize]
        } else {
            rank[v as usize]
        };
        for &u in path.iter().rev() {
            base += 1;
            rank[u as usize] = base;
        }
    }
    rank
}

/// A random list over `n` nodes (seeded): returns `next` and the head.
/// Node order is a random permutation; the last node is the terminal.
pub fn random_list(n: usize, seed: u64) -> (Vec<u32>, u32) {
    assert!(n > 0);
    // Fisher–Yates with a splitmix-style generator (no extra deps).
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut rand = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (rand() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0u32; n];
    for w in order.windows(2) {
        next[w[0] as usize] = w[1];
    }
    let last = *order.last().unwrap();
    next[last as usize] = last;
    (next, order[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chains() {
        let pool = ThreadPool::new(2);
        // 0 -> 1 -> 2 -> 2
        assert_eq!(list_rank(&[1, 2, 2], &pool), vec![2, 1, 0]);
        // Single node.
        assert_eq!(list_rank(&[0], &pool), vec![0]);
        // Empty.
        assert_eq!(list_rank(&[], &pool), Vec::<u32>::new());
    }

    #[test]
    fn serial_reference_is_sound() {
        assert_eq!(list_rank_serial(&[1, 2, 2]), vec![2, 1, 0]);
        assert_eq!(list_rank_serial(&[0, 0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn random_lists_match_serial() {
        let pool = ThreadPool::new(4);
        for n in [2usize, 3, 5, 17, 64, 257, 1000] {
            for seed in 0..3 {
                let (next, head) = random_list(n, seed);
                let got = list_rank(&next, &pool);
                let expect = list_rank_serial(&next);
                assert_eq!(got, expect, "n = {n} seed = {seed}");
                assert_eq!(got[head as usize], n as u32 - 1, "head has max rank");
            }
        }
    }

    #[test]
    fn multiple_disjoint_chains() {
        let pool = ThreadPool::new(3);
        // Two chains: 0->1->1 and 3->2->2; 4 isolated terminal.
        let next = vec![1, 1, 2, 2, 4];
        assert_eq!(list_rank(&next, &pool), list_rank_serial(&next));
        assert_eq!(list_rank(&next, &pool), vec![1, 0, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn serial_detects_cycles() {
        let _ = list_rank_serial(&[1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn parallel_rejects_bad_successor() {
        let pool = ThreadPool::new(1);
        let _ = list_rank(&[5], &pool);
    }
}
