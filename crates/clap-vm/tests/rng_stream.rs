//! Pins the random stream that picks every recorded run: the scheduler
//! and the checker's program generators draw from it, so a change to any
//! of these values re-records every workload. Each table holds a fresh
//! generator's first outputs for the seeds 0, 1, 42 and `u64::MAX`.

use clap_vm::Rng;

const SEEDS: [u64; 4] = [0, 1, 42, u64::MAX];

fn rng(seed: u64) -> Rng {
    Rng::new(seed)
}

#[test]
fn raw_outputs_are_pinned() {
    let expected: [[u64; 4]; 4] = [
        [
            0x53175d61490b23df,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
        ],
        [
            0xcfc5d07f6f03c29b,
            0xbf424132963fe08d,
            0x19a37d5757aaf520,
            0xbf08119f05cd56d6,
        ],
        [
            0xd0764d4f4476689f,
            0x519e4174576f3791,
            0xfbe07cfb0c24ed8c,
            0xb37d9f600cd835b8,
        ],
        [
            0x56ccf8ce948e27b2,
            0xe68588432e5a5b90,
            0xe3e9b5a48119ca8b,
            0x460f19495532ae73,
        ],
    ];
    for (seed, want) in SEEDS.into_iter().zip(expected) {
        let mut r = rng(seed);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn uniform_draws_are_pinned() {
    // Per seed: eight draws from `0..n` for n = 1, 2, 3, 7 and 1000, then
    // eight from `1..6` as `i64`.
    let expected: [[[i64; 8]; 6]; 4] = [
        [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0, 1],
            [2, 1, 1, 1, 1, 0, 2, 1],
            [1, 2, 2, 6, 4, 5, 0, 3],
            [503, 255, 180, 330, 874, 858, 806, 553],
            [4, 1, 1, 1, 5, 4, 2, 4],
        ],
        [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 1, 1, 1],
            [2, 2, 1, 0, 2, 2, 2, 2],
            [1, 2, 4, 0, 4, 0, 1, 0],
            [387, 965, 744, 470, 780, 485, 223, 345],
            [3, 1, 5, 1, 1, 1, 4, 1],
        ],
        [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 1, 1, 0, 0],
            [1, 2, 0, 1, 2, 1, 2, 0],
            [3, 0, 5, 3, 2, 0, 0, 2],
            [951, 753, 100, 464, 331, 965, 78, 430],
            [2, 4, 1, 5, 2, 1, 4, 1],
        ],
        [
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 0, 0, 1],
            [0, 1, 1, 1, 2, 2, 0, 1],
            [2, 3, 2, 2, 4, 3, 2, 1],
            [986, 512, 435, 187, 841, 780, 24, 655],
            [2, 3, 1, 3, 2, 1, 5, 1],
        ],
    ];
    for (seed, want) in SEEDS.into_iter().zip(expected) {
        for (n, want) in [1usize, 2, 3, 7, 1000].into_iter().zip(&want) {
            let mut r = rng(seed);
            let got: Vec<i64> = (0..8).map(|_| r.below(n) as i64).collect();
            assert_eq!(got, want, "seed {seed}, 0..{n}");
        }
        let mut r = rng(seed);
        let got: Vec<i64> = (0..8).map(|_| 1 + r.below(5) as i64).collect();
        assert_eq!(got, want[5], "seed {seed}, 1..6");
    }
}

#[test]
fn coin_flips_are_pinned() {
    // Per seed: sixteen flips at p = 0.0, 0.3, 0.9 and 1.0, `1` for true.
    let expected: [[&str; 4]; 4] = [
        [
            "0000000000000000",
            "0001010011011110",
            "1111111111111111",
            "1111111111111111",
        ],
        [
            "0000000000000000",
            "0010100011001011",
            "1111110111011111",
            "1111111111111111",
        ],
        [
            "0000000000000000",
            "0000001010000100",
            "1101111110111111",
            "1111111111111111",
        ],
        [
            "0000000000000000",
            "0001000000000110",
            "1011111111110111",
            "1111111111111111",
        ],
    ];
    for (seed, want) in SEEDS.into_iter().zip(expected) {
        for (p, want) in [0.0, 0.3, 0.9, 1.0].into_iter().zip(want) {
            let mut r = rng(seed);
            let got: String = (0..16)
                .map(|_| if r.chance(p) { '1' } else { '0' })
                .collect();
            assert_eq!(got, want, "seed {seed}, p = {p}");
        }
    }
}
