//! Host-speed calibration. The reference host is a 2-vCPU virtual machine
//! whose speed drifts by up to +-20 % over tens of seconds (a plain
//! arithmetic loop shows it), which is more than any bound this benchmark
//! could hold a change to. So every timed op is preceded by two fixed
//! kernels of the benchmark's own — plain Rust, none of the system under
//! test — and the op's time is reported at reference speed: `op_ms *
//! NOMINAL_MS / kernel_ms`, where `kernel_ms` is the geometric mean of the
//! two. A change to the system moves the op and not the kernels, so it
//! still shows in full; the drift of the host moves both and cancels.
//!
//! Two kernels because the host drifts in two ways that move code
//! differently, and no single kernel followed every kind of op. Over
//! twelve 20 s windows of identical code (spread = interquartile range of
//! the window medians over their median):
//!
//! | op (team of 1)   | raw     | / gather | / interp | / both |
//! |------------------|---------|----------|----------|--------|
//! | `cg` `ep` `is`   | 5-9 %   | 2-4 %    | 10-15 %  | 5-7 %  |
//! | `dyn` `stencil`  | 10-13 % | 4-9 %    | 2-4 %    | 2-4 %  |
//!
//! The native kernels of the NPB ports follow memory latency (the gather
//! kernel); templates and the bytecode interpreter follow how fast branchy
//! code runs (the interpreter kernel, which swings by 25 % when the
//! gather kernel moves by 10 %). The geometric mean is within a few per
//! cent for both and needs no per-kind choice.

use std::hint::black_box;
use std::time::Instant;

/// What `kernel_ms` usually is on the reference host. Only a scale: it
/// makes normalised times read like milliseconds of that host.
pub const NOMINAL_MS: f64 = 2.9;

const TABLE_WORDS: usize = 1 << 16;
const GATHER_STEPS: usize = 400_000;
const PROGRAM_WORDS: usize = 1 << 12;
const INTERP_STEPS: usize = 600_000;

pub struct Calibrator {
    /// 512 KiB: L2-resident between the ops that evict it.
    table: Vec<u64>,
    /// A fixed pseudo-random program for the interpreter kernel.
    program: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x1234_5678_9abc_def0u64;
        let program = (0..PROGRAM_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u32
            })
            .collect();
        Calibrator {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i * 0x2545_f491 + 1)
                .collect(),
            program,
        }
    }

    /// Milliseconds the kernels take right now on the calling thread
    /// (geometric mean of the two).
    pub fn measure(&mut self) -> f64 {
        (self.gather() * self.interp()).sqrt()
    }

    /// A dependent chain of table gathers with integer and float mixing:
    /// bound by cache and memory latency.
    fn gather(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut f = 1.0f64;
        for _ in 0..GATHER_STEPS {
            let i = (x >> 40) as usize % TABLE_WORDS;
            x = (x ^ self.table[i])
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .rotate_left(17);
            f = f * 0.999_999 + (x >> 60) as f64;
            self.table[i] = x;
        }
        black_box((x, f));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// A 16-opcode register machine running the fixed program: decode,
    /// dispatch, data-dependent branches — bound the way an interpreter is.
    fn interp(&mut self) -> f64 {
        const PC_MASK: usize = PROGRAM_WORDS - 1;
        let t0 = Instant::now();
        let mut r = [1u64, 2, 3, 5, 7, 11, 13, 17];
        let mut f = 1.0f64;
        let mut pc = 0usize;
        for _ in 0..INTERP_STEPS {
            let ins = self.program[pc];
            pc = (pc + 1) & PC_MASK;
            let a = (ins >> 4 & 7) as usize;
            let b = (ins >> 7 & 7) as usize;
            let imm = (ins >> 10 & 63) as usize;
            match ins & 15 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b].rotate_left(13),
                2 => r[a] = r[a].wrapping_mul(0x9e37_79b9_7f4a_7c15),
                3 => r[a] = self.table[(r[b] >> 40) as usize % TABLE_WORDS],
                4 => self.table[(r[b] >> 40) as usize % TABLE_WORDS] = r[a],
                5 if r[a] & 1 == 0 => pc = (pc + imm) & PC_MASK,
                5 => {}
                6 => f = f * 0.999_99 + (r[a] >> 60) as f64,
                7 => r[a] = r[a] >> 1 | r[b] << 63,
                8 if r[a] > r[b] => r[a] = r[a].wrapping_sub(r[b]),
                8 => r[b] = r[b].wrapping_sub(r[a]),
                9 => r[a] = r[a].wrapping_add(imm as u64),
                10 if r[a] & 3 == 0 => pc = (pc + PROGRAM_WORDS - imm) & PC_MASK,
                10 => {}
                11 => r[a] ^= r[b] >> (imm & 31),
                12 => f += (r[b] & 0xff) as f64 * 0.5,
                13 if f > 1e6 => {
                    f = 1.0;
                    r[a] = 1;
                }
                13 => r[a] |= 1,
                14 => r[a] = r[a].wrapping_mul(r[b] | 1),
                _ => r[b] = r[a].rotate_right(imm as u32 & 31) ^ 0xbf58_476d_1ce4_e5b9,
            }
        }
        black_box((r, f));
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// `ms` measured next to a kernel run of `kernel_ms`, at reference
    /// speed.
    pub fn normalise(ms: f64, kernel_ms: f64) -> f64 {
        ms * NOMINAL_MS / kernel_ms
    }
}
