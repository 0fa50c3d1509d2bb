//! Seeded inputs from the `ipg-corpus` generators.
//!
//! Each grammar gets `k` files whose generator parameters are drawn by
//! stratified sampling: file `i` takes every size parameter from the
//! `i`-th of `k` equal slices of the parameter's log range, with the seed
//! choosing the point inside the slice and all the content bytes. So two
//! seeds give different files with nearly the same size mix, which is
//! what lets a metric from one seed be compared with another seed's.

use ipg_corpus::{dns, elf, gif, ipv4udp, pdf, pe, png, zip};

/// The nine corpus grammars, in registry order.
pub const GRAMMARS: [&str; 9] =
    ["zip", "zip_inflate", "dns", "png", "gif", "elf", "ipv4udp", "pe", "pdf"];

/// One generated input and the ground truth the benchmark checks.
pub struct Input {
    /// Index into [`GRAMMARS`].
    pub grammar: usize,
    pub bytes: Vec<u8>,
    /// Drawn from the upper half of the parameter ranges.
    pub large: bool,
    /// For `zip_inflate`: the uncompressed bytes the DEFLATE blackbox
    /// must produce over the whole archive (generator ground truth).
    pub inflated: u64,
}

/// SplitMix64: a tiny seeded generator for the parameter draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_1b6c_0de5)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Fisher–Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// A log-uniform draw from slice `i` of `k` of the range `[lo, hi]`.
    fn strat(&mut self, i: usize, k: usize, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        let x = (i as f64 + self.unit()) / k as f64;
        ((l + (h - l) * x).exp().round() as usize).clamp(lo, hi)
    }

    /// `v` scaled by a factor in `[0.8, 1.2)`.
    fn jitter(&mut self, v: usize) -> usize {
        ((v as f64) * (0.8 + 0.4 * self.unit())).round().max(1.0) as usize
    }
}

/// Parameter ranges: the `files` workload spans each generator's
/// realistic sizes; the `serve` workload keeps every input small
/// (at most a few KiB), as one-shot requests on a socket are.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Files,
    Small,
}

/// `k` inputs per grammar, for all nine grammars, from `seed`.
pub fn generate(seed: u64, k: usize, scale: Scale) -> Vec<Input> {
    let mut out = Vec::with_capacity(k * GRAMMARS.len());
    for (g, name) in GRAMMARS.iter().enumerate() {
        for i in 0..k {
            // One stream per (grammar, file), so adding a grammar or a
            // file never shifts another file's parameters.
            let mut r = Rng::new(seed.wrapping_mul(0x1000_0001) ^ ((g as u64) << 32) ^ i as u64);
            let s = r.next();
            let (bytes, inflated) = match scale {
                Scale::Files => files_input(name, i, k, s, &mut r),
                Scale::Small => small_input(name, i, k, s, &mut r),
            };
            out.push(Input { grammar: g, bytes, large: 2 * i >= k, inflated });
        }
    }
    out
}

fn zip_bytes(
    n_entries: usize,
    payload_len: usize,
    method: zip::Method,
    seed: u64,
) -> (Vec<u8>, u64) {
    let z = zip::generate(&zip::Config { n_entries, payload_len, method, seed });
    let inflated =
        if method == zip::Method::Deflate { (n_entries * payload_len) as u64 } else { 0 };
    (z.bytes, inflated)
}

fn files_input(name: &str, i: usize, k: usize, seed: u64, r: &mut Rng) -> (Vec<u8>, u64) {
    let bytes = match name {
        "zip" => {
            let method =
                if i.is_multiple_of(2) { zip::Method::Deflate } else { zip::Method::Stored };
            // The structural grammar leaves entry bodies compressed.
            return (zip_bytes(r.strat(i, k, 2, 48), r.strat(i, k, 64, 8192), method, seed).0, 0);
        }
        "zip_inflate" => {
            // Many small entries through one large entry: the DEFLATE
            // share of a parse grows from ~15% to ~90% along this axis.
            let shapes = [(64, 128), (32, 1024), (16, 4096), (4, 65536)];
            let (n, len) = shapes[(i * shapes.len() / k).min(shapes.len() - 1)];
            return zip_bytes(r.jitter(n), r.jitter(len), zip::Method::Deflate, seed);
        }
        "dns" => {
            dns::generate(&dns::Config {
                n_questions: 1 + i * 3 / k,
                n_answers: r.strat(i, k, 1, 48),
                compress: i.is_multiple_of(2),
                seed,
            })
            .bytes
        }
        "png" => {
            png::generate(&png::Config {
                n_idat: r.strat(i, k, 1, 12),
                idat_len: r.strat(i, k, 256, 16384),
                width: r.strat(i, k, 16, 2048) as u32,
                height: r.strat(i, k, 16, 2048) as u32,
                with_text: i.is_multiple_of(2),
                seed,
            })
            .bytes
        }
        "gif" => {
            gif::generate(&gif::Config {
                n_frames: r.strat(i, k, 1, 8),
                width: r.strat(i, k, 16, 1024) as u16,
                height: r.strat(i, k, 16, 1024) as u16,
                gct_bits: if i % 4 == 3 { None } else { Some((i % 7 + 1) as u8) },
                data_per_frame: r.strat(i, k, 128, 8192),
                seed,
            })
            .bytes
        }
        "elf" => {
            elf::generate(&elf::Config {
                n_sections: r.strat(i, k, 2, 16),
                section_size: r.strat(i, k, 64, 4096),
                n_symbols: r.strat(i, k, 4, 96),
                n_dyn: r.strat(i, k, 2, 24),
                seed,
            })
            .bytes
        }
        "ipv4udp" => {
            ipv4udp::generate(&ipv4udp::Config {
                payload_len: r.strat(i, k, 16, 1400),
                options_words: (i * 3) % 11,
                seed,
            })
            .bytes
        }
        "pe" => {
            pe::generate(&pe::Config {
                n_sections: r.strat(i, k, 1, 8),
                section_size: r.strat(i, k, 512, 16384),
                seed,
            })
            .bytes
        }
        "pdf" => {
            pdf::generate(&pdf::Config {
                n_objects: r.strat(i, k, 2, 40),
                stream_len: r.strat(i, k, 64, 4096),
                seed,
            })
            .bytes
        }
        other => unreachable!("unknown grammar {other}"),
    };
    (bytes, 0)
}

fn small_input(name: &str, i: usize, k: usize, seed: u64, r: &mut Rng) -> (Vec<u8>, u64) {
    let bytes = match name {
        "zip" => {
            let method =
                if i.is_multiple_of(2) { zip::Method::Deflate } else { zip::Method::Stored };
            return (zip_bytes(r.strat(i, k, 1, 4), r.strat(i, k, 32, 512), method, seed).0, 0);
        }
        "zip_inflate" => {
            return zip_bytes(
                r.strat(i, k, 1, 4),
                r.strat(i, k, 64, 1024),
                zip::Method::Deflate,
                seed,
            );
        }
        "dns" => {
            dns::generate(&dns::Config {
                n_questions: 1,
                n_answers: r.strat(i, k, 1, 8),
                compress: i.is_multiple_of(2),
                seed,
            })
            .bytes
        }
        "png" => {
            png::generate(&png::Config {
                n_idat: r.strat(i, k, 1, 3),
                idat_len: r.strat(i, k, 64, 512),
                width: 64,
                height: 64,
                with_text: i.is_multiple_of(2),
                seed,
            })
            .bytes
        }
        "gif" => {
            gif::generate(&gif::Config {
                n_frames: r.strat(i, k, 1, 2),
                width: 64,
                height: 64,
                gct_bits: Some((i % 3 + 1) as u8),
                data_per_frame: r.strat(i, k, 64, 512),
                seed,
            })
            .bytes
        }
        "elf" => {
            elf::generate(&elf::Config {
                n_sections: r.strat(i, k, 1, 3),
                section_size: r.strat(i, k, 32, 256),
                n_symbols: r.strat(i, k, 2, 8),
                n_dyn: r.strat(i, k, 1, 4),
                seed,
            })
            .bytes
        }
        "ipv4udp" => {
            ipv4udp::generate(&ipv4udp::Config {
                payload_len: r.strat(i, k, 16, 1024),
                options_words: (i * 3) % 11,
                seed,
            })
            .bytes
        }
        "pe" => {
            pe::generate(&pe::Config { n_sections: r.strat(i, k, 1, 2), section_size: 512, seed })
                .bytes
        }
        "pdf" => {
            pdf::generate(&pdf::Config {
                n_objects: r.strat(i, k, 1, 4),
                stream_len: r.strat(i, k, 32, 256),
                seed,
            })
            .bytes
        }
        other => unreachable!("unknown grammar {other}"),
    };
    (bytes, 0)
}
