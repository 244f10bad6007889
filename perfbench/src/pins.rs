//! Pinned end-of-run digests of the platform workloads.
//!
//! `pins.txt` holds one `workload seed digest` line per pool seed,
//! produced by `perfbench --write-pins` from the commit that added the
//! benchmark. A change that only makes the code faster leaves every
//! simulated result, and so every digest, unchanged.

use std::collections::HashMap;

const BUILT_IN: &str = include_str!("../pins.txt");

pub struct Pins {
    digests: HashMap<(String, u64), u64>,
}

impl Pins {
    pub fn built_in() -> Pins {
        Pins::parse(BUILT_IN).expect("the built-in pins.txt parses")
    }

    /// Parses pin lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut digests = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [workload, seed, digest] => seed
                    .parse::<u64>()
                    .ok()
                    .zip(u64::from_str_radix(digest.trim_start_matches("0x"), 16).ok())
                    .map(|(s, d)| (workload.to_string(), s, d)),
                _ => None,
            };
            let (workload, seed, digest) = parsed
                .ok_or_else(|| format!("pins line {}: expected `workload seed 0xdigest`", n + 1))?;
            digests.insert((workload, seed), digest);
        }
        Ok(Pins { digests })
    }

    pub fn get(&self, workload: &str, seed: u64) -> Option<u64> {
        self.digests.get(&(workload.to_string(), seed)).copied()
    }
}
