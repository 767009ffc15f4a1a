//! Output digests: every trade (per param set, in the host's order) and
//! every basket, hashed with 64-bit FNV-1a over a fixed byte encoding, so
//! two runs agree on the digest exactly when their outputs are
//! bit-identical.

use std::sync::Arc;

use marketminer::messages::{Basket, OrderSide};
use pairtrade_core::trade::Trade;

/// Digests recorded for `(workload, seed)` pairs, one
/// `workload seed digest trades baskets` row per line.
const RECORDED: &str = include_str!("../digests.txt");

/// A run's outputs, reduced to what the benchmark compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a of the canonical encoding.
    pub hash: u64,
    /// Trades over all param sets.
    pub trades: u64,
    /// Order baskets.
    pub baskets: u64,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x} trades={} baskets={}",
            self.hash, self.trades, self.baskets
        )
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of per-param-set trades and the day's baskets.
pub fn digest(trades_per_param: &[Vec<Trade>], baskets: &[Arc<Basket>]) -> Digest {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut trades = 0u64;
    for (k, list) in trades_per_param.iter().enumerate() {
        h.u64(k as u64);
        h.u64(list.len() as u64);
        for t in list {
            h.bytes(&wire::to_bytes(t));
        }
        trades += list.len() as u64;
    }
    for b in baskets {
        h.u64(b.interval as u64);
        h.u64(b.orders.len() as u64);
        for o in &b.orders {
            h.u64(o.interval as u64);
            h.u64(o.param_set as u64);
            h.bytes(o.strategy.as_str().as_bytes());
            h.u64(o.stock as u64);
            h.u64(u64::from(matches!(o.side, OrderSide::Buy)));
            h.u64(u64::from(o.shares));
            h.u64(o.price.to_bits());
            h.u64(o.pair.0 as u64);
            h.u64(o.pair.1 as u64);
            h.u64(u64::from(o.needs_confirmation));
        }
    }
    Digest {
        hash: h.0,
        trades,
        baskets: baskets.len() as u64,
    }
}

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<Digest> {
    parse_recorded(RECORDED, workload, seed)
}

fn parse_recorded(table: &str, workload: &str, seed: u64) -> Option<Digest> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 5 || f[0] != workload || f[1].parse::<u64>().ok()? != seed {
                return None;
            }
            Some(Digest {
                hash: u64::from_str_radix(f[2], 16).ok()?,
                trades: f[3].parse().ok()?,
                baskets: f[4].parse().ok()?,
            })
        })
}

/// The table row that would record `d` for `workload` at `seed`.
pub fn record_line(workload: &str, seed: u64, d: &Digest) -> String {
    format!(
        "{workload} {seed} {:016x} {} {}",
        d.hash, d.trades, d.baskets
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_round_trip() {
        let d = Digest {
            hash: 0x0123_4567_89ab_cdef,
            trades: 12,
            baskets: 3,
        };
        let table = format!("# comment\n\n{}\n", record_line("sweep_paper", 7, &d));
        assert_eq!(parse_recorded(&table, "sweep_paper", 7), Some(d));
        assert_eq!(parse_recorded(&table, "sweep_paper", 8), None);
        assert_eq!(parse_recorded(&table, "sweep_hosts", 7), None);
    }

    #[test]
    fn every_recorded_row_parses() {
        for line in RECORDED.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5, "malformed row {line:?}");
            let seed: u64 = f[1].parse().expect("numeric seed");
            assert!(
                recorded(f[0], seed).is_some(),
                "row {line:?} does not parse"
            );
        }
    }
}
