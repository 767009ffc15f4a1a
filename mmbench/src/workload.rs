//! The three workloads and the synthetic day each one replays.
//!
//! * `sweep_paper`: the paper's Approach-3 deployment, 42 param sets
//!   sharing 9 `(Ctype, M)` streams at n = 32. Every layer does real
//!   work here.
//! * `sweep_hosts`: the parameter-search shape. The grid grows to 84
//!   paper-family specs while the streams shrink to one Pearson M = 100
//!   engine, so strategy hosts, risk and the gateway dominate and the
//!   correlation engines are nearly idle.
//! * `live_robust`: live trading on the paper's 61-stock universe with
//!   one host per robust stream (Maronna and Combined at M = 50, 100,
//!   200), so the correlation engines dominate.

use marketminer::pipeline::SweepConfig;
use pairtrade_core::params::StrategyParams;
use stats::correlation::CorrType;
use taq::dataset::DayData;
use taq::generator::{MarketConfig, MarketGenerator};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 42-set grid over 9 shared streams.
    SweepPaper,
    /// 84 specs on one Pearson stream.
    SweepHosts,
    /// 6 robust streams at n = 61, paced live.
    LiveRobust,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepPaper,
        Workload::SweepHosts,
        Workload::LiveRobust,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPaper => "sweep_paper",
            Workload::SweepHosts => "sweep_hosts",
            Workload::LiveRobust => "live_robust",
        }
    }

    /// Universe size.
    pub fn n_stocks(self) -> usize {
        match self {
            Workload::SweepPaper | Workload::SweepHosts => 32,
            Workload::LiveRobust => 61,
        }
    }

    /// True for the open-loop paced workload.
    pub fn is_live(self) -> bool {
        self == Workload::LiveRobust
    }

    /// The strategy grid, unvalidated (validation is part of set-up).
    pub fn sweep_config(self) -> SweepConfig {
        let n = self.n_stocks();
        match self {
            Workload::SweepPaper => SweepConfig::paper(n),
            Workload::SweepHosts => SweepConfig::new(n, host_grid()),
            Workload::LiveRobust => SweepConfig::new(n, robust_grid()),
        }
    }
}

/// 84 paper-family specs on the default Pearson M = 100 stream:
/// d ∈ {0.01, 0.02, 0.03, 0.04, 0.05, 0.1, 0.2}% × W ∈ {60, 120} ×
/// Y ∈ {10, 20} × HP ∈ {30, 40, 50}.
fn host_grid() -> Vec<StrategyParams> {
    let mut grid = Vec::with_capacity(84);
    for divergence in [0.0001, 0.0002, 0.0003, 0.0004, 0.0005, 0.001, 0.002] {
        for avg_window in [60, 120] {
            for div_window in [10, 20] {
                for max_holding in [30, 40, 50] {
                    grid.push(StrategyParams {
                        divergence,
                        avg_window,
                        div_window,
                        max_holding,
                        ..StrategyParams::paper_default()
                    });
                }
            }
        }
    }
    grid
}

/// One paper-default host per robust stream: Maronna and Combined at
/// M ∈ {50, 100, 200}.
fn robust_grid() -> Vec<StrategyParams> {
    let mut grid = Vec::with_capacity(6);
    for ctype in [CorrType::Maronna, CorrType::Combined] {
        for corr_window in [50, 100, 200] {
            grid.push(StrategyParams {
                ctype,
                corr_window,
                ..StrategyParams::paper_default()
            });
        }
    }
    grid
}

/// The synthetic day a workload replays at `seed`.
pub fn generate_day(n_stocks: usize, seed: u64) -> DayData {
    MarketGenerator::new(MarketConfig::small(n_stocks, 1, seed))
        .next_day()
        .expect("a one-day market config yields a day")
}

/// The day's quotes split into its Δs intervals (empty slices for quiet
/// intervals), `intervals` of them.
pub fn split_intervals(
    day: &DayData,
    dt_seconds: u32,
    intervals: usize,
) -> Vec<&[taq::quote::Quote]> {
    let quotes = day.quotes();
    let mut cuts = Vec::with_capacity(intervals);
    let mut lo = 0;
    for k in 0..intervals {
        let hi = if k + 1 == intervals {
            quotes.len()
        } else {
            lo + quotes[lo..].partition_point(|q| q.ts.interval(dt_seconds) <= k)
        };
        cuts.push(&quotes[lo..hi]);
        lo = hi;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_shape() {
        let paper = Workload::SweepPaper.sweep_config();
        assert_eq!(paper.specs.len(), 42);
        assert_eq!(paper.distinct_streams().len(), 9);
        let hosts = Workload::SweepHosts.sweep_config();
        assert_eq!(hosts.specs.len(), 84);
        assert_eq!(hosts.distinct_streams(), vec![(CorrType::Pearson, 100)]);
        let live = Workload::LiveRobust.sweep_config();
        assert_eq!(live.specs.len(), 6);
        assert_eq!(live.distinct_streams().len(), 6);
        for w in Workload::ALL {
            w.sweep_config().validate().expect("valid grid");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn same_seed_same_quotes_and_cuts_cover_the_day() {
        let a = generate_day(8, 5);
        let b = generate_day(8, 5);
        assert!(!a.is_empty());
        assert_eq!(a.quotes(), b.quotes());
        assert_ne!(generate_day(8, 6).quotes(), a.quotes());
        let cuts = split_intervals(&a, 30, 780);
        assert_eq!(cuts.len(), 780);
        assert_eq!(cuts.iter().map(|c| c.len()).sum::<usize>(), a.len());
        for (k, cut) in cuts.iter().enumerate().take(779) {
            assert!(cut.iter().all(|q| q.ts.interval(30) == k));
        }
    }
}
