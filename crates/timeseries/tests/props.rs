//! Property-based tests for the time-series primitives.

use proptest::prelude::*;

use timeseries::bam::PriceGrid;
use timeseries::bars::BarAccumulator;
use timeseries::returns::ReturnsPanel;
use timeseries::rolling::{RollingMax, RollingMin, RollingRange};
use timeseries::window::SlidingWindow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_is_a_fifo_of_the_tail(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        cap in 1usize..12,
    ) {
        let mut w = SlidingWindow::new(cap);
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs[xs.len().saturating_sub(cap)..].to_vec();
        prop_assert_eq!(w.to_vec(), tail);
        prop_assert_eq!(w.len(), xs.len().min(cap));
        prop_assert_eq!(w.back(), xs.last().copied());
    }

    #[test]
    fn window_matches_a_vecdeque_at_every_wrap_position(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..120),
        cap in 1usize..24,
    ) {
        let mut w = SlidingWindow::new(cap);
        let mut reference: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        // Check after every push, so every head position of the ring is
        // visited once the window has wrapped.
        for &x in &xs {
            let evicted = w.push(x);
            reference.push_back(x);
            let want_evicted = if reference.len() > cap { reference.pop_front() } else { None };
            prop_assert_eq!(evicted, want_evicted);
            let logical: Vec<f64> = reference.iter().copied().collect();
            prop_assert_eq!(w.iter().collect::<Vec<f64>>(), logical.clone());
            prop_assert_eq!(w.len(), reference.len());
            prop_assert_eq!(w.is_full(), reference.len() == cap);
            prop_assert_eq!(w.front(), reference.front().copied());
            prop_assert_eq!(w.back(), reference.back().copied());
            for k in 0..=cap {
                let want = reference.len().checked_sub(k + 1).map(|i| reference[i]);
                prop_assert_eq!(w.nth_back(k), want);
            }
            // The mean is the left fold over the logical order, bit for bit.
            let fold = logical.iter().sum::<f64>() / logical.len() as f64;
            prop_assert_eq!(w.mean().to_bits(), fold.to_bits());
        }
    }

    #[test]
    fn rolling_extrema_match_naive(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..120),
        win in 1usize..15,
    ) {
        let mut rmax = RollingMax::new(win);
        let mut rmin = RollingMin::new(win);
        for (k, &x) in xs.iter().enumerate() {
            let got_max = rmax.push(x);
            let got_min = rmin.push(x);
            let lo = (k + 1).saturating_sub(win);
            let want_max = xs[lo..=k].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let want_min = xs[lo..=k].iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(got_max, want_max);
            prop_assert_eq!(got_min, want_min);
        }
    }

    #[test]
    fn range_stats_invariants(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..80),
        win in 1usize..10,
    ) {
        let mut rr = RollingRange::new(win);
        for &x in &xs {
            let s = rr.push(x);
            prop_assert!(s.low <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.high + 1e-9);
            prop_assert!(s.low <= x && x <= s.high);
        }
    }

    #[test]
    fn bars_conserve_ticks_and_bound_prices(
        prices in proptest::collection::vec(1.0f64..1e4, 1..80),
    ) {
        let mut acc = BarAccumulator::new(30);
        let mut bars = Vec::new();
        for (k, &p) in prices.iter().enumerate() {
            bars.extend(acc.push(k as u32 * 7, p)); // ~4 ticks/interval
        }
        bars.extend(acc.flush());
        let ticks: u32 = bars.iter().map(|b| b.ticks).sum();
        prop_assert_eq!(ticks as usize, prices.len());
        for b in &bars {
            prop_assert!(b.low <= b.open && b.open <= b.high);
            prop_assert!(b.low <= b.close && b.close <= b.high);
        }
        // Intervals strictly increase.
        for w in bars.windows(2) {
            prop_assert_eq!(w[1].interval, w[0].interval + 1);
        }
    }

    #[test]
    fn grid_from_series_and_returns_shapes(
        flat in proptest::collection::vec(1.0f64..1e3, 4..60),
    ) {
        // Two stocks sharing the series length.
        let half = flat.len() / 2;
        let grid = PriceGrid::from_series(
            vec![flat[..half].to_vec(), flat[half..2 * half].to_vec()],
            30,
        );
        let panel = ReturnsPanel::from_grid(&grid);
        prop_assert_eq!(panel.n_stocks(), 2);
        prop_assert_eq!(panel.len(), half - 1);
        // exp(sum of log returns) recovers the price ratio.
        for stock in 0..2 {
            let total: f64 = panel.series(stock).iter().sum();
            let want = grid.price(stock, half - 1) / grid.price(stock, 0);
            prop_assert!((total.exp() - want).abs() < 1e-9 * want);
        }
    }

    #[test]
    fn window_return_is_compound_of_log_returns(
        prices in proptest::collection::vec(10.0f64..1e3, 5..40),
        w in 1usize..6,
    ) {
        let grid = PriceGrid::from_series(vec![prices.clone()], 30);
        let panel = ReturnsPanel::from_grid(&grid);
        let n = panel.len();
        if w <= n {
            let ret = panel.window_return(0, n - w, n);
            let want = prices[prices.len() - 1] / prices[prices.len() - 1 - w] - 1.0;
            prop_assert!((ret - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
    }
}
