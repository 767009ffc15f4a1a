//! The "Pair Trading Strategy" host node.
//!
//! Hosts one [`Strategy`] instance per
//! pair (all `n(n-1)/2` of them — the brute-force market-wide search) under
//! a single [`StrategySpec`] — any family of the strategy algebra (paper,
//! Kalman, overlaid) plugs in behind the same node. Subscribes to both the
//! bar stream (prices) and the correlation stream (signals); emits two
//! [`OrderRequest`]s per position open and two per close, gathered into
//! one [`Message::Orders`] batch per step (per correlation snapshot, per
//! degraded-symbol flatten, and at end of day), plus an end-of-day
//! [`Message::Trades`] report.

use std::collections::VecDeque;
use std::sync::Arc;

use pairtrade_core::exec::ExecutionConfig;
use pairtrade_core::params::StrategyParams;
use pairtrade_core::position::PairPosition;
use pairtrade_core::spec::{StrategyKind, StrategySpec};
use pairtrade_core::strategy::{IntervalInput, Strategy};
use pairtrade_core::trade::{ExitReason, Trade};
use stats::matrix::SymMatrix;
use telemetry::Probe;

use crate::messages::{
    Cause, CorrSnapshot, EventId, Message, OrderRequest, OrderSide, TradeReport,
};
use crate::node::{Component, Emit, NodeState};

/// Per-kind telemetry names (the probe wants `&'static str`).
fn opened_counter(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Paper => "positions.opened.paper",
        StrategyKind::Kalman => "positions.opened.kalman",
        StrategyKind::Overlay => "positions.opened.overlay",
    }
}

fn closed_counter(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Paper => "positions.closed.paper",
        StrategyKind::Kalman => "positions.closed.kalman",
        StrategyKind::Overlay => "positions.closed.overlay",
    }
}

/// The market-wide strategy host.
#[derive(Clone)]
pub struct StrategyHostNode {
    spec: StrategySpec,
    kind: StrategyKind,
    /// The trailing-return window the hosted family declares via
    /// [`Strategy::needs`] (0 = family ignores trailing returns).
    w_window: usize,
    n_stocks: usize,
    /// Parameter-set identity stamped on every order and on the EOD trade
    /// report, so the merged risk/gateway/sink stages of a sweep graph can
    /// attribute flow per strategy. Single-host pipelines leave it 0.
    param_set: usize,
    strategies: Vec<Box<dyn Strategy>>,
    was_open: Vec<bool>,
    trades_seen: Vec<usize>,
    /// Per-stock price history on the interval grid (forward-filled).
    history: Vec<Vec<f64>>,
    /// Highest bar interval recorded so far (None until the first bar).
    bars_through: Option<usize>,
    /// Correlation snapshots that arrived before their interval's bar.
    ///
    /// The host fans in two streams: bars directly from the accumulator,
    /// and correlations via technical analysis → correlation engine. The
    /// two edges race, so `Corr(s)` can beat `Bars(s)` into the inbox;
    /// pricing interval `s` off stale history would make trade decisions
    /// depend on thread scheduling. Snapshots are therefore held here
    /// until the bar stream has caught up to their interval.
    pending_corr: VecDeque<Arc<CorrSnapshot>>,
    /// Health transitions awaiting their effective interval.
    ///
    /// Health rides the bar edge while trading decisions happen on the
    /// (lagging) correlation edge. Applying a transition the moment it
    /// arrives would let it bleed into however many earlier-interval
    /// snapshots happened to still be in flight — a thread-scheduling
    /// artifact. Transitions are therefore queued and applied (and
    /// forwarded downstream) only when the correlation stream reaches
    /// their effective interval, which makes the host a deterministic
    /// function of its two input streams.
    pending_health: VecDeque<Arc<crate::messages::HealthEvent>>,
    /// Symbols currently marked degraded: positions touching them are
    /// flattened on transition and no pair touching them may open.
    degraded: Vec<bool>,
    /// Provenance: ids of the newest bar set and corr snapshot
    /// processed. Both are deterministic at their use sites — bars arrive
    /// in stream order, and snapshots are processed in stream order via
    /// `pending_corr` — so orders and the EOD report carry
    /// scheduling-independent parents.
    last_bar_id: EventId,
    last_corr_id: EventId,
    /// Messages neither consumed nor forwarded.
    dropped: u64,
    /// Scratch for a snapshot step's orders, reused across steps (always
    /// empty between calls, so never checkpointed).
    batch: Vec<OrderRequest>,
    needs_confirmation: bool,
    name: String,
    probe: Probe,
}

impl StrategyHostNode {
    /// Host over all pairs of `n_stocks` under one paper parameter vector
    /// (back-compat shorthand for [`StrategyHostNode::from_spec`]).
    pub fn new(
        n_stocks: usize,
        params: StrategyParams,
        exec: ExecutionConfig,
        needs_confirmation: bool,
    ) -> Self {
        Self::from_spec(
            n_stocks,
            &StrategySpec::Paper(params),
            exec,
            needs_confirmation,
        )
    }

    /// Host over all pairs of `n_stocks` under any [`StrategySpec`].
    pub fn from_spec(
        n_stocks: usize,
        spec: &StrategySpec,
        exec: ExecutionConfig,
        needs_confirmation: bool,
    ) -> Self {
        let n_pairs = n_stocks * (n_stocks - 1) / 2;
        let strategies: Vec<Box<dyn Strategy>> = (0..n_pairs)
            .map(|rank| spec.build(SymMatrix::pair_from_rank(rank), exec))
            .collect();
        StrategyHostNode {
            kind: spec.kind(),
            w_window: spec.needs().w_return_window,
            n_stocks,
            param_set: 0,
            was_open: vec![false; strategies.len()],
            trades_seen: vec![0; strategies.len()],
            strategies,
            history: vec![Vec::new(); n_stocks],
            bars_through: None,
            pending_corr: VecDeque::new(),
            pending_health: VecDeque::new(),
            degraded: vec![false; n_stocks],
            last_bar_id: EventId::NONE,
            last_corr_id: EventId::NONE,
            dropped: 0,
            batch: Vec::new(),
            needs_confirmation,
            name: format!("pair-strategy-host({})", spec.label()),
            spec: spec.clone(),
            probe: Probe::off(),
        }
    }

    /// Tag emitted orders and the EOD trade report with a parameter-set
    /// index (sweep graphs run one host per parameter set). Also folds the
    /// index into the node name so hosts with identical labels stay
    /// distinguishable in stats tables.
    pub fn with_param_set(mut self, param_set: usize) -> Self {
        self.param_set = param_set;
        self.name = format!("pair-strategy-host(#{param_set}, {})", self.spec.label());
        self
    }

    fn record_bars(&mut self, interval: usize, closes: &[f64]) {
        for (stock, hist) in self.history.iter_mut().enumerate() {
            let price = closes.get(stock).copied().unwrap_or(f64::NAN);
            // Forward-fill any intervals the bar stream skipped.
            while hist.len() < interval {
                let carry = hist.last().copied().unwrap_or(price);
                hist.push(carry);
            }
            if hist.len() == interval {
                hist.push(price);
            } else {
                hist[interval] = price;
            }
        }
    }

    fn price_at(&self, stock: usize, interval: usize) -> f64 {
        let hist = &self.history[stock];
        if hist.is_empty() {
            return f64::NAN;
        }
        let idx = interval.min(hist.len() - 1);
        hist[idx]
    }

    fn orders_for_open(
        &self,
        position: &PairPosition,
        interval: usize,
        pair: (usize, usize),
        parent: EventId,
    ) -> [OrderRequest; 2] {
        let mk = |stock: usize, side: OrderSide, shares: u32, price: f64| OrderRequest {
            interval,
            param_set: self.param_set,
            strategy: self.kind,
            stock,
            side,
            shares,
            price,
            pair,
            needs_confirmation: self.needs_confirmation,
            cause: Cause::derived([parent]),
        };
        [
            mk(
                position.long.stock,
                OrderSide::Buy,
                position.long.shares,
                position.long.entry_price,
            ),
            mk(
                position.short.stock,
                OrderSide::Sell,
                position.short.shares,
                position.short.entry_price,
            ),
        ]
    }

    fn orders_for_close(&self, trade: &Trade, parent: EventId) -> [OrderRequest; 2] {
        let p = &trade.position;
        let mk = |stock: usize, side: OrderSide, shares: u32| OrderRequest {
            interval: trade.exit_interval,
            param_set: self.param_set,
            strategy: self.kind,
            stock,
            side,
            shares,
            price: self.price_at(stock, trade.exit_interval),
            pair: trade.pair,
            needs_confirmation: self.needs_confirmation,
            cause: Cause::derived([parent]),
        };
        [
            mk(p.long.stock, OrderSide::Sell, p.long.shares),
            mk(p.short.stock, OrderSide::Buy, p.short.shares),
        ]
    }
}

impl Component for StrategyHostNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Bars(bars) => {
                if bars.cause.id.is_set() {
                    self.last_bar_id = bars.cause.id;
                }
                self.record_bars(bars.interval, &bars.closes);
                self.bars_through = Some(match self.bars_through {
                    Some(t) => t.max(bars.interval),
                    None => bars.interval,
                });
                // Bars caught up: release any snapshots that were waiting.
                while self
                    .pending_corr
                    .front()
                    .is_some_and(|snap| Some(snap.interval) <= self.bars_through)
                {
                    let snap = self.pending_corr.pop_front().expect("front checked");
                    self.process_corr(&snap, out);
                }
            }
            Message::Corr(snap) => {
                if Some(snap.interval) > self.bars_through {
                    self.pending_corr.push_back(snap);
                    self.probe
                        .gauge_max("pending_corr.peak", self.pending_corr.len() as u64);
                } else {
                    self.process_corr(&snap, out);
                }
            }
            Message::Health(h) => self.pending_health.push_back(h),
            _ => self.dropped += 1,
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        // The bar stream has ended; whatever snapshots are still queued
        // will never see a newer bar, so price them off the final history.
        while let Some(snap) = self.pending_corr.pop_front() {
            self.process_corr(&snap, out);
        }
        // Transitions the correlation stream never reached still flatten
        // and still reach risk management before the day's report.
        self.apply_health_through(usize::MAX, out);
        let mut all_trades: Vec<Trade> = Vec::new();
        let mut closing_orders: Vec<OrderRequest> = Vec::new();
        let mut eod_closed = 0u64;
        let mut strategies = std::mem::take(&mut self.strategies);
        for (rank, strategy) in strategies.iter_mut().enumerate() {
            let seen = self.trades_seen[rank];
            let trades = strategy.finish();
            for t in &trades[seen.min(trades.len())..] {
                closing_orders.extend(self.orders_for_close(t, self.last_corr_id));
                eod_closed += 1;
            }
            all_trades.extend(trades);
        }
        self.probe.count("positions.eod_closed", eod_closed);
        self.emit_orders(&closing_orders, out);
        out(Message::Trades(Arc::new(TradeReport {
            param_set: self.param_set,
            strategy: self.kind,
            trades: all_trades,
            cause: Cause::derived([self.last_corr_id, self.last_bar_id]),
        })));
    }

    fn snapshot(&self) -> Option<NodeState> {
        crate::node::snapshot_of(self)
    }

    fn restore(&mut self, state: NodeState) -> bool {
        crate::node::restore_into(self, state)
    }

    fn encode_state(&self) -> Option<Vec<u8>> {
        use wire::Codec;
        let mut w = wire::Writer::new();
        // Trait objects can't derive a Vec codec: count, then each
        // strategy's own (self-delimiting) state bytes. The spec itself is
        // construction-time config and is NOT serialized — a restored node
        // must already host the same spec, which the count check (and each
        // family's own decoder) guards.
        (self.strategies.len() as u64).encode(&mut w);
        for strategy in &self.strategies {
            strategy.encode_state(&mut w);
        }
        self.was_open.encode(&mut w);
        self.trades_seen.encode(&mut w);
        self.history.encode(&mut w);
        self.bars_through.encode(&mut w);
        // Pending queues hold `Arc`s purely for cheap fan-in; the payloads
        // themselves cross the process boundary by value.
        (self.pending_corr.len() as u64).encode(&mut w);
        for snap in &self.pending_corr {
            (**snap).encode(&mut w);
        }
        (self.pending_health.len() as u64).encode(&mut w);
        for ev in &self.pending_health {
            (**ev).encode(&mut w);
        }
        self.degraded.encode(&mut w);
        self.last_bar_id.0.encode(&mut w);
        self.last_corr_id.0.encode(&mut w);
        self.dropped.encode(&mut w);
        Some(w.into_bytes())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        use wire::{Codec, WireError};
        fn go(node: &mut StrategyHostNode, bytes: &[u8]) -> Result<(), WireError> {
            let r = &mut wire::Reader::new(bytes);
            let n_strategies = u64::decode(r)? as usize;
            if n_strategies != node.strategies.len() {
                return Err(WireError::Invalid("strategy count mismatch"));
            }
            // Decode into clones so a mid-stream error leaves the live
            // strategies untouched (restore is all-or-nothing).
            let mut strategies = node.strategies.clone();
            for strategy in strategies.iter_mut() {
                strategy.decode_state(r)?;
            }
            let was_open = Vec::<bool>::decode(r)?;
            let trades_seen = Vec::<usize>::decode(r)?;
            let history = Vec::<Vec<f64>>::decode(r)?;
            let bars_through = Option::<usize>::decode(r)?;
            let n_corr = u64::decode(r)? as usize;
            if n_corr > r.remaining() {
                return Err(WireError::Invalid("pending_corr longer than input"));
            }
            let mut pending_corr = VecDeque::with_capacity(n_corr);
            for _ in 0..n_corr {
                pending_corr.push_back(Arc::new(CorrSnapshot::decode(r)?));
            }
            let n_health = u64::decode(r)? as usize;
            if n_health > r.remaining() {
                return Err(WireError::Invalid("pending_health longer than input"));
            }
            let mut pending_health = VecDeque::with_capacity(n_health);
            for _ in 0..n_health {
                pending_health.push_back(Arc::new(crate::messages::HealthEvent::decode(r)?));
            }
            let degraded = Vec::<bool>::decode(r)?;
            let last_bar_id = EventId(u64::decode(r)?);
            let last_corr_id = EventId(u64::decode(r)?);
            let dropped = u64::decode(r)?;
            if !r.is_empty() {
                return Err(WireError::Invalid("trailing bytes"));
            }
            if degraded.len() != node.n_stocks {
                return Err(WireError::Invalid("universe size mismatch"));
            }
            node.strategies = strategies;
            node.was_open = was_open;
            node.trades_seen = trades_seen;
            node.history = history;
            node.bars_through = bars_through;
            node.pending_corr = pending_corr;
            node.pending_health = pending_health;
            node.degraded = degraded;
            node.last_bar_id = last_bar_id;
            node.last_corr_id = last_corr_id;
            node.dropped = dropped;
            Ok(())
        }
        go(self, bytes).is_ok()
    }

    fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

impl StrategyHostNode {
    /// Apply (and forward) every queued health transition effective at or
    /// before interval `s`, in arrival order.
    fn apply_health_through(&mut self, s: usize, out: &mut Emit<'_>) {
        while self.pending_health.front().is_some_and(|h| h.interval <= s) {
            let h = self.pending_health.pop_front().expect("front checked");
            if h.symbol < self.n_stocks {
                let now = h.is_degraded();
                let was = self.degraded[h.symbol];
                self.degraded[h.symbol] = now;
                if now && !was {
                    self.flatten_touching(h.symbol, h.cause.id, out);
                }
            }
            out(Message::Health(h)); // ride on to risk management
        }
    }

    /// A symbol just went degraded: flatten every open position touching
    /// it at the last seen prices and emit the closing legs.
    fn flatten_touching(&mut self, symbol: usize, parent: EventId, out: &mut Emit<'_>) {
        let mut closed: Vec<Trade> = Vec::new();
        for (rank, strategy) in self.strategies.iter_mut().enumerate() {
            let (i, j) = strategy.pair();
            if (i == symbol || j == symbol) && strategy.is_open() {
                strategy.force_close(ExitReason::Degraded);
                closed.extend(&strategy.trades()[self.trades_seen[rank]..]);
                self.trades_seen[rank] = strategy.trades().len();
                self.was_open[rank] = false;
            }
        }
        self.probe.count("positions.flattened", closed.len() as u64);
        let orders: Vec<OrderRequest> = closed
            .iter()
            .flat_map(|trade| self.orders_for_close(trade, parent))
            .collect();
        self.emit_orders(&orders, out);
    }

    /// Emit one step's orders as a single batch (nothing when empty).
    fn emit_orders(&self, orders: &[OrderRequest], out: &mut Emit<'_>) {
        if orders.is_empty() {
            return;
        }
        self.probe.observe("orders.batch", orders.len() as u64);
        out(Message::Orders(orders.into()));
    }

    fn process_corr(&mut self, snap: &CorrSnapshot, out: &mut Emit<'_>) {
        let s = snap.interval;
        if snap.cause.id.is_set() {
            self.last_corr_id = snap.cause.id;
        }
        self.apply_health_through(s, out);
        // Collected inside the &mut strategies loop, turned into
        // orders (which need &self) afterwards.
        let mut opened: Vec<PairPosition> = Vec::new();
        let mut closed: Vec<Trade> = Vec::new();
        for (rank, strategy) in self.strategies.iter_mut().enumerate() {
            let (i, j) = strategy.pair();
            if i >= self.n_stocks {
                continue;
            }
            // Pairs touching a degraded symbol sit the interval out: the
            // position (if any) was already flattened on the transition,
            // and a masked/stale signal must not open a new one.
            if self.degraded[i] || self.degraded[j] {
                continue;
            }
            let price_i = {
                let hist = &self.history[i];
                if hist.is_empty() {
                    f64::NAN
                } else {
                    hist[s.min(hist.len() - 1)]
                }
            };
            let price_j = {
                let hist = &self.history[j];
                if hist.is_empty() {
                    f64::NAN
                } else {
                    hist[s.min(hist.len() - 1)]
                }
            };
            let w = self.w_window;
            let w_ret = |hist: &Vec<f64>| -> f64 {
                if w == 0 || s < w || hist.is_empty() {
                    return 0.0;
                }
                let now = hist[s.min(hist.len() - 1)];
                let then = hist[(s - w).min(hist.len() - 1)];
                if now > 0.0 && then > 0.0 {
                    now / then - 1.0
                } else {
                    0.0
                }
            };
            let input = IntervalInput {
                s,
                price_i,
                price_j,
                corr: snap.matrix.get(i, j),
                w_return_i: w_ret(&self.history[i]),
                w_return_j: w_ret(&self.history[j]),
            };
            strategy.on_interval(input);

            // Detect transitions to emit orders.
            let now_open = strategy.is_open();
            let trades_now = strategy.trades().len();
            if now_open && !self.was_open[rank] {
                // Each family chooses direction and sizing its own way;
                // the freshly-opened position is the order flow's source
                // of truth (`PairPosition` is `Copy`).
                opened.push(*strategy.open_position().expect("open ⇒ position"));
            }
            if trades_now > self.trades_seen[rank] {
                closed.extend(&strategy.trades()[self.trades_seen[rank]..]);
                self.trades_seen[rank] = trades_now;
            }
            self.was_open[rank] = now_open;
        }
        self.probe.count("positions.opened", opened.len() as u64);
        self.probe.count("positions.closed", closed.len() as u64);
        self.probe
            .count(opened_counter(self.kind), opened.len() as u64);
        self.probe
            .count(closed_counter(self.kind), closed.len() as u64);
        let mut orders = std::mem::take(&mut self.batch);
        for position in opened {
            let pair = if position.long.stock > position.short.stock {
                (position.long.stock, position.short.stock)
            } else {
                (position.short.stock, position.long.stock)
            };
            orders.extend(self.orders_for_open(&position, s, pair, snap.cause.id));
        }
        for trade in &closed {
            orders.extend(self.orders_for_close(trade, snap.cause.id));
        }
        self.emit_orders(&orders, out);
        orders.clear();
        self.batch = orders;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BarSet, CorrSnapshot};
    use stats::correlation::CorrType;

    fn params() -> StrategyParams {
        StrategyParams {
            dt_seconds: 30,
            ctype: CorrType::Pearson,
            min_avg_corr: 0.1,
            corr_window: 4,
            avg_window: 4,
            div_window: 3,
            divergence: 0.01,
            retracement: 1.0 / 3.0,
            spread_window: 4,
            max_holding: 5,
            min_time_before_close: 3,
        }
    }

    fn bars(interval: usize, closes: Vec<f64>) -> Message {
        let n = closes.len();
        Message::Bars(Arc::new(BarSet {
            interval,
            closes,
            ticks: vec![1; n],
            cause: Cause::none(),
        }))
    }

    fn corr(interval: usize, rho: f64) -> Message {
        let mut m = SymMatrix::identity(2);
        m.set(1, 0, rho);
        Message::Corr(Arc::new(CorrSnapshot {
            interval,
            stream: 0,
            matrix: m,
            cause: Cause::none(),
        }))
    }

    #[test]
    fn full_cycle_emits_orders_and_trades() {
        use std::cell::RefCell;
        let mut node = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
        let orders: RefCell<Vec<OrderRequest>> = RefCell::new(Vec::new());
        let trades: RefCell<Option<Arc<TradeReport>>> = RefCell::new(None);
        let feed = |node: &mut StrategyHostNode, m: Message| {
            node.on_message(m, &mut |out| match out {
                Message::Orders(o) => orders.borrow_mut().extend(o.iter().cloned()),
                Message::Trades(t) => *trades.borrow_mut() = Some(t),
                _ => {}
            });
        };
        let start = params().first_active_interval();
        // Warm: flat prices, stable correlation.
        for s in 0..=start {
            feed(&mut node, bars(s, vec![30.0, 130.0]));
            feed(&mut node, corr(s, 0.8));
        }
        // Divergence: stock 1 (price 130) over-performs; corr drops 5%.
        feed(&mut node, bars(start + 1, vec![29.5, 131.0]));
        feed(&mut node, corr(start + 1, 0.76));
        {
            let orders = orders.borrow();
            assert_eq!(orders.len(), 2, "two entry legs: {orders:?}");
            let buy = orders.iter().find(|o| o.side == OrderSide::Buy).unwrap();
            let sell = orders.iter().find(|o| o.side == OrderSide::Sell).unwrap();
            assert_eq!(buy.stock, 0, "long the under-performer");
            assert_eq!(sell.stock, 1);
            assert_eq!(buy.shares, 5, "ceil(131/29.5) = 5");
            assert_eq!(sell.shares, 1);
        }
        node.on_end(&mut |out| match out {
            Message::Orders(o) => orders.borrow_mut().extend(o.iter().cloned()),
            Message::Trades(t) => *trades.borrow_mut() = Some(t),
            _ => {}
        });
        // EOD close: two more orders + trade report.
        assert_eq!(orders.borrow().len(), 4);
        let trades = trades.into_inner().expect("trades report");
        assert_eq!(trades.len(), 1);
        assert_eq!(
            trades[0].reason,
            pairtrade_core::trade::ExitReason::EndOfDay
        );
    }

    #[test]
    fn each_step_emits_at_most_one_batch() {
        let mut node = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
        let mut batches: Vec<Vec<OrderSide>> = Vec::new();
        let mut sink = |m: Message| {
            if let Message::Orders(o) = m {
                batches.push(o.iter().map(|o| o.side).collect());
            }
        };
        let start = params().first_active_interval();
        for s in 0..=start {
            node.on_message(bars(s, vec![30.0, 130.0]), &mut sink);
            node.on_message(corr(s, 0.8), &mut sink);
        }
        node.on_message(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        node.on_message(corr(start + 1, 0.76), &mut sink);
        node.on_end(&mut sink);
        // The entry step's two legs travel together, as do the EOD closes.
        use OrderSide::{Buy, Sell};
        assert_eq!(batches, vec![vec![Buy, Sell], vec![Sell, Buy]]);
    }

    #[test]
    fn degradation_flattens_and_blocks_reentry() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        let mut node = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
        let mut forwarded_health = 0;
        let mut orders: Vec<OrderRequest> = Vec::new();
        let mut trades: Vec<Trade> = Vec::new();
        macro_rules! feed {
            ($m:expr) => {
                node.on_message($m, &mut |out| match out {
                    Message::Orders(o) => orders.extend(o.iter().cloned()),
                    Message::Trades(t) => trades.extend(t.iter().copied()),
                    Message::Health(_) => forwarded_health += 1,
                    _ => {}
                })
            };
        }
        let start = params().first_active_interval();
        for s in 0..=start {
            feed!(bars(s, vec![30.0, 130.0]));
            feed!(corr(s, 0.8));
        }
        feed!(bars(start + 1, vec![29.5, 131.0]));
        feed!(corr(start + 1, 0.76));
        assert_eq!(orders.len(), 2, "position opened");

        // Symbol 1 degrades effective at `start + 2`. The transition is
        // held until the correlation stream reaches that interval, so the
        // flatten cannot race ahead of in-flight snapshots.
        feed!(Message::Health(Arc::new(HealthEvent {
            interval: start + 2,
            symbol: 1,
            status: HealthStatus::Degraded(DegradeReason::Outage),
            cause: Cause::none(),
        })));
        assert_eq!(forwarded_health, 0, "held until its effective interval");
        assert_eq!(orders.len(), 2, "no flatten before the interval");

        // A fresh divergence at the effective interval: the transition
        // applies first (two closing legs), and no new entry may open.
        feed!(bars(start + 2, vec![29.0, 132.0]));
        feed!(corr(start + 2, 0.70));
        assert_eq!(forwarded_health, 1, "health rides on to risk");
        assert_eq!(orders.len(), 4, "closing legs only, no re-entry");

        node.on_end(&mut |out| match out {
            Message::Orders(o) => orders.extend(o.iter().cloned()),
            Message::Trades(t) => trades.extend(t.iter().copied()),
            _ => {}
        });
        assert_eq!(trades.len(), 1);
        assert_eq!(
            trades[0].reason,
            pairtrade_core::trade::ExitReason::Degraded
        );
        assert_eq!(orders.len(), 4, "EOD emits no extra legs: already flat");
    }

    #[test]
    fn snapshot_restore_preserves_open_positions() {
        let mut node = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
        let mut sink = |_: Message| {};
        let start = params().first_active_interval();
        for s in 0..=start {
            node.on_message(bars(s, vec![30.0, 130.0]), &mut sink);
            node.on_message(corr(s, 0.8), &mut sink);
        }
        node.on_message(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        node.on_message(corr(start + 1, 0.76), &mut sink);
        let snap = node.snapshot().unwrap();
        // Run the survivor and a restored twin to the end of day.
        let mut twin = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), false);
        assert!(twin.restore(snap));
        let run_out = |n: &mut StrategyHostNode| {
            let mut trades: Vec<Trade> = Vec::new();
            for s in start + 2..start + 6 {
                n.on_message(bars(s, vec![30.0, 130.0]), &mut |_| {});
                n.on_message(corr(s, 0.8), &mut |_| {});
            }
            n.on_end(&mut |m| {
                if let Message::Trades(t) = m {
                    trades.extend(t.iter().copied());
                }
            });
            trades
        };
        let a = run_out(&mut node);
        let b = run_out(&mut twin);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pair, y.pair);
            assert_eq!(x.entry_interval, y.entry_interval);
            assert_eq!(x.exit_interval, y.exit_interval);
            assert_eq!(x.pnl.to_bits(), y.pnl.to_bits());
        }
    }

    #[test]
    fn quiet_market_emits_no_orders() {
        let mut node = StrategyHostNode::new(3, params(), ExecutionConfig::paper(), false);
        let mut n_orders = 0;
        let mut sink = |m: Message| {
            if let Message::Orders(o) = m {
                n_orders += o.len();
            }
        };
        for s in 0..300 {
            node.on_message(bars(s, vec![30.0, 60.0, 90.0]), &mut sink);
            let mut m = SymMatrix::identity(3);
            m.set(1, 0, 0.8);
            m.set(2, 0, 0.8);
            m.set(2, 1, 0.8);
            node.on_message(
                Message::Corr(Arc::new(CorrSnapshot {
                    interval: s,
                    stream: 0,
                    matrix: m,
                    cause: Cause::none(),
                })),
                &mut sink,
            );
        }
        node.on_end(&mut sink);
        assert_eq!(n_orders, 0);
    }

    #[test]
    fn confirmation_flag_propagates() {
        let mut node = StrategyHostNode::new(2, params(), ExecutionConfig::paper(), true);
        let mut got_flag = None;
        let mut sink = |m: Message| {
            if let Message::Orders(o) = m {
                got_flag = o.last().map(|o| o.needs_confirmation);
            }
        };
        let start = params().first_active_interval();
        for s in 0..=start {
            node.on_message(bars(s, vec![30.0, 130.0]), &mut sink);
            node.on_message(corr(s, 0.8), &mut sink);
        }
        node.on_message(bars(start + 1, vec![29.5, 131.0]), &mut sink);
        node.on_message(corr(start + 1, 0.76), &mut sink);
        assert_eq!(got_flag, Some(true));
    }
}
