//! The "Risk Management" stage.
//!
//! The paper motivates the integrated design precisely because "the outputs
//! from each strategy (trade decisions) can be gathered by a master process
//! to perform additional tasks such as risk management and liquidity
//! provisioning". This node sits between the strategy host(s) and the order
//! gateway and enforces book-level limits:
//!
//! * per-order share cap (fat-finger guard on the way *out*);
//! * per-order notional cap;
//! * a cap on concurrently open pairs (gross exposure proxy) — an entry
//!   leg pair is rejected atomically (both legs) when the book is full.
//!
//! Orders arrive as one [`Message::Orders`] batch per host step. Each
//! order is judged on its own, in batch order, by the rules above; a batch
//! whose every order passes is forwarded as the same `Arc`, otherwise a
//! filtered copy goes on (nothing, when every order was refused).
//!
//! In a sweep graph one risk manager serves every strategy host, so the
//! open-pairs book is keyed by `(param_set, pair)`: each parameter set gets
//! its own exposure budget and one strategy's book never blocks another's.
//!
//! The book holds the pairs a host has open *now*. It follows each pair's
//! net shares per leg through the host's order stream: the leg that takes
//! a flat pair off zero opens a position (and is the one judged against
//! the degraded-symbol backstop and the open-pairs cap), and the leg that
//! brings both legs back to zero closes it and frees its slot. Every leg
//! the host sends moves the net, released or not, so the book tracks the
//! host's own view of its positions; the legs of a position whose entry
//! was refused are refused for the same reason until the pair is flat
//! again, so a refused position's exits cannot open exposure of their own.
//!
//! Health is order-insensitive: when many hosts fan into one risk node,
//! a fast host's orders for interval 40 can arrive before a slow host's
//! orders for interval 30, interleaved with `Health` events. The node
//! therefore keeps a per-symbol *timeline* of health transitions stamped
//! with the interval they take effect at, and judges each order against the
//! symbol's status *as of the order's own interval* — the verdict is the
//! same no matter how the fan-in interleaves.
//!
//! Non-order messages pass through untouched.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Message, OrderRequest, OrderSide};
use crate::node::{Component, Emit, NodeState};

/// Risk limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskLimits {
    /// Maximum shares per order.
    pub max_shares_per_order: u32,
    /// Maximum notional (price * shares) per order, dollars.
    pub max_order_notional: f64,
    /// Maximum concurrently open pairs *per parameter set*.
    pub max_open_pairs: usize,
}

impl Default for RiskLimits {
    fn default() -> Self {
        RiskLimits {
            max_shares_per_order: 10_000,
            max_order_notional: 1_000_000.0,
            max_open_pairs: usize::MAX,
        }
    }
}

/// Rejection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskStats {
    /// Orders passed through.
    pub passed: u64,
    /// Orders rejected for size or notional.
    pub rejected_size: u64,
    /// Orders of a position refused because the book was full.
    pub rejected_book_full: u64,
    /// Orders of a position refused because a leg's symbol was degraded.
    pub rejected_degraded: u64,
}

/// Per-symbol health timeline: transitions `(first interval the status
/// applies to, is_degraded)`, kept sorted by interval.
///
/// The sweep graph fans many strategy hosts into one risk manager, so the
/// same `HealthEvent` (forwarded by every host) arrives multiple times and
/// orders from different hosts arrive at unrelated paces. Recording
/// transitions by *event* interval and resolving each order against the
/// timeline at the *order's* interval makes the degraded check a pure
/// function of simulated time — independent of arrival order.
#[derive(Debug, Clone, Default)]
struct HealthTimeline {
    transitions: HashMap<usize, Vec<(usize, bool)>>,
}

impl HealthTimeline {
    /// Record a transition; duplicates (same symbol, interval, status) are
    /// idempotent, as required when every host forwards the same event.
    fn record(&mut self, symbol: usize, interval: usize, degraded: bool) {
        let line = self.transitions.entry(symbol).or_default();
        match line.binary_search_by_key(&interval, |&(at, _)| at) {
            Ok(pos) => line[pos].1 = degraded,
            Err(pos) => line.insert(pos, (interval, degraded)),
        }
    }

    /// Status of `symbol` as of `interval`: the latest transition taking
    /// effect at or before it. No transition means healthy.
    fn degraded_at(&self, symbol: usize, interval: usize) -> bool {
        let Some(line) = self.transitions.get(&symbol) else {
            return false;
        };
        match line.binary_search_by_key(&interval, |&(at, _)| at) {
            Ok(pos) => line[pos].1,
            Err(0) => false,
            Err(pos) => line[pos - 1].1,
        }
    }

    fn clear(&mut self) {
        self.transitions.clear();
    }
}

/// Why an order was refused (the discriminant indexes per-batch counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    Size = 0,
    BookFull = 1,
    Degraded = 2,
}

impl wire::Codec for Refusal {
    fn encode(&self, w: &mut wire::Writer) {
        (*self as u8).encode(w);
    }

    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        Ok(match u8::decode(r)? {
            0 => Refusal::Size,
            1 => Refusal::BookFull,
            2 => Refusal::Degraded,
            _ => return Err(wire::WireError::Invalid("risk refusal tag")),
        })
    }
}

/// A pair a host holds open: its net shares on `pair.0` and `pair.1`
/// (+ long, − short), and the refusal its entry met, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    net: [i64; 2],
    refused: Option<Refusal>,
}

/// A held pair as it travels in a checkpoint: `(pair, net, refusal)`.
type HeldRow = ((usize, usize), (i64, i64), Option<Refusal>);

/// One parameter set's book of held pairs.
#[derive(Debug, Clone, Default)]
struct Book {
    held: HashMap<(usize, usize), Held>,
    /// Held pairs whose entry was released: what the cap bounds.
    open: usize,
}

/// The risk-manager node.
#[derive(Clone)]
pub struct RiskManagerNode {
    limits: RiskLimits,
    /// Open-pairs book per parameter set. Keyed so a merged sweep graph
    /// keeps one independent exposure budget per strategy host.
    books: HashMap<usize, Book>,
    /// Per-symbol health transition timeline (degradation control plane).
    /// Entry legs touching a symbol degraded *at the order's interval* are
    /// refused as a backstop behind the strategy host's own refusal
    /// (defence in depth — a restarted or buggy strategy must not be able
    /// to open exposure on a dead feed).
    health: HealthTimeline,
    /// Health events already forwarded downstream, so the fan-in of many
    /// hosts forwarding the same event emits it exactly once.
    forwarded_health: HashSet<(usize, usize)>,
    stats: RiskStats,
    name: String,
    probe: Probe,
}

impl RiskManagerNode {
    /// Node with the given limits.
    pub fn new(limits: RiskLimits) -> Self {
        RiskManagerNode {
            limits,
            books: HashMap::new(),
            health: HealthTimeline::default(),
            forwarded_health: HashSet::new(),
            stats: RiskStats::default(),
            name: "risk-manager".to_string(),
            probe: Probe::off(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RiskStats {
        self.stats
    }

    fn order_within_size(&self, o: &OrderRequest) -> bool {
        o.shares <= self.limits.max_shares_per_order
            && (o.price * o.shares as f64) <= self.limits.max_order_notional
    }

    /// Judge one order and move its pair's book entry.
    fn judge(&mut self, o: &OrderRequest) -> Result<(), Refusal> {
        let within_size = self.order_within_size(o);
        let pair = o.pair;
        let book = self.books.entry(o.param_set).or_default();
        let held = match book.held.entry(pair) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) => {
                // A flat pair: this leg opens a position. Entries touching
                // a symbol degraded as of the order's own interval are
                // refused outright, as are entries past the cap; both
                // legs share the verdict, so the pair is admitted (or
                // refused) atomically.
                let refused = if self.health.degraded_at(pair.0, o.interval)
                    || self.health.degraded_at(pair.1, o.interval)
                {
                    Some(Refusal::Degraded)
                } else if book.open >= self.limits.max_open_pairs {
                    Some(Refusal::BookFull)
                } else {
                    book.open += 1;
                    None
                };
                slot.insert(Held {
                    net: [0, 0],
                    refused,
                })
            }
        };
        let shares = i64::from(o.shares);
        held.net[usize::from(o.stock != pair.0)] += match o.side {
            OrderSide::Buy => shares,
            OrderSide::Sell => -shares,
        };
        let refused = held.refused;
        if held.net == [0, 0] {
            // Flat again: the pair closes and (if released) frees its slot.
            book.held.remove(&pair);
            if refused.is_none() {
                book.open -= 1;
            }
        }
        if !within_size {
            return Err(Refusal::Size);
        }
        refused.map_or(Ok(()), Err)
    }

    /// Judge a host step's batch order by order and forward what passed.
    fn judge_batch(&mut self, batch: Arc<[OrderRequest]>, out: &mut Emit<'_>) {
        let mut counts = [0u64; 3];
        // Orders kept so far, materialised only once something is refused.
        let mut kept: Option<Vec<OrderRequest>> = None;
        for (k, o) in batch.iter().enumerate() {
            match (self.judge(o), &mut kept) {
                (Ok(()), None) => {}
                (Ok(()), Some(kept)) => kept.push(o.clone()),
                (Err(r), kept) => {
                    counts[r as usize] += 1;
                    kept.get_or_insert_with(|| batch[..k].to_vec());
                }
            }
        }
        let [size, book_full, degraded] = counts;
        let passed = batch.len() as u64 - size - book_full - degraded;
        self.stats.passed += passed;
        self.stats.rejected_size += size;
        self.stats.rejected_book_full += book_full;
        self.stats.rejected_degraded += degraded;
        for (name, n) in [
            ("orders.passed", passed),
            ("orders.rejected_size", size),
            ("orders.rejected_book_full", book_full),
            ("orders.rejected_degraded", degraded),
        ] {
            if n > 0 {
                self.probe.count(name, n);
            }
        }
        match kept {
            None => out(Message::Orders(batch)),
            Some(kept) if kept.is_empty() => {}
            Some(kept) => out(Message::Orders(kept.into())),
        }
    }
}

impl Component for RiskManagerNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        match msg {
            Message::Orders(batch) => self.judge_batch(batch, out),
            Message::Health(h) => {
                self.health.record(h.symbol, h.interval, h.is_degraded());
                // Fan-in dedup: forward each distinct transition once.
                if self.forwarded_health.insert((h.symbol, h.interval)) {
                    out(Message::Health(h));
                }
            }
            other => out(other),
        }
    }

    fn on_end(&mut self, _out: &mut Emit<'_>) {
        self.books.clear();
        self.health.clear();
        self.forwarded_health.clear();
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
        // Hash containers encode in sorted order so identical logical
        // state always serializes to identical bytes.
        let mut books: Vec<(usize, Vec<HeldRow>)> = self
            .books
            .iter()
            .map(|(k, book)| {
                let mut rows: Vec<HeldRow> = book
                    .held
                    .iter()
                    .map(|(&pair, h)| (pair, (h.net[0], h.net[1]), h.refused))
                    .collect();
                rows.sort_unstable_by_key(|&(pair, ..)| pair);
                (*k, rows)
            })
            .collect();
        books.sort_unstable_by_key(|(k, _)| *k);
        books.encode(&mut w);
        let mut timeline: Vec<(usize, Vec<(usize, bool)>)> = self
            .health
            .transitions
            .iter()
            .map(|(k, line)| (*k, line.clone()))
            .collect();
        timeline.sort_unstable_by_key(|(k, _)| *k);
        timeline.encode(&mut w);
        let mut forwarded: Vec<(usize, usize)> = self.forwarded_health.iter().copied().collect();
        forwarded.sort_unstable();
        forwarded.encode(&mut w);
        self.stats.passed.encode(&mut w);
        self.stats.rejected_size.encode(&mut w);
        self.stats.rejected_book_full.encode(&mut w);
        self.stats.rejected_degraded.encode(&mut w);
        Some(w.into_bytes())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        use wire::{Codec, WireError};
        fn go(node: &mut RiskManagerNode, bytes: &[u8]) -> Result<(), WireError> {
            let r = &mut wire::Reader::new(bytes);
            let books = Vec::<(usize, Vec<HeldRow>)>::decode(r)?;
            let timeline = Vec::<(usize, Vec<(usize, bool)>)>::decode(r)?;
            let forwarded = Vec::<(usize, usize)>::decode(r)?;
            let passed = u64::decode(r)?;
            let rejected_size = u64::decode(r)?;
            let rejected_book_full = u64::decode(r)?;
            let rejected_degraded = u64::decode(r)?;
            if !r.is_empty() {
                return Err(WireError::Invalid("trailing bytes"));
            }
            node.books = books
                .into_iter()
                .map(|(k, rows)| {
                    let mut book = Book::default();
                    for (pair, (net0, net1), refused) in rows {
                        book.open += usize::from(refused.is_none());
                        let net = [net0, net1];
                        book.held.insert(pair, Held { net, refused });
                    }
                    (k, book)
                })
                .collect();
            node.health.transitions = timeline.into_iter().collect();
            node.forwarded_health = forwarded.into_iter().collect();
            node.stats = RiskStats {
                passed,
                rejected_size,
                rejected_book_full,
                rejected_degraded,
            };
            Ok(())
        }
        go(self, bytes).is_ok()
    }

    fn attach_telemetry(&mut self, probe: Probe) {
        self.probe = probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Cause, TradeReport};
    use std::sync::Arc;

    fn order_at(
        interval: usize,
        param_set: usize,
        pair: (usize, usize),
        stock: usize,
        side: OrderSide,
        shares: u32,
        price: f64,
    ) -> Message {
        Message::Orders(Arc::new([OrderRequest {
            interval,
            param_set,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            stock,
            side,
            shares,
            price,
            pair,
            needs_confirmation: false,
            cause: Cause::none(),
        }]))
    }

    fn order(
        pair: (usize, usize),
        stock: usize,
        side: OrderSide,
        shares: u32,
        price: f64,
    ) -> Message {
        order_at(0, 0, pair, stock, side, shares, price)
    }

    fn run(node: &mut RiskManagerNode, msgs: Vec<Message>) -> usize {
        let mut passed = 0;
        for m in msgs {
            node.on_message(m, &mut |out| {
                if let Message::Orders(batch) = out {
                    passed += batch.len();
                }
            });
        }
        passed
    }

    #[test]
    fn passes_normal_orders() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let passed = run(
            &mut node,
            vec![
                order((1, 0), 0, OrderSide::Buy, 5, 30.0),
                order((1, 0), 1, OrderSide::Sell, 1, 130.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().passed, 2);
    }

    #[test]
    fn rejects_oversized_orders() {
        let limits = RiskLimits {
            max_shares_per_order: 100,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let passed = run(&mut node, vec![order((1, 0), 0, OrderSide::Buy, 101, 1.0)]);
        assert_eq!(passed, 0);
        assert_eq!(node.stats().rejected_size, 1);
    }

    #[test]
    fn rejects_over_notional_orders() {
        let limits = RiskLimits {
            max_order_notional: 1000.0,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let passed = run(&mut node, vec![order((1, 0), 0, OrderSide::Buy, 11, 100.0)]);
        assert_eq!(passed, 0);
    }

    #[test]
    fn caps_concurrently_open_pairs() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        // First pair admitted (both legs), second pair rejected.
        let passed = run(
            &mut node,
            vec![
                order((1, 0), 0, OrderSide::Buy, 1, 10.0),
                order((1, 0), 1, OrderSide::Sell, 1, 10.0),
                order((2, 0), 0, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().rejected_book_full, 1);
    }

    #[test]
    fn open_pairs_cap_is_per_param_set() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        // Param set 0 fills its book; param set 1's entry still passes,
        // while param set 0's second pair is refused.
        let passed = run(
            &mut node,
            vec![
                order_at(0, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(0, 1, (2, 0), 2, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (2, 0), 2, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        assert_eq!(node.stats().rejected_book_full, 1);
    }

    #[test]
    fn degraded_symbols_block_entries_but_not_exits() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        let mut node = RiskManagerNode::new(RiskLimits::default());
        // Pair (1,0) enters while healthy.
        let passed = run(
            &mut node,
            vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
            ],
        );
        assert_eq!(passed, 2);
        // Symbol 1 degrades from interval 5.
        let mut forwarded = 0;
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 5,
                symbol: 1,
                status: HealthStatus::Degraded(DegradeReason::Quarantine),
                cause: Cause::none(),
            })),
            &mut |m| {
                if matches!(m, Message::Health(_)) {
                    forwarded += 1;
                }
            },
        );
        assert_eq!(forwarded, 1, "health forwarded downstream");
        // Exits for the open pair still pass; new entries touching the
        // degraded symbol are refused.
        let passed = run(
            &mut node,
            vec![
                order_at(6, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(6, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                order_at(6, 0, (2, 1), 2, OrderSide::Buy, 1, 10.0),
                order_at(6, 0, (3, 2), 3, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 3, "exits + unrelated entry pass");
        assert_eq!(node.stats().rejected_degraded, 1);
        // Recovery lifts the block from interval 9.
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 9,
                symbol: 1,
                status: HealthStatus::Healthy,
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        let passed = run(
            &mut node,
            vec![order_at(9, 0, (4, 1), 1, OrderSide::Buy, 1, 10.0)],
        );
        assert_eq!(passed, 1);
    }

    #[test]
    fn degraded_check_is_arrival_order_insensitive() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        // A slow host's order for interval 3 arrives *after* the health
        // event taking effect at interval 5 — it must still pass, because
        // the symbol was healthy at the order's own interval.
        let mut node = RiskManagerNode::new(RiskLimits::default());
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval: 5,
                symbol: 1,
                status: HealthStatus::Degraded(DegradeReason::Outage),
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
        let passed = run(
            &mut node,
            vec![
                order_at(3, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(5, 1, (1, 0), 0, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(
            passed, 1,
            "pre-degradation entry passes, at-or-after is refused"
        );
        assert_eq!(node.stats().rejected_degraded, 1);
    }

    #[test]
    fn duplicate_health_events_forward_once() {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let ev = Arc::new(HealthEvent {
            interval: 7,
            symbol: 2,
            status: HealthStatus::Degraded(DegradeReason::Halt),
            cause: Cause::none(),
        });
        let mut forwarded = 0;
        for _ in 0..3 {
            node.on_message(Message::Health(ev.clone()), &mut |m| {
                if matches!(m, Message::Health(_)) {
                    forwarded += 1;
                }
            });
        }
        assert_eq!(forwarded, 1, "fan-in duplicates are swallowed");
    }

    /// One host step's orders as a single batch.
    fn batch(msgs: Vec<Message>) -> Message {
        let orders: Vec<OrderRequest> = msgs
            .into_iter()
            .flat_map(|m| match m {
                Message::Orders(b) => b.to_vec(),
                _ => unreachable!("order helpers build batches"),
            })
            .collect();
        Message::Orders(orders.into())
    }

    fn degrade(node: &mut RiskManagerNode, symbol: usize, interval: usize) {
        use crate::messages::{DegradeReason, HealthEvent, HealthStatus};
        node.on_message(
            Message::Health(Arc::new(HealthEvent {
                interval,
                symbol,
                status: HealthStatus::Degraded(DegradeReason::Outage),
                cause: Cause::none(),
            })),
            &mut |_| {},
        );
    }

    #[test]
    fn reopen_touching_a_degraded_symbol_is_refused() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        // Pair (1,0) opens and closes while healthy.
        let passed = run(
            &mut node,
            vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(3, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(3, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 4);
        // Symbol 1 degrades from interval 5; the pair's reopen is an entry
        // again and meets the backstop, as do the refused position's exits.
        degrade(&mut node, 1, 5);
        let passed = run(
            &mut node,
            vec![
                order_at(6, 0, (1, 0), 0, OrderSide::Buy, 1, 10.0),
                order_at(6, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(8, 0, (1, 0), 0, OrderSide::Sell, 1, 10.0),
                order_at(8, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
            ],
        );
        assert_eq!(passed, 0, "reopen refused, and its exits with it");
        assert_eq!(node.stats().rejected_degraded, 4);
    }

    #[test]
    fn closing_a_pair_frees_its_slot() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let passed = run(
            &mut node,
            vec![
                // (1,0) takes the only slot; (2,0) is refused meanwhile.
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 2, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(2, 0, (2, 0), 2, OrderSide::Buy, 1, 10.0),
                // (1,0) closes: its slot is free again.
                order_at(3, 0, (1, 0), 0, OrderSide::Sell, 2, 10.0),
                order_at(3, 0, (1, 0), 1, OrderSide::Buy, 1, 10.0),
                // The refused position's exit is refused too: it must not
                // open exposure of its own in the freed slot.
                order_at(4, 0, (2, 0), 2, OrderSide::Sell, 1, 10.0),
                // A new pair takes the slot.
                order_at(5, 0, (3, 2), 3, OrderSide::Buy, 1, 10.0),
                order_at(5, 0, (3, 2), 2, OrderSide::Sell, 1, 10.0),
            ],
        );
        assert_eq!(passed, 6);
        assert_eq!(node.stats().rejected_book_full, 2);
    }

    #[test]
    fn all_pass_batch_forwards_the_same_arc() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let msg = batch(vec![
            order((1, 0), 0, OrderSide::Buy, 5, 30.0),
            order((1, 0), 1, OrderSide::Sell, 1, 130.0),
        ]);
        let Message::Orders(sent) = msg.clone() else {
            unreachable!()
        };
        let mut got = None;
        node.on_message(msg, &mut |m| {
            if let Message::Orders(b) = m {
                got = Some(b);
            }
        });
        assert!(Arc::ptr_eq(&sent, &got.expect("batch forwarded")));
    }

    #[test]
    fn mixed_batch_forwards_a_filtered_copy_in_order() {
        let limits = RiskLimits {
            max_shares_per_order: 100,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        let mut got: Vec<Arc<[OrderRequest]>> = Vec::new();
        node.on_message(
            batch(vec![
                order((1, 0), 0, OrderSide::Buy, 5, 30.0),
                order((2, 0), 2, OrderSide::Buy, 101, 1.0),
                order((1, 0), 1, OrderSide::Sell, 1, 130.0),
            ]),
            &mut |m| {
                if let Message::Orders(b) = m {
                    got.push(b);
                }
            },
        );
        assert_eq!(got.len(), 1, "one batch in, at most one batch out");
        let stocks: Vec<usize> = got[0].iter().map(|o| o.stock).collect();
        assert_eq!(stocks, vec![0, 1]);
        assert_eq!(node.stats().passed, 2);
        assert_eq!(node.stats().rejected_size, 1);
        // A batch refused in full emits nothing.
        node.on_message(
            batch(vec![order((3, 0), 3, OrderSide::Buy, 101, 1.0)]),
            &mut |m| {
                got.push(match m {
                    Message::Orders(b) => b,
                    other => panic!("unexpected {}", other.kind()),
                })
            },
        );
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn book_survives_a_state_round_trip() {
        let limits = RiskLimits {
            max_open_pairs: 1,
            ..Default::default()
        };
        let mut node = RiskManagerNode::new(limits);
        run(
            &mut node,
            vec![
                order_at(1, 0, (1, 0), 0, OrderSide::Buy, 2, 10.0),
                order_at(1, 0, (1, 0), 1, OrderSide::Sell, 1, 10.0),
                order_at(2, 0, (2, 0), 2, OrderSide::Buy, 1, 10.0),
            ],
        );
        let bytes = node.encode_state().unwrap();
        let mut twin = RiskManagerNode::new(limits);
        assert!(twin.decode_state(&bytes));
        assert_eq!(twin.encode_state().unwrap(), bytes);
        // Both still see (1,0) holding the slot and (2,0) refused.
        for n in [&mut node, &mut twin] {
            let passed = run(
                n,
                vec![
                    order_at(3, 0, (2, 0), 2, OrderSide::Sell, 1, 10.0),
                    order_at(3, 0, (3, 0), 3, OrderSide::Buy, 1, 10.0),
                ],
            );
            assert_eq!(passed, 0);
        }
    }

    #[test]
    fn non_orders_pass_through() {
        let mut node = RiskManagerNode::new(RiskLimits::default());
        let mut kinds = Vec::new();
        node.on_message(
            Message::Trades(Arc::new(TradeReport {
                param_set: 0,
                strategy: pairtrade_core::spec::StrategyKind::Paper,
                trades: vec![],
                cause: Cause::none(),
            })),
            &mut |m| kinds.push(m.kind()),
        );
        assert_eq!(kinds, vec!["trades"]);
    }
}
