//! The order gateway: basket aggregation and the two order paths of
//! Figure 1.
//!
//! "Aggregating the results into a single basket, as opposed to many
//! individual trade orders, allows the trading system to utilize a
//! sophisticated list-based algorithm to optimize the actual execution."
//! The gateway buffers order requests per interval — each host step's
//! [`Message::Orders`] batch lands at once — and emits one [`Basket`] per
//! interval boundary; Figure 1's
//! "with human confirmation" vs "no human confirmation" paths are the
//! per-order `needs_confirmation` flag, preserved through aggregation.
//!
//! Two aggregation modes:
//!
//! * **Streaming** (default): orders arrive in interval order from a single
//!   strategy host, so an interval change is a flush boundary. Baskets are
//!   emitted as soon as the next interval begins.
//! * **Bucketed** ([`OrderGatewayNode::bucketed`]): a sweep graph fans many
//!   hosts into the gateway, so orders for interval 30 can arrive after
//!   orders for interval 40. The gateway buckets orders by interval,
//!   flushes every basket at end-of-day in interval order, and sorts each
//!   basket into a canonical order — the output is bit-identical no matter
//!   how the fan-in interleaved.

use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::Probe;

use crate::messages::{Basket, Cause, Message, OrderRequest};
use crate::node::{Component, Emit, NodeState};

#[derive(Clone)]
enum Mode {
    /// Flush on interval change; orders keep emission order.
    Streaming {
        current_interval: Option<usize>,
        pending: Vec<OrderRequest>,
    },
    /// Bucket by interval, flush all at end-of-day, canonical sort.
    Bucketed {
        buckets: BTreeMap<usize, Vec<OrderRequest>>,
    },
}

/// Basket-aggregating order gateway.
#[derive(Clone)]
pub struct OrderGatewayNode {
    mode: Mode,
    baskets_emitted: u64,
    name: String,
    probe: Probe,
}

/// Canonical intra-basket order: `(param_set, pair, stock, side, shares,
/// price-bits)`. A total order over every field that distinguishes two
/// orders, so sorting is deterministic and independent of arrival order.
pub(crate) fn canonical_key(o: &OrderRequest) -> (usize, (usize, usize), usize, u8, u32, u64) {
    let side = match o.side {
        crate::messages::OrderSide::Buy => 0u8,
        crate::messages::OrderSide::Sell => 1u8,
    };
    (
        o.param_set,
        o.pair,
        o.stock,
        side,
        o.shares,
        o.price.to_bits(),
    )
}

impl OrderGatewayNode {
    /// New streaming gateway.
    pub fn new() -> Self {
        OrderGatewayNode {
            mode: Mode::Streaming {
                current_interval: None,
                pending: Vec::new(),
            },
            baskets_emitted: 0,
            name: "order-gateway".to_string(),
            probe: Probe::off(),
        }
    }

    /// Switch to bucketed (fan-in-deterministic) aggregation: orders are
    /// bucketed by interval regardless of arrival order, each basket is
    /// sorted canonically, and all baskets flush at end-of-day in interval
    /// order. Use this when multiple strategy hosts feed one gateway.
    pub fn bucketed(mut self) -> Self {
        self.mode = Mode::Bucketed {
            buckets: BTreeMap::new(),
        };
        self
    }

    /// Baskets emitted so far.
    pub fn baskets_emitted(&self) -> u64 {
        self.baskets_emitted
    }

    fn flush_streaming(&mut self, out: &mut Emit<'_>) {
        if let Mode::Streaming {
            current_interval,
            pending,
        } = &mut self.mode
        {
            if let Some(interval) = current_interval.take() {
                if !pending.is_empty() {
                    self.baskets_emitted += 1;
                    self.probe.count("baskets.emitted", 1);
                    self.probe.observe("basket.orders", pending.len() as u64);
                    let orders = std::mem::take(pending);
                    let cause = Cause::derived(orders.iter().map(|o| o.cause.id));
                    out(Message::Basket(Arc::new(Basket {
                        interval,
                        orders,
                        cause,
                    })));
                }
            }
        }
    }
}

impl Default for OrderGatewayNode {
    fn default() -> Self {
        Self::new()
    }
}

impl Component for OrderGatewayNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, msg: Message, out: &mut Emit<'_>) {
        let batch = match msg {
            Message::Orders(batch) => batch,
            other => {
                out(other); // trade reports etc. pass through
                return;
            }
        };
        // A host step's orders share an interval (end-of-day closes
        // aside), so the batch lands run by run, not order by order.
        for run in batch.chunk_by(|a, b| a.interval == b.interval) {
            let interval = run[0].interval;
            if let Mode::Bucketed { buckets } = &mut self.mode {
                buckets.entry(interval).or_default().extend_from_slice(run);
                continue;
            }
            let boundary = matches!(
                &self.mode,
                Mode::Streaming { current_interval, .. }
                    if *current_interval != Some(interval)
            );
            if boundary {
                self.flush_streaming(out);
            }
            if let Mode::Streaming {
                current_interval,
                pending,
            } = &mut self.mode
            {
                *current_interval = Some(interval);
                pending.extend_from_slice(run);
            }
        }
    }

    fn on_end(&mut self, out: &mut Emit<'_>) {
        match &mut self.mode {
            Mode::Streaming { .. } => self.flush_streaming(out),
            Mode::Bucketed { buckets } => {
                for (interval, mut orders) in std::mem::take(buckets) {
                    orders.sort_by_key(canonical_key);
                    self.baskets_emitted += 1;
                    self.probe.count("baskets.emitted", 1);
                    self.probe.observe("basket.orders", orders.len() as u64);
                    let cause = Cause::derived(orders.iter().map(|o| o.cause.id));
                    out(Message::Basket(Arc::new(Basket {
                        interval,
                        orders,
                        cause,
                    })));
                }
            }
        }
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
        match &self.mode {
            Mode::Streaming {
                current_interval,
                pending,
            } => {
                0u8.encode(&mut w);
                current_interval.encode(&mut w);
                pending.encode(&mut w);
            }
            Mode::Bucketed { buckets } => {
                1u8.encode(&mut w);
                let flat: Vec<(usize, Vec<OrderRequest>)> =
                    buckets.iter().map(|(k, v)| (*k, v.clone())).collect();
                flat.encode(&mut w);
            }
        }
        self.baskets_emitted.encode(&mut w);
        Some(w.into_bytes())
    }

    fn decode_state(&mut self, bytes: &[u8]) -> bool {
        use wire::{Codec, WireError};
        fn go(node: &mut OrderGatewayNode, bytes: &[u8]) -> Result<(), WireError> {
            let r = &mut wire::Reader::new(bytes);
            let mode = match (u8::decode(r)?, &node.mode) {
                (0, Mode::Streaming { .. }) => Mode::Streaming {
                    current_interval: Option::<usize>::decode(r)?,
                    pending: Vec::<OrderRequest>::decode(r)?,
                },
                (1, Mode::Bucketed { .. }) => Mode::Bucketed {
                    buckets: Vec::<(usize, Vec<OrderRequest>)>::decode(r)?
                        .into_iter()
                        .collect(),
                },
                _ => return Err(WireError::Invalid("gateway mode mismatch")),
            };
            let baskets_emitted = u64::decode(r)?;
            if !r.is_empty() {
                return Err(WireError::Invalid("trailing bytes"));
            }
            node.mode = mode;
            node.baskets_emitted = baskets_emitted;
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
    use crate::messages::OrderSide;

    fn order(interval: usize, stock: usize, confirm: bool) -> Message {
        order_for(interval, 0, stock, confirm)
    }

    fn order_for(interval: usize, param_set: usize, stock: usize, confirm: bool) -> Message {
        Message::Orders(Arc::new([OrderRequest {
            interval,
            param_set,
            strategy: pairtrade_core::spec::StrategyKind::Paper,
            stock,
            side: OrderSide::Buy,
            shares: 1,
            price: 10.0,
            pair: (1, 0),
            needs_confirmation: confirm,
            cause: Cause::none(),
        }]))
    }

    fn run_node(mut node: OrderGatewayNode, msgs: Vec<Message>) -> Vec<Arc<Basket>> {
        let mut baskets = Vec::new();
        {
            let mut emit = |m: Message| {
                if let Message::Basket(b) = m {
                    baskets.push(b);
                }
            };
            for m in msgs {
                node.on_message(m, &mut emit);
            }
            node.on_end(&mut emit);
        }
        baskets
    }

    fn run(msgs: Vec<Message>) -> Vec<Arc<Basket>> {
        run_node(OrderGatewayNode::new(), msgs)
    }

    #[test]
    fn groups_orders_by_interval() {
        let baskets = run(vec![
            order(5, 0, false),
            order(5, 1, false),
            order(7, 2, false),
            order(7, 3, false),
            order(7, 4, false),
        ]);
        assert_eq!(baskets.len(), 2);
        assert_eq!(baskets[0].interval, 5);
        assert_eq!(baskets[0].orders.len(), 2);
        assert_eq!(baskets[1].interval, 7);
        assert_eq!(baskets[1].orders.len(), 3);
    }

    #[test]
    fn final_basket_flushed_at_end() {
        let baskets = run(vec![order(3, 0, false)]);
        assert_eq!(baskets.len(), 1);
        assert_eq!(baskets[0].interval, 3);
    }

    #[test]
    fn confirmation_flags_survive_aggregation() {
        let baskets = run(vec![order(1, 0, true), order(1, 1, false)]);
        assert!(baskets[0].orders[0].needs_confirmation);
        assert!(!baskets[0].orders[1].needs_confirmation);
    }

    #[test]
    fn no_orders_no_baskets() {
        assert!(run(vec![]).is_empty());
    }

    #[test]
    fn bucketed_mode_is_arrival_order_insensitive() {
        // Two interleavings of the same orders (as a sweep fan-in would
        // produce) must yield identical baskets.
        let a = run_node(
            OrderGatewayNode::new().bucketed(),
            vec![
                order_for(5, 0, 0, false),
                order_for(7, 0, 1, false),
                order_for(5, 1, 2, false),
                order_for(7, 1, 3, true),
            ],
        );
        let b = run_node(
            OrderGatewayNode::new().bucketed(),
            vec![
                order_for(7, 1, 3, true),
                order_for(5, 1, 2, false),
                order_for(5, 0, 0, false),
                order_for(7, 0, 1, false),
            ],
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interval, y.interval);
            assert_eq!(x.orders, y.orders);
        }
        // Baskets come out in interval order with canonically sorted rows.
        assert_eq!(a[0].interval, 5);
        assert_eq!(a[1].interval, 7);
        assert!(a[0]
            .orders
            .windows(2)
            .all(|w| w[0].param_set <= w[1].param_set));
    }

    #[test]
    fn a_batch_spanning_intervals_splits_across_baskets() {
        let orders: Vec<OrderRequest> = [(5, 0), (5, 1), (7, 2)]
            .into_iter()
            .flat_map(|(interval, stock)| match order(interval, stock, false) {
                Message::Orders(b) => b.to_vec(),
                _ => unreachable!(),
            })
            .collect();
        for node in [OrderGatewayNode::new(), OrderGatewayNode::new().bucketed()] {
            let baskets = run_node(node, vec![Message::Orders(orders.clone().into())]);
            let shape: Vec<(usize, usize)> = baskets
                .iter()
                .map(|b| (b.interval, b.orders.len()))
                .collect();
            assert_eq!(shape, vec![(5, 2), (7, 1)]);
        }
    }

    #[test]
    fn bucketed_mode_flushes_out_of_order_intervals_sorted() {
        let baskets = run_node(
            OrderGatewayNode::new().bucketed(),
            vec![
                order_for(9, 0, 0, false),
                order_for(2, 0, 1, false),
                order_for(9, 2, 2, false),
            ],
        );
        assert_eq!(baskets.len(), 2);
        assert_eq!(baskets[0].interval, 2);
        assert_eq!(baskets[1].interval, 9);
        assert_eq!(baskets[1].orders.len(), 2);
    }
}
