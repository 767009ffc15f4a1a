//! The single-threaded layer driver: the sweep graph's components called
//! one message at a time, in the DAG's dependency order, through their
//! public `Component::on_message` / `on_end` entry points.
//!
//! The shared front end runs first over the whole day: bars per quote,
//! and for each message bars emits, technical and every correlation
//! engine. Then each strategy host runs over the whole day (per interval
//! the bar set, then its stream's snapshot), its orders going through
//! risk and the gateway as they come. End of day calls `on_end` in
//! topological order. Host-major order keeps one host's state in cache
//! for its whole day, as the DAG's batched scheduling mostly does. Risk
//! keeps one book per param set and the gateway buckets and sorts
//! canonically, so the order yields the same trades and baskets as the
//! multi-threaded DAG; every traced run checks that by digest.
//!
//! With tracing on, each call is one [`Span`]: layer, node, the interval
//! as request id, start, duration, and the span whose output the call
//! consumed. Calls never nest, so a span's self time is its duration.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use marketminer::components::{
    BarAccumulatorNode, CorrelationEngineNode, OrderGatewayNode, RiskManagerNode, StrategyHostNode,
    TechnicalAnalysisNode,
};
use marketminer::messages::{Basket, Cause, Message};
use marketminer::node::Component;
use marketminer::pipeline::SweepConfig;
use pairtrade_core::trade::Trade;
use stats::correlation::CorrType;
use taq::quote::Quote;

/// Span layer ids, in DAG order.
pub const LAYERS: [&str; 6] = [
    "bar_accumulator",
    "technical",
    "correlation_engine",
    "strategy_node",
    "risk",
    "order_gateway",
];
pub const BARS: u8 = 0;
pub const TECHNICAL: u8 = 1;
pub const ENGINE: u8 = 2;
pub const HOST: u8 = 3;
pub const RISK: u8 = 4;
pub const GATEWAY: u8 = 5;

/// Request id of `on_end` calls and of messages without an interval.
pub const END_OF_DAY: u32 = u32::MAX;
/// Parent of spans caused by the fed quote itself.
pub const NO_PARENT: u32 = u32::MAX;

/// The technical node's volatility span in the sweep graph.
const VOL_SPAN: usize = 20;

/// One traced call. Its id is its index in the span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`LAYERS`].
    pub layer: u8,
    /// Engine or host index within the layer (0 for single nodes).
    pub node: u16,
    /// Request id: the trading interval, or [`END_OF_DAY`].
    pub interval: u32,
    /// Start, ns since the driver was built.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u32,
    /// Id of the span that emitted the consumed message, or
    /// [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Size of one record in the span file.
    pub const BYTES: usize = 24;

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.layer);
        buf.push(0);
        buf.extend_from_slice(&self.node.to_le_bytes());
        buf.extend_from_slice(&self.interval.to_le_bytes());
        buf.extend_from_slice(&self.start_ns.to_le_bytes());
        buf.extend_from_slice(&self.dur_ns.to_le_bytes());
        buf.extend_from_slice(&self.parent.to_le_bytes());
    }
}

/// Work and busy time per layer over one driven day.
#[derive(Debug, Default, Clone)]
pub struct LayerReport {
    /// Busy ns per layer (only measured with tracing on).
    pub busy_ns: [u64; 6],
    /// Quotes fed to the bar accumulator.
    pub quotes: u64,
    /// Per engine: estimator, busy ns, snapshots emitted.
    pub engines: Vec<(CorrType, u64, u64)>,
    /// Strategy-host `on_message` calls.
    pub host_steps: u64,
    /// Orders the hosts emitted.
    pub host_orders: u64,
    /// Orders into risk, and out of it.
    pub risk_in: u64,
    /// Orders risk passed on.
    pub risk_out: u64,
    /// Orders into the gateway.
    pub gateway_in: u64,
    /// Baskets the gateway emitted.
    pub baskets: u64,
}

impl LayerReport {
    /// Σ busy over every layer, in seconds.
    pub fn total_busy_s(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Busy seconds of one layer.
    pub fn busy_s(&self, layer: u8) -> f64 {
        self.busy_ns[layer as usize] as f64 / 1e9
    }

    /// Busy seconds and snapshots of the engines using `ctype`.
    pub fn engine(&self, ctype: CorrType) -> (f64, u64) {
        self.engines
            .iter()
            .filter(|e| e.0 == ctype)
            .fold((0.0, 0), |(s, n), e| (s + e.1 as f64 / 1e9, n + e.2))
    }
}

/// The sweep graph's components, driven by hand.
pub struct LayerDriver {
    dt: u32,
    bars: BarAccumulatorNode,
    technical: TechnicalAnalysisNode,
    engines: Vec<CorrelationEngineNode>,
    hosts: Vec<StrategyHostNode>,
    host_stream: Vec<usize>,
    risk: RiskManagerNode,
    gateway: OrderGatewayNode,
    origin: Instant,
    spans: Option<Vec<Span>>,
    report: LayerReport,
    trades_per_param: Vec<Vec<Trade>>,
    baskets: Vec<Arc<Basket>>,
}

/// Messages a call emitted, each tagged with the emitting span's id.
type Out = Vec<(Message, u32)>;

/// A driven day: layer report, trades per param set, baskets, spans.
pub type DayOutput = (LayerReport, Vec<Vec<Trade>>, Vec<Arc<Basket>>, Vec<Span>);

/// One bar-accumulator output (absent for the end-of-day flushes) and
/// the snapshots each engine derived from it.
type FrontEvent = (Option<(Message, u32)>, Vec<Out>);

impl LayerDriver {
    /// The components of `cfg`'s sweep graph, constructed exactly as the
    /// pipeline's graph builder constructs them. `trace` turns span
    /// recording on.
    pub fn new(cfg: &SweepConfig, trace: bool) -> LayerDriver {
        let n = cfg.n_stocks;
        let dt = cfg.specs[0].dt_seconds();
        let mut bars = BarAccumulatorNode::new(n, dt, cfg.clean);
        if let Some(policy) = cfg.health {
            bars = bars.with_health(policy);
        }
        let mut keys = Vec::new();
        let mut engines = Vec::new();
        let mut host_stream = Vec::new();
        for spec in &cfg.specs {
            let key = spec.stream_key();
            let j = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                engines.push(
                    CorrelationEngineNode::new(n, key.1, cfg.corr_stride, key.0)
                        .with_stream(keys.len()),
                );
                keys.push(key);
                keys.len() - 1
            });
            host_stream.push(j);
        }
        let hosts = cfg
            .specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                StrategyHostNode::from_spec(n, spec, cfg.exec, cfg.needs_confirmation)
                    .with_param_set(k)
            })
            .collect();
        LayerDriver {
            dt,
            bars,
            technical: TechnicalAnalysisNode::new(n, VOL_SPAN),
            engines,
            hosts,
            host_stream,
            risk: RiskManagerNode::new(cfg.limits),
            gateway: OrderGatewayNode::new().bucketed(),
            origin: Instant::now(),
            spans: trace.then(Vec::new),
            report: LayerReport {
                engines: keys.iter().map(|k| (k.0, 0, 0)).collect(),
                ..LayerReport::default()
            },
            trades_per_param: vec![Vec::new(); cfg.specs.len()],
            baskets: Vec::new(),
        }
    }

    /// Time one component call (when tracing) and tag its outputs with
    /// the call's span id.
    fn call(
        origin: Instant,
        spans: &mut Option<Vec<Span>>,
        report: &mut LayerReport,
        (layer, node, interval, parent): (u8, usize, u32, u32),
        f: impl FnOnce(&mut dyn FnMut(Message)),
    ) -> Out {
        let mut outs = Vec::new();
        let Some(spans) = spans else {
            f(&mut |m| outs.push((m, NO_PARENT)));
            return outs;
        };
        // Calls never nest, so this call's span takes the next id.
        let id = spans.len() as u32;
        let start = origin.elapsed();
        f(&mut |m| outs.push((m, id)));
        let dur_ns = (origin.elapsed() - start).as_nanos() as u64;
        spans.push(Span {
            layer,
            node: node as u16,
            interval,
            start_ns: start.as_nanos() as u64,
            dur_ns: dur_ns.min(u64::from(u32::MAX)) as u32,
            parent,
        });
        report.busy_ns[layer as usize] += dur_ns;
        if layer == ENGINE {
            report.engines[node].1 += dur_ns;
        }
        outs
    }

    /// Drive one day: the shared front end (bars → technical → engines)
    /// over every quote, then each host over the whole day with its
    /// orders through risk and the gateway as they come, then the
    /// end-of-day flushes. Returns the layer report, the trades per param
    /// set, the baskets and the spans.
    pub fn run_day(mut self, quotes: &[Quote]) -> DayOutput {
        let eod = |layer: u8, node: usize| (layer, node, END_OF_DAY, NO_PARENT);
        // What each host consumes, in order.
        let mut front: Vec<FrontEvent> = Vec::new();
        for &q in quotes {
            self.report.quotes += 1;
            let at = (BARS, 0, q.ts.interval(self.dt) as u32, NO_PARENT);
            let bars = &mut self.bars;
            let outs = Self::call(self.origin, &mut self.spans, &mut self.report, at, |out| {
                bars.on_message(Message::Quote(q, Cause::none()), out)
            });
            for (m, parent) in outs {
                front.push(self.through_front(m, parent));
            }
        }
        let bars = &mut self.bars;
        let outs = Self::call(
            self.origin,
            &mut self.spans,
            &mut self.report,
            eod(BARS, 0),
            |out| bars.on_end(out),
        );
        for (m, parent) in outs {
            front.push(self.through_front(m, parent));
        }
        let technical = &mut self.technical;
        let returns = Self::call(
            self.origin,
            &mut self.spans,
            &mut self.report,
            eod(TECHNICAL, 0),
            |out| technical.on_end(out),
        );
        let mut corr = self.run_engines(&returns);
        for (j, engine) in self.engines.iter_mut().enumerate() {
            let outs = Self::call(
                self.origin,
                &mut self.spans,
                &mut self.report,
                eod(ENGINE, j),
                |out| engine.on_end(out),
            );
            self.report.engines[j].2 += count_kind(&outs, "corr");
            corr[j].extend(outs);
        }
        front.push((None, corr));

        for h in 0..self.hosts.len() {
            let stream = self.host_stream[h];
            for (bars, corr) in &front {
                if let Some((m, parent)) = bars {
                    self.host_step(h, m.clone(), *parent);
                }
                for (c, parent) in &corr[stream] {
                    self.host_step(h, c.clone(), *parent);
                }
            }
            let host = &mut self.hosts[h];
            let outs = Self::call(
                self.origin,
                &mut self.spans,
                &mut self.report,
                eod(HOST, h),
                |out| host.on_end(out),
            );
            self.route_host_output(outs);
        }
        let risk = &mut self.risk;
        let outs = Self::call(
            self.origin,
            &mut self.spans,
            &mut self.report,
            eod(RISK, 0),
            |out| risk.on_end(out),
        );
        self.route_risk_output(outs);
        let gateway = &mut self.gateway;
        let outs = Self::call(
            self.origin,
            &mut self.spans,
            &mut self.report,
            eod(GATEWAY, 0),
            |out| gateway.on_end(out),
        );
        self.sink(outs);
        let spans = self.spans.unwrap_or_default();
        (self.report, self.trades_per_param, self.baskets, spans)
    }

    /// One bar-accumulator output through technical and every engine.
    fn through_front(&mut self, m: Message, parent: u32) -> FrontEvent {
        let technical = &mut self.technical;
        let msg = m.clone();
        let returns = Self::call(
            self.origin,
            &mut self.spans,
            &mut self.report,
            (TECHNICAL, 0, interval_of(&m), parent),
            |out| technical.on_message(msg, out),
        );
        (Some((m, parent)), self.run_engines(&returns))
    }

    /// Every engine consumes every message; outputs grouped per engine.
    fn run_engines(&mut self, inputs: &Out) -> Vec<Out> {
        let mut corr = vec![Vec::new(); self.engines.len()];
        for (j, engine) in self.engines.iter_mut().enumerate() {
            for (m, parent) in inputs {
                let msg = m.clone();
                let outs = Self::call(
                    self.origin,
                    &mut self.spans,
                    &mut self.report,
                    (ENGINE, j, interval_of(m), *parent),
                    |out| engine.on_message(msg, out),
                );
                self.report.engines[j].2 += count_kind(&outs, "corr");
                corr[j].extend(outs);
            }
        }
        corr
    }

    fn host_step(&mut self, h: usize, m: Message, parent: u32) {
        self.report.host_steps += 1;
        let host = &mut self.hosts[h];
        let at = (HOST, h, interval_of(&m), parent);
        let outs = Self::call(self.origin, &mut self.spans, &mut self.report, at, |out| {
            host.on_message(m, out)
        });
        self.route_host_output(outs);
    }

    fn route_host_output(&mut self, outs: Out) {
        self.report.host_orders += count_kind(&outs, "order");
        for (m, parent) in outs {
            self.risk_step(m, parent);
        }
    }

    fn risk_step(&mut self, m: Message, parent: u32) {
        self.report.risk_in += u64::from(m.kind() == "order");
        let risk = &mut self.risk;
        let at = (RISK, 0, interval_of(&m), parent);
        let outs = Self::call(self.origin, &mut self.spans, &mut self.report, at, |out| {
            risk.on_message(m, out)
        });
        self.route_risk_output(outs);
    }

    fn route_risk_output(&mut self, outs: Out) {
        self.report.risk_out += count_kind(&outs, "order");
        for (m, parent) in outs {
            self.report.gateway_in += u64::from(m.kind() == "order");
            let gateway = &mut self.gateway;
            let at = (GATEWAY, 0, interval_of(&m), parent);
            let outs = Self::call(self.origin, &mut self.spans, &mut self.report, at, |out| {
                gateway.on_message(m, out)
            });
            self.sink(outs);
        }
    }

    fn sink(&mut self, outs: Out) {
        for (m, _) in outs {
            match m {
                Message::Trades(t) => self.trades_per_param[t.param_set].extend(t.iter().copied()),
                Message::Basket(b) => {
                    self.report.baskets += 1;
                    self.baskets.push(b);
                }
                _ => {}
            }
        }
    }
}

fn interval_of(m: &Message) -> u32 {
    m.interval().map_or(END_OF_DAY, |i| i as u32)
}

fn count_kind(outs: &Out, kind: &str) -> u64 {
    outs.iter().filter(|(m, _)| m.kind() == kind).count() as u64
}

/// Write spans as fixed 24-byte little-endian records: layer `u8`, pad
/// `u8`, node `u16`, interval `u32`, start ns `u64`, duration ns `u32`,
/// parent id `u32` (a span's id is its record index).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut buf = Vec::with_capacity(Span::BYTES * 4096);
    for chunk in spans.chunks(4096) {
        buf.clear();
        for s in chunk {
            s.encode(&mut buf);
        }
        w.write_all(&buf)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_are_fixed_width() {
        let mut buf = Vec::new();
        let s = Span {
            layer: RISK,
            node: 7,
            interval: 301,
            start_ns: 1 << 40,
            dur_ns: 99,
            parent: 12,
        };
        s.encode(&mut buf);
        assert_eq!(buf.len(), Span::BYTES);
        assert_eq!(buf[0], RISK);
        assert_eq!(u32::from_le_bytes(buf[4..8].try_into().unwrap()), 301);
        assert_eq!(u32::from_le_bytes(buf[20..24].try_into().unwrap()), 12);
    }
}
