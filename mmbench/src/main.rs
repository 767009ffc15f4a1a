//! mmbench — the MarketMiner benchmark.
//!
//! ```text
//! mmbench --workload <sweep_paper|sweep_hosts|live_robust>
//!         [--seed 42] [--seconds 30] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's
//! telemetry off and no benchmark spans; `--trace 1` is the separate
//! per-layer pass. Human-readable lines go first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output still prints that line, with
//! `"correct": false`, and exits 1. See `README.md` for the workloads and
//! what each metric means.

mod digest;
mod layers;
mod measure;
mod pacing;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use marketminer::components::ReplayCollector;
use marketminer::live::LiveSweepSession;
use marketminer::messages::{Basket, Message};
use marketminer::pipeline::{run_sweep_pipeline_with, SweepConfig};
use marketminer::runtime::{Runtime, RuntimeConfig, DEFAULT_CHANNEL_CAPACITY};
use marketminer::TelemetryLevel;
use serve::{Popped, Router, Session, SessionRegistry, SubscriptionSpec};
use stats::correlation::CorrType;
use taq::dataset::DayData;
use taq::quote::Quote;

use digest::{digest, Digest};
use layers::{LayerDriver, LayerReport};
use measure::{median, percentile, tail_percentile, ThreadCensus};
use pacing::{open_loop, Clock, IntervalTiming, WallClock};
use workload::{generate_day, split_intervals, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Δs-intervals in one trading day (6.5 h at 30 s).
const INTERVALS: usize = 780;
/// Open-loop period of `live_robust`: 30 s of market time in 50 ms,
/// 600× real time.
const LIVE_PERIOD: Duration = Duration::from_millis(50);
/// Egress ring of each in-process subscriber (the server's default).
const RING_CAP: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mmbench --workload <sweep_paper|sweep_hosts|live_robust> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SweepPaper,
        seed: 42,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn runtime_config(workers: usize, telemetry: TelemetryLevel) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        capacity: DEFAULT_CHANNEL_CAPACITY,
        telemetry,
    }
}

/// One day through `run_sweep_pipeline_with`.
struct BatchDay {
    wall_s: f64,
    digest: Digest,
    /// No node failed and the watchdog severed nothing.
    clean: bool,
}

fn batch_day(day: &DayData, cfg: &SweepConfig, rt: RuntimeConfig) -> Result<BatchDay, String> {
    let source = Box::new(ReplayCollector::new(day.clone()));
    let t = Instant::now();
    let out = run_sweep_pipeline_with(Runtime::with_config(rt), source, cfg)
        .map_err(|e| format!("sweep pipeline: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    for f in &out.failures {
        eprintln!("node failure: {f:?}");
    }
    for s in &out.stalls {
        eprintln!("watchdog stall: {s:?}");
    }
    Ok(BatchDay {
        wall_s,
        digest: digest(&out.trades_per_param, &out.baskets),
        clean: out.failures.is_empty() && out.stalls.is_empty(),
    })
}

/// A live session with its two in-process subscribers.
struct LiveRig {
    session: LiveSweepSession,
    router: Router,
    subscribers: [Arc<Session>; 2],
    keys: Vec<(CorrType, usize)>,
}

fn open_live(cfg: &SweepConfig) -> Result<LiveRig, String> {
    let session = LiveSweepSession::new(cfg.clone(), runtime_config(0, TelemetryLevel::Off))
        .map_err(|e| format!("live session: {e}"))?;
    let registry = SessionRegistry::new();
    let router = Router::new();
    let corr = registry.open("corr-top10".into(), RING_CAP, 0);
    router.subscribe(
        &corr,
        SubscriptionSpec::Corr {
            ctype: CorrType::Maronna,
            window: 100,
            top_k: Some(10),
        },
    );
    let trades = registry.open("trades".into(), RING_CAP, 0);
    router.subscribe(&trades, SubscriptionSpec::Trades { param_set: None });
    let keys = session.stream_keys();
    Ok(LiveRig {
        session,
        router,
        subscribers: [corr, trades],
        keys,
    })
}

/// One day through the live session, cut by cut.
struct LiveDay {
    /// Fed on an open loop (rather than back to back).
    paced: bool,
    timings: Vec<IntervalTiming>,
    feed: Vec<Duration>,
    publish: Vec<Duration>,
    frames: u64,
    popped: u64,
    evictions: u64,
    /// First due time to the end of the end-of-day flush.
    wall_s: f64,
    /// Time spent serving: every cut's service time plus the flush (the
    /// wall time on a closed loop; idle pacing gaps excluded).
    served_s: f64,
    cpu_s: f64,
    digest: Digest,
    clean: bool,
    threads_peak: usize,
}

/// Feed every interval as one epoch, publish the cut to both
/// subscribers and pop their rings empty. `period` zero is a closed
/// loop (each cut fed once the previous one drained).
fn live_day(rig: LiveRig, cuts: &[&[Quote]], period: Duration, census: bool) -> LiveDay {
    let LiveRig {
        mut session,
        router,
        subscribers,
        keys,
    } = rig;
    let mut feed = Vec::with_capacity(cuts.len());
    let mut publish = Vec::with_capacity(cuts.len());
    let mut baskets: Vec<Arc<Basket>> = Vec::new();
    let (mut frames, mut popped, mut evictions) = (0, 0, 0);
    let sampler = census.then(ThreadCensus::start);
    let cpu0 = measure::process_cpu_s();
    let mut clock = WallClock::start();
    let timings = open_loop(&mut clock, cuts.len(), period, |k, _| {
        let t0 = Instant::now();
        let cut = session.feed_epoch(cuts[k]);
        let t1 = Instant::now();
        let stats = router.publish(&cut, &keys);
        publish.push(t1.elapsed());
        feed.push(t1 - t0);
        frames += stats.published;
        evictions += stats.evictions;
        for s in &subscribers {
            while let Popped::Item { .. } = s.ring.pop(Duration::ZERO) {
                popped += 1;
            }
        }
        baskets.extend(cut.messages.iter().filter_map(|m| match m {
            Message::Basket(b) => Some(Arc::clone(b)),
            _ => None,
        }));
    });
    let finish = Instant::now();
    let out = session.finish();
    let served_s = timings
        .iter()
        .map(|t| t.service().as_secs_f64())
        .sum::<f64>()
        + finish.elapsed().as_secs_f64();
    let wall_s = clock.now().as_secs_f64();
    let cpu_s = measure::process_cpu_s() - cpu0;
    let threads_peak = sampler.map_or(0, ThreadCensus::finish);
    for f in &out.failures {
        eprintln!("live node failure: {f:?}");
    }
    baskets.extend(out.baskets.iter().cloned());
    LiveDay {
        paced: !period.is_zero(),
        timings,
        feed,
        publish,
        frames,
        popped,
        evictions,
        wall_s,
        served_s,
        cpu_s,
        digest: digest(&out.trades_per_param, &baskets),
        clean: out.failures.is_empty(),
        threads_peak,
    }
}

impl LiveDay {
    /// Per-interval latency in ms: due time to drained on an open loop;
    /// on a closed loop an interval is due when the previous cut drained,
    /// so its latency is its own service time.
    fn latency_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .map(|t| ms(if self.paced { t.latency() } else { t.service() }))
            .collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compare a run's digest with the recorded one; prints both and the
/// row that would record it. Returns false on a mismatch.
fn check_recorded(w: Workload, seed: u64, d: &Digest) -> bool {
    println!("digest {d}");
    match digest::recorded(w.name(), seed) {
        Some(r) if r == *d => {
            println!("digest matches the record for {} seed {seed}", w.name());
            true
        }
        Some(r) => {
            println!("DIGEST MISMATCH: recorded {r}");
            false
        }
        None => {
            println!(
                "no recorded digest for {} seed {seed}; row: {}",
                w.name(),
                digest::record_line(w.name(), seed, d)
            );
            true
        }
    }
}

/// The end-to-end pass: set up several times, then serve whole days
/// through the live session (paced on `live_robust`, closed-loop on the
/// sweeps), one at least and more while they fit in `seconds`.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let day = generate_day(w.n_stocks(), seed);
        let cfg = w.sweep_config();
        cfg.validate().map_err(|e| format!("config: {e}"))?;
        let rig = open_live(&cfg)?;
        setup.push(t.elapsed().as_secs_f64());
        kept = Some((day, cfg, rig));
    }
    let (day, cfg, rig) = kept.expect("at least one set-up");
    let cuts = split_intervals(&day, cfg.specs[0].dt_seconds(), INTERVALS);
    let period = if w.is_live() {
        LIVE_PERIOD
    } else {
        Duration::ZERO
    };

    let measured = Instant::now();
    let mut rig = Some(rig);
    let mut days = Vec::new();
    loop {
        let rig = match rig.take() {
            Some(rig) => rig,
            None => open_live(&cfg)?,
        };
        days.push(live_day(rig, &cuts, period, false));
        let elapsed = measured.elapsed().as_secs_f64();
        if elapsed + elapsed / days.len() as f64 > seconds {
            break;
        }
    }

    let reference = days[0].digest;
    let recorded_ok = check_recorded(w, seed, &reference);
    // Operations: intervals on live_robust, param-set days on the
    // sweeps. A day with a failed node, an undelivered frame or a wrong
    // digest fails all of its operations.
    let per_day = if w.is_live() {
        INTERVALS
    } else {
        cfg.specs.len()
    } as u64;
    let mut failed = 0;
    for (k, d) in days.iter().enumerate() {
        let ok = d.clean && d.popped == d.frames && d.digest == reference && recorded_ok;
        if !ok {
            println!(
                "day {k} FAILED: clean {}, frames {}/{} popped, digest {}",
                d.clean, d.popped, d.frames, d.digest
            );
            failed += per_day;
        }
    }

    println!(
        "{}: seed {seed}, {} quotes, {} specs over {} streams, {} day(s) {}",
        w.name(),
        day.len(),
        cfg.specs.len(),
        cfg.distinct_streams().len(),
        days.len(),
        if w.is_live() {
            "on an open loop, 50 ms per interval"
        } else {
            "on a closed loop"
        },
    );
    let over_days = |f: &dyn Fn(&LiveDay) -> f64| median(&days.iter().map(f).collect::<Vec<_>>());
    for d in &days {
        println!(
            "  wall {:.3} s, served {:.3} s, cpu {:.2} s, {} frames, {} evicted",
            d.wall_s, d.served_s, d.cpu_s, d.frames, d.evictions
        );
    }
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("day_s", over_days(&|d| d.served_s), "s"),
        ("cpu_s", over_days(&|d| d.cpu_s), "s"),
        ("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        (
            "interval_latency_p50_ms",
            over_days(&|d| percentile(&d.latency_ms(), 50)),
            "ms",
        ),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted: per_day * days.len() as u64,
        failed,
        metrics,
    })
}

/// The driver's day, timed as a whole.
fn drive(
    cfg: &SweepConfig,
    day: &DayData,
    trace: bool,
) -> (f64, LayerReport, Digest, Vec<layers::Span>) {
    let driver = LayerDriver::new(cfg, trace);
    let t = Instant::now();
    let (report, trades, baskets, spans) = driver.run_day(day.quotes());
    let wall = t.elapsed().as_secs_f64();
    (wall, report, digest(&trades, &baskets), spans)
}

/// The per-layer pass.
fn traced(w: Workload, seed: u64) -> Result<Outcome, String> {
    let t = Instant::now();
    let day = generate_day(w.n_stocks(), seed);
    let generate_s = t.elapsed().as_secs_f64();
    let cfg = w.sweep_config();
    cfg.validate().map_err(|e| format!("config: {e}"))?;
    let specs = cfg.specs.len() as u64;

    let (traced_s, rep, traced_digest, spans) = drive(&cfg, &day, true);
    let span_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.bin", w.name()));
    layers::write_spans(&span_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("{} spans written to {}", spans.len(), span_path.display());
    drop(spans);
    let (plain_s, _, plain_digest, _) = drive(&cfg, &day, false);
    let w1 = batch_day(&day, &cfg, runtime_config(1, TelemetryLevel::Off))?;

    let mut digests = vec![
        ("traced driver", traced_digest),
        ("untraced driver", plain_digest),
        ("DAG workers=1", w1.digest),
    ];
    let mut clean = w1.clean;
    let pool = runtime_config(0, TelemetryLevel::Off).resolved_workers();
    let mut speedup = 0.0;
    let mut full_overhead_pct = 0.0;
    let threads_peak;
    let mut batch_max_s = 0.0;
    let mut live_metrics = [0.0; 6];
    let latency_p98_ms;
    let cuts = split_intervals(&day, cfg.specs[0].dt_seconds(), INTERVALS);
    if w.is_live() {
        let live = live_day(open_live(&cfg)?, &cuts, LIVE_PERIOD, true);
        digests.push(("live session, open loop", live.digest));
        clean &= live.clean && live.popped == live.frames;
        threads_peak = live.threads_peak;
        latency_p98_ms = percentile(&live.latency_ms(), tail_percentile(INTERVALS));
        let waits: Vec<f64> = live.timings.iter().map(|t| ms(t.queue_wait())).collect();
        live_metrics = [
            median(&live.feed.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
            waits.iter().sum::<f64>() / waits.len() as f64,
            live.timings
                .iter()
                .filter(|t| t.latency() > LIVE_PERIOD)
                .count() as f64,
            median(
                &live
                    .publish
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            ),
            live.frames as f64,
            live.evictions as f64,
        ];
    } else {
        let census = ThreadCensus::start();
        let max = batch_day(&day, &cfg, runtime_config(0, TelemetryLevel::Off))?;
        threads_peak = census.finish();
        digests.push(("DAG workers=max", max.digest));
        clean &= max.clean;
        batch_max_s = max.wall_s;
        speedup = w1.wall_s / max.wall_s;
        if w == Workload::SweepPaper {
            let full = batch_day(&day, &cfg, runtime_config(0, TelemetryLevel::Full))?;
            digests.push(("DAG workers=max, telemetry Full", full.digest));
            clean &= full.clean;
            full_overhead_pct = (full.wall_s - max.wall_s) / max.wall_s * 100.0;
        }
        let live = live_day(open_live(&cfg)?, &cuts, Duration::ZERO, false);
        digests.push(("live session, closed loop", live.digest));
        latency_p98_ms = percentile(&live.latency_ms(), tail_percentile(INTERVALS));
        clean &= live.clean && live.popped == live.frames;
    }

    let reference = w1.digest;
    let recorded_ok = check_recorded(w, seed, &reference);
    let mut agree = true;
    for (what, d) in &digests {
        let ok = *d == reference;
        agree &= ok;
        println!("  {what:<32} {d} {}", if ok { "ok" } else { "MISMATCH" });
    }
    let correct = clean && agree && recorded_ok;
    let days = digests.len() as u64;
    let attempted = if w.is_live() {
        INTERVALS as u64 * days
    } else {
        specs * days
    };

    let busy = rep.total_busy_s();
    let unattributed_s = w1.wall_s - busy;
    let trace_overhead_pct = (traced_s - plain_s) / plain_s * 100.0;
    let (pearson, maronna, combined) = (
        rep.engine(CorrType::Pearson),
        rep.engine(CorrType::Maronna),
        rep.engine(CorrType::Combined),
    );
    let share = |s: f64| s / busy * 100.0;
    println!(
        "closure: layer busy {busy:.3} s + unattributed {unattributed_s:.3} s = DAG workers=1 {:.3} s; \
         driver {traced_s:.3} s traced vs {plain_s:.3} s untraced (tracing overhead {trace_overhead_pct:.1}%)",
        w1.wall_s
    );
    println!(
        "shares of layer busy: hosts {:.1}%, robust correlation {:.1}%, pearson {:.1}%, risk+gateway {:.1}%, bars+technical {:.1}%",
        share(rep.busy_s(layers::HOST)),
        share(maronna.0 + combined.0),
        share(pearson.0),
        share(rep.busy_s(layers::RISK) + rep.busy_s(layers::GATEWAY)),
        share(rep.busy_s(layers::BARS) + rep.busy_s(layers::TECHNICAL)),
    );
    let per_layer: Vec<String> = layers::LAYERS
        .iter()
        .zip(rep.busy_ns)
        .map(|(name, ns)| format!("{name} {:.3} s", ns as f64 / 1e9))
        .collect();
    println!("layer busy: {}", per_layer.join(", "));
    println!("threads: peak {threads_peak} with a pool of {pool} workers");

    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let engine = |(busy_s, snaps): (f64, u64)| (busy_s, per(busy_s * 1e3, snaps), snaps as f64);
    let (p, m, c) = (engine(pearson), engine(maronna), engine(combined));
    let metrics = vec![
        ("taq.generate_s", generate_s, "s"),
        (
            "bar_accumulator.ns_per_quote",
            per(rep.busy_s(layers::BARS) * 1e9, rep.quotes),
            "ns",
        ),
        ("bar_accumulator.quotes", rep.quotes as f64, "count"),
        ("technical.busy_s", rep.busy_s(layers::TECHNICAL), "s"),
        ("correlation_engine.pearson.busy_s", p.0, "s"),
        ("correlation_engine.pearson.ms_per_snapshot", p.1, "ms"),
        ("correlation_engine.pearson.snapshots", p.2, "count"),
        ("correlation_engine.maronna.busy_s", m.0, "s"),
        ("correlation_engine.maronna.ms_per_snapshot", m.1, "ms"),
        ("correlation_engine.maronna.snapshots", m.2, "count"),
        ("correlation_engine.combined.busy_s", c.0, "s"),
        ("correlation_engine.combined.ms_per_snapshot", c.1, "ms"),
        ("correlation_engine.combined.snapshots", c.2, "count"),
        ("strategy_node.busy_s", rep.busy_s(layers::HOST), "s"),
        (
            "strategy_node.us_per_step",
            per(rep.busy_s(layers::HOST) * 1e6, rep.host_steps),
            "us",
        ),
        ("strategy_node.steps", rep.host_steps as f64, "count"),
        ("strategy_node.orders_out", rep.host_orders as f64, "count"),
        ("risk.busy_s", rep.busy_s(layers::RISK), "s"),
        (
            "risk.ns_per_order",
            per(rep.busy_s(layers::RISK) * 1e9, rep.risk_in),
            "ns",
        ),
        (
            "risk.accept_ratio",
            per(rep.risk_out as f64, rep.risk_in),
            "ratio",
        ),
        ("order_gateway.busy_s", rep.busy_s(layers::GATEWAY), "s"),
        (
            "order_gateway.ns_per_order",
            per(rep.busy_s(layers::GATEWAY) * 1e9, rep.gateway_in),
            "ns",
        ),
        ("order_gateway.baskets", rep.baskets as f64, "count"),
        ("runtime.layer_busy_s", busy, "s"),
        ("runtime.dag_workers1_s", w1.wall_s, "s"),
        ("runtime.dag_max_s", batch_max_s, "s"),
        ("runtime.unattributed_s", unattributed_s, "s"),
        ("runtime.speedup", speedup, "x"),
        ("runtime.threads_peak", threads_peak as f64, "count"),
        ("runtime.pool_size", pool as f64, "count"),
        ("trace.overhead_pct", trace_overhead_pct, "%"),
        ("interval_latency_p98_ms", latency_p98_ms, "ms"),
        ("live.feed_epoch_ms", live_metrics[0], "ms"),
        ("live.queue_wait_ms", live_metrics[1], "ms"),
        ("live.deadline_misses", live_metrics[2], "count"),
        ("serve.router.publish_us", live_metrics[3], "us"),
        ("serve.router.frames", live_metrics[4], "count"),
        ("serve.ring.evictions", live_metrics[5], "count"),
        ("telemetry.full_overhead_pct", full_overhead_pct, "%"),
    ];
    Ok(Outcome {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<45} {value:>16.6} {unit}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload live_robust --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LiveRobust);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args("--workload sweep_hosts").unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sweep_paper --trace 2").is_err());
        assert!(args("--workload sweep_paper --seconds 0").is_err());
        assert!(args("--workload sweep_paper --bogus 1").is_err());
    }

    #[test]
    fn same_seed_same_digest_through_the_layer_driver() {
        // A small grid keeps the test quick: 6 stocks, two paper specs.
        let cfg = SweepConfig::new(
            6,
            vec![
                pairtrade_core::params::StrategyParams::paper_default(),
                pairtrade_core::params::StrategyParams {
                    ctype: CorrType::Maronna,
                    corr_window: 50,
                    ..pairtrade_core::params::StrategyParams::paper_default()
                },
            ],
        );
        let day = generate_day(6, 3);
        let (_, _, a, _) = drive(&cfg, &day, false);
        let (_, rep, b, spans) = drive(&cfg, &generate_day(6, 3), true);
        assert_eq!(a, b);
        assert_eq!(rep.quotes, day.len() as u64);
        assert!(!spans.is_empty());
        let dag = batch_day(&day, &cfg, runtime_config(2, TelemetryLevel::Off)).unwrap();
        assert!(dag.clean);
        assert_eq!(dag.digest, a, "the layer driver reproduces the DAG");
        // Every span's parent was recorded before it.
        for (id, s) in spans.iter().enumerate() {
            assert!(s.parent == layers::NO_PARENT || (s.parent as usize) < id);
        }
    }
}
