//! The repository benchmark. One run:
//!
//! ```text
//! perfbench --workload <select-scan|aggregate-join> --seed <n> --seconds <s>
//!           --trace <0|1>
//! ```
//!
//! generates the workload's collection from the seed, sets up the engine
//! (timed), drives a closed-loop client for `--seconds`, checks every result
//! against the oracle, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! on any failed, refused or wrong query. Everything it writes goes under
//! `.bench_data/` in the working directory.

mod layers;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workload;

use dataflow::{ClusterSpec, JobStats};
use oracle::{Answer, Oracle};
use stats::{median, per_type_geomean};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Tracer;
use vxq_core::{
    Engine, EngineConfig, EngineError, ExecOptions, QueryOptions, QueryService, ServiceConfig,
};
use workload::{Query, Workload};

const USAGE: &str = "usage: perfbench --workload <select-scan|aggregate-join> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Percentile reported as the tail. It is fixed so that runs compare, and
/// lowered by [`stats::tail_rank`] only when fewer than ten samples lie
/// beyond it.
const TAIL_PCT: f64 = 75.0;
/// Repetitions of each per-layer probe in a traced run.
const SCAN_PROBE_REPS: usize = 5;
const FRONT_PROBE_REPS: usize = 15;
const COUNT_REPS: usize = 3;
/// Share of a traced run's window given to the service-layer burst.
const SERVICE_SHARE: f64 = 0.25;
/// Closed-loop clients of the burst's one-worker service: one waits while
/// the other's query runs, so the admission queue is always in use.
const SERVICE_CLIENTS: usize = 2;
/// Everything the benchmark writes lives under this directory.
const WORK_DIR: &str = ".bench_data";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json_line());
            if !report.correct() {
                let t = &report.tally;
                eprintln!(
                    "perfbench: {} of {} queries failed ({} wrong answers); first: {}",
                    t.failed,
                    t.attempted,
                    t.wrong,
                    t.first_error.as_deref().unwrap_or("-")
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------------ outcomes

/// How one query ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Correct,
    /// Answered, but not what the oracle computed.
    Wrong(String),
    /// Failed or refused.
    Failed(String),
}

/// Judge one engine or service result against the expected answer.
fn judge(
    query: &Query,
    expected: &Answer,
    result: Result<&[Vec<jdm::Item>], &EngineError>,
) -> Outcome {
    match result {
        Err(e) => Outcome::Failed(format!("{}: {e}", query.type_name())),
        Ok(rows) => {
            match oracle::canonical(query, rows).and_then(|g| oracle::compare(expected, &g)) {
                Ok(()) => Outcome::Correct,
                Err(e) => Outcome::Wrong(format!("{}: {e}", query.text().trim())),
            }
        }
    }
}

/// Counts of attempted and failed queries (failed includes refused and
/// wrong).
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Count `outcome`; true when it was correct.
    fn record(&mut self, outcome: Outcome) -> bool {
        self.attempted += 1;
        let msg = match outcome {
            Outcome::Correct => return true,
            Outcome::Wrong(m) => {
                self.wrong += 1;
                m
            }
            Outcome::Failed(m) => m,
        };
        self.failed += 1;
        self.first_error.get_or_insert(msg);
        false
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

// ------------------------------------------------------------ set-up

/// A set-up workload: engine and oracle.
struct Bench {
    w: &'static Workload,
    seed: u64,
    engine: Arc<Engine>,
    oracle: Oracle,
    answers: Mutex<HashMap<Query, Arc<Answer>>>,
    files: Vec<PathBuf>,
    dataset_bytes: u64,
}

impl Bench {
    fn expected(&self, q: &Query) -> Arc<Answer> {
        self.answers
            .lock()
            .expect("no thread panics holding the oracle cache")
            .entry(*q)
            .or_insert_with(|| Arc::new(self.oracle.answer(q)))
            .clone()
    }
}

fn engine_config(w: &Workload, data_root: &Path, spill: &Path) -> EngineConfig {
    EngineConfig {
        cluster: ClusterSpec {
            partitions_per_node: w.partitions,
            ..ClusterSpec::default()
        },
        data_root: data_root.to_path_buf(),
        memory_budget: w.memory_budget,
        spill: dataflow::SpillConfig {
            dir: Some(spill.to_path_buf()),
            ..dataflow::SpillConfig::default()
        },
        ..EngineConfig::default()
    }
}

struct Setup {
    bench: Bench,
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
}

/// Generate the collection, build the engine and warm up
/// with one query of each type, `setup_reps` times. The collection lives
/// in a directory keyed by workload, seed and shape; other seeds' copies of
/// the workload are removed first so the directory stays bounded.
fn set_up(w: &'static Workload, seed: u64, work: &Path) -> Result<Setup, String> {
    let spec = w.spec(seed);
    let data_dir = work.join("data");
    let key = format!("{}-s{seed}-{}", w.name, w.shape_key(&spec));
    let data_root = data_dir.join(&key);
    if let Ok(entries) = std::fs::read_dir(&data_dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with(&format!("{}-s", w.name)) && name != key {
                std::fs::remove_dir_all(e.path()).map_err(|e| format!("{name}: {e}"))?;
            }
        }
    }
    let spill = work.join("spill");
    std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
    let oracle = Oracle::from_spec(&spec)?;
    let config = engine_config(w, &data_root, &spill);

    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut current: Option<Arc<Engine>> = None;
    let mut stats = None;
    for _ in 0..w.setup_reps {
        // The previous repetition's engine goes before the clock starts.
        drop(current.take());
        let t0 = Instant::now();
        stats = Some(
            spec.generate(&data_root.join("sensors"))
                .map_err(|e| format!("generate: {e}"))?,
        );
        generate_s.push(t0.elapsed().as_secs_f64());
        let engine = Arc::new(Engine::new(config.clone()));
        let warm: Vec<(Query, vxq_core::Result<vxq_core::QueryResult>)> = w
            .canonical_queries()
            .into_iter()
            .map(|q| {
                let result = engine.execute(&q.text());
                (q, result)
            })
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        // Judged after the clock stops: the oracle is not set-up work.
        for (q, result) in &warm {
            let expected = oracle.answer(q);
            if let Outcome::Wrong(e) | Outcome::Failed(e) =
                judge(q, &expected, result.as_ref().map(|r| r.rows.as_slice()))
            {
                return Err(format!("warm-up: {e}"));
            }
        }
        current = Some(engine);
    }
    let stats = stats.expect("setup_reps > 0");
    if stats.measurements != oracle.len() {
        return Err(format!(
            "oracle holds {} measurements, the collection {}",
            oracle.len(),
            stats.measurements
        ));
    }
    let engine = current.expect("setup_reps > 0");
    let files = vxq_core::scan::all_files(&data_root.join("sensors/node0"), 1)
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        bench: Bench {
            w,
            seed,
            engine,
            oracle,
            answers: Mutex::new(HashMap::new()),
            files,
            dataset_bytes: stats.bytes as u64,
        },
        setup_s,
        generate_s,
    })
}

// ------------------------------------------------------------ windows

/// One correct query as the client saw it.
struct Sample {
    ty: &'static str,
    latency_ms: f64,
    /// Process CPU across the call.
    cpu_ms: f64,
    /// Whether the query ran with tracing on.
    traced: bool,
}

/// A measured closed-loop window.
struct Window {
    samples: Vec<Sample>,
    wall_s: f64,
    peak_rss_mb: f64,
    tally: Tally,
}

impl Window {
    /// `f` of the samples `keep` selects, grouped by query type.
    fn by_type(
        &self,
        keep: impl Fn(&Sample) -> bool,
        f: impl Fn(&Sample) -> f64,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.samples.iter().filter(|s| keep(s)) {
            out.entry(s.ty).or_default().push(f(s));
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drive one closed-loop client on the engine for `seconds` and measure it.
/// Peak RSS is reset at the window's start. With a tracer, the workload's
/// rounds (each type once) alternate between untraced and traced, so host
/// slowdowns hit both sets alike and their difference is the tracing cost.
fn run_window(b: &Bench, seconds: f64, tracer: Option<&Tracer>) -> Result<Window, String> {
    sys::reset_peak_rss().map_err(|e| format!("reset peak RSS: {e}"))?;
    let off = Tracer::new(false);
    let (mut samples, mut tally) = (Vec::new(), Tally::default());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for (i, q) in b.w.stream().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let traced = tracer.is_some() && (i / b.w.types.len()) % 2 == 1;
        let t = tracer.filter(|_| traced).unwrap_or(&off);
        let text = q.text();
        let request = t.request("query");
        let (c0, t0) = (sys::process_cpu(), Instant::now());
        let result = {
            let _s = t.span("engine.prepare");
            b.engine.prepare(&text, None)
        }
        .and_then(|p| {
            let _s = t.span("engine.execute_prepared");
            b.engine.execute_prepared(&p, None, ExecOptions::default())
        });
        let (latency, cpu) = (t0.elapsed(), sys::process_cpu() - c0);
        drop(request);
        let expected = b.expected(&q);
        let outcome = judge(&q, &expected, result.as_ref().map(|r| r.rows.as_slice()));
        if tally.record(outcome) {
            samples.push(Sample {
                ty: q.type_name(),
                latency_ms: ms(latency),
                cpu_ms: ms(cpu),
                traced,
            });
        }
    }
    Ok(Window {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        peak_rss_mb: sys::peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?,
        tally,
    })
}

// ------------------------------------------------------------ metrics

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced window.
fn end_to_end(setup_s: &[f64], win: &Window) -> Vec<Metric> {
    let latency = win.by_type(|_| true, |s| s.latency_ms);
    let tail = stats::tail(&latency, TAIL_PCT);
    println!(
        "tail: p{:.2} of {} samples ({} beyond), each divided by its type's median",
        tail.percentile, tail.samples, tail.beyond
    );
    for (ty, v) in &latency {
        println!("query.{ty}: n={} p50_ms={:.3}", v.len(), median(v));
    }
    let cpu_ms_per_query = per_type_geomean(&win.by_type(|_| true, |s| s.cpu_ms));
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("latency_p50_ms", "ms", per_type_geomean(&latency)),
        metric("latency_tail_ms", "ms", tail.value),
        metric(
            "queries_per_s",
            "1/s",
            win.samples.len() as f64 / win.wall_s,
        ),
        metric("cpu_ms_per_query", "ms", cpu_ms_per_query),
        metric("peak_rss_mb", "MB", win.peak_rss_mb),
    ]
}

/// One query type run sequentially on the engine: its CPU and job counts.
struct CountRow {
    query: Query,
    cpu_ms: f64,
    stats: JobStats,
}

/// Each query type [`COUNT_REPS`] times, directly on the engine: median
/// process CPU per type and the job counters of the first run.
fn count_round(b: &Bench, tracer: &Tracer, tally: &mut Tally) -> Vec<CountRow> {
    let mut rows = Vec::new();
    for q in b.w.canonical_queries() {
        let text = q.text();
        let expected = b.expected(&q);
        let (mut cpu, mut first) = (Vec::new(), None);
        for _ in 0..COUNT_REPS {
            let _r = tracer.request("count");
            let c0 = sys::process_cpu();
            let result = b.engine.execute(&text);
            cpu.push(ms(sys::process_cpu() - c0));
            let outcome = judge(&q, &expected, result.as_ref().map(|r| r.rows.as_slice()));
            if tally.record(outcome) && first.is_none() {
                first = result.ok().map(|r| r.stats);
            }
        }
        if let Some(stats) = first {
            rows.push(CountRow {
                query: q,
                cpu_ms: median(&cpu),
                stats,
            });
        }
    }
    rows
}

/// Service-layer figures from the burst's responses.
#[derive(Default)]
struct ServiceLayer {
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    hits: usize,
    rejected_frac: f64,
    leaked_bytes: f64,
}

/// The service layer under real traffic: [`SERVICE_CLIENTS`] closed-loop
/// clients send the workload's types with seeded, popularity-skewed
/// literals for `seconds` through a one-worker `QueryService` over the
/// workload's engine. On `select-scan` the distinct texts outnumber the
/// plan cache's entries, so the hit ratio depends on the traffic.
fn service_burst(b: &Bench, seconds: f64, tracer: &Tracer, tally: &mut Tally) -> ServiceLayer {
    let svc = QueryService::with_engine(
        b.engine.clone(),
        ServiceConfig {
            max_concurrent: 1,
            ..ServiceConfig::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let svc = &svc;
    let clients: Vec<(ServiceLayer, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVICE_CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let (mut layer, mut t) = (ServiceLayer::default(), Tally::default());
                    for q in b.w.mixed_stream(b.seed, c) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let result = {
                            let _r = tracer.request("service.query");
                            svc.execute(&q.text(), QueryOptions::default())
                        };
                        let expected = b.expected(&q);
                        let rows = result.as_ref().map(|r| r.result.rows.as_slice());
                        if t.record(judge(&q, &expected, rows)) {
                            let r = result.expect("a correct outcome has a result");
                            layer.queue_wait_ms.push(ms(r.queue_wait));
                            layer.exec_ms.push(ms(r.elapsed));
                            layer.hits += usize::from(r.cache_hit);
                        }
                    }
                    (layer, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service client panicked"))
            .collect()
    });
    let mut out = ServiceLayer::default();
    for (layer, t) in clients {
        out.queue_wait_ms.extend(layer.queue_wait_ms);
        out.exec_ms.extend(layer.exec_ms);
        out.hits += layer.hits;
        tally.merge(t);
    }
    let snap = svc.snapshot();
    out.rejected_frac = snap.rejected as f64 / snap.submitted.max(1) as f64;
    out.leaked_bytes = snap.leaked_bytes as f64;
    out
}

/// The per-layer metrics of a traced run: a window whose rounds alternate
/// between untraced and traced (their difference is the tracing overhead),
/// the service-layer burst, then the layer probes and the count round.
fn per_layer(
    b: &Bench,
    setup: &Setup,
    seconds: f64,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut win = run_window(b, seconds * (1.0 - SERVICE_SHARE), Some(tracer))?;
    tally.merge(std::mem::take(&mut win.tally));
    let traced = win.by_type(|s| s.traced, |s| s.latency_ms);
    let untraced = win.by_type(|s| !s.traced, |s| s.latency_ms);
    let overhead_pct = 100.0 * (per_type_geomean(&traced) / per_type_geomean(&untraced) - 1.0);
    for (ty, v) in &traced {
        println!(
            "query.{ty}: traced n={} p50_ms={:.3}, untraced n={} p50_ms={:.3}",
            v.len(),
            median(v),
            untraced.get(ty).map_or(0, Vec::len),
            untraced.get(ty).map_or(0.0, |u| median(u))
        );
    }
    let svc = service_burst(b, seconds * SERVICE_SHARE, tracer, tally);
    let spans = tracer.spans();
    let query_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| trace::self_time_ns(s, &spans) as f64 / 1e3)
        .collect();
    println!(
        "client self time per query: p50 {:.1} us over {} queries",
        median(&query_self),
        query_self.len()
    );

    // Scan layers along each projection path the workload's queries push
    // down; the metrics report the measurement-object path.
    let objects = layers::scan_path(&Query::canonical("Q0"));
    let stage1 = b.engine.config().scan.stage1;
    let mut by_path: HashMap<jdm::ProjectionPath, layers::ScanLayers> = HashMap::new();
    for q in b.w.canonical_queries() {
        let path = layers::scan_path(&q);
        if let Entry::Vacant(slot) = by_path.entry(path) {
            let probe = layers::probe_scan(&b.files, stage1, slot.key(), tracer, SCAN_PROBE_REPS)?;
            slot.insert(probe);
        }
    }
    let scan = by_path
        .get(&objects)
        .cloned()
        .ok_or("no query of the workload scans whole measurements")?;
    let texts: Vec<String> = b.w.canonical_queries().iter().map(Query::text).collect();
    let front = layers::probe_front(&b.engine, &texts, tracer, FRONT_PROBE_REPS)?;
    let counts = count_round(b, tracer, tally);
    if counts.is_empty() {
        return Err("no query of the count round succeeded".into());
    }

    // Additivity: each layer's cost scaled to what a query scanned.
    const MB: f64 = (1u64 << 20) as f64;
    let dataset = b.dataset_bytes.max(1) as f64;
    let (mut sum_cpu, mut sum_scan, mut residuals) = (0.0, 0.0, Vec::new());
    let (mut scan_tuples, mut result_tuples, mut frames) = (0.0, 0.0, 0.0);
    let (mut spill_bytes, mut spill_runs, mut index_builds) = (0.0, 0.0, 0.0);
    let (mut peak_tracked, mut peak_cached) = (0f64, 0f64);
    println!(
        "additivity (ms per query): type cpu = prepare + compile + read + index + record_table \
         + materialize + encode + residual"
    );
    for row in &counts {
        let st = &row.stats;
        let ty = row.query.type_name();
        let scan = &by_path[&layers::scan_path(&row.query)];
        let tuples: u64 = st.profile.splits.iter().map(|s| s.tuples).sum();
        let indexed: u64 = st.profile.splits.iter().map(|s| s.index_bytes).sum();
        let read = st.bytes_scanned as f64 / MB * scan.read_ms_per_mb;
        let index = indexed as f64 / MB * scan.index_ms_per_mb;
        let table = indexed as f64 / MB * scan.record_table_ms_per_mb;
        let mat = tuples as f64 * scan.materialize_ns_per_item / 1e6;
        let enc = tuples as f64 * scan.encode_ns_per_item / 1e6;
        let (prep, comp) = (front.prepare_us / 1e3, front.compile_us / 1e3);
        let scan_ms = read + index + table + mat + enc;
        let residual = row.cpu_ms - prep - comp - scan_ms;
        println!(
            "additivity {ty}: {:.2} = {prep:.3} + {comp:.3} + {read:.2} + {index:.2} + {table:.3} \
             + {mat:.2} + {enc:.2} + {residual:.2}",
            row.cpu_ms
        );
        println!(
            "query.{ty}: cpu_ms={:.2} result_tuples={} scan_tuples={tuples} spill_bytes={} \
             index_builds_per_file={:.3} peak_cached_mb={:.1}",
            row.cpu_ms,
            st.result_tuples,
            st.spill.bytes_spilled,
            indexed as f64 / dataset,
            st.peak_cached as f64 / MB
        );
        sum_cpu += row.cpu_ms;
        sum_scan += scan_ms;
        residuals.push(residual);
        scan_tuples += tuples as f64;
        result_tuples += st.result_tuples as f64;
        frames += st.frames_shipped as f64;
        spill_bytes += st.spill.bytes_spilled as f64;
        spill_runs += st.spill.runs_written as f64;
        index_builds += indexed as f64 / dataset;
        peak_tracked = peak_tracked.max(st.peak_memory as f64 / MB);
        peak_cached = peak_cached.max(st.peak_cached as f64 / MB);
    }
    let n = counts.len() as f64;
    let queue_tail = stats::tail_of(&svc.queue_wait_ms, TAIL_PCT);
    println!(
        "service: {} responses, {} plan-cache hits, queue-wait tail p{:.2} ({} beyond)",
        svc.exec_ms.len(),
        svc.hits,
        queue_tail.percentile,
        queue_tail.beyond
    );
    Ok(vec![
        metric("datagen.generate_s", "s", median(&setup.generate_s)),
        metric("jsoniq.parse_us", "us", front.parse_us),
        metric("jsoniq.translate_us", "us", front.translate_us),
        metric("algebra.optimize_us", "us", front.optimize_us),
        metric("algebra.rule_firings", "count", front.rule_firings),
        metric("compile.compile_us", "us", front.compile_us),
        metric("engine.prepare_us", "us", front.prepare_us),
        metric(
            "service.queue_wait_p50_ms",
            "ms",
            median(&svc.queue_wait_ms),
        ),
        metric("service.queue_wait_tail_ms", "ms", queue_tail.value),
        metric("service.exec_p50_ms", "ms", median(&svc.exec_ms)),
        metric(
            "service.plan_cache_hit_ratio",
            "ratio",
            svc.hits as f64 / svc.exec_ms.len().max(1) as f64,
        ),
        metric("service.rejected_frac", "ratio", svc.rejected_frac),
        metric("service.leaked_bytes", "bytes", svc.leaked_bytes),
        metric("scan.read_ms_per_mb", "ms/MB", scan.read_ms_per_mb),
        metric("jdm.index_ms_per_mb", "ms/MB", scan.index_ms_per_mb),
        metric(
            "jdm.record_table_ms_per_mb",
            "ms/MB",
            scan.record_table_ms_per_mb,
        ),
        metric(
            "jdm.materialize_ns_per_item",
            "ns",
            scan.materialize_ns_per_item,
        ),
        metric("jdm.items_per_mb", "1/MB", scan.items_per_mb),
        metric("jdm.encode_ns_per_item", "ns", scan.encode_ns_per_item),
        metric("jdm.decode_ns_per_item", "ns", scan.decode_ns_per_item),
        metric("jdm.get_key_ns_per_item", "ns", scan.get_key_ns_per_item),
        metric("jdm.index_builds_per_file", "count", index_builds / n),
        metric("scan.peak_cached_mb", "MB", peak_cached),
        metric("dataflow.scan_tuples", "count", scan_tuples / n),
        metric("dataflow.result_tuples", "count", result_tuples / n),
        metric(
            "dataflow.selectivity",
            "ratio",
            result_tuples / scan_tuples.max(1.0),
        ),
        metric("dataflow.frames_shipped", "count", frames / n),
        metric("dataflow.spill_bytes", "bytes", spill_bytes / n),
        metric("dataflow.spill_runs", "count", spill_runs / n),
        metric("dataflow.peak_tracked_mb", "MB", peak_tracked),
        metric("exec.cpu_ms", "ms", sum_cpu / n),
        metric("exec.residual_ms", "ms", residuals.iter().sum::<f64>() / n),
        metric(
            "exec.scan_layers_share",
            "ratio",
            sum_scan / sum_cpu.max(f64::MIN_POSITIVE),
        ),
        metric("trace.overhead_pct", "%", overhead_pct),
    ])
}

// ------------------------------------------------------------ the run

struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Facts about the run that are not metrics.
fn print_facts(b: &Bench, args: &Args) {
    let loc = sys::production_loc(Path::new("crates"))
        .map(|m| {
            let parts: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", parts.join(", "))
        })
        .unwrap_or_else(|_| "null".into());
    println!(
        "facts {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"stage1_kernel\": \"{}\", \"engine\": \"1x{}\", \"memory_budget\": {}, \
         \"dataset_files\": {}, \"dataset_bytes\": {}, \"measurements\": {}, \
         \"production_loc\": {loc}}}",
        b.w.name,
        args.seed,
        args.trace,
        sys::nproc(),
        b.engine.config().scan.stage1.resolve().label(),
        b.w.partitions,
        b.w.memory_budget,
        b.files.len(),
        b.dataset_bytes,
        b.oracle.len(),
    );
}

fn run(args: &Args) -> Result<Report, String> {
    let work = PathBuf::from(WORK_DIR);
    let setup = set_up(args.workload, args.seed, &work)?;
    let b = &setup.bench;
    print_facts(b, args);
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(b, &setup, args.seconds, &tracer, &mut tally)?
    } else {
        let mut win = run_window(b, args.seconds, None)?;
        tally.merge(std::mem::take(&mut win.tally));
        end_to_end(&setup.setup_s, &win)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    // Spill hygiene: every job removes its spill directory when it ends.
    let prefix = format!("vxq-spill-{}-", std::process::id());
    let left = std::fs::read_dir(work.join("spill"))
        .map_err(|e| format!("spill dir: {e}"))?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .count();
    if left > 0 {
        tally.record(Outcome::Failed(format!(
            "{left} spill directories left behind"
        )));
    }
    if args.trace {
        let path = work.join(format!("traces/{}-s{}.jsonl", b.w.name, b.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Report { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_failed_queries_count_as_failures() {
        let q = Query::canonical("Q2");
        let expected = Answer::Scalar(1.5);
        let mut tally = Tally::default();
        let refused = EngineError::Overloaded {
            queued: 64,
            queue_limit: 64,
        };
        assert!(!tally.record(judge(&q, &expected, Err(&refused))));
        assert!(!tally.record(judge(&q, &expected, Err(&EngineError::ServiceClosed))));
        assert!(!tally.record(judge(&q, &expected, Err(&EngineError::DeadlineExceeded))));
        let right = vec![vec![jdm::Item::double(1.5)]];
        assert!(tally.record(judge(&q, &expected, Ok(&right))));
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (4, 3, 0));
        assert!(tally.first_error.as_deref().unwrap().contains("overloaded"));
        let report = Report {
            tally,
            metrics: Vec::new(),
        };
        assert!(!report.correct());
        assert!(report
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 3"));
    }

    #[test]
    fn wrong_answers_count_as_failures() {
        let q = Query::canonical("Q2");
        let mut tally = Tally::default();
        let wrong = vec![vec![jdm::Item::double(2.0)]];
        assert!(!tally.record(judge(&q, &Answer::Scalar(1.5), Ok(&wrong))));
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (1, 1, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = args("--workload select-scan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("select-scan", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload select-scan --seed 7 --seconds 10").is_err());
        assert!(args("--workload select-scan --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload select-scan --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload select-scan --seed 1 --seconds 1 --trace 2").is_err());
    }
}
