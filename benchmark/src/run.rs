//! `run` and `trace`: set up, measure passes for the run's time budget,
//! turn them into the metrics of `BENCHMARK.json`, print and save them.

use crate::json::{num, nums, obj, text, to_line, to_pretty};
use crate::layers::{self, Metrics};
use crate::spans::{self, Tracer};
use crate::spec::Spec;
use crate::stats::{
    mean, percentile_sorted, quartile_sorted, sorted, supported_percentile, Quartiles,
};
use crate::sys::{self, Environment};
use crate::workloads::{
    generate, run_pass, workload, Inputs, Kind, LayerCounts, Pass, PassSeeds, Workload,
    SMOKE_DIVISOR,
};
use nitro_metrics::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up cycles per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured passes of a timed run (the best pass needs a choice).
const MIN_PASSES: usize = 3;
/// Tail percentile of the seal latency.
const SEAL_TAIL: u32 = 90;
/// Share of a traced run's seconds spent on workload passes; the rest goes
/// to the isolated probes and the in-situ fallback passes.
const TRACE_PASS_SHARE: f64 = 0.55;
/// A traced run's seconds divided by this is each isolated probe's budget
/// (about sixty probes share the remainder).
const PROBE_BUDGET_DIVISOR: f64 = 250.0;

/// What to run, from the command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (`layers` for `trace layers`).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Fixed number of measured passes instead of a time budget.
    pub passes: Option<usize>,
    /// One pass at a tenth of the size, all checks on.
    pub smoke: bool,
    /// Record spans and per-layer metrics.
    pub trace: bool,
    /// Where durable state goes (default: inside the output directory).
    pub dir: Option<PathBuf>,
    /// Where result files go.
    pub out_dir: PathBuf,
}

fn median(values: &[f64]) -> f64 {
    quartile_sorted(&sorted(values), 2)
}

/// Every failed output check, labelled with its pass.
fn failures_of(passes: &[Pass]) -> Vec<String> {
    passes
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            p.failures
                .iter()
                .map(move |f| format!("pass {}: {f}", i + 1))
        })
        .collect()
}

/// Whether another pass still fits: a timed run stops once the budget is
/// spent (never before `MIN_PASSES`), a fixed run after its count.
fn more_passes(opts: &Options, done: usize, started: Instant, budget_s: f64) -> bool {
    match (opts.smoke, opts.passes) {
        (true, _) => done < 1,
        (false, Some(n)) => done < n,
        (false, None) => done < MIN_PASSES || started.elapsed().as_secs_f64() < budget_s,
    }
}

fn state_dir(opts: &Options) -> PathBuf {
    opts.dir
        .clone()
        .unwrap_or_else(|| opts.out_dir.join(format!("state-{}", std::process::id())))
}

fn env_json(env: &Environment, opts: &Options, state: &Path, w: Option<&Workload>) -> Json {
    let durable = w.is_none_or(|w| w.kind == Kind::Cluster);
    obj([
        ("nproc", num(env.nproc as f64)),
        ("cpu_model", text(&env.cpu_model)),
        ("kernel", text(&env.kernel)),
        ("rustc", text(&env.rustc)),
        ("git_commit", text(&env.git_commit)),
        ("profile", text(&env.profile)),
        ("seed", num(opts.seed as f64)),
        ("seconds", num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("state_dir", text(&state.display().to_string())),
        (
            "state_fs",
            if durable {
                text(&sys::fs_type_of(state))
            } else {
                text("unused")
            },
        ),
    ])
}

fn print_header(what: &str, env: &Json) {
    let field = |k: &str| match env.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => to_line(other),
        None => "?".to_string(),
    };
    println!(
        "# {what} seed={} seconds={} smoke={} | nproc={} cpu=\"{}\" kernel={} | {} | commit={} | {} | state_fs={}",
        field("seed"),
        field("seconds"),
        field("smoke"),
        field("nproc"),
        field("cpu_model"),
        field("kernel"),
        field("rustc"),
        field("git_commit"),
        field("profile"),
        field("state_fs"),
    );
}

/// `{name: {value, unit}}` for the names the spec lists, in its order;
/// errors on a metric the run did not produce.
fn metrics_json(values: &Metrics, defs: &[crate::spec::MetricDef]) -> Result<Json, String> {
    let mut members = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        members.push((
            d.name.clone(),
            obj([("value", num(*v)), ("unit", text(&d.unit))]),
        ));
    }
    Ok(Json::Obj(members))
}

fn print_metrics(values: &Metrics, defs: &[crate::spec::MetricDef], samples: &Metrics) {
    for d in defs {
        if let Some(v) = values.get(&d.name) {
            let n = samples
                .get(&d.name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<48} {:>16.6} {}{}", d.name, v, d.unit, n);
        }
    }
}

/// The line the driver reads: last on standard output.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &Json) -> String {
    to_line(&obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(attempted.max(1) as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics.clone()),
    ]))
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, to_pretty(doc)).map_err(|e| format!("{}: {e}", path.display()))
}

fn passes_json(passes: &[Pass]) -> Json {
    let col = |f: fn(&Pass) -> f64| nums(&passes.iter().map(f).collect::<Vec<_>>());
    obj([
        ("throughput_mpps", col(Pass::mpps)),
        ("wall_s", col(|p| p.wall_s)),
        ("offered", col(|p| p.offered as f64)),
        ("processed", col(|p| p.processed as f64)),
        ("dropped", col(|p| p.dropped as f64)),
        ("lost", col(|p| p.lost as f64)),
        ("hh_recall", col(|p| p.recall)),
        ("hh_are", col(|p| p.are)),
        (
            "seal_ms",
            Json::Arr(passes.iter().map(|p| nums(&p.seal_ms)).collect()),
        ),
        (
            "epoch_ms",
            Json::Arr(passes.iter().map(|p| nums(&p.epoch_ms)).collect()),
        ),
    ])
}

/// The nine end-to-end metrics from a set of measured passes.
///
/// Interference on a shared machine only ever slows a pass down, so every
/// time-based metric is computed per pass and the least-disturbed pass is
/// reported: the best pass's throughput, the cheapest pass's CPU time, the
/// lowest per-pass seal median and tail. (Measured on the sandbox, README:
/// this halves the run-to-run spread of a median or pooled percentile.)
/// Accuracy is a mean over passes, set-up a median over cycles.
///
/// `cpu_s[i]` is the process CPU time pass `i` took.
fn end_to_end(
    passes: &[Pass],
    cpu_s: &[f64],
    setup_s: f64,
    samples: &mut Metrics,
) -> (Metrics, Json) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mpps = per_pass(&Pass::mpps);
    let cpu_per_mpkt: Vec<f64> = passes
        .iter()
        .zip(cpu_s)
        .map(|(p, cpu)| cpu / (p.sketch_packets as f64 / 1e6))
        .collect();
    let seal_p50 = per_pass(&|p| percentile_sorted(&sorted(&p.seal_ms), 50));
    let seal_tail = per_pass(&|p| percentile_sorted(&sorted(&p.seal_ms), SEAL_TAIL));
    let offered: u64 = passes.iter().map(|p| p.offered).sum();
    let processed: u64 = passes.iter().map(|p| p.processed).sum();

    let mut out = Metrics::new();
    out.insert("setup_s".into(), setup_s);
    out.insert(
        "throughput_mpps".into(),
        mpps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    out.insert("cpu_s_per_mpkt".into(), least(&cpu_per_mpkt));
    out.insert("delivered_frac".into(), processed as f64 / offered as f64);
    out.insert("hh_recall".into(), mean(&per_pass(&|p| p.recall)));
    out.insert("hh_are".into(), mean(&per_pass(&|p| p.are)));
    out.insert("seal_p50_ms".into(), least(&seal_p50));
    out.insert("seal_p90_ms".into(), least(&seal_tail));
    out.insert("peak_rss_mb".into(), sys::peak_rss_mb());

    for name in [
        "throughput_mpps",
        "cpu_s_per_mpkt",
        "hh_recall",
        "hh_are",
        "seal_p50_ms",
        "seal_p90_ms",
    ] {
        samples.insert(name.into(), passes.len() as f64);
    }

    // Beside the gated numbers: what the passes looked like as a whole, and
    // the pooled seal percentiles with the support their sample gives them.
    let pooled = sorted(
        &passes
            .iter()
            .flat_map(|p| p.seal_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let quartiles = |v: &[f64]| {
        let q = Quartiles::of(v);
        obj([
            ("min", num(q.min)),
            ("q1", num(q.q1)),
            ("median", num(q.median)),
            ("q3", num(q.q3)),
            ("max", num(q.max)),
        ])
    };
    let details = obj([
        ("throughput_mpps_over_passes", quartiles(&mpps)),
        ("cpu_s_per_mpkt_over_passes", quartiles(&cpu_per_mpkt)),
        ("seal_p50_ms_over_passes", quartiles(&seal_p50)),
        ("seal_p90_ms_over_passes", quartiles(&seal_tail)),
        (
            "seal_ms_pooled",
            obj([
                ("samples", num(pooled.len() as f64)),
                (
                    "samples_per_pass",
                    num(passes.first().map_or(0, |p| p.seal_ms.len()) as f64),
                ),
                ("p50", num(percentile_sorted(&pooled, 50))),
                ("p90", num(percentile_sorted(&pooled, SEAL_TAIL))),
                (
                    "highest_supported_percentile",
                    num(supported_percentile(pooled.len(), 99) as f64),
                ),
                ("max", num(pooled.last().copied().unwrap_or(f64::NAN))),
            ]),
        ),
    ]);
    (out, details)
}

/// One set-up cycle is everything between process start and the first
/// measured pass: generate the inputs, then run a discarded warm-up pass
/// (smoke-sized — it is there to start threads, fault in arenas and create
/// files once, not to be measured) until its result is ready. Tearing the
/// warm-up down is not counted: the aggregator's shutdown sleeps up to
/// 500 ms and would make the cluster's set-up time trimodal. Runs `cycles`
/// cycles; returns the inputs and each cycle's duration.
fn set_up(
    w: &Workload,
    opts: &Options,
    state: &Path,
    cycles: usize,
    tracer: &mut Tracer,
) -> Result<(Inputs, Vec<f64>), String> {
    let divisor = if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let mut times = Vec::with_capacity(cycles);
    let mut inputs = None;
    for _ in 0..cycles {
        // Drop the previous cycle's trace first: set-up is not allowed to
        // double the peak memory it is there to report.
        drop(inputs.take());
        let started = Instant::now();
        let fresh = generate(w, opts.seed, divisor, tracer);
        let mut quiet = Tracer::new(false);
        let warm_inputs = generate(w, opts.seed, SMOKE_DIVISOR, &mut quiet);
        let generated = started.elapsed().as_secs_f64();
        let warm = run_pass(
            w,
            &warm_inputs,
            PassSeeds::of(opts.seed, 0),
            state,
            &mut quiet,
        )?;
        times.push(generated + warm.ready_s);
        if !warm.failures.is_empty() {
            return Err(format!("warm-up pass: {}", warm.failures.join("; ")));
        }
        inputs = Some(fresh);
    }
    Ok((inputs.expect("at least one set-up cycle"), times))
}

/// `run <workload>`: the untraced, gated measurement.
/// Returns whether every output check held.
pub fn run(opts: &Options, spec: &Spec) -> Result<bool, String> {
    let w =
        workload(&opts.workload).ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let env = Environment::collect();
    let state = state_dir(opts);
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let env_doc = env_json(&env, opts, &state, Some(w));
    print_header(&format!("run {}", w.name), &env_doc);

    let mut tracer = Tracer::new(false);
    let cycles = if opts.smoke { 1 } else { SETUPS };
    let (inputs, setup_times) = set_up(w, opts, &state, cycles, &mut tracer)?;

    let started = Instant::now();
    let (mut passes, mut cpu_s) = (Vec::new(), Vec::new());
    while more_passes(opts, passes.len(), started, opts.seconds) {
        let seeds = PassSeeds::of(opts.seed, passes.len() + 1);
        let cpu0 = sys::process_cpu_seconds();
        passes.push(run_pass(w, &inputs, seeds, &state, &mut tracer)?);
        cpu_s.push(sys::process_cpu_seconds() - cpu0);
    }
    let _ = std::fs::remove_dir_all(&state);

    let mut samples = Metrics::new();
    samples.insert("setup_s".into(), setup_times.len() as f64);
    let (values, details) = end_to_end(&passes, &cpu_s, median(&setup_times), &mut samples);
    let failures = failures_of(&passes);
    let correct = failures.is_empty();
    print_metrics(&values, &spec.end_to_end, &samples);
    if let Json::Obj(members) = &details {
        for (name, d) in members {
            println!("# {name}: {}", to_line(d));
        }
    }
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }

    let metrics = metrics_json(&values, &spec.end_to_end)?;
    let offered: u64 = passes.iter().map(|p| p.offered).sum();
    let processed: u64 = passes.iter().map(|p| p.processed).sum();
    let document = obj([
        ("kind", text("run")),
        ("workload", text(w.name)),
        ("correct", Json::Bool(correct)),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| text(f)).collect()),
        ),
        ("environment", env_doc),
        ("passes", num(passes.len() as f64)),
        ("setup_s_cycles", nums(&setup_times)),
        ("metrics", metrics.clone()),
        (
            "samples",
            Json::Obj(samples.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ),
        ("details", details),
        ("per_pass", passes_json(&passes)),
    ]);
    let path = opts
        .out_dir
        .join(format!("run-{}-seed{}.json", w.name, opts.seed));
    write_file(&path, &document)?;
    println!("# result file: {}", path.display());
    println!(
        "{}",
        contract_line(correct, offered, offered - processed, &metrics)
    );
    Ok(correct)
}

/// Ratios of the in-situ counters. `snapshot_us` prices a checkpoint for
/// `checkpoint_share` (the worker's batch timer stops before it encodes
/// one, so busy time is batch time plus checkpoints).
fn in_situ(c: &LayerCounts, snapshot_us: Option<f64>, out: &mut Metrics) {
    let mut put = |name: &str, v: f64| {
        out.entry(name.to_string()).or_insert(v);
    };
    if c.ovs_total_ns > 0.0 {
        put(
            "switch.ovs.measure_share",
            c.ovs_measure_ns / c.ovs_total_ns,
        );
        put(
            "switch.ovs.emc_hit_frac",
            c.emc_hits as f64 / c.emc_lookups as f64,
        );
    }
    if c.wait_pass_ns > 0 {
        put(
            "switch.pipeline.backpressure_wait_frac",
            c.wait_ns as f64 / c.wait_pass_ns as f64,
        );
    }
    if c.worker_processed > 0 {
        let mpkt = c.worker_processed as f64 / 1e6;
        put(
            "switch.supervisor.worker_ns_per_pkt",
            c.worker_busy_ns as f64 / c.worker_processed as f64,
        );
        put(
            "switch.supervisor.checkpoints_per_mpkt",
            c.checkpoints as f64 / mpkt,
        );
        if let Some(us) = snapshot_us {
            let checkpoint_ns = c.checkpoints as f64 * us * 1e3;
            put(
                "switch.supervisor.checkpoint_share",
                checkpoint_ns / (c.worker_busy_ns as f64 + checkpoint_ns),
            );
        }
        put("switch.supervisor.ring_occupancy_max", c.ring_occupancy_max);
        put("switch.supervisor.downshifts", c.downshifts as f64);
    }
    if c.store_packets > 0 {
        put(
            "switch.store.bytes_per_mpkt",
            c.store_bytes as f64 / (c.store_packets as f64 / 1e6),
        );
    }
    if !c.agent_seal_ms.is_empty() {
        put("switch.cluster.agent.seal_ms", median(&c.agent_seal_ms));
        put(
            "switch.cluster.aggregator.complete_wait_ms",
            median(&c.complete_wait_ms),
        );
    }
}

fn print_self_times(spans: &[spans::Span]) -> Json {
    let totals = spans::self_times(spans);
    let wall = spans::total_of(spans, "pass");
    println!(
        "# self time per span name (traced passes, wall {:.1} ms)",
        wall as f64 / 1e6
    );
    println!(
        "# {:<32} {:>8} {:>12} {:>12} {:>7}",
        "span", "spans", "total_ms", "self_ms", "share"
    );
    let mut in_pass = 0u64;
    for (name, t) in &totals {
        let inside = *name != "traffic.generate";
        if inside {
            in_pass += t.self_ns;
        }
        println!(
            "# {:<32} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            if inside {
                100.0 * t.self_ns as f64 / wall as f64
            } else {
                0.0
            },
        );
    }
    println!(
        "# self times inside passes sum to {:.3} ms = {:.2}% of traced wall time",
        in_pass as f64 / 1e6,
        100.0 * in_pass as f64 / wall as f64
    );
    spans::totals_to_json(&totals)
}

/// `trace <workload>`: the same passes with harness-side spans on every
/// other one, the isolated per-layer timings, and the in-situ counters.
/// Returns whether every output check held.
pub fn trace(opts: &Options, spec: &Spec) -> Result<bool, String> {
    let env = Environment::collect();
    let state = state_dir(opts);
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let layers_only = opts.workload == "layers";
    let w = if layers_only {
        None
    } else {
        Some(
            workload(&opts.workload)
                .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?,
        )
    };
    let env_doc = env_json(&env, opts, &state, w);
    print_header(&format!("trace {}", opts.workload), &env_doc);

    let mut values = Metrics::new();
    let mut counts = LayerCounts::default();
    let mut failures = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut per_pass = Json::Null;
    let (mut attempted, mut failed) = (0u64, 0u64);

    if let Some(w) = w {
        let (inputs, _) = set_up(w, opts, &state, 1, &mut tracer)?;
        let mut quiet = Tracer::new(false);
        let budget = opts.seconds * TRACE_PASS_SHARE;
        let started = Instant::now();
        let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
        // Untraced and traced passes run in adjacent pairs, in alternating
        // order, so both sides of a pair see the same machine; the overhead
        // is the median over pairs of untraced / traced throughput - 1.
        while more_passes(opts, traced.len(), started, budget) {
            let pair = traced.len();
            let run_one = |offset: usize, tracer: &mut Tracer| {
                let seeds = PassSeeds::of(opts.seed, 2 * pair + offset + 1);
                run_pass(w, &inputs, seeds, &state, tracer)
            };
            if pair % 2 == 0 {
                plain.push(run_one(0, &mut quiet)?);
                traced.push(run_one(1, &mut tracer)?);
            } else {
                traced.push(run_one(0, &mut tracer)?);
                plain.push(run_one(1, &mut quiet)?);
            }
        }
        let overheads: Vec<f64> = plain
            .iter()
            .zip(&traced)
            .map(|(u, t)| u.mpps() / t.mpps() - 1.0)
            .collect();
        values.insert("harness.trace_overhead_frac".into(), median(&overheads));
        for p in plain.iter().chain(&traced) {
            counts.absorb(&p.layers);
            attempted += p.offered;
            failed += p.offered - p.processed;
        }
        let all: Vec<Pass> = plain.into_iter().chain(traced).collect();
        failures = failures_of(&all);
        per_pass = passes_json(&all);
    }

    let probe_budget = if layers_only && !opts.smoke {
        layers::FULL_BUDGET
    } else {
        Duration::from_secs_f64(opts.seconds / PROBE_BUDGET_DIVISOR)
    };
    layers::isolated(opts.seed, probe_budget, &state, &mut values)?;
    let snapshot_us = values.get("core.snapshot_us").copied();
    in_situ(&counts, snapshot_us, &mut values);

    // In-situ metrics of layers the traced workload never enters come from
    // a smoke-sized traced pass of a workload that does.
    if !layers_only {
        for name in [
            "aio_caida_p100",
            "fleet_saturated_p10",
            "cluster_durable_p01",
        ] {
            if spec.per_layer.iter().all(|d| values.contains_key(&d.name)) {
                break;
            }
            let fw = workload(name).expect("named in WORKLOADS");
            if w.is_some_and(|w| w.kind == fw.kind) {
                continue;
            }
            let inputs = generate(fw, opts.seed, SMOKE_DIVISOR, &mut Tracer::new(false));
            let mut side = Tracer::new(true);
            let pass = run_pass(
                fw,
                &inputs,
                PassSeeds::of(opts.seed, 900),
                &state,
                &mut side,
            )?;
            in_situ(&pass.layers, snapshot_us, &mut values);
        }
    }
    let _ = std::fs::remove_dir_all(&state);

    let spans = tracer.spans();
    let self_times = if spans.iter().any(|s| s.name == "pass") {
        print_self_times(spans)
    } else {
        Json::Null
    };
    print_metrics(&values, &spec.per_layer, &Metrics::new());
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();

    // `trace layers` reports the isolated metrics only; a workload trace
    // must produce every per-layer metric of the spec.
    let metrics = if layers_only {
        let defs: Vec<_> = spec
            .per_layer
            .iter()
            .filter(|d| values.contains_key(&d.name))
            .cloned()
            .collect();
        metrics_json(&values, &defs)?
    } else {
        metrics_json(&values, &spec.per_layer)?
    };
    let document = obj([
        ("kind", text("trace")),
        ("workload", text(&opts.workload)),
        ("correct", Json::Bool(correct)),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| text(f)).collect()),
        ),
        ("environment", env_doc),
        ("metrics", metrics.clone()),
        ("self_times", self_times),
        ("per_pass", per_pass),
        ("spans", spans::to_json(spans)),
    ]);
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    write_file(&path, &document)?;
    println!("# trace file: {} ({} spans)", path.display(), spans.len());
    println!("{}", contract_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let metrics = obj([(
            "setup_s",
            obj([("value", num(0.8127)), ("unit", text("s"))]),
        )]);
        let line = contract_line(true, 1000, 0, &metrics);
        let back = Json::parse(&line).unwrap();
        let Json::Obj(members) = &back else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(
            back.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.8127)
        );
        // `attempted` is at least 1 even when nothing was offered.
        let empty = Json::parse(&contract_line(true, 0, 0, &metrics)).unwrap();
        assert_eq!(empty.get("attempted").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn in_situ_ratios_fill_only_what_was_counted() {
        let mut c = LayerCounts {
            worker_busy_ns: 3_000_000,
            worker_processed: 1_000_000,
            checkpoints: 100,
            ..Default::default()
        };
        let mut out = Metrics::new();
        in_situ(&c, Some(10.0), &mut out);
        assert_eq!(out["switch.supervisor.worker_ns_per_pkt"], 3.0);
        assert_eq!(out["switch.supervisor.checkpoints_per_mpkt"], 100.0);
        // 100 checkpoints x 10 us = 1 ms of 3 + 1 ms busy.
        assert_eq!(out["switch.supervisor.checkpoint_share"], 0.25);
        assert!(!out.contains_key("switch.ovs.measure_share"));
        assert!(!out.contains_key("switch.store.bytes_per_mpkt"));
        // A later source never overwrites an earlier one.
        c.worker_busy_ns = 9_000_000;
        in_situ(&c, Some(10.0), &mut out);
        assert_eq!(out["switch.supervisor.worker_ns_per_pkt"], 3.0);
    }
}
