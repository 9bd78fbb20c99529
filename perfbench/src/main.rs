//! The repository benchmark: one workload per invocation, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! pmcts-perfbench --workload <gpu_match|resident_tree|fleet_serve> --seed N
//!                 --seconds S --trace <0|1> [--trace-out FILE]
//!                 [--git-rev REV] [--rustc VERSION] [--source-digest HEX]
//! ```
//!
//! Every time is host wall-clock unless its name starts with `virtual`;
//! virtual numbers are the cost model's prediction (`SimTime`), reported
//! beside the host numbers and never as a speed-up. The process holds one
//! `WorkerPool` of `available_parallelism` threads, shared by every
//! simulated device. Progress goes to stderr as `@progress` lines for the
//! watchdog in `run.py`; the last stdout line is the JSON result. The exit
//! code is 1 when any correctness or fingerprint check failed.

mod layers;
mod stats;
mod trace;
mod workload;

use stats::{median, peak_rss_mb, percentile, progress, Fingerprint, Metrics, Problems};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::{Env, Inputs, Plan, RunOutput, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The probes' positions: distinct roots the run searched.
const PROBE_POSITIONS: usize = 224;

const USAGE: &str = "usage: pmcts-perfbench --workload <gpu_match|resident_tree|fleet_serve> \
--seed N --seconds S --trace <0|1> [--trace-out FILE] [--git-rev REV] [--rustc VERSION] \
[--source-digest HEX]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    git_rev: String,
    rustc: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = None;
    let mut git_rev = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--git-rev" => git_rev = value,
            "--rustc" => rustc = value,
            "--source-digest" => source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        git_rev,
        rustc,
        source_digest,
    })
}

/// Whether `LaneBatch` dispatches to the AVX2 lane kernels on this host
/// (the library's own runtime test).
fn avx2_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn end_to_end(out: &RunOutput, setup_s: &[f64], m: &mut Metrics) {
    let host_ms: Vec<f64> = out.samples.iter().map(|s| s.host_ns as f64 / 1e6).collect();
    let virtual_ms: Vec<f64> = out
        .samples
        .iter()
        .map(|s| s.virtual_ns as f64 / 1e6)
        .collect();
    let wall_s = out.wall_ns as f64 / 1e9;
    let sims: u64 = out.samples.iter().map(|s| s.simulations).sum();
    let good = out.samples.iter().filter(|s| s.good).count();
    m.add("move_ms_p50", median(&host_ms), "ms");
    m.add("move_ms_p90", percentile(&host_ms, 90.0), "ms");
    m.add("moves_per_s", out.samples.len() as f64 / wall_s, "1/s");
    m.add("playouts_per_s", sims as f64 / wall_s, "1/s");
    m.add(
        "virtual_sims_per_s",
        sims as f64 / (out.virtual_elapsed_ns as f64 / 1e9),
        "1/s",
    );
    m.add(
        "virtual_latency_ms_p99",
        percentile(&virtual_ms, 99.0),
        "ms",
    );
    m.add("goodput", good as f64 / out.offered.max(1) as f64, "ratio");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The traced run's own metrics: the model's kernel share, the tracing
/// overhead (traced vs untraced requests of the same run) and self time
/// per layer.
fn trace_metrics(out: &RunOutput, tracer: &Tracer, m: &mut Metrics) {
    let kernel: u64 = out.samples.iter().map(|s| s.kernel_ns).sum();
    let elapsed: u64 = out.samples.iter().map(|s| s.virtual_ns).sum();
    m.add(
        "virtual.kernel_share",
        kernel as f64 / elapsed.max(1) as f64,
        "ratio",
    );
    let pick = |on: bool| -> Vec<f64> {
        out.units
            .iter()
            .filter(|u| u.1 == on)
            .map(|u| u.0 as f64)
            .collect()
    };
    let overhead = median(&pick(true)) / median(&pick(false)) - 1.0;
    m.add("trace.overhead_pct", 100.0 * overhead, "%");
    m.add("trace.spans", tracer.spans().len() as f64, "count");
    let layers = tracer.self_ns_by_layer();
    for layer in ["harness", "core", "gpu_sim", "games"] {
        let ns = layers.get(layer).copied().unwrap_or(0);
        m.add(format!("trace.self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
}

fn probe_inputs(out: &RunOutput, plan: &Plan) -> layers::ProbeInputs {
    let mut positions: Vec<_> = Vec::new();
    for s in &out.samples {
        if positions.len() == PROBE_POSITIONS {
            break;
        }
        if !positions.contains(&s.root) {
            positions.push(s.root);
        }
    }
    let nodes: Vec<f64> = out.samples.iter().map(|s| s.nodes_per_tree).collect();
    layers::ProbeInputs {
        positions,
        nodes_per_tree: (median(&nodes).round() as usize).max(2),
        budget: plan.workload.move_budget(),
        seed: plan.seed,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pmcts-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seconds = if args.trace {
        // The traced run splits its time between the loop and the probes.
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let plan = Plan::new(args.workload, args.seed, seconds);
    let mut problems = Problems::default();

    // Set-up: pool + devices, inputs, warm-up — repeated, median reported;
    // the last set-up is the one measured. Each replaced pool is dropped
    // here, under the watchdog.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Env, Inputs)> = None;
    for rep in 0..if args.trace { 1 } else { SETUP_REPS } {
        progress("setup", rep as u64, true);
        let start = Instant::now();
        let env = Env::for_workload(plan.workload, threads);
        let inputs = Inputs::generate(&plan);
        workload::warm_up(&env, &inputs, &plan, &mut problems);
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((env, inputs)) {
            old.shutdown();
        }
    }
    let (env, inputs) = kept.expect("at least one set-up ran");
    let pool_threads = env.pool.size();

    progress("run", 0, true);
    let mut tracer = Tracer::new(args.trace);
    let out = workload::run(&env, &inputs, &plan, &mut tracer, args.trace, &mut problems);

    let mut metrics = Metrics::default();
    if args.trace {
        tracer.set_enabled(true);
        let probes = probe_inputs(&out, &plan);
        layers::run_probes(&mut tracer, &env, &probes, &mut metrics, &mut problems);
        trace_metrics(&out, &tracer, &mut metrics);
    }
    progress("pool_drop", out.offered, true);
    env.shutdown();
    progress("replay", out.offered, true);
    let replayed = workload::replay(&inputs, &plan, &out.replay_prefix, &mut problems);
    if !args.trace {
        end_to_end(&out, &setup_s, &mut metrics);
    }
    progress("report", out.offered, true);

    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            problems.fail(format!("writing {}: {e}", path.display()));
        }
    }
    for (name, value, _) in metrics.entries() {
        problems.check(value.is_finite(), || format!("metric {name} is not finite"));
    }

    let sims: u64 = out.samples.iter().map(|s| s.simulations).sum();
    let results = Fingerprint::of(
        &out.samples
            .iter()
            .map(|s| s.fingerprint)
            .collect::<Vec<_>>(),
    );
    let attempted = out.offered + replayed;
    let failed = problems.count();
    let name = plan.workload.name();
    println!(
        "# {name} seed={} trace={}: {} requests ({} offered, {} replayed at 1 pool thread), {failed} failed",
        args.seed,
        u8::from(args.trace),
        out.samples.len(),
        out.offered,
        replayed
    );
    for (metric, value, unit) in metrics.entries() {
        println!("#   {metric:<42} {value:>16.4} {unit}");
    }
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
\"available_parallelism\":{threads},\"pool_threads\":{pool_threads},\"git_rev\":{},\"rustc\":{},\
\"source_digest\":{},\"avx2_lanes\":{},\"samples\":{}}}}}",
        json_str(name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.git_rev),
        json_str(&args.rustc),
        json_str(&args.source_digest),
        avx2_lanes(),
        out.samples.len()
    );
    println!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{},\"requests\":{},\"offered\":{},\
\"results\":\"{results:016x}\",\"simulations\":{sims},\"virtual_elapsed_ns\":{},\
\"replay_prefix\":\"{:016x}\"}}}}",
        json_str(name),
        args.seed,
        out.samples.len(),
        out.offered,
        out.virtual_elapsed_ns,
        Fingerprint::of(&out.replay_prefix)
    );
    let body: Vec<String> = metrics
        .entries()
        .iter()
        .map(|(metric, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(metric),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
