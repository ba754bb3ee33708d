//! `perfbench`: one workload of the repository benchmark, from capture or
//! frame bytes to an HHH answer, as one process.
//!
//! ```text
//! perfbench --workload <ddos-pcap|scan-sweep|drift-window> --seed <n>
//!           --seconds <s> --work-dir <dir>
//! ```
//!
//! Prints one JSON object on its last line: the end-to-end metrics, the
//! correctness gate and, in the `traced` build, the per-layer metrics.
//! `perfbench/run.py` builds both variants, runs them and reports; see
//! `perfbench/README.md` for the workloads and metrics.

mod ddos;
mod drift;
mod oracle;
mod probe;
mod scan;

use std::path::PathBuf;
use std::process::ExitCode;

use hhh_core::hot_profile::{self, Stage};
use hhh_core::{HeavyHitter, HhhAlgorithm, Rhhh, RhhhConfig};
use hhh_counters::{DispatchedEstimator, FrequencyEstimator};
use hhh_hierarchy::Lattice;

/// Timings of work that every pass repeats identically: one row per item
/// (a segment of the stream, or the poll at one position), one entry per
/// pass.
///
/// The host's speed changes by up to a half, within seconds and over
/// minutes, and a slow spell only ever lengthens a timing, so an item's
/// fastest time over the passes is the steadiest estimate of the program's
/// own cost; the end-to-end metrics are built from these.
#[derive(Default)]
pub struct Repeats {
    rows: Vec<Vec<f64>>,
}

impl Repeats {
    /// Adds one pass's timings, item by item.
    pub fn push_pass(&mut self, times: Vec<f64>) -> Result<(), String> {
        if self.rows.is_empty() {
            self.rows = vec![Vec::new(); times.len()];
        }
        if self.rows.len() != times.len() {
            return Err(format!(
                "a pass timed {} items, the first timed {}",
                times.len(),
                self.rows.len()
            ));
        }
        for (row, t) in self.rows.iter_mut().zip(times) {
            row.push(t);
        }
        Ok(())
    }

    /// Each item's fastest time over the passes.
    pub fn fastest(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// HHH threshold θ of every workload.
pub const THETA: f64 = 0.05;

/// The sketch every workload runs: RHHH over the per-node layout dispatch,
/// i.e. what `CounterKind::Dispatch` builds.
pub type Sketch = Rhhh<u64, DispatchedEstimator<u64>>;

/// RHHH configuration at `V = v_scale · H`: `ε_a = ε_s = 0.01`,
/// `δ_s = 0.001`, one update per packet and a fixed sketch seed.
pub fn rhhh_config(v_scale: u64) -> RhhhConfig {
    RhhhConfig {
        epsilon_a: 0.01,
        epsilon_s: 0.01,
        delta_s: 0.001,
        v_scale,
        updates_per_packet: 1,
        seed: 0x5EED,
    }
}

/// The 2D source × destination byte lattice (`H = 25`).
pub fn lattice() -> Lattice<u64> {
    Lattice::ipv4_src_dst_bytes()
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Threads the workload ran (ingress plus workers).
    pub threads: usize,
    /// Packets in one pass of the stream.
    pub packets_per_pass: u64,
    /// Seconds of each set-up before a measured pass.
    pub setup_s: Vec<f64>,
    /// Throughput of each measured pass, in million packets per second.
    pub pass_mpps: Vec<f64>,
    /// Time of each segment of a pass, in seconds.
    pub segments: Repeats,
    /// Latency of each poll of a pass, in milliseconds.
    pub poll_ms: Repeats,
    /// Polls over all passes.
    pub polls: u64,
    /// Resident-set high-water mark of each measured pass, in MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Packets handed to the monitor over all passes.
    pub packets_in: u64,
    /// Packets handed in that the monitor never counted.
    pub packets_lost: u64,
    /// The final answer against the exact θ-HHH set.
    pub quality: oracle::Quality,
    /// Size of the final answer.
    pub answer_size: usize,
    /// Correctness checks that failed, one line each.
    pub gate: Vec<String>,
    /// Per-layer metrics (traced build only), by name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate.push(what());
        }
    }

    /// Records the segment times (s) of one pass of `packets_per_pass`
    /// packets.
    pub fn record_pass(&mut self, segments: Vec<f64>) {
        let wall: f64 = segments.iter().sum();
        self.pass_mpps
            .push(self.packets_per_pass as f64 / wall / 1e6);
        if let Err(e) = self.segments.push_pass(segments) {
            self.gate.push(format!("segments: {e}"));
        }
    }

    /// Records the poll latencies (ms) of one pass.
    pub fn record_polls(&mut self, latencies: Vec<f64>) {
        self.polls += latencies.len() as u64;
        if let Err(e) = self.poll_ms.push_pass(latencies) {
            self.gate.push(format!("polls: {e}"));
        }
    }

    /// Throughput of a pass whose every segment takes its fastest time.
    pub fn e2e_mpps(&self) -> f64 {
        let wall: f64 = self.segments.fastest().iter().sum();
        self.packets_per_pass as f64 / wall / 1e6
    }

    /// Quantile `q` over a pass's polls of their fastest latencies.
    pub fn query_ms(&self, q: f64) -> f64 {
        probe::quantile(&mut self.poll_ms.fastest(), q)
    }

    /// Gates on N > ψ at the final answer.
    pub fn check_converged(&mut self, sketch: &Sketch) {
        self.check(sketch.converged(), || {
            format!(
                "N = {} is not above psi = {:.0}",
                sketch.packets(),
                sketch.psi()
            )
        });
    }

    /// Keeps the final answer's quality and gates on the guarantee that
    /// holds once N > ψ: no reported estimate off by more than `εN`, and no
    /// unreported prefix whose exact conditioned count reaches `θN`.
    pub fn grade(&mut self, quality: oracle::Quality, answer_size: usize) {
        self.check(quality.accuracy_error == 0.0, || {
            format!(
                "{:.3} of reported prefixes are off by more than eps*N",
                quality.accuracy_error
            )
        });
        self.check(quality.violations == 0.0, || {
            format!(
                "coverage violated: {:.3} of the exact set size",
                quality.violations
            )
        });
        self.quality = quality;
        self.answer_size = answer_size;
    }
}

/// Times `n` calls of `poll`, in milliseconds each.
pub fn time_polls<T>(n: usize, mut poll: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(poll());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Per-node layout census of a sketch: `(compact nodes, stream-summary nodes)`.
pub fn layout_census(sketch: &Sketch) -> (f64, f64) {
    let count = |label: &str| {
        sketch
            .node_instances()
            .iter()
            .filter(|e| e.layout_label() == label)
            .count() as f64
    };
    (count("compact"), count("stream-summary"))
}

/// Per-layer metrics of the single-threaded workloads' sketch: the batch
/// pipeline (time inside its calls plus the `hot-profile` stage split), the
/// flush split and census by counter layout, and the `Output(θ)` calls.
pub fn sketch_layers(
    out: &Outcome,
    sketch: &Sketch,
    batch_ns: u64,
    output_ns: u64,
) -> Vec<(&'static str, f64)> {
    let pk = out.packets_in as f64;
    let passes = out.pass_mpps.len() as f64;
    let stages = hot_profile::snapshot();
    let stage = |s: Stage| stages.ns(s) as f64 / pk;
    let flush = hot_profile::flush_layout_snapshot();
    let flush_ns = |label: &str| {
        flush
            .iter()
            .filter(|r| r.0 == label)
            .map(|r| r.1 as f64)
            .sum::<f64>()
    };
    let (nodes_compact, nodes_list) = layout_census(sketch);
    vec![
        ("core.batch.busy_ns_per_pkt", batch_ns as f64 / pk),
        (
            "core.batch.updates_per_pkt",
            sketch.total_updates() as f64 / sketch.packets() as f64,
        ),
        ("core.batch.draw_ns_per_pkt", stage(Stage::Draw)),
        ("core.batch.mask_hash_ns_per_pkt", stage(Stage::MaskHash)),
        ("core.batch.scatter_ns_per_pkt", stage(Stage::Scatter)),
        ("core.batch.flush_ns_per_pkt", stage(Stage::Flush)),
        (
            "counters.flush.compact_ns_per_pkt",
            flush_ns("compact") / pk,
        ),
        (
            "counters.flush.stream-summary_ns_per_pkt",
            flush_ns("stream-summary") / pk,
        ),
        ("counters.layout.compact_nodes", nodes_compact),
        ("counters.layout.stream-summary_nodes", nodes_list),
        ("core.output.final_ms", output_ns as f64 / passes / 1e6),
        ("core.output.answer_size", out.answer_size as f64),
        ("core.output.us_per_poll", out.query_ms(0.50) * 1e3),
        ("core.output.polls", out.polls as f64 / passes),
    ]
}

/// Whether `answer` holds a prefix matching `pred(src_bytes, dst_bytes, key)`.
pub fn reports(
    lattice: &Lattice<u64>,
    answer: &[HeavyHitter<u64>],
    pred: impl Fn(u32, u32, u64) -> bool,
) -> bool {
    answer.iter().any(|h| {
        let spec = lattice.spec(h.prefix.node);
        pred(spec[0], spec[1], h.prefix.key)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
    })
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn print_outcome(workload: &str, seed: u64, o: &mut Outcome) {
    let pass_mpps: Vec<String> = o.pass_mpps.iter().map(|&x| json_f64(x)).collect();
    // No poll call returns an error, so only packets can fail.
    let attempted = o.packets_in + o.polls;
    let failed = o.packets_lost;
    let e2e = [
        ("setup_s", probe::median(&mut o.setup_s)),
        ("e2e_mpps", o.e2e_mpps()),
        ("query_p50_ms", o.query_ms(0.50)),
        ("query_p99_ms", o.query_ms(0.99)),
        ("peak_rss_mib", probe::median(&mut o.peak_rss_mib)),
        ("failed_ratio", failed as f64 / attempted.max(1) as f64),
        ("coverage_error", o.quality.coverage_error),
        ("accuracy_error", o.quality.accuracy_error),
        ("coverage_violations", o.quality.violations),
    ];
    let obj = |rows: &[(&str, f64)]| {
        let body: Vec<String> = rows
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_f64(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let gate: Vec<String> = o
        .gate
        .iter()
        .map(|g| format!("\"{}\"", g.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {}, \"threads\": {}, \
         \"passes\": {}, \"packets_per_pass\": {}, \"polls\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"exact_size\": {}, \"answer_size\": {}, \"gate\": [{}], \
         \"pass_mpps\": [{}], \"e2e\": {}, \"layers\": {}}}",
        probe::TRACED,
        o.threads,
        o.pass_mpps.len(),
        o.packets_per_pass,
        o.polls,
        o.quality.exact_size,
        o.answer_size,
        gate.join(", "),
        pass_mpps.join(", "),
        obj(&e2e),
        obj(&o.layers),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "ddos-pcap" => ddos::run(args.seed, args.seconds, &args.work_dir),
        "scan-sweep" => scan::run(args.seed, args.seconds),
        "drift-window" => drift::run(args.seed, args.seconds),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(mut outcome) => {
            print_outcome(&args.workload, args.seed, &mut outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
