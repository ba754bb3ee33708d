//! `ddos-pcap`: the `ddos-ramp` scenario written to a pcap in set-up, then
//! streamed `PcapReader::read_block` → `WireBlockView::validated` →
//! `update_batch_wire` at `V = 10H`, ending in one `Output(θ)`. This is the
//! path behind `analyze --pcap` at the paper's 10-RHHH operating point.

use std::fs::File;
use std::path::Path;
use std::time::Instant;

use hhh_core::hot_profile;
use hhh_core::HhhAlgorithm;
use hhh_hierarchy::pack2;
use hhh_traces::{
    write_pcap, FrameBlock, PcapReader, ScenarioConfig, ScenarioGenerator, ScenarioKind,
};
use hhh_vswitch::WireBlockView;

use crate::probe::{self, Span, TRACED};
use crate::{oracle, Outcome, Sketch, THETA};

/// Packets in the capture; above ψ ≈ 8.2 M at `V = 10H`.
pub const PACKETS: u64 = 10_000_000;
const V_SCALE: u64 = 10;
/// Frames per `read_block`, as `analyze --pcap` reads them.
const BLOCK_FRAMES: usize = 8_192;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const MIN_PASSES: usize = 4;
/// `Output(θ)` calls timed on each pass's finished monitor, off the clock.
const POLLS_PER_PASS: usize = 1_000;
/// Bytes of the pcap global header and of each record header.
const PCAP_HEADER: u64 = 24;
const RECORD_HEADER: u64 = 16;
/// The planted aggregate: source `10.20.0.0/16`, destination `8.8.8.8`.
const ATTACK_SRC: u32 = 0x0A14_0000;
const VICTIM: u32 = 0x0808_0808;

/// Nanoseconds inside each layer's calls, summed over the measured passes.
#[derive(Default)]
struct Ledger {
    read: u64,
    wire: u64,
    batch: u64,
    output: u64,
    wall: u64,
    bytes: u64,
}

pub fn run(seed: u64, seconds: f64, work_dir: &Path) -> Result<Outcome, String> {
    let scenario = ScenarioConfig::new(ScenarioKind::DdosRamp)
        .with_seed(seed)
        .with_horizon(PACKETS);
    let path = work_dir.join(format!("ddos-ramp-{seed}.pcap"));
    let result = measure(&scenario, &path, seconds);
    let _ = std::fs::remove_file(&path);
    result
}

fn measure(scenario: &ScenarioConfig, path: &Path, seconds: f64) -> Result<Outcome, String> {
    let lattice = crate::lattice();
    let config = crate::rhhh_config(V_SCALE);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = Outcome {
        threads: 1,
        packets_per_pass: PACKETS,
        ..Outcome::default()
    };

    for _ in 0..SETUPS {
        let t = Instant::now();
        let packets = ScenarioGenerator::new(scenario).take_packets(PACKETS as usize);
        write_pcap(path, &packets).map_err(io)?;
        // Write the capture back now, so that kernel writeback does not
        // compete with the measured passes.
        File::open(path).and_then(|f| f.sync_all()).map_err(io)?;
        drop(packets);
        std::hint::black_box(Sketch::new(lattice.clone(), config));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut l = Ledger::default();
    let mut accepted_total = 0u64;
    let mut last = None;
    hot_profile::reset();
    let started = Instant::now();
    while out.pass_mpps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut sketch = Sketch::new(lattice.clone(), config);
        probe::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
        // One segment per block read, the first from pcap open, the last
        // ending at the answer.
        let mut segments = Vec::with_capacity(PACKETS as usize / BLOCK_FRAMES + 2);
        let t0 = Instant::now();
        let mut lap = t0;
        let mut reader = PcapReader::open(path).map_err(io)?;
        let mut block = FrameBlock::with_capacity(BLOCK_FRAMES);
        let (mut frames, mut accepted) = (0u64, 0u64);
        loop {
            let s = Span::start();
            let n = reader.read_block(&mut block, BLOCK_FRAMES).map_err(io)?;
            s.stop(&mut l.read);
            if n == 0 {
                break;
            }
            let s = Span::start();
            let view = WireBlockView::validated(&block);
            s.stop(&mut l.wire);
            frames += n as u64;
            accepted += view.len() as u64;
            if TRACED {
                l.bytes += block.data().len() as u64 + RECORD_HEADER * n as u64;
            }
            let s = Span::start();
            view.ingest(&mut sketch);
            s.stop(&mut l.batch);
            let now = Instant::now();
            segments.push((now - lap).as_secs_f64());
            lap = now;
        }
        let s = Span::start();
        let answer = sketch.output(THETA);
        s.stop(&mut l.output);
        segments.push(lap.elapsed().as_secs_f64());
        l.wall += t0.elapsed().as_nanos() as u64;
        out.peak_rss_mib
            .push(probe::peak_rss_mib().map_err(|e| format!("reading peak RSS: {e}"))?);
        out.record_pass(segments);
        out.packets_in += frames;
        out.packets_lost += frames.saturating_sub(sketch.packets());
        accepted_total += accepted;
        out.check(frames == PACKETS, || {
            format!("read {frames} frames, wrote {PACKETS}")
        });
        out.check(sketch.packets() == accepted, || {
            format!(
                "answer N = {} but {accepted} frames were accepted",
                sketch.packets()
            )
        });
        out.record_polls(crate::time_polls(POLLS_PER_PASS, || sketch.output(THETA)));
        last = Some((sketch, answer));
    }
    let (sketch, answer) = last.expect("at least one pass ran");

    out.check_converged(&sketch);
    out.check(
        crate::reports(&lattice, &answer, |s, d, k| {
            s == 2 && d == 4 && k == pack2(ATTACK_SRC, VICTIM)
        }),
        || "planted 10.20.0.0/16 -> 8.8.8.8 not reported".into(),
    );
    let keys = ScenarioGenerator::new(scenario)
        .take(PACKETS as usize)
        .map(|p| p.key2());
    out.grade(
        oracle::score(&lattice, keys, &answer, &config, THETA),
        answer.len(),
    );

    if TRACED {
        let passes = out.pass_mpps.len() as f64;
        let pk = out.packets_in as f64;
        let mut layers = vec![
            ("traces.pcap.busy_ns_per_pkt", l.read as f64 / pk),
            (
                "traces.pcap.bytes_read",
                l.bytes as f64 / passes + PCAP_HEADER as f64,
            ),
            (
                "traces.pcap.skipped",
                (out.packets_in - accepted_total) as f64 / passes,
            ),
            ("vswitch.wire.busy_ns_per_pkt", l.wire as f64 / pk),
            ("vswitch.wire.accept_ratio", accepted_total as f64 / pk),
        ];
        layers.extend(crate::sketch_layers(&out, &sketch, l.batch, l.output));
        let inside = l.read + l.wire + l.batch + l.output;
        layers.push(("trace.layer_share", inside as f64 / l.wall as f64));
        out.layers = layers;
    }
    Ok(out)
}
