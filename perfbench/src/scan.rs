//! `scan-sweep`: the `scan-sweep` scenario as clean frame blocks on the
//! trusted stride plan (`WireBlockView::new`) at `V = H`. Blocks are
//! generated in bounded chunks with the clock paused, so neither the clock
//! nor the resident set counts the generator's frames; the paused time is
//! set-up time.

use std::time::Instant;

use hhh_core::hot_profile;
use hhh_core::HhhAlgorithm;
use hhh_traces::{FrameBlock, ScenarioConfig, ScenarioGenerator, ScenarioKind};
use hhh_vswitch::WireBlockView;

use crate::probe::{self, Span, TRACED};
use crate::{oracle, Outcome, Sketch, THETA};

/// Packets per pass; above ψ ≈ 0.82 M at `V = H`.
pub const PACKETS: u64 = 4_000_000;
const V_SCALE: u64 = 1;
/// Frames per generated block.
const BLOCK_FRAMES: usize = 8_192;
const MIN_PASSES: usize = 4;
/// `Output(θ)` calls timed on each pass's finished monitor, off the clock.
const POLLS_PER_PASS: usize = 1_000;
/// The planted scanner source, 203.0.113.66.
const SCANNER: u32 = 0xCB00_7142;

/// Nanoseconds inside each layer's calls, summed over the measured passes.
#[derive(Default)]
struct Ledger {
    wire: u64,
    batch: u64,
    output: u64,
    wall: u64,
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let lattice = crate::lattice();
    let config = crate::rhhh_config(V_SCALE);
    let scenario = ScenarioConfig::new(ScenarioKind::ScanSweep)
        .with_seed(seed)
        .with_horizon(PACKETS);
    let mut out = Outcome {
        threads: 1,
        packets_per_pass: PACKETS,
        ..Outcome::default()
    };

    let mut l = Ledger::default();
    let mut accepted_total = 0u64;
    let mut last = None;
    hot_profile::reset();
    let started = Instant::now();
    while out.pass_mpps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut gen = ScenarioGenerator::new(&scenario);
        let mut sketch = Sketch::new(lattice.clone(), config);
        let mut block = FrameBlock::with_capacity(BLOCK_FRAMES);
        let mut setup = t.elapsed();

        probe::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
        // One segment per block, timed with the generator's clock paused.
        let mut segments = Vec::with_capacity(PACKETS as usize / BLOCK_FRAMES + 2);
        let (mut generated, mut accepted) = (0u64, 0u64);
        while generated < PACKETS {
            let n = BLOCK_FRAMES.min((PACKETS - generated) as usize);
            generated += n as u64;
            let t = Instant::now();
            gen.next_block(&mut block, n);
            setup += t.elapsed();
            let t = Instant::now();
            let s = Span::start();
            let view = WireBlockView::new(&block);
            s.stop(&mut l.wire);
            let s = Span::start();
            view.ingest(&mut sketch);
            s.stop(&mut l.batch);
            segments.push(t.elapsed().as_secs_f64());
            accepted += view.len() as u64;
        }
        let t = Instant::now();
        let s = Span::start();
        let answer = sketch.output(THETA);
        s.stop(&mut l.output);
        segments.push(t.elapsed().as_secs_f64());
        l.wall += (segments.iter().sum::<f64>() * 1e9) as u64;
        out.setup_s.push(setup.as_secs_f64());
        out.peak_rss_mib
            .push(probe::peak_rss_mib().map_err(|e| format!("reading peak RSS: {e}"))?);
        out.record_pass(segments);
        out.packets_in += PACKETS;
        out.packets_lost += PACKETS.saturating_sub(sketch.packets());
        accepted_total += accepted;
        out.check(sketch.packets() == PACKETS && accepted == PACKETS, || {
            format!(
                "answer N = {} and {accepted} frames accepted, {PACKETS} generated",
                sketch.packets()
            )
        });
        out.record_polls(crate::time_polls(POLLS_PER_PASS, || sketch.output(THETA)));
        last = Some((sketch, answer));
    }
    let (sketch, answer) = last.expect("at least one pass ran");

    out.check_converged(&sketch);
    out.check(
        crate::reports(&lattice, &answer, |s, _, k| {
            s == 4 && (k >> 32) as u32 == SCANNER
        }),
        || "planted source 203.0.113.66 not reported".into(),
    );
    let keys = ScenarioGenerator::new(&scenario)
        .take(PACKETS as usize)
        .map(|p| p.key2());
    out.grade(
        oracle::score(&lattice, keys, &answer, &config, THETA),
        answer.len(),
    );

    if TRACED {
        let pk = out.packets_in as f64;
        let mut layers = vec![
            ("vswitch.wire.busy_ns_per_pkt", l.wire as f64 / pk),
            ("vswitch.wire.accept_ratio", accepted_total as f64 / pk),
        ];
        layers.extend(crate::sketch_layers(&out, &sketch, l.batch, l.output));
        let inside = l.wire + l.batch + l.output;
        layers.push(("trace.layer_share", inside as f64 / l.wall as f64));
        out.layers = layers;
    }
    Ok(out)
}
