//! `drift-window`: `diurnal-drift` keys through a `WindowedShardedMonitor`
//! with one worker shard (the ingress thread plus one worker), `V = H` and a
//! four-pane window. Once the window is full, every `POLL_EVERY` packets the
//! benchmark polls: `publish_now()`, `query_coverage()`, then `query(θ)`.
//! The pass ends with `harvest_window` and `Output(θ)`.

use std::time::Instant;

use hhh_core::HhhAlgorithm;
use hhh_counters::DispatchedEstimator;
use hhh_traces::{ScenarioConfig, ScenarioGenerator, ScenarioKind};
use hhh_vswitch::{HandoffStats, WindowedShardedMonitor};

use crate::probe::{self, Span, TRACED};
use crate::{oracle, Outcome, THETA};

/// Packets per pass; the scenario's day/night cycle spans one pass.
pub const PACKETS: u64 = 5_000_000;
/// Window length W; above ψ ≈ 0.82 M at `V = H`.
pub const WINDOW: u64 = 2_000_000;
const PANES: usize = 4;
/// Packets between polls once the window is full: 500 polls per pass.
const POLL_EVERY: usize = 6_000;
/// Keys per hand-off batch, as the CLI sends them to shards.
const SHARD_BATCH: usize = 4_096;
const V_SCALE: u64 = 1;
const MIN_PASSES: usize = 3;

type Monitor = WindowedShardedMonitor<u64, DispatchedEstimator<u64>>;

/// Nanoseconds inside each layer's calls, summed over the measured passes.
#[derive(Default)]
struct Ledger {
    ingress: u64,
    publish: u64,
    merge: u64,
    query: u64,
    harvest: u64,
    output: u64,
    wall: u64,
    lag: u64,
    rotations: u64,
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let lattice = crate::lattice();
    let config = crate::rhhh_config(V_SCALE);
    let scenario = ScenarioConfig::new(ScenarioKind::DiurnalDrift)
        .with_seed(seed)
        .with_horizon(PACKETS);
    let mut out = Outcome {
        threads: 2,
        packets_per_pass: PACKETS,
        ..Outcome::default()
    };

    // The keys are generated once and feed every pass, so a pass's set-up
    // is this generation plus spawning its own monitor.
    let t = Instant::now();
    let mut keys = Vec::with_capacity(PACKETS as usize);
    keys.extend(
        ScenarioGenerator::new(&scenario)
            .take(PACKETS as usize)
            .map(|p| p.key2()),
    );
    let generate = t.elapsed().as_secs_f64();

    let mut l = Ledger::default();
    let mut handoff = HandoffStats::default();
    let mut last = None;
    let started = Instant::now();
    while out.pass_mpps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut monitor = Monitor::spawn(lattice.clone(), config, 1, SHARD_BATCH, WINDOW, PANES)
            .map_err(|e| e.to_string())?;
        out.setup_s.push(generate + t.elapsed().as_secs_f64());

        probe::reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
        let t0 = Instant::now();
        let mut fed = 0u64;
        let mut polls = Vec::with_capacity(500);
        for chunk in keys.chunks(POLL_EVERY) {
            let s = Span::start();
            monitor.update_batch(chunk);
            s.stop(&mut l.ingress);
            fed += chunk.len() as u64;
            if fed < WINDOW || fed == PACKETS {
                continue;
            }
            let tp = Instant::now();
            let s = Span::start();
            monitor.publish_now();
            s.stop(&mut l.publish);
            let s = Span::start();
            let covered = monitor.query_coverage();
            s.stop(&mut l.merge);
            let s = Span::start();
            let answer = monitor.query(THETA);
            s.stop(&mut l.query);
            polls.push(tp.elapsed().as_secs_f64() * 1e3);
            l.lag += fed.saturating_sub(covered);
            std::hint::black_box(answer);
        }
        out.record_polls(polls);
        let fed_total = monitor.packets();
        let stats = monitor.handoff_stats()[0];
        l.rotations += monitor.panes_completed();
        let s = Span::start();
        let harvested = monitor.harvest_window();
        s.stop(&mut l.harvest);
        out.packets_in += fed;
        let window = match harvested {
            Ok(w) => w,
            Err(e) => {
                // A dead shard loses its packets; hand-off drops imply one.
                out.packets_lost += fed;
                out.gate.push(format!("harvest failed: {e}"));
                break;
            }
        };
        let s = Span::start();
        let answer = window.output(THETA);
        s.stop(&mut l.output);
        let wall = t0.elapsed();
        l.wall += wall.as_nanos() as u64;
        out.peak_rss_mib
            .push(probe::peak_rss_mib().map_err(|e| format!("reading peak RSS: {e}"))?);
        // The worker runs beside the ingress thread, so a pass is one
        // segment: only the whole pass is the same work every time.
        out.record_pass(vec![wall.as_secs_f64()]);
        handoff.sends += stats.sends;
        handoff.occupancy_sum += stats.occupancy_sum;
        handoff.full_events += stats.full_events;
        handoff.park_events += stats.park_events;
        handoff.dropped += stats.dropped;
        out.check(fed_total == fed && fed == PACKETS, || {
            format!("monitor counted {fed_total} of {fed} packets fed")
        });
        out.check(window.packets() == WINDOW, || {
            format!("answer N = {} but the window is {WINDOW}", window.packets())
        });
        last = Some((window, answer));
    }
    let Some((window, answer)) = last else {
        return Err(out.gate.join("; "));
    };

    out.check_converged(&window);
    let covered = &keys[(PACKETS - WINDOW) as usize..];
    out.grade(
        oracle::score(&lattice, covered.iter().copied(), &answer, &config, THETA),
        answer.len(),
    );

    if TRACED {
        let passes = out.pass_mpps.len() as f64;
        let pk = out.packets_in as f64;
        let polls = out.polls as f64;
        let (nodes_compact, nodes_list) = crate::layout_census(&window);
        let inside = l.ingress + l.publish + l.merge + l.query + l.harvest + l.output;
        out.layers = vec![
            (
                "core.batch.updates_per_pkt",
                window.total_updates() as f64 / window.packets() as f64,
            ),
            ("counters.layout.compact_nodes", nodes_compact),
            ("counters.layout.stream-summary_nodes", nodes_list),
            ("vswitch.handoff.sends", handoff.sends as f64 / passes),
            ("vswitch.handoff.mean_occupancy", handoff.mean_occupancy()),
            (
                "vswitch.handoff.full_events",
                handoff.full_events as f64 / passes,
            ),
            (
                "vswitch.handoff.park_events",
                handoff.park_events as f64 / passes,
            ),
            ("vswitch.handoff.dropped", handoff.dropped as f64 / passes),
            ("vswitch.sharded.ingress_ns_per_pkt", l.ingress as f64 / pk),
            ("vswitch.sharded.publish_us", l.publish as f64 / polls / 1e3),
            ("vswitch.sharded.query_lag_pkts", l.lag as f64 / polls),
            (
                "vswitch.sharded.harvest_ms",
                l.harvest as f64 / passes / 1e6,
            ),
            ("core.merge.us_per_poll", l.merge as f64 / polls / 1e3),
            ("core.output.us_per_poll", l.query as f64 / polls / 1e3),
            ("core.output.final_ms", l.output as f64 / passes / 1e6),
            ("core.output.answer_size", answer.len() as f64),
            ("core.output.polls", polls / passes),
            ("core.windowed.rotations", l.rotations as f64 / passes),
            ("trace.layer_share", inside as f64 / l.wall as f64),
        ];
    }
    Ok(out)
}
