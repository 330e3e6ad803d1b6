//! `insitu_pb146`: one Fig. 2 cell — pb146 on one Polaris node (4 ranks),
//! synchronous Catalyst in situ rendering two 800×600 images every 10
//! steps. The solver does most of the work here.

use crate::common::{self, timed};
use crate::report::Report;
use crate::shape;
use crate::spans::Tracer;
use crate::stats::median;
use commsim::{FaultPlan, MachineModel, SchedMode};
use insitu::AnalysisAdaptor;
use memtrack::Registry;
use nek_sensei::{run_insitu, ExecMode, InSituConfig, InSituMode, SnapshotPlane, MESH_NAME};
use render::{CatalystAnalysis, RenderPipeline};
use sem::cases::{pb146, CaseParams, InitKind};
use std::time::Duration;

const RANKS: usize = 4;
const TRIGGER: u64 = 10;
/// Steps per measured run: two triggers.
const STEPS: usize = 20;
const IMAGE: (usize, usize) = (800, 600);
/// The paper's smallest strong-scaling cell, which one node of 4 ranks
/// stands in for.
const PAPER_RANKS: f64 = 280.0;

/// The inlet velocity of the initial state, drawn from the seed: 1 ± 10%,
/// wide enough that the CG iteration counts, and with them the modelled
/// step time, differ between seeds (at ±2% most seeds solve identically).
fn w_in(seed: u64) -> f64 {
    shape::band(seed, 1, 1.0, 0.1)
}

/// The Fig. 2 cell at `steps` steps.
pub fn config(seed: u64, steps: usize) -> InSituConfig {
    let mut params = CaseParams::pb146_default();
    params.elems = [4, 4, 8];
    params.order = 3;
    let mut case = pb146(&params, 146);
    case.init = InitKind::AxialInflow { w_in: w_in(seed) };
    // Derate Polaris to the paper's per-rank load, as the fig2 harness
    // does: ~350k elements at N=7 over 280 ranks.
    let paper_nodes = 350_000.0 * 512.0;
    let our_nodes = (case.n_fluid_elems() * (params.order + 1).pow(3)) as f64;
    let derate = ((paper_nodes / our_nodes) * (RANKS as f64 / PAPER_RANKS)).max(1.0);
    InSituConfig {
        case,
        ranks: RANKS,
        steps,
        trigger_every: TRIGGER,
        machine: MachineModel::polaris().derate_throughput(derate),
        image_size: IMAGE,
        mode: InSituMode::Catalyst,
        exec: ExecMode::Synchronous,
        sched: SchedMode::Thread,
        faults: FaultPlan::none(),
        output_dir: None,
        trace: false,
        telemetry: false,
        recovery: Default::default(),
    }
}

fn inputs_note(seed: u64) -> String {
    format!(
        "inputs: w_in={:.6} ranks={RANKS} elems=4x4x8 order=3 pebbles=146 trigger={TRIGGER} steps_per_run={STEPS} image={}x{} machine=polaris(derated)",
        w_in(seed),
        IMAGE.0,
        IMAGE.1
    )
}

/// End-to-end: zero-step runs for `setup_s`, then 20-step runs through
/// `run_insitu` for about `seconds`.
pub fn measure(seed: u64, seconds: Duration) -> Report {
    let mut r = Report::default();
    r.note(inputs_note(seed));
    let cfg = config(seed, STEPS);
    let triggers = STEPS as u64 / TRIGGER;
    let virt = common::measure_cell(
        &mut r,
        seconds,
        STEPS,
        triggers as usize,
        || {
            run_insitu(&config(seed, 0));
        },
        || run_insitu(&cfg),
        |r, rep| {
            // Rank 0 writes each composited image once.
            let images = rep.files_written;
            r.attempted += 2 * triggers;
            r.failed += (2 * triggers).saturating_sub(images);
            r.check(
                images == 2 * triggers,
                format!("{images} images for {triggers} triggers"),
            );
            rep.metrics.mean_step_time
        },
    );
    r.check(
        virt.iter().all(|v| v.to_bits() == virt[0].to_bits()),
        format!("virtual_step_s differs between identical runs: {virt:?}"),
    );
    r.push("virtual_step_s", virt[0], "s", virt.len());
    r
}

/// What one composed run returns per rank.
struct RankOut {
    pressure_iters: Vec<usize>,
    velocity_iters: Vec<usize>,
    all_converged: bool,
    images: u64,
    digests: Vec<u64>,
    publish_bytes: u64,
    marshal_bytes: usize,
}

/// The Fig. 2 cell composed from the layers' public calls, with a span
/// around each. Returns the host wall time and the per-rank outputs.
fn composed(seed: u64, tracer: &Tracer, registry: &Registry) -> (f64, Vec<RankOut>) {
    let cfg = config(seed, STEPS);
    let case = cfg.case.clone();
    let t = tracer.clone();
    let (wall, results) = timed(|| {
        commsim::with_mode(SchedMode::Thread, || {
            commsim::run_ranks_with_registry(
                RANKS,
                cfg.machine.clone(),
                registry.clone(),
                move |comm| {
                    let rank = comm.rank();
                    let _root = t.span("bench.rank", "sim", rank);
                    let mut solver = {
                        let _s = t.span("sem.build", "sim", rank);
                        case.build(comm)
                    };
                    let plane = {
                        let _s = t.span("core.geometry", "sim", rank);
                        SnapshotPlane::new(comm, &solver)
                    };
                    let mut pipeline = RenderPipeline::two_image_default("pressure", "velocity");
                    (pipeline.width, pipeline.height) = IMAGE;
                    let mut analysis = CatalystAnalysis::new(MESH_NAME, pipeline, None);
                    let arrays = analysis.required_arrays();
                    let mut out = RankOut {
                        pressure_iters: Vec::new(),
                        velocity_iters: Vec::new(),
                        all_converged: true,
                        images: 0,
                        digests: Vec::new(),
                        publish_bytes: 0,
                        marshal_bytes: 0,
                    };
                    let mut last_mb = None;
                    for step in 1..=STEPS as u64 {
                        let rep = {
                            let _s = t.span("sem.step", "sim", rank);
                            solver.step(comm)
                        };
                        out.all_converged &= rep.pressure.converged;
                        out.pressure_iters.push(rep.pressure.iterations);
                        out.velocity_iters
                            .push(rep.velocity.iter().map(|v| v.iterations).sum());
                        {
                            let _s = t.span("commsim.wait", "sim", rank);
                            comm.barrier();
                        }
                        if step % TRIGGER == 0 {
                            let mut da = {
                                let _s = t.span("core.publish", "sim", rank);
                                plane.publish(comm, &mut solver, &arrays)
                            };
                            out.publish_bytes = da.snapshot().staged_bytes();
                            {
                                let _s = t.span("render.frame", "sim", rank);
                                analysis.execute(comm, &mut da).expect("catalyst render");
                            }
                            for img in analysis.last_images() {
                                if let Some(png) = &img.png {
                                    out.digests.push(common::fnv64(png));
                                }
                            }
                            if step == STEPS as u64 {
                                last_mb = Some(common::multiblock(comm, &mut da, &arrays));
                            }
                        }
                    }
                    out.images = analysis.images_rendered();
                    common::world_micro(&t, "sim", comm, &solver);
                    if let Some(mb) = &last_mb {
                        out.marshal_bytes =
                            common::transport_micro(&t, "sim", rank, mb, STEPS as u64);
                    }
                    out
                },
            )
        })
    });
    (wall, results.into_iter().map(|r| r.value).collect())
}

/// Per-layer: one traced composed run, plus two untraced ones for the
/// tracing overhead.
pub fn traced(seed: u64) -> Report {
    let mut r = Report::default();
    r.note(inputs_note(seed));
    let untraced: Vec<(f64, Vec<RankOut>)> = (0..2)
        .map(|_| composed(seed, &Tracer::disabled(), &Registry::new()))
        .collect();
    let untraced_wall = median(&untraced.iter().map(|u| u.0).collect::<Vec<_>>());
    let tracer = Tracer::enabled();
    let registry = Registry::new();
    let (wall, outs) = composed(seed, &tracer, &registry);
    common::spawn_micro(&tracer, &config(seed, 0).machine, RANKS, 5);
    let spans = tracer.spans();

    let triggers = STEPS as u64 / TRIGGER;
    let images: u64 = outs.iter().map(|o| o.images).sum();
    r.attempted = 2 * triggers;
    r.failed = (2 * triggers).saturating_sub(images);
    r.check(images == 2 * triggers, format!("{images} images"));
    r.check(
        outs.iter().all(|o| o.all_converged),
        "a pressure solve did not converge",
    );
    for (i, u) in untraced.iter().enumerate() {
        r.check(
            u.1[0].digests == outs[0].digests,
            format!("image digests of untraced run {i} differ from the traced run"),
        );
    }

    let steps = (STEPS * RANKS) as f64;
    let p: usize = outs.iter().flat_map(|o| &o.pressure_iters).sum();
    let v: usize = outs.iter().flat_map(|o| &o.velocity_iters).sum();
    r.push(
        "sem.pressure_iters",
        p as f64 / steps,
        "count",
        STEPS * RANKS,
    );
    r.push(
        "sem.velocity_iters",
        v as f64 / steps,
        "count",
        STEPS * RANKS,
    );
    r.push("core.publish_bytes", outs[0].publish_bytes as f64, "B", 1);
    r.push("render.images", images as f64, "count", 1);
    r.push(
        "transport.marshal_bytes",
        outs[0].marshal_bytes as f64,
        "B",
        1,
    );
    common::push_memtrack(&mut r, &registry);
    common::push_span_metrics(&mut r, &spans, "sim", wall, untraced_wall);
    match common::write_spans("insitu_pb146", seed, &spans) {
        Ok(path) => r.note(format!("spans written to {path}")),
        Err(e) => r.check(false, format!("writing spans: {e}")),
    }
    r
}
