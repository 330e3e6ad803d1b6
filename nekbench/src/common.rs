//! Helpers shared by the workloads: the measuring loop, the layer
//! micro-calls of the traced runs, and span → metric extraction.

use crate::report::Report;
use crate::spans::{self, Span, Tracer};
use crate::stats;
use commsim::{Comm, MachineModel, ReduceOp};
use insitu::DataAdaptor;
use memtrack::Registry;
use meshdata::{Centering, MultiBlock};
use std::time::{Duration, Instant};

/// Fewest measured runs a workload makes, however short `--seconds` is.
pub const MIN_RUNS: usize = 3;
/// Host time spent on the zero-step runs whose median is `setup_s`.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Host seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Call `run` until about `budget` has passed: at least [`MIN_RUNS`]
/// times, and no further run once the next would likely overrun.
pub fn repeat_for(budget: Duration, mut run: impl FnMut()) {
    let start = Instant::now();
    let mut runs = 0;
    loop {
        run();
        runs += 1;
        let spent = start.elapsed().as_secs_f64();
        let per_run = spent / runs as f64;
        if runs >= MIN_RUNS && spent + per_run > budget.as_secs_f64() {
            return;
        }
    }
}

/// Host seconds of each zero-step run made within [`SETUP_BUDGET`].
pub fn setup_samples(mut zero_step: impl FnMut()) -> Vec<f64> {
    let mut setup = Vec::new();
    repeat_for(SETUP_BUDGET, || setup.push(timed(&mut zero_step).0));
    setup
}

/// The end-to-end loop of a fig cell: zero-step runs for `setup_s`, then
/// `steps`-step runs rendering `frame_sets` frame sets each, for about
/// `seconds`. `record` checks a run's output and returns its modelled
/// seconds per step; those are returned in run order.
pub fn measure_cell<R>(
    r: &mut Report,
    seconds: Duration,
    steps: usize,
    frame_sets: usize,
    zero_step: impl FnMut(),
    mut run: impl FnMut() -> R,
    mut record: impl FnMut(&mut Report, R) -> f64,
) -> Vec<f64> {
    let setup = setup_samples(zero_step);
    let setup_s = stats::median(&setup);
    let (mut rates, mut frame_ms, mut virt) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(seconds, || {
        let (wall, out) = timed(&mut run);
        let stepping = (wall - setup_s).max(1e-9);
        rates.push(steps as f64 / stepping);
        frame_ms.push(stepping * 1e3 / frame_sets as f64);
        virt.push(record(r, out));
    });
    r.note_spread("setup_s", &setup);
    r.push_median("setup_s", &setup, "s");
    r.note_spread("steps_per_s", &rates);
    r.push_median("steps_per_s", &rates, "1/s");
    r.push_median("frame_latency_ms.p50", &frame_ms, "ms");
    virt
}

/// FNV-1a 64 of `bytes`: the image digest the traced runs compare.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Materialize the named point arrays of `da` as one multiblock, the way
/// an analysis reads a published step.
pub fn multiblock(comm: &mut Comm, da: &mut dyn DataAdaptor, arrays: &[String]) -> MultiBlock {
    let mesh = da.mesh_name(0).to_string();
    let mut mb = da.mesh(comm, &mesh).expect("published mesh");
    for a in arrays {
        da.add_array(comm, &mut mb, &mesh, Centering::Point, a)
            .expect("published array");
    }
    mb
}

/// Run `f` `reps` times, each inside its own span.
pub fn spans_of(
    tracer: &Tracer,
    name: &'static str,
    world: &'static str,
    rank: usize,
    reps: usize,
    mut f: impl FnMut(),
) {
    for _ in 0..reps {
        let _s = tracer.span(name, world, rank);
        f();
    }
}

/// The layer micro-calls every traced run makes inside a rank world
/// (collective: every rank must call it): operator apply and
/// gather/scatter on the rank-local mesh, a one-word allreduce, and an
/// 800×600 composite over the world.
pub fn world_micro(
    tracer: &Tracer,
    world: &'static str,
    comm: &mut Comm,
    solver: &sem::navier_stokes::FlowSolver,
) {
    let rank = comm.rank();
    let n = solver.ops.layout.n_nodes();
    let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut out = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    spans_of(tracer, "sem.ax", world, rank, 20, || {
        solver.ops.stiffness_apply(comm, &u, &mut out, &mut scratch);
        std::hint::black_box(&out);
    });
    let mut field = u.clone();
    spans_of(tracer, "sem.gs", world, rank, 20, || {
        solver.gs.sum(comm, &mut field);
        std::hint::black_box(&field);
    });
    let mut acc = 0.0;
    spans_of(tracer, "commsim.allreduce", world, rank, 50, || {
        acc += comm.allreduce(rank as f64, ReduceOp::Sum);
    });
    std::hint::black_box(acc);
    spans_of(tracer, "render.composite", world, rank, 3, || {
        let fb = render::Framebuffer::new(800, 600);
        std::hint::black_box(render::composite_to_root(comm, fb));
    });
}

/// Marshal, checksum and unmarshal one real published block; returns the
/// marshalled size in bytes.
pub fn transport_micro(
    tracer: &Tracer,
    world: &'static str,
    rank: usize,
    mb: &MultiBlock,
    step: u64,
) -> usize {
    let mut bytes = Vec::new();
    spans_of(tracer, "transport.marshal", world, rank, 5, || {
        bytes = transport::marshal_blocks(rank as u32, step, 0.0, mb);
    });
    let mut crc = 0;
    spans_of(tracer, "transport.crc", world, rank, 5, || {
        crc ^= transport::crc32(&bytes);
    });
    std::hint::black_box(crc);
    spans_of(tracer, "transport.unmarshal", world, rank, 5, || {
        let data = transport::unmarshal_blocks(&bytes).expect("own bytes unmarshal");
        std::hint::black_box(data.blocks.len());
    });
    bytes.len()
}

/// Spawn an empty `ranks`-rank world `reps` times from the calling
/// thread, each inside a span.
pub fn spawn_micro(tracer: &Tracer, machine: &MachineModel, ranks: usize, reps: usize) {
    spans_of(tracer, "commsim.spawn", "main", 0, reps, || {
        commsim::run_ranks(ranks, machine.clone(), |_| ());
    });
}

/// Span name → per-layer metric: (metric, span, quantile, unit).
const SPAN_METRICS: &[(&str, &str, f64, &str)] = &[
    ("sem.step_ms.p50", "sem.step", 0.5, "ms"),
    ("sem.step_ms.p90", "sem.step", 0.9, "ms"),
    ("sem.ax_us", "sem.ax", 0.5, "us"),
    ("sem.gs_us", "sem.gs", 0.5, "us"),
    ("sem.build_ms", "sem.build", 0.5, "ms"),
    ("commsim.wait_ms.p50", "commsim.wait", 0.5, "ms"),
    ("commsim.wait_ms.p90", "commsim.wait", 0.9, "ms"),
    ("commsim.allreduce_us", "commsim.allreduce", 0.5, "us"),
    ("commsim.spawn_ms", "commsim.spawn", 0.5, "ms"),
    ("core.geometry_ms", "core.geometry", 0.5, "ms"),
    ("core.publish_ms", "core.publish", 0.5, "ms"),
    ("render.frame_ms.p50", "render.frame", 0.5, "ms"),
    ("render.frame_ms.p90", "render.frame", 0.9, "ms"),
    ("render.composite_ms", "render.composite", 0.5, "ms"),
    ("transport.marshal_ms", "transport.marshal", 0.5, "ms"),
    ("transport.crc_ms", "transport.crc", 0.5, "ms"),
    ("transport.unmarshal_ms", "transport.unmarshal", 0.5, "ms"),
    ("transport.write_ms.p50", "transport.write", 0.5, "ms"),
    ("transport.write_ms.p90", "transport.write", 0.9, "ms"),
    ("transport.recv_ms.p50", "transport.recv", 0.5, "ms"),
    (
        "transport.staging.next_frame_ms.p50",
        "transport.staging.next_frame",
        0.5,
        "ms",
    ),
    (
        "transport.staging.next_frame_ms.p99",
        "transport.staging.next_frame",
        0.99,
        "ms",
    ),
];

/// The layers whose self time the traced runs report.
const LAYERS: &[&str] = &["sem", "commsim", "core", "render", "transport"];

/// Push every span-derived per-layer metric, the layer self times, the
/// attributed fraction of `root`'s rank and the tracing overhead.
pub fn push_span_metrics(
    r: &mut Report,
    spans: &[Span],
    root: &'static str,
    traced_wall: f64,
    untraced_wall: f64,
) {
    for &(metric, span, q, unit) in SPAN_METRICS {
        let scale = if unit == "us" { 1e6 } else { 1e3 };
        let d: Vec<f64> = spans::durations(spans, span)
            .into_iter()
            .map(|s| s * scale)
            .collect();
        // A call this workload never makes has no metric.
        if !d.is_empty() {
            r.push_quantile(metric, &d, q, unit);
        }
    }
    let selfs = spans::layer_self_times(spans);
    for layer in LAYERS.iter().chain(&["bench"]) {
        let v = selfs.get(layer).copied().unwrap_or(0.0) * 1e3;
        let n = spans.iter().filter(|s| s.layer() == *layer).count();
        r.push(format!("{layer}.self_ms"), v, "ms", n);
    }
    let root_id = spans
        .iter()
        .find(|s| s.name == "bench.rank" && s.world == root && s.rank == 0)
        .map(|s| s.id);
    let frac = root_id.map_or(0.0, |id| spans::attributed_fraction(spans, id));
    r.push("bench.attributed_fraction", frac, "ratio", 1);
    r.push(
        "bench.trace_overhead",
        traced_wall / untraced_wall.max(1e-9),
        "ratio",
        1,
    );
    r.note(format!(
        "traced wall {traced_wall:.3} s vs untraced {untraced_wall:.3} s; {} spans",
        spans.len()
    ));
}

/// The accountant high-water marks of a traced run: the largest
/// per-rank host peak and the largest per-rank snapshot-pool peak.
pub fn push_memtrack(r: &mut Report, registry: &Registry) {
    let mem = nek_sensei::metrics::memory_breakdown(registry);
    let mib = 1024.0 * 1024.0;
    r.push(
        "memtrack.rank_peak_mb",
        mem.host_max_rank_peak as f64 / mib,
        "MiB",
        1,
    );
    let pool = registry
        .snapshot()
        .entries
        .iter()
        .filter(|(name, _, _)| name.ends_with("/snapshot-pool"))
        .map(|(_, _, peak)| *peak)
        .max()
        .unwrap_or(0);
    r.push(
        "memtrack.snapshot_pool_peak_mb",
        pool as f64 / mib,
        "MiB",
        1,
    );
}

/// Write the traced spans as JSON lines under `.bench_out/` in the
/// working directory; returns the path written.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.seed{seed}.spans.jsonl"));
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"world\":\"{}\",\"rank\":{},\"start_s\":{},\"end_s\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            workload,
            s.world,
            s.rank,
            s.start,
            s.end
        ));
    }
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_makes_at_least_the_minimum_runs() {
        let mut n = 0;
        repeat_for(Duration::ZERO, || n += 1);
        assert_eq!(n, MIN_RUNS);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
