//! `staging_fanout`: one producer streams real RBC snapshot blocks over
//! the TCP wire into a `StagingService` at a fixed open-loop step rate.
//! One TCP consumer session attaches from the start; a second joins at a
//! seed-chosen step and catches up from the parked steps. Only the wire,
//! the staging protocol, the frame cache and the park/replay files work
//! here — no solver runs per step.

use crate::common::{self, timed};
use crate::report::Report;
use crate::shape;
use crate::spans::Tracer;
use crate::stats::{self, median};
use bench_harness::cases::{juwels_derated, rbc_weak_scaling};
use commsim::{FaultPlan, MachineModel, SchedMode};
use insitu::data_adaptor::StaticDataAdaptor;
use insitu::AnalysisAdaptor;
use memtrack::Registry;
use meshdata::MultiBlock;
use nek_sensei::{SnapshotPlane, MESH_NAME};
use render::{CatalystAnalysis, RenderPipeline};
use sem::cases::InitKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use transport::wire::loopback_listener;
use transport::{
    ConsumerClient, QueuePolicy, SessionSpec, StagingLink, StagingNetwork, StagingReport,
    StagingService, TransportAnalysis, WireKind, WriterConfig,
};

/// Distinct RBC steps captured during set-up; the producer cycles them.
const CAPTURED: usize = 8;
/// Steps of the traced stream; a measured stream lasts `--seconds`.
const TRACED_STEPS: u64 = 500;
/// Around which step the second consumer joins.
const JOIN_AT: f64 = 60.0;
/// Open-loop producer rate (steps per host second): about half of what a
/// closed loop sustains on a 2-core host.
const RATE: f64 = 125.0;
/// Credits each consumer session opens with.
const CREDITS: u32 = 4;
/// Longest wait for one frame before a session counts as failed.
const FRAME_TIMEOUT: Duration = Duration::from_secs(20);
const ARRAYS: [&str; 3] = ["pressure", "velocity", "temperature"];

/// The step at which the second consumer connects, from the seed: within
/// ±4% of [`JOIN_AT`]. Early enough in the stream that the catch-up stall
/// and the backlog it leaves touch under a quarter of the live frames, so
/// the median frame latency is the steady-state one.
fn join_step(seed: u64) -> u64 {
    shape::band(seed, 3, JOIN_AT, 0.04).round() as u64
}

fn amplitude(seed: u64) -> f64 {
    shape::band(seed, 2, 0.02, 0.1)
}

fn machine() -> MachineModel {
    juwels_derated().0
}

fn inputs_note(seed: u64, steps: u64) -> String {
    format!(
        "inputs: amplitude={:.6} join_step={} steps_per_stream={steps} rate={RATE}/s (open loop) captured_blocks={CAPTURED} consumers=2 credits={CREDITS} session=200x150 pressure slice wire=tcp",
        amplitude(seed),
        join_step(seed)
    )
}

/// `CAPTURED` consecutive RBC steps of one rank, as multiblocks, with the
/// solver iterations and snapshot size of each step.
struct Capture {
    blocks: Vec<MultiBlock>,
    /// (pressure, summed velocity) CG iterations per step.
    iters: Vec<(usize, usize)>,
    publish_bytes: u64,
}

fn capture(seed: u64, tracer: &Tracer, registry: &Registry) -> Capture {
    let mut case = rbc_weak_scaling(4);
    case.init = InitKind::RbcPerturbed {
        amplitude: amplitude(seed),
    };
    let t = tracer.clone();
    let mut out = commsim::with_mode(SchedMode::Thread, || {
        commsim::run_ranks_with_registry(1, machine(), registry.clone(), move |comm| {
            let _root = t.span("bench.rank", "sim", 0);
            let mut solver = {
                let _s = t.span("sem.build", "sim", 0);
                case.build(comm)
            };
            let plane = {
                let _s = t.span("core.geometry", "sim", 0);
                SnapshotPlane::new(comm, &solver)
            };
            let arrays: Vec<String> = ARRAYS.iter().map(|a| a.to_string()).collect();
            let mut blocks = Vec::with_capacity(CAPTURED);
            let mut iters = Vec::new();
            let mut publish_bytes = 0;
            for _ in 0..CAPTURED {
                let rep = {
                    let _s = t.span("sem.step", "sim", 0);
                    solver.step(comm)
                };
                iters.push((
                    rep.pressure.iterations,
                    rep.velocity.iter().map(|v| v.iterations).sum::<usize>(),
                ));
                {
                    let _s = t.span("commsim.wait", "sim", 0);
                    comm.barrier();
                }
                let mut da = {
                    let _s = t.span("core.publish", "sim", 0);
                    plane.publish(comm, &mut solver, &arrays)
                };
                publish_bytes = da.snapshot().staged_bytes();
                blocks.push(common::multiblock(comm, &mut da, &arrays));
            }
            if t.is_enabled() {
                // The layer calls the streamed steps bypass, timed on the
                // captured data.
                let mut pipeline = RenderPipeline::two_image_default("pressure", "velocity");
                (pipeline.width, pipeline.height) = (800, 600);
                let mut analysis = CatalystAnalysis::new(MESH_NAME, pipeline, None);
                for _ in 0..3 {
                    let mut da = plane.publish(comm, &mut solver, &arrays);
                    let _s = t.span("render.frame", "sim", 0);
                    analysis.execute(comm, &mut da).expect("catalyst render");
                }
                common::world_micro(&t, "sim", comm, &solver);
            }
            Capture {
                blocks,
                iters,
                publish_bytes,
            }
        })
    });
    out.remove(0).value
}

/// One consumer session's view of a stream.
#[derive(Default)]
struct Session {
    /// (step, arrival, png bytes) in arrival order.
    frames: Vec<(u64, Instant, usize)>,
    connected: Option<Instant>,
    errors: Vec<String>,
}

fn consume(
    addr: &str,
    spec: &SessionSpec,
    tracer: &Tracer,
    id: usize,
    start_at: Option<Instant>,
) -> Session {
    let mut s = Session::default();
    if let Some(at) = start_at {
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
    }
    s.connected = Some(Instant::now());
    let mut client = match ConsumerClient::connect(addr, spec, CREDITS) {
        Ok(c) => c,
        Err(e) => {
            s.errors.push(format!("session {id} connect: {e}"));
            return s;
        }
    };
    loop {
        let next = {
            let _s = tracer.span("transport.staging.next_frame", "consumer", id);
            client.next_frame(FRAME_TIMEOUT)
        };
        match next {
            Ok(Some(f)) => {
                s.frames.push((f.step, Instant::now(), f.png.len()));
                // The service may already have closed after its last
                // frame; a refused final credit is not a lost frame.
                let _ = client.grant(1);
            }
            Ok(None) => break,
            Err(e) => {
                s.errors.push(format!("session {id} drain: {e}"));
                break;
            }
        }
    }
    s
}

/// What one stream produced.
struct Stream {
    report: StagingReport,
    /// Scheduled publish instant of step k at index k-1.
    scheduled: Vec<Instant>,
    /// Host lateness of each publish against its schedule, seconds.
    lag: Vec<f64>,
    /// Producer data-plane loss events.
    retries: u64,
    early: Session,
    late: Session,
    /// Producer virtual seconds per step.
    producer_virtual: f64,
}

static STREAMS: AtomicUsize = AtomicUsize::new(0);

/// Stream `steps` steps of `blocks` through a fresh staging service.
fn stream(blocks: &[MultiBlock], steps: u64, join: u64, tracer: &Tracer) -> Stream {
    let dir: PathBuf = PathBuf::from(".bench_out").join(format!(
        "staging-{}-{}",
        std::process::id(),
        STREAMS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("park dir");
    let (writers, mut readers) = StagingNetwork::build_wired(
        1,
        1,
        16,
        StagingLink::ucx_hdr200(),
        QueuePolicy::Block,
        FaultPlan::none(),
        WriterConfig::default(),
        WireKind::Tcp,
    )
    .expect("tcp wire");
    let service = StagingService::new(readers.remove(0), 1, &dir, 32);
    let (listener, port) = loopback_listener().expect("consumer port");
    service.listen_consumers(listener);
    let handle = service.handle();
    let addr = format!("127.0.0.1:{port}");
    let spec = SessionSpec::default();

    // The early session is admitted before the first step.
    let early = {
        let (addr, spec, t) = (addr.clone(), spec.clone(), tracer.clone());
        std::thread::spawn(move || consume(&addr, &spec, &t, 0, None))
    };
    while handle.attached() < 1 && !early.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let service = std::thread::spawn(move || {
        commsim::with_mode(SchedMode::Thread, || {
            commsim::run_ranks_with_state(machine(), vec![service], |comm, mut s| {
                s.run(comm).expect("staging service")
            })
        })
    });

    let t0 = Instant::now() + Duration::from_millis(20);
    let period = Duration::from_secs_f64(1.0 / RATE);
    let scheduled: Vec<Instant> = (0..steps).map(|k| t0 + period * k as u32).collect();
    // The late session connects when step `join` is due (a zero-step
    // stream has no late joiner).
    let due = (join as usize)
        .checked_sub(1)
        .and_then(|i| scheduled.get(i));
    let late = due.map(|&at| {
        let (addr, spec, t) = (addr.clone(), spec.clone(), tracer.clone());
        std::thread::spawn(move || consume(&addr, &spec, &t, 1, Some(at)))
    });
    let blocks = blocks.to_vec();
    let sched = scheduled.clone();
    let t = tracer.clone();
    let (lag, retries, producer_clock) = commsim::with_mode(SchedMode::Thread, || {
        commsim::run_ranks_with_state(machine(), writers, move |comm, writer| {
            let arrays: Vec<String> = ARRAYS.iter().map(|a| a.to_string()).collect();
            let mut analysis = TransportAnalysis::new("mesh", arrays, writer);
            let mut lag = Vec::with_capacity(sched.len());
            for (k, due) in sched.iter().enumerate() {
                let step = k as u64 + 1;
                let mb = blocks[k % blocks.len()].clone();
                let mut da = StaticDataAdaptor::new("mesh", mb, step as f64 * 0.01, step);
                comm.external_wait(|| {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()))
                });
                lag.push(Instant::now().saturating_duration_since(*due).as_secs_f64());
                let _s = t.span("transport.write", "producer", 0);
                analysis.execute(comm, &mut da).expect("transport write");
            }
            analysis.finalize(comm).expect("transport finalize");
            (lag, analysis.report().retries, comm.now())
        })
    })
    .remove(0);
    let producer_virtual = producer_clock / steps.max(1) as f64;
    let report = service.join().expect("service thread").remove(0);
    // The consumer listener's accept loop ends at the first hello after
    // the service is gone; send one so no thread outlives the stream.
    drop(ConsumerClient::connect(&addr, &spec, 0));
    let early = early.join().expect("early consumer");
    let late = late
        .map(|h| h.join().expect("late consumer"))
        .unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();
    Stream {
        report,
        scheduled,
        lag,
        retries,
        early,
        late,
        producer_virtual,
    }
}

/// Checks and counts shared by both modes; returns the frames attempted
/// and failed.
fn check_stream(r: &mut Report, s: &Stream, steps: u64) -> (u64, u64) {
    let want: Vec<u64> = (1..=steps).collect();
    let mut failed = 0;
    for (name, sess) in [("early", &s.early), ("late", &s.late)] {
        let got: Vec<u64> = sess.frames.iter().map(|f| f.0).collect();
        r.check(
            got == want,
            format!(
                "{name} session got {} of {steps} steps in order (first mismatch at {:?})",
                got.len(),
                got.iter().zip(&want).position(|(a, b)| a != b)
            ),
        );
        let in_order = got.iter().zip(&want).take_while(|(a, b)| a == b).count() as u64;
        failed += steps - in_order.min(steps);
        for e in &sess.errors {
            r.check(false, e.clone());
        }
    }
    let catchup = s.report.sessions.get(1).map_or(0, |x| x.catchup_steps);
    r.check(
        catchup >= 1,
        format!("late joiner replayed {catchup} parked steps"),
    );
    (2 * steps, failed)
}

/// Per-frame latency (ms from scheduled publish to arrival) of the live
/// frames of both sessions; the late session's catch-up frames are timed
/// by `catchup_s` instead.
fn latencies(s: &Stream) -> Vec<f64> {
    let catchup = s.report.sessions.get(1).map_or(0, |x| x.catchup_steps) as usize;
    let live = |sess: &Session, skip: usize| -> Vec<f64> {
        sess.frames
            .iter()
            .skip(skip)
            .filter_map(|&(step, at, _)| {
                let due = *s.scheduled.get(step as usize - 1)?;
                Some(at.saturating_duration_since(due).as_secs_f64() * 1e3)
            })
            .collect()
    };
    let mut out = live(&s.early, 0);
    out.extend(live(&s.late, catchup));
    out
}

/// Seconds from the late session's connect until it held every parked
/// step the service replayed to it.
fn catchup_s(s: &Stream) -> Option<f64> {
    let n = s.report.sessions.get(1)?.catchup_steps as usize;
    let connected = s.late.connected?;
    let held = s.late.frames.get(n.checked_sub(1)?)?.1;
    Some(held.saturating_duration_since(connected).as_secs_f64())
}

/// End-to-end: zero-step streams for `setup_s` (capture included), then
/// one stream of about `seconds`.
pub fn measure(seed: u64, seconds: Duration) -> Report {
    let mut r = Report::default();
    let none = Tracer::disabled();
    let mut blocks = Vec::new();
    let setup = common::setup_samples(|| {
        let cap = capture(seed, &none, &Registry::new());
        stream(&cap.blocks, 0, 1, &none);
        blocks = cap.blocks;
    });
    // One stream as long as the run: a single catch-up per process, so
    // peak memory is one replay's worth however long the run is.
    let steps = ((RATE * seconds.as_secs_f64()).round() as u64).max(3 * JOIN_AT as u64);
    r.note(inputs_note(seed, steps));
    let s = stream(&blocks, steps, join_step(seed), &none);
    let (attempted, failed) = check_stream(&mut r, &s, steps);
    r.attempted += attempted;
    r.failed += failed;
    let lat = latencies(&s);
    let catchups: Vec<f64> = catchup_s(&s).into_iter().collect();
    let last = s
        .early
        .frames
        .iter()
        .chain(&s.late.frames)
        .map(|f| f.1)
        .max();
    let rates: Vec<f64> = last
        .map(|last| {
            let span = last.saturating_duration_since(s.scheduled[0]).as_secs_f64();
            steps as f64 / span.max(1e-9)
        })
        .into_iter()
        .collect();
    let virt = [s.report.finish_time / s.report.steps.max(1) as f64];
    let lag: Vec<f64> = s.lag.iter().map(|l| l * 1e3).collect();
    r.note_spread("setup_s", &setup);
    r.push_median("setup_s", &setup, "s");
    r.push_median("steps_per_s", &rates, "1/s");
    r.push_median("virtual_step_s", &virt, "s");
    r.push_median("frame_latency_ms.p50", &lat, "ms");
    r.push_quantile("frame_latency_ms.p99", &lat, 0.99, "ms");
    r.note(format!(
        "frame_latency_ms.p99 has {} samples beyond it",
        stats::beyond(&lat, 0.99)
    ));
    r.push_median("catchup_s", &catchups, "s");
    r.push_quantile("bench.gen_lag_ms.p99", &lag, 0.99, "ms");
    r
}

/// Per-layer: one traced capture + stream, plus two untraced ones for
/// the tracing overhead.
pub fn traced(seed: u64) -> Report {
    let mut r = Report::default();
    r.note(inputs_note(seed, TRACED_STEPS));
    let join = join_step(seed);
    let composed = |tracer: &Tracer, registry: &Registry| {
        timed(|| {
            let cap = capture(seed, tracer, registry);
            let s = stream(&cap.blocks, TRACED_STEPS, join, tracer);
            (cap, s)
        })
    };
    let untraced: Vec<f64> = (0..2)
        .map(|_| composed(&Tracer::disabled(), &Registry::new()).0)
        .collect();
    let tracer = Tracer::enabled();
    let registry = Registry::new();
    let (wall, (cap, s)) = composed(&tracer, &registry);
    let Capture {
        blocks,
        iters,
        publish_bytes,
    } = cap;
    let marshal_bytes = common::transport_micro(&tracer, "main", 0, &blocks[0], 1);
    common::spawn_micro(&tracer, &machine(), 2, 5);
    let spans = tracer.spans();

    let (attempted, failed) = check_stream(&mut r, &s, TRACED_STEPS);
    r.attempted = attempted;
    r.failed = failed;

    let n = iters.len().max(1) as f64;
    r.push(
        "sem.pressure_iters",
        iters.iter().map(|i| i.0).sum::<usize>() as f64 / n,
        "count",
        iters.len(),
    );
    r.push(
        "sem.velocity_iters",
        iters.iter().map(|i| i.1).sum::<usize>() as f64 / n,
        "count",
        iters.len(),
    );
    r.push("core.publish_bytes", publish_bytes as f64, "B", 1);
    r.push("transport.marshal_bytes", marshal_bytes as f64, "B", 1);
    r.push("render.images", s.report.cache_misses as f64, "count", 1);
    r.push("transport.retries", s.retries as f64, "count", 1);
    r.push(
        "transport.short_reads",
        s.report.short_reads as f64,
        "count",
        1,
    );
    let lookups = s.report.cache_hits + s.report.cache_misses;
    r.push(
        "transport.staging.cache_hit_rate",
        s.report.cache_hit_rate(),
        "ratio",
        lookups as usize,
    );
    r.note(format!(
        "frame cache: {} hits / {} misses",
        s.report.cache_hits, s.report.cache_misses
    ));
    let catchup = s.report.sessions.get(1).map_or(0, |x| x.catchup_steps);
    r.push(
        "transport.staging.catchup_steps",
        catchup as f64,
        "count",
        1,
    );
    let sizes: Vec<f64> = s
        .early
        .frames
        .iter()
        .chain(&s.late.frames)
        .map(|f| f.2 as f64)
        .collect();
    r.push_median("transport.staging.frame_bytes", &sizes, "B");
    let lag: Vec<f64> = s.lag.iter().map(|l| l * 1e3).collect();
    r.push_quantile("bench.gen_lag_ms.p99", &lag, 0.99, "ms");
    r.note(format!(
        "producer virtual_step_s {:.6e} s; service {:.6e} s",
        s.producer_virtual,
        s.report.finish_time / s.report.steps.max(1) as f64
    ));

    common::push_memtrack(&mut r, &registry);
    common::push_span_metrics(&mut r, &spans, "sim", wall, median(&untraced));
    match common::write_spans("staging_fanout", seed, &spans) {
        Ok(path) => r.note(format!("spans written to {path}")),
        Err(e) => r.check(false, format!("writing spans: {e}")),
    }
    r
}
