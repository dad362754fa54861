//! The `serve-read` and `serve-ingest` workloads: an artifact of the
//! ALL analog served over loopback HTTP by the in-process server, under
//! open-loop classify load, with or without rows ingested beside it.

use crate::data;
use crate::layers::{self, classify_checked, classify_path, Served};
use crate::mine::{class_medians, core_profile, mine_all, mine_all_timed};
use crate::openloop::{self, Summary};
use crate::report::RunResult;
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::{Opts, Spec};
use farmer_core::{canonical_sort, dump_groups};
use farmer_dataset::Dataset;
use farmer_serve::ServeConfig;
use rowset::IdList;
use std::time::{Duration, Instant};

/// Offered classify rates (req/s) of serve-read's ladder, lowest first.
/// The first is the reference rate. It is low enough that a request
/// rarely queues behind another even when the host runs slow: at
/// 200 req/s a slower spell of the host doubled the median.
const LADDER: [f64; 10] = [
    100.0, 200.0, 300.0, 450.0, 675.0, 1000.0, 1500.0, 2250.0, 3375.0, 5000.0,
];

/// Share of a serve-read run spent warming up at the reference rate,
/// not measured.
const WARMUP_SHARE: f64 = 0.1;

/// Share of a serve-read run measured at the reference rate before the
/// other rungs, which split what is left. The reference rate also takes
/// whatever time the ladder leaves at the end of the run.
const REFERENCE_SHARE: f64 = 0.3;

/// A rung passes when its tail is at most this, no request failed, and
/// the generator kept up.
const TAIL_LIMIT_MS: f64 = 10.0;

/// Offered classify rate beside ingest (req/s), below serve-read's
/// reference rate.
const READ_RATE: f64 = 50.0;

/// Rows ingested per serve-ingest round. Every round starts again from
/// the base artifact with a fresh daemon, so the dataset's growth, and
/// so each remine's cost, is the same whatever the run length.
const ROUND_INGESTS: usize = 10;

/// Seconds one serve-ingest round takes: a run of `--seconds` has
/// `seconds / ROUND_S` rounds (at least one), their ingests spread
/// evenly over it.
const ROUND_S: f64 = 5.0;

/// Seed-drawn samples the classify load cycles through.
const SAMPLE_POOL: usize = 256;

/// The served artifact and everything set-up produced. Fields drop in
/// order: the daemon before the server it notifies.
struct Setup {
    daemon: Option<layers::Daemon>,
    served: Served,
    data: Dataset,
    setup_s: Vec<f64>,
    synth_s: Vec<f64>,
    discretize_s: Vec<f64>,
    /// Per-class mining times of each set-up's mine.
    mine_s: Vec<Vec<f64>>,
    /// Per-class times of the sequential reference mine.
    t1_s: Vec<f64>,
    /// `dump_groups` of a sequential mine of the base dataset.
    reference: String,
}

/// synth → discretize → mine → save → load → bind → first classify
/// answered (→ remine daemon started, with `daemon`), once as a warm-up
/// and [`crate::SERVE_SETUP_REPS`] times more; the last repetition keeps
/// serving. Every repetition's mined groups are checked against a
/// sequential mine.
fn setup(spec: &Spec, opts: &Opts, spans: &Spans, res: &mut RunResult, daemon: bool) -> Setup {
    let (mut setup_s, mut synth_s, mut discretize_s, mut mine_s) = (vec![], vec![], vec![], vec![]);
    let mut dumps = Vec::new();
    // (daemon, server, data) of the latest repetition; the daemon is
    // dropped first because it notifies the server
    let mut last = None;
    while setup_s.len() <= crate::SERVE_SETUP_REPS {
        let rep = setup_s.len();
        drop(last.take());
        let ((d, served, data, mine), secs) = spans.time("setup", 0, rep as u64, |id| {
            let built = data::build(&spec.data, None, spans, id);
            synth_s.push(built.synth_s);
            discretize_s.push(built.discretize_s);
            let ((groups, mine), _) = spans.time("core.mine", id, 0, |_| {
                mine_all_timed(&built.data, spec.min_sup, opts.threads)
            });
            let path = opts.work_dir.join(format!("served-{rep}.fgi"));
            let served = layers::serve_groups(
                &built.data,
                &groups,
                &path,
                &ServeConfig::default(),
                built.data.row(0),
                spans,
                id,
            );
            dumps.push(dump_groups(&groups));
            let d = daemon.then(|| {
                let journal = opts.work_dir.join(format!("journal-{rep}.fgd"));
                layers::start_daemon(
                    &built.data,
                    spec.min_sup,
                    opts.threads,
                    &served,
                    &journal,
                    spans,
                    id,
                )
            });
            (d, served, built.data, mine)
        });
        setup_s.push(secs);
        mine_s.push(mine);
        last = Some((d, served, data));
    }
    let (daemon, served, data) = last.expect("at least one set-up repetition");
    let (reference, t1_s) = mine_all_timed(&data, spec.min_sup, 1);
    let reference = dump_groups(&reference);
    for d in &dumps {
        res.check(*d == reference, "artifact groups differ from the t=1 mine");
    }
    res.line(format!(
        "artifact: {} rows x {} items, min_sup {}, {} groups, t={}; {} set-ups, peak RSS so far \
         {:.1} MiB",
        data.n_rows(),
        data.n_items(),
        spec.min_sup,
        served.handle.current().groups().len(),
        opts.threads,
        setup_s.len(),
        crate::report::peak_rss_mib().unwrap_or(f64::NAN)
    ));
    Setup {
        daemon,
        served,
        data,
        setup_s,
        synth_s,
        discretize_s,
        mine_s,
        t1_s,
        reference,
    }
}

/// Puts the artifact at `base` back in place of the served one and
/// reloads it.
fn reset_to(served: &Served, base: &std::path::Path) {
    let tmp = served.path.with_extension("reset");
    std::fs::copy(base, &tmp).expect("copying the base artifact");
    std::fs::rename(&tmp, &served.path).expect("replacing the served artifact");
    served.handle.reload().expect("reloading the base artifact");
}

fn samples(data: &Dataset, opts: &Opts) -> (Vec<IdList>, Vec<String>) {
    let samples = layers::draw_samples(data, opts.seed, SAMPLE_POOL);
    let paths = samples.iter().map(|s| classify_path(data, s)).collect();
    (samples, paths)
}

/// Open-loop classify load at `rate` for `secs`, every answer checked.
fn classify_load(
    served: &Served,
    samples: &[IdList],
    paths: &[String],
    rate: f64,
    secs: f64,
    clients: usize,
    spans: &Spans,
) -> Summary {
    openloop::summarize(&classify_samples(
        served, samples, paths, rate, secs, clients, spans,
    ))
}

/// [`classify_load`], returning each request's timings.
fn classify_samples(
    served: &Served,
    samples: &[IdList],
    paths: &[String],
    rate: f64,
    secs: f64,
    clients: usize,
    spans: &Spans,
) -> Vec<openloop::Sample> {
    let n = samples.len();
    openloop::run(rate, Duration::from_secs_f64(secs), clients, |i| {
        spans
            .time("serve.http_classify", 0, i as u64, |_| {
                classify_checked(served, &paths[i % n], &samples[i % n])
            })
            .0
    })
}

fn count(res: &mut RunResult, s: &Summary, what: &str) {
    res.attempted += s.sent as u64;
    res.failed += s.failed as u64;
    if s.failed > 0 {
        res.line(format!(
            "CHECK FAILED: {what}: {} of {} requests failed ({} shed, {} wrong answers)",
            s.failed, s.sent, s.shed, s.wrong
        ));
    }
}

fn put_setup(res: &mut RunResult, s: &Setup) {
    res.put(
        "setup_s",
        "s",
        crate::setup_median(&s.setup_s),
        format!("median of {} set-ups after a warm-up", s.setup_s.len() - 1),
    );
}

fn put_core_and_store(
    res: &mut RunResult,
    spec: &Spec,
    s: &Setup,
    opts: &Opts,
    spans: &Spans,
    samples: &[IdList],
) -> f64 {
    res.put(
        "dataset.synth_s",
        "s",
        crate::setup_median(&s.synth_s),
        "median of set-up runs",
    );
    res.put(
        "dataset.discretize_s",
        "s",
        crate::setup_median(&s.discretize_s),
        "median of set-up runs",
    );
    let groups = core_profile(
        res,
        &s.data,
        spec.min_sup,
        opts.threads,
        spans,
        &s.t1_s,
        &class_medians(&s.mine_s),
    );
    res.check(
        dump_groups(&groups) == s.reference,
        "traced groups differ from the t=1 mine",
    );
    layers::store_and_index_layers(res, &s.served, samples, spans)
}

/// `serve-read`: a latency ladder of open-loop classify load.
pub fn run_read(spec: &Spec, opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let spans = Spans::new(opts.trace);
    let s = setup(spec, opts, &spans, &mut res, false);
    let (samples, paths) = samples(&s.data, opts);
    let clients = opts.threads;
    let started = Instant::now();
    let reference_secs = opts.seconds * REFERENCE_SHARE;
    let rung_secs =
        opts.seconds * (1.0 - REFERENCE_SHARE - WARMUP_SHARE) / (LADDER.len() - 1) as f64;
    let warmup = classify_load(
        &s.served,
        &samples,
        &paths,
        LADDER[0],
        opts.seconds * WARMUP_SHARE,
        clients,
        &Spans::new(false),
    );
    count(&mut res, &warmup, "warm-up classify");

    let mut reference = None;
    let mut best_rate = None;
    // A traced run measures the reference rate only.
    let rungs = if opts.trace { 1 } else { LADDER.len() };
    for (i, &rate) in LADDER.iter().take(rungs).enumerate() {
        let secs = if i == 0 { reference_secs } else { rung_secs };
        let raw = classify_samples(&s.served, &samples, &paths, rate, secs, clients, &spans);
        let sum = openloop::summarize(&raw);
        count(&mut res, &sum, &format!("classify at {rate} req/s"));
        let t = tail(&sum.latencies_ms);
        let pass = t.value <= TAIL_LIMIT_MS
            && sum.failed == 0
            && sum.late_quarter_lateness_ms <= TAIL_LIMIT_MS;
        res.line(format!(
            "rung {rate} req/s: {} sent, p50 {:.3} ms, {} {:.3} ms, generator late p50 {:.3} ms \
             (last quarter {:.3} ms), {} failed -> {}",
            sum.sent,
            median(&sum.latencies_ms),
            t.label,
            t.value,
            sum.lateness_p50_ms,
            sum.late_quarter_lateness_ms,
            sum.failed,
            if pass { "meets" } else { "misses" }
        ));
        if pass {
            best_rate = Some(rate);
        }
        if i == 0 {
            reference = Some(raw);
        }
        if !pass {
            break;
        }
    }
    // The reference rate also takes what the ladder left of the run, so
    // its figures cover the run's end as well as its start: the host's
    // speed drifts over seconds.
    let mut reference = reference.expect("the reference rung always runs");
    let left = opts.seconds - started.elapsed().as_secs_f64();
    if left > 0.0 {
        let more = classify_samples(
            &s.served, &samples, &paths, LADDER[0], left, clients, &spans,
        );
        count(
            &mut res,
            &openloop::summarize(&more),
            "classify at the reference rate, closing",
        );
        reference.extend(more);
    }
    let reference = openloop::summarize(&reference);
    let ref_rate = LADDER[0];
    let p50 = median(&reference.latencies_ms);
    let t = tail(&reference.latencies_ms);
    let note = format!(
        "at {ref_rate} req/s, from due time, {} requests",
        reference.sent
    );
    if opts.trace {
        let match_us = put_core_and_store(&mut res, spec, &s, opts, &spans, &samples);
        layers::http_layers(&mut res, p50, match_us, &s.served, reference.shed, &note);
        let groups = s.served.handle.current().groups().to_vec();
        layers::sweep(
            &mut res,
            &s.data,
            spec.min_sup,
            &groups,
            opts,
            &spans,
            false,
        );
    } else {
        put_setup(&mut res, &s);
        res.put("op_p50_ms", "ms", p50, format!("classify {note}"));
        res.put(
            "op_tail_ms",
            "ms",
            t.value,
            format!("classify {}, {note}", t.label),
        );
        res.put("classify_p50_ms", "ms", p50, note.clone());
        res.put(
            "classify_tail_ms",
            "ms",
            t.value,
            format!("{}, {note}", t.label),
        );
        res.put(
            "classify_rps",
            "req/s",
            best_rate.unwrap_or(0.0),
            format!(
                "highest rung of {:?} with tail <= {} ms, no failure, no backlog (0: none)",
                LADDER, TAIL_LIMIT_MS
            ),
        );
        res.put(
            "generator_lateness_ms",
            "ms",
            reference.lateness_p50_ms,
            "median send delay at the reference rate",
        );
    }
    crate::finish(&mut res, opts, &spans, None);
    res
}

/// `serve-ingest`: rows ingested on a fixed schedule while open-loop
/// classify reads continue. The ingests come in rounds of
/// [`ROUND_INGESTS`]; each round after the first puts the base artifact
/// back and starts a fresh daemon.
pub fn run_ingest(spec: &Spec, opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let spans = Spans::new(opts.trace);
    let mut s = setup(spec, opts, &spans, &mut res, true);
    let mut daemon = s.daemon.take();
    let (samples, paths) = samples(&s.data, opts);
    let rounds = ((opts.seconds / ROUND_S).round() as usize).max(1);
    let rows = layers::draw_ingest_rows(&s.data, opts.seed, rounds * ROUND_INGESTS);
    let every = Duration::from_secs_f64(opts.seconds / rows.len() as f64);
    let readers = opts.threads.saturating_sub(1).max(1);
    let base = opts.work_dir.join("base.fgi");
    std::fs::copy(&s.served.path, &base).expect("keeping the base artifact");

    // per round: the rows it ingested and the served groups at its end
    let mut ingested = Vec::new();
    let mut run = layers::IngestRun::default();
    let mut remines = 0;
    let reads = std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            classify_load(
                &s.served,
                &samples,
                &paths,
                READ_RATE,
                opts.seconds,
                readers,
                &spans,
            )
        });
        for (r, chunk) in rows.chunks(ROUND_INGESTS).enumerate() {
            if r > 0 {
                // the old daemon's heap goes back to the OS, so the new
                // one's does not add to peak_rss_mb
                drop(daemon.take());
                crate::report::trim_heap();
                reset_to(&s.served, &base);
                let journal = opts.work_dir.join(format!("round-{r}.fgd"));
                daemon = Some(layers::start_daemon(
                    &s.data,
                    spec.min_sup,
                    opts.threads,
                    &s.served,
                    &journal,
                    &spans,
                    0,
                ));
            }
            let d = daemon.as_ref().expect("a daemon runs every round");
            let round = layers::ingest_schedule(d, &s.served, chunk, every, &spans);
            remines += layers::remines(d);
            let mut served = s.served.handle.current().groups().to_vec();
            canonical_sort(&mut served);
            ingested.push((&chunk[..round.ingested], dump_groups(&served)));
            run.append(round);
        }
        reads.join().expect("classify reader panicked")
    });
    drop(daemon);
    run.record_checks(&mut res);
    count(&mut res, &reads, "classify beside ingest");

    // The served groups must equal a cold mine of base + ingested rows.
    for (rows, served) in &ingested {
        let merged = s
            .data
            .appended(rows)
            .expect("ingested rows fit the base dictionary");
        res.check(
            *served == dump_groups(&mine_all(&merged, spec.min_sup, 1)),
            "served groups differ from a cold mine of base + ingested rows",
        );
    }
    res.line(format!(
        "ingested {} rows every {:.0} ms in {} rounds ({} remines), {} reads at {} req/s",
        run.ingested,
        every.as_secs_f64() * 1e3,
        ingested.len(),
        remines,
        reads.sent,
        READ_RATE
    ));

    let vis = &run.visible_ms;
    let vis_tail = tail(vis);
    let vis_note = format!("{} ingests, debounce {} ms", vis.len(), layers::DEBOUNCE_MS);
    let read_p50 = median(&reads.latencies_ms);
    let read_tail = tail(&reads.latencies_ms);
    let read_note = format!(
        "at {} req/s beside ingest, {} requests",
        READ_RATE, reads.sent
    );
    if opts.trace {
        // the store metrics measure the base artifact, as set-up saved it
        reset_to(&s.served, &base);
        let match_us = put_core_and_store(&mut res, spec, &s, opts, &spans, &samples);
        layers::http_layers(
            &mut res, read_p50, match_us, &s.served, reads.shed, &read_note,
        );
        let mut r = layers::Replay::default();
        for (k, (rows, _)) in ingested.iter().enumerate() {
            r.append(layers::replay(
                &s.data,
                spec.min_sup,
                opts.threads,
                rows,
                &opts.work_dir.join(format!("replay-{k}.fgi")),
                &spans,
            ));
        }
        layers::pipeline_layers(&mut res, median(vis), remines, run.ingested, &r);
    } else {
        put_setup(&mut res, &s);
        res.put(
            "op_p50_ms",
            "ms",
            median(vis),
            format!("ingest→visible, {vis_note}"),
        );
        res.put(
            "op_tail_ms",
            "ms",
            vis_tail.value,
            format!("ingest→visible {}, {vis_note}", vis_tail.label),
        );
        res.put("ingest_visible_ms", "ms", median(vis), vis_note.clone());
        res.put(
            "ingest_visible_tail_ms",
            "ms",
            vis_tail.value,
            format!("{}, {vis_note}", vis_tail.label),
        );
        res.put("classify_p50_ms", "ms", read_p50, read_note.clone());
        res.put(
            "classify_tail_ms",
            "ms",
            read_tail.value,
            format!("{}, {read_note}", read_tail.label),
        );
    }
    crate::finish(&mut res, opts, &spans, None);
    res
}
