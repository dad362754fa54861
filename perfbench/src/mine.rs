//! Mining jobs and the `mine-dense` / `mine-wide` workloads.
//!
//! One job mines every class of the dataset at `threads` workers. Its
//! output is checked byte for byte against a sequential mine of the
//! same inputs, made before the timed region.

use crate::data;
use crate::report::{self, RunResult};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::{layers, Opts, Spec};
use farmer_core::trace::{self, EventKind, TraceReport};
use farmer_core::RuleGroup;
use farmer_core::{canonical_sort, dump_groups, Farmer, MineControl, MiningParams, NoOpObserver};
use farmer_dataset::Dataset;
use std::time::Instant;

/// Mines every class of `data` with lower bounds on (the default) and
/// returns the groups in canonical order.
pub fn mine_all(data: &Dataset, min_sup: usize, threads: usize) -> Vec<RuleGroup> {
    mine_all_timed(data, min_sup, threads).0
}

/// [`mine_all`], also returning each class's mining time in seconds.
pub fn mine_all_timed(
    data: &Dataset,
    min_sup: usize,
    threads: usize,
) -> (Vec<RuleGroup>, Vec<f64>) {
    let mut groups = Vec::new();
    let mut secs = Vec::new();
    for class in 0..data.n_classes() as u32 {
        let t = Instant::now();
        groups.extend(miner(class, min_sup, threads).mine(data).groups);
        secs.push(t.elapsed().as_secs_f64());
    }
    canonical_sort(&mut groups);
    (groups, secs)
}

/// Per-class medians of per-class times, one inner vector per job.
pub fn class_medians(jobs: &[Vec<f64>]) -> Vec<f64> {
    let n = jobs.first().map_or(0, Vec::len);
    (0..n)
        .map(|c| median(&jobs.iter().map(|j| j[c]).collect::<Vec<_>>()))
        .collect()
}

fn miner(class: u32, min_sup: usize, threads: usize) -> Farmer {
    Farmer::new(MiningParams::new(class).min_sup(min_sup)).with_parallelism(threads)
}

/// What the miner's own tracer and result counters say about one
/// session (or, summed, one job).
#[derive(Clone, Debug, Default)]
pub struct CoreLayer {
    /// Wall time of `mine_session_traced`, from the benchmark's span.
    pub session_s: f64,
    /// `transpose` span.
    pub transpose_s: f64,
    /// `enumerate` spans summed over lanes.
    pub enumerate_busy_s: f64,
    /// lanes × longest lane's `enumerate` − busy.
    pub lane_idle_s: f64,
    /// `merge` span.
    pub merge_s: f64,
    /// `lower_bounds` span.
    pub lower_bounds_s: f64,
    /// `lower_bound` histogram count.
    pub minelb_calls: u64,
    /// `MineStats::nodes_visited`.
    pub nodes: u64,
    /// Interesting rule groups returned.
    pub groups: u64,
    /// Groups plus `rejected_not_interesting`: every threshold-passing
    /// group the interestingness test saw.
    pub deferred_groups: u64,
    /// `SchedStats::steals`.
    pub steals: u64,
    /// `fused_scan` histogram count.
    pub fused_scans: u64,
    /// `fused_scan` histogram sum, s.
    pub fused_scan_s: f64,
    /// Trace events dropped by full rings (should be 0).
    pub dropped_events: u64,
}

impl CoreLayer {
    fn add(&mut self, o: &CoreLayer) {
        self.session_s += o.session_s;
        self.transpose_s += o.transpose_s;
        self.enumerate_busy_s += o.enumerate_busy_s;
        self.lane_idle_s += o.lane_idle_s;
        self.merge_s += o.merge_s;
        self.lower_bounds_s += o.lower_bounds_s;
        self.minelb_calls += o.minelb_calls;
        self.nodes += o.nodes;
        self.groups += o.groups;
        self.deferred_groups += o.deferred_groups;
        self.steals += o.steals;
        self.fused_scans += o.fused_scans;
        self.fused_scan_s += o.fused_scan_s;
        self.dropped_events += o.dropped_events;
    }

    /// (merge + lower_bounds) / session.
    pub fn serial_tail_share(&self) -> f64 {
        (self.merge_s + self.lower_bounds_s) / self.session_s
    }

    fn from_report(r: &TraceReport) -> CoreLayer {
        let totals = r.span_totals();
        let secs = |id: trace::SpanId| totals[id.0 as usize].total_ns as f64 / 1e9;
        // per-lane enumerate time: pair begin/end on each lane
        let mut open = vec![0u64; r.n_lanes()];
        let mut lane_ns = vec![0u64; r.n_lanes()];
        for e in r
            .events
            .iter()
            .filter(|e| e.span == trace::SPAN_ENUMERATE.0)
        {
            match e.kind {
                EventKind::Begin => open[e.lane] = e.t_ns,
                EventKind::End => lane_ns[e.lane] += e.t_ns.saturating_sub(open[e.lane]),
                _ => {}
            }
        }
        let used: Vec<u64> = lane_ns.into_iter().filter(|&ns| ns > 0).collect();
        let busy: u64 = used.iter().sum();
        let longest = used.iter().copied().max().unwrap_or(0);
        let hist = |id: trace::HistId| &r.hists[id.0 as usize];
        CoreLayer {
            transpose_s: secs(trace::SPAN_TRANSPOSE),
            enumerate_busy_s: busy as f64 / 1e9,
            lane_idle_s: (used.len() as u64 * longest - busy) as f64 / 1e9,
            merge_s: secs(trace::SPAN_MERGE),
            lower_bounds_s: secs(trace::SPAN_LOWER_BOUNDS),
            minelb_calls: hist(trace::HIST_LOWER_BOUND).count(),
            fused_scans: hist(trace::HIST_FUSED_SCAN).count(),
            fused_scan_s: hist(trace::HIST_FUSED_SCAN).sum() as f64 / 1e9,
            dropped_events: r.dropped_total(),
            ..CoreLayer::default()
        }
    }
}

/// [`mine_all`] with the miner's tracer on: one
/// `Farmer::mine_session_traced` per class, each inside a benchmark span
/// `core.mine_session` under `parent`. Returns the canonical groups, the
/// job totals, and the per-class breakdown.
pub fn mine_all_traced(
    data: &Dataset,
    min_sup: usize,
    threads: usize,
    spans: &Spans,
    parent: u64,
    job: u64,
) -> (Vec<RuleGroup>, CoreLayer, Vec<CoreLayer>) {
    let mut groups = Vec::new();
    let mut total = CoreLayer::default();
    let mut per_class = Vec::new();
    for class in 0..data.n_classes() as u32 {
        let tracer = trace::mining_tracer(threads);
        let farmer = miner(class, min_sup, threads);
        let (result, session_s) = spans.time("core.mine_session", parent, job, |_| {
            farmer.mine_session_traced(data, &MineControl::new(), &mut NoOpObserver, &tracer)
        });
        let mut layer = CoreLayer::from_report(&tracer.drain());
        layer.session_s = session_s;
        layer.nodes = result.stats.nodes_visited;
        layer.groups = result.groups.len() as u64;
        layer.deferred_groups = layer.groups + result.stats.rejected_not_interesting;
        layer.steals = result.sched.steals;
        total.add(&layer);
        per_class.push(layer);
        groups.extend(result.groups);
    }
    canonical_sort(&mut groups);
    (groups, total, per_class)
}

/// Runs the traced profile of one job and records every `core.*`,
/// `rowset.*` and `trace.overhead` metric. `t1_s` and `untraced_s` are
/// the untraced per-class times at one thread and at `threads`. Returns
/// the traced job's groups.
pub fn core_profile(
    res: &mut RunResult,
    data: &Dataset,
    min_sup: usize,
    threads: usize,
    spans: &Spans,
    class_t1_s: &[f64],
    class_untraced_s: &[f64],
) -> Vec<RuleGroup> {
    let t1_s: f64 = class_t1_s.iter().sum();
    let untraced_s: f64 = class_untraced_s.iter().sum();
    let ((groups, core, per_class), traced_s) = spans.time("job.traced", 0, 1, |id| {
        mine_all_traced(data, min_sup, threads, spans, id, 1)
    });
    if core.dropped_events > 0 {
        res.line(format!(
            "warning: the miner's trace rings dropped {} events; span totals undercount",
            core.dropped_events
        ));
    }
    for (class, c) in per_class.iter().enumerate() {
        res.line(format!(
            "class {class}: session {:.3} s, enumerate busy {:.3} s (idle {:.3} s), merge {:.3} s, \
             lower_bounds {:.3} s, serial tail share {:.3}, groups {}, deferred {}, nodes {}, \
             steals {}, untraced t=1 {:.3} s / t={threads} {:.3} s = scaling {:.3}",
            c.session_s,
            c.enumerate_busy_s,
            c.lane_idle_s,
            c.merge_s,
            c.lower_bounds_s,
            c.serial_tail_share(),
            c.groups,
            c.deferred_groups,
            c.nodes,
            c.steals,
            class_t1_s[class],
            class_untraced_s[class],
            class_t1_s[class] / class_untraced_s[class]
        ));
    }
    let note = format!("traced job, {} classes, t={threads}", per_class.len());
    res.put("core.transpose_s", "s", core.transpose_s, note.clone());
    res.put(
        "core.enumerate_busy_s",
        "s",
        core.enumerate_busy_s,
        note.clone(),
    );
    res.put("core.lane_idle_s", "s", core.lane_idle_s, note.clone());
    res.put("core.merge_s", "s", core.merge_s, note.clone());
    res.put(
        "core.lower_bounds_s",
        "s",
        core.lower_bounds_s,
        note.clone(),
    );
    res.put(
        "minelb.calls",
        "count",
        core.minelb_calls as f64,
        note.clone(),
    );
    res.put(
        "core.serial_tail_share",
        "ratio",
        core.serial_tail_share(),
        note.clone(),
    );
    res.put("core.nodes", "count", core.nodes as f64, note.clone());
    res.put("core.groups", "count", core.groups as f64, note.clone());
    res.put(
        "core.nodes_per_s",
        "1/s",
        core.nodes as f64 / core.enumerate_busy_s,
        "nodes / enumerate busy time",
    );
    res.put(
        "core.deferred_groups",
        "count",
        core.deferred_groups as f64,
        note.clone(),
    );
    res.put(
        "core.interesting_ratio",
        "ratio",
        core.groups as f64 / core.deferred_groups as f64,
        "groups / deferred groups",
    );
    res.put("core.steals", "count", core.steals as f64, note.clone());
    res.put(
        "core.scaling_vs_t1",
        "ratio",
        t1_s / untraced_s,
        format!("untraced job t=1 {t1_s:.3} s / t={threads} {untraced_s:.3} s"),
    );
    res.put(
        "rowset.fused_scans",
        "count",
        core.fused_scans as f64,
        note.clone(),
    );
    res.put("rowset.fused_scan_s", "s", core.fused_scan_s, note);
    res.put(
        "trace.overhead",
        "ratio",
        traced_s / untraced_s - 1.0,
        format!("traced job {traced_s:.3} s / untraced {untraced_s:.3} s - 1"),
    );
    groups
}

/// Share of a mining run's time spent repeating the set-up between
/// jobs. The host's speed drifts over seconds, so set-ups spread over
/// the whole run give a steadier median than a burst at its start.
const SETUP_SHARE: f64 = 0.1;

/// Set-up repetition times of a mining run, one entry per repetition.
#[derive(Default)]
struct SetUps {
    setup_s: Vec<f64>,
    synth_s: Vec<f64>,
    discretize_s: Vec<f64>,
}

impl SetUps {
    /// One synth → discretize repetition. Its set-up time is the two
    /// program calls, without the gene shuffle between them.
    fn rep(&mut self, spec: &Spec, opts: &Opts, spans: &Spans) -> Dataset {
        let rep = self.setup_s.len() as u64;
        let (built, _) = spans.time("setup", 0, rep, |id| {
            data::build(&spec.data, Some(opts.seed), spans, id)
        });
        self.setup_s.push(built.synth_s + built.discretize_s);
        self.synth_s.push(built.synth_s);
        self.discretize_s.push(built.discretize_s);
        built.data
    }

    /// Repeats the set-up until the repetitions add up to
    /// [`SETUP_SHARE`] of the run so far, at most
    /// [`crate::MAX_SETUP_REPS`] repetitions in all.
    fn top_up(&mut self, spec: &Spec, opts: &Opts, spans: &Spans, started: Instant) {
        let due = SETUP_SHARE * started.elapsed().as_secs_f64();
        while self.setup_s.iter().sum::<f64>() < due && self.setup_s.len() < crate::MAX_SETUP_REPS {
            self.rep(spec, opts, spans);
        }
    }
}

/// Runs a mining workload.
pub fn run(spec: &Spec, opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let spans = Spans::new(opts.trace);
    let (threads, min_sup) = (opts.threads, spec.min_sup);

    // Set-up: synth → discretize, the warm-up and SETUP_REPS times
    // before the jobs, then topped up between them.
    let started = Instant::now();
    let mut setups = SetUps::default();
    let mut data = None;
    while setups.setup_s.len() <= crate::SETUP_REPS {
        data = Some(setups.rep(spec, opts, &spans));
    }
    let data = data.expect("at least one set-up repetition");
    res.line(format!(
        "dataset: {} rows x {} items, {} classes, min_sup {min_sup}, t={threads}",
        data.n_rows(),
        data.n_items(),
        data.n_classes()
    ));

    // Reference: a sequential mine of the same inputs, outside the
    // timed region. Its time is the t=1 job time.
    let (reference, class_t1_s) = mine_all_timed(&data, min_sup, 1);
    let reference = dump_groups(&reference);
    let t1_s: f64 = class_t1_s.iter().sum();
    setups.top_up(spec, opts, &spans, started);

    // Timed jobs: at least one, and another only while it is expected
    // to end within `seconds`. A traced run times one untraced job and
    // then profiles one traced job.
    let mut job_s: Vec<f64> = Vec::new();
    let mut class_s = Vec::new();
    // Peak RSS through the first job. A later job can peak higher only
    // because glibc raised its mmap threshold while earlier jobs freed
    // large blocks (mine-wide: 75 MiB after one job, 95-101 MiB after
    // two), so the whole run's peak would depend on how many jobs the
    // host's speed fits in the run.
    let mut first_job_peak = None;
    let started = Instant::now();
    let more = |done: &[f64]| {
        done.is_empty()
            || !opts.trace && started.elapsed().as_secs_f64() + median(done) <= opts.seconds
    };
    while more(&job_s) {
        let t = Instant::now();
        let (groups, per_class) = mine_all_timed(&data, min_sup, threads);
        job_s.push(t.elapsed().as_secs_f64());
        class_s.push(per_class);
        if first_job_peak.is_none() {
            first_job_peak = report::peak_rss_mib();
        }
        res.check(
            dump_groups(&groups) == reference,
            "mined groups differ from the t=1 mine",
        );
        setups.top_up(spec, opts, &spans, started);
    }
    let SetUps {
        setup_s,
        synth_s,
        discretize_s,
    } = setups;
    let mine_s = median(&job_s);
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    let job_tail = tail(&job_ms);
    res.line(format!(
        "jobs: {} timed, t=1 reference job {t1_s:.3} s",
        job_s.len()
    ));
    let in_order: Vec<String> = job_ms.iter().map(|ms| format!("{ms:.0}")).collect();
    res.line(format!("job times, ms, in order: {}", in_order.join(" ")));

    if opts.trace {
        res.put(
            "dataset.synth_s",
            "s",
            crate::setup_median(&synth_s),
            "median of set-up runs",
        );
        res.put(
            "dataset.discretize_s",
            "s",
            crate::setup_median(&discretize_s),
            "median of set-up runs",
        );
        let untraced = class_medians(&class_s);
        let groups = core_profile(
            &mut res,
            &data,
            min_sup,
            threads,
            &spans,
            &class_t1_s,
            &untraced,
        );
        res.check(
            dump_groups(&groups) == reference,
            "traced groups differ from the t=1 mine",
        );
        layers::sweep(&mut res, &data, min_sup, &groups, opts, &spans, true);
    } else {
        let n = job_s.len();
        res.put(
            "setup_s",
            "s",
            crate::setup_median(&setup_s),
            format!("median of {} set-ups after a warm-up", setup_s.len() - 1),
        );
        res.put("mine_s", "s", mine_s, format!("median of {n} jobs"));
        res.put(
            "op_p50_ms",
            "ms",
            median(&job_ms),
            format!("one job, median of {n}"),
        );
        res.put(
            "op_tail_ms",
            "ms",
            job_tail.value,
            format!("one job, {} of {n}", job_tail.label),
        );
    }
    crate::finish(
        &mut res,
        opts,
        &spans,
        first_job_peak.map(|mib| (mib, "VmHWM after the first timed job")),
    );
    res
}
