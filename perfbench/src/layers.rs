//! Store, serve and pipeline building blocks shared by the workloads,
//! and the layer sweep a traced run uses to measure the layers its own
//! workload does not exercise.

use crate::http::Client;
use crate::openloop::Outcome;
use crate::report::RunResult;
use crate::spans::Spans;
use crate::stats::median;
use crate::Opts;
use farmer_core::{Engine, MiningParams, RuleGroup};
use farmer_dataset::{ClassLabel, Dataset};
use farmer_pipeline::{IncrementalMiner, Notify, Pipeline, PipelineConfig, PipelineHandle};
use farmer_serve::{
    ArtifactHandle, IngestHook, Prediction, ServeConfig, ServerHandle, ShardedIndex,
};
use farmer_store::{publish_artifact, save_artifact, Artifact, ArtifactMeta, VERSION};
use farmer_support::json::Json;
use rowset::IdList;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probability that a drawn sample row moves a gene to a neighbouring
/// bucket.
const FLIP: f64 = 0.1;

/// Debounce window of the remine daemon.
pub const DEBOUNCE_MS: u64 = 10;

/// How long an ingested row may take to become visible before it
/// counts as lost.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(60);

/// Closed-loop requests the layer sweep sends.
const SWEEP_REQUESTS: usize = 200;

/// Rows the layer sweep ingests, one at a time.
const SWEEP_INGESTS: usize = 3;

/// Seed-drawn classify samples: the items of `n` neighbour rows.
pub fn draw_samples(data: &Dataset, seed: u64, n: usize) -> Vec<IdList> {
    crate::data::neighbour_rows(data, seed, n, FLIP)
        .into_iter()
        .map(|(items, _)| items)
        .collect()
}

/// Seed-drawn labelled rows to ingest, drawn apart from the samples.
pub fn draw_ingest_rows(data: &Dataset, seed: u64, n: usize) -> Vec<(IdList, ClassLabel)> {
    crate::data::neighbour_rows(data, seed ^ 0x1a9e57, n, FLIP)
}

/// A running server over a saved artifact.
pub struct Served {
    /// The artifact file.
    pub path: PathBuf,
    /// The serving slot (hot-swappable index).
    pub handle: Arc<ArtifactHandle>,
    /// The HTTP server, kept alive here and shut down on drop.
    pub _server: ServerHandle,
    /// A client for it.
    pub client: Client,
    /// Seconds spent in `save_artifact`.
    pub encode_s: f64,
}

/// Saves `groups` as an artifact at `path`, loads it into an
/// [`ArtifactHandle`], binds an HTTP server with `config`, and waits
/// for the answer to one classify request. The spans are children of
/// `parent`.
pub fn serve_groups(
    data: &Dataset,
    groups: &[RuleGroup],
    path: &Path,
    config: &ServeConfig,
    first: &IdList,
    spans: &Spans,
    parent: u64,
) -> Served {
    let meta = ArtifactMeta::from_dataset(data);
    let (saved, encode_s) = spans.time("store.save_artifact", parent, 0, |_| {
        save_artifact(path, &meta, groups)
    });
    saved.expect("saving the artifact");
    let (handle, _) = spans.time("serve.artifact_handle_load", parent, 0, |_| {
        ArtifactHandle::load(path, farmer_classify::IRG_FINGERPRINT_THETA, 0)
    });
    let handle = Arc::new(handle.expect("loading the artifact"));
    let (server, _) = spans.time("serve.start", parent, 0, |_| {
        farmer_serve::start(Arc::clone(&handle), config)
    });
    let server = server.expect("binding the server");
    let client = Client::new(server.addr());
    let (first_answer, _) = spans.time("serve.first_classify", parent, 0, |_| {
        client.get(&classify_path(data, first))
    });
    let (status, _) = first_answer.expect("first classify request");
    assert_eq!(status, 200, "first classify request answered {status}");
    Served {
        path: path.to_path_buf(),
        handle,
        _server: server,
        client,
        encode_s,
    }
}

/// The `GET /v1/classify` path for `sample`, naming its items the way
/// a client does (`items=g12@3,g40@0,…`).
pub fn classify_path(data: &Dataset, sample: &IdList) -> String {
    let names: Vec<&str> = sample.iter().map(|i| data.item_name(i)).collect();
    format!("/v1/classify?items={}", names.join(","))
}

/// Whether a classify response body carries prediction `p`.
pub fn answer_matches(body: &str, p: &Prediction) -> bool {
    let Ok(j) = Json::parse(body) else {
        return false;
    };
    let group_ok = match p.group {
        Some(g) => j["group"].as_u64() == Some(g as u64),
        None => j["group"] == Json::Null,
    };
    j["class"].as_u64() == Some(p.class as u64) && group_ok
}

/// One classify request checked against the in-process index: the
/// answer must equal `ShardedIndex::classify` on the generation served
/// just before or just after the request. Also returns when the answer
/// was complete (before the check ran).
pub fn classify_checked(served: &Served, path: &str, sample: &IdList) -> (Outcome, Instant) {
    let before = served.handle.current();
    let reply = served.client.get(path);
    let done = Instant::now();
    let outcome = match reply {
        Ok((200, body)) => {
            let after = served.handle.current();
            let ok = answer_matches(&body, &before.classify(sample))
                || answer_matches(&body, &after.classify(sample));
            if ok {
                Outcome::Ok
            } else {
                Outcome::Wrong
            }
        }
        Ok((503, _)) => Outcome::Shed,
        _ => Outcome::Failed,
    };
    (outcome, done)
}

/// Records `store.*`, `serve.index_build_s` and `serve.match_us` for the
/// artifact `served` holds: a timed `Artifact::load`, a timed
/// `ShardedIndex::from_artifact`, and direct `ShardedIndex::classify`
/// calls on `samples`. Returns the median match time in µs.
pub fn store_and_index_layers(
    res: &mut RunResult,
    served: &Served,
    samples: &[IdList],
    spans: &Spans,
) -> f64 {
    let bytes = std::fs::metadata(&served.path).map_or(0, |m| m.len());
    let (artifact, decode_s) = spans.time("store.artifact_load", 0, 0, |_| {
        Artifact::load(&served.path)
    });
    let artifact = artifact.expect("re-reading the served artifact");
    let (index, build_s) = spans.time("serve.index_build", 0, 0, |_| {
        ShardedIndex::from_artifact(artifact)
    });
    let mut match_us = Vec::with_capacity(samples.len());
    for (k, s) in samples.iter().enumerate() {
        let (p, secs) = spans.time("serve.index_classify", 0, k as u64, |_| index.classify(s));
        std::hint::black_box(p);
        match_us.push(secs * 1e6);
    }
    let match_med = median(&match_us);
    res.put("store.encode_s", "s", served.encode_s, "save_artifact");
    res.put(
        "store.artifact_bytes",
        "bytes",
        bytes as f64,
        ".fgi v2 file size",
    );
    res.put("store.decode_s", "s", decode_s, "Artifact::load");
    res.put(
        "serve.index_build_s",
        "s",
        build_s,
        "ShardedIndex::from_artifact",
    );
    res.put(
        "serve.match_us",
        "us",
        match_med,
        format!(
            "median of {} direct ShardedIndex::classify calls",
            samples.len()
        ),
    );
    match_med
}

/// Records `serve.http_us`, `serve.connects_per_req` and `serve.shed`
/// from a client-side median latency (ms), the client's connection and
/// request counts, and the 503s seen.
pub fn http_layers(
    res: &mut RunResult,
    client_p50_ms: f64,
    match_us: f64,
    served: &Served,
    shed: usize,
    note: &str,
) {
    res.put(
        "serve.http_us",
        "us",
        client_p50_ms * 1e3 - match_us,
        format!("client median − serve.match_us, {note}"),
    );
    let (connects, requests) = (served.client.connects(), served.client.requests());
    res.put(
        "serve.connects_per_req",
        "ratio",
        connects as f64 / requests.max(1) as f64,
        format!("{connects} connects / {requests} requests"),
    );
    res.put("serve.shed", "count", shed as f64, "503 answers");
}

/// A running remine daemon publishing to a served artifact.
pub struct Daemon {
    /// The daemon, kept alive here and stopped on drop.
    pub _pipeline: Pipeline,
    /// Its ingest door and counters.
    pub handle: Arc<PipelineHandle>,
}

/// Starts a [`Pipeline`] over `data` that republishes `served.path` and
/// reloads `served.handle` in process.
pub fn start_daemon(
    data: &Dataset,
    min_sup: usize,
    threads: usize,
    served: &Served,
    journal: &Path,
    spans: &Spans,
    parent: u64,
) -> Daemon {
    let _ = std::fs::remove_file(journal);
    let mut cfg = PipelineConfig::new(journal, &served.path);
    cfg.params = MiningParams::new(0).min_sup(min_sup);
    cfg.threads = threads;
    cfg.debounce_ms = DEBOUNCE_MS;
    let (pipeline, _) = spans.time("pipeline.start", parent, 0, |_| {
        Pipeline::start(data.clone(), cfg)
    });
    let pipeline = pipeline.expect("starting the remine daemon");
    let handle = pipeline.handle();
    handle.set_notify(Notify::InProcess(Arc::clone(&served.handle)));
    Daemon {
        _pipeline: pipeline,
        handle,
    }
}

/// Ingest→visible timings of one ingest schedule.
#[derive(Debug, Default)]
pub struct IngestRun {
    /// Per visible row, ms from the ingest call until the served index
    /// held it.
    pub visible_ms: Vec<f64>,
    /// Rows accepted by the ingest call.
    pub ingested: usize,
    /// Rows rejected by the ingest call or never visible.
    pub lost: usize,
}

impl IngestRun {
    /// Adds another schedule's timings and counts to these.
    pub fn append(&mut self, other: IngestRun) {
        self.visible_ms.extend(other.visible_ms);
        self.ingested += other.ingested;
        self.lost += other.lost;
    }

    /// Counts each visible row as a passed check and each lost row as a
    /// failed one.
    pub fn record_checks(&self, res: &mut RunResult) {
        for _ in 0..self.visible_ms.len() {
            res.check(true, "ingest");
        }
        for _ in 0..self.lost {
            res.check(false, "ingested row rejected or never visible");
        }
    }
}

/// Ingests `rows[k]` at `k × every` and polls `served` until each row
/// is in the served index (its artifact's row count reaches the base
/// plus the rows ingested so far). With `every = 0` each row waits for
/// the previous one to become visible.
pub fn ingest_schedule(
    daemon: &Daemon,
    served: &Served,
    rows: &[(IdList, ClassLabel)],
    every: Duration,
    spans: &Spans,
) -> IngestRun {
    let base_rows = served.handle.current().meta().n_rows as usize;
    let mut run = IngestRun::default();
    let mut pending: std::collections::VecDeque<(usize, Instant)> = Default::default();
    let t0 = Instant::now();
    let mut next = 0;
    let mut last_progress = Instant::now();
    loop {
        let due = every * next as u32;
        let ready =
            every.is_zero() && pending.is_empty() || !every.is_zero() && t0.elapsed() >= due;
        if next < rows.len() && ready {
            let (items, label) = &rows[next];
            let row = vec![(items.iter().collect::<Vec<u32>>(), *label)];
            let t = Instant::now();
            let (ok, _) = spans.time("pipeline.ingest", 0, next as u64, |_| {
                daemon.handle.ingest(&row)
            });
            match ok {
                Ok(_) => {
                    pending.push_back((run.ingested, t));
                    run.ingested += 1;
                }
                Err(_) => run.lost += 1,
            }
            next += 1;
            last_progress = Instant::now();
        }
        let visible = (served.handle.current().meta().n_rows as usize).saturating_sub(base_rows);
        while pending.front().is_some_and(|&(k, _)| k < visible) {
            let (_, t) = pending.pop_front().expect("checked non-empty");
            run.visible_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last_progress = Instant::now();
        }
        if next == rows.len() && pending.is_empty() {
            break;
        }
        if last_progress.elapsed() > VISIBLE_DEADLINE {
            run.lost += pending.len();
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    run
}

/// Per-ingest times of the daemon's steps, replayed outside the daemon.
#[derive(Debug, Default)]
pub struct Replay {
    /// `IncrementalMiner::apply_rows`, s.
    pub apply_s: Vec<f64>,
    /// `IncrementalMiner::groups`, s.
    pub assemble_s: Vec<f64>,
    /// `publish_artifact`, s.
    pub publish_s: Vec<f64>,
    /// `ArtifactHandle::reload`, s.
    pub reload_s: Vec<f64>,
}

impl Replay {
    /// Adds another replay's step times to these.
    pub fn append(&mut self, other: Replay) {
        self.apply_s.extend(other.apply_s);
        self.assemble_s.extend(other.assemble_s);
        self.publish_s.extend(other.publish_s);
        self.reload_s.extend(other.reload_s);
    }
}

/// Replays `rows`, one per ingest, through the steps the daemon runs
/// for each remine — `apply_rows`, `groups`, `publish_artifact`,
/// `ArtifactHandle::reload` — each inside its own span, against a
/// private artifact at `path`.
pub fn replay(
    data: &Dataset,
    min_sup: usize,
    threads: usize,
    rows: &[(IdList, ClassLabel)],
    path: &Path,
    spans: &Spans,
) -> Replay {
    let params = MiningParams::new(0).min_sup(min_sup);
    let (mut miner, _) = spans.time("pipeline.bootstrap", 0, 0, |_| {
        IncrementalMiner::new(data.clone(), params, Engine::Bitset, threads)
    });
    let meta = ArtifactMeta::from_dataset(miner.data());
    publish_artifact(path, &meta, &miner.groups(), VERSION).expect("initial replay publish");
    let handle = ArtifactHandle::load(path, farmer_classify::IRG_FINGERPRINT_THETA, 0)
        .expect("loading the replay artifact");
    let mut out = Replay::default();
    for (k, row) in rows.iter().enumerate() {
        let req = k as u64;
        spans.time("pipeline.remine", 0, req, |id| {
            let (applied, s) = spans.time("pipeline.apply_rows", id, req, |_| {
                miner.apply_rows(std::slice::from_ref(row))
            });
            applied.expect("replaying an ingested row");
            out.apply_s.push(s);
            let (groups, s) = spans.time("pipeline.groups", id, req, |_| miner.groups());
            out.assemble_s.push(s);
            let meta = ArtifactMeta::from_dataset(miner.data());
            let (published, s) = spans.time("store.publish_artifact", id, req, |_| {
                publish_artifact(path, &meta, &groups, VERSION)
            });
            published.expect("replay publish");
            out.publish_s.push(s);
            let (reloaded, s) = spans.time("serve.reload", id, req, |_| handle.reload());
            reloaded.expect("replay reload");
            out.reload_s.push(s);
        });
    }
    out
}

/// Records `serve.reload_s` and every `pipeline.*` metric.
pub fn pipeline_layers(
    res: &mut RunResult,
    visible_ms: f64,
    remines: u64,
    ingested: usize,
    r: &Replay,
) {
    let n = r.apply_s.len();
    let note = format!("median of {n} replayed ingests");
    let (apply, assemble) = (median(&r.apply_s), median(&r.assemble_s));
    let (publish, reload) = (median(&r.publish_s), median(&r.reload_s));
    res.put(
        "serve.reload_s",
        "s",
        reload,
        format!("ArtifactHandle::reload, {note}"),
    );
    res.put("pipeline.apply_rows_s", "s", apply, note.clone());
    res.put(
        "pipeline.assemble_s",
        "s",
        assemble,
        format!("IncrementalMiner::groups, {note}"),
    );
    res.put(
        "pipeline.publish_s",
        "s",
        publish,
        format!("publish_artifact, {note}"),
    );
    res.put(
        "pipeline.wait_s",
        "s",
        visible_ms / 1e3 - (apply + assemble + publish + reload),
        format!("median ingest→visible {visible_ms:.1} ms − the four step medians"),
    );
    res.put(
        "pipeline.remines_per_ingest",
        "ratio",
        remines as f64 / ingested.max(1) as f64,
        format!("{remines} remines / {ingested} ingests"),
    );
}

/// The daemon's remine count so far.
pub fn remines(daemon: &Daemon) -> u64 {
    daemon.handle.stats()["remines"].as_u64().unwrap_or(0)
}

/// The layer sweep of a traced run: serves the mined `groups`
/// (`serving = true`: save, load, bind, direct and HTTP classify of
/// seed-drawn samples), then runs a few ingests through a remine daemon
/// and replays them step by step. Records every `store.*`, `serve.*`
/// and `pipeline.*` metric, and checks every answer.
pub fn sweep(
    res: &mut RunResult,
    data: &Dataset,
    min_sup: usize,
    groups: &[RuleGroup],
    opts: &Opts,
    spans: &Spans,
    serving: bool,
) {
    let samples = draw_samples(data, opts.seed, SWEEP_REQUESTS);
    let dir = opts.work_dir.join("sweep");
    std::fs::create_dir_all(&dir).expect("creating the sweep directory");
    let (served, _) = spans.time("sweep.serve", 0, 0, |id| {
        serve_groups(
            data,
            groups,
            &dir.join("served.fgi"),
            &ServeConfig::default(),
            &samples[0],
            spans,
            id,
        )
    });
    if serving {
        let match_us = store_and_index_layers(res, &served, &samples, spans);
        let mut latencies = Vec::new();
        let mut shed = 0;
        for (k, s) in samples.iter().enumerate() {
            let path = classify_path(data, s);
            let t = Instant::now();
            let ((outcome, done), _) = spans.time("serve.http_classify", 0, k as u64, |_| {
                classify_checked(&served, &path, s)
            });
            let secs = (done - t).as_secs_f64();
            shed += usize::from(outcome == Outcome::Shed);
            res.check(
                outcome == Outcome::Ok,
                "HTTP classify answer differs from the index",
            );
            latencies.push(secs * 1e3);
        }
        http_layers(
            res,
            median(&latencies),
            match_us,
            &served,
            shed,
            &format!("{} closed-loop requests", samples.len()),
        );
    }
    let rows = draw_ingest_rows(data, opts.seed, SWEEP_INGESTS);
    let daemon = start_daemon(
        data,
        min_sup,
        opts.threads,
        &served,
        &dir.join("journal.fgd"),
        spans,
        0,
    );
    let run = ingest_schedule(&daemon, &served, &rows, Duration::ZERO, spans);
    run.record_checks(res);
    let remine_count = remines(&daemon);
    drop(daemon);
    let r = replay(
        data,
        min_sup,
        opts.threads,
        &rows,
        &dir.join("replay.fgi"),
        spans,
    );
    pipeline_layers(res, median(&run.visible_ms), remine_count, run.ingested, &r);
    let _ = std::fs::remove_dir_all(&dir);
}
