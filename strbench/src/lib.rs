//! End-to-end benchmark of strtaint scan and edit sessions.
//!
//! One run sets a workload's tree up several times (generation,
//! checker construction, daemon priming), then repeats whole rounds for
//! the requested time. A round is the seeded edit script applied
//! through the resident daemon, then a cold scan of the edited tree.
//! Every round checks the program's outputs against truth that does not
//! come from the program. See `README.md` for the workloads and metrics.

#![warn(missing_docs)]

pub mod gen;
pub mod model;
pub mod session;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use strtaint_daemon::json::Json;

pub use model::{Size, WORKLOADS};
use session::{engine_stats, Refresh, Scan, Session};

/// How many times a run sets its workload up (`setup_s` is their
/// median). Small runs set up once.
pub const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the generated tree and the edit script.
    pub seed: u64,
    /// Measuring time; rounds run until it is spent (at least one).
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory for trees, artifact stores and trace output.
    pub work: PathBuf,
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed (on the operations that did not fail).
    pub correct: bool,
    /// The first failed check, if any.
    pub error: Option<String>,
    /// Operations attempted: pages scanned plus edits refreshed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// `(scan, refresh)` seconds of every round.
    pub samples: Vec<(f64, f64)>,
    /// End-to-end metrics, or per-layer ones when tracing.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), v)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Unknown workloads and I/O failures. A failed *check* is not an
/// error: it comes back as `correct: false` with the message.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let root = opts
        .work
        .join(format!("{}-{}", opts.workload, std::process::id()));
    let mut setups = Vec::new();
    let mut session = None;
    let setups_wanted = if opts.size == Size::Small { 1 } else { SETUPS };
    for _ in 0..setups_wanted {
        if let Some(s) = session.take() {
            Session::remove(s);
        }
        let t = Instant::now();
        let s = Session::setup(&opts.workload, opts.seed, opts.size, &root)?;
        setups.push(t.elapsed());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let result = rounds(&mut session, opts, &setups);
    session.remove();
    result
}

/// Measured samples, one per round.
#[derive(Default)]
struct Samples {
    /// Step times of each round's scan.
    scan: Vec<Vec<f64>>,
    /// Edit times of each round's script.
    refresh: Vec<Vec<f64>>,
    layers: Vec<BTreeMap<&'static str, f64>>,
}

fn rounds(session: &mut Session, opts: &Options, setups: &[Duration]) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        error: None,
        attempted: 0,
        failed: 0,
        rounds: 0,
        samples: Vec::new(),
        metrics: Vec::new(),
    };
    let mut samples = Samples::default();
    let mut check = session
        .check_daemon()
        .map_err(|e| format!("primed daemon: {e}"));
    let start = Instant::now();
    while check.is_ok() {
        let r = match session.refresh() {
            Ok(r) => r,
            Err(e) => {
                check = Err(e);
                break;
            }
        };
        strtaint_obs::set_mode(strtaint_obs::Mode::Off);
        let scan = session.scan();
        check = session.check_scan(&scan);
        out.attempted += (session.page_count() + session.model.script_len()) as u64;
        out.failed += (scan.failed + r.failed) as u64;
        samples
            .scan
            .push(scan.split.steps.iter().map(Duration::as_secs_f64).collect());
        samples
            .refresh
            .push(r.steps.iter().map(Duration::as_secs_f64).collect());
        out.samples
            .push((scan.split.wall.as_secs_f64(), r.wall.as_secs_f64()));
        if opts.trace && check.is_ok() {
            let first = out.rounds == 0;
            let layers = traced_round(session, &scan, &r, first, opts);
            match layers {
                Ok(l) => samples.layers.push(l),
                Err(e) => check = Err(e),
            }
        }
        out.rounds += 1;
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if let Err(e) = check {
        out.correct = false;
        out.error = Some(e);
    }
    if opts.trace {
        out.metrics = layer_metrics(&samples.layers);
        write_layers(opts, session, &samples.layers)?;
    } else {
        let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        out.metrics = vec![
            Metric {
                name: "scan_s",
                value: sum_of_medians(&samples.scan),
                unit: "s",
            },
            Metric {
                name: "refresh_s",
                value: sum_of_medians(&samples.refresh),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
            Metric {
                name: "setup_s",
                value: median(&setup),
                unit: "s",
            },
        ];
    }
    Ok(out)
}

/// Per-layer metrics: name, unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("php.parse_ms", "ms"),
    ("tpl.parse_ms", "ms"),
    ("analysis.load_ms", "ms"),
    ("analysis.ms", "ms"),
    ("analysis.lower_ms", "ms"),
    ("analysis.emit_ms", "ms"),
    ("analysis.refine_ms", "ms"),
    ("analysis.summary_hits", "count"),
    ("analysis.summary_misses", "count"),
    ("analysis.grammar_nts", "count"),
    ("analysis.grammar_prods", "count"),
    ("grammar.prepare_ms", "ms"),
    ("grammar.intersect_ms", "ms"),
    ("grammar.witness_ms", "ms"),
    ("grammar.queries", "count"),
    ("grammar.realized_triples", "count"),
    ("grammar.normalizations_saved", "count"),
    ("grammar.early_exits", "count"),
    ("checker.ms", "ms"),
    ("checker.build_ms", "ms"),
    ("checker.c1_ms", "ms"),
    ("checker.c2_ms", "ms"),
    ("checker.c3_ms", "ms"),
    ("checker.c4_ms", "ms"),
    ("checker.c5_ms", "ms"),
    ("checker.xss_ms", "ms"),
    ("checker.maximal_labeled_ms", "ms"),
    ("checker.pmemo_fp_ms", "ms"),
    ("checker.qcache_hits", "count"),
    ("checker.qcache_misses", "count"),
    ("checker.qcache_hit_ratio", "ratio"),
    ("checker.prefilter_skips", "count"),
    ("checker.witness_skipped", "count"),
    ("core.page_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.render_ms", "ms"),
    ("daemon.invalidate_ms", "ms"),
    ("daemon.replay_ms", "ms"),
    ("daemon.compute_ms", "ms"),
    ("daemon.pages_replayed", "count"),
    ("daemon.pages_computed", "count"),
    ("run.scan_ms", "ms"),
    ("run.unattributed_ms", "ms"),
    ("obs.overhead_s", "s"),
];

/// The layers whose times partition the traced scan's wall clock.
pub const SCAN_PARTS: [&str; 5] = [
    "analysis.load_ms",
    "checker.build_ms",
    "core.page_ms",
    "core.render_ms",
    "run.unattributed_ms",
];

/// One traced round: a second scan with phase aggregation on (the
/// first round records the full event stream for the Chrome trace),
/// plus the layer timings measured around public calls.
fn traced_round(
    session: &Session,
    untraced: &Scan,
    refresh: &Refresh,
    first: bool,
    opts: &Options,
) -> Result<BTreeMap<&'static str, f64>, String> {
    use strtaint_obs::Mode;
    strtaint_obs::reset();
    strtaint_obs::set_mode(if first { Mode::Full } else { Mode::Aggregate });
    let scan = session.scan();
    strtaint_obs::set_mode(Mode::Off);
    session.check_scan(&scan)?;
    if first {
        let path = out_dir(opts)?.join(format!("{}.trace.json", opts.workload));
        strtaint_obs::write_chrome_trace(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let phase: BTreeMap<&str, f64> = strtaint_obs::phases()
        .into_iter()
        .map(|p| (p.name, p.total_us as f64 / 1e3))
        .collect();
    let ph = |name: &str| phase.get(name).copied().unwrap_or(0.0);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let s = &scan.split;
    let e = engine_stats(&scan);
    let (php, tpl) = session.parse_times();
    let (nts, prods) = scan.reports.iter().flatten().fold((0, 0), |(n, p), r| {
        (n + r.grammar_nonterminals, p + r.grammar_productions)
    });
    let lookups = e.qcache_hits + e.qcache_misses;
    let named = ms(s.load) + ms(s.build) + ms(s.page) + ms(s.render);
    let mut m = BTreeMap::new();
    m.insert("php.parse_ms", ms(php));
    m.insert("tpl.parse_ms", ms(tpl));
    m.insert("analysis.load_ms", ms(s.load));
    m.insert("analysis.ms", ms(s.analysis));
    m.insert("analysis.lower_ms", ph("lower"));
    m.insert("analysis.emit_ms", ph("emit"));
    m.insert("analysis.refine_ms", ph("refine"));
    m.insert("analysis.summary_hits", scan.summaries.0 as f64);
    m.insert("analysis.summary_misses", scan.summaries.1 as f64);
    m.insert("analysis.grammar_nts", nts as f64);
    m.insert("analysis.grammar_prods", prods as f64);
    m.insert("grammar.prepare_ms", ph("prepare"));
    m.insert("grammar.intersect_ms", ph("intersect"));
    m.insert("grammar.witness_ms", ph("witness"));
    m.insert("grammar.queries", e.queries as f64);
    m.insert("grammar.realized_triples", e.realized_triples as f64);
    m.insert(
        "grammar.normalizations_saved",
        e.normalizations_saved as f64,
    );
    m.insert("grammar.early_exits", e.early_exits as f64);
    m.insert("checker.ms", ms(s.check));
    m.insert("checker.build_ms", ms(s.build));
    m.insert("checker.c1_ms", ph("check:C1"));
    m.insert("checker.c2_ms", ph("check:C2"));
    m.insert("checker.c3_ms", ph("check:C3"));
    m.insert("checker.c4_ms", ph("check:C4"));
    m.insert("checker.c5_ms", ph("check:C5"));
    m.insert("checker.xss_ms", ph("check:xss"));
    m.insert(
        "checker.maximal_labeled_ms",
        ms(session.maximal_labeled_time()),
    );
    m.insert("checker.pmemo_fp_ms", ph("pmemo:fp"));
    m.insert("checker.qcache_hits", e.qcache_hits as f64);
    m.insert("checker.qcache_misses", e.qcache_misses as f64);
    m.insert(
        "checker.qcache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            e.qcache_hits as f64 / lookups as f64
        },
    );
    m.insert("checker.prefilter_skips", e.prefilter_skips as f64);
    m.insert("checker.witness_skipped", e.witness_skipped as f64);
    m.insert("core.page_ms", ms(s.page));
    m.insert(
        "core.unattributed_ms",
        ms(s.page) - ms(s.analysis) - ms(s.check),
    );
    m.insert("core.render_ms", ms(s.render));
    m.insert("daemon.invalidate_ms", ms(refresh.invalidate));
    m.insert("daemon.replay_ms", ms(refresh.replay));
    m.insert("daemon.compute_ms", ms(refresh.compute));
    m.insert("daemon.pages_replayed", refresh.replayed as f64);
    m.insert("daemon.pages_computed", refresh.computed as f64);
    m.insert("run.scan_ms", ms(s.wall));
    m.insert("run.unattributed_ms", ms(s.wall) - named);
    m.insert(
        "obs.overhead_s",
        s.wall.as_secs_f64() - untraced.split.wall.as_secs_f64(),
    );
    Ok(m)
}

fn layer_metrics(rounds: &[BTreeMap<&'static str, f64>]) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            Metric {
                name,
                value: median(&values),
                unit,
            }
        })
        .collect()
}

/// Writes every round's per-layer figures, their medians and the scan
/// partition check as `<work>/out/<workload>.layers.json`.
fn write_layers(
    opts: &Options,
    session: &Session,
    rounds: &[BTreeMap<&'static str, f64>],
) -> Result<(), String> {
    let num = Json::Num;
    let (spaces, files, pages) = session.makeup();
    let tree = Json::obj(vec![
        ("spaces", num(spaces as f64)),
        ("files", num(files as f64)),
        ("pages", num(pages as f64)),
        ("edits", num(session.model.script_len() as f64)),
    ]);
    let per_round: Vec<Json> = rounds
        .iter()
        .map(|r| {
            let parts: f64 = SCAN_PARTS.iter().map(|p| r[p]).sum();
            Json::Obj(
                r.iter()
                    .map(|(k, v)| ((*k).to_owned(), num(*v)))
                    .chain([("sum_of_scan_parts_ms".to_owned(), num(parts))])
                    .collect(),
            )
        })
        .collect();
    let medians = layer_metrics(rounds)
        .into_iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::obj(vec![
                    ("value", num(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", num(opts.seed as f64)),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("tree", tree),
        (
            "scan_parts",
            Json::Arr(
                SCAN_PARTS
                    .iter()
                    .map(|p| Json::Str((*p).to_owned()))
                    .collect(),
            ),
        ),
        ("median", Json::Obj(medians)),
        ("rounds", Json::Arr(per_round)),
    ]);
    let path = out_dir(opts)?.join(format!("{}.layers.json", opts.workload));
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn out_dir(opts: &Options) -> Result<PathBuf, String> {
    let dir = opts.work.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A whole scan or script's typical time: the sum over its steps of each
/// step's median across rounds. Every round has the same steps. A burst
/// of machine noise slows a few steps of one round; the per-step median
/// drops it, where a median of round totals keeps part of it.
pub fn sum_of_medians(rounds: &[Vec<f64>]) -> f64 {
    let steps = rounds.first().map_or(0, Vec::len);
    (0..steps)
        .map(|j| median(&rounds.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string(Path::new("/proc/self/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
