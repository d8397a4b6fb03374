//! A session over one workload's tree: the on-disk tree, the resident
//! daemons primed at set-up, the cold scan and the edit script.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use strtaint::{
    analyze_page_cached, analyze_page_policies_cached, Checker, Config, EngineStats, PageReport,
    PolicyChecker, SummaryCache, Vfs,
};
use strtaint_daemon::json::{self, Json};
use strtaint_daemon::verdict::page_to_json;
use strtaint_daemon::{ArtifactStore, DaemonState, PageOutcome};

use crate::model::{self, Inputs, Model, Size, Space};

/// A workload's tree on disk and its primed daemons.
pub struct Session {
    /// The workload's tree, truth and script.
    pub model: Model,
    root: PathBuf,
    spaces: Vec<Space>,
    config: Config,
    daemons: Vec<DaemonState>,
    /// Latest daemon page object per space and entry.
    pages: Vec<BTreeMap<String, Json>>,
}

/// Wall time of one cold scan, split by the layer each part ran in.
#[derive(Debug, Default, Clone)]
pub struct ScanSplit {
    /// Whole scan, source bytes to SARIF.
    pub wall: Duration,
    /// Reading the tree (`Vfs::from_dir`).
    pub load: Duration,
    /// Constructing the checker.
    pub build: Duration,
    /// Σ wall of the `analyze_page*_cached` calls.
    pub page: Duration,
    /// Σ `PageReport::analysis_time`.
    pub analysis: Duration,
    /// Σ `PageReport::check_time`.
    pub check: Duration,
    /// SARIF rendering.
    pub render: Duration,
    /// The scan's steps in order: per space, tree load, checker
    /// construction, each page, SARIF rendering.
    pub steps: Vec<Duration>,
}

/// One cold scan's results.
pub struct Scan {
    /// Timings.
    pub split: ScanSplit,
    /// Reports per space, in entry order.
    pub reports: Vec<Vec<PageReport>>,
    /// SARIF log per space.
    pub sarif: Vec<String>,
    /// Pages the analyzer refused (entry missing or unparsable).
    pub failed: usize,
    /// Summary-cache `(hits, misses)` over all spaces.
    pub summaries: (u64, u64),
}

/// One run of the edit script.
#[derive(Debug, Default, Clone)]
pub struct Refresh {
    /// Σ over edits of invalidate + re-requesting every page.
    pub wall: Duration,
    /// Each edit's share of `wall`, in script order.
    pub steps: Vec<Duration>,
    /// Σ `invalidate` calls.
    pub invalidate: Duration,
    /// Σ page requests answered by replay.
    pub replay: Duration,
    /// Σ page requests that recomputed.
    pub compute: Duration,
    /// Page requests answered by replay.
    pub replayed: u64,
    /// Page requests that recomputed.
    pub computed: u64,
    /// Edits after which a page came back skipped.
    pub failed: usize,
}

enum ScanChecker {
    Sql(Box<Checker>),
    Policies(Box<PolicyChecker>),
}

impl Session {
    /// Set-up: builds the tree from `seed`, writes it under `root`,
    /// starts one daemon per space over it with a fresh artifact store,
    /// and primes every daemon by requesting every page once.
    ///
    /// # Errors
    ///
    /// Unknown workloads and I/O failures.
    pub fn setup(workload: &str, seed: u64, size: Size, root: &Path) -> Result<Session, String> {
        let mut model = Model::new(workload, seed, size)?;
        if root.exists() {
            fs::remove_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        let spaces = model.spaces();
        let config = model.config();
        let mut daemons = Vec::new();
        let mut pages = Vec::new();
        for (i, space) in spaces.iter().enumerate() {
            let dir = root.join("tree").join(&space.name);
            for (path, bytes) in model.files(i) {
                write(&dir.join(path), &bytes)?;
            }
            let vfs = Vfs::from_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let store_dir = root.join("store").join(&space.name);
            let store = ArtifactStore::open(&store_dir)
                .map_err(|e| format!("{}: {e}", store_dir.display()))?;
            let daemon = DaemonState::new(vfs, config.clone(), Some(store));
            let mut primed = BTreeMap::new();
            for entry in &space.entries {
                let (page, _) = daemon.analyze_page(entry, false, daemon.base_config());
                primed.insert(entry.clone(), page);
            }
            daemons.push(daemon);
            pages.push(primed);
        }
        let inputs: Vec<Inputs> = pages
            .iter()
            .map(|p| {
                p.iter()
                    .map(|(e, j)| (e.clone(), model::inputs(j)))
                    .collect()
            })
            .collect();
        model.plan(&inputs);
        Ok(Session {
            model,
            root: root.to_path_buf(),
            spaces,
            config,
            daemons,
            pages,
        })
    }

    /// Pages in the tree (every space).
    pub fn page_count(&self) -> usize {
        self.spaces.iter().map(|s| s.entries.len()).sum()
    }

    /// `(spaces, files, pages)` of the tree.
    pub fn makeup(&self) -> (usize, usize, usize) {
        let files = (0..self.spaces.len())
            .map(|i| self.model.files(i).len())
            .sum();
        (self.spaces.len(), files, self.page_count())
    }

    /// Checks the daemons' current verdicts against the truth.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn check_daemon(&self) -> Result<(), String> {
        for (i, pages) in self.pages.iter().enumerate() {
            self.model.check(i, pages)?;
        }
        Ok(())
    }

    /// The cold scan `strtaint --sarif` performs, once per space: read
    /// the tree, build a fresh checker and summary cache, analyze every
    /// entry, render SARIF.
    pub fn scan(&self) -> Scan {
        let wall = Instant::now();
        let mut split = ScanSplit::default();
        let mut reports = Vec::new();
        let mut sarif = Vec::new();
        let mut failed = 0;
        let mut summaries = (0, 0);
        for space in &self.spaces {
            let t = Instant::now();
            let vfs = Vfs::from_dir(&self.tree_dir(space)).unwrap_or_default();
            split.load += step(&mut split.steps, t);
            let t = Instant::now();
            let checker = if self.config.policies == [strtaint::policy::SQL_POLICY] {
                ScanChecker::Sql(Box::new(Checker::new()))
            } else {
                ScanChecker::Policies(Box::new(PolicyChecker::new()))
            };
            let cache = SummaryCache::new();
            split.build += step(&mut split.steps, t);
            let mut out = Vec::new();
            for entry in &space.entries {
                let t = Instant::now();
                let report = match &checker {
                    ScanChecker::Sql(c) => {
                        analyze_page_cached(&vfs, entry, &self.config, c, &cache)
                    }
                    ScanChecker::Policies(c) => {
                        analyze_page_policies_cached(&vfs, entry, &self.config, c, &cache)
                    }
                };
                split.page += step(&mut split.steps, t);
                match report {
                    Ok(r) => {
                        split.analysis += r.analysis_time;
                        split.check += r.check_time;
                        out.push(r);
                    }
                    Err(_) => failed += 1,
                }
            }
            let t = Instant::now();
            sarif.push(strtaint::render::sarif(&out));
            split.render += step(&mut split.steps, t);
            summaries.0 += cache.hits();
            summaries.1 += cache.misses();
            reports.push(out);
        }
        split.wall = wall.elapsed();
        Scan {
            split,
            reports,
            sarif,
            failed,
            summaries,
        }
    }

    /// Checks a scan: its verdicts against the truth, its SARIF against
    /// its findings, and the daemons' verdicts against it (incremental
    /// equals from scratch).
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn check_scan(&self, scan: &Scan) -> Result<(), String> {
        for (i, reports) in scan.reports.iter().enumerate() {
            let pages: BTreeMap<String, Json> = reports
                .iter()
                .map(|r| (r.entry.clone(), page_to_json(r)))
                .collect();
            self.model.check(i, &pages)?;
            let log = json::parse(&scan.sarif[i]).map_err(|e| format!("SARIF: {e}"))?;
            let results = log
                .get("runs")
                .and_then(Json::as_arr)
                .and_then(|runs| runs.first())
                .and_then(|run| run.get("results"))
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            let found: usize = pages.values().map(model::findings).sum();
            if results != found {
                return Err(format!("SARIF has {results} results for {found} findings"));
            }
            for (entry, page) in &pages {
                let warm = self.pages[i].get(entry).map(model::verdict_only);
                if warm.as_ref() != Some(&model::verdict_only(page)) {
                    return Err(format!("{entry}: daemon verdict differs from a cold scan"));
                }
            }
        }
        Ok(())
    }

    /// Runs the edit script once through the daemons: per edit, write
    /// the changed files, then (timed) `invalidate` each and re-request
    /// every page; then (untimed) check that exactly the pages reading
    /// a changed file recomputed and that verdicts match the truth.
    ///
    /// # Errors
    ///
    /// I/O failures and check failures.
    pub fn refresh(&mut self) -> Result<Refresh, String> {
        let mut out = Refresh::default();
        for k in 0..self.model.script_len() {
            let changes = self.model.apply(k);
            let mut expected = BTreeSet::new();
            for (s, path, bytes) in &changes {
                write(&self.tree_dir(&self.spaces[*s]).join(path), bytes)?;
                for (entry, page) in &self.pages[*s] {
                    if model::inputs(page).contains(path) {
                        expected.insert((*s, entry.clone()));
                    }
                }
            }
            let start = Instant::now();
            for (s, path, bytes) in changes {
                let t = Instant::now();
                self.daemons[s].invalidate(&path, Some(bytes));
                out.invalidate += t.elapsed();
            }
            let mut computed = BTreeSet::new();
            for (s, space) in self.spaces.iter().enumerate() {
                let daemon = &self.daemons[s];
                for entry in &space.entries {
                    let t = Instant::now();
                    let (page, outcome) = daemon.analyze_page(entry, false, daemon.base_config());
                    let took = t.elapsed();
                    match outcome {
                        PageOutcome::Replayed => {
                            out.replay += took;
                            out.replayed += 1;
                        }
                        PageOutcome::Computed => {
                            out.compute += took;
                            out.computed += 1;
                            computed.insert((s, entry.clone()));
                        }
                    }
                    self.pages[s].insert(entry.clone(), page);
                }
            }
            out.wall += step(&mut out.steps, start);
            if computed != expected {
                return Err(format!(
                    "edit {k}: recomputed {computed:?}, but the pages reading the edited files are {expected:?}"
                ));
            }
            let skipped = computed.iter().any(|(s, e)| {
                self.pages[*s][e]
                    .get("skipped")
                    .and_then(Json::as_str)
                    .is_some()
            });
            if skipped {
                out.failed += 1;
            } else {
                self.check_daemon()
                    .map_err(|e| format!("after edit {k}: {e}"))?;
            }
        }
        Ok(out)
    }

    /// Parse time of every file of the tree, `(php, tpl)`, timed
    /// around each frontend's `parse`.
    pub fn parse_times(&self) -> (Duration, Duration) {
        let (mut php, mut tpl) = (Duration::ZERO, Duration::ZERO);
        for i in 0..self.spaces.len() {
            for (path, src) in self.model.files(i) {
                let t = Instant::now();
                if path.ends_with(".tpl") {
                    let _ = std::hint::black_box(strtaint_tpl::parse(&src));
                    tpl += t.elapsed();
                } else {
                    let _ = std::hint::black_box(strtaint_php::parse(&src));
                    php += t.elapsed();
                }
            }
        }
        (php, tpl)
    }

    /// Σ time of `abstraction::maximal_labeled` over every checked root
    /// of every page (the per-hotspot whole-grammar walk), on grammars
    /// from a separate, untimed analysis.
    pub fn maximal_labeled_time(&self) -> Duration {
        let xss = self
            .config
            .policies
            .iter()
            .any(|p| p == strtaint::policy::XSS_POLICY);
        let mut total = Duration::ZERO;
        for space in &self.spaces {
            let vfs = Vfs::from_dir(&self.tree_dir(space)).unwrap_or_default();
            for entry in &space.entries {
                let Ok(a) = strtaint_analysis::analyze(&vfs, entry, &self.config) else {
                    continue;
                };
                let sinks = a.hotspots.iter().chain(a.echo_sinks.iter().filter(|_| xss));
                for h in sinks {
                    let t = Instant::now();
                    std::hint::black_box(strtaint_checker::abstraction::maximal_labeled(
                        &a.cfg, h.root,
                    ));
                    total += t.elapsed();
                }
            }
        }
        total
    }

    fn tree_dir(&self, space: &Space) -> PathBuf {
        self.root.join("tree").join(&space.name)
    }

    /// Removes the session's files.
    pub fn remove(self) {
        let root = self.root.clone();
        drop(self);
        let _ = fs::remove_dir_all(root);
    }
}

/// Engine counters summed over a scan's reports.
pub fn engine_stats(scan: &Scan) -> EngineStats {
    let mut e = EngineStats::default();
    for r in scan.reports.iter().flatten() {
        e.merge(&r.engine_stats());
    }
    e
}

/// Records the time since `t` as the next step and returns it.
fn step(steps: &mut Vec<Duration>, t: Instant) -> Duration {
    let d = t.elapsed();
    steps.push(d);
    d
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}
