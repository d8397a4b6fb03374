//! The three workloads as source trees with their truth and edit
//! scripts, and the checks that hold the program's page verdicts to
//! that truth.
//!
//! A tree is a list of *spaces*: one project directory each, analyzed
//! by one CLI-style scan and served by one daemon. `paper` has a space
//! per Table 1 application; the generated workloads have one space.

use std::collections::{BTreeMap, BTreeSet};

use strtaint::Config;
use strtaint_corpus::{apps, Truth};
use strtaint_daemon::json::Json;

use crate::gen::{Edit, Rng, Shape, Synth, POLICIES};

/// The workloads the benchmark runs.
pub const WORKLOADS: [&str; 3] = ["paper", "synth-c2", "fleet"];

/// Inputs of each entry page: `entry → files its verdict depends on`.
pub type Inputs = BTreeMap<String, BTreeSet<String>>;

/// One scripted change: `(space, path, new contents)` for each file it
/// rewrites.
pub type Change = Vec<(usize, String, Vec<u8>)>;

/// One project directory of a tree.
#[derive(Debug, Clone)]
pub struct Space {
    /// Directory name under the tree root.
    pub name: String,
    /// Entry pages, in scan order.
    pub entries: Vec<String>,
}

/// A Table 1 application with comment revisions per file.
#[derive(Debug)]
pub struct PaperApp {
    name: &'static str,
    files: BTreeMap<String, Vec<u8>>,
    entries: Vec<String>,
    truth: Truth,
    revs: BTreeMap<String, u32>,
}

/// A workload's tree, truth and edit script.
#[derive(Debug)]
pub enum Model {
    /// The five Table 1 applications.
    Paper {
        /// The applications, one space each.
        apps: Vec<PaperApp>,
        /// Seed of the edit script.
        seed: u64,
        /// Comment edits `(space, path)`, fixed at set-up.
        script: Vec<(usize, String)>,
    },
    /// A generated single-space tree (`synth-c2`, `fleet`).
    Synth {
        /// The generator state (specs = the vulnerability record).
        tree: Synth,
        /// Enabled policies.
        policies: Vec<String>,
        /// The edit script.
        script: Vec<Edit>,
    },
}

/// Size of a workload: the benchmark's size, or the small one the
/// self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few pages, for the benchmark's own tests.
    Small,
}

/// `synth-c2` pages at full size.
pub const SYNTH_C2_PAGES: usize = 2;
/// `fleet` page specs at full size.
pub const FLEET_PAGES: usize = 600;
/// `fleet` single-page toggles per script.
pub const FLEET_TOGGLES: usize = 24;
/// `fleet` shared-include edits per script.
pub const FLEET_LIBRARY_EDITS: usize = 1;
/// `paper` page edits per application per script.
pub const PAPER_PAGE_EDITS: usize = 2;

impl Model {
    /// Builds workload `name` from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the known workloads when `name` is not
    /// one of them.
    pub fn new(name: &str, seed: u64, size: Size) -> Result<Model, String> {
        let small = size == Size::Small;
        match name {
            "paper" => {
                let apps = if small {
                    vec![apps::eve::build(), apps::warp::build()]
                } else {
                    apps::all()
                };
                let apps = apps
                    .into_iter()
                    .map(|a| PaperApp {
                        name: a.name,
                        files: a
                            .vfs
                            .paths()
                            .map(|p| (p.to_owned(), a.vfs.get(p).unwrap_or(b"").to_vec()))
                            .collect(),
                        entries: a.entries.clone(),
                        truth: a.truth,
                        revs: BTreeMap::new(),
                    })
                    .collect();
                Ok(Model::Paper {
                    apps,
                    seed,
                    script: Vec::new(),
                })
            }
            "synth-c2" => {
                let pages = if small { 1 } else { SYNTH_C2_PAGES };
                let tree = Synth::generate(&Shape::synth_c2(pages), seed);
                let script = tree.script(seed, pages, 0);
                Ok(Model::Synth {
                    tree,
                    policies: vec!["sql".to_owned()],
                    script,
                })
            }
            "fleet" => {
                let (pages, toggles) = if small {
                    (20, 4)
                } else {
                    (FLEET_PAGES, FLEET_TOGGLES)
                };
                let tree = Synth::generate(&Shape::fleet(pages), seed);
                let script = tree.script(seed, toggles, FLEET_LIBRARY_EDITS);
                let policies = POLICIES.iter().map(|p| (*p).to_owned()).collect();
                Ok(Model::Synth {
                    tree,
                    policies,
                    script,
                })
            }
            _ => Err(format!(
                "unknown workload {name:?}; known: {}",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// The analyzer configuration (the CLI default, or `--policy` with
    /// every built-in policy for `fleet`).
    pub fn config(&self) -> Config {
        let mut config = Config::default();
        if let Model::Synth { policies, .. } = self {
            config.policies = policies.clone();
        }
        config
    }

    /// The spaces of the tree.
    pub fn spaces(&self) -> Vec<Space> {
        match self {
            Model::Paper { apps, .. } => apps
                .iter()
                .enumerate()
                .map(|(i, a)| Space {
                    name: format!("app{i}"),
                    entries: a.entries.clone(),
                })
                .collect(),
            Model::Synth { tree, .. } => {
                vec![Space {
                    name: "site".to_owned(),
                    entries: tree.entries(),
                }]
            }
        }
    }

    /// Current contents of every file of space `space`.
    pub fn files(&self, space: usize) -> BTreeMap<String, Vec<u8>> {
        match self {
            Model::Paper { apps, .. } => {
                let app = &apps[space];
                app.files
                    .keys()
                    .map(|p| (p.clone(), app.render(p)))
                    .collect()
            }
            Model::Synth { tree, .. } => tree
                .files()
                .into_iter()
                .map(|(p, s)| (p, s.into_bytes()))
                .collect(),
        }
    }

    /// Fixes the `paper` edit script from the primed daemon's inputs:
    /// per application, the non-entry file most pages read (the shared
    /// include, ties by path) and its first [`PAPER_PAGE_EDITS`] pages,
    /// in seeded order. The edits themselves do not depend on the seed:
    /// one Tiger page costs seconds to recompute where most cost
    /// milliseconds, so a seeded choice of pages would make the script's
    /// cost depend on the seed. The generated workloads fix their
    /// scripts at generation.
    pub fn plan(&mut self, inputs: &[Inputs]) {
        if let Model::Paper { apps, seed, script } = self {
            script.clear();
            for (i, app) in apps.iter().enumerate() {
                let mut fanout: BTreeMap<&str, usize> = BTreeMap::new();
                for deps in inputs[i].values() {
                    for d in deps {
                        if !app.entries.contains(d) && app.files.contains_key(d) {
                            *fanout.entry(d).or_default() += 1;
                        }
                    }
                }
                let shared = fanout.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)));
                if let Some((path, _)) = shared {
                    script.push((i, (*path).to_owned()));
                }
                let pages = app.entries.iter().filter(|e| app.editable(e));
                script.extend(pages.take(PAPER_PAGE_EDITS).map(|p| (i, p.clone())));
            }
            Rng::new(*seed ^ 0xED17).shuffle(script);
        }
    }

    /// Number of edits in the script.
    pub fn script_len(&self) -> usize {
        match self {
            Model::Paper { script, .. } => script.len(),
            Model::Synth { script, .. } => script.len(),
        }
    }

    /// Applies edit `k` of the script to the tree and its truth,
    /// returning the files it rewrote.
    pub fn apply(&mut self, k: usize) -> Change {
        match self {
            Model::Paper { apps, script, .. } => {
                let (space, path) = &script[k];
                let app = &mut apps[*space];
                *app.revs.entry(path.clone()).or_default() += 1;
                vec![(*space, path.clone(), app.render(path))]
            }
            Model::Synth { tree, script, .. } => tree
                .apply(script[k])
                .into_iter()
                .map(|(p, s)| (0, p, s.into_bytes()))
                .collect(),
        }
    }

    /// Checks the page objects of space `space` (`entry → page`,
    /// as the daemon or [`strtaint_daemon::verdict::page_to_json`]
    /// renders them) against the workload's truth.
    ///
    /// # Errors
    ///
    /// Describes the first disagreement.
    pub fn check(&self, space: usize, pages: &BTreeMap<String, Json>) -> Result<(), String> {
        for (entry, page) in pages {
            if let Some(reason) = page.get("skipped").and_then(Json::as_str) {
                return Err(format!("{entry}: {reason}"));
            }
        }
        match self {
            Model::Paper { apps, .. } => check_table1(&apps[space], pages),
            Model::Synth { tree, .. } => {
                for (entry, sinks) in tree.record() {
                    let page = pages
                        .get(&entry)
                        .ok_or_else(|| format!("{entry}: no verdict"))?;
                    let sites = sites(page);
                    for s in &sinks {
                        let site = sites
                            .iter()
                            .find(|h| h.file == s.file && h.line == s.line && h.policy == s.policy)
                            .ok_or_else(|| {
                                format!("{entry}: no {} sink at {}:{}", s.policy, s.file, s.line)
                            })?;
                        if site.rules.is_empty() == s.vulnerable {
                            return Err(format!(
                                "{entry}: {} sink at line {} seeded {} but reported {:?}",
                                s.policy,
                                s.line,
                                if s.vulnerable { "vulnerable" } else { "safe" },
                                site.rules
                            ));
                        }
                    }
                    if let Some(h) = sites.iter().find(|h| {
                        !h.rules.is_empty()
                            && !sinks.iter().any(|s| {
                                s.vulnerable
                                    && s.file == h.file
                                    && s.line == h.line
                                    && s.policy == h.policy
                            })
                    }) {
                        return Err(format!(
                            "{entry}: finding {:?} at unseeded {} site {}:{}",
                            h.rules, h.policy, h.file, h.line
                        ));
                    }
                }
                for (tpl, php) in tree.twins() {
                    let verdict = |e: &str| pages.get(e).map(|p| rules(&sites(p)));
                    if verdict(&tpl) != verdict(&php) {
                        return Err(format!(
                            "{tpl}: verdict {:?} differs from its twin {php}: {:?}",
                            verdict(&tpl),
                            verdict(&php)
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

impl PaperApp {
    /// The file with its comment revision, if any, written right after
    /// the first `<?php` tag (same line, so no span moves below it).
    fn render(&self, path: &str) -> Vec<u8> {
        let src = &self.files[path];
        match self.revs.get(path) {
            Some(rev) => {
                let at = find(src, b"<?php").map_or(0, |i| i + 5);
                let mut out = src[..at].to_vec();
                out.extend_from_slice(format!(" /* revision {rev} */").as_bytes());
                out.extend_from_slice(&src[at..]);
                out
            }
            None => src.clone(),
        }
    }

    fn editable(&self, path: &str) -> bool {
        self.files
            .get(path)
            .is_some_and(|s| find(s, b"<?php").is_some())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Table 1 truth: distinct direct (real + false) and indirect reports,
/// deduplicated by site and source as the paper counts them.
fn check_table1(app: &PaperApp, pages: &BTreeMap<String, Json>) -> Result<(), String> {
    let mut direct = BTreeSet::new();
    let mut indirect = BTreeSet::new();
    for page in pages.values() {
        for h in hotspots(page) {
            for f in arr(h, "findings") {
                let key = (str_of(h, "file"), num_of(h, "line"), str_of(f, "source"));
                match str_of(f, "taint").as_str() {
                    "direct" | "direct+indirect" => direct.insert(key),
                    "indirect" => indirect.insert(key),
                    other => return Err(format!("{}: finding with taint {other:?}", app.name)),
                };
            }
        }
    }
    indirect.retain(|k| !direct.contains(k));
    let (d, i) = (direct.len(), indirect.len());
    if d != app.truth.direct_total() || i != app.truth.indirect {
        return Err(format!(
            "{}: {d} direct / {i} indirect reports, Table 1 has {} / {}",
            app.name,
            app.truth.direct_total(),
            app.truth.indirect
        ));
    }
    Ok(())
}

/// A checked site of a page object.
#[derive(Debug)]
struct Site {
    file: String,
    line: u32,
    policy: String,
    rules: Vec<String>,
}

fn sites(page: &Json) -> Vec<Site> {
    hotspots(page)
        .map(|h| Site {
            file: str_of(h, "file"),
            line: num_of(h, "line"),
            policy: str_of(h, "policy"),
            rules: arr(h, "findings").map(|f| str_of(f, "rule")).collect(),
        })
        .collect()
}

/// A page's verdict for twin comparison: `(policy, rule)` per finding.
fn rules(sites: &[Site]) -> Vec<(String, String)> {
    let mut out: Vec<_> = sites
        .iter()
        .flat_map(|s| s.rules.iter().map(|r| (s.policy.clone(), r.clone())))
        .collect();
    out.sort();
    out
}

fn hotspots(page: &Json) -> impl Iterator<Item = &Json> {
    arr(page, "hotspots")
}

fn arr<'a>(j: &'a Json, key: &str) -> impl Iterator<Item = &'a Json> {
    j.get(key).and_then(Json::as_arr).unwrap_or(&[]).iter()
}

fn str_of(j: &Json, key: &str) -> String {
    j.get(key).and_then(Json::as_str).unwrap_or("").to_owned()
}

fn num_of(j: &Json, key: &str) -> u32 {
    j.get(key).and_then(Json::as_num).unwrap_or(0.0) as u32
}

/// Total findings in a page object.
pub fn findings(page: &Json) -> usize {
    hotspots(page).map(|h| arr(h, "findings").count()).sum()
}

/// The files a page object says its verdict read.
pub fn inputs(page: &Json) -> BTreeSet<String> {
    arr(page, "inputs")
        .filter_map(Json::as_str)
        .map(str::to_owned)
        .collect()
}

/// A page object without its timings and engine counters — what must
/// agree between a warm daemon and a cold scan.
pub fn verdict_only(j: &Json) -> Json {
    match j {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "analysis_ms" | "check_ms" | "engine"))
                .map(|(k, v)| (k.clone(), verdict_only(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(verdict_only).collect()),
        other => other.clone(),
    }
}
