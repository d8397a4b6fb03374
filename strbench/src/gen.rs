//! Seeded source-tree generators and their vulnerability records.
//!
//! A generated tree is a list of page specs plus one shared library.
//! Every page and every seeded sink is rendered from its spec, so the
//! generator knows — independently of the analyzer — the file, line and
//! policy of each sink and whether it is vulnerable. Edits change specs
//! (and re-render the touched files), so the record follows every edit
//! the script makes.

use std::collections::BTreeMap;

/// The built-in policies, in registry order.
pub const POLICIES: [&str; 5] = ["sql", "xss", "shell", "path", "eval"];

// Names of one length each: query and grammar sizes then do not depend
// on which names the seed draws.
const TABLES: [&str; 6] = ["users", "posts", "items", "votes", "files", "notes"];
const PARAMS: [&str; 6] = ["uid", "cat", "ref", "tag", "sid", "key"];

/// SplitMix64: a tiny deterministic generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    fn pick(&mut self, from: &[&'static str]) -> &'static str {
        from[self.below(from.len())]
    }
}

/// One sink the generator placed, with its expected verdict.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeededSink {
    /// File holding the sink (the page itself).
    pub file: String,
    /// 1-based line of the sink call.
    pub line: u32,
    /// Policy whose checker owns the sink.
    pub policy: &'static str,
    /// `true` when the tainted value reaches the sink unsanitized.
    pub vulnerable: bool,
}

/// One generated page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSpec {
    /// Page number (`page<id>.php`).
    pub id: usize,
    /// Policy of every sink on the page.
    pub policy: &'static str,
    /// Request parameter the page reads.
    pub param: &'static str,
    /// One table name per sink (only SQL pages have more than one sink).
    pub tables: Vec<&'static str>,
    /// `str_replace` steps applied to the request value.
    pub chain: usize,
    /// Whether the page's sanitizer is in place.
    pub sanitized: bool,
    /// Whether the page is also emitted in the template language.
    pub twin: bool,
    /// Markup lines after the code.
    pub filler: usize,
}

/// Shape of a generated tree.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Number of page specs.
    pub pages: usize,
    /// SQL sinks per SQL page.
    pub sinks: usize,
    /// `str_replace` chain length.
    pub chain: usize,
    /// Helper functions in `lib.php`.
    pub helpers: usize,
    /// Markup lines per page.
    pub filler: usize,
    /// Policies dealt round-robin over the pages.
    pub policies: &'static [&'static str],
    /// Every `twin_every`-th spec (by shuffled position) is also a
    /// template page; 0 = none.
    pub twin_every: usize,
}

impl Shape {
    /// `synth-c2`: SQL pages with three sinks sharing one value through
    /// a two-step `str_replace` chain.
    pub fn synth_c2(pages: usize) -> Shape {
        Shape {
            pages,
            sinks: 3,
            chain: 2,
            helpers: 20,
            filler: 60,
            policies: &POLICIES[..1],
            twin_every: 0,
        }
    }

    /// `fleet`: many small one-sink pages over all five policies, a
    /// fifth of them also written as templates.
    pub fn fleet(pages: usize) -> Shape {
        Shape {
            pages,
            sinks: 1,
            chain: 0,
            helpers: 10,
            filler: 8,
            policies: &POLICIES,
            twin_every: 5,
        }
    }
}

/// Source language of a page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// `.php`
    Php,
    /// `.tpl`
    Tpl,
}

impl Lang {
    fn ext(self) -> &'static str {
        match self {
            Lang::Php => "php",
            Lang::Tpl => "tpl",
        }
    }
}

/// One scripted edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Flip the sanitizer of spec `i` (both members of a twin pair).
    Toggle(usize),
    /// Comment edit to the shared `lib.php` (every page recomputes).
    Library,
}

/// A generated tree: specs, the shared library revision, and the
/// edit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synth {
    /// Page specs, in page-number order.
    pub specs: Vec<PageSpec>,
    helpers: usize,
    lib_rev: u32,
}

impl Synth {
    /// Generates a tree of `shape` from `seed`. Half the pages (and an
    /// equal share per policy) are vulnerable; which ones, the request
    /// parameters and table names are drawn from the seed, the counts
    /// are not.
    pub fn generate(shape: &Shape, seed: u64) -> Synth {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..shape.pages).collect();
        rng.shuffle(&mut order);
        let mut specs: Vec<PageSpec> = (0..shape.pages)
            .map(|id| PageSpec {
                id,
                policy: "sql",
                param: "",
                tables: Vec::new(),
                chain: shape.chain,
                sanitized: true,
                twin: false,
                filler: shape.filler,
            })
            .collect();
        // Position k of the shuffled order fixes policy, vulnerability
        // and twin-ness, so each is an exact count for every seed.
        let np = shape.policies.len();
        for (k, &i) in order.iter().enumerate() {
            let s = &mut specs[i];
            s.policy = shape.policies[k % np];
            s.sanitized = (k / np) % 2 == 1;
            s.twin = shape.twin_every != 0 && (k / np).is_multiple_of(shape.twin_every);
        }
        for s in &mut specs {
            s.param = rng.pick(&PARAMS);
            let n = if s.policy == "sql" {
                shape.sinks.max(1)
            } else {
                1
            };
            s.tables = (0..n).map(|_| rng.pick(&TABLES)).collect();
        }
        Synth {
            specs,
            helpers: shape.helpers,
            lib_rev: 0,
        }
    }

    /// Entry pages: `page<i>.php` for every spec, plus `page<i>.tpl`
    /// for twins.
    pub fn entries(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.specs {
            out.push(page_path(s.id, Lang::Php));
            if s.twin {
                out.push(page_path(s.id, Lang::Tpl));
            }
        }
        out
    }

    /// Every file of the tree with its contents.
    pub fn files(&self) -> BTreeMap<String, String> {
        let mut files = BTreeMap::new();
        files.insert("lib.php".to_owned(), self.library());
        for s in &self.specs {
            files.insert(page_path(s.id, Lang::Php), render(s, Lang::Php).0);
            if s.twin {
                files.insert(page_path(s.id, Lang::Tpl), render(s, Lang::Tpl).0);
            }
        }
        files
    }

    /// The vulnerability record: every seeded sink by entry page.
    pub fn record(&self) -> BTreeMap<String, Vec<SeededSink>> {
        let mut out = BTreeMap::new();
        for s in &self.specs {
            out.insert(page_path(s.id, Lang::Php), render(s, Lang::Php).1);
            if s.twin {
                out.insert(page_path(s.id, Lang::Tpl), render(s, Lang::Tpl).1);
            }
        }
        out
    }

    /// `(template page, PHP twin)` pairs.
    pub fn twins(&self) -> Vec<(String, String)> {
        self.specs
            .iter()
            .filter(|s| s.twin)
            .map(|s| (page_path(s.id, Lang::Tpl), page_path(s.id, Lang::Php)))
            .collect()
    }

    /// Applies `edit`, returning the files it rewrote.
    pub fn apply(&mut self, edit: Edit) -> Vec<(String, String)> {
        match edit {
            Edit::Toggle(i) => {
                let s = &mut self.specs[i];
                s.sanitized = !s.sanitized;
                let s = &self.specs[i];
                let mut out = vec![(page_path(s.id, Lang::Php), render(s, Lang::Php).0)];
                if s.twin {
                    out.push((page_path(s.id, Lang::Tpl), render(s, Lang::Tpl).0));
                }
                out
            }
            Edit::Library => {
                self.lib_rev += 1;
                vec![("lib.php".to_owned(), self.library())]
            }
        }
    }

    /// The edit script. `synth-c2` toggles every page once, in seeded
    /// order; `fleet` toggles `toggles` seeded pages with `library`
    /// shared-include edits spread evenly among them.
    pub fn script(&self, seed: u64, toggles: usize, library: usize) -> Vec<Edit> {
        let mut rng = Rng::new(seed ^ 0xED17);
        let mut ids: Vec<usize> = (0..self.specs.len()).collect();
        rng.shuffle(&mut ids);
        let mut out: Vec<Edit> = ids.into_iter().take(toggles).map(Edit::Toggle).collect();
        for k in 0..library {
            let at = (k + 1) * out.len() / (library + 1) + k;
            out.insert(at.min(out.len()), Edit::Library);
        }
        out
    }

    fn library(&self) -> String {
        let mut lib = String::from("<?php\n");
        lib.push_str(&format!("// revision {}\n", self.lib_rev));
        lib.push_str("function s_clean($v)\n{\n    return addslashes($v);\n}\n");
        lib.push_str(&strtaint_corpus::filler::helper_functions(
            "s",
            self.helpers,
        ));
        lib
    }
}

/// Path of page `id` in `lang`.
pub fn page_path(id: usize, lang: Lang) -> String {
    format!("page{id}.{}", lang.ext())
}

/// Renders one page: its source and the sinks it seeds. The sanitized
/// and unsanitized forms have the same line count, so a toggle moves
/// no sink.
fn render(s: &PageSpec, lang: Lang) -> (String, Vec<SeededSink>) {
    let file = page_path(s.id, lang);
    let mut lines: Vec<String> = Vec::new();
    let mut sinks = Vec::new();
    let tpl = lang == Lang::Tpl;
    let mut push_sink = |lines: &mut Vec<String>, text: String| {
        lines.push(text);
        sinks.push(SeededSink {
            file: file.clone(),
            line: lines.len() as u32,
            policy: s.policy,
            vulnerable: !s.sanitized,
        });
    };
    if tpl {
        lines.push("{% include \"lib.php\" %}".to_owned());
        lines.push(format!("{{% var v = req.query.{} %}}", s.param));
    } else {
        lines.push("<?php".to_owned());
        lines.push("include('lib.php');".to_owned());
        lines.push(format!("$v = $_GET['{}'];", s.param));
    }
    for i in 0..s.chain {
        lines.push(if tpl {
            format!("{{% v = str_replace(\"[t{i}]\", \"<t{i}>\", v) %}}")
        } else {
            format!("$v = str_replace('[t{i}]', '<t{i}>', $v);")
        });
    }
    // The sanitizer line: a confining guard (or, for SQL, the library's
    // escaping call) when sanitized, a neutral statement otherwise.
    let guard = |re: &str| {
        if tpl {
            format!("{{% if !matches(\"/^{re}+$/\", v) %}}{{% exit %}}{{% end %}}")
        } else {
            format!("if (!preg_match('/^{re}+$/', $v)) {{ exit; }}")
        }
    };
    let neutral = || {
        if tpl {
            "{% var z = 1 %}".to_owned()
        } else {
            "$z = 1;".to_owned()
        }
    };
    lines.push(match (s.policy, s.sanitized) {
        (_, false) | ("xss", true) => neutral(),
        ("sql", true) if !tpl => "$v = s_clean($v);".to_owned(),
        ("sql", true) | ("eval", true) => guard("[0-9]"),
        ("shell", true) => guard("[a-zA-Z0-9_]"),
        (_, true) => guard("[a-z]"),
    });
    for (k, t) in s.tables.iter().enumerate() {
        let col = PARAMS[(s.id + k) % PARAMS.len()];
        let text = match (s.policy, tpl) {
            ("sql", false) => {
                let var = if k == 0 {
                    "$r".to_owned()
                } else {
                    format!("$r{k}")
                };
                format!("{var} = $DB->query(\"SELECT * FROM {t} WHERE {col}='$v'\");")
            }
            ("sql", true) => {
                format!("{{% db.query(\"SELECT * FROM {t} WHERE {col}='\" + v + \"'\") %}}")
            }
            ("xss", false) if s.sanitized => "echo htmlspecialchars($v);".to_owned(),
            ("xss", false) => "echo $v;".to_owned(),
            ("xss", true) if s.sanitized => "{{ escapeHtml(v) }}".to_owned(),
            ("xss", true) => "{{ v }}".to_owned(),
            ("shell", false) => "system(\"convert thumb/\" . $v . \" out.png\");".to_owned(),
            ("shell", true) => "{% system(\"convert thumb/\" + v + \" out.png\") %}".to_owned(),
            ("path", false) => "readfile('pages/' . $v . '.txt');".to_owned(),
            ("path", true) => "{% readfile(\"pages/\" + v + \".txt\") %}".to_owned(),
            ("eval", false) => "eval('$result = ' . $v . ';');".to_owned(),
            (_, true) => "{% eval(\"result = \" + v + \";\") %}".to_owned(),
            (p, _) => unreachable!("no sink form for policy {p}"),
        };
        push_sink(&mut lines, text);
    }
    let mut src = lines.join("\n");
    src.push('\n');
    if tpl {
        for i in 0..s.filler {
            src.push_str(&format!(
                "<p class=\"r{i}\">item {i} of page {}</p>\n",
                s.id
            ));
        }
    } else {
        src.push_str("?>\n");
        src.push_str(&strtaint_corpus::filler::html_page(
            &format!("p{}", s.id),
            s.filler,
        ));
    }
    (src, sinks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        for shape in [Shape::synth_c2(6), Shape::fleet(40)] {
            let a = Synth::generate(&shape, 11);
            let b = Synth::generate(&shape, 11);
            assert_eq!(a.files(), b.files());
            assert_eq!(a.record(), b.record());
            assert_eq!(a.script(11, 10, 2), b.script(11, 10, 2));
            let c = Synth::generate(&shape, 12);
            assert_ne!(a.files(), c.files(), "the seed must move content");
            assert_eq!(a.entries().len(), c.entries().len(), "but not shape");
        }
    }

    #[test]
    fn counts_do_not_depend_on_the_seed() {
        for seed in 0..8 {
            let t = Synth::generate(&Shape::fleet(40), seed);
            let vulnerable = t.specs.iter().filter(|s| !s.sanitized).count();
            assert_eq!(vulnerable, 20);
            assert_eq!(t.twins().len(), 10);
            for p in POLICIES {
                assert_eq!(t.specs.iter().filter(|s| s.policy == p).count(), 8, "{p}");
            }
        }
    }

    #[test]
    fn toggling_twice_restores_tree_and_record() {
        let mut t = Synth::generate(&Shape::fleet(20), 3);
        let before = t.clone();
        let twin = t
            .specs
            .iter()
            .position(|s| s.twin)
            .expect("fleet has twins");
        let once = t.apply(Edit::Toggle(twin));
        assert_eq!(once.len(), 2, "a twin toggle rewrites both members");
        assert_ne!(t.record(), before.record());
        // Line numbers hold across a toggle; only the verdicts flip.
        let lines = |r: &BTreeMap<String, Vec<SeededSink>>| {
            r.values()
                .flatten()
                .map(|s| (s.file.clone(), s.line))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&t.record()), lines(&before.record()));
        t.apply(Edit::Toggle(twin));
        assert_eq!(t, before);
        assert_eq!(t.files(), before.files());
        assert_eq!(t.record(), before.record());
    }

    #[test]
    fn generated_pages_parse() {
        let t = Synth::generate(&Shape::fleet(10), 5);
        for (path, src) in t.files() {
            if path.ends_with(".tpl") {
                strtaint_tpl::parse(src.as_bytes()).unwrap_or_else(|e| panic!("{path}: {e}"));
            } else {
                strtaint_php::parse(src.as_bytes()).unwrap_or_else(|e| panic!("{path}: {e}"));
            }
        }
    }
}
