//! A small-size run of every workload passes all of its checks, and a
//! traced run reports every per-layer metric with the scan wall clock
//! partitioned by the named layers.

use std::path::PathBuf;

use strbench::{run, Options, Size, LAYER_METRICS, SCAN_PARTS, WORKLOADS};

fn options(workload: &str, trace: bool) -> Options {
    let mode = if trace { "trace" } else { "plain" };
    Options {
        workload: workload.to_owned(),
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Small,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("small-{workload}-{mode}")),
    }
}

#[test]
fn every_workload_passes_its_checks_at_small_size() {
    for w in WORKLOADS {
        let out = run(&options(w, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(out.correct, "{w}: {:?}", out.error);
        assert_eq!(out.failed, 0, "{w}");
        assert!(out.attempted > 0, "{w}");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            ["scan_s", "refresh_s", "peak_rss_mb", "setup_s"],
            "{w}"
        );
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn traced_run_reports_every_layer_and_partitions_the_scan() {
    let opts = options("fleet", true);
    let out = run(&opts).expect("fleet runs");
    assert!(out.correct, "{:?}", out.error);
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    let value = |n: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == n)
            .map(|m| m.value)
            .expect(n)
    };
    let parts: f64 = SCAN_PARTS.iter().map(|p| value(p)).sum();
    assert!(
        (parts - value("run.scan_ms")).abs() < 1e-6,
        "{parts} vs {}",
        value("run.scan_ms")
    );
    assert!(value("daemon.pages_computed") > 0.0);
    assert!(value("tpl.parse_ms") > 0.0, "fleet has template pages");
    let layers = opts.work.join("out").join("fleet.layers.json");
    let doc = std::fs::read_to_string(&layers).expect("layers file written");
    strtaint_daemon::json::parse(&doc).expect("layers file is JSON");
    let trace = std::fs::read_to_string(opts.work.join("out").join("fleet.trace.json"))
        .expect("Chrome trace written");
    strtaint_daemon::json::parse(&trace).expect("Chrome trace is JSON");
}

#[test]
fn checks_catch_a_verdict_that_disagrees_with_the_record() {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("small-teeth");
    let mut session =
        strbench::session::Session::setup("synth-c2", 5, Size::Small, &work).expect("set-up");
    session
        .check_daemon()
        .expect("primed verdicts match the record");
    // Flip one page in the record only: the daemon was not told, so its
    // verdicts must now disagree with the truth.
    session.model.apply(0);
    assert!(session.check_daemon().is_err());
    session.remove();
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let doc = strtaint_daemon::json::parse(&doc).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let layers: Vec<(String, String)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, ["scan_s", "refresh_s", "peak_rss_mb", "setup_s"]);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
