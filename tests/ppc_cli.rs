//! The two bench binaries, end to end: the `ppc` diagnostics CLI and the
//! `all_figures` tables.
//!
//! Each test runs a built binary as a child process with every `PPC_*`
//! variable cleared, then sets only `PPC_SCALE` (the workload floor: 64
//! acquires or episodes), `PPC_WORKERS`, and — for the window replay —
//! a fingerprint epoch small enough that the replay, which checkpoints
//! once per epoch, restores from a checkpoint past event 0.
//!
//! * The `--json` documents are compared against `tests/golden/ppc/*.json`
//!   after masking the host-timed values ([`HOST_TIMED`]) on both sides;
//!   every other value must match exactly. On a mismatch the masked
//!   actual document is written next to the test binary and the failure
//!   prints the `cp` command that re-blesses the golden.
//! * Every subcommand mode also runs in text mode, where the lines the
//!   paper's argument rests on (MCS qnodes migratory, the barrier counter
//!   wide-shared, the hot barrier home, remote-miss lock handoffs, ...)
//!   must appear. `ppc diff`'s text, which prints no host-timed value,
//!   must also match `tests/golden/ppc/diff.txt` byte for byte.
//! * Every `all_figures` table, run serially with no disk cache, must
//!   reproduce `tests/golden/all_figures_tables.txt` byte for byte, and
//!   the ablations run through the sweep's disk cache like the figures.
//!
//! `ppc overhead` times every kernel against wall-clock thresholds, and
//! `all_figures --quick` is diffed at a larger scale, so both run in
//! CI's release `figures` job instead.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sim_stats::Json;

/// Keys whose values are host-timed (wall clock, throughput, worker
/// scheduling). Their values are masked on both sides of a golden
/// comparison; nothing else is.
const HOST_TIMED: [&str; 8] =
    ["nanos", "wall_nanos", "ms", "wall_ms", "events_per_sec", "utilization", "worker", "worker_busy_ms"];

/// The workload floor: `scaled(n)` never goes below 64.
const SCALE: &str = "0.001";

/// Window replay settings: a 256-event epoch, so a checkpoint every 256
/// events, and a window well past the first one.
const WINDOW_ENV: [(&str, &str); 1] = [("PPC_FP_EPOCH", "256")];
const WINDOW: &str = "6000:9000";

const PPC: &str = env!("CARGO_BIN_EXE_ppc");
const ALL_FIGURES: &str = env!("CARGO_BIN_EXE_all_figures");

/// Every `all_figures` table, in the golden's order: the nine figures
/// first.
const TABLES: [&str; 20] = [
    "fig08_lock_latency",
    "fig09_lock_misses",
    "fig10_lock_updates",
    "fig11_barrier_latency",
    "fig12_barrier_misses",
    "fig13_barrier_updates",
    "fig14_reduction_latency",
    "fig15_reduction_misses",
    "fig16_reduction_updates",
    "text_lock_random_delay",
    "text_lock_proportional",
    "text_reduction_imbalance",
    "ablation_cu_threshold",
    "ablation_pu_private",
    "ablation_write_buffer",
    "ablation_uc_flush",
    "ablation_counter_layout",
    "ext_lock_family",
    "latency_distribution",
    "traffic_by_structure",
];

/// The tables golden's settings: serial, and every cell simulated.
const TABLES_ENV: [(&str, &str); 2] = [("PPC_WORKERS", "1"), ("PPC_SWEEP_CACHE", "off")];

/// `ppc-cli/<name>` next to the test binary (inside `target/`).
fn target_dir(name: &str) -> PathBuf {
    let dir = Path::new(PPC).parent().unwrap().join("ppc-cli").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// [`target_dir`], emptied.
fn scratch(name: &str) -> PathBuf {
    let _ = std::fs::remove_dir_all(target_dir(name));
    target_dir(name)
}

/// Runs `bin args...` with a clean `PPC_*` environment plus `env`, from
/// a working directory inside `target/` (where `ppc diff --sweep` and
/// `all_figures` put their default disk cache).
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.current_dir(target_dir("cwd"));
    for (key, _) in std::env::vars() {
        if key.starts_with("PPC_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("PPC_SCALE", SCALE).env("PPC_WORKERS", "2").envs(env.iter().copied()).args(args);
    cmd.output().unwrap_or_else(|e| panic!("{bin} does not run: {e}"))
}

/// [`run`], asserting exit 0; returns stdout.
fn run_ok(bin: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let out = run(bin, args, env);
    assert!(
        out.status.success(),
        "{bin} {} exited {}\nstderr:\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// `doc` with every value under a [`HOST_TIMED`] key replaced by `null`.
fn mask(doc: Json) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let v = if HOST_TIMED.contains(&k.as_str()) { Json::Null } else { mask(v) };
                    (k, v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(mask).collect()),
        other => other,
    }
}

fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("not one JSON document ({e}):\n{text}"))
}

/// `tests/golden/<file>`.
fn golden_path(file: &str) -> PathBuf {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    golden_dir.canonicalize().unwrap_or(golden_dir).join(file)
}

/// Fails unless `actual` equals the contents of `tests/golden/<file>`
/// after `read` transforms them; on a mismatch it writes `actual` next to
/// the test binary and prints the `cp` that re-blesses the golden.
fn assert_matches_golden(file: &str, read: impl Fn(String) -> String, actual: &str) {
    let path = golden_path(file);
    if std::fs::read_to_string(&path).map(read).ok().as_deref() != Some(actual) {
        let out = target_dir("actual").join(Path::new(file).file_name().unwrap());
        std::fs::write(&out, actual).unwrap();
        panic!(
            "{file} differs from the output; if the change is intended, re-bless with:\n  cp {} {}",
            out.display(),
            path.display()
        );
    }
}

/// Compares the masked `actual` document with `tests/golden/ppc/<name>.json`.
fn assert_golden(name: &str, actual: &str) {
    let masked = |doc: String| mask(parse(&doc)).render_pretty();
    assert_matches_golden(&format!("ppc/{name}.json"), masked, &masked(actual.to_string()));
}

/// Lines of `text` containing every one of `parts`, in order.
fn lines_with(text: &str, parts: &[&str]) -> usize {
    text.lines()
        .filter(|line| {
            let mut rest = *line;
            parts.iter().all(|p| match rest.find(p) {
                Some(at) => {
                    rest = &rest[at + p.len()..];
                    true
                }
                None => false,
            })
        })
        .count()
}

#[track_caller]
fn assert_lines(text: &str, parts: &[&str], expected: usize) {
    let n = lines_with(text, parts);
    assert_eq!(n, expected, "lines containing {parts:?}:\n{text}");
}

#[track_caller]
fn assert_some_line(text: &str, parts: &[&str]) {
    assert!(lines_with(text, parts) > 0, "no line contains {parts:?}:\n{text}");
}

#[test]
fn observed_views_share_one_document_matching_the_golden() {
    let lines = run_ok(PPC, &["lines", "mcs-lock", "2", "--json"], &[]);
    for view in ["crit", "net"] {
        assert_eq!(run_ok(PPC, &[view, "mcs-lock", "2", "--json"], &[]), lines, "ppc {view} --json");
    }
    let dir = scratch("report-json");
    let report = run_ok(PPC, &["report", "mcs-lock", "2", dir.to_str().unwrap(), "--json"], &[]);
    assert_eq!(report, lines, "ppc report --json");
    assert_eq!(std::fs::read_to_string(dir.join("report.json")).unwrap() + "\n", report);
    assert_golden("lines", &lines);

    // The MCS queue nodes migrate from requester to requester.
    let doc = parse(&lines);
    let qnodes = doc.get("runs").and_then(Json::as_arr).unwrap().iter().filter(|run| {
        let structures = run.get("obs").and_then(|o| o.get("lineage")).and_then(|l| l.get("by_structure"));
        structures.and_then(Json::as_arr).unwrap().iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("qnode[*]")
                && s.get("pattern").and_then(Json::as_str) == Some("migratory")
        })
    });
    assert_eq!(qnodes.count(), 3, "qnode[*] is migratory under WI, PU and CU");
}

#[test]
fn diff_json_matches_the_golden() {
    let out = run_ok(PPC, &["diff", "mcs-lock", "wi", "pu", "4", "--json"], &[]);
    assert!(parse(&out).get("delta").and_then(|d| d.get("crit")).is_some(), "delta carries crit");
    assert_golden("diff", &out);

    // A barrier kernel, so the crit section carries a barrier row.
    let out = run_ok(PPC, &["diff", "central-barrier", "wi", "cu", "4", "--json"], &[]);
    let crit = parse(&out).get("delta").and_then(|d| d.get("crit")).cloned().unwrap();
    assert_eq!(crit.get("barriers").and_then(Json::as_arr).map(<[Json]>::len), Some(1), "one barrier row");
    assert_golden("diff_barrier", &out);
}

#[test]
fn diff_sweep_deltas_equal_the_pairwise_deltas() {
    let sweep = parse(&run_ok(PPC, &["diff", "mcs-lock", "--sweep", "2", "--json"], &[]));
    let deltas = sweep.get("deltas").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(deltas.len(), 2, "PU and CU against the WI baseline");
    for (proto, swept) in ["pu", "cu"].into_iter().zip(deltas) {
        let pair = parse(&run_ok(PPC, &["diff", "mcs-lock", "wi", proto, "2", "--json"], &[]));
        let delta = pair.get("delta").cloned().unwrap();
        assert_eq!(mask(swept).render_pretty(), mask(delta).render_pretty(), "WI vs {proto}");
    }
}

#[test]
fn replay_json_matches_the_golden() {
    let out = run_ok(PPC, &["replay", "mcs-lock", "wi", "pu", "4", "--json"], &[]);
    let doc = parse(&out);
    let first = doc.get("first_divergent_event").expect("a first divergent event");
    let index = first.get("index").and_then(Json::as_u64);
    for side in ["a", "b"] {
        let event = first.get(side).unwrap();
        assert_eq!(event.get("index").and_then(Json::as_u64), index, "side {side}");
        assert!(!event.get("label").and_then(Json::as_str).unwrap().is_empty(), "side {side}");
    }
    assert!(doc.get("fingerprint").and_then(Json::as_str).unwrap().contains("diverged"));
    assert_golden("replay", &out);
}

#[test]
fn window_replay_json_matches_the_golden() {
    let out = run_ok(PPC, &["replay", "ticket-lock", "wi", "4", "--window", WINDOW, "--json"], &WINDOW_ENV);
    let doc = parse(&out);
    let field = |k| doc.get(k).and_then(Json::as_u64).unwrap();
    assert!(field("replayed_from_events") > 0 && field("replayed_from_cycle") > 0, "restored mid-run");
    assert_eq!(field("revalidated_cycles"), field("original_cycles"));
    assert_golden("replay_window", &out);
}

#[test]
fn harness_json_is_one_document_matching_the_golden() {
    let dir = scratch("harness-json");
    let out = run_ok(PPC, &["harness", "mcs-lock", "2", dir.to_str().unwrap(), "--json"], &[]);
    assert_eq!(std::fs::read_to_string(dir.join("harness.json")).unwrap(), out);
    let doc = parse(&out);
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), 3);
    for run in runs {
        let host = run.get("host").unwrap();
        let events_per_sec = match host.get("events_per_sec") {
            Some(Json::F64(v)) => *v,
            Some(Json::U64(v)) => *v as f64,
            other => panic!("events_per_sec is not a number: {other:?}"),
        };
        assert!(events_per_sec > 0.0);
        let dispatch = host.get("dispatch").and_then(Json::as_arr).unwrap();
        let ms: f64 = dispatch
            .iter()
            .map(|c| match c.get("ms") {
                Some(Json::F64(v)) => *v,
                Some(Json::U64(v)) => *v as f64,
                _ => 0.0,
            })
            .sum();
        assert!(ms > 0.0, "dispatch categories account for some time");
    }
    assert_golden("harness", &out);
}

#[test]
fn observed_views_run_in_text_mode() {
    let dir = scratch("report-text");
    let report = run_ok(PPC, &["report", "mcs-lock", "2", dir.to_str().unwrap()], &[]);
    assert_lines(&report, &["== ", " == ", " cycles, ", " flow pairs, ", " state slices"], 3);
    assert_some_line(&report, &["wrote ", "report.json and ", "trace.json ("]);

    let mcs = run_ok(PPC, &["lines", "mcs-lock", "4"], &[]);
    assert_some_line(&mcs, &["qnode[*]", "migratory"]);
    let central = run_ok(PPC, &["lines", "central-barrier", "4"], &[]);
    assert_some_line(&central, &["count", "wide-shared"]);
}

/// The drop counts of every capped layer in one `report.json` run, named
/// as `ppc report`'s status line names them.
fn dropped_in(run: &Json) -> Vec<(&'static str, u64)> {
    let obs = run.get("obs").unwrap();
    let at = |path: &[&str]| path.iter().try_fold(obs, |v, k| v.get(k)).unwrap();
    let count = |path: &[&str]| at(path).as_u64().unwrap();
    let sum = |path: &[&str], key| {
        at(path).as_arr().unwrap().iter().map(|item| item.get(key).and_then(Json::as_u64).unwrap()).sum()
    };
    vec![
        ("timeline slices", sum(&["per_node"], "timeline_dropped")),
        ("samples", count(&["samples", "dropped"])),
        ("lineage events", count(&["lineage", "events_dropped"])),
        ("lock records", sum(&["crit", "locks"], "records_dropped")),
        ("barrier records", sum(&["crit", "barriers"], "records_dropped")),
        ("link samples", count(&["netobs", "link_samples", "dropped"])),
    ]
}

/// Under PU every arrival at a 16-processor centralized barrier updates
/// 15 sharers, which overflows the lineage log even at the workload
/// floor: the status line says so, with the count `report.json` records,
/// and names no layer that dropped nothing.
#[test]
fn report_names_every_layer_it_cut_short() {
    let dir = scratch("report-dropped");
    let out = run_ok(PPC, &["report", "central-barrier", "16", dir.to_str().unwrap()], &[]);
    let doc = parse(&std::fs::read_to_string(dir.join("report.json")).unwrap());
    for run in doc.get("runs").and_then(Json::as_arr).unwrap() {
        let protocol = run.get("protocol").and_then(Json::as_str).unwrap();
        let status = out.lines().find(|l| l.starts_with(&format!("== {protocol} == "))).unwrap();
        for (layer, n) in dropped_in(run) {
            let named = status.contains(&format!(", {n} {layer} dropped"));
            assert_eq!(named, n > 0, "{protocol}: {n} {layer} dropped; status line: {status}");
        }
    }
    assert_eq!(lines_with(&out, &["PU", " lineage events dropped"]), 1, "{out}");
}

#[test]
fn crit_runs_in_text_mode() {
    let mcs = run_ok(PPC, &["crit", "mcs-lock", "4"], &[]);
    assert_lines(&mcs, &["lock 0: ", " acquires, ", " handoffs"], 3);
    assert_some_line(&mcs, &["split: release-visibility ", "remote-miss"]);
    assert_some_line(&mcs, &["handoff n", " -> n", ": latency"]);

    // 64 episodes per protocol; the table shows 24 and counts the rest.
    let central = run_ok(PPC, &["crit", "central-barrier", "4"], &[]);
    assert_lines(&central, &["episode ", ": last-arriver n"], 72);
    assert_lines(&central, &["64 episodes (0 incomplete)"], 3);
    assert_lines(&central, &["last-arriver tally:"], 3);
    assert_lines(&central, &["more episodes not shown"], 3);

    let reduction = run_ok(PPC, &["crit", "par-reduction", "4"], &[]);
    assert_lines(&reduction, &["lock 256: ", " acquires"], 3);
    assert_lines(&reduction, &["barrier 256: ", " episodes (0 incomplete)"], 3);
    assert_lines(&reduction, &["critical path: ends on node"], 3);
}

#[test]
fn net_runs_in_text_mode() {
    // `net`'s default machine: the 4x4 mesh, where the hot-home effect
    // shows for the MCS lock too.
    let central = run_ok(PPC, &["net", "central-barrier", "16"], &[]);
    assert_lines(&central, &["journey accounting closes"], 3);
    assert_some_line(&central, &["PU hot home: node 0 carries peak rx-port traffic"]);
    assert_some_line(&central, &["majority-useless: yes"]);
    assert_some_line(&central, &["CU useless updates at node 0: ", "(reduced: yes)"]);
    assert_lines(&central, &["rx-port utilisation per node (4x4 mesh)"], 3);
    assert_lines(&central, &["busiest physical links:"], 3);

    let mcs = run_ok(PPC, &["net", "mcs-lock", "16"], &[]);
    assert_lines(&mcs, &["journey accounting closes"], 3);
    assert_some_line(&mcs, &["PU hot home: node 0", "majority-useless: yes"]);
    assert_some_line(&mcs, &["CU useless updates at node 0: ", "(reduced: yes)"]);
}

#[test]
fn harness_runs_in_text_mode() {
    let dir = scratch("harness-text");
    let out = run_ok(PPC, &["harness", "mcs-lock", "2", dir.to_str().unwrap()], &[]);
    assert_lines(&out, &["throughput: ", " events in ", " events/sec"], 3);
    assert_lines(&out, &["fingerprint: ", " epochs x "], 3);
    assert_lines(&out, &["dispatch breakdown (wall ", " ms):"], 3);
    assert_lines(&out, &["queue: ", " scheduled, peak depth "], 3);
    assert_some_line(&out, &["determinism: WI re-run fingerprint chain identical"]);
    assert_some_line(&out, &["golden guard: hostobs on/off simulated results identical"]);
    assert_some_line(&out, &["sweep (cold): 6 cells"]);
    assert_some_line(&out, &["determinism: sweep fingerprints match direct-run chains"]);
    assert!(dir.join("harness.json").exists() && dir.join("sweep_trace.json").exists());

    let central = run_ok(PPC, &["harness", "central-barrier", "2", dir.to_str().unwrap()], &[]);
    assert_lines(&central, &["fingerprint: ", " epochs x "], 3);
    assert_some_line(&central, &["determinism: sweep fingerprints match direct-run chains"]);
}

#[test]
fn diff_and_replay_run_in_text_mode() {
    let diff = run_ok(PPC, &["diff", "mcs-lock", "wi", "pu", "4"], &[]);
    assert!(diff.lines().any(|l| l.starts_with("== PU ==")), "{diff}");
    assert_some_line(&diff, &["remote-miss handoff cycles", "-> 0 "]);
    // The text is pinned byte for byte, with a barrier kernel's too.
    let central = run_ok(PPC, &["diff", "central-barrier", "wi", "cu", "4"], &[]);
    assert_matches_golden("ppc/diff.txt", |golden| golden, &(diff + &central));
    let sweep = run_ok(PPC, &["diff", "mcs-lock", "--sweep", "2"], &[]);
    assert_some_line(&sweep, &["comparative: mcs-lock across WI/PU/CU at 2 procs"]);

    let replay = run_ok(PPC, &["replay", "mcs-lock", "wi", "pu", "4"], &[]);
    assert_some_line(&replay, &["first divergent event: index "]);
    assert_some_line(&replay, &["replayed both sides from checkpoint at event "]);
    assert_some_line(&replay, &["window obs WI: ", "msgs="]);
    assert_some_line(&replay, &["window obs PU: ", "msgs="]);

    let window = run_ok(PPC, &["replay", "ticket-lock", "wi", "4", "--window", WINDOW], &WINDOW_ENV);
    assert_some_line(&window, &["restored at cycle ", " (event "]);
    assert_lines(&window, &["restored at cycle 0 "], 0);
    assert_some_line(&window, &["matches the original run"]);
}

#[test]
fn unknown_subcommand_fails_and_lists_all_eight() {
    let out = run(PPC, &["obs_report"], &[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for sub in ["report", "lines", "crit", "net", "harness", "diff", "replay", "overhead"] {
        assert_some_line(&stderr, &[&format!("  {sub} ")]);
    }
}

#[test]
fn all_figures_tables_match_the_golden() {
    let out = run_ok(ALL_FIGURES, &TABLES, &TABLES_ENV);
    assert_matches_golden("all_figures_tables.txt", |golden| golden, &out);
}

/// A4 and A6 are sweep cells like every other table's: a first run
/// writes one disk entry per distinct cell, and a second process, with an
/// empty memo, decodes them all, rewrites none and prints the same bytes.
#[test]
fn ablations_use_the_disk_cache() {
    let cache = scratch("ablation-cache");
    let env = [("PPC_WORKERS", "2"), ("PPC_SWEEP_CACHE", cache.to_str().unwrap())];
    let tables = ["ablation_uc_flush", "ablation_counter_layout"];
    let entries = || {
        let mut files: Vec<_> = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name(), e.metadata().unwrap().modified().unwrap()))
            .collect();
        files.sort();
        files
    };
    let cold = run_ok(ALL_FIGURES, &tables, &env);
    let written = entries();
    assert_eq!(written.len(), 10, "one entry per distinct cell: {written:?}");
    let warm = run_ok(ALL_FIGURES, &tables, &env);
    assert_eq!(warm, cold, "the warm run prints the same bytes");
    assert_eq!(entries(), written, "the warm run rewrote no entry");
}

#[test]
fn all_figures_prints_the_nine_figures_by_default() {
    let out = run_ok(ALL_FIGURES, &[], &TABLES_ENV);
    assert_lines(&out, &["Figure "], 9);
    // Every table starts with a blank line and its title; the tenth is the
    // first §4.1 variant.
    let golden = std::fs::read_to_string(golden_path("all_figures_tables.txt")).unwrap();
    let tenth = golden.find("\nSection 4.1 variant").expect("the golden holds the §4.1 variant");
    assert_eq!(out, golden[..tenth], "all_figures with no table prints the golden's first nine");
}

#[test]
fn all_figures_rejects_an_unknown_table_and_lists_all_twenty() {
    let out = run(ALL_FIGURES, &["fig17_lock_misses"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for table in TABLES {
        assert_some_line(&stderr, &[&format!("  {table} ")]);
    }
    let out = run(ALL_FIGURES, &["--quick", "ablation_uc_flush"], &[]);
    assert_eq!(out.status.code(), Some(2), "--quick applies to the figures only");
}
