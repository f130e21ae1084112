//! End-to-end checks on `memifctl`'s trace surface: truncated and
//! corrupt traces must die with a clear error and a nonzero exit (never
//! a panic), and a crashed-then-recovered run's trace must replay
//! bit-identically.

use std::path::PathBuf;
use std::process::{Command, Output};

fn memifctl(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memifctl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("memifctl runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memifctl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// Asserts the invocation failed cleanly: exit code 2, a one-line
/// `memifctl: ...` diagnostic, and no panic backtrace.
fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("memifctl:"),
        "diagnostic missing prefix: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "diagnostic should mention '{needle}': {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "tool panicked instead of failing cleanly: {stderr}"
    );
}

fn record_move_trace(dir: &std::path::Path) -> String {
    let out = memifctl(
        dir,
        &["move", "--count", "8", "--trace-events", "trace.jsonl"],
    );
    assert!(out.status.success(), "recording failed: {out:?}");
    std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace written")
}

#[test]
fn truncated_trace_is_a_clean_error() {
    let dir = tempdir("truncated");
    let text = record_move_trace(&dir);
    // Cut the file mid-way: the tail events and every terminal-status
    // line are gone, and the last surviving line is sliced mid-record.
    let cut = &text[..text.len() / 2];
    std::fs::write(dir.join("cut.jsonl"), cut).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "cut.jsonl"]);
    assert_clean_failure(&out, "diverge");
}

#[test]
fn trace_truncated_inside_the_header_is_a_clean_error() {
    let dir = tempdir("cut-header");
    let text = record_move_trace(&dir);
    let header_len = text.lines().next().expect("header line").len();
    std::fs::write(dir.join("cut.jsonl"), &text[..header_len / 2]).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "cut.jsonl"]);
    assert_clean_failure(&out, "memifctl:");
}

#[test]
fn corrupt_header_values_are_clean_errors() {
    let dir = tempdir("corrupt");
    let text = record_move_trace(&dir);
    // A flipped digit can zero a count the harness would otherwise
    // trust; each must be rejected up front, not panic mid-run.
    for (from, to, needle) in [
        ("pages=16", "pages=0", "--pages"),
        ("count=8", "count=0", "--count"),
        ("window=8", "window=0", "--window"),
        ("page-size=4k", "page-size=9q", "--page-size"),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "substitution '{from}' must apply");
        std::fs::write(dir.join("bad.jsonl"), bad).unwrap();
        let out = memifctl(&dir, &["replay", "--from", "bad.jsonl"]);
        assert_clean_failure(&out, needle);
    }
}

#[test]
fn binary_garbage_is_a_clean_error() {
    let dir = tempdir("garbage");
    std::fs::write(dir.join("bin.jsonl"), [0x80u8, 0xff, 0x00, 0x41]).unwrap();
    let out = memifctl(&dir, &["replay", "--from", "bin.jsonl"]);
    assert_clean_failure(&out, "UTF-8");
}

#[test]
fn recover_then_replay_round_trips_bit_identically() {
    let dir = tempdir("recover-replay");
    // A crash mid-chain plus recovery and re-drive, traced end to end.
    let out = memifctl(
        &dir,
        &[
            "recover",
            "--crash-point",
            "mid-chain",
            "--crash-nth",
            "2",
            "--count",
            "8",
            "--trace-events",
            "recover.jsonl",
        ],
    );
    assert!(out.status.success(), "recover run failed: {out:?}");
    let replay = memifctl(&dir, &["replay", "--from", "recover.jsonl"]);
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success() && stdout.contains("replay OK"),
        "recovered trace must replay bit-identically: {replay:?}"
    );
    // The trace carries the reboot marker between the crash and the
    // re-driven tail.
    let text = std::fs::read_to_string(dir.join("recover.jsonl")).unwrap();
    assert!(
        text.contains("\"type\":\"recover\""),
        "trace should record the recovery itself"
    );
}

#[test]
fn recover_json_reports_the_stable_counter_keys() {
    let dir = tempdir("recover-json");
    let out = memifctl(
        &dir,
        &[
            "recover",
            "--crash-point",
            "post-launch",
            "--count",
            "6",
            "--json",
            "true",
        ],
    );
    assert!(out.status.success(), "recover failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"crashed\":",
        "\"journal_records\":",
        "\"recovered_requests\":",
        "\"rolled_back\":",
        "\"redriven\":",
        "\"resubmitted\":",
        "\"wall_ns\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn stats_json_carries_the_scheduler_counters() {
    let dir = tempdir("stats-sched-json");
    let out = memifctl(&dir, &["stats", "--count", "4", "--json", "true"]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"events_executed\":",
        "\"events_cancelled\":",
        "\"peak_pending\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    // A real run executes events and holds several pending at once; the
    // counters must carry live values, not zero placeholders.
    let field = |key: &str| -> u64 {
        let at = stdout.find(key).unwrap() + key.len();
        stdout[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(field("\"events_executed\":") > 0, "no events executed?");
    assert!(field("\"peak_pending\":") > 0, "nothing ever pending?");
}

/// A trace captured on the PR 7 scheduler (BinaryHeap + tombstone set)
/// must replay bit-identically on the current one: the dispatch-order
/// contract `(time, insertion)` is part of the trace format's ABI.
#[test]
fn committed_pr7_trace_replays_bit_identically() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/waterfall_pr7.jsonl")
        .into_os_string()
        .into_string()
        .expect("utf-8 path");
    let dir = tempdir("pr7-fixture");
    let out = memifctl(&dir, &["replay", "--from", &fixture]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("replay OK"),
        "PR 7 fixture must replay bit-identically: {out:?}"
    );
    assert!(
        stdout.contains("1356 events") && stdout.contains("185 terminal statuses"),
        "fixture shape drifted: {stdout}"
    );
}

#[test]
fn stats_json_carries_the_recovery_counters() {
    let dir = tempdir("stats-json");
    let out = memifctl(&dir, &["stats", "--count", "4", "--json", "true"]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"journal_records\":",
        "\"recovered_requests\":",
        "\"rolled_back\":",
        "\"redriven\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

/// Inputs that once panicked, hung, or were silently rewritten: each
/// must now fail up front with exit 2 and a diagnostic naming the flag.
#[test]
fn bad_run_inputs_are_clean_errors() {
    let dir = tempdir("bad-inputs");
    for (line, needle) in [
        // The default --carry 3 exceeds the hot set.
        ("policy --hot 2", "--carry"),
        // A zero epoch never advances the daemon.
        ("policy --epoch-us 0", "--epoch-us"),
        // More pages than the DMA engine has descriptors.
        ("move --pages 100000 --count 1", "--pages"),
        // The window's footprint overflows the 256 MiB fast bank.
        (
            "move --pages 128 --page-size 2m --count 2 --window 2",
            "--pages",
        ),
        // More requests in flight than the device has slots.
        ("move --window 65 --count 100", "--window"),
        ("recover --count 65", "--count"),
        // Used to fire on crossing 1.
        ("recover --crash-point submit --crash-nth 0", "--crash-nth"),
        // Used to be clamped to 1 while the header recorded 0.
        ("move --tc-count 0", "--tc-count"),
        ("move --dma-error-rate 2", "--dma-error-rate"),
        ("policy --drop-rate -0.5", "--drop-rate"),
        ("move --count 4 --count 8", "--count"),
        ("move --batchmax 8", "--batchmax"),
        ("move --overlap-depth 4", "--overlap-depth"),
        ("topology --pages 4", "--pages"),
        // 1,500 64 KiB pages overflow the 6 MiB fast node mid-migration.
        ("migspeed --page-size 64k", "6.0 MiB capacity"),
    ] {
        let argv: Vec<&str> = line.split_whitespace().collect();
        assert_clean_failure(&memifctl(&dir, &argv), needle);
    }
}

/// Replay re-runs the recorded configuration: any flag whose value
/// differs from the recorded one is an error naming the flag and the
/// recorded value, and a flag that matches it is accepted.
#[test]
fn replay_rejects_any_differing_flag() {
    let dir = tempdir("overrides");
    record_move_trace(&dir);
    let policy = ["policy", "--phases", "2", "--ticks", "4"];
    let out = memifctl(
        &dir,
        &[&policy[..], &["--trace-events", "p.jsonl"]].concat(),
    );
    assert!(out.status.success(), "recording failed: {out:?}");
    for (trace, flag, value, recorded) in [
        ("trace.jsonl", "--batch-max", "8", "batch-max=1"),
        ("trace.jsonl", "--count", "999", "count=8"),
        ("trace.jsonl", "--dma-error-rate", "0.5", "dma-error-rate=0"),
        ("p.jsonl", "--seed", "7", "seed=42"),
        ("p.jsonl", "--regions", "9", "regions=24"),
    ] {
        let out = memifctl(&dir, &["replay", "--from", trace, flag, value]);
        assert_clean_failure(&out, &format!("{flag} {value} conflicts"));
        assert_clean_failure(&out, recorded);
    }
    let out = memifctl(&dir, &["replay", "--from", "trace.jsonl", "--count", "8"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("replay OK"),
        "a matching override must replay: {out:?}"
    );
}
