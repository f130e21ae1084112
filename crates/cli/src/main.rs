//! `memifctl` — drive the simulated memif stack from the command line.
//! `memifctl help` lists the commands and every run flag with its
//! default; [`spec`] holds the one description of a recorded run.

mod args;
mod spec;

use args::Args;
use memif::{Context, Memif, MemifConfig, MoveSpec, NodeId, PageSize, Sim, System};
use memif_baseline::{run_migspeed, MigspeedConfig};
use memif_bench::Table;
use memif_hwsim::{CostModel, Topology};
use spec::{flag, kernel_profile, read_trace, write_trace, Report, RunSpec, SpecError, Token};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => die(&e),
    };
    let result = match args.command.as_deref() {
        Some("topology") => topology(&args),
        Some("migspeed") => migspeed(&args),
        Some("move") => do_move(&args),
        Some("stats") => stats(&args),
        Some("policy") => policy(&args),
        Some("recover") => recover(&args),
        Some("replay") => replay(&args),
        Some("stream") => stream(&args),
        Some("timeline") => timeline(&args),
        Some("help") | None => {
            print!("{HELP}");
            for cmd in ["move", "policy", "recover", "stream"] {
                println!("\n{cmd} flags:{}", RunSpec::usage(cmd));
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n{HELP}")),
    };
    if let Err(e) = result {
        die(&e);
    }
}

const HELP: &str = "\
memifctl — drive the simulated memif stack

commands:
  topology   show the pseudo-NUMA memory topology
  migspeed   Linux page-migration throughput (the numactl utility)
  move       stream memif move requests and report throughput/latency
  stats      run a move (its flags + --json) and dump every driver counter
  policy     run the hot/cold placement daemon over a phased workload
  recover    crash a journaled DDR<->NVM run, recover, and re-drive it
  replay     re-run a recorded trace and verify it is bit-identical
  stream     run a Table 4 streaming workload on the mini runtime
  timeline   trace a short run across the driver's execution contexts
  help       this text, then every run flag with its default

A flag a command does not declare, or a flag given twice, is an error.

chaos (move/policy): a deterministic fault plan the hardened driver
absorbs; rates are probabilities. --no-fallback true fails requests
instead of degrading to the CPU copy; --tc-count N models N transfer
channels (1, the paper's configuration, by default):
  memifctl move --fault-seed 7 --dma-error-rate 1e-3 --drop-rate 1e-4

issue path (move/stats/recover): --batch-max N drains up to N queued
requests into one chained launch, coalescing contiguous segments unless
--no-coalesce true; --batch-rearm true also dedupes same-instant worker
wake timers (off by default: it shrinks the event stream).
--issue-shards S splits the queues and kernel worker into S shards,
routed by VMA so same-region requests keep FIFO order. --tenants N tags
requests round-robin across N tenants weighted by --tenant-weights
a,b,...; --qos (on with a roster) schedules them weighted-fair.

streaming (stream): --overlap-depth K fills each 64-page prefetch
buffer as K independent units; --threads M adds M real producer threads
on the memif-rt futures front-end. --kernel all and --placement both
(the defaults) run the whole table; a trace needs one of each:
  memifctl stream --kernel triad --placement memif --overlap-depth 4

placement (policy): a daemon samples PTE accessed bits each --epoch-us
and repairs placement with at most --max-inflight moves. --mode async
rides the background queue, sync parks the app, none disables moves.
--tiers 3|4 runs the SRAM > DRAM > NVM > zram ladder as a waterfall;
--warm N adds a warm halo; --policy-tiers M limits the daemon's ranks:
  memifctl policy --tiers 4 --warm 12 --regions 32 --json true

recovery (recover): halts the run at --crash-point on its --crash-nth
crossing, reboots through the write-ahead journal, and re-drives every
request to exactly one terminal status:
  memifctl recover --crash-point mid-chain --crash-nth 2

--json true (stats/policy/recover) prints one stable-key JSON object.

traces (move/policy/recover/stream): --trace-events PATH writes a `#!`
header listing every flag of the run, one typed event per line, and
one `#= <req> <status>` line per request. `replay --from PATH` re-runs
the header's run and checks every event and status byte-for-byte. It
accepts any flag of the recorded command only at its recorded value: a
differing value is an error naming the flag and the recorded value.
  memifctl move --fault-seed 7 --dma-error-rate 1e-3 --trace-events t.jsonl
  memifctl replay --from t.jsonl
";

fn die(msg: &str) -> ! {
    eprintln!("memifctl: {msg}");
    std::process::exit(2);
}

/// Rejects flags a command that records no run does not declare (the
/// others declare theirs in [`RunSpec`]).
fn declare(args: &Args, flags: &[&str]) -> Result<(), String> {
    let Some(flag) = args.undeclared(flags) else {
        return Ok(());
    };
    let (cmd, flag) = (args.command.clone().unwrap_or_default(), flag.to_owned());
    Err(SpecError::Undeclared { cmd, flag }.into())
}

fn topology(args: &Args) -> Result<(), String> {
    declare(args, &["profile", "booted"])?;
    let cost = flag(args, "profile", CostModel::keystone_ii())?;
    let mut topo = Topology::keystone_ii();
    let mut table = Table::new(
        format!("memory topology (profile: {})", cost.name),
        &[
            "node",
            "name",
            "kind",
            "base",
            "size",
            "bandwidth",
            "boot-visible",
        ],
    );
    if args.get_or("booted", true)? {
        topo.complete_boot();
    }
    for n in topo.all_nodes() {
        let online = topo.node(n.id).is_some();
        table.row(&[
            format!("{}{}", n.id, if online { "" } else { " (offline)" }),
            n.name.clone(),
            format!("{:?}", n.kind),
            format!("{:#x}", n.base.as_u64()),
            format!("{} MiB", n.bytes >> 20),
            format!("{:.1} GB/s", n.bandwidth_gbps),
            n.boot_visible.to_string(),
        ]);
    }
    table.print();
    println!(
        "cpus: {}   dma: EDMA3-class, {:.1} GB/s m2m, 512 descriptors",
        topo.cpu_count(),
        cost.dma_engine_bw_gbps
    );
    Ok(())
}

fn migspeed(args: &Args) -> Result<(), String> {
    declare(
        args,
        &["profile", "pages", "batches", "page-size", "from", "to"],
    )?;
    let cost = flag(args, "profile", CostModel::keystone_ii())?;
    let mut topo = Topology::keystone_ii();
    topo.complete_boot();
    let config = MigspeedConfig {
        pages_per_syscall: args.get_or("pages", 1_500u32)?,
        batches: args.get_or("batches", 1u32)?,
        page_size: flag(args, "page-size", PageSize::Small4K)?,
        from: NodeId(args.get_or("from", 0u16)?),
        to: NodeId(args.get_or("to", 1u16)?),
    };
    let r = run_migspeed(&topo, &cost, config).map_err(|e| format!("--pages: {e}"))?;
    println!(
        "migrated {} pages ({} MiB) in {}: {:.3} GB/s, {:.1} us/page",
        r.pages,
        r.bytes >> 20,
        r.elapsed,
        r.throughput_gbps,
        r.per_page_us
    );
    println!(
        "({}% of the slow node's {:.1} GB/s)",
        (r.throughput_gbps / cost.slow_bw_gbps * 100.0).round(),
        cost.slow_bw_gbps
    );
    Ok(())
}

/// Parses `cmd`'s run, runs it (recording the event log when
/// `--trace-events` asks for a trace), and writes the trace.
fn record(cmd: &str, args: &Args, extra: &[&str]) -> Result<(RunSpec, Report), String> {
    let spec = RunSpec::parse(cmd, args, extra)?;
    let path = args.get("trace-events");
    let (log, report) = spec.run(path.is_some());
    if let Some(path) = path {
        write_trace(path, &spec, &log)?;
    }
    Ok((spec, report))
}

fn do_move(args: &Args) -> Result<(), String> {
    let (RunSpec::Move(s), Report::Move(r)) = record("move", args, &["trace-events"])? else {
        unreachable!("move runs a move spec")
    };
    let mean_us = r
        .completion_times
        .iter()
        .map(|t| t.as_ns() as f64)
        .sum::<f64>()
        / r.completion_times.len() as f64
        / 1e3;
    println!(
        "{} x {} {} pages ({:?}): {:.3} GB/s, mean completion {:.1} us",
        s.count, s.pages, s.page_size, s.kind, r.throughput_gbps, mean_us
    );
    println!(
        "syscalls: {}   interrupts: {}   polled: {}   cpu: {:.2} cores",
        r.stats.ioctls, r.stats.interrupts, r.stats.polled, r.cpu_usage
    );
    if s.faults.is_some() {
        println!(
            "chaos: retries: {}   timeouts: {}   dma-errors: {}   fallbacks: {}   failed: {}",
            r.stats.retries, r.stats.timeouts, r.stats.dma_errors, r.stats.fallbacks, r.failed
        );
    }
    if s.config.batch_max > 1 {
        println!(
            "batching: batched: {}   coalesced: {}   descriptors: {}   writes saved: {}",
            r.stats.requests_batched,
            r.stats.segments_coalesced,
            r.stats.descriptors_written,
            r.stats.descriptor_writes_saved
        );
    }
    Ok(())
}

/// Renders `(key, value)` counter pairs, then pre-rendered `"key":[..]`
/// arrays, as one stable-order JSON object — the `--json true` output
/// contract for scripts and CI.
fn json_object(rows: &[(&str, u64)], arrays: &[String]) -> String {
    let rows = rows.iter().map(|(k, v)| format!("\"{k}\":{v}"));
    let fields: Vec<String> = rows.chain(arrays.iter().cloned()).collect();
    format!("{{{}}}", fields.join(","))
}

/// The stable-key per-tier occupancy array: `"tiers":[{rank, kind,
/// used_bytes, capacity_bytes, moves_in, moves_out}, ...]`, rank 0
/// fastest.
fn json_tiers(tiers: &[memif::TierUsage]) -> String {
    let entries: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "{{\"rank\":{},\"kind\":\"{}\",\"used_bytes\":{},\"capacity_bytes\":{},\
                 \"moves_in\":{},\"moves_out\":{}}}",
                t.rank, t.kind, t.used_bytes, t.capacity_bytes, t.moves_in, t.moves_out
            )
        })
        .collect();
    format!("\"tiers\":[{}]", entries.join(","))
}

/// The stable-key per-tenant accounting array of `stats --json`:
/// `"tenants":[{id, weight, inflight, descriptors_held, parked,
/// total_parked, retired, bytes_moved, p50_ns, p99_ns}, ...]`,
/// ascending by tenant id. Empty rosters render `"tenants":[]`.
fn json_tenants(tenants: &[(u16, u32, memif::TenantStats)]) -> String {
    let entries: Vec<String> = tenants
        .iter()
        .map(|(id, weight, t)| {
            format!(
                "{{\"id\":{id},\"weight\":{weight},\"inflight\":{},\"descriptors_held\":{},\
                 \"parked\":{},\"total_parked\":{},\"retired\":{},\"bytes_moved\":{},\
                 \"p50_ns\":{},\"p99_ns\":{}}}",
                t.inflight,
                t.descriptors_held,
                t.parked,
                t.total_parked,
                t.retired,
                t.bytes_moved,
                t.p50_ns().unwrap_or(0),
                t.p99_ns().unwrap_or(0),
            )
        })
        .collect();
    format!("\"tenants\":[{}]", entries.join(","))
}

/// The human-readable per-tenant accounting lines for `stats` table
/// output (skipped for single-tenant runs).
fn print_tenants(tenants: &[(u16, u32, memif::TenantStats)]) {
    for (id, weight, t) in tenants {
        println!(
            "tenant {id} (weight {weight}): {} retired, {:.2} MiB moved, \
             {} parked, p50 {} ns, p99 {} ns",
            t.retired,
            t.bytes_moved as f64 / (1 << 20) as f64,
            t.total_parked,
            t.p50_ns().unwrap_or(0),
            t.p99_ns().unwrap_or(0),
        );
    }
}

/// The human-readable per-tier occupancy lines shared by `stats` and
/// `policy` table output.
fn print_tiers(tiers: &[memif::TierUsage]) {
    for t in tiers {
        println!(
            "tier {} ({}): {:.2} / {:.2} MiB used, {} moves in, {} moves out",
            t.rank,
            t.kind,
            t.used_bytes as f64 / (1 << 20) as f64,
            t.capacity_bytes as f64 / (1 << 20) as f64,
            t.moves_in,
            t.moves_out,
        );
    }
}

/// Runs a `move` scenario and dumps every [`memif::DriverStats`]
/// counter, including the batching/coalescing set, as a table (or as
/// one JSON object with `--json true`).
fn stats(args: &Args) -> Result<(), String> {
    let json = args.get_or("json", false)?;
    let (RunSpec::Move(s), Report::Move(r)) = record("stats", args, &["json"])? else {
        unreachable!("stats runs a move spec")
    };
    let title = format!(
        "driver stats: {} x {} {} pages ({:?}), batch-max {}{}",
        s.count,
        s.pages,
        s.page_size,
        s.kind,
        s.config.batch_max,
        if s.config.coalesce { " + coalesce" } else { "" },
    );
    let st = &r.stats;
    let issue_cpu = {
        use memif::Phase;
        st.phases.get(Phase::DmaConfig) + st.phases.get(Phase::Interface)
    };
    let rows: &[(&str, u64)] = &[
        ("submitted", st.submitted),
        ("completed", st.completed),
        ("failed", st.failed),
        ("ioctls", st.ioctls),
        ("interrupts", st.interrupts),
        ("polled", st.polled),
        ("kthread_wakeups", st.kthread_wakeups),
        ("timer_rearm_saved", st.timer_rearm_saved),
        ("races_detected", st.races_detected),
        ("aborts", st.aborts),
        ("timeouts", st.timeouts),
        ("dma_errors", st.dma_errors),
        ("retries", st.retries),
        ("fallbacks", st.fallbacks),
        ("bytes_moved", st.bytes_moved),
        ("requests_batched", st.requests_batched),
        ("segments_coalesced", st.segments_coalesced),
        ("descriptors_written", st.descriptors_written),
        ("descriptor_writes_saved", st.descriptor_writes_saved),
        ("requests_deferred", st.requests_deferred),
        ("cross_shard_deferred", st.cross_shard_deferred),
        ("requests_parked", st.requests_parked),
        ("requests_readmitted", st.requests_readmitted),
        ("journal_records", st.journal_records),
        ("recovered_requests", st.recovered_requests),
        ("rolled_back", st.rolled_back),
        ("redriven", st.redriven),
        ("events_executed", r.events_executed),
        ("events_cancelled", r.events_cancelled),
        ("peak_pending", r.peak_pending as u64),
        ("issue_cpu_ns", issue_cpu.as_ns()),
    ];
    if json {
        let arrays = [json_tiers(&r.tiers), json_tenants(&r.tenant_stats)];
        println!("{}", json_object(rows, &arrays));
        return Ok(());
    }
    let mut table = Table::new(title, &["counter", "value"]);
    for (name, value) in &rows[..rows.len() - 1] {
        table.row(&[(*name).to_owned(), value.to_string()]);
    }
    table.print();
    println!("issue-side cpu (DmaConfig + Interface): {issue_cpu}");
    print_tiers(&r.tiers);
    print_tenants(&r.tenant_stats);
    Ok(())
}

/// Runs the hot/cold placement daemon over the phased hot-set workload
/// and reports the application + daemon outcome.
fn policy(args: &Args) -> Result<(), String> {
    let json = args.get_or("json", false)?;
    let extra = ["trace-events", "json"];
    let (RunSpec::Policy(_, cfg), Report::Policy(r)) = record("policy", args, &extra)? else {
        unreachable!("policy runs a policy spec")
    };
    let p = &r.policy;
    let rows = [
        ("wall_ns", r.wall.as_ns()),
        ("ticks", r.ticks),
        ("fast_ticks", r.fast_ticks),
        ("slow_ticks", r.slow_ticks),
        ("page_touches", r.page_touches),
        ("epochs", p.epochs),
        ("pages_scanned", p.pages_scanned),
        ("pages_referenced", p.pages_referenced),
        ("promotions", p.promotions),
        ("demotions", p.demotions),
        ("moves_ok", p.moves_ok),
        ("moves_failed", p.moves_failed),
        ("dropped", p.dropped),
        ("cascades", p.cascades),
        ("compress_busy_ns", r.compress_busy.as_ns()),
        ("decompress_busy_ns", r.decompress_busy.as_ns()),
        ("driver_submitted", r.driver.submitted),
        ("driver_completed", r.driver.completed),
        ("driver_failed", r.driver.failed),
        ("driver_bytes_moved", r.driver.bytes_moved),
    ];
    if json {
        println!("{}", json_object(&rows, &[json_tiers(&r.tiers)]));
        return Ok(());
    }
    println!(
        "{} mode: {} ticks ({} fast / {} slow) in {:.2} ms, cpu {:.2} cores",
        cfg.mode.as_str(),
        r.ticks,
        r.fast_ticks,
        r.slow_ticks,
        r.wall.as_ns() as f64 / 1e6,
        r.cpu_usage,
    );
    println!(
        "policy: {} epochs, {} pages scanned ({} referenced), {} promotions + {} demotions \
         ({} ok, {} failed, {} dropped at the watermark, {} cascade steps)",
        p.epochs,
        p.pages_scanned,
        p.pages_referenced,
        p.promotions,
        p.demotions,
        p.moves_ok,
        p.moves_failed,
        p.dropped,
        p.cascades,
    );
    println!(
        "driver: {} submitted, {} completed, {} failed, {} MiB moved",
        r.driver.submitted,
        r.driver.completed,
        r.driver.failed,
        r.driver.bytes_moved >> 20,
    );
    if r.compress_busy.as_ns() + r.decompress_busy.as_ns() > 0 {
        println!(
            "codec: {:.2} ms compressing, {:.2} ms decompressing",
            r.compress_busy.as_ns() as f64 / 1e6,
            r.decompress_busy.as_ns() as f64 / 1e6,
        );
    }
    print_tiers(&r.tiers);
    Ok(())
}

/// Crashes a journaled DDR<->NVM migration stream at a deterministic
/// lifecycle point, reboots through the write-ahead move journal, and
/// re-drives the survivors — then reports how every request reached
/// exactly one terminal status.
fn recover(args: &Args) -> Result<(), String> {
    let json = args.get_or("json", false)?;
    let extra = ["trace-events", "json"];
    let (RunSpec::Recover(c), Report::Recover(r)) = record("recover", args, &extra)? else {
        unreachable!("recover runs a recover spec")
    };
    let rep = r.recovery.as_ref();
    let rows = [
        ("crashed", u64::from(r.crashed)),
        ("journal_records", r.journal_records),
        (
            "recovered_requests",
            rep.map_or(0, |rep| rep.recovered_requests),
        ),
        ("rolled_back", rep.map_or(0, |rep| rep.rolled_back)),
        ("redriven", rep.map_or(0, |rep| rep.redriven)),
        ("resubmitted", r.resubmitted as u64),
        ("wall_ns", r.wall.as_ns()),
    ];
    if json {
        println!("{}", json_object(&rows, &[]));
        return Ok(());
    }

    let config = &c.config;
    println!(
        "{} x {} {} pages, DDR<->NVM ping-pong, journal on (batch-max {}{}, {} shard{})",
        c.count,
        c.pages,
        c.page_size,
        config.batch_max,
        if config.coalesce { " + coalesce" } else { "" },
        config.issue_shards,
        if config.issue_shards == 1 { "" } else { "s" },
    );
    match (c.crash, rep) {
        (Some(plan), Some(rep)) if r.crashed => {
            println!(
                "crash: {} fired on crossing {} — volatile state lost, {} journal record{} survived",
                plan.point.as_str(),
                plan.nth,
                rep.journal_records,
                if rep.journal_records == 1 { "" } else { "s" },
            );
            println!(
                "recovery: {} in-flight at the crash ({} rolled back, {} rolled forward); \
                 app re-submitted {}",
                rep.recovered_requests, rep.rolled_back, rep.redriven, r.resubmitted,
            );
        }
        (Some(plan), _) => println!(
            "crash: {} never crossed {} time{} — plan did not fire",
            plan.point.as_str(),
            plan.nth,
            if plan.nth == 1 { "" } else { "s" },
        ),
        _ => println!("no crash requested: uncrashed reference run"),
    }
    let done = r
        .statuses
        .iter()
        .filter(|(_, st)| *st == memif::MoveStatus::Done)
        .count();
    println!(
        "converged: {done}/{} requests Done exactly once, {} journal records all sealed, \
         {:.1} us simulated",
        c.count,
        r.journal_records,
        r.wall.as_ns() as f64 / 1e3,
    );
    Ok(())
}

/// Re-runs a `--trace-events` recording and verifies the new run is
/// byte-identical: same event log, same terminal status per request.
/// Any other flag on the command line must match the recorded value.
fn replay(args: &Args) -> Result<(), String> {
    let path = args.get("from").ok_or("replay needs --from <path>")?;
    let (header, recorded) = read_trace(path)?;
    let overrides = args.pairs().filter(|(k, _)| *k != "from");
    let overrides = Args::from_pairs("replay", overrides.map(|(k, v)| (k.into(), v.into())));
    let (replayed, _) = RunSpec::replayed(&header, &overrides)?.run(true);
    let (events, statuses) = (recorded.events, recorded.statuses);
    if replayed.events != events {
        let n = replayed
            .events
            .iter()
            .zip(&events)
            .take_while(|(a, b)| a == b)
            .count();
        let at = |log: &[String]| log.get(n).map_or("<end of log>", String::as_str).to_owned();
        let (recorded, replayed) = (at(&events), at(&replayed.events));
        return Err(format!(
            "event log diverges at record {n}:\n  recorded: {recorded}\n  replayed: {replayed}"
        ));
    }
    if replayed.statuses != statuses {
        return Err(format!(
            "terminal statuses diverge:\n  recorded: {statuses:?}\n  replayed: {:?}",
            replayed.statuses
        ));
    }
    println!(
        "replay OK: {} events and {} terminal statuses identical ({path})",
        events.len(),
        statuses.len()
    );
    Ok(())
}

/// `--threads M`: M real producer threads drive a deterministic
/// valid/invalid move schedule through the memif-rt futures front-end —
/// the §4.4 red-blue protocol under genuine preemptive contention, with
/// the kick/syscall-free split counted rather than assumed.
fn stream_rt_stress(threads: u64) {
    use memif_rt::{MemBackend, MoveDesc, Rt};
    const PAGE_SHIFT: u8 = 12;
    const PAGE: u64 = 1 << PAGE_SHIFT;
    const PER_THREAD: u64 = 256;

    let total = threads * PER_THREAD;
    let rt = Rt::new();
    let backend = MemBackend::new();
    backend.register(0, total * PAGE);
    let dev = rt.open(16, backend);
    let invalid: u64 = std::thread::scope(|sc| {
        let producers: Vec<_> = (0..threads)
            .map(|t| {
                let dev = dev.clone();
                sc.spawn(move || {
                    let invalid = (t * PER_THREAD..(t + 1) * PER_THREAD).filter(|&cookie| {
                        // Every fifth move targets an unregistered range and
                        // must complete Invalid, never panic or get lost.
                        let base = if cookie % 5 == 4 { 0x7F00_0000_0000 } else { 0 };
                        let desc = MoveDesc::migrate(base + cookie * PAGE, 1, PAGE_SHIFT);
                        dev.move_blocking(desc.with_user_data(cookie))
                            .status
                            .is_failure()
                    });
                    invalid.count() as u64
                })
            })
            .collect();
        producers
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .sum()
    });
    let done = total - invalid;
    let st = dev.stats();
    println!(
        "rt stress: {threads} thread{} x {PER_THREAD} moves: {done} Done + {invalid} Invalid \
         ({} submitted, {} completed), {} kick syscalls, {} syscall-free submissions, \
         {} lost kicks rescued",
        if threads == 1 { "" } else { "s" },
        st.submitted,
        st.completed,
        st.kicks,
        st.syscall_free,
        st.lost_kicks_rescued,
    );
}

fn stream(args: &Args) -> Result<(), String> {
    let threads = args.get_or("threads", 0u64)?;
    let every = |flag, all: &[&str]| match args.get(flag) {
        None | Some("all" | "both") => all.iter().map(|t| (*t).to_owned()).collect(),
        Some(token) => vec![token.to_owned()],
    };
    let kernels: Vec<String> = every("kernel", &["pgain", "triad", "add"]);
    let placements: Vec<String> = every("placement", &["linux", "memif"]);

    if args.get("trace-events").is_some() {
        if kernels.len() * placements.len() > 1 {
            return Err("--trace-events records one --kernel on one --placement".into());
        }
        let extra = ["trace-events", "threads"];
        let (RunSpec::Stream(s), Report::Stream(r)) = record("stream", args, &extra)? else {
            unreachable!("stream runs a stream spec")
        };
        println!(
            "{} on {}: {:.1} MB/s, {} fills, {:.0}% fallback",
            kernel_profile(&s.kernel)?.name,
            s.placement.print(),
            r.traffic_gbps * 1000.0,
            r.fills,
            r.fallback_bytes as f64 / r.input_bytes.max(1) as f64 * 100.0,
        );
    } else {
        let mut table = None;
        for kernel in &kernels {
            for placement in &placements {
                let one = [("kernel", &kernel[..]), ("placement", &placement[..])];
                let pairs = args.pairs().chain(one).map(|(k, v)| (k.into(), v.into()));
                let spec =
                    RunSpec::parse("stream", &Args::from_pairs("stream", pairs), &["threads"])?;
                let (RunSpec::Stream(s), (_, Report::Stream(r))) = (&spec, spec.run(false)) else {
                    unreachable!("stream runs a stream spec")
                };
                let table = table.get_or_insert_with(|| {
                    let title = match s.depth {
                        1 => "streaming throughput (MB/s)".to_owned(),
                        k => format!("streaming throughput (MB/s), overlap depth {k}"),
                    };
                    Table::new(
                        title,
                        &["kernel", "placement", "MB/s", "fallback%", "fills"],
                    )
                });
                table.row(&[
                    kernel_profile(kernel)?.name,
                    format!("{:?}", s.placement),
                    format!("{:.1}", r.traffic_gbps * 1000.0),
                    format!(
                        "{:.0}%",
                        r.fallback_bytes as f64 / r.input_bytes.max(1) as f64 * 100.0
                    ),
                    r.fills.to_string(),
                ]);
            }
        }
        table.expect("at least one kernel and placement").print();
    }
    if threads > 0 {
        stream_rt_stress(threads);
    }
    Ok(())
}

fn timeline(args: &Args) -> Result<(), String> {
    declare(args, &["pages", "count", "page-size"])?;
    let pages = args.get_or("pages", 16u32)?;
    let count = args.get_or("count", 2usize)?;
    let page_size = flag(args, "page-size", PageSize::Small4K)?;

    let mut sys = System::keystone_ii();
    sys.enable_tracing();
    let mut sim = Sim::new();
    let space = sys.new_space();
    let memif = Memif::open(&mut sys, space, MemifConfig::default()).map_err(|e| e.to_string())?;
    for _ in 0..count {
        let va = sys
            .mmap(space, pages, page_size, NodeId(0))
            .map_err(|e| e.to_string())?;
        memif
            .submit(
                &mut sys,
                &mut sim,
                MoveSpec::migrate(va, pages, page_size, NodeId(1)),
            )
            .map_err(|e| e.to_string())?;
    }
    sim.run(&mut sys);
    while memif
        .retrieve_completed(&mut sys)
        .map_err(|e| e.to_string())?
        .is_some()
    {}

    println!("driver timeline: {count} x {pages} {page_size} migrations\n");
    for e in sys.trace() {
        let ctx = match e.ctx {
            Context::Syscall => "syscall",
            Context::Interrupt => "irq",
            Context::KernelThread => "kthread",
            Context::DmaEngine => "dma",
            Context::App => "app",
        };
        println!(
            "  {:>9.1} us  +{:<9} {:>8}  {:<54} {}",
            e.at.as_ns() as f64 / 1e3,
            format!("{}", e.duration),
            ctx,
            e.label,
            e.req.map(|r| format!("req {r}")).unwrap_or_default()
        );
    }
    Ok(())
}
