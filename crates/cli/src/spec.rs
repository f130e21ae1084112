//! One typed description of a recorded run.
//!
//! `move`, `stats`, `policy`, `recover` and traced `stream` each describe
//! their run as a [`RunSpec`], whose variants list their flags once, in
//! [`RunSpec::visit`]: name, default (also what a header written before
//! the flag existed means), and the typed field. Command-line parsing,
//! header parsing and printing, and each command's accepted flags all come
//! from that list. Replay's one rule: the header alone and the header with
//! the replay flags laid on top must describe the same run.

use std::fmt::{self, Write as _};

use memif::{CrashPlan, CrashPoint, FaultPlan, Memif, MemifConfig, PageSize, Sim, SimDuration};
use memif_bench::{crash_migrate_nvm, run_stream, CrashOutcome, StreamResult, StreamSpec};
use memif_hwsim::{dma::NUM_PARAM_SETS, CostModel, MemoryKind};
use memif_policy::{run_scenario, Mode, ScenarioConfig, ScenarioResult};
use memif_runtime::{KernelProfile, Placement, StreamConfig, StreamReport, StreamRuntime};
use memif_workloads::{stream_add, stream_triad, streamcluster_pgain, wordcount_like, ShapeKind};

use crate::args::Args;

/// Why a command line or trace header does not describe a run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A flag the command does not declare.
    Undeclared { cmd: String, flag: String },
    /// A value that does not parse or is out of range.
    Invalid { flag: &'static str, msg: String },
    /// A replay flag that would change the recorded run.
    Conflict {
        flag: &'static str,
        requested: String,
        recorded: String,
    },
    /// A trace header naming a command that records no run.
    UnknownCommand(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Undeclared { cmd, flag } => write!(f, "--{flag}: not a flag of '{cmd}'"),
            SpecError::Invalid { flag, msg } => write!(f, "--{flag}: {msg}"),
            SpecError::Conflict {
                flag,
                requested,
                recorded,
            } => write!(
                f,
                "--{flag} {requested} conflicts with the trace (recorded with \
                 {flag}={recorded}); replay re-runs the recorded configuration"
            ),
            SpecError::UnknownCommand(cmd) => write!(f, "cannot replay '{cmd}' traces"),
        }
    }
}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

/// Returns `--flag: <message>` from the enclosing function unless `ok`.
macro_rules! ensure {
    ($ok:expr, $flag:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(SpecError::Invalid { flag: $flag, msg: format!($($msg)+) });
        }
    };
}

/// A flag value, spelled the same on the command line and in a header.
pub trait Token {
    /// Replaces the value with the one `v` spells.
    fn parse(&mut self, v: &str) -> Result<(), String>;

    /// The spelling [`Token::parse`] reads back.
    fn print(&self) -> String;
}

macro_rules! from_str_tokens {
    ($($t:ty),*) => {$(
        impl Token for $t {
            fn parse(&mut self, v: &str) -> Result<(), String> {
                *self = v.parse().map_err(|_| format!("cannot parse '{v}'"))?;
                Ok(())
            }

            fn print(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

from_str_tokens!(bool, u32, u64, usize, f64, String);

macro_rules! named_tokens {
    ($($t:ty { $($name:literal => $value:expr),+ })*) => {$(
        impl Token for $t {
            fn parse(&mut self, v: &str) -> Result<(), String> {
                *self = match v.to_ascii_lowercase().as_str() {
                    $($name => $value,)+
                    _ => {
                        let names = [$($name),+].join("|");
                        return Err(format!("unknown value '{v}' ({names})"));
                    }
                };
                Ok(())
            }

            fn print(&self) -> String {
                let names = [$(($value, $name)),+];
                names.iter().find(|(v, _)| v == self).map_or("", |(_, n)| n).to_owned()
            }
        }
    )*};
}

named_tokens! {
    ShapeKind { "migrate" => ShapeKind::Migrate, "replicate" => ShapeKind::Replicate }
    PageSize { "4k" => PageSize::Small4K, "64k" => PageSize::Medium64K, "2m" => PageSize::Large2M }
    Mode { "none" => Mode::None, "sync" => Mode::Sync, "async" => Mode::Async }
    Placement { "memif" => Placement::MemifPrefetch, "linux" => Placement::SlowOnly }
}

/// `--profile keystone|xeon`.
impl Token for CostModel {
    fn parse(&mut self, v: &str) -> Result<(), String> {
        *self = match v {
            "keystone" => CostModel::keystone_ii(),
            "xeon" => CostModel::xeon_e5(),
            _ => return Err(format!("unknown profile '{v}' (keystone|xeon)")),
        };
        Ok(())
    }

    fn print(&self) -> String {
        let xeon = self.name == CostModel::xeon_e5().name;
        (if xeon { "xeon" } else { "keystone" }).to_owned()
    }
}

/// `--crash-point none|<point>`.
impl Token for Option<CrashPoint> {
    fn parse(&mut self, v: &str) -> Result<(), String> {
        *self = match v {
            "none" => None,
            _ => Some(CrashPoint::parse(v).ok_or_else(|| {
                let known = CrashPoint::ALL.map(CrashPoint::as_str).join("|");
                format!("unknown point '{v}' (none|{known})")
            })?),
        };
        Ok(())
    }

    fn print(&self) -> String {
        self.map_or("none", CrashPoint::as_str).to_owned()
    }
}

/// `--tenant-weights a,b,...` (empty: no explicit weights).
impl Token for Vec<u32> {
    fn parse(&mut self, v: &str) -> Result<(), String> {
        let weight = |w: &str| w.parse().ok().filter(|w| *w >= 1).ok_or(w.to_owned());
        let weights = v.split(',').filter(|_| !v.is_empty()).map(weight);
        *self = weights
            .collect::<Result<_, _>>()
            .map_err(|w| format!("bad weight '{w}' (need integers >= 1)"))?;
        Ok(())
    }

    fn print(&self) -> String {
        self.iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Called once per flag, in header order, with the flag's name, its
/// default, and the field it sets.
type Visit<'a> = dyn FnMut(&'static str, &str, &mut dyn Token) -> Result<(), SpecError> + 'a;

/// Everything one recorded run needs, parsed from a command line or a
/// trace header.
// Built once per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunSpec {
    /// `move`/`stats`: a stream of identical requests on the big fast
    /// bank.
    Move(StreamSpec),
    /// `policy`: the placement daemon over a phased hot-set workload.
    Policy(CostModel, ScenarioConfig),
    /// `recover`: a journaled DDR<->NVM migration stream, optionally
    /// crashed, recovered and re-driven.
    Recover(CrashRun),
    /// `stream --trace-events`: one kernel on one placement.
    Stream(StreamRun),
}

/// The inputs of [`crash_migrate_nvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRun {
    pub cost: CostModel,
    pub config: MemifConfig,
    pub page_size: PageSize,
    pub pages: u32,
    pub count: usize,
    pub crash: Option<CrashPlan>,
}

/// One streaming-runtime run: a kernel token, a placement, the input
/// size, and the overlap depth.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    pub kernel: String,
    pub placement: Placement,
    pub input_mib: u64,
    pub depth: usize,
}

/// What a run records: its typed event log (empty unless logged) and
/// its `#=` terminal statuses.
pub struct Log {
    pub events: Vec<String>,
    pub statuses: Vec<(u64, String)>,
}

/// The measurements of a run, one kind per [`RunSpec`] variant.
#[allow(clippy::large_enum_variant)]
pub enum Report {
    Move(StreamResult),
    Policy(ScenarioResult),
    Recover(CrashOutcome),
    Stream(StreamReport),
}

impl RunSpec {
    /// The spec `cmd` describes before its flags are read.
    fn blank(cmd: &str) -> Result<RunSpec, SpecError> {
        let (cost, page_size) = (CostModel::keystone_ii(), PageSize::Small4K);
        Ok(match cmd {
            "move" | "stats" => {
                RunSpec::Move(StreamSpec::new(ShapeKind::Migrate, page_size, 1, 1, 1))
            }
            "policy" => RunSpec::Policy(cost, ScenarioConfig::default()),
            "recover" => RunSpec::Recover(CrashRun {
                cost,
                config: MemifConfig::default(),
                page_size,
                pages: 1,
                count: 1,
                crash: None,
            }),
            "stream" => RunSpec::Stream(StreamRun {
                kernel: String::new(),
                placement: Placement::MemifPrefetch,
                input_mib: 1,
                depth: 1,
            }),
            other => return Err(SpecError::UnknownCommand(other.to_owned())),
        })
    }

    /// The command a trace header names.
    fn command(&self) -> &'static str {
        match self {
            RunSpec::Move(_) => "move",
            RunSpec::Policy(..) => "policy",
            RunSpec::Recover(_) => "recover",
            RunSpec::Stream(_) => "stream",
        }
    }

    /// Every flag of the run, once, in header order.
    fn visit(&mut self, f: &mut Visit<'_>) -> Result<(), SpecError> {
        match self {
            RunSpec::Move(s) => {
                f("kind", "migrate", &mut s.kind)?;
                f("page-size", "4k", &mut s.page_size)?;
                f("pages", "16", &mut s.pages)?;
                f("count", "64", &mut s.count)?;
                f("window", "8", &mut s.window)?;
                f("depth", "2", &mut s.config.pipeline_depth)?;
                f("max-retries", "3", &mut s.config.max_dma_retries)?;
                let c = &mut s.config;
                let mut no = [!c.cpu_fallback, !c.descriptor_reuse, !c.gang_lookup];
                f("no-fallback", "false", &mut no[0])?;
                f("no-reuse", "false", &mut no[1])?;
                f("no-gang", "false", &mut no[2])?;
                [c.cpu_fallback, c.descriptor_reuse, c.gang_lookup] = no.map(|no| !no);
                f("profile", "keystone", &mut s.cost)?;
                f("tc-count", "1", &mut s.cost.dma_tc_count)?;
                fault_flags(f, &mut s.faults)?;
                issue_flags(f, &mut s.config, "1")?;
                f("batch-rearm", "false", &mut s.config.batch_rearm)?;
                let mut tenants = s.tenants.len().max(1);
                f("tenants", "1", &mut tenants)?;
                let mut weights: Vec<u32> = s.tenants.iter().map(|t| t.1).collect();
                f("tenant-weights", "", &mut weights)?;
                s.tenants = roster(tenants, weights)?;
                // QoS defaults on exactly when there is a tenant roster.
                let qos = (!s.tenants.is_empty()).to_string();
                f("qos", &qos, &mut s.config.qos)
            }
            RunSpec::Policy(cost, c) => {
                f("mode", "async", &mut c.mode)?;
                f("seed", "42", &mut c.seed)?;
                f("regions", "24", &mut c.regions)?;
                f("pages", "64", &mut c.pages_per_region)?;
                f("page-size", "4k", &mut c.page_size)?;
                f("phases", "6", &mut c.phases)?;
                f("hot", "8", &mut c.hot)?;
                f("carry", "3", &mut c.carry)?;
                f("ticks", "32", &mut c.ticks_per_phase)?;
                let mut epoch_us = c.policy.epoch.as_ns() / 1_000;
                f("epoch-us", "1000", &mut epoch_us)?;
                c.policy.epoch = SimDuration::from_ns(epoch_us.saturating_mul(1_000));
                f("max-inflight", "4", &mut c.policy.max_inflight)?;
                f("profile", "keystone", cost)?;
                fault_flags(f, &mut c.faults)?;
                f("tiers", "2", &mut c.tiers)?;
                f("policy-tiers", "0", &mut c.policy_tiers)?;
                f("warm", "0", &mut c.warm)
            }
            RunSpec::Recover(r) => {
                let mut point = r.crash.map(|c| c.point);
                let mut nth = r.crash.map_or(1, |c| c.nth);
                f("crash-point", "none", &mut point)?;
                f("crash-nth", "1", &mut nth)?;
                ensure!(nth >= 1, "crash-nth", "must be at least 1");
                r.crash = point.map(|p| CrashPlan::at(p, nth));
                f("page-size", "4k", &mut r.page_size)?;
                f("pages", "8", &mut r.pages)?;
                f("count", "12", &mut r.count)?;
                issue_flags(f, &mut r.config, "4")?;
                f("profile", "keystone", &mut r.cost)
            }
            RunSpec::Stream(s) => {
                // Untraced `stream` runs every kernel on both placements;
                // a recorded run names one of each.
                f("kernel", "all", &mut s.kernel)?;
                f("placement", "both", &mut s.placement)?;
                f("input-mib", "64", &mut s.input_mib)?;
                f("overlap-depth", "1", &mut s.depth)
            }
        }
    }

    /// Range checks the flags' types cannot express: each rejects an
    /// input that would otherwise panic, hang, or be silently rewritten.
    fn validate(&self) -> Result<(), SpecError> {
        const ONE: &str = "must be at least 1";
        match self {
            RunSpec::Move(s) => {
                ensure!(s.pages > 0, "pages", "{ONE}");
                ensure!(s.count > 0, "count", "{ONE}");
                ensure!(s.window > 0, "window", "{ONE}");
                ensure!(s.cost.dma_tc_count > 0, "tc-count", "{ONE}");
                let max = NUM_PARAM_SETS as u32;
                ensure!(s.pages <= max, "pages", "exceeds the {max} DMA descriptors");
                let (inflight, slots) = (s.window.min(s.count), s.config.queue_capacity);
                ensure!(inflight <= slots, "window", "over the {slots} queue slots");
                let nodes = s.topology.all_nodes();
                let fast = nodes.iter().find(|n| n.kind == MemoryKind::Fast);
                let footprint = inflight as u64 * u64::from(s.pages) * s.page_size.bytes();
                let fits = footprint <= fast.map_or(0, |n| n.bytes);
                ensure!(fits, "pages", "the window overflows the fast bank");
                check_shards(s.config.issue_shards)
            }
            RunSpec::Policy(_, c) => {
                ensure!(c.regions > 0, "regions", "{ONE}");
                ensure!(c.pages_per_region > 0, "pages", "{ONE}");
                ensure!(c.phases > 0, "phases", "{ONE}");
                ensure!(c.hot > 0, "hot", "{ONE}");
                ensure!(c.ticks_per_phase > 0, "ticks", "{ONE}");
                ensure!(c.policy.epoch.as_ns() > 0, "epoch-us", "{ONE}");
                ensure!((2..=4).contains(&c.tiers), "tiers", "out of range (2..=4)");
                ensure!(c.policy_tiers <= c.tiers, "policy-tiers", "exceeds --tiers");
                ensure!(c.carry <= c.hot, "carry", "exceeds --hot");
                let (hot, warm, regions) = (c.hot, c.warm, c.regions);
                ensure!(hot + warm <= regions, "warm", "hot + warm exceed --regions");
                Ok(())
            }
            RunSpec::Recover(r) => {
                ensure!(r.pages > 0, "pages", "{ONE}");
                ensure!(r.count > 0, "count", "{ONE}");
                ensure!(r.config.batch_max > 0, "batch-max", "{ONE}");
                // Every request is submitted up front.
                let slots = r.config.queue_capacity;
                ensure!(r.count <= slots, "count", "over the {slots} queue slots");
                check_shards(r.config.issue_shards)
            }
            RunSpec::Stream(s) => {
                kernel_profile(&s.kernel)?;
                ensure!(s.input_mib <= 1 << 20, "input-mib", "exceeds 1 TiB");
                let buffer = StreamConfig::default().buffer_pages as usize;
                let divides = s.depth > 0 && buffer.is_multiple_of(s.depth);
                ensure!(
                    divides,
                    "overlap-depth",
                    "must divide the {buffer}-page buffer"
                );
                Ok(())
            }
        }
    }

    /// Parses `cmd`'s run from `args`; flags neither the run nor `extra`
    /// declares are an error.
    pub fn parse(cmd: &str, args: &Args, extra: &[&str]) -> Result<RunSpec, SpecError> {
        let mut spec = RunSpec::blank(cmd)?;
        let mut declared = extra.to_vec();
        spec.visit(&mut |flag, default, field| {
            declared.push(flag);
            let value = args.get(flag).unwrap_or(default);
            field
                .parse(value)
                .map_err(|msg| SpecError::Invalid { flag, msg })
        })?;
        if let Some(flag) = args.undeclared(&declared) {
            let (cmd, flag) = (cmd.to_owned(), flag.to_owned());
            return Err(SpecError::Undeclared { cmd, flag });
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Every flag's `(name, value)`, in header order.
    fn tokens(&self) -> Vec<(&'static str, String)> {
        let mut tokens = Vec::new();
        let _ = self.clone().visit(&mut |flag, _, field| {
            tokens.push((flag, field.print()));
            Ok(())
        });
        tokens
    }

    /// The trace's `#!` header line: the command and every flag.
    #[must_use]
    pub fn header(&self) -> String {
        let mut out = format!("#! {}", self.command());
        for (flag, value) in self.tokens() {
            let _ = write!(out, " {flag}={value}");
        }
        out
    }

    /// `cmd`'s flags and their defaults, for `memifctl help`.
    pub fn usage(cmd: &str) -> String {
        let mut flags = Vec::new();
        if let Ok(mut spec) = RunSpec::blank(cmd) {
            let _ = spec.visit(&mut |flag, default, _| {
                flags.push(format!("[--{flag} {default}]"));
                Ok(())
            });
        }
        flags
            .chunks(5)
            .map(|line| format!("\n    {}", line.join(" ")))
            .collect()
    }

    /// The run a trace header records, checked against the flags given
    /// on the replay command line: each must leave the run unchanged.
    pub fn replayed(trace: &Args, overrides: &Args) -> Result<RunSpec, SpecError> {
        let cmd = trace.command.as_deref().unwrap_or_default();
        let recorded = RunSpec::parse(cmd, trace, &[])?;
        let pairs = trace.pairs().chain(overrides.pairs());
        let layered = Args::from_pairs(cmd, pairs.map(|(k, v)| (k.to_owned(), v.to_owned())));
        let requested = RunSpec::parse(cmd, &layered, &[])?;
        let (was, now) = (recorded.tokens(), requested.tokens());
        let Some(((flag, recorded), (_, requested))) =
            was.into_iter().zip(now).find(|(a, b)| a != b)
        else {
            return Ok(recorded);
        };
        Err(SpecError::Conflict {
            flag,
            requested,
            recorded,
        })
    }

    /// Runs the spec, recording the typed event log when `log_events`.
    #[must_use]
    pub fn run(&self, log_events: bool) -> (Log, Report) {
        let (events, statuses, report) = match self {
            RunSpec::Move(s) => {
                let l = run_stream(&StreamSpec {
                    log_events,
                    ..s.clone()
                });
                (l.events, l.statuses, Report::Move(l.result))
            }
            RunSpec::Policy(cost, c) => {
                let mut r = run_scenario(
                    cost,
                    &ScenarioConfig {
                        log_events,
                        ..c.clone()
                    },
                );
                let (events, statuses) = (
                    std::mem::take(&mut r.events),
                    std::mem::take(&mut r.statuses),
                );
                (events, statuses, Report::Policy(r))
            }
            RunSpec::Recover(r) => {
                let (o, events) = crash_migrate_nvm(
                    &r.cost,
                    r.config.clone(),
                    r.page_size,
                    r.pages,
                    r.count,
                    r.crash,
                    log_events,
                );
                let statuses = o.statuses.iter().map(|(k, st)| (*k, format!("{st:?}")));
                (events, statuses.collect(), Report::Recover(o))
            }
            RunSpec::Stream(s) => {
                let mut sys = memif::System::keystone_ii();
                if log_events {
                    sys.enable_event_log();
                }
                let (mut sim, space) = (Sim::new(), sys.new_space());
                let total_input = s.input_mib << 20;
                let config = StreamConfig {
                    placement: s.placement,
                    total_input,
                    overlap_depth: s.depth,
                    ..StreamConfig::default()
                };
                let memif = (s.placement == Placement::MemifPrefetch).then(|| {
                    Memif::open(&mut sys, space, config.device_config()).expect("device opens")
                });
                let kernel = kernel_profile(&s.kernel).expect("validated kernel");
                let rt = StreamRuntime::launch(&mut sys, &mut sim, space, memif, config, kernel);
                sim.run(&mut sys);
                (
                    sys.take_event_log(),
                    rt.completions(),
                    Report::Stream(rt.report()),
                )
            }
        };
        (Log { events, statuses }, report)
    }
}

/// The chaos flags `move` and `policy` share: rates are probabilities,
/// and a plan that injects nothing is no plan.
fn fault_flags(f: &mut Visit<'_>, faults: &mut Option<FaultPlan>) -> Result<(), SpecError> {
    let mut plan = faults.clone().unwrap_or_default();
    f("fault-seed", "0", &mut plan.seed)?;
    f("dma-error-rate", "0", &mut plan.dma_error_rate)?;
    f("drop-rate", "0", &mut plan.drop_rate)?;
    f("delay-rate", "0", &mut plan.delay_rate)?;
    f("desc-exhaust-rate", "0", &mut plan.desc_exhaust_rate)?;
    let p = &plan;
    for (flag, rate) in [
        ("dma-error-rate", p.dma_error_rate),
        ("drop-rate", p.drop_rate),
        ("delay-rate", p.delay_rate),
        ("desc-exhaust-rate", p.desc_exhaust_rate),
    ] {
        ensure!((0.0..=1.0).contains(&rate), flag, "{rate} is not in [0, 1]");
    }
    *faults = (!plan.is_noop()).then_some(plan);
    Ok(())
}

/// The issue-path flags `move` and `recover` share. Coalescing rides
/// batching: a batched run merges physically contiguous segments unless
/// `--no-coalesce true`; unbatched runs never coalesce.
fn issue_flags(
    f: &mut Visit<'_>,
    config: &mut MemifConfig,
    batch_max: &str,
) -> Result<(), SpecError> {
    f("batch-max", batch_max, &mut config.batch_max)?;
    let mut no_coalesce = config.batch_max > 1 && !config.coalesce;
    f("no-coalesce", "false", &mut no_coalesce)?;
    config.coalesce = config.batch_max > 1 && !no_coalesce;
    f("issue-shards", "1", &mut config.issue_shards)
}

/// The `(id, weight)` roster `--tenants n --tenant-weights w` describes:
/// ids `1..=n`, weights `w` (all 1 when empty). One tenant without
/// weights is the classic single-root-tenant run: an empty roster.
fn roster(n: usize, mut weights: Vec<u32>) -> Result<Vec<(u16, u32)>, SpecError> {
    ensure!(
        (1..=4096).contains(&n),
        "tenants",
        "{n} out of range (1..=4096)"
    );
    if weights.is_empty() {
        if n == 1 {
            return Ok(Vec::new());
        }
        weights = vec![1; n];
    }
    ensure!(
        weights.len() == n,
        "tenant-weights",
        "{} weights for {n} tenants",
        weights.len()
    );
    Ok((1..).zip(weights).collect())
}

fn check_shards(shards: usize) -> Result<(), SpecError> {
    ensure!(
        (1..=64).contains(&shards),
        "issue-shards",
        "{shards} out of range (1..=64)"
    );
    Ok(())
}

/// The workload a `--kernel` token names.
pub fn kernel_profile(token: &str) -> Result<KernelProfile, SpecError> {
    match token {
        "triad" => Ok(stream_triad()),
        "add" => Ok(stream_add()),
        "pgain" => Ok(streamcluster_pgain()),
        "wordcount" => Ok(wordcount_like()),
        _ => Err(SpecError::Invalid {
            flag: "kernel",
            msg: format!("'{token}' is not one kernel (triad|add|pgain|wordcount)"),
        }),
    }
}

/// Reads one typed flag outside a [`RunSpec`], for the commands that
/// record no run.
pub fn flag<T: Token>(args: &Args, name: &'static str, mut value: T) -> Result<T, SpecError> {
    let parsed = args.get(name).map_or(Ok(()), |v| value.parse(v));
    parsed
        .map(|()| value)
        .map_err(|msg| SpecError::Invalid { flag: name, msg })
}

/// Writes `spec`'s trace: the `#!` header, one JSON event per line, then
/// one `#= <req> <status>` line per request.
pub fn write_trace(path: &str, spec: &RunSpec, log: &Log) -> Result<(), String> {
    let mut out = spec.header();
    out.push('\n');
    for line in &log.events {
        out.push_str(line);
        out.push('\n');
    }
    for (req, status) in &log.statuses {
        let _ = writeln!(out, "#= {req} {status}");
    }
    std::fs::write(path, out).map_err(|e| format!("--trace-events: {path}: {e}"))?;
    println!(
        "trace: {} events + {} terminal statuses -> {path}",
        log.events.len(),
        log.statuses.len()
    );
    Ok(())
}

/// Reads a trace written by [`write_trace`]: its `#!` header as a command
/// line, and the recorded log.
pub fn read_trace(path: &str) -> Result<(Args, Log), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("--from: {path}: {e}"))?;
    let mut header = None;
    let (mut events, mut statuses) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if let Some(h) = line.strip_prefix("#! ") {
            header = Some(h);
        } else if let Some(s) = line.strip_prefix("#= ") {
            let (req, status) = s
                .split_once(' ')
                .ok_or_else(|| format!("malformed status line '{line}'"))?;
            let req = req
                .parse()
                .map_err(|_| format!("malformed request id in '{line}'"))?;
            statuses.push((req, status.to_owned()));
        } else if !line.is_empty() {
            events.push(line.to_owned());
        }
    }
    let header = header_args(header.ok_or("trace has no '#!' header line")?)?;
    Ok((header, Log { events, statuses }))
}

/// A `#!` header's body (`cmd key=value ...`) as a command line.
fn header_args(header: &str) -> Result<Args, String> {
    let (cmd, flags) = header.split_once(' ').unwrap_or((header, ""));
    let pairs: Vec<_> = flags
        .split_whitespace()
        .map(|kv| {
            kv.split_once('=')
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .ok_or_else(|| format!("malformed header token '{kv}'"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Args::from_pairs(cmd, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Re-reads a header line the way replay does.
    fn reparse(header: &str) -> Result<RunSpec, SpecError> {
        let args = header_args(header.strip_prefix("#! ").expect("header prefix")).unwrap();
        RunSpec::parse(args.command.as_deref().unwrap(), &args, &[])
    }

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned)).unwrap()
    }

    /// A deterministic field source for [`arbitrary`].
    struct Draw(u64);

    impl Draw {
        /// A value in `0..n` (splitmix64).
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn flip(&mut self) -> bool {
            self.below(2) == 1
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.below(options.len() as u64) as usize]
        }

        /// A profile with up to `tcs` transfer channels.
        fn cost(&mut self, tcs: u64) -> CostModel {
            let mut cost =
                [CostModel::keystone_ii(), CostModel::xeon_e5()][self.below(2) as usize].clone();
            cost.dma_tc_count = 1 + self.below(tcs) as u32;
            cost
        }

        /// A valid issue path: coalescing only exists when batching.
        fn issue(&mut self, config: &mut MemifConfig) {
            config.batch_max = 1 + self.below(16) as usize;
            config.coalesce = config.batch_max > 1 && self.flip();
            config.issue_shards = 1 + self.below(8) as usize;
        }

        /// `None`, or a plan that injects at least one fault kind.
        fn faults(&mut self) -> Option<FaultPlan> {
            let rate = |d: &mut Draw| d.below(200_000) as f64 * 1e-6;
            self.flip().then(|| FaultPlan {
                seed: self.below(1_000),
                dma_error_rate: 1e-6 + rate(self),
                drop_rate: rate(self),
                delay_rate: rate(self),
                desc_exhaust_rate: rate(self),
                ..FaultPlan::default()
            })
        }
    }

    /// A valid spec of `variant`, every field drawn from `seed`.
    fn arbitrary(variant: usize, seed: u64) -> RunSpec {
        let d = &mut Draw(seed);
        let page_sizes = [PageSize::Small4K, PageSize::Medium64K, PageSize::Large2M];
        match variant {
            0 => {
                let kind = d.pick(&[ShapeKind::Migrate, ShapeKind::Replicate]);
                let (count, window) = (1 + d.below(200) as usize, 1 + d.below(64) as usize);
                let mut s = StreamSpec::new(
                    kind,
                    PageSize::Small4K,
                    1 + d.below(64) as u32,
                    count,
                    window,
                );
                s.cost = d.cost(4);
                let c = &mut s.config;
                c.pipeline_depth = 1 + d.below(4) as usize;
                c.max_dma_retries = d.below(6) as u32;
                (c.cpu_fallback, c.descriptor_reuse, c.gang_lookup) =
                    (d.flip(), d.flip(), d.flip());
                d.issue(c);
                c.batch_rearm = d.flip();
                s.faults = d.faults();
                if d.flip() {
                    let n = 1 + d.below(4) as u16;
                    s.tenants = (1..=n).map(|id| (id, 1 + d.below(9) as u32)).collect();
                }
                s.config.qos = d.flip();
                RunSpec::Move(s)
            }
            1 => {
                let mut c = ScenarioConfig {
                    mode: d.pick(&[Mode::None, Mode::Sync, Mode::Async]),
                    seed: d.below(1 << 40),
                    regions: 8 + d.below(32) as usize,
                    pages_per_region: 1 + d.below(64) as u32,
                    page_size: d.pick(&page_sizes),
                    phases: 1 + d.below(8) as usize,
                    hot: 1 + d.below(8) as usize,
                    ticks_per_phase: 1 + d.below(40) as u32,
                    tiers: 2 + d.below(3) as usize,
                    faults: d.faults(),
                    ..ScenarioConfig::default()
                };
                c.carry = d.below(c.hot as u64 + 1) as usize;
                c.policy_tiers = d.below(c.tiers as u64 + 1) as usize;
                c.warm = d.below((c.regions - c.hot) as u64 + 1) as usize;
                c.policy.epoch = SimDuration::from_us(1 + d.below(5_000));
                c.policy.max_inflight = d.below(9) as usize;
                // `policy` and `recover` declare no --tc-count.
                RunSpec::Policy(d.cost(1), c)
            }
            2 => {
                let mut config = MemifConfig::default();
                d.issue(&mut config);
                let crash = d
                    .flip()
                    .then(|| CrashPlan::at(d.pick(&CrashPoint::ALL), 1 + d.below(5)));
                RunSpec::Recover(CrashRun {
                    cost: d.cost(1),
                    config,
                    page_size: d.pick(&page_sizes),
                    pages: 1 + d.below(16) as u32,
                    count: 1 + d.below(64) as usize,
                    crash,
                })
            }
            _ => RunSpec::Stream(StreamRun {
                kernel: d.pick(&["triad", "add", "pgain", "wordcount"]).to_owned(),
                placement: d.pick(&[Placement::MemifPrefetch, Placement::SlowOnly]),
                input_mib: 1 + d.below(128),
                depth: d.pick(&[1, 2, 4, 8, 16, 32, 64]),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `parse(header(s)) == s` for every variant, including fault
        /// rates, tenant weights and crash points.
        #[test]
        fn header_round_trips(variant in 0usize..4, seed in any::<u64>()) {
            let spec = arbitrary(variant, seed);
            prop_assert_eq!(reparse(&spec.header()), Ok(spec));
        }
    }

    #[test]
    fn committed_pr7_header_parses_with_its_recorded_values() {
        let text = include_str!("../tests/data/waterfall_pr7.jsonl");
        let header = text.lines().next().unwrap();
        let spec = reparse(header).expect("the committed header parses");
        let RunSpec::Policy(cost, c) = &spec else {
            panic!("a policy header: {spec:?}")
        };
        assert_eq!(cost, &CostModel::keystone_ii());
        assert_eq!(
            (c.mode, c.seed, c.regions, c.phases),
            (Mode::Async, 42, 32, 3)
        );
        assert_eq!(
            (c.tiers, c.policy_tiers, c.warm, c.ticks_per_phase),
            (4, 0, 12, 16)
        );
        assert_eq!(c.faults, None);
        assert_eq!(spec.header(), header, "printing is byte-identical");
    }

    #[test]
    fn old_move_header_takes_the_recorded_defaults() {
        // Written before the sharding, rearm and tenant flags existed.
        let old = "#! move kind=migrate page-size=4k pages=16 count=8 window=8 depth=2 \
                   max-retries=3 no-fallback=false no-reuse=false no-gang=false \
                   profile=keystone tc-count=1 fault-seed=0 dma-error-rate=0 drop-rate=0 \
                   delay-rate=0 desc-exhaust-rate=0 batch-max=1 no-coalesce=false";
        let spec = reparse(old).expect("an old header parses");
        assert_eq!(
            Ok(spec.clone()),
            RunSpec::parse("move", &args("move --count 8"), &[])
        );
        assert!(spec.header().starts_with(old));
        assert!(spec
            .header()
            .ends_with(" issue-shards=1 batch-rearm=false tenants=1 tenant-weights= qos=false"));
        let old_policy = "#! policy mode=async seed=42 regions=24 pages=64 page-size=4k";
        let RunSpec::Policy(_, c) = reparse(old_policy).unwrap() else {
            panic!("a policy header")
        };
        assert_eq!((c.tiers, c.policy_tiers, c.warm), (2, 0, 0));
    }

    #[test]
    fn replay_accepts_matching_overrides_and_names_differing_ones() {
        let spec = RunSpec::parse("move", &args("move --count 8 --dma-error-rate 1e-2"), &[]);
        let header = header_args(&spec.unwrap().header()[3..]).unwrap();
        let replay = |line: &str| RunSpec::replayed(&header, &args(line));
        assert!(replay("replay --count 8 --dma-error-rate 0.01 --batch-max 1").is_ok());
        let conflict = |flag, requested: &str, recorded: &str| {
            let (requested, recorded) = (requested.to_owned(), recorded.to_owned());
            Err(SpecError::Conflict {
                flag,
                requested,
                recorded,
            })
        };
        assert_eq!(replay("replay --count 999"), conflict("count", "999", "8"));
        assert_eq!(
            replay("replay --batch-max 8"),
            conflict("batch-max", "8", "1")
        );
        assert_eq!(
            replay("replay --dma-error-rate 0.5"),
            conflict("dma-error-rate", "0.5", "0.01")
        );
        assert!(matches!(
            replay("replay --batchmax 8"),
            Err(SpecError::Undeclared { flag, .. }) if flag == "batchmax"
        ));
    }

    #[test]
    fn page_sizes() {
        let mut size = PageSize::Small4K;
        for (token, want) in [("64k", PageSize::Medium64K), ("2M", PageSize::Large2M)] {
            size.parse(token).unwrap();
            assert_eq!(size, want);
        }
        assert_eq!(size.print(), "2m");
        assert!(size.parse("1g").is_err());
    }
}
