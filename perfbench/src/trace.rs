//! The traced run: host time and allocations attributed to driver
//! modules from outside the program.
//!
//! The simulation is stepped one event at a time with the event log on.
//! Each step's host duration and allocation count go to the module of
//! the log record the step appended; the application's API calls are
//! timed as spans of their own. Spans stay in memory and are written as
//! Chrome Trace Event JSON once timing has stopped.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::workload::Machine;

/// The application's timed API calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// `Memif::submit`.
    Submit,
    /// `Memif::retrieve_completed`.
    Retrieve,
    /// `Memif::poll`.
    Poll,
}

impl Api {
    const ALL: [Api; 3] = [Api::Submit, Api::Retrieve, Api::Poll];

    fn name(self) -> &'static str {
        match self {
            Api::Submit => "submit",
            Api::Retrieve => "retrieve_completed",
            Api::Poll => "poll",
        }
    }
}

/// Driver modules host time is attributed to, by event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Module {
    Kthread,
    Exec,
    Complete,
    Flow,
    App,
    /// Chaos-only events (none on these workloads).
    Other,
}

impl Module {
    const ALL: [Module; 6] = [
        Module::Kthread,
        Module::Exec,
        Module::Complete,
        Module::Flow,
        Module::App,
        Module::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Module::Kthread => "core.driver.kthread",
            Module::Exec => "core.driver.exec",
            Module::Complete => "core.driver.complete",
            Module::Flow => "hwsim.flow",
            Module::App => "app",
            Module::Other => "other",
        }
    }

    /// Chrome trace track; the API track follows the modules.
    fn track(self) -> usize {
        self as usize
    }
}

const API_TRACK: usize = Module::ALL.len();

/// Host time and allocations of one kind of work.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    count: u64,
    ns: u64,
    allocs: u64,
}

/// Who a span belongs to.
#[derive(Debug, Clone, Copy)]
enum Owner {
    None,
    Cookie(u64),
    /// A driver token, resolved to cookies when its request retires.
    Token(u64),
}

#[derive(Debug, Clone, Copy)]
struct Span {
    track: usize,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    owner: Owner,
}

/// At most this many spans are kept (the first ones of the run).
const SPAN_CAP: usize = 50_000;

/// Accumulated attribution of every traced step and API call.
pub struct Tracer {
    epoch: Instant,
    modules: [Acc; Module::ALL.len()],
    api: [Acc; Api::ALL.len()],
    /// API time spent inside the step being executed.
    api_ns_in_step: u64,
    /// App-event self time: step time minus the API calls inside it.
    app_self_ns: u64,
    /// Whether spans are still being recorded.
    recording: bool,
    spans: Vec<Span>,
    token_cookies: HashMap<u64, Vec<u64>>,
    /// Requests and pages retired under tracing.
    requests: u64,
    pages: u64,
}

impl Tracer {
    /// A tracer that records spans until the cap.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            modules: [Acc::default(); Module::ALL.len()],
            api: [Acc::default(); Api::ALL.len()],
            api_ns_in_step: 0,
            app_self_ns: 0,
            recording: true,
            spans: Vec::with_capacity(SPAN_CAP),
            token_cookies: HashMap::new(),
            requests: 0,
            pages: 0,
        }
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.recording && self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    /// Records an API call that began at `started` and ends now.
    pub fn api(&mut self, api: Api, started: Instant, cookie: u64) {
        let dur_ns = started.elapsed().as_nanos() as u64;
        let acc = &mut self.api[api as usize];
        acc.count += 1;
        acc.ns += dur_ns;
        self.api_ns_in_step += dur_ns;
        let owner = if cookie == u64::MAX {
            Owner::None
        } else {
            Owner::Cookie(cookie)
        };
        self.push(Span {
            track: API_TRACK,
            name: api.name(),
            start_ns: self.ns_since_epoch(started),
            dur_ns,
            owner,
        });
    }

    /// Stops recording spans (later traced runs only accumulate).
    pub fn stop_recording(&mut self) {
        self.recording = false;
    }
}

/// The `"type"` and optional `"token"` fields of an event-log record.
fn parse_record(record: &str) -> (&str, Option<u64>) {
    let field = |key: &str| record.split(key).nth(1);
    let event_type = field("\"type\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("");
    let token = field("\"token\":").and_then(|rest| {
        let digits: &str = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    });
    (event_type, token)
}

/// Every event type the event log names, with the driver module its
/// host time is attributed to.
const EVENT_MODULES: [(&str, Module); 17] = [
    ("kthread_run", Module::Kthread),
    ("kthread_continue", Module::Kthread),
    ("launch", Module::Exec),
    ("retry_launch", Module::Exec),
    ("exec_retry", Module::Exec),
    ("watchdog_fire", Module::Exec),
    ("degrade_or_fail", Module::Exec),
    ("dma_done", Module::Complete),
    ("poll_release", Module::Complete),
    ("irq_release", Module::Complete),
    ("flow_tick", Module::Flow),
    ("set_capacity", Module::Flow),
    ("thunk", Module::App),
    ("hook", Module::App),
    ("dma_irq_delayed", Module::Other),
    ("dma_irq_lost", Module::Other),
    ("degraded_release", Module::Other),
];

/// The span name and module of an event type.
fn classify(event_type: &str) -> (&'static str, Module) {
    EVENT_MODULES
        .iter()
        .find(|(name, _)| *name == event_type)
        .copied()
        .unwrap_or(("other", Module::Other))
}

/// Runs `machine` to the end one event at a time, attributing each step.
pub fn run_traced(machine: &mut Machine, tracer: &std::rc::Rc<std::cell::RefCell<Tracer>>) {
    let device = machine.device();
    machine.sys.enable_event_log();
    machine.start();
    loop {
        let logged = machine.sys.event_log().len();
        let retired = machine.sys.device(device).map_or(0, |d| d.log.len());
        tracer.borrow_mut().api_ns_in_step = 0;
        let allocs = alloc::count();
        let started = Instant::now();
        if !machine.sim.step(&mut machine.sys) {
            break;
        }
        let dur_ns = started.elapsed().as_nanos() as u64;
        let allocs = alloc::count() - allocs;
        let (event_type, token) = machine
            .sys
            .event_log()
            .get(logged)
            .map_or(("", None), |r| parse_record(r));
        let (name, module) = classify(event_type);

        let mut t = tracer.borrow_mut();
        let acc = &mut t.modules[module as usize];
        acc.count += 1;
        acc.ns += dur_ns;
        acc.allocs += allocs;
        if module == Module::App {
            t.app_self_ns += dur_ns.saturating_sub(t.api_ns_in_step);
        }
        let log = &machine.sys.device(device).expect("device open").log;
        for rec in &log[retired..] {
            t.requests += 1;
            t.pages += rec.bytes / 4096;
            // Tokens restart with every machine: map only the recorded one.
            if let (Some(token), true) = (token, t.recording) {
                let cookie = machine.cookie_of(rec.req_id);
                t.token_cookies.entry(token).or_default().push(cookie);
            }
        }
        let start_ns = t.ns_since_epoch(started);
        t.push(Span {
            track: module.track(),
            name,
            start_ns,
            dur_ns,
            owner: token.map_or(Owner::None, Owner::Token),
        });
        drop(t);
        if logged > 4096 {
            machine.sys.take_event_log();
        }
    }
}

impl Tracer {
    /// Per-layer host metrics: name, value and unit.
    pub fn host_metrics(&self) -> Vec<(String, f64, &'static str)> {
        let reqs = self.requests.max(1) as f64;
        let pages = self.pages.max(1) as f64;
        let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let mut out = Vec::new();
        for module in [
            Module::Kthread,
            Module::Exec,
            Module::Complete,
            Module::Flow,
        ] {
            let acc = self.modules[module as usize];
            let name = module.name();
            out.push((
                format!("{name}.host_ns_per_event"),
                per(acc.ns, acc.count),
                "ns",
            ));
            out.push((
                format!("{name}.events_per_req"),
                acc.count as f64 / reqs,
                "count",
            ));
            if module == Module::Flow {
                continue;
            }
            let allocs = per(acc.allocs, acc.count);
            out.push((format!("{name}.allocs_per_event"), allocs, "count"));
            if module != Module::Exec {
                out.push((
                    format!("{name}.host_ns_per_page"),
                    acc.ns as f64 / pages,
                    "ns",
                ));
            }
        }
        let app = self.modules[Module::App as usize];
        let submit = self.api[Api::Submit as usize];
        let retrieve = self.api[Api::Retrieve as usize];
        out.extend([
            (
                "app.pump_self_host_ns".to_owned(),
                per(self.app_self_ns, app.count),
                "ns",
            ),
            (
                "core.api.submit_host_ns".to_owned(),
                per(submit.ns, submit.count),
                "ns",
            ),
            (
                "core.api.retrieve_host_ns".to_owned(),
                per(retrieve.ns, retrieve.count),
                "ns",
            ),
        ]);
        out
    }

    /// The recorded spans as Chrome Trace Event JSON: one track per
    /// driver module and one for API calls; a request's spans carry its
    /// cookie.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let tracks = Module::ALL
            .iter()
            .map(|m| m.name())
            .chain(std::iter::once("api"));
        for (tid, name) in tracks.enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"memif benchmark\"}}}}{}",
            if self.spans.is_empty() { "" } else { "," }
        );
        for (i, s) in self.spans.iter().enumerate() {
            let args = match s.owner {
                Owner::None => String::new(),
                Owner::Cookie(c) => format!("\"cookie\":{c}"),
                Owner::Token(t) => match self.token_cookies.get(&t).map(Vec::as_slice) {
                    Some([c]) => format!("\"token\":{t},\"cookie\":{c}"),
                    Some(cs) => format!("\"token\":{t},\"cookies\":{cs:?}"),
                    None => format!("\"token\":{t}"),
                },
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}{sep}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}
