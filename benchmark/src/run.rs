//! One run of one workload: warm-up, the timed section, the result line.
//!
//! Load shape: batch, closed. One process at a time, every driver pinned
//! to one worker (`HARNESS_THREADS=1`), so the numbers measure the simulator and
//! not a two-core scheduler. The warm-up pass fills the process-wide caches
//! (module memo, artifact cache, shared lowered code) and is charged to
//! `setup_s`; the timed section then repeats the pass a fixed number of
//! times ([`WorkloadId::passes_per_process`], about `--seconds` worth in
//! all), spread over [`SECTION_PROCESSES`] fresh processes, and reports, as
//! `wall_s`, the sum of each unit's fastest time over those passes
//! ([`Fastest`]); the median pass is printed beside it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use oci_spec_lite::Value;
use simkernel::KernelError;
use wasm_core::ArtifactCache;

use crate::passes::{Guest, PassOutcome, Size, WorkloadId};
use crate::spec::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use crate::{probes, stats};

/// Fresh processes timed for `setup_s`; the fastest is reported, for the
/// reason given at [`Fastest`] (the median is printed beside it).
const SETUP_SAMPLES: usize = 9;

/// Fresh processes the timed passes are spread over. Where the kernel puts a
/// process's stack, heap and mappings decides how its hot data alias in the
/// caches: with address randomisation on, about one process in three runs
/// every pass of `fig_sweep` 13 % slower than the others, from first pass to
/// last, and with it off (`setarch -R`) none does. One process would report
/// the layout it drew; the fastest of three reports the program.
const SECTION_PROCESSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<WorkloadId>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the workload this many times, each in its own process, and
    /// print median and quartiles of every host metric.
    pub repeat: usize,
    /// Internal: run the warm-up pass and exit (one `setup_s` sample).
    pub setup_only: bool,
    /// Internal: run the warm-up and one process's share of the timed
    /// passes, and print them as one JSON line.
    pub section_only: bool,
    /// Time one pass at [`Size::Paper`] instead of the repeated bench pass.
    pub paper_size: bool,
}

impl Args {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: 20.0,
            trace: false,
            repeat: 1,
            setup_only: false,
            section_only: false,
            paper_size: false,
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    out.workload =
                        Some(WorkloadId::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => {
                    out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    out.seconds =
                        value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--repeat" => {
                    out.repeat =
                        value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if out.repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                }
                "--setup-only" => out.setup_only = true,
                "--section-only" => out.section_only = true,
                "--paper-size" => out.paper_size = true,
                "--trace" => {
                    // `--trace` alone turns tracing on; the driver passes 0 or 1.
                    out.trace = match args.peek().map(String::as_str) {
                        Some("0") => {
                            args.next();
                            false
                        }
                        Some("1") => {
                            args.next();
                            true
                        }
                        _ => true,
                    };
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// The command line that runs this workload once in a child process.
    fn child(&self, workload: WorkloadId) -> Result<Command, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }]);
        if self.paper_size {
            cmd.arg("--paper-size");
        }
        Ok(cmd)
    }

    /// Size of the timed passes, the processes they are spread over and
    /// the passes each process runs.
    fn timed(&self, workload: WorkloadId) -> (Size, usize, usize) {
        if self.paper_size {
            (Size::Paper, 1, 1)
        } else {
            let passes = workload.passes_per_process(self.seconds, SECTION_PROCESSES);
            (Size::Bench, SECTION_PROCESSES, passes)
        }
    }
}

/// The result of one run: what the last line of standard output carries.
#[derive(Debug)]
pub struct Report {
    pub workload: WorkloadId,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds of every pass of the timed section, in order.
    pub pass_walls: Vec<f64>,
    /// Peak resident MiB of every pass (empty on a traced run).
    pub pass_rss: Vec<f64>,
    /// Passes the timed section planned; it ran fewer only if it overran.
    pub planned_passes: usize,
    /// Seconds of every `setup_s` sample (empty on a traced run).
    pub setup_samples: Vec<f64>,
    /// Digest of the simulated outputs of one pass; every pass of a run
    /// must produce it. Printed so two commits compare exactly.
    pub sim_digest: Digest,
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl Report {
    /// The last line of standard output.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }

    /// Every metric by name with its unit and kind, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let w = self.workload;
        writeln!(
            out,
            "workload {}: {} of {} passes, {} {} attempted, {} failed, sim_digest {:016x}",
            w.name(),
            self.pass_walls.len(),
            self.planned_passes,
            self.attempted,
            w.op_unit(),
            self.failed,
            self.sim_digest.0
        )
        .expect("write to String");
        let walls: Vec<String> = self.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
        writeln!(
            out,
            "  pass seconds: {} (median {:.3})",
            walls.join(" "),
            median(&self.pass_walls)
        )
        .expect("write to String");
        if !self.pass_rss.is_empty() {
            let rss: Vec<String> = self.pass_rss.iter().map(|m| format!("{m:.1}")).collect();
            writeln!(out, "  pass peak MiB: {}", rss.join(" ")).expect("write to String");
        }
        if !self.setup_samples.is_empty() {
            let setups: Vec<String> =
                self.setup_samples.iter().map(|w| format!("{w:.3}")).collect();
            writeln!(
                out,
                "  setup seconds: {} (median {:.3})",
                setups.join(" "),
                median(&self.setup_samples)
            )
            .expect("write to String");
        }
        for (name, value, unit) in self.metrics.iter() {
            let kind = if name.starts_with("sim.") { "sim " } else { "host" };
            writeln!(out, "  {kind} {name:<40} {value:>16.6} {unit}").expect("write to String");
        }
        for v in &self.violations {
            writeln!(out, "  VIOLATION {v}").expect("write to String");
        }
        out
    }
}

/// Start a new peak: writing 5 to `clear_refs` makes the kernel reset
/// `VmHWM` to the current resident set. Where `/proc` refuses the write the
/// peak stays cumulative over the passes, and their median is still taken.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn kernel_err(e: KernelError) -> String {
    format!("simulator error: {e}")
}

/// Pin every driver this process calls to one worker.
fn pin_single_worker() {
    std::env::set_var("HARNESS_THREADS", "1");
}

/// What a `--setup-only` child runs: the warm-up pass alone, then the
/// seconds since `started` (the entry of `main`) on standard output.
pub fn setup_only(workload: WorkloadId, seed: u64, started: Instant) -> Result<(), String> {
    pin_single_worker();
    workload.run(seed, Size::Smoke, &mut Tracer::new(false)).map_err(kernel_err)?;
    println!("{}", started.elapsed().as_secs_f64());
    Ok(())
}

/// Seconds a fresh process takes from entering `main` to the end of its
/// warm-up pass: one `setup_s` sample. Timed inside the child: spawning and
/// reaping a process is the host's work, not the program's, and on a busy
/// host it swings more than the set-up it would be added to.
fn setup_sample(args: &Args, workload: WorkloadId) -> Result<f64, String> {
    let mut cmd = args.child(workload)?;
    let out = cmd.arg("--setup-only").output().map_err(|e| format!("setup child: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup child exited with {}", out.status));
    }
    let seconds = String::from_utf8_lossy(&out.stdout);
    seconds.trim().parse().map_err(|e| format!("setup child printed {seconds:?}: {e}"))
}

/// The fastest time of each unit of work over the passes of a run.
///
/// The host's noise only ever slows a unit down, and on a shared VM it
/// comes in bursts of seconds: over a run's passes almost every unit gets
/// one undisturbed execution, so the sum of the per-unit minima estimates
/// what a pass costs when nothing interferes. A minimum falls as samples
/// are added, so the number of passes is fixed per workload
/// ([`WorkloadId::passes_per_process`]) and does not depend on how fast the
/// program is: two commits are compared over the same number of samples. A
/// unit that is slow only now and then does not show in a minimum; the
/// median pass, printed beside it, shows that. On a quiet host the two are
/// within a few percent, on a busy one the median of consecutive runs swung
/// by 50–150 % where this sum moved by 10 % (README, "The estimator").
#[derive(Default)]
struct Fastest(Vec<f64>);

impl Fastest {
    fn add(&mut self, unit_seconds: &[f64]) {
        if self.0.is_empty() {
            self.0 = unit_seconds.to_vec();
        }
        // A pass runs the same units every time (same seed, same inputs).
        assert_eq!(self.0.len(), unit_seconds.len(), "passes differ in their units");
        for (best, &seconds) in self.0.iter_mut().zip(unit_seconds) {
            *best = best.min(seconds);
        }
    }

    fn pass_seconds(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Whether a process starts another pass after `done` of them.
///
/// It runs its `planned` passes, which on a host like the one they were
/// sized on takes about `budget` seconds. Only when passes are so slow that
/// it has already run [`OVERRUN`] × `budget` does it stop early (never before
/// one pass): the driver gives all its runs a fixed total time, and a slow
/// phase of the host must not make this run spend another run's share. A
/// commit has to be a quarter slower than the sizing before that can cost it
/// a pass; a faster one always runs `planned` passes. The table prints how
/// many passes ran.
fn starts_another(done: usize, planned: usize, started: Instant, budget: f64) -> bool {
    done < planned && (done == 0 || started.elapsed().as_secs_f64() < budget * OVERRUN)
}

const OVERRUN: f64 = 1.15;

/// Timed passes folded together: those of one process, and in the measuring
/// process those of all of them.
#[derive(Default)]
struct Section {
    /// Host seconds of every pass, in order.
    walls: Vec<f64>,
    /// Peak resident MiB of every pass.
    rss: Vec<f64>,
    fastest: Fastest,
    /// Digest of the first pass; every other must reproduce it.
    digest: Option<Digest>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Section {
    fn add_pass(&mut self, wall: f64, rss: f64, pass: &mut PassOutcome) {
        self.walls.push(wall);
        self.rss.push(rss);
        self.fastest.add(&pass.unit_seconds);
        self.add_outcome(pass);
    }

    /// Counts and output checks of a pass, without its times.
    fn add_outcome(&mut self, pass: &mut PassOutcome) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        self.violations.append(&mut pass.violations);
        self.check_digest(pass.digest);
    }

    /// Same seed, same inputs: every pass must simulate the same thing.
    fn check_digest(&mut self, digest: Digest) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => self.violations.push(format!(
                "sim_digest {:016x} differs from the first pass's {:016x}",
                digest.0, first.0
            )),
            Some(_) => {}
        }
    }

    /// Fold in the passes another process ran.
    fn merge(&mut self, mut other: Section) {
        self.walls.append(&mut other.walls);
        self.rss.append(&mut other.rss);
        self.fastest.add(&other.fastest.0);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.append(&mut other.violations);
        self.check_digest(other.digest.unwrap_or_default());
    }

    /// The line a `--section-only` process prints.
    fn to_json(&self) -> String {
        let floats = |v: &[f64]| Value::Array(v.iter().map(|&f| Value::Number(f)).collect());
        Value::object([
            ("walls", floats(&self.walls)),
            ("rss", floats(&self.rss)),
            ("units", floats(&self.fastest.0)),
            // As text: a JSON number holds 53 bits.
            ("digest", Value::from(format!("{:016x}", self.digest.unwrap_or_default().0))),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("violations", Value::strings(self.violations.iter().cloned())),
        ])
        .to_json()
    }

    fn from_json(line: &str) -> Result<Section, String> {
        let v = oci_spec_lite::parse_json(line).map_err(|e| format!("section line: {e}"))?;
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            let items = v.get(key).and_then(Value::as_array).ok_or(format!("section: no {key}"))?;
            items.iter().map(|f| f.as_f64().ok_or(format!("section: {key} holds {f:?}"))).collect()
        };
        let count =
            |key: &str| v.get(key).and_then(Value::as_u64).ok_or(format!("section: no {key}"));
        let digest = v.get("digest").and_then(Value::as_str).ok_or("section: no digest")?;
        let digest = u64::from_str_radix(digest, 16).map_err(|e| format!("section digest: {e}"))?;
        Ok(Section {
            walls: floats("walls")?,
            rss: floats("rss")?,
            fastest: Fastest(floats("units")?),
            digest: Some(Digest(digest)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            violations: v.str_list("violations"),
        })
    }

    fn report(
        self,
        workload: WorkloadId,
        planned_passes: usize,
        setup_samples: Vec<f64>,
        metrics: Metrics,
    ) -> Result<Report, String> {
        // A probe that divided by a zero count measured nothing; printing
        // it as a number would pass a broken probe off as a result.
        if let Some((name, value, _)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
            return Err(format!("metric {name} is {value}, not a finite number"));
        }
        Ok(Report {
            workload,
            correct: self.violations.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            pass_walls: self.walls,
            pass_rss: self.rss,
            planned_passes,
            setup_samples,
            sim_digest: self.digest.unwrap_or_default(),
            violations: self.violations,
            metrics,
        })
    }
}

/// What a `--section-only` child runs: the warm-up, then this process's
/// share of the timed passes, printed as one line.
pub fn section_only(args: &Args, workload: WorkloadId) -> Result<(), String> {
    pin_single_worker();
    let mut tracer = Tracer::new(false);
    workload.run(args.seed, Size::Smoke, &mut tracer).map_err(kernel_err)?;

    let (size, processes, passes) = args.timed(workload);
    let mut section = Section::default();
    let started = Instant::now();
    while starts_another(section.walls.len(), passes, started, args.seconds / processes as f64) {
        reset_peak_rss();
        let t = Instant::now();
        let mut pass = workload.run(args.seed, size, &mut tracer).map_err(kernel_err)?;
        section.add_pass(t.elapsed().as_secs_f64(), peak_rss_mib()?, &mut pass);
    }
    println!("{}", section.to_json());
    Ok(())
}

/// The untraced run: end-to-end metrics. The measuring process runs no pass
/// itself; it starts the set-up and section processes one after the other
/// and folds what they print.
pub fn run_untraced(args: &Args, workload: WorkloadId) -> Result<Report, String> {
    let (_, processes, passes) = args.timed(workload);
    let mut section = Section::default();
    let mut setup = Vec::new();
    for process in 0..processes {
        // The set-up samples are spread evenly between the section
        // processes: a slow burst of the host lasts seconds, and nine
        // tenth-of-a-second processes run back to back would all sit
        // inside one.
        while setup.len() * processes < (process + 1) * SETUP_SAMPLES {
            setup.push(setup_sample(args, workload)?);
        }
        let mut cmd = args.child(workload)?;
        let out = cmd.arg("--section-only").output().map_err(|e| format!("section child: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("section child exited with {}", out.status));
        }
        section.merge(Section::from_json(String::from_utf8_lossy(&out.stdout).trim())?);
    }

    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("wall_s", section.fastest.pass_seconds());
    metrics.set("setup_s", setup.iter().copied().fold(f64::INFINITY, f64::min));
    // Now and then the allocator moves one of a pass's large vectors
    // instead of growing it in place and both copies are resident for a
    // moment (7 MiB of 49 on `traffic_overload`, in one pass of twenty):
    // the median pass leaves that out, a single process-wide peak cannot.
    metrics.set("peak_rss_mib", median(&section.rss));
    section.report(workload, processes * passes, setup, metrics)
}

/// Where the trace of `workload` is written: beside the executable, which
/// is inside the build's target directory.
fn trace_path(workload: WorkloadId) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?.join("benchmark-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}.trace.json", workload.name())))
}

/// Span name → the per-layer metric its self seconds per pass feed.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("new_cluster", "harness.cell.bootstrap_s"),
    ("warmup", "harness.cell.warmup_s"),
    ("deploy", "harness.cell.deploy_s"),
    ("observe_mem", "harness.cell.observe_mem_s"),
    ("observe_startup", "harness.cell.observe_startup_s"),
    ("drop", "harness.cell.drop_s"),
    ("run_traffic", "harness.run_traffic_s"),
    ("run_schedule", "harness.run_schedule_s"),
    ("pass", "harness.driver.self_s"),
];

/// The traced run: per-layer metrics. Untraced passes (the entry points)
/// and traced passes (their spanned copies) alternate, half of the run's
/// passes each, so the tracing overhead comes from the same run and every
/// traced pass is checked against an untraced one through the digest; the
/// layer probes follow.
pub fn run_traced(args: &Args, workload: WorkloadId) -> Result<Report, String> {
    pin_single_worker();
    let mut tracer = Tracer::new(false);
    workload.run(args.seed, Size::Smoke, &mut tracer).map_err(kernel_err)?;

    // All in this process: the traced run bounds nothing, and the probes
    // need the caches the passes filled.
    let (size, processes, passes) = args.timed(workload);
    let passes = processes * passes;
    let cache_before = ArtifactCache::global().stats();
    let mut section = Section::default();
    let mut last = PassOutcome::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while starts_another(2 * traced.len(), passes, started, args.seconds) {
        for (enabled, walls) in [(false, &mut plain), (true, &mut traced)] {
            tracer.set_enabled(enabled);
            let t = Instant::now();
            last = workload.run(args.seed, size, &mut tracer).map_err(kernel_err)?;
            walls.push(t.elapsed().as_secs_f64());
            section.add_outcome(&mut last);
        }
    }
    let cache_after = ArtifactCache::global().stats();

    // The two kinds of pass split into different units, so they are set
    // against each other pass by pass: fastest against fastest.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let mut m = Metrics::new(PER_LAYER);
    let wall = fastest(&traced);
    for (name, value) in &last.layer {
        m.set(name, *value);
    }
    let own = tracer.self_seconds();
    for (span, metric) in SPAN_METRICS {
        m.set(metric, own.get(span).copied().unwrap_or(0.0) / traced.len() as f64);
    }
    let (hits, misses) =
        (cache_after.hits - cache_before.hits, cache_after.misses - cache_before.misses);
    m.set("wasm.cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    m.set("wasm.cache.misses", misses as f64);
    m.set(
        "wasm.cache.lock_contentions",
        (cache_after.lock_contentions - cache_before.lock_contentions) as f64,
    );
    let guest = workload.guest();
    let (mut exec_s, mut instantiate_s) = (0.0, 0.0);
    for executor in [Guest::Interp, Guest::Lowered, Guest::Python] {
        let runs: u64 =
            last.guest_runs.iter().filter(|(g, _)| *g == executor).map(|(_, n)| n).sum();
        if runs > 0 {
            let cost = probes::guest_cost(executor, &guest).map_err(kernel_err)?;
            exec_s += runs as f64 * cost.run_s;
            instantiate_s += runs as f64 * cost.instantiate_s;
        }
    }
    m.set("bench.guest_exec_share_pct", exec_s / wall * 100.0);
    m.set("bench.guest_instantiate_share_pct", instantiate_s / wall * 100.0);
    m.set("bench.trace_overhead_pct", (wall / fastest(&plain) - 1.0) * 100.0);
    m.set("bench.spans", tracer.spans().len() as f64);
    m.set("bench.passes", (plain.len() + traced.len()) as f64);
    probes::run(&mut m).map_err(kernel_err)?;

    let path = trace_path(workload)?;
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", tracer.spans().len(), path.display());
    section.walls = plain;
    section.walls.append(&mut traced);
    section.report(workload, 2 * passes.div_ceil(2), Vec::new(), m)
}

/// Run `workload` `args.repeat` times, each in its own process, echo each
/// child's table, and print median, quartiles and sample count of every
/// host metric. Returns whether every child succeeded.
pub fn run_children(args: &Args, workload: WorkloadId) -> Result<bool, String> {
    let mut ok = true;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..args.repeat {
        let out = args.child(workload)?.output().map_err(|e| format!("spawn child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        let Some(line) = stdout.lines().last() else { continue };
        let Ok(json) = oci_spec_lite::parse_json(line) else { continue };
        let Some(metrics) = json.get("metrics").and_then(|m| m.as_object()) else { continue };
        for (name, entry) in metrics.iter().filter(|(name, _)| !name.starts_with("sim.")) {
            let Some(value) = entry.get("value").and_then(|v| v.as_f64()) else { continue };
            samples.entry(name.clone()).or_default().push(value);
        }
    }
    if args.repeat > 1 {
        println!("{}: host metrics over {} runs", workload.name(), args.repeat);
        for (name, values) in samples.iter().filter(|(_, values)| values.len() >= 2) {
            let [q1, q2, q3] = stats::quartiles(values);
            println!(
                "  {name:<40} median {q2:.6}  q1 {q1:.6}  q3 {q3:.6}  spread {:.2}%  n={}",
                (q3 - q1) / q2 * 100.0,
                values.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_section_survives_its_json_line_and_merges_by_unit() {
        let mut pass = PassOutcome {
            ops: 7,
            failed: 1,
            digest: Digest(0xfedc_ba98_7654_3210),
            violations: vec!["1 of 7 \"pods\" failed".into()],
            unit_seconds: vec![0.25, 1.5],
            ..PassOutcome::default()
        };
        let mut one = Section::default();
        one.add_pass(1.75, 48.5, &mut pass);
        let mut back = Section::from_json(&one.to_json()).expect("parses");
        assert_eq!(
            (&back.walls, &back.rss, &back.fastest.0),
            (&one.walls, &one.rss, &one.fastest.0)
        );
        assert_eq!((back.digest, back.attempted, back.failed), (one.digest, 7, 1));
        assert_eq!(back.violations, one.violations);

        // Another process was faster on the first unit and simulated
        // something else.
        let mut other = Section::default();
        pass.unit_seconds = vec![0.125, 2.0];
        pass.digest = Digest(1);
        other.add_pass(2.125, 50.0, &mut pass);
        back.merge(other);
        assert_eq!(back.fastest.pass_seconds(), 0.125 + 1.5);
        assert_eq!((back.walls.len(), back.attempted), (2, 14));
        assert!(back.violations.last().expect("violation").contains("differs"));
    }
}
