//! `pcisim-benchmark`: the repo benchmark's harness. `run.sh` builds it
//! and passes its arguments through.
//!
//! ```text
//! --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! [--seed N] [--seconds S] [--traced] [--label L] every workload, each in a child process
//! micro                                           the layer micro-scenarios alone
//! record-goldens                                  rewrite goldens.json at the default seed
//! agree A.json B.json                             compare two result files
//! ```

mod agree;
mod classify;
mod goldens;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::Source;
use run::{Measured, Options, Report};
use workloads::{WorkloadDef, WORKLOADS};

/// Prefix of the line a child prints for its parent when given `--detail`:
/// the result with per-repetition samples, faults and spans.
const DETAIL_PREFIX: &str = "#detail ";

/// `--seconds` of `run.sh` without arguments: five ~1 s repetitions.
const DEFAULT_SECONDS: f64 = 5.0;

struct Args {
    opts: Options,
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    detail: bool,
    label: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: Options {
            seed: goldens::DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            micro: true,
            break_oracle: false,
            bench_dir: PathBuf::from("benchmark"),
        },
        command: None,
        positional: Vec::new(),
        workload: None,
        detail: false,
        label: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        let flag = |text: String| match text.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("expected 0 or 1, found {other}")),
        };
        let opts = &mut args.opts;
        match arg.as_str() {
            "--bench-dir" => opts.bench_dir = PathBuf::from(value("a directory")?),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => opts.trace = flag(value("0 or 1")?)?,
            "--micro" => opts.micro = flag(value("0 or 1")?)?,
            "--traced" => opts.trace = true,
            "--detail" => args.detail = true,
            "--break-oracle" => opts.break_oracle = true,
            "--label" => args.label = Some(value("a label")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn metric_json(m: &Measured) -> (String, Json) {
    let def = metrics::find(m.name).expect("every reported metric is in the registry");
    let mut fields = vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::str(def.unit)),
        ("source", Json::str(def.source.tag())),
    ];
    if !m.applies {
        fields.push(("applies", Json::Bool(false)));
    }
    if !m.samples.is_empty() {
        fields.push(("samples", Json::nums(&m.samples)));
    }
    (m.name.to_owned(), Json::obj(fields))
}

fn print_metric(m: &Measured) {
    let def = metrics::find(m.name).expect("every reported metric is in the registry");
    if !m.applies {
        // 0 in the result line, because the contract wants every name.
        let blank = if m.name == "model_err_pct" { "unvalidated" } else { "-" };
        println!("  {:<38} {:>16}  {:<6} [{}]", m.name, blank, def.unit, def.source.tag());
    } else if m.samples.is_empty() {
        println!("  {:<38} {:>16.6}  {:<6} [{}]", m.name, m.value, def.unit, def.source.tag());
    } else {
        let (min, max) =
            m.samples.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        println!(
            "  {:<38} {:>16.6}  {:<6} [{}] median of n={} (min {:.6}, max {:.6})",
            m.name,
            m.value,
            def.unit,
            def.source.tag(),
            m.samples.len(),
            min,
            max
        );
    }
}

/// Prints a report's metrics by name with their units, then — last — the
/// one-line result the driver parses. With `detail`, the line before it
/// carries samples, faults and spans for the parent process.
fn print_report(report: &Report, listed: &[&metrics::MetricDef], detail: bool) {
    for fault in &report.faults {
        println!("  FAULT: {fault}");
    }
    report.metrics.iter().for_each(print_metric);
    let verdict = [
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
    ];
    if detail {
        let doc = Json::obj(verdict.iter().cloned().chain([
            ("faults", Json::Arr(report.faults.iter().map(Json::str).collect())),
            ("metrics", Json::Obj(report.metrics.iter().map(metric_json).collect())),
            ("spans", report.spans.to_json()),
        ]));
        println!("{DETAIL_PREFIX}{doc}");
    }
    let listed = listed.iter().filter_map(|def| {
        let m = report.metrics.iter().find(|m| m.name == def.name)?;
        let entry = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(def.unit))]);
        Some((def.name.to_owned(), entry))
    });
    println!(
        "{}",
        Json::obj(verdict.into_iter().chain([("metrics", Json::Obj(listed.collect()))]))
    );
}

fn out_dir(bench_dir: &Path) -> std::io::Result<PathBuf> {
    let dir = bench_dir.join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One workload in this process: the form the driver calls.
fn run_one(def: &'static WorkloadDef, args: &Args) -> Result<bool, String> {
    let opts = &args.opts;
    println!(
        "{} seed={} trace={} cpus={} — ops are {}",
        def.name,
        args.opts.seed,
        u8::from(args.opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        def.op
    );
    println!("  why: {}", def.why);
    if let Some(anchor) = def.anchor {
        println!("  model_err_pct is against the paper's {} ({})", anchor.what, anchor.paper);
    }
    let report = run::run(def, opts);
    if args.opts.trace && !args.detail {
        let path = out_dir(&args.opts.bench_dir)
            .map_err(|e| e.to_string())?
            .join(format!("{}.spans.json", def.name));
        std::fs::write(&path, report.spans.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let listed: Vec<&metrics::MetricDef> = if args.opts.trace {
        metrics::per_layer().collect()
    } else {
        metrics::END_TO_END.iter().collect()
    };
    print_report(&report, &listed, args.detail);
    Ok(report.failed == 0)
}

/// The layer micro-scenarios alone (`run.sh --traced` runs them once, not
/// once per workload).
fn run_micro(args: &Args) -> bool {
    println!("layer micro-scenarios — each drives one layer's public API alone");
    let metrics: Vec<Measured> =
        layers::run_all().into_iter().map(|(name, value)| Measured::single(name, value)).collect();
    let report = Report {
        attempted: metrics.len() as u64,
        failed: 0,
        faults: Vec::new(),
        metrics,
        spans: spans::Spans::new(),
    };
    let listed: Vec<&metrics::MetricDef> =
        metrics::PER_LAYER.iter().filter(|m| m.source == Source::Micro).collect();
    print_report(&report, &listed, args.detail);
    true
}

/// Runs this executable again with `child_args`, echoing what it prints,
/// and returns its `#detail` document.
fn spawn_child(args: &Args, child_args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("--bench-dir")
        .arg(&args.opts.bench_dir)
        .args(child_args)
        .arg("--detail")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the driver's result line; the detail line repeats it.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(doc) => detail = Some(json::parse(doc)?),
            None => println!("{line}"),
        }
    }
    // A child that failed its checks exits 1 but still reports; one that
    // crashed has no detail line.
    detail.ok_or_else(|| format!("child {child_args:?} ended with {} and no result", output.status))
}

/// Every workload, each in a fresh child process so `peak_rss_mb` is per
/// workload; writes `out/<label>.json` (and `.spans.json` when traced).
fn run_all(args: &Args) -> Result<bool, String> {
    let label = args.label.clone().unwrap_or_else(|| {
        format!("seed{}{}", args.opts.seed, if args.opts.trace { "-traced" } else { "" })
    });
    if !label.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)) {
        return Err("--label may hold letters, digits, '_', '.' and '-' only".into());
    }
    let mut results = Vec::new();
    for def in &WORKLOADS {
        let mut child = vec![
            "--workload".to_owned(),
            def.name.to_owned(),
            "--seed".to_owned(),
            args.opts.seed.to_string(),
            "--seconds".to_owned(),
            args.opts.seconds.to_string(),
            "--trace".to_owned(),
            u8::from(args.opts.trace).to_string(),
            "--micro".to_owned(),
            "0".to_owned(),
        ];
        if args.opts.break_oracle {
            child.push("--break-oracle".to_owned());
        }
        results.push((def.name.to_owned(), spawn_child(args, &child)?));
    }
    let mut layers = match args.opts.trace {
        true => spawn_child(args, &["micro".to_owned()])?,
        false => Json::Null,
    };
    let all_correct =
        results.iter().all(|(_, doc)| doc.get("correct").and_then(Json::as_bool) == Some(true));
    // Spans go to a file of their own, keyed like the results.
    let mut spans: Vec<(String, Json)> = results
        .iter_mut()
        .filter_map(|(name, doc)| Some((name.clone(), doc.take("spans")?)))
        .collect();
    spans.extend(layers.take("spans").map(|s| ("layers".to_owned(), s)));

    let doc = Json::obj([
        ("schema", Json::str("pcisim-benchmark-v1")),
        ("label", Json::str(label.as_str())),
        ("seed", Json::Num(args.opts.seed as f64)),
        ("traced", Json::Bool(args.opts.trace)),
        ("cpus", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("workloads", Json::Obj(results)),
        ("layers", layers),
    ]);
    let dir = out_dir(&args.opts.bench_dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{label}.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if args.opts.trace {
        let path = dir.join(format!("{label}.spans.json"));
        std::fs::write(&path, Json::Obj(spans).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        if all_correct {
            "all workloads correct"
        } else {
            "FAILED: a workload's outputs are wrong"
        }
    );
    Ok(all_correct)
}

fn record_goldens(args: &Args) -> Result<bool, String> {
    let answers = WORKLOADS
        .iter()
        .map(|def| run::golden_answer(def).map(|answer| (def.name, answer)))
        .collect::<Result<Vec<_>, _>>()?;
    goldens::save(&args.opts.bench_dir, &answers).map_err(|e| e.to_string())?;
    println!(
        "recorded {} workloads at seed {} in goldens.json",
        answers.len(),
        goldens::DEFAULT_SEED
    );
    Ok(true)
}

fn agree_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: agree A.json B.json".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let summary = agree::compare(&read(a)?, &read(b)?)?;
    for row in &summary.rows {
        println!("{row}");
    }
    for line in &summary.differing {
        println!("differs: {line}");
    }
    println!(
        "{} worse, {} unresolved (spread wider than the bound), {} deterministic values differ",
        summary.worse,
        summary.unresolved,
        summary.differing.len()
    );
    Ok(summary.agrees())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => {
            let def = workloads::find(name).ok_or_else(|| {
                format!(
                    "unknown workload {name}; known: {}",
                    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                )
            })?;
            run_one(def, &args)
        }
        (None, None) => run_all(&args),
        (Some("micro"), _) => Ok(run_micro(&args)),
        (Some("record-goldens"), _) => record_goldens(&args),
        (Some("agree"), _) => agree_files(&args),
        (Some(other), _) => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("pcisim-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
