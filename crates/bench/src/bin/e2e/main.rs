//! `e2e`: the end-to-end benchmark of record.
//!
//! Four single-threaded workloads, each stressing different layers of
//! the simulator (see `README.md` for the layer → metric → workload
//! table). One run measures one workload in its own process and prints,
//! as its last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics and writes its spans.
//! Human-readable detail, including the host probes taken before and
//! after the run, goes to standard error.
//!
//! ```text
//! cargo run --release -p gaat-bench --bin e2e -- --workload strong512 --seed 1
//! ```
//!
//! The same sources build on their own through this directory's
//! `Cargo.toml`, which is how `BENCHMARK.json` runs them.

mod compare;
mod json;
mod layers;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

use layers::PER_LAYER;
use probe::Probes;
use stats::{median, quartiles, tail_percentile, Attempts};
use trace::Tracer;
use workloads::{Opts, Workload};

const USAGE: &str = "\
usage: e2e --workload strong512|fattree32|faults_lb|sweep1024|all [--seed N]
           [--seconds S] [--trace 0|1] [--smoke] [--spans PATH] [--out PATH]
       e2e compare PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

  --seed N      input seed (default 1)
  --seconds S   wall time for the timed repetitions (default: run_seconds
                in BENCHMARK.json; --smoke ignores it and makes no more
                repetitions than it needs)
  --trace 1     traced run: per-layer metrics, spans written to --spans
  --smoke       shrunken workloads; exit 1 if any attempt failed
  --spans PATH  span file of a traced run (default: e2e-spans/WORKLOAD-seedN.json
                beside this executable)
  --out PATH    append the result, tagged with workload, seed and probes, as a JSONL line
  all           run every workload, each in its own process";

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// `BENCHMARK.json`: the nearest one at or above the directory of the
/// manifest this binary was built from.
fn benchmark_json() -> Option<PathBuf> {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|p| p.is_file())
}

/// The run length `BENCHMARK.json` fixes (`run_seconds`), so that every
/// run of every commit measures for as long.
fn run_seconds() -> Result<f64, String> {
    let path = benchmark_json().ok_or("no BENCHMARK.json found; pass --seconds")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)?
        .get("run_seconds")
        .and_then(json::Value::num)
        .ok_or_else(|| format!("{} has no run_seconds", path.display()))
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not {value:?}"))?
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, not {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be within (0, 600], not {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value)),
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload != "all" && Workload::parse(&a.workload).is_none() {
        return Err(format!("unknown or missing --workload {:?}", a.workload));
    }
    Ok(a)
}

/// One workload's measured run.
struct Report {
    attempts: Attempts,
    /// `(name, unit, value)` in table order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    pre: Probes,
    post: Probes,
    run_s: Vec<f64>,
    run_wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    tracer: Tracer,
}

/// `values` in the order of `table`, each with its unit; every metric in
/// the table must have been measured, and be finite.
fn in_table_order(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    table
        .iter()
        .map(
            |&(name, unit)| match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => Ok((name, unit, v)),
                Some(&(_, v)) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

fn measure(w: Workload, a: &Args, seconds: f64) -> Result<Report, String> {
    let chase = probe::Chase::new();
    let mut tr = Tracer::new();
    tr.set_on(a.trace);
    let pre = probe::take(&chase, &mut tr);
    let opts = Opts {
        seed: a.seed,
        seconds,
        trace: a.trace,
        smoke: a.smoke,
    };
    let out = workloads::measure(w, &opts, &mut tr);
    tr.set_on(a.trace);
    let post = probe::take(&chase, &mut tr);
    let metrics = if a.trace {
        let mut values = out.layers.clone();
        values.extend([
            ("host.cold_run_s", out.cold_run_s),
            ("host.run_wall_s", median(&out.run_wall_s)),
            (
                "host.cpu_wait_frac",
                median(&out.run_wall_s) / median(&out.run_s) - 1.0,
            ),
            ("host.alu_probe_pre_ms", pre.alu_ms),
            ("host.alu_probe_post_ms", post.alu_ms),
            ("host.l2_chase_pre_ms", pre.l2_chase_ms),
            ("host.l2_chase_post_ms", post.l2_chase_ms),
            (
                "bench.run_samples",
                (out.run_s.len() + out.traced_run_s.len()) as f64,
            ),
            ("bench.setup_samples", out.setup_s.len() as f64),
            (
                "trace.overhead_frac",
                median(&out.traced_run_s) / median(&out.run_s) - 1.0,
            ),
        ]);
        in_table_order(PER_LAYER, &values)?
    } else {
        let rss = probe::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        in_table_order(
            END_TO_END,
            &[
                ("run_s", median(&out.run_s)),
                ("setup_s", median(&out.setup_s)),
                ("peak_rss_mb", rss),
            ],
        )?
    };
    Ok(Report {
        attempts: out.attempts,
        metrics,
        pre,
        post,
        run_s: out.run_s,
        run_wall_s: out.run_wall_s,
        setup_s: out.setup_s,
        tracer: tr,
    })
}

/// The result object: the last line a run prints.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempts.failed == 0,
        r.attempts.attempted,
        r.attempts.failed,
        metrics.join(", ")
    )
}

/// Human-readable detail for standard error.
fn summary(w: Workload, a: &Args, r: &Report) -> String {
    let (q1, q3) = quartiles(&r.run_s);
    let tail = match tail_percentile(r.run_s.len()) {
        Some(p) => format!("p{p} {:.4} s", stats::percentile(&r.run_s, p)),
        None => "no tail percentile (fewer than 10 samples beyond p90)".to_string(),
    };
    let mut s = format!(
        "e2e {} seed {} trace {}: run_s median {:.4} s [q1 {:.4}, q3 {:.4}, spread {:.1}%] n={} ({tail}); setup_s median {:.3} ms n={}; fail_frac {} ({}/{})\n",
        w.name(),
        a.seed,
        u8::from(a.trace),
        median(&r.run_s),
        q1,
        q3,
        100.0 * stats::spread(&r.run_s),
        r.run_s.len(),
        median(&r.setup_s) * 1e3,
        r.setup_s.len(),
        r.attempts.fail_frac(),
        r.attempts.failed,
        r.attempts.attempted,
    );
    let reps: Vec<String> = r
        .run_s
        .iter()
        .zip(&r.run_wall_s)
        .map(|(cpu, wall)| format!("{cpu:.4}/{wall:.4}"))
        .collect();
    s.push_str(&format!("  run_s samples (cpu/wall): {}\n", reps.join(" ")));
    s.push_str(&format!(
        "  host probes: alu {:.2} -> {:.2} ms, l2 chase {:.2} -> {:.2} ms\n",
        r.pre.alu_ms, r.post.alu_ms, r.pre.l2_chase_ms, r.post.l2_chase_ms
    ));
    for (name, unit, v) in &r.metrics {
        s.push_str(&format!("  {name:<28} {v:>16.6} {unit}\n"));
    }
    s
}

fn append_line(path: &PathBuf, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

fn run_one(w: Workload, a: &Args) -> i32 {
    let seconds = match (a.smoke, a.seconds) {
        (true, _) => 0.0,
        (false, Some(s)) => s,
        (false, None) => match run_seconds() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("e2e: {e}");
                return 2;
            }
        },
    };
    let r = match measure(w, a, seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e {}: {e}", w.name());
            return 1;
        }
    };
    eprint!("{}", summary(w, a, &r));
    if a.trace {
        let file = format!("e2e-spans/{}-seed{}.json", w.name(), a.seed);
        let beside_exe = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.join(&file)));
        let path = a.spans.clone().or(beside_exe).unwrap_or(file.into());
        if let Err(e) = r.tracer.write(&path, w.name(), a.seed) {
            eprintln!("e2e: cannot write spans to {}: {e}", path.display());
            return 1;
        }
        eprintln!("  {} spans written to {}", r.tracer.len(), path.display());
    }
    let result = result_json(&r);
    if let Some(path) = &a.out {
        let probes = format!(
            "{{\"alu_pre_ms\": {}, \"alu_post_ms\": {}, \"l2_chase_pre_ms\": {}, \"l2_chase_post_ms\": {}}}",
            r.pre.alu_ms, r.post.alu_ms, r.pre.l2_chase_ms, r.post.l2_chase_ms
        );
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \"probes\": {probes}, {}",
            json::quote(w.name()),
            a.seed,
            u8::from(a.trace),
            &result[1..]
        );
        if let Err(e) = append_line(path, &line) {
            eprintln!("e2e: cannot append to {}: {e}", path.display());
            return 1;
        }
    }
    println!("{result}");
    if a.smoke && r.attempts.failed > 0 {
        1
    } else {
        0
    }
}

/// Run every workload, each in its own process so that its peak RSS is
/// its own.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in Workload::ALL {
        let mut child: Vec<String> = args.to_vec();
        if let Some(i) = child.iter().position(|x| x == "--workload") {
            child[i + 1] = w.name().to_string();
        }
        match Command::new(&exe).args(&child).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e {}: {s}", w.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("e2e {}: cannot start: {e}", w.name());
                code = 1;
            }
        }
    }
    code
}

fn compare_main(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = benchmark_json();
    let mut it = args.iter();
    while let Some(x) = it.next() {
        match (x.as_str(), it.len()) {
            ("--bench", 1..) => bench = it.next().map(PathBuf::from),
            _ => files.push(x.clone()),
        }
    }
    let Some(bench) = bench.filter(|_| files.len() == 2) else {
        eprintln!("{USAGE}");
        return 2;
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| {
        let specs = compare::specs(&json::parse(&read(&bench.to_string_lossy())?)?)?;
        let (parent, change) = (read(&files[0])?, read(&files[1])?);
        let lengths = (
            compare::run_lengths(&parent)?,
            compare::run_lengths(&change)?,
        );
        if lengths.0 != lengths.1 {
            return Err(format!(
                "the two files were measured with different --seconds: {:?} and {:?}",
                lengths.0, lengths.1
            ));
        }
        let parent = compare::read_runs(&parent)?;
        let change = compare::read_runs(&change)?;
        Ok::<_, String>(compare::table(&parent, &change, &specs))
    })();
    match result {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("e2e compare: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        match parse_args(&args) {
            Ok(a) if a.workload == "all" => run_all(&args),
            Ok(a) => run_one(Workload::parse(&a.workload).expect("validated"), &a),
            Err(e) => {
                eprintln!("e2e: {e}\n\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn args(w: &str, trace: bool) -> Args {
        parse_args(&[
            "--workload".into(),
            w.into(),
            "--trace".into(),
            if trace { "1" } else { "0" }.into(),
            "--smoke".into(),
        ])
        .expect("valid arguments")
    }

    #[test]
    fn arguments_are_checked() {
        assert!(parse_args(&["--workload".into(), "strong512".into()]).is_ok());
        assert!(parse_args(&["--workload".into(), "all".into()]).is_ok());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&[]).is_err());
        let bad = |flag: &str, v: &str| {
            parse_args(&[
                "--workload".into(),
                "strong512".into(),
                flag.into(),
                v.into(),
            ])
            .is_err()
        };
        assert!(bad("--trace", "2"));
        assert!(bad("--seed", "-1"));
        assert!(bad("--seconds", "-3"));
        assert!(bad("--seconds", "0"));
        assert!(bad("--colour", "red"));
    }

    /// The `--smoke` pass of every workload, untraced and traced: no
    /// attempt fails, and the result line carries exactly the metrics of
    /// the matching table.
    #[test]
    fn smoke_pass_is_correct_and_reports_every_metric() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let r = measure(w, &args(w.name(), trace), 0.0).expect("every metric measured");
                let what = format!("{} trace={trace}", w.name());
                assert!(r.attempts.attempted > 0, "{what}");
                assert_eq!(r.attempts.failed, 0, "{what}");
                let v = json::parse(&result_json(&r)).expect("the result line is JSON");
                assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{what}");
                let metrics = v.get("metrics").and_then(Value::obj).expect("metrics");
                let table = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, want, "{what}");
                if trace {
                    assert!(r.tracer.len() > 0, "{what}: spans recorded");
                }
            }
        }
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// binary runs and prints, and the run length it uses by default.
    #[test]
    fn benchmark_json_matches_this_binary() {
        let path = benchmark_json().expect("BENCHMARK.json sits above the package");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |section: &str| -> Vec<(String, String)> {
            bench
                .get(section)
                .and_then(Value::arr)
                .expect(section)
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Value::str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        compare::specs(&bench).expect("every metric is well formed");
        assert!(run_seconds().is_ok_and(|s| s > 0.0));
    }
}
