//! End-to-end and per-layer benchmark of the nicsim simulator.
//!
//! ```text
//! nicsim-perfbench --workload <nic1_rx_irq|nic6_line|fleet8_rel> --seed <n>
//!                  --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced per-layer pass. `--smoke` shrinks the
//! simulated windows for the benchmark's own test. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any
//! correctness gate fails.

mod host;
mod metrics;
mod replay;
mod run;
mod sink;
mod spans;
mod stats;
mod workload;

use run::Outcome;
use workload::{Kind, Plan};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: nicsim-perfbench --workload <nic1_rx_irq|nic6_line|fleet8_rel> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{val}' for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// A JSON object from keys and already-encoded values.
fn object<'a, V: std::fmt::Display + 'a>(pairs: impl Iterator<Item = (&'a str, V)>) -> String {
    let items: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", items.join(", "))
}

/// A JSON array of already-encoded values.
fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `rows`.
fn metrics_json(rows: &[(String, &str, f64)]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut plans = Plan::for_run(args.kind, args.seed, args.smoke);
    if args.trace {
        // The traced pass studies one window.
        plans.truncate(1);
    }
    let inputs: Vec<&str> = plans.iter().map(|p| p.input.as_str()).collect();
    let fingerprint = host::fingerprint();
    println!(
        "# perfbench workload={} seed={} trace={} inputs={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        inputs.join(" ")
    );
    if args.kind == Kind::Fleet8Rel {
        println!("# fleet traffic: {}", workload::FLEET_SPEC);
    }
    println!("{{\"host\": {fingerprint}}}");

    let out: Outcome = if args.trace {
        run::layers(&plans[0], args.smoke)
    } else {
        run::end_to_end(&plans, args.seconds, args.smoke)
    };

    // Every row the run prints, in table order; `declared` rows also go
    // on the result line.
    let mut rows: Vec<(String, &str, f64, bool)> = if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = out.values.get(&n).copied().unwrap_or(0.0);
                (n, u, v, true)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u, declared)| (n.to_string(), u, out.values[n], declared))
            .collect()
    };
    let nonfinite: Vec<String> = rows
        .iter()
        .filter(|r| !r.2.is_finite())
        .map(|r| r.0.clone())
        .collect();

    for (name, unit, value, _) in &rows {
        let samples = out
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<34} {value:>16.6} {unit}{samples}");
    }
    for (name, count) in &out.info {
        println!("  info {name:<29} {count}");
    }
    for g in &out.gates {
        let status = if g.ok { "ok" } else { "FAIL" };
        println!("  gate {:<29} {status}  {}", g.name, g.detail);
    }

    // JSON has no NaN or infinity; such a value fails the run.
    for r in &mut rows {
        if !r.2.is_finite() {
            r.2 = 0.0;
        }
    }
    let all: Vec<(String, &str, f64)> = rows
        .iter()
        .map(|(n, u, v, _)| (n.clone(), *u, *v))
        .collect();
    let gates = array(out.gates.iter().map(|g| {
        let fields = [
            ("name", host::json_str(g.name)),
            ("ok", g.ok.to_string()),
            ("detail", host::json_str(&g.detail)),
        ];
        object(fields.iter().map(|(k, v)| (*k, v)))
    }));
    let report = [
        ("workload", host::json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("inputs", array(inputs.iter().map(|i| host::json_str(i)))),
        ("host", fingerprint),
        ("metrics", metrics_json(&all)),
        (
            "samples",
            object(out.samples.iter().map(|(k, v)| (k.as_str(), v))),
        ),
        ("info", object(out.info.iter().map(|(k, v)| (*k, v)))),
        ("gates", gates),
        (
            "not_measured",
            array(out.not_measured.iter().map(|n| host::json_str(n))),
        ),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
    ];
    println!(
        "{{\"report\": {}}}",
        object(report.iter().map(|(k, v)| (*k, v)))
    );
    if let Some(spans) = &out.spans {
        println!("{{\"spans\": {}}}", spans.to_json());
    }

    // Failed gates are counted in `out.failed`.
    let correct = out.failed == 0 && nonfinite.is_empty();
    if !nonfinite.is_empty() {
        eprintln!("non-finite metrics: {}", nonfinite.join(", "));
    }
    let declared: Vec<(String, &str, f64)> = rows
        .into_iter()
        .filter(|r| r.3)
        .map(|(n, u, v, _)| (n, u, v))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed + nonfinite.len() as u64,
        metrics_json(&declared)
    );
    if !correct {
        std::process::exit(1);
    }
}
