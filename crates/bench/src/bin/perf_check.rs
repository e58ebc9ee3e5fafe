//! Perf-regression gate over `PERF_RECORD_PATH` JSON records.
//!
//! Compares a current perf record (e.g. CI's `bench_record.json`) against a
//! committed baseline (e.g. `BENCH_pr4.json`) and fails — exit code 1 —
//! when any bench selected by the id prefixes regressed by more than the
//! allowed fraction in ns/element (ns/lane for the batch benches). A
//! baseline bench that vanished from the current record also fails: a
//! silently dropped bench must not green-light a regression.
//!
//! ```text
//! perf_check <baseline.json> <current.json> \
//!     [--prefix engine_evaluate_chain_batch]... [--max-regress 0.25] \
//!     [--require-ratio <slow_id> <fast_id> <min_ratio>]... \
//!     [--max-ratio <a_id> <b_id> <max_ratio>]...
//! ```
//!
//! With no `--prefix`, every baseline bench id is compared. CI runs this
//! after the perf smoke; the 25% default absorbs shared-runner noise while
//! catching real kernel regressions (a 25% ns/lane change on an ~80 ns/lane
//! kernel is far outside jitter on the calibrated smoke measurement).
//!
//! `--require-ratio` gates a *speedup invariant* inside the current record:
//! bench `slow_id` must take at least `min_ratio`× the ns/element of
//! `fast_id`. CI uses it to pin the warm evaluation cache at ≥ 5× over a
//! cold run (`cache_cold/fig_grid` vs `cache_warm/fig_grid`), and a call
//! that spawns a fresh 2-shard fleet at ≥ 1.6× a call on a live one
//! (`shard_epoch/cold_2` vs `shard_epoch/warm_2`) — ratios, so they hold on
//! any runner speed.
//!
//! `--max-ratio` is the overhead-bound dual: bench `a_id` must take at most
//! `max_ratio`× the ns/element of `b_id` within the current record. CI uses
//! it to cap the sharded-cluster coordinator overhead at ≤ 1.15× the fused
//! in-process path (`shard_epoch/sharded_1` vs `shard_epoch/fused`), and to
//! pin the vendored JSON reader linear (ns/byte of
//! `json_codec/from_json_large` at ≤ 1.5× `json_codec/from_json_small`).

use serde::Deserialize;

/// One bench entry of a perf record.
#[derive(Debug, Deserialize)]
struct BenchEntry {
    id: String,
    ns_per_element: f64,
}

/// The `PERF_RECORD_PATH` file layout (see the vendored criterion).
#[derive(Debug, Deserialize)]
struct PerfRecord {
    schema: String,
    benches: Vec<BenchEntry>,
}

fn load(path: &str) -> PerfRecord {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")));
    let record: PerfRecord = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse `{path}`: {e}")));
    if !record.schema.starts_with("greennfv-perf-record/") {
        fail(&format!("`{path}` has schema `{}`", record.schema));
    }
    record
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_check: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut prefixes: Vec<String> = Vec::new();
    let mut ratios: Vec<(String, String, f64)> = Vec::new();
    let mut max_ratios: Vec<(String, String, f64)> = Vec::new();
    let mut max_regress = 0.25f64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prefix" => {
                prefixes.push(it.next().unwrap_or_else(|| fail("--prefix needs a value")))
            }
            "--require-ratio" => {
                let slow = it
                    .next()
                    .unwrap_or_else(|| fail("--require-ratio needs <slow_id> <fast_id> <min>"));
                let fast = it
                    .next()
                    .unwrap_or_else(|| fail("--require-ratio needs <slow_id> <fast_id> <min>"));
                let min = it
                    .next()
                    .unwrap_or_else(|| fail("--require-ratio needs <slow_id> <fast_id> <min>"));
                let min = min
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --require-ratio minimum `{min}`")));
                ratios.push((slow, fast, min));
            }
            "--max-ratio" => {
                let a = it
                    .next()
                    .unwrap_or_else(|| fail("--max-ratio needs <a_id> <b_id> <max>"));
                let b = it
                    .next()
                    .unwrap_or_else(|| fail("--max-ratio needs <a_id> <b_id> <max>"));
                let max = it
                    .next()
                    .unwrap_or_else(|| fail("--max-ratio needs <a_id> <b_id> <max>"));
                let max = max
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --max-ratio maximum `{max}`")));
                max_ratios.push((a, b, max));
            }
            "--max-regress" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--max-regress needs a value"));
                max_regress = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --max-regress `{v}`")));
            }
            _ => paths.push(arg),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        fail("usage: perf_check <baseline.json> <current.json> [--prefix P]... [--max-regress F]");
    };

    let baseline = load(baseline_path);
    let current = load(current_path);
    let selected = |id: &str| prefixes.is_empty() || prefixes.iter().any(|p| id.starts_with(p));

    let mut failures = 0usize;
    let mut compared = 0usize;
    for base in baseline.benches.iter().filter(|b| selected(&b.id)) {
        let Some(cur) = current.benches.iter().find(|c| c.id == base.id) else {
            eprintln!(
                "FAIL {:<44} missing from {current_path} (present in baseline)",
                base.id
            );
            failures += 1;
            continue;
        };
        compared += 1;
        let base_ok = base.ns_per_element.is_finite() && base.ns_per_element > 0.0;
        if !base_ok || !cur.ns_per_element.is_finite() {
            // A zero/NaN measurement would make the ratio NaN, which every
            // comparison treats as "ok" — fail loudly instead.
            eprintln!(
                "FAIL {:<44} degenerate measurement ({} -> {})",
                base.id, base.ns_per_element, cur.ns_per_element
            );
            failures += 1;
            continue;
        }
        let ratio = cur.ns_per_element / base.ns_per_element;
        let verdict = if ratio > 1.0 + max_regress {
            failures += 1;
            "FAIL"
        } else {
            "ok  "
        };
        println!(
            "{verdict} {:<44} {:>10.2} -> {:>10.2} ns/elem ({:+.1}%)",
            base.id,
            base.ns_per_element,
            cur.ns_per_element,
            (ratio - 1.0) * 100.0
        );
    }

    for (slow_id, fast_id, min) in &ratios {
        let ns = |id: &str| {
            current
                .benches
                .iter()
                .find(|b| b.id == id)
                .map(|b| b.ns_per_element)
                .unwrap_or_else(|| fail(&format!("`{id}` missing from {current_path}")))
        };
        let (slow, fast) = (ns(slow_id), ns(fast_id));
        if !(slow.is_finite() && fast.is_finite() && fast > 0.0) {
            eprintln!("FAIL {slow_id} / {fast_id}: degenerate measurement ({slow} / {fast})");
            failures += 1;
            continue;
        }
        compared += 1;
        let ratio = slow / fast;
        let verdict = if ratio < *min {
            failures += 1;
            "FAIL"
        } else {
            "ok  "
        };
        println!("{verdict} {slow_id} / {fast_id} = {ratio:.1}x (require >= {min:.1}x)");
    }

    for (a_id, b_id, max) in &max_ratios {
        let ns = |id: &str| {
            current
                .benches
                .iter()
                .find(|b| b.id == id)
                .map(|b| b.ns_per_element)
                .unwrap_or_else(|| fail(&format!("`{id}` missing from {current_path}")))
        };
        let (a, b) = (ns(a_id), ns(b_id));
        if !(a.is_finite() && b.is_finite() && b > 0.0) {
            eprintln!("FAIL {a_id} / {b_id}: degenerate measurement ({a} / {b})");
            failures += 1;
            continue;
        }
        compared += 1;
        let ratio = a / b;
        let verdict = if ratio > *max {
            failures += 1;
            "FAIL"
        } else {
            "ok  "
        };
        println!("{verdict} {a_id} / {b_id} = {ratio:.2}x (require <= {max:.2}x)");
    }

    if compared == 0 && failures == 0 {
        fail("no baseline benches matched the given prefixes");
    }
    if failures > 0 {
        eprintln!(
            "perf_check: {failures} bench(es) regressed beyond {:.0}% (or went missing)",
            max_regress * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "perf_check: {compared} bench(es) within {:.0}% of baseline",
        max_regress * 100.0
    );
}
