//! The JSON input boundary: every public `from_json` entry point turns
//! hostile text into a `SimError` (never a panic or a stack overflow), and
//! everything the workspace itself writes or commits still reads back
//! under the strict reader.
//!
//! * nesting past `serde_json::MAX_DEPTH`, a `\u` escape that is not four
//!   hex digits, and a raw control character inside a string are refused
//!   by `Scenario`, `ExperimentDag` and `TrainCheckpoint` alike;
//! * the deepest document the writer produces for any registry scenario,
//!   fuzz-corpus member, DAG, training checkpoint or node cursor is pinned,
//!   well under the reader's bound;
//! * every committed JSON fixture, and every fuzz-corpus descriptor,
//!   re-reads under the strict reader and re-writes to the same bytes.

use greennfv::prelude::*;
use nfv_sim::prelude::*;
use serde::Value;

/// Master seed of the committed fuzz corpus (`tests/fuzz_corpus.rs`).
const CORPUS_SEED: u64 = 0x5EED_F022;

/// Deepest array/object nesting any document below reaches: a registry
/// scenario inside a DAG experiment (scenarios alone reach 11, checkpoints
/// 7, cursors 5). A change to the descriptor or checkpoint shapes that
/// moves it must update this pin and stay well inside
/// `serde_json::MAX_DEPTH`.
const DEEPEST_WRITTEN: usize = 15;

// The reader's bound keeps at least 8x headroom over the deepest document.
const _: () = assert!(DEEPEST_WRITTEN * 8 <= serde_json::MAX_DEPTH);

/// Array/object nesting depth of a JSON text (string contents skipped).
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for b in json.bytes() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// Runs `text` through all three public descriptor/checkpoint readers and
/// returns their error messages; each must be an error.
fn rejections(text: &str) -> [String; 3] {
    [
        Scenario::from_json(text)
            .expect_err("scenario reader must reject")
            .to_string(),
        ExperimentDag::from_json(text)
            .expect_err("dag reader must reject")
            .to_string(),
        TrainCheckpoint::from_json(text)
            .expect_err("checkpoint reader must reject")
            .to_string(),
    ]
}

#[test]
fn hostile_json_is_a_sim_error_at_every_entry_point() {
    let deep = format!("{}{}", "[".repeat(1_000_000), "]".repeat(1_000_000));
    let deep_objects = format!(
        "{}1{}",
        "{\"cfg\":".repeat(1_000_000),
        "}".repeat(1_000_000)
    );
    let cases = [
        (deep.as_str(), "nesting deeper than 128"),
        (deep_objects.as_str(), "nesting deeper than 128"),
        (r#"{"name":"\u+041"}"#, "not 4 hex digits"),
        (r#"{"name":"\u-041"}"#, "not 4 hex digits"),
        (r#"{"name":"\u 041"}"#, "not 4 hex digits"),
        (r#"{"name":"\u04"#, "truncated \\u escape"),
        ("{\"name\":\"a\u{1}b\"}", "raw control character U+0001"),
    ];
    for (text, cause) in cases {
        for msg in rejections(text) {
            assert!(msg.contains(cause), "expected `{cause}`, got `{msg}`");
        }
    }
}

/// Every DAG shape: each registry scenario as a scenario experiment, a
/// fully populated ablation patch, and a figure over all of them.
fn registry_dag() -> ExperimentDag {
    let mut experiments: Vec<Experiment> = Scenario::registry()
        .into_iter()
        .map(|sc| Experiment {
            name: sc.name.clone(),
            spec: ExperimentSpec::Scenario(Box::new(sc)),
        })
        .collect();
    let names: Vec<String> = experiments.iter().map(|e| e.name.clone()).collect();
    experiments.push(Experiment {
        name: "every-knob".into(),
        spec: ExperimentSpec::Ablation {
            base: names[0].clone(),
            patch: ScenarioPatch {
                seed: Some(3),
                epochs: Some(4),
                evaluation: Some(EvalMode::Incremental),
                freq_ghz: Some(1.9),
                batch: Some(16),
                llc_fraction: Some(0.5),
                arrival_scale: Some(0.5),
            },
        },
    });
    experiments.push(Experiment {
        name: "summary".into(),
        spec: ExperimentSpec::Figure { inputs: names },
    });
    ExperimentDag::new(experiments)
}

/// A training checkpoint taken after one episode (replay, history and
/// the `-inf` best score all populated).
fn checkpoint_json() -> String {
    let mut session = TrainSession::new(
        EnvConfig::paper(Sla::EnergyEfficiency, 19),
        TrainConfig::quick(2, 19),
    );
    session.run_episode();
    session.checkpoint().to_json()
}

#[test]
fn deepest_written_document_is_pinned_under_the_reader_bound() {
    let mut docs: Vec<(String, String)> = Scenario::registry()
        .iter()
        .chain(&corpus(CORPUS_SEED, 64))
        .map(|sc| (format!("scenario {}", sc.name), sc.to_json()))
        .collect();
    let dag = registry_dag().to_json();
    let ckpt = checkpoint_json();
    // The two composite documents read back to the same bytes.
    assert_eq!(ExperimentDag::from_json(&dag).unwrap().to_json(), dag);
    assert_eq!(TrainCheckpoint::from_json(&ckpt).unwrap().to_json(), ckpt);
    docs.push(("registry dag".into(), dag));
    docs.push(("train checkpoint".into(), ckpt));
    let cluster = Scenario::by_name("two-tenant-shared-node")
        .expect("registry name")
        .build_cluster()
        .expect("registry scenario builds");
    let cursor = cluster.node(0).expect("one node").cursor();
    docs.push((
        "node cursor".into(),
        serde_json::to_string(&cursor).expect("cursor serializes"),
    ));
    let (deepest_doc, deepest) = docs
        .iter()
        .map(|(name, json)| (name, nesting_depth(json)))
        .max_by_key(|&(_, depth)| depth)
        .expect("documents");
    assert_eq!(
        deepest, DEEPEST_WRITTEN,
        "deepest written document ({deepest_doc}) moved"
    );
}

/// Re-reads one committed JSON text under the strict reader and checks the
/// tree re-writes to text that reads back to the same tree.
fn reread(what: &str, text: &str) {
    let value: Value =
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{what} no longer reads: {e}"));
    let written = serde_json::to_string(&value).unwrap();
    let again: Value = serde_json::from_str(&written).unwrap();
    assert_eq!(serde_json::to_string(&again).unwrap(), written, "{what}");
}

#[test]
fn committed_json_fixtures_reread_under_the_strict_reader() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for dir in [root, &root.join("tests/golden"), &root.join("traces")] {
        for entry in std::fs::read_dir(dir).expect("fixture directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                let text = std::fs::read_to_string(&path).expect("fixture text");
                reread(&path.display().to_string(), &text);
                seen += 1;
            }
        }
    }
    // The golden snapshots and the committed perf records at least.
    assert!(seen >= 10, "only {seen} JSON fixtures found");
    for sc in corpus(CORPUS_SEED, 64) {
        let json = sc.to_json();
        reread(&sc.name, &json);
        assert_eq!(
            Scenario::from_json(&json)
                .expect("descriptor reads")
                .to_json(),
            json
        );
    }
}
