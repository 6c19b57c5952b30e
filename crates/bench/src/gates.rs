//! The bench gate engine and the `BENCH_*.json` file helpers.
//!
//! Each bench module declares its gates once, as the JSON `gates` block
//! it writes into its `BENCH_<name>.json`. One gate is a dotted
//! `metric` path into the document, a `rule` (`at_least`, `at_most`,
//! `below` — at most, strictly in-run — or `equals`), the `blessed`
//! value, a `scope` (`run`, `diff` or `both`), an optional `any_of`
//! group, and the `claim` it holds. `report` judges every file by the
//! thresholds the file itself carries:
//!
//! * **in-run** (`report --bench-<name>`): each fresh value against its
//!   blessed value; gates sharing an `any_of` group pass together when
//!   any one of them passes;
//! * **diff** (`report --diff OLD NEW`): OLD's gates applied to NEW.
//!   Higher-is-better metrics pass at `0.8 × min(committed,
//!   blessed/0.8)`, lower-is-better ones at `1.25 × max(committed,
//!   blessed/1.25)`, equalities exactly. The clamp keeps a lucky
//!   committed run from tightening a gate past what was blessed.
//!
//! Re-blessing a threshold means editing the committed file's `gates`
//! block and the module's declaration together (CONTRIBUTING.md).

use iixml_obs::json::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// How a gate compares a value with its blessed value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rule {
    AtLeast,
    AtMost,
    /// At most, strictly in-run; the diff line is inclusive.
    Below,
    Equals,
}

impl Rule {
    fn parse(name: &str) -> Option<Rule> {
        Some(match name {
            "at_least" => Rule::AtLeast,
            "at_most" => Rule::AtMost,
            "below" => Rule::Below,
            "equals" => Rule::Equals,
            _ => return None,
        })
    }

    /// The in-run comparison's symbol.
    fn symbol(self) -> &'static str {
        match self {
            Rule::AtLeast => ">=",
            Rule::AtMost => "<=",
            Rule::Below => "<",
            Rule::Equals => "==",
        }
    }

    /// The in-run check of `value` against `blessed`.
    fn holds(self, value: f64, blessed: f64) -> bool {
        match self {
            Rule::AtLeast => value >= blessed,
            Rule::AtMost => value <= blessed,
            Rule::Below => value < blessed,
            Rule::Equals => value == blessed,
        }
    }

    /// The diff pass line (from the committed value where the rule
    /// needs one) and whether `new` clears it.
    fn diff(self, blessed: f64, committed: Option<f64>, new: f64) -> Option<(f64, bool)> {
        Some(match self {
            Rule::AtLeast => {
                let line = 0.8 * committed?.min(blessed / 0.8);
                (line, new >= line)
            }
            Rule::AtMost | Rule::Below => {
                let line = 1.25 * committed?.max(blessed / 1.25);
                (line, new <= line)
            }
            Rule::Equals => (blessed, new == blessed),
        })
    }
}

/// One gate, read from a `gates` block (fields as in the module docs).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Gate {
    pub(crate) metric: String,
    rule: Rule,
    blessed: f64,
    /// Whether the gate takes part in the in-run check and in the diff
    /// (its `scope`: `run`, `diff` or `both`).
    in_run: bool,
    in_diff: bool,
    any_of: Option<String>,
    claim: String,
}

impl Gate {
    fn from_json(j: &Json) -> Result<Gate, String> {
        let text = |key: &str| j.get(key).and_then(Json::as_str);
        let bad = || format!("malformed gate {}", j.render());
        let (in_run, in_diff) = match text("scope") {
            Some("run") => (true, false),
            Some("diff") => (false, true),
            Some("both") => (true, true),
            _ => return Err(bad()),
        };
        Ok(Gate {
            metric: text("metric").ok_or_else(bad)?.to_string(),
            rule: text("rule").and_then(Rule::parse).ok_or_else(bad)?,
            blessed: j.get("blessed").and_then(Json::as_f64).ok_or_else(bad)?,
            in_run,
            in_diff,
            any_of: text("any_of").map(String::from),
            claim: text("claim").unwrap_or_default().to_string(),
        })
    }
}

/// Attaches the `gates` block — the concatenation of the declared JSON
/// arrays `blocks` — to a bench document.
pub(crate) fn with_gates(doc: Json, blocks: &[&str]) -> Json {
    let mut gates = Vec::new();
    for block in blocks {
        match Json::parse(block) {
            Ok(Json::Arr(items)) => gates.extend(items),
            other => panic!("a declared gates block is not a JSON array: {other:?}"),
        }
    }
    doc.set("gates", Json::Arr(gates))
}

/// The gates a bench document carries.
pub(crate) fn gates_of(doc: &Json) -> Result<Vec<Gate>, String> {
    match doc.get("gates") {
        Some(Json::Arr(items)) => items.iter().map(Gate::from_json).collect(),
        _ => Err("no gates block".into()),
    }
}

fn value(doc: &Json, metric: &str) -> Option<f64> {
    doc.path(metric).and_then(Json::as_f64)
}

fn show(v: Option<f64>) -> String {
    v.map_or("(missing)".into(), |v| format!("{v:.4}"))
}

/// The in-run check of a fresh bench document: prints one row per gate
/// and returns whether every gate (or `any_of` group) passed.
pub fn check_run(doc: &Json) -> Result<bool, String> {
    let mut groups: BTreeMap<String, bool> = BTreeMap::new();
    println!("\n| gate | value | rule | verdict |\n|---|---|---|---|");
    for g in gates_of(doc)?.into_iter().filter(|g| g.in_run) {
        let v = value(doc, &g.metric);
        let pass = v.is_some_and(|v| g.rule.holds(v, g.blessed));
        let verdict = match (&g.any_of, pass) {
            (_, true) => "ok".to_string(),
            (Some(group), false) => format!("no (any of `{group}`)"),
            (None, false) => "FAIL".to_string(),
        };
        let rule = format!("{} {}", g.rule.symbol(), g.blessed);
        println!("| {} | {} | {rule} | {verdict} |", g.metric, show(v));
        // A lone gate is a group of one.
        *groups.entry(g.any_of.unwrap_or(g.metric)).or_default() |= pass;
    }
    let failed: Vec<String> = groups.into_iter().filter(|g| !g.1).map(|g| g.0).collect();
    if !failed.is_empty() {
        eprintln!("FAIL: {}", failed.join(", "));
    }
    Ok(failed.is_empty())
}

/// `report --diff OLD NEW`: OLD's gates applied to NEW under the
/// clamped trajectory rule; prints one row per gate and returns whether
/// all passed.
pub fn check_diff(old: &Json, new: &Json) -> Result<bool, String> {
    let mut ok = true;
    println!("| metric | committed | this run | pass line | verdict |\n|---|---|---|---|---|");
    for g in gates_of(old)?.into_iter().filter(|g| g.in_diff) {
        let (o, n) = (value(old, &g.metric), value(new, &g.metric));
        let verdict = n.and_then(|n| g.rule.diff(g.blessed, o, n));
        let pass = verdict.is_some_and(|v| v.1);
        let sym = match g.rule {
            Rule::Below => "<=",
            rule => rule.symbol(),
        };
        let line = format!("{sym} {}", show(verdict.map(|v| v.0)));
        let word = if pass { "ok" } else { "REGRESSED" };
        let (o, n) = (show(o), show(n));
        println!("| {} | {o} | {n} | {line} | {word} |", g.metric);
        ok &= pass;
    }
    Ok(ok)
}

/// Headlines of the retired thread-scaling and durability benches,
/// kept as constant trajectory rows.
const HISTORY: &str = "\
| thread-scaling bench (retired) | sig_interning.speedup | 2.81 | — | interned vs string partition keys |
| thread-scaling bench (retired) | webhouse_fanout16 @4 threads | 3.65 | — | fan-out speedup, now in BENCH_cpu |
| durability bench (retired) | append.appends_per_sec | 6721.98 | — | WAL appends/sec, fsync per record |
| durability bench (retired) | snapshot_recovery_ratio | 53.65 | — | cadence recovery, now in BENCH_store2 |";

/// `report --trajectory`: the retired benches' history rows, then every
/// gated metric of every `BENCH_*.json` at the workspace root.
pub fn print_trajectory() -> Result<(), String> {
    let root = workspace_root().map_err(|e| e.to_string())?;
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .map_err(|e| format!("{}: {e}", root.display()))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    println!("# Bench trajectory (committed BENCH_*.json gates)\n");
    println!("| file | metric | value | gate | claim |\n|---|---|---|---|---|\n{HISTORY}");
    for name in names {
        let doc = read_bench_json(&root.join(&name))?;
        for g in gates_of(&doc).map_err(|e| format!("{name}: {e}"))? {
            let v = show(value(&doc, &g.metric));
            let rule = format!("{} {}", g.rule.symbol(), g.blessed);
            println!("| {name} | {} | {v} | {rule} | {} |", g.metric, g.claim);
        }
    }
    Ok(())
}

/// The workspace root, found at run time: the nearest ancestor of the
/// current directory whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    cwd.ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|t| t.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no [workspace] Cargo.toml above"))
}

/// Writes `BENCH_<name>.json` at the workspace root; returns the path.
pub fn write_bench_json(name: &str, doc: &Json) -> io::Result<PathBuf> {
    let path = workspace_root()?.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render_pretty() + "\n")?;
    Ok(path)
}

/// Reads and parses a bench document.
pub fn read_bench_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATES: &str = r#"[
      {"metric": "a.up", "rule": "at_least", "blessed": 10.0, "scope": "both", "any_of": "g"},
      {"metric": "a.alt", "rule": "at_least", "blessed": 10.0, "scope": "both", "any_of": "g"},
      {"metric": "down", "rule": "below", "blessed": 0.05, "scope": "both"},
      {"metric": "flag", "rule": "equals", "blessed": 1.0, "scope": "run"}
    ]"#;

    fn doc(up: f64, alt: f64, down: f64) -> Json {
        let a = Json::obj().set("up", up).set("alt", alt);
        let j = Json::obj().set("a", a).set("down", down).set("flag", true);
        with_gates(j, &[GATES])
    }

    #[test]
    fn declared_gates_parse_and_malformed_ones_do_not() {
        assert_eq!(gates_of(&doc(20.0, 0.0, 0.01)).map(|g| g.len()), Ok(4));
        let bad = r#"[{"metric": "x", "rule": "over", "blessed": 1, "scope": "run"}]"#;
        assert!(gates_of(&with_gates(Json::obj(), &[bad])).is_err());
        assert!(check_run(&Json::obj()).is_err());
    }

    #[test]
    fn committed_files_carry_their_modules_gates() {
        use crate::{containbench, cpubench, servebench, store2bench};
        let root = workspace_root().unwrap();
        for (name, gates) in [
            ("store2", store2bench::GATES),
            ("serve", servebench::GATES),
            ("cpu", cpubench::GATES),
            ("contain", containbench::GATES),
        ] {
            let file = read_bench_json(&root.join(format!("BENCH_{name}.json"))).unwrap();
            let declared = with_gates(Json::obj(), &[gates]);
            assert_eq!(
                file.get("gates"),
                declared.get("gates"),
                "BENCH_{name}.json"
            );
        }
    }

    #[test]
    fn run_and_diff_apply_the_blessed_rules() {
        assert_eq!(check_run(&doc(10.0, 0.0, 0.049)), Ok(true));
        assert_eq!(check_run(&doc(9.99, 0.0, 0.01)), Ok(false));
        // In-run, one member of an `any_of` group is enough.
        assert_eq!(check_run(&doc(9.99, 10.0, 0.01)), Ok(true));
        assert_eq!(check_run(&doc(10.0, 0.0, 0.05)), Ok(false));
        let diff = |old: Json, new: Json| check_diff(&old, &new);
        // Committed 20 clamps to the blessed 10/0.8, so the line is 10;
        // the diff checks every member of a group.
        let old = || doc(20.0, 20.0, 0.01);
        assert_eq!(diff(old(), doc(10.0, 10.0, 0.05)), Ok(true));
        assert_eq!(diff(old(), doc(9.99, 20.0, 0.01)), Ok(false));
        assert_eq!(diff(old(), doc(10.0, 10.0, 0.0501)), Ok(false));
        // A committed run under the blessed value lowers the line.
        assert_eq!(diff(doc(5.0, 5.0, 0.01), doc(4.0, 4.0, 0.01)), Ok(true));
    }
}
