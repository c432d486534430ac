//! Bench-result registry: one schema for every bench, plus the regression
//! gates CI holds them to (ROADMAP item 5 seed).
//!
//! Every bench binary emits the same row shape — `(bench, name, size,
//! baseline_us, engine_us, speedup)` — through [`emit_json`], and `repro
//! bench` aggregates the per-bench JSON artifacts into `BENCH_all.json`,
//! re-checking every row against [`default_gates`]. The vendored `serde`
//! is a no-op stub, so both the emitter and the parser are hand-rolled
//! against exactly this format:
//!
//! ```json
//! {
//!   "bench": "page_engine",
//!   "results": [
//!     {"name": "...", "size": 10000, "baseline_us": 1.0,
//!      "speedup": 10.00, "engine_us": 0.1}
//!   ]
//! }
//! ```
//!
//! Engine-only rows (the baseline was not run at that size) omit
//! `baseline_us` and `speedup` entirely; the parser also maps the legacy
//! `"baseline_us": 0.000` placeholder to "not run".
//!
//! A gate is a predicate over rows selected by `(bench, name prefix, min
//! size)`: a minimum speedup, an absolute engine-time ceiling, or both.
//! Gates bind in smoke mode too — the CI bench-smoke job runs the page
//! engine at 10^7 pages precisely so the ≥5x migrate/record floors and
//! the absolute round-time ceilings are exercised on every PR, not just
//! on full bench runs.

/// One engine-vs-baseline measurement at one problem size. `size` is the
/// bench's natural scale unit (pages for the page engine, tasks for the
/// planner). `baseline_us == None` marks an engine-only row — the baseline
/// was *not run* at that scale (too slow to time), which is different from
/// it measuring zero. Such rows have no speedup and are only ever gated on
/// absolute engine time.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Which bench produced the row (`page_engine`, `planner`, ...).
    pub bench: String,
    /// The measured path, e.g. `migrate_1pct`.
    pub name: String,
    /// Problem size (pages, tasks, ...).
    pub size: u64,
    /// Mean microseconds per iteration for the replaced baseline, or
    /// `None` when the baseline was not run at this size.
    pub baseline_us: Option<f64>,
    /// Mean microseconds per iteration for the engine under test.
    pub engine_us: f64,
}

impl BenchRow {
    /// Baseline-over-engine speedup; `None` for engine-only rows.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_us.map(|b| b / self.engine_us.max(1e-9))
    }
}

/// Render rows as the registry JSON document for one bench.
pub fn emit_json(bench: &str, rows: &[BenchRow]) -> String {
    let mut json = format!("{{\n  \"bench\": \"{bench}\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // Engine-only rows omit `baseline_us`/`speedup` entirely: an absent
        // key means "not run", which a 0.000 placeholder would misstate.
        let baseline = match (r.baseline_us, r.speedup()) {
            (Some(b), Some(s)) => format!("\"baseline_us\": {b:.3}, \"speedup\": {s:.2}, "),
            _ => String::new(),
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"size\": {}, {}\"engine_us\": {:.3}}}{}\n",
            r.name,
            r.size,
            baseline,
            r.engine_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Extract the string value of `"key": "..."` from one JSON object body.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the numeric value of `"key": <number>` from one object body.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a registry JSON document back into rows. Accepts exactly the
/// [`emit_json`] shape (plus the pre-registry `"pages"`/`"tasks"` size
/// keys, so older committed artifacts still aggregate). Errors carry the
/// offending fragment.
pub fn parse_json(text: &str) -> Result<Vec<BenchRow>, String> {
    let bench = str_field(text, "bench").ok_or("missing top-level \"bench\" field")?;
    let results_at = text
        .find("\"results\"")
        .ok_or("missing \"results\" array")?;
    let mut rows = Vec::new();
    let mut rest = &text[results_at..];
    // The emitter writes one result object per line; scan brace pairs.
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| format!("unclosed object near: {:.60}", &rest[open..]))?;
        let obj = &rest[open..open + close + 1];
        let name =
            str_field(obj, "name").ok_or_else(|| format!("row without \"name\": {obj:.80}"))?;
        let size = num_field(obj, "size")
            .or_else(|| num_field(obj, "pages"))
            .or_else(|| num_field(obj, "tasks"))
            .ok_or_else(|| format!("row without a size field: {obj:.80}"))?;
        // Missing key = engine-only row. Pre-Option artifacts wrote a
        // `0.000` placeholder for "baseline not run"; map that (and any
        // non-positive junk) to `None` too so they still aggregate.
        let baseline_us = num_field(obj, "baseline_us").filter(|b| *b > 0.0);
        let engine_us = num_field(obj, "engine_us")
            .ok_or_else(|| format!("row without \"engine_us\": {obj:.80}"))?;
        rows.push(BenchRow {
            bench: bench.clone(),
            name,
            size: size as u64,
            baseline_us,
            engine_us,
        });
        rest = &rest[open + close + 1..];
    }
    Ok(rows)
}

/// A regression threshold over the rows a `(bench, name prefix, min size)`
/// selector matches.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Bench the gate applies to.
    pub bench: &'static str,
    /// Row-name prefix the gate applies to.
    pub name_prefix: &'static str,
    /// Rows below this size are exempt (small sizes are noise-bound).
    pub min_size: u64,
    /// Rows above this size are exempt (`u64::MAX` = unbounded). Lets one
    /// name carry size-tiered absolute ceilings — e.g. `full_round` holds
    /// a 10 s ceiling at 1e8 pages and a separate, looser one at 1e9.
    pub max_size: u64,
    /// Minimum acceptable speedup (0.0 = no relative gate). Skipped for
    /// engine-only rows, which have no baseline to be relative to.
    pub min_speedup: f64,
    /// Maximum acceptable engine time in microseconds (`INFINITY` = no
    /// absolute gate).
    pub max_engine_us: f64,
}

/// The regression floors the suite currently holds its benches to.
pub fn default_gates() -> Vec<Gate> {
    vec![
        // Top-k selection: ≥5x over the full stable sort at 1e5+ pages.
        Gate {
            bench: "page_engine",
            name_prefix: "topk",
            min_size: 100_000,
            max_size: u64::MAX,
            min_speedup: 5.0,
            max_engine_us: f64::INFINITY,
        },
        // Batch migration over extents: ≥5x over the per-page loop at
        // 1e6+ pages (was ~1.2x on the per-page Vec engine).
        Gate {
            bench: "page_engine",
            name_prefix: "migrate",
            min_size: 1_000_000,
            max_size: u64::MAX,
            min_speedup: 5.0,
            max_engine_us: f64::INFINITY,
        },
        // Record/quantify sweep: same ≥5x floor at 1e6+ pages.
        Gate {
            bench: "page_engine",
            name_prefix: "record",
            min_size: 1_000_000,
            max_size: u64::MAX,
            min_speedup: 5.0,
            max_engine_us: f64::INFINITY,
        },
        // A full placement round over 1e8 pages must stay interactive:
        // single-digit seconds, gated absolutely (engine-only row).
        Gate {
            bench: "page_engine",
            name_prefix: "full_round",
            min_size: 100_000_000,
            max_size: 999_999_999,
            min_speedup: 0.0,
            max_engine_us: 10_000_000.0,
        },
        // The 1e9-page round (local full+huge runs only — the row is
        // gated whenever present): a uniform table is extent-sparse, so
        // 10x the pages must not cost 10x the time — under a minute.
        Gate {
            bench: "page_engine",
            name_prefix: "full_round",
            min_size: 1_000_000_000,
            max_size: u64::MAX,
            min_speedup: 0.0,
            max_engine_us: 60_000_000.0,
        },
        // Fragmentation-adversarial round (one run per page, the arena's
        // worst case): O(pages) node walks, engine-only, absolute ceilings
        // tiered by size. 1e7 runs in CI smoke.
        Gate {
            bench: "page_engine",
            name_prefix: "frag_round",
            min_size: 10_000_000,
            max_size: 999_999_999,
            min_speedup: 0.0,
            max_engine_us: 30_000_000.0,
        },
        Gate {
            bench: "page_engine",
            name_prefix: "frag_round",
            min_size: 1_000_000_000,
            max_size: u64::MAX,
            min_speedup: 0.0,
            max_engine_us: 600_000_000.0,
        },
        // Planner steady state: ≥3x at 100+ tasks (PR 7 floor).
        Gate {
            bench: "planner",
            name_prefix: "alg1_warm",
            min_size: 100,
            max_size: u64::MAX,
            min_speedup: 3.0,
            max_engine_us: f64::INFINITY,
        },
        // Multi-tenant serve scaling: concurrent DRR rounds must stay in
        // the same ballpark as the serial loop even on few cores (the
        // speedup side is reported, not gated — CI floors would encode the
        // host's core count), and must not blow an absolute per-run
        // ceiling at 64+ tenants. Derivation: six full `serve_scale` runs
        // on a 2-vCPU x86-64 host (jobs = 2, task costs inline) took
        // 1.6–2.5 / 2.5–4.2 / 3.8–7.4 ms concurrent at 100 / 250 / 500
        // tenants, and two smoke runs 1.4–2.1 ms at 64 tenants; 50 ms
        // leaves ~7x headroom over the slowest full row and ~25x over the
        // smoke row CI runs, for slower or noisier runners.
        Gate {
            bench: "serve",
            name_prefix: "concurrent_rounds",
            min_size: 64,
            max_size: u64::MAX,
            min_speedup: 0.0,
            max_engine_us: 50_000.0,
        },
    ]
}

/// Check `rows` against `gates`; returns one human-readable violation per
/// failing row (empty = all gates hold).
pub fn check(rows: &[BenchRow], gates: &[Gate]) -> Vec<String> {
    let mut violations = Vec::new();
    for g in gates {
        for r in rows.iter().filter(|r| {
            r.bench == g.bench
                && r.name.starts_with(g.name_prefix)
                && r.size >= g.min_size
                && r.size <= g.max_size
        }) {
            // Engine-only rows (`baseline_us: None`) have no speedup to be
            // relative to: the speedup floor explicitly does not bind, and
            // only the absolute ceiling below can fail them.
            if g.min_speedup > 0.0 {
                if let Some(speedup) = r.speedup() {
                    if speedup < g.min_speedup {
                        violations.push(format!(
                            "{}/{} @ {}: speedup {:.2}x below the {:.1}x floor",
                            r.bench, r.name, r.size, speedup, g.min_speedup
                        ));
                    }
                }
            }
            if r.engine_us > g.max_engine_us {
                violations.push(format!(
                    "{}/{} @ {}: engine {:.0} us over the {:.0} us ceiling",
                    r.bench, r.name, r.size, r.engine_us, g.max_engine_us
                ));
            }
        }
    }
    violations
}

/// Assert all gates hold for one bench's fresh rows — the in-bench gate
/// every bench binary runs before writing its artifact, so a regression
/// fails the bench run itself, not just the later aggregation.
pub fn enforce(rows: &[BenchRow]) {
    let violations = check(rows, &default_gates());
    assert!(
        violations.is_empty(),
        "bench regression gates failed:\n  {}",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        bench: &str,
        name: &str,
        size: u64,
        baseline_us: Option<f64>,
        engine_us: f64,
    ) -> BenchRow {
        BenchRow {
            bench: bench.into(),
            name: name.into(),
            size,
            baseline_us,
            engine_us,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let rows = vec![
            row("page_engine", "migrate_1pct", 1_000_000, Some(120.0), 3.5),
            row("page_engine", "full_round", 100_000_000, None, 2.5e6),
        ];
        let text = emit_json("page_engine", &rows);
        // The engine-only row omits the baseline keys instead of writing 0.
        assert!(
            !text.lines().any(|l| l.contains("baseline_us\": 0")),
            "{text}"
        );
        let back = parse_json(&text).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn legacy_pages_and_tasks_keys_still_parse() {
        let legacy = r#"{
  "bench": "planner",
  "results": [
    {"name": "alg1_warm", "tasks": 100, "baseline_us": 30.0, "engine_us": 5.0, "speedup": 6.00}
  ]
}"#;
        let rows = parse_json(legacy).unwrap();
        assert_eq!(rows[0].size, 100);
        assert_eq!(rows[0].speedup(), Some(6.0));
    }

    #[test]
    fn legacy_zero_baseline_parses_as_not_run() {
        // Pre-Option artifacts marked "baseline not run" with a 0.000
        // placeholder; it must come back as None, not a zero speedup.
        let legacy = r#"{
  "bench": "page_engine",
  "results": [
    {"name": "full_round", "size": 100000000, "baseline_us": 0.000, "engine_us": 2500000.0, "speedup": 0.00}
  ]
}"#;
        let rows = parse_json(legacy).unwrap();
        assert_eq!(rows[0].baseline_us, None);
        assert_eq!(rows[0].speedup(), None);
    }

    #[test]
    fn gates_catch_regressions_and_ceilings() {
        let ok = vec![
            row("page_engine", "migrate_1pct", 1_000_000, Some(120.0), 3.5),
            row("page_engine", "migrate_1pct", 10_000, Some(1.0), 1.0), // below min_size
            row("page_engine", "full_round", 100_000_000, None, 2.5e6),
        ];
        assert!(check(&ok, &default_gates()).is_empty());
        let slow = vec![row(
            "page_engine",
            "migrate_1pct",
            1_000_000,
            Some(10.0),
            9.0,
        )];
        assert_eq!(check(&slow, &default_gates()).len(), 1);
        let over = vec![row("page_engine", "full_round", 100_000_000, None, 2.0e7)];
        let v = check(&over, &default_gates());
        assert!(v.len() == 1 && v[0].contains("ceiling"), "{v:?}");
    }

    #[test]
    fn engine_only_rows_skip_speedup_gates() {
        let rows = vec![row("page_engine", "migrate_1pct", 1_000_000, None, 50.0)];
        assert!(check(&rows, &default_gates()).is_empty());
    }
}
