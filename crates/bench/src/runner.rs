//! The one timing primitive and the one JSON schema every target shares.
//!
//! [`time_interleaved`] runs a set of configs interleaved: one untimed
//! warm-up call per config, then `reps` passes that each time every config
//! once, in a fresh seeded order. Host drift (frequency steps, neighbours
//! on a shared machine) then lands on every config alike instead of on
//! whichever ran last, and no config always runs right after the same
//! other one, so two rows' p10–p90 intervals can be compared directly.
//! [`Report`] writes `BENCH_<name>.json` with a `host` block and one flat
//! row per line; [`compare`] matches two such files row by row.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{BenchConfig, ScaleProfile};

/// One config's timed samples, sorted ascending (milliseconds as sampled).
#[derive(Debug, Clone, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Wrap raw samples in any order. Panics on an empty set.
    pub fn new(mut samples: Vec<f64>) -> Samples {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Samples(samples)
    }

    /// Nearest-rank percentile: the smallest sample with at least `pct` %
    /// of the samples at or below it.
    pub fn percentile(&self, pct: usize) -> f64 {
        let rank = (pct * self.0.len()).div_ceil(100).max(1);
        self.0[rank - 1]
    }

    /// 10th percentile.
    pub fn p10(&self) -> f64 {
        self.percentile(10)
    }

    /// Median (nearest rank, so the lower middle of an even count).
    pub fn median(&self) -> f64 {
        self.percentile(50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90)
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Largest minus smallest sample.
    pub fn spread(&self) -> f64 {
        self.0[self.0.len() - 1] - self.0[0]
    }

    /// Every sample multiplied by `k` (a unit conversion).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|s| s * k).collect())
    }
}

/// Time `configs` configs interleaved: `run(i)` once per config untimed,
/// in order, then `reps` passes (at least one) that each call every `run(i)`
/// once, in a fresh permutation drawn from `seed`. What a config inherits
/// from the one before it (caches, heap, a frequency step) then varies
/// from pass to pass instead of biasing its row. Returns each config's
/// samples in milliseconds.
pub fn time_interleaved(
    reps: usize,
    configs: usize,
    seed: u64,
    mut run: impl FnMut(usize),
) -> Vec<Samples> {
    let reps = reps.max(1);
    (0..configs).for_each(&mut run);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..configs).collect();
    let mut ms = vec![Vec::with_capacity(reps); configs];
    for _ in 0..reps {
        for k in (1..configs).rev() {
            order.swap(k, rng.gen_range(0..k + 1));
        }
        for &i in &order {
            let t0 = Instant::now();
            run(i);
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    ms.into_iter().map(Samples::new).collect()
}

/// Thread counts the `frontier` target sweeps: powers of two
/// up to the host's parallelism plus the parallelism itself, or T = 1, 2
/// under `--quick`.
pub(crate) fn host_threads(scale: ScaleProfile) -> Vec<usize> {
    if scale == ScaleProfile::Quick {
        return vec![1, 2];
    }
    let nproc = nproc();
    let mut list: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&t| t <= nproc)
        .collect();
    if !list.contains(&nproc) {
        list.push(nproc);
    }
    list
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` block: where a file's numbers were measured.
fn host_json(max_threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = git_revision();
    let nproc = nproc();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"git\": {}, \"oversubscribed\": {}}}",
        json_str(&cpu),
        json_str(&git),
        max_threads > nproc
    )
}

/// The short commit id of `HEAD`, with `-dirty` appended when tracked
/// files differ from it (so a file recorded from uncommitted code does not
/// name its parent commit), or `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]).filter(|o| o.status.success()) else {
        return "unknown".into();
    };
    let head = String::from_utf8_lossy(&head.stdout).trim().to_string();
    // `git diff --quiet` exits 1 when the work tree differs from HEAD.
    match git(&["diff", "--quiet", "HEAD"]).and_then(|o| o.status.code()) {
        Some(0) => head,
        _ => format!("{head}-dirty"),
    }
}

/// `s` as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One timing row: the `key` fields (values rendered as JSON), then
/// `unit`, the nearest-rank summary of `s`, and `extra` — further rendered
/// `"k": v` columns, or empty. [`compare`] keys rows by every field before
/// `unit`.
pub(crate) fn timing_row(key: &[(&str, String)], unit: &str, s: &Samples, extra: &str) -> String {
    let mut row = String::from("{");
    for (k, v) in key {
        let _ = write!(row, "\"{k}\": {v}, ");
    }
    let _ = write!(
        row,
        "\"unit\": \"{unit}\", \"p10\": {:.4}, \"median\": {:.4}, \"p90\": {:.4}, \"samples\": {}",
        s.p10(),
        s.median(),
        s.p90(),
        s.count()
    );
    if !extra.is_empty() {
        let _ = write!(row, ", {extra}");
    }
    row.push('}');
    row
}

/// A `BENCH_<name>.json` file under construction.
#[derive(Debug, Clone)]
pub struct Report {
    /// Target name; the file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Top-level `"key": value` fields, values rendered as JSON.
    pub fields: Vec<(&'static str, String)>,
    /// Arrays of flat rows, written one row per line.
    pub sections: Vec<(&'static str, Vec<String>)>,
}

impl Report {
    /// A report for target `name`, written by the `figures` command line
    /// `targets` under `cfg` at team sizes `threads`; its fields start with
    /// that command, the host block and the settings, the pass-order seed
    /// among them.
    pub fn new(name: &'static str, targets: &str, cfg: &BenchConfig, threads: &[usize]) -> Report {
        let quick = cfg.scale == ScaleProfile::Quick;
        let scale = match cfg.scale {
            ScaleProfile::Default => "",
            ScaleProfile::Quick => "--quick ",
            ScaleProfile::Paper => "--paper-scale ",
        };
        let command = format!("figures {scale}{targets}");
        let swept: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
        let fields = vec![
            ("bench", json_str(name)),
            ("command", json_str(&command)),
            (
                "host",
                host_json(threads.iter().copied().max().unwrap_or(1)),
            ),
            ("threads_swept", format!("[{}]", swept.join(", "))),
            ("reps", cfg.reps.to_string()),
            ("seed", cfg.seed.to_string()),
            ("quick", quick.to_string()),
        ];
        Report {
            name,
            fields,
            sections: Vec::new(),
        }
    }

    /// The rows of section `name` (empty when absent).
    pub fn section(&self, name: &str) -> &[String] {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, rows)| rows)
    }

    /// Render the whole file.
    pub fn to_json(&self) -> String {
        let fields = self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}"));
        let sections = (self.sections.iter())
            .map(|(k, rows)| format!("\"{k}\": [\n    {}\n  ]", rows.join(",\n    ")));
        let all: Vec<String> = fields.chain(sections).collect();
        format!("{{\n  {}\n}}\n", all.join(",\n  "))
    }

    /// Write `BENCH_<name>.json` into `dir` (created if missing).
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

/// How a row moved between two files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new p10–p90 interval lies wholly below the old one.
    Faster,
    /// The new interval lies wholly above the old one.
    Slower,
    /// The intervals overlap.
    Unresolved,
    /// The row exists only in the old file.
    OnlyOld,
    /// The row exists only in the new file.
    OnlyNew,
}

/// One matched (or unmatched) timing row.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The row key: its fields before `unit`, as `k=v` pairs.
    pub key: String,
    /// The verdict under the non-overlap rule.
    pub verdict: Verdict,
    /// `[p10, median, p90]` in the old file.
    pub old: Option<[f64; 3]>,
    /// `[p10, median, p90]` in the new file.
    pub new: Option<[f64; 3]>,
}

/// Match the timing rows of two `BENCH_*.json` files by key and judge
/// each: faster or slower only when the p10–p90 intervals do not overlap.
/// Old rows come first in file order, then rows only the new file has.
///
/// Configs are interleaved only within one file, so when the two files
/// were recorded at different times a verdict includes host drift: two
/// `BENCH_frontier.json` files recorded with no BFS change in between
/// read the gatekeeper path14 dense scan "faster" at T = 1, 1464 → 966 ms.
pub fn compare(old: &str, new: &str) -> Vec<Comparison> {
    let (old, new) = (timing_rows(old), timing_rows(new));
    let mut out: Vec<Comparison> = old
        .iter()
        .map(|(key, o)| {
            let n = new.iter().find(|(k, _)| k == key).map(|(_, n)| *n);
            let verdict = match n {
                None => Verdict::OnlyOld,
                Some(n) if n[2] < o[0] => Verdict::Faster,
                Some(n) if n[0] > o[2] => Verdict::Slower,
                Some(_) => Verdict::Unresolved,
            };
            Comparison {
                key: key.clone(),
                verdict,
                old: Some(*o),
                new: n,
            }
        })
        .collect();
    for (key, n) in &new {
        if !old.iter().any(|(k, _)| k == key) {
            out.push(Comparison {
                key: key.clone(),
                verdict: Verdict::OnlyNew,
                old: None,
                new: Some(*n),
            });
        }
    }
    out
}

/// Every timing row of `json` as (key, [p10, median, p90]); the key is
/// the row's fields before `unit`, as `k=v` pairs.
fn timing_rows(json: &str) -> Vec<(String, [f64; 3])> {
    json.lines()
        .filter_map(|row| {
            let (key, _) = row
                .trim_start()
                .strip_prefix('{')?
                .split_once("\"unit\": ")?;
            let num = |name| field(row, name)?.parse().ok();
            let span = [num("p10")?, num("median")?, num("p90")?];
            let key = key.replace('"', "").replace(": ", "=").replace(", ", " ");
            Some((key.trim_end().to_string(), span))
        })
        .collect()
}

/// The value of the first field `name` in JSON this module wrote, such as
/// a one-line row or a file's `host` block: a string's contents (these
/// strings hold no quotes) or a number's text.
pub fn field<'a>(row: &'a str, name: &str) -> Option<&'a str> {
    let at = row.find(&format!("\"{name}\": "))? + name.len() + 4;
    match row[at..].strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => row[at..].split([',', '}']).next(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let one = Samples::new(vec![7.0]);
        assert_eq!([one.p10(), one.median(), one.p90()], [7.0; 3]);
        assert_eq!(one.count(), 1);
        // 1..=10 shuffled: ranks ceil(0.1 n), ceil(0.5 n), ceil(0.9 n).
        let ten = Samples::new(vec![4.0, 9.0, 1.0, 10.0, 6.0, 2.0, 8.0, 3.0, 7.0, 5.0]);
        assert_eq!([ten.p10(), ten.median(), ten.p90()], [1.0, 5.0, 9.0]);
        assert_eq!(ten.count(), 10);
        assert_eq!(ten.spread(), 9.0);
        assert_eq!(ten.scaled(2.0).median(), 10.0);
    }

    #[test]
    fn git_revision_is_a_short_id_with_an_optional_dirty_marker() {
        let rev = git_revision();
        let id = rev.strip_suffix("-dirty").unwrap_or(&rev);
        assert!(
            rev == "unknown" || (id.len() >= 4 && id.bytes().all(|b| b.is_ascii_hexdigit())),
            "unexpected git field {rev:?}"
        );
    }

    #[test]
    fn each_rep_visits_every_config_once() {
        let mut calls = Vec::new();
        let s = time_interleaved(3, 4, 7, |i| calls.push(i));
        // One warm-up pass in order, then three passes, each a permutation.
        let pass: Vec<usize> = (0..4).collect();
        assert_eq!(calls[..4], pass);
        for timed in calls[4..].chunks(4) {
            let mut sorted = timed.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, pass, "{calls:?}");
        }
        assert_eq!(calls.len(), 16);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|s| s.count() == 3 && s.p90() < 1e3));
    }

    #[test]
    fn no_config_always_follows_the_same_neighbour() {
        // Ten passes (the default `--reps`, at least one per config) over
        // three or more configs, at the default seed and ten others.
        for configs in [3, 4, 6, 8] {
            for seed in (0..10).chain([BenchConfig::default().seed]) {
                let mut calls = Vec::new();
                time_interleaved(10, configs, seed, |i| calls.push(i));
                // A timed call's neighbour is the call right before it.
                let mut before = vec![Vec::new(); configs];
                for w in calls[configs - 1..].windows(2) {
                    before[w[1]].push(w[0]);
                }
                for (i, b) in before.iter().enumerate() {
                    assert!(
                        b.iter().any(|&n| n != b[0]),
                        "{configs} configs, seed {seed}: {i} always follows {}",
                        b[0]
                    );
                }
            }
        }
        // The same seed draws the same orders.
        let order = |seed| {
            let mut calls = Vec::new();
            time_interleaved(5, 5, seed, |i| calls.push(i));
            calls
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }

    fn file(rows: &[(&str, [f64; 3])]) -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(g, [a, b, c])| {
                timing_row(
                    &[("graph", json_str(g)), ("threads", "2".into())],
                    "ms",
                    &Samples::new(vec![*a, *a, *b, *b, *b, *b, *b, *c, *c, *c]),
                    "\"speedup\": 1.0",
                )
            })
            .collect();
        let cfg = BenchConfig::default();
        let mut r = Report::new("test", "test", &cfg, &[1, 2]);
        r.sections.push(("results", rows));
        r.to_json()
    }

    #[test]
    fn compare_judges_by_interval_overlap() {
        let old = file(&[
            ("a", [10.0, 11.0, 12.0]),
            ("b", [10.0, 11.0, 12.0]),
            ("c", [10.0, 11.0, 12.0]),
            ("gone", [1.0, 1.0, 1.0]),
        ]);
        let new = file(&[
            ("a", [7.0, 8.0, 9.0]),
            ("b", [12.5, 13.0, 14.0]),
            ("c", [11.5, 13.0, 14.0]),
            ("added", [1.0, 1.0, 1.0]),
        ]);
        let got: Vec<(String, Verdict)> = compare(&old, &new)
            .into_iter()
            .map(|c| (c.key, c.verdict))
            .collect();
        let want = [
            ("graph=a threads=2", Verdict::Faster),
            ("graph=b threads=2", Verdict::Slower),
            ("graph=c threads=2", Verdict::Unresolved),
            ("graph=gone threads=2", Verdict::OnlyOld),
            ("graph=added threads=2", Verdict::OnlyNew),
        ];
        let want: Vec<(String, Verdict)> = want.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(got, want);
    }
}
