//! Bench records and their regression gate, shared by `despeed` and
//! `scale`.
//!
//! A record file is a JSON array with one single-line record per mode,
//! the `--quick` record first, each keyed by its `"quick"` flag. A record
//! holds labelled entries (`{"label":"…", …}`). The gate compares a fresh
//! record with the baseline, which is the record file as it was before the
//! run rewrote it:
//!
//! * **Deterministic fields** ([`Rules::exact`]) must match exactly, on
//!   every host. So must the set of labels.
//! * **`per_sec`** may fall by at most [`TOLERANCE`], and is compared only
//!   when the baseline was recorded on this host's core count; otherwise
//!   it is warned about and skipped.

/// Largest allowed fractional `per_sec` drop against the baseline.
pub const TOLERANCE: f64 = 0.20;

/// What a bench's gate compares.
pub struct Rules {
    /// Entry fields compared exactly on every host: simulated or counted
    /// quantities that any host must reproduce.
    pub exact: &'static [&'static str],
    /// Whether an entry's `per_sec` is gated (when core counts match).
    pub timed: fn(&str) -> bool,
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The record for mode `quick` in a record file.
fn mode_record(file: &str, quick: bool) -> Option<&str> {
    let tag = format!("\"quick\":{quick}");
    file.lines()
        .find(|l| l.contains(&tag))
        .map(|l| l.trim_end_matches(','))
}

/// Writes `record` as mode `quick`'s record in the file at `path`,
/// keeping the other mode's record (quick first, then full).
pub fn write(path: &str, quick: bool, record: &str) {
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let other = mode_record(&old, !quick);
    let records: Vec<&str> = if quick {
        [Some(record), other].into_iter().flatten().collect()
    } else {
        [other, Some(record)].into_iter().flatten().collect()
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, format!("[\n{}\n]\n", records.join(",\n")))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nrecord written to {path}");
}

/// Compares the fresh record `new` with the baseline record `base`.
/// Returns one line per mismatch, the number of fields that passed, and
/// a warning if `per_sec` was not compared.
fn compare(base: &str, new: &str, rules: &Rules) -> (Vec<String>, usize, Option<String>) {
    let (old, fresh) = (entries(base), entries(new));
    let (mut failures, mut passed) = (Vec::new(), 0);
    let cores = (field(base, "cores"), field(new, "cores"));
    let skipped = (cores.0 != cores.1).then(|| {
        format!(
            "baseline was recorded on {} core(s) but this host has {}; \
             per_sec is not comparable and was not gated",
            cores.0.unwrap_or("?"),
            cores.1.unwrap_or("?")
        )
    });
    for &(label, o) in &old {
        let Some(&(_, n)) = fresh.iter().find(|(l, _)| *l == label) else {
            failures.push(format!("{label}: missing from this run"));
            continue;
        };
        for &key in rules.exact {
            match (field(o, key), field(n, key)) {
                (a, b) if a == b => passed += usize::from(a.is_some()),
                (a, b) => failures.push(format!(
                    "{label}: {key} {} -> {}",
                    a.unwrap_or("absent"),
                    b.unwrap_or("absent")
                )),
            }
        }
        let per_sec = |e| field(e, "per_sec").and_then(|s| s.parse::<f64>().ok());
        if let (None, true, Some(was), Some(now)) =
            (&skipped, (rules.timed)(label), per_sec(o), per_sec(n))
        {
            if now < was * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "{label}: per_sec {:.2}M/s -> {:.2}M/s ({:+.1}%)",
                    was / 1e6,
                    now / 1e6,
                    (now / was - 1.0) * 100.0
                ));
            } else {
                passed += 1;
            }
        }
    }
    for &(label, _) in &fresh {
        if !old.iter().any(|(l, _)| *l == label) {
            failures.push(format!("{label}: not in the baseline"));
        }
    }
    (failures, passed, skipped)
}

/// Gates the fresh `record` for mode `quick` against `baseline`, the
/// contents of `path` before this run rewrote it (`None`: no gate).
/// Prints the verdict and exits 1 on any failure.
pub fn gate(baseline: Option<&str>, record: &str, quick: bool, path: &str, rules: &Rules) {
    let Some(file) = baseline else { return };
    let Some(base) = mode_record(file, quick) else {
        println!("no baseline record (quick={quick}) in {path}; gate skipped");
        return;
    };
    let (failures, passed, skipped) = compare(base, record, rules);
    if let Some(why) = skipped {
        println!("WARNING: {why}");
    }
    if failures.is_empty() {
        println!("regression gate: ok ({passed} field(s) checked against {path})");
    } else {
        eprintln!("regression gate FAILED against {path}:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// `(label, text)` per labelled entry of a record, where an entry's text
/// runs to the next entry's label.
fn entries(record: &str) -> Vec<(&str, &str)> {
    record
        .split("{\"label\":\"")
        .skip(1)
        .filter_map(|e| e.split_once('"'))
        .collect()
}

/// The raw value of the first `"key":` in `text`: a number, or a string
/// with its quotes.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let v = &text[at..];
    let end = match v.strip_prefix('"') {
        Some(s) => s.find('"')? + 2,
        None => v.find([',', '}', ']']).unwrap_or(v.len()),
    };
    Some(&v[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: Rules = Rules {
        exact: &["events", "fingerprint"],
        timed: |_| true,
    };

    fn record(cores: u32, events: u64, per_sec: u64) -> String {
        format!(
            "{{\"bench\":\"t\",\"quick\":true,\"cores\":{cores},\"cells\":[\
             {{\"label\":\"a\",\"events\":{events},\"per_sec\":{per_sec},\
             \"nested\":{{\"min\":1.5}},\"fingerprint\":\"00ff\"}}],\
             \"identity\":{{\"label\":\"identity\",\"workers\":[1, 2],\"fingerprint\":\"abcd\"}}}}"
        )
    }

    #[test]
    fn identical_records_pass() {
        let r = record(4, 100, 1_000_000);
        let (failures, passed, skipped) = compare(&r, &r, &RULES);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!((passed, skipped), (4, None));
    }

    #[test]
    fn deterministic_mismatch_fails_across_core_counts() {
        let (failures, passed, skipped) = compare(
            &record(1, 100, 1_000_000),
            &record(4, 101, 1_000_000),
            &RULES,
        );
        assert_eq!(failures, ["a: events 100 -> 101"]);
        assert!(skipped.is_some(), "per_sec must not be compared");
        assert_eq!(passed, 2);
    }

    #[test]
    fn per_sec_gates_at_the_tolerance_on_the_same_host() {
        let base = record(4, 100, 1_000_000);
        let (failures, ..) = compare(&base, &record(4, 100, 810_000), &RULES);
        assert!(failures.is_empty(), "{failures:?}");
        let (failures, ..) = compare(&base, &record(4, 100, 790_000), &RULES);
        assert_eq!(failures.len(), 1, "{failures:?}");
        // A bigger drop on a different host only warns.
        let (failures, ..) = compare(&base, &record(1, 100, 100), &RULES);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn label_sets_must_match() {
        let base = record(4, 100, 1);
        let renamed = base.replace("\"identity\",", "\"identity2\",");
        let (failures, ..) = compare(&base, &renamed, &RULES);
        assert_eq!(
            failures,
            [
                "identity: missing from this run",
                "identity2: not in the baseline"
            ]
        );
    }

    #[test]
    fn truncated_records_parse_without_panicking() {
        let full = record(4, 1, 1).replace("identity", "idé");
        let cuts = (0..full.len()).filter(|&i| full.is_char_boundary(i));
        for junk in cuts.map(|i| &full[..i]) {
            compare(junk, &full, &RULES);
        }
        assert!(compare(&full, &full, &RULES).0.is_empty());
    }

    #[test]
    fn writing_one_mode_keeps_the_other() {
        let path = std::env::temp_dir().join(format!("cord-record-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        write(path, false, "{\"quick\":false,\"n\":1}");
        write(path, true, "{\"quick\":true,\"n\":2}");
        write(path, false, "{\"quick\":false,\"n\":3}");
        let file = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(
            file,
            "[\n{\"quick\":true,\"n\":2},\n{\"quick\":false,\"n\":3}\n]\n"
        );
        assert_eq!(mode_record(&file, true), Some("{\"quick\":true,\"n\":2}"));
    }
}
