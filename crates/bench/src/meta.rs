//! Shared provenance stamp for every `BENCH_*.json` artefact.
//!
//! Benchmark JSON lives long after the run: it gets committed, diffed
//! across machines, and quoted in regression reports. Every writer
//! embeds the same `"meta"` object so a number can always be traced to
//! the schema revision, source commit, host width and date that
//! produced it — with no external dependencies (commit via `git
//! rev-parse`, date from the unix epoch with the days-from-civil
//! inverse algorithm).

/// Bump when any `BENCH_*.json` writer changes field layout.
pub const SCHEMA_VERSION: u32 = 2;

/// The `"meta"` JSON object all `BENCH_*.json` files share:
/// `{"schema_version", "commit", "host_cores", "date"}`.
pub fn json_object() -> String {
    format!(
        "{{\"schema_version\": {SCHEMA_VERSION}, \"commit\": \"{}\", \
         \"host_cores\": {}, \"date\": \"{}\"}}",
        commit(),
        host_cores(),
        iso_date_utc(),
    )
}

/// Short git commit of the working tree, `"unknown"` outside a checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores on the host (thread-scaling ratios are meaningless
/// without it).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Today's UTC date as `YYYY-MM-DD`, from `SystemTime` alone.
pub fn iso_date_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian date for a day count since 1970-01-01 (Howard
/// Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_epoch_and_leap_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // 2024 is a leap year: day 59 from Jan 1 is Feb 29.
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn stamp_is_valid_json_shape() {
        let s = json_object();
        let v = zomp::json::Json::parse(&s).unwrap_or_else(|e| panic!("{e}: {s}"));
        for key in ["schema_version", "commit", "host_cores", "date"] {
            assert!(v.get(key).is_some(), "{s}");
        }
        // Date must be the fixed-width ISO form.
        let date = v.get("date").and_then(|d| d.as_str()).unwrap();
        assert_eq!(date.len(), 10, "{date}");
        assert_eq!(date.as_bytes()[4], b'-');
        assert_eq!(date.as_bytes()[7], b'-');
    }
}
