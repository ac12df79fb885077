//! What `palo-opt` and `palo-serve` share: flag values, the platform
//! preset, the artifact-store tiers and the cache counter report.

use crate::arch::{presets, Architecture};
use crate::core::{CacheConfig, CacheStats, TierStats};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// The value after `flag`, parsed. A missing or malformed value prints
/// why and returns the caller's `usage()` exit.
pub fn value<T: FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
    usage: fn() -> ExitCode,
) -> Result<T, ExitCode>
where
    T::Err: Display,
{
    let why = match rest.next() {
        None => "needs a value".to_string(),
        Some(v) => match v.parse() {
            Ok(parsed) => return Ok(parsed),
            Err(e) => format!("bad value {v:?}: {e}"),
        },
    };
    eprintln!("{flag}: {why}");
    Err(usage())
}

/// `--platform NAME`, `--cache-dir DIR`, `--cache-policy lru|slru|2q`,
/// `--cache-capacity ENTRIES` and `--cache-capacity-bytes BYTES`.
#[derive(Debug, Clone)]
pub struct SharedFlags {
    /// The `--platform` preset; the scaled i7-5930K (`5930k`) unless
    /// given.
    pub arch: Architecture,
    /// The artifact-store tiers.
    pub cache: CacheConfig,
}

impl Default for SharedFlags {
    fn default() -> Self {
        SharedFlags { arch: presets::repro::intel_i7_5930k(), cache: CacheConfig::default() }
    }
}

impl SharedFlags {
    /// Takes `flag`, and its value from `rest`, if it is a shared flag;
    /// `Ok(false)` leaves it to the caller. A bad value, or an unknown
    /// platform, prints why and returns the caller's `usage()` exit.
    pub fn accept(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
        usage: fn() -> ExitCode,
    ) -> Result<bool, ExitCode> {
        match flag {
            "--platform" => {
                let name: String = value(flag, rest, usage)?;
                self.arch = presets::repro::by_name(&name).ok_or_else(|| {
                    eprintln!("unknown platform {name:?}");
                    usage()
                })?;
            }
            "--cache-dir" => self.cache.dir = Some(value(flag, rest, usage)?),
            "--cache-policy" => self.cache.policy = value(flag, rest, usage)?,
            "--cache-capacity" => self.cache.capacity_entries = Some(value(flag, rest, usage)?),
            "--cache-capacity-bytes" => {
                self.cache.capacity_bytes = Some(value(flag, rest, usage)?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The cache counters both binaries print: request totals, the memory
/// tier, the disk tier when `persistent`, and healed anomalies if any.
pub fn cache_report(s: &CacheStats, cached_artifacts: usize, persistent: bool) -> String {
    let mut out = format!(
        "// cache: {} hits, {} misses, {} bypasses ({:.0}% hit rate, {cached_artifacts} artifacts)\n",
        s.hits,
        s.misses,
        s.bypasses,
        s.hit_rate() * 100.0
    );
    let tier = |name: &str, t: &TierStats| {
        format!(
            "//   {name} {} hits, {} misses, {} evictions, {} bytes written\n",
            t.hits, t.misses, t.evictions, t.bytes_written
        )
    };
    out += &tier("mem tier: ", &s.mem);
    if persistent {
        out += &tier("disk tier:", &s.disk);
    }
    if s.anomalies > 0 {
        out += &format!("//   {} corrupt entries healed (served as misses)\n", s.anomalies);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_is_the_scaled_5930k() {
        assert_eq!(SharedFlags::default().arch, presets::repro::by_name("5930k").unwrap());
    }
}
