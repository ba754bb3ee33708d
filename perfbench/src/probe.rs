//! Measurement plumbing: layer spans timed from outside the program,
//! peak-RSS sampling, and the order statistics the report uses.
//!
//! Spans exist only in the `traced` build. In the plain build [`Span`] is a
//! unit struct whose methods are empty, so the end-to-end numbers are
//! measured on exactly the calls a user of the library makes.

use std::fs;
use std::io;

/// Whether this binary was built with layer tracing.
pub const TRACED: bool = cfg!(feature = "traced");

#[cfg(feature = "traced")]
mod span {
    use std::time::Instant;

    /// Wall-clock bracket around one call into a layer.
    pub struct Span(Instant);

    impl Span {
        #[inline]
        pub fn start() -> Self {
            Self(Instant::now())
        }

        /// Ends the bracket, adding its nanoseconds to `acc`; returns them.
        #[inline]
        pub fn stop(self, acc: &mut u64) -> u64 {
            let ns = self.0.elapsed().as_nanos() as u64;
            *acc += ns;
            ns
        }
    }
}

#[cfg(not(feature = "traced"))]
mod span {
    /// Disabled bracket: compiles to nothing in the plain build.
    pub struct Span;

    impl Span {
        #[inline(always)]
        pub fn start() -> Self {
            Self
        }

        #[inline(always)]
        pub fn stop(self, acc: &mut u64) -> u64 {
            let _ = acc;
            0
        }
    }
}

pub use span::Span;

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident set, so the next [`peak_rss_mib`] covers only what
/// happens from here on.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// The resident-set high-water mark in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status")
        })?;
    Ok(kib / 1024.0)
}

/// Nearest-rank quantile `q` of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
