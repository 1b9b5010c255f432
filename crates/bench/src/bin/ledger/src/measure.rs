//! Small measuring tools shared by every phase: order statistics, the
//! output-multiset digest, `/proc` memory readings and the metric list.

use bytes::BytesMut;
use caesar_events::{codec, Event};
use std::collections::BTreeMap;

/// Median of `values` (sorts in place). Zero for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated
/// between ranks. Zero for an empty slice.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread and process it starts
/// from then on — to the highest-numbered CPU it may run on; returns
/// that CPU's number, or `None` where the kernel refuses (nothing is
/// pinned then).
///
/// Device interrupts and the kernel's housekeeping land on CPU 0 unless
/// someone moves them: on the two-core box this was written on, a
/// thread that only reads the clock loses 1.2 % of its time on CPU 0 (in
/// pauses of 40 µs to 4 ms) and 0.05–0.14 % on CPU 1. At 40 % load a
/// pause delays 1.7 times its length in outputs, so on CPU 0 the 99th
/// percentile of output latency is a draw from those pauses, and a
/// thread left to the scheduler spends an unknown share of the run
/// there.
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of the size passed; pid 0 names
    // the calling thread.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

/// The gated latency figures of an open-loop phase: sorts each part in
/// place and returns the lowest median and the lowest mean among them,
/// µs. The parts are stretches of equal scheduled length
/// (`Spec::part_seconds`). Parts with under 20 samples (the ragged end
/// of a smoke run) do not count; zeros when none does.
///
/// The box this runs on is a small guest on a shared host. Whatever
/// shares the host slows the guest for seconds or minutes at a time
/// without reporting it as steal: the same binary on the same inputs
/// reads a `served` median of 195 µs for six runs in a row and 225 or
/// 290 µs a quarter of an hour later, `lr_dense` 72 or 102 µs, and a
/// whole-phase p99 of `shared_prefix` anything from 28 µs to 19 ms.
/// Interference of that kind only ever adds latency, so the lowest of
/// the parts' readings is the one least touched by it: across seeds it
/// spreads a third to a quarter as wide as their median
/// (REPEATABILITY.md). What the engine does to every part of its run —
/// a slower path, a held output, a pause that recurs within a part's
/// length — is in every part and so in the lowest. The price: a stall
/// that leaves one part untouched does not move the gated figures. It
/// shows in the whole-phase percentiles printed beside them
/// (`bench.out_latency_p99_us`, `bench.out_latency_p999_us`), which this
/// box cannot hold to any bound, and in `bench.mean_pass_eps`.
pub fn best_part<'a>(parts: impl Iterator<Item = &'a mut [u32]>) -> (f64, f64) {
    let (mut p50, mut mean) = (f64::INFINITY, f64::INFINITY);
    for part in parts.filter(|part| part.len() >= 20) {
        part.sort_unstable();
        p50 = p50.min(quantile(part, 0.5));
        mean = mean.min(part.iter().map(|ns| f64::from(*ns)).sum::<f64>() / part.len() as f64);
    }
    if p50.is_finite() {
        (p50 / 1000.0, mean / 1000.0)
    } else {
        (0.0, 0.0)
    }
}

/// Order-independent digest of a multiset of events: wrapping sums of
/// two 64-bit hashes of each event's canonical wire encoding, plus a
/// signed count per event type. Retractions subtract, so folding a
/// speculative record stream lands on the digest of the settled outputs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Digest {
    sum: u64,
    mixed: u64,
    /// Net event count per type id.
    pub by_type: BTreeMap<u32, i64>,
}

impl Digest {
    pub fn add(&mut self, event: &Event, scratch: &mut BytesMut) {
        let h = hash(event, scratch);
        self.sum = self.sum.wrapping_add(h);
        self.mixed = self.mixed.wrapping_add(mix(h));
        self.bump(event.type_id.0, 1);
    }

    pub fn retract(&mut self, event: &Event, scratch: &mut BytesMut) {
        let h = hash(event, scratch);
        self.sum = self.sum.wrapping_sub(h);
        self.mixed = self.mixed.wrapping_sub(mix(h));
        self.bump(event.type_id.0, -1);
    }

    /// Keeps no zero entries, so equal multisets compare equal however
    /// they were reached.
    fn bump(&mut self, type_id: u32, delta: i64) {
        let count = self.by_type.entry(type_id).or_insert(0);
        *count += delta;
        if *count == 0 {
            self.by_type.remove(&type_id);
        }
    }

    /// Net number of events in the multiset.
    pub fn count(&self) -> i64 {
        self.by_type.values().sum()
    }
}

/// FNV-1a over the canonical encoding.
fn hash(event: &Event, scratch: &mut BytesMut) -> u64 {
    scratch.clear();
    codec::encode(event, scratch);
    scratch.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The splitmix64 finalizer: a second hash the first does not determine
/// additively.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One `Vm*` line of `/proc/<pid>/status`, in MiB (`self` when `pid` is
/// `None`). Zero when the line is missing (process gone).
pub fn proc_status_mb(pid: Option<u32>, key: &str) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, &'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((
            name.into(),
            unit,
            if value.is_finite() { value } else { 0.0 },
        ));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.2)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` restricted to `names`;
    /// a name the run did not measure reads 0 (a layer the workload
    /// does not exercise).
    pub fn json(&self, names: &[(&str, &'static str)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 1.0), 5.0);
    }

    #[test]
    fn best_part_takes_the_lowest_reading_of_each_figure() {
        // Part 0 has the lowest median, part 1 the lowest mean; part 2
        // is too short to count.
        let mut a: Vec<u32> = (0..20)
            .map(|i| if i < 11 { 1_000 } else { 9_000 })
            .collect();
        let mut b = [3_000u32; 20];
        let mut c = [1u32; 5];
        let parts = [&mut a[..], &mut b[..], &mut c[..]];
        assert_eq!(best_part(parts.into_iter()), (1.0, 3.0));
        assert_eq!(best_part(std::iter::empty()), (0.0, 0.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
