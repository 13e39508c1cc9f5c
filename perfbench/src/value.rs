//! The values the workloads move, generated from the seed.
//!
//! A value is `seq << 20 | producer << 16 | tag`: the sequence number
//! its producer gave it, the producer, and 16 seeded bits so checksums
//! cover more than the sequence. Sequence order is value order for one
//! producer, and `value >> 16` (the message id) is unique.

/// SplitMix64: a stateless, well-mixed hash of one word.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn make(seed: u64, producer: u64, seq: u64) -> u64 {
    let tag = mix(seed ^ (producer << 56) ^ seq) & 0xFFFF;
    (seq << 20) | (producer << 16) | tag
}

pub fn id(v: u64) -> u64 {
    v >> 16
}

pub fn producer(v: u64) -> usize {
    ((v >> 16) & 0xF) as usize
}

pub fn seq(v: u64) -> u64 {
    v >> 20
}

/// What one consumer saw, checked as it goes: values from each
/// producer must arrive in sequence order, and the checksum of all
/// values taken must equal the checksum of all values given.
pub struct Check {
    next: Vec<u64>,
    pub sent_sum: u64,
    pub got_sum: u64,
    pub failed: u64,
}

impl Check {
    pub fn new(producers: usize) -> Check {
        Check {
            next: vec![0; producers],
            sent_sum: 0,
            got_sum: 0,
            failed: 0,
        }
    }

    #[inline]
    pub fn sent(&mut self, v: u64) {
        self.sent_sum = self.sent_sum.wrapping_add(v);
    }

    /// A value arrived. Each producer's values must arrive in strictly
    /// increasing order; with one consumer (`exact`) also without gaps.
    /// A gap counts once: checking resumes after the value that arrived.
    #[inline]
    pub fn got(&mut self, v: u64, exact: bool) {
        self.got_sum = self.got_sum.wrapping_add(v);
        let (p, s) = (producer(v), seq(v));
        let Some(next) = self.next.get_mut(p) else {
            self.failed += 1;
            return;
        };
        if s < *next || (exact && s > *next) {
            self.failed += 1;
        }
        *next = (*next).max(s + 1);
    }

    /// A take that should have produced a value did not.
    pub fn missing(&mut self) {
        self.failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_order_follows_sequence() {
        let a = make(7, 3, 41);
        let b = make(7, 3, 42);
        assert_eq!((producer(a), seq(a)), (3, 41));
        assert!(a < b);
        assert_eq!(make(7, 3, 41), a, "same seed, same value");
        assert_ne!(id(a), id(make(7, 2, 41)));
    }

    #[test]
    fn check_flags_reorder_gap_and_duplicate() {
        let mut c = Check::new(2);
        c.got(make(1, 0, 0), true);
        c.got(make(1, 1, 0), true);
        c.got(make(1, 0, 1), true);
        assert_eq!(c.failed, 0);
        c.got(make(1, 0, 1), true); // duplicate
        c.got(make(1, 1, 5), true); // gap
        c.got(make(1, 1, 6), true);
        assert_eq!(c.failed, 2, "a gap counts once");
        let mut loose = Check::new(1);
        loose.got(make(1, 0, 4), false);
        loose.got(make(1, 0, 9), false);
        loose.got(make(1, 0, 2), false); // reorder
        assert_eq!(loose.failed, 1);
    }
}
