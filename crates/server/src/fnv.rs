//! FNV-1a 64: the crate's one hash whose output is fixed by its
//! specification, for values that outlive a process — snapshot checksums
//! and the router's key placement. (std's `DefaultHasher` may change
//! between Rust releases, so it only suits in-process tables.)

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incrementally folds bytes into an FNV-1a 64 hash.
#[derive(Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = Fnv1a::new();
        hash.update(bytes);
        hash.finish()
    }

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_updates_equal_one_update() {
        let mut split = Fnv1a::new();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));
    }
}
