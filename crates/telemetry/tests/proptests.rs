//! Property tests for the telemetry JSON codec: arbitrary registries
//! must round-trip exactly, and no malformed input may panic the parser.
//! Seeded loops, 256 cases each. (This crate sits below
//! `sixdust_addr::prf`, so the generator is a local splitmix64.)

use sixdust_telemetry::{Registry, Snapshot};

const CASES: u64 = 256;

struct Rng(u64);

impl Rng {
    fn new(property: u64, case: u64) -> Rng {
        Rng(property << 32 | case)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick(&mut self, alphabet: &[char]) -> char {
        alphabet[self.below(alphabet.len() as u64) as usize]
    }

    /// Metric names: plausible dot-paths, printable ASCII, and hostile
    /// strings exercising every escape path (quotes, backslashes, control
    /// characters, non-ASCII).
    fn name(&mut self) -> String {
        const PATH: &[char] = &['a', 'k', 'z', '0', '9', '_', '.'];
        const HOSTILE: &[char] =
            &['\0', '\u{1}', '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{1f}', '"', '\\', 'µ', '→'];
        match self.below(3) {
            0 => (0..1 + self.below(25)).map(|_| self.pick(PATH)).collect(),
            1 => (0..self.below(13)).map(|_| (b' ' + self.below(95) as u8) as char).collect(),
            _ => (0..1 + self.below(8)).map(|_| self.pick(HOSTILE)).collect(),
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        let reg = Registry::new();
        for _ in 0..self.below(6) {
            reg.counter(&self.name()).add(self.next());
        }
        for _ in 0..self.below(6) {
            reg.gauge(&self.name()).set(self.next() as i64);
        }
        for _ in 0..self.below(4) {
            let h = reg.histogram(&self.name());
            for _ in 0..self.below(32) {
                h.record(self.next() >> self.below(64));
            }
        }
        reg.snapshot()
    }
}

#[test]
fn arbitrary_registries_round_trip() {
    for case in 0..CASES {
        let snap = Rng::new(1, case).snapshot();
        let json = snap.to_json();
        assert_eq!(Snapshot::from_json(&json).as_ref(), Ok(&snap), "json: {json}");
    }
}

#[test]
fn truncated_documents_err_without_panicking() {
    for case in 0..CASES {
        let rng = &mut Rng::new(2, case);
        let json = rng.snapshot().to_json();
        // The full document and the full document minus its trailing
        // newline both parse; every shorter prefix must fail cleanly.
        let mut cut = rng.below(json.len() as u64 - 1) as usize;
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        assert!(Snapshot::from_json(&json[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }
}

#[test]
fn arbitrary_garbage_never_panics() {
    for case in 0..CASES {
        let rng = &mut Rng::new(3, case);
        // Any characters at all, and document-shaped ones.
        const SHAPED: &[char] =
            &['{', '}', '[', ']', '"', ':', ',', '-', '0', '7', 'c', 'o', 'u', 'n', 't', ' ', '\\'];
        let input: String = (0..rng.below(65))
            .filter_map(|_| match rng.below(2) {
                0 => char::from_u32(rng.below(0x11_0000) as u32),
                _ => Some(rng.pick(SHAPED)),
            })
            .collect();
        let _ = Snapshot::from_json(&input);
    }
}

#[test]
fn arbitrary_bytes_never_panic() {
    for case in 0..CASES {
        let rng = &mut Rng::new(4, case);
        // Mostly ASCII, or almost nothing would be valid UTF-8.
        let bytes: Vec<u8> = (0..rng.below(64))
            .map(|_| if rng.below(8) == 0 { rng.next() as u8 } else { rng.below(0x80) as u8 })
            .collect();
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = Snapshot::from_json(text);
        }
    }
}
