//! The JSON layer against outside input: seeded random trees must
//! round-trip through both writers, and everything a crashed or hostile
//! writer could leave behind must come back as `Err`, never a panic.

use sixdust_json::{from_str, json, parse, to_string, to_string_pretty, Value, MAX_DEPTH};

/// splitmix64: this crate sits below `sixdust_addr::prf`, so its tests
/// carry their own few lines of generator.
struct Rng(u64);

impl Rng {
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

    fn wide(&mut self) -> u128 {
        u128::from(self.next()) << 64 | u128::from(self.next())
    }

    fn string(&mut self) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'µ',
            '→', '😀',
        ];
        (0..self.below(10)).map(|_| ALPHABET[self.below(16) as usize]).collect()
    }

    fn tree(&mut self, depth: usize) -> Value {
        let leaf_only = depth == 0;
        match self.below(if leaf_only { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 => Value::UInt([0, 1, u128::from(u64::MAX), u128::MAX][self.below(4) as usize]),
            3 => Value::UInt(self.wide() >> self.below(128)),
            4 => Value::Int([-1, i128::from(i64::MIN), i128::MIN][self.below(3) as usize]),
            5 => {
                // Any finite float, -0.0 among them.
                let f = f64::from_bits(self.next());
                Value::Float(if f.is_finite() { f } else { -0.0 })
            }
            6 => Value::String(self.string()),
            7 => Value::Array((0..self.below(5)).map(|_| self.tree(depth - 1)).collect()),
            _ => {
                let mut members: Vec<(String, Value)> = Vec::new();
                for _ in 0..self.below(5) {
                    let key = self.string();
                    if members.iter().all(|(k, _)| *k != key) {
                        members.push((key, self.tree(depth - 1)));
                    }
                }
                Value::Object(members)
            }
        }
    }
}

#[test]
fn random_trees_round_trip_through_both_writers() {
    let mut rng = Rng(0x6A50);
    for case in 0..512 {
        let v = rng.tree(5);
        let (pretty, compact) = (v.pretty(), v.compact());
        assert_eq!(parse(&pretty).as_ref(), Ok(&v), "case {case}: {pretty}");
        assert_eq!(parse(&compact).as_ref(), Ok(&v), "case {case}: {compact}");
        // -0.0 == 0.0 as floats; the bytes tell them apart.
        assert_eq!(parse(&pretty).unwrap().compact(), compact, "case {case}");
    }
}

#[test]
fn integers_are_exact_over_the_whole_128_bit_range() {
    let max = "340282366920938463463374607431768211455";
    assert_eq!(parse(max), Ok(Value::UInt(u128::MAX)));
    assert_eq!(from_str::<u128>(max), Ok(u128::MAX));
    assert_eq!(to_string(&u128::MAX), max);
    let min = "-170141183460469231731687303715884105728";
    assert_eq!(parse(min), Ok(Value::Int(i128::MIN)));
    assert_eq!(from_str::<i128>(min), Ok(i128::MIN));
    assert_eq!(to_string(&i128::MIN), min);
    assert_eq!(to_string(&-5i64), "-5");
    assert_eq!(to_string(&5i64), "5");
    assert_eq!(json!(5i64), json!(5u8), "equal numbers are equal values");
    // One past either end is an error, not a rounded float.
    assert!(parse("340282366920938463463374607431768211456").is_err());
    assert!(parse("-170141183460469231731687303715884105729").is_err());
    // Narrower targets check their own range.
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u32>("-1").is_err());
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert!(from_str::<u32>("1.0").is_err());
}

#[test]
fn minus_zero_and_floats_keep_their_bytes() {
    let v = parse("-0").unwrap();
    assert!(matches!(v, Value::Float(f) if f == 0.0 && f.is_sign_negative()));
    assert_eq!(v.compact(), "-0.0");
    assert_eq!(parse("-0.0").unwrap().compact(), "-0.0");
    assert_eq!(to_string(&100.0f64), "100.0");
    assert_eq!(to_string(&0.1f64), "0.1");
    assert_eq!(to_string(&12.5f64), "12.5");
    assert_eq!(parse("1E2"), Ok(Value::Float(100.0)));
    assert_eq!(parse("2.5e-3"), Ok(Value::Float(0.0025)));
    assert_eq!(to_string(&f64::NAN), "null");
    assert!(parse("1e999").is_err(), "no infinities");
}

#[test]
fn escapes_and_surrogate_pairs() {
    let text = "q\" b\\ s/ \u{8}\u{c}\n\r\t \u{1} µ→😀";
    let written = to_string(text);
    assert_eq!(written, r#""q\" b\\ s/ \b\f\n\r\t \u0001 µ→😀""#);
    assert_eq!(from_str::<String>(&written).as_deref(), Ok(text));
    assert_eq!(from_str::<String>(r#""\ud83d\ude00 \u00b5 \/ \u0041""#).as_deref(), Ok("😀 µ / A"));
    for bad in [
        r#""\ud83d""#,       // high surrogate alone
        r#""\ud83d\n""#,     // high surrogate, then another escape
        r#""\ud83d\u0041""#, // high surrogate, then a non-surrogate
        r#""\ude00""#,       // low surrogate alone
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\u+123""#,
        r#""\x41""#,
        "\"raw \n newline\"",
        "\"raw \u{1} control\"",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn nesting_is_bounded() {
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(parse(&nested(MAX_DEPTH)).is_ok());
    assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    let objects = |depth: usize| "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
    assert!(parse(&objects(MAX_DEPTH)).is_ok());
    assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    // Far past the bound: an error, not a stack overflow.
    assert!(parse(&"[".repeat(1_000_000)).is_err());
    assert!(parse(&"{\"k\":".repeat(1_000_000)).is_err());
}

#[test]
fn every_truncation_of_a_document_is_an_error() {
    let doc = json!({
        "version": 3u32,
        "input": [u128::MAX, 1],
        "name": "a \"quoted\" \u{1} µ😀",
        "nested": { "flag": true, "none": Option::<u8>::None, "ratio": -1.5e-7 },
    });
    for text in [doc.pretty(), doc.compact()] {
        assert_eq!(parse(&text), Ok(doc.clone()));
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            assert!(parse(&text[..cut]).is_err(), "prefix of {cut} bytes parsed: {}", &text[..cut]);
        }
    }
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        "",
        "   ",
        "1 2",
        "{} x",
        "[1,2]]",
        "null\u{0}",
        "{\"a\": 1, \"a\": 2}",
        "{\"a\": {\"b\": 1, \"c\": 2, \"b\": 3}}",
        "01",
        "-01",
        "00",
        "1.",
        ".5",
        "1e",
        "1e+",
        "+1",
        "-",
        "- 1",
        "0x10",
        "[1,]",
        "[,1]",
        "{\"a\":1,}",
        "{a: 1}",
        "{\"a\" 1}",
        "{1: 2}",
        "nul",
        "True",
        "NaN",
        "'single'",
        "\u{feff}1",
        "[1\u{a0}]",
    ] {
        assert!(parse(bad).is_err(), "{bad:?}");
    }
    // Whitespace around a document is fine.
    assert_eq!(parse(" \t\r\n[ 1 , 2 ]\n"), Ok(json!([1u8, 2])));
}

#[test]
fn seeded_garbage_never_panics() {
    let mut rng = Rng(99);
    const SHAPED: &[u8] = b"{}[]\",:-0123456789.eE+ \\untrfalsu\n";
    for _ in 0..2048 {
        let len = rng.below(48) as usize;
        let shaped = rng.below(2) == 0;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if shaped {
                    SHAPED[rng.below(SHAPED.len() as u64) as usize]
                } else {
                    rng.next() as u8
                }
            })
            .collect();
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = parse(text);
        }
    }
}

#[test]
fn pretty_and_compact_forms_keep_the_legacy_shapes() {
    let manifest = Value::Object(vec![
        ("date".to_string(), json!("2021-06-01")),
        ("counts".to_string(), json!(vec![("responsive-addresses.txt".to_string(), 3usize)])),
        ("gfw_filter_active".to_string(), json!(false)),
        ("digests".to_string(), json!(Vec::<(String, String)>::new())),
        ("window".to_string(), json!(Option::<u32>::None)),
        ("empty".to_string(), Value::Object(vec![])),
    ]);
    let pretty = "{\n  \"date\": \"2021-06-01\",\n  \"counts\": [\n    [\n      \
                  \"responsive-addresses.txt\",\n      3\n    ]\n  ],\n  \
                  \"gfw_filter_active\": false,\n  \"digests\": [],\n  \"window\": null,\n  \
                  \"empty\": {}\n}";
    assert_eq!(manifest.pretty(), pretty);
    assert_eq!(
        manifest.compact(),
        r#"{"date":"2021-06-01","counts":[["responsive-addresses.txt",3]],"gfw_filter_active":false,"digests":[],"window":null,"empty":{}}"#
    );
    assert_eq!(to_string_pretty(&manifest), pretty);
}

#[test]
fn json_macro_sorts_object_literals_and_nests() {
    let rows = vec![json!({ "b": 1u8, "a": "x" })];
    let v = json!({ "result": { "rows": rows, "n": 2usize }, "experiment": "t" });
    assert_eq!(v.compact(), r#"{"experiment":"t","result":{"n":2,"rows":[{"a":"x","b":1}]}}"#);
    assert_eq!(v.get("experiment"), Some(&json!("t")));
    assert_eq!(v.get("missing"), None);
}

#[derive(Debug, Clone, PartialEq, Default)]
struct Knobs {
    seed: u64,
    windows: Vec<(u32, u32)>,
    limit: Option<u32>,
}
sixdust_json::json_struct!(Knobs { seed = 0, windows = Vec::new(), limit });

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Fast,
    Exact,
}
sixdust_json::json_enum!(Mode { Fast, Exact });

#[derive(Debug, Clone, PartialEq)]
struct Record {
    day: u32,
    counts: [u64; 3],
    mode: Mode,
    knobs: Knobs,
    note: Option<String>,
    added_later: u32,
}
sixdust_json::json_struct!(Record { day, counts, mode, knobs, note, added_later = 30 });

#[test]
fn struct_and_enum_macros_read_what_they_write_and_what_came_before() {
    let r = Record {
        day: 7,
        counts: [1, 2, u64::MAX],
        mode: Mode::Exact,
        knobs: Knobs { seed: 9, windows: vec![(1, 4)], limit: None },
        note: Some("n".to_string()),
        added_later: 5,
    };
    let text = to_string(&r);
    assert_eq!(
        text,
        r#"{"day":7,"counts":[1,2,18446744073709551615],"mode":"Exact","knobs":{"seed":9,"windows":[[1,4]],"limit":null},"note":"n","added_later":5}"#
    );
    assert_eq!(from_str::<Record>(&text), Ok(r.clone()));
    // Absent keys take their defaults, an absent Option is None, unknown
    // keys are ignored, key order is free.
    let old = r#"{"retired": [1], "knobs": {}, "mode": "Fast", "counts": [0,0,0], "day": 1}"#;
    let read: Record = from_str(old).unwrap();
    assert_eq!(
        read,
        Record {
            day: 1,
            counts: [0; 3],
            mode: Mode::Fast,
            knobs: Knobs::default(),
            note: None,
            added_later: 30
        }
    );
    for (bad, why) in [
        (r#"{"knobs": {}, "mode": "Fast", "counts": [0,0,0]}"#, "missing field `day`"),
        (r#"{"knobs": {}, "mode": "Slow", "counts": [0,0,0], "day": 1}"#, "unknown Mode variant"),
        (r#"{"knobs": {}, "mode": "Fast", "counts": [0,0], "day": 1}"#, "array of 3 elements"),
        (
            r#"{"knobs": {"windows": [[1]]}, "mode": "Fast", "counts": [0,0,0], "day": 1}"#,
            "array of 2",
        ),
        (r#"{"knobs": {}, "mode": "Fast", "counts": [0,0,0], "day": null}"#, "Record.day"),
        (r#"[1]"#, "Record: expected an object"),
    ] {
        let err = from_str::<Record>(bad).unwrap_err().to_string();
        assert!(err.contains(why), "{bad}: {err}");
    }
}
